//! Fixture: text that only looks like syntax. An attribute quoted in a
//! multi-line string gates nothing, so the panics below it stay on the
//! recovery path; a waiver quoted in a raw string waives nothing, so it is
//! not a stale waiver either.

pub const BANNER: &str = "
#[cfg(test)]
";

pub fn replay_tail(x: Option<u32>) -> u32 {
    let v = x.unwrap();
    if v == 0 {
        panic!("no tail to replay");
    }
    v
}

pub const HELP: &str = r#"
// tidy-allow(error-swallow): quoted in the operator's guide
"#;
