//! Fixture: transitive panic-freedom over the call graph, plus the
//! sabotage-isolation and stale-waiver seeds.

pub struct Srv;

impl Srv {
    #[cfg(any(test, feature = "sabotage"))]
    pub fn sabotage_skip_redo_records(&mut self, _n: u32) {}
}

// tidy-entry(recovery)
pub fn startup(x: Option<u32>, buf: &[u8], i: usize) -> u32 {
    let v = redo_apply(x);
    let b = u32::from(buf[i]);
    v + b + clamped(buf, i) + decode_header(x) + waived(x) + record_len(x) + replay_tail(x)
}

pub fn redo_apply(x: Option<u32>) -> u32 {
    let v = x.unwrap();
    if v == 0 {
        panic!("zero rows recovered");
    }
    v
}

pub fn clamped(buf: &[u8], i: usize) -> u32 {
    u32::from(buf[i % buf.len()])
}

pub fn waived(x: Option<u32>) -> u32 {
    // tidy-allow(panic-freedom): fixture proves a justified waiver suppresses
    x.expect("covered by the waiver on the line above")
}

pub fn dead_code_helper(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn ungated(server: &mut Srv) {
    server.sabotage_skip_redo_records(1);
}

#[cfg(any(test, feature = "sabotage"))]
pub fn gated(server: &mut Srv) {
    server.sabotage_skip_redo_records(1);
}

// tidy-allow(panic-freedom): stale waiver; nothing below can panic
pub fn quiet() {}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        Some(1).unwrap();
    }
}
