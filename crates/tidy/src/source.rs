//! Loaded files: each lexed once, with what every lint shares read off
//! the tokens and comments — `#[cfg(test)]` regions, sabotage-gated
//! regions, and `tidy-allow` waivers.

use std::path::Path;

use crate::callgraph::match_group;
use crate::lex::{lex, Comment, Tok};

/// One parsed `// tidy-allow(<lint>): <reason>` waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the waiver sits on; it covers this line and the next.
    pub line: usize,
    /// Lint name inside the parentheses.
    pub lint: String,
    /// Justification after the colon (must be non-empty).
    pub reason: String,
}

/// A workspace file, lexed, plus the shared per-line analysis.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The file's tokens.
    pub toks: Vec<Tok>,
    /// The file's `//` line comments, in source order.
    pub comments: Vec<Comment>,
    /// Parsed waivers.
    pub allows: Vec<Allow>,
    /// 1-based inclusive line ranges gated by `#[cfg(test)]`.
    test_regions: Vec<(usize, usize)>,
    /// 1-based inclusive ranges gated by `#[cfg(any(test, feature = "sabotage"))]`.
    sabotage_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Loads and analyzes one file.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be read.
    pub fn load(root: &Path, path: &Path) -> Result<SourceFile, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::parse(rel, &text))
    }

    /// Analyzes `text` as the file at workspace-relative path `rel`.
    pub fn parse(rel: String, text: &str) -> SourceFile {
        let (toks, comments) = lex(text);
        let allows = comments.iter().filter_map(parse_allow).collect();
        let test_regions = gated_regions(&toks, "cfg(test)");
        let sabotage_regions = gated_regions(&toks, "cfg(any(test,feature=\"sabotage\"))");
        SourceFile { rel, toks, comments, allows, test_regions, sabotage_regions }
    }

    /// Whether 1-based `line` is inside a `#[cfg(test)]`-gated region.
    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Whether 1-based `line` is gated by
    /// `cfg(any(test, feature = "sabotage"))`.
    pub fn in_sabotage_region(&self, line: usize) -> bool {
        self.sabotage_regions.iter().any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// Parses a `// tidy-allow(<lint>): <reason>` comment. A waiver with an
/// empty reason is deliberately not parsed — it then suppresses nothing
/// and the un-suppressed violation keeps the tree red until a
/// justification is written. Lint names must be kebab-case identifiers,
/// so prose placeholders like the one in this doc comment never parse.
fn parse_allow(comment: &Comment) -> Option<Allow> {
    let pos = comment.text.find("tidy-allow(")?;
    let rest = &comment.text[pos + "tidy-allow(".len()..];
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    let reason = rest[close + 1..].trim_start().strip_prefix(':')?.trim();
    let valid_name = lint.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && lint.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
    (valid_name && !reason.is_empty())
        .then(|| Allow { line: comment.line, lint, reason: reason.to_string() })
}

/// The 1-based inclusive line ranges of the items and statements gated by
/// the attribute `#[<cfg>]` (`cfg` written without spaces). A region
/// starts at the first token after the attribute and any attributes that
/// follow it, and runs through the matching `}` of the first brace it
/// opens — or, when it opens none, to the first `;` or `,` outside its
/// parentheses and brackets (struct fields, literal fields, statements).
fn gated_regions(toks: &[Tok], cfg: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let Some(close) = attribute_close(toks, i) else { continue };
        let text: String = toks[i + 2..close].iter().map(|t| t.text.as_str()).collect();
        if text != cfg {
            continue;
        }
        let mut start = close + 1;
        while let Some(next) = attribute_close(toks, start) {
            start = next + 1;
        }
        let Some(first) = toks.get(start) else { continue };
        let mut depth = 0i64;
        let mut end = first.line;
        for k in start..toks.len() {
            let t = &toks[k];
            if t.is_punct('{') {
                end = match_group(toks, k).map_or(toks[toks.len() - 1].line, |c| toks[c].line);
                break;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            }
            if depth < 0 {
                break;
            }
            end = t.line;
            if depth == 0 && (t.is_punct(';') || t.is_punct(',')) {
                break;
            }
        }
        out.push((first.line, end));
    }
    out
}

/// The index of the `]` closing the outer attribute `#[…]` that starts at
/// `i`, if one does.
fn attribute_close(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks.get(i)?.is_punct('#') || !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    match_group(toks, i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions(src: &str, cfg: &str) -> Vec<(usize, usize)> {
        gated_regions(&lex(src).0, cfg)
    }

    const SABOTAGE: &str = "cfg(any(test,feature=\"sabotage\"))";

    #[test]
    fn parses_allows_and_rejects_empty_reasons() {
        // The marker is built by concatenation so tidy, run over its own
        // sources, never mistakes this test data for real waivers.
        let m = format!("tidy-{}", "allow");
        let f = SourceFile::parse(
            "a.rs".into(),
            &format!(
                "foo(); // {m}(error-swallow): the error is a constant\n\
                 bar(); // {m}(panic-freedom):\n\
                 // {m}(lock-discipline): scratch map, drained sorted\n\
                 // {m}(<lint>): placeholder names never parse\n\
                 let s = \"// {m}(error-swallow): inside a string literal\";\n\
                 let r = r#\"\n// {m}(error-swallow): inside a raw string\n\"#;",
            ),
        );
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0], Allow { line: 1, lint: "error-swallow".into(), reason: "the error is a constant".into() });
        assert_eq!(f.allows[1].line, 3);
    }

    #[test]
    fn finds_cfg_test_module_region() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); }
}
fn after() {}";
        assert_eq!(regions(src, "cfg(test)"), vec![(3, 6)]);
        // Attribute text inside a string literal gates nothing.
        let quoted = "let s = \"\n#[cfg(test)]\n\";\nfn after() { x.unwrap(); }";
        assert_eq!(regions(quoted, "cfg(test)"), vec![]);
    }

    #[test]
    fn braceless_item_region_is_one_logical_line() {
        let src = "\
struct S {
    #[cfg(any(test, feature = \"sabotage\"))]
    pub sabotage_skip_redo: u32,
    pub other: u32,
}";
        assert_eq!(regions(src, SABOTAGE), vec![(3, 3)]);
    }

    #[test]
    fn gated_statement_region_spans_its_braces() {
        let src = "\
fn f(&mut self) {
    #[cfg(any(test, feature = \"sabotage\"))]
    if self.sabotage_skip_redo > 0 {
        self.sabotage_skip_redo -= 1;
        return;
    }
    work();
}";
        assert_eq!(regions(src, SABOTAGE), vec![(3, 6)]);
    }
}
