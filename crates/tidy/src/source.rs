//! Loaded files with the per-line analysis every lint shares: comment
//! stripping, `#[cfg(test)]` region detection, attribute-gated region
//! detection, and `tidy-allow` waiver parsing.

use std::path::Path;

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

/// A workspace file plus the shared per-line analysis.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw lines, 0-indexed (diagnostics add 1).
    pub lines: Vec<String>,
    /// Lines with line comments and string-literal contents blanked, so
    /// pattern lints never fire on prose or quoted text.
    pub code: Vec<String>,
    /// Parsed waivers.
    pub allows: Vec<Allow>,
    /// 1-based inclusive line ranges covered by a `#[cfg(test)] mod`.
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
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let code: Vec<String> = lines.iter().map(|l| strip_noncode(l)).collect();
        let allows = parse_allows(&lines, &code);
        let test_regions = attribute_regions(&lines, &code, |attr| {
            attr.contains("#[cfg(test)]")
        });
        let sabotage_regions = attribute_regions(&lines, &code, |attr| {
            attr.contains("cfg(any(test, feature = \"sabotage\"))")
        });
        Ok(SourceFile { rel, lines, code, allows, test_regions, sabotage_regions })
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

    /// The file's full text (lossless enough for whole-file parses —
    /// trailing newline normalization does not matter to any lint).
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

/// Blanks string-literal contents and strips `//` line comments, keeping
/// byte offsets of the surviving code intact. Tidy's pattern lints run on
/// the result so neither comments nor user-visible strings trigger them.
/// (Raw/multi-line strings are not tracked; the repo style keeps literals
/// on one line, and a miss only risks a false positive that a waiver can
/// document.)
fn strip_noncode(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut in_char = false;
    while let Some(c) = chars.next() {
        if in_str {
            if c == '\\' {
                chars.next();
                out.push_str("__");
            } else if c == '"' {
                in_str = false;
                out.push('"');
            } else {
                out.push('_');
            }
        } else if in_char {
            if c == '\\' {
                chars.next();
                out.push_str("__");
            } else if c == '\'' {
                in_char = false;
                out.push('\'');
            } else {
                out.push('_');
            }
        } else {
            match c {
                '"' => {
                    in_str = true;
                    out.push('"');
                }
                // A lifetime tick (`'a`) is followed by an identifier and
                // no closing quote nearby; treat `'` as a char literal
                // only when one or two chars later a `'` closes it.
                '\'' => {
                    let rest: String = chars.clone().take(3).collect();
                    let closes = rest.char_indices().any(|(i, r)| r == '\'' && i <= 2);
                    if closes {
                        in_char = true;
                    }
                    out.push('\'');
                }
                '/' if chars.peek() == Some(&'/') => break,
                _ => out.push(c),
            }
        }
    }
    out
}

/// Parses every `// tidy-allow(<lint>): <reason>` in the file. A waiver
/// with an empty reason is deliberately not parsed — it then suppresses
/// nothing and the un-suppressed violation keeps the tree red until a
/// justification is written. Lint names must be kebab-case identifiers,
/// so prose placeholders like the one in this doc comment never parse,
/// and the marker must sit in the comment tail of the line (past where
/// `strip_noncode` truncated it), not inside a string literal.
fn parse_allows(lines: &[String], code: &[String]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(pos) = line.find("tidy-allow(") else { continue };
        if pos < code[i].len() {
            continue; // inside a (blanked) string literal, not a comment
        }
        let rest = &line[pos + "tidy-allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let lint = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let Some(reason) = after.strip_prefix(':') else { continue };
        let reason = reason.trim();
        let valid_name = !lint.is_empty()
            && lint.chars().next().is_some_and(|c| c.is_ascii_lowercase())
            && lint.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if !valid_name || reason.is_empty() {
            continue;
        }
        out.push(Allow { line: i + 1, lint, reason: reason.to_string() });
    }
    out
}

/// Finds the 1-based inclusive line ranges of items gated by an attribute
/// matching `pred`. The region starts at the first code line after the
/// attribute (skipping further attributes and comments) and runs to the
/// end of that item: the matching close of its first brace, or the single
/// logical line for brace-less items (struct fields, literal fields).
fn attribute_regions(
    lines: &[String],
    code: &[String],
    pred: impl Fn(&str) -> bool,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim_start().starts_with("//") || !pred(line) {
            continue;
        }
        // Find the first following line that is code (not attr/comment).
        let mut j = i + 1;
        while j < lines.len() {
            let t = lines[j].trim_start();
            if t.is_empty() || t.starts_with("#[") || t.starts_with("//") {
                j += 1;
            } else {
                break;
            }
        }
        if j >= lines.len() {
            continue;
        }
        // Brace-track from line j until depth returns to zero. If the
        // item never opens a brace, the region is the lines up to the
        // first one ending in `,` or `;`.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut end = j;
        for (k, c) in code.iter().enumerate().skip(j) {
            for ch in c.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            end = k;
            let t = c.trim_end();
            if opened && depth <= 0 {
                break;
            }
            if !opened && (t.ends_with(',') || t.ends_with(';')) {
                break;
            }
        }
        out.push((j + 1, end + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<String> {
        src.lines().map(str::to_string).collect()
    }

    #[test]
    fn strips_comments_and_string_bodies() {
        assert_eq!(strip_noncode("let x = 1; // HashMap here"), "let x = 1; ");
        assert_eq!(strip_noncode("let s = \"Instant::now\";"), "let s = \"____________\";");
        assert_eq!(strip_noncode("let c = 'x'; let l: &'a str;"), "let c = '_'; let l: &'a str;");
        assert_eq!(strip_noncode("url(\"https://x\") // tail"), "url(\"_________\") ");
    }

    #[test]
    fn parses_allows_and_rejects_empty_reasons() {
        // The marker is built by concatenation so tidy, run over its own
        // sources, never mistakes this test data for real waivers.
        let m = format!("tidy-{}", "allow");
        let ls = lines(&format!(
            "foo(); // {m}(error-swallow): the error is a constant\n\
             bar(); // {m}(panic-freedom):\n\
             // {m}(ordered-serialization): scratch map, drained sorted\n\
             // {m}(<lint>): placeholder names never parse\n\
             let s = \"// {m}(error-swallow): inside a string literal\";",
        ));
        let code: Vec<String> = ls.iter().map(|l| strip_noncode(l)).collect();
        let allows = parse_allows(&ls, &code);
        assert_eq!(allows.len(), 2);
        assert_eq!(allows[0], Allow { line: 1, lint: "error-swallow".into(), reason: "the error is a constant".into() });
        assert_eq!(allows[1].line, 3);
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
        let ls = lines(src);
        let code: Vec<String> = ls.iter().map(|l| strip_noncode(l)).collect();
        let regions = attribute_regions(&ls, &code, |a| a.contains("#[cfg(test)]"));
        assert_eq!(regions, vec![(3, 6)]);
    }

    #[test]
    fn braceless_item_region_is_one_logical_line() {
        let src = "\
struct S {
    #[cfg(any(test, feature = \"sabotage\"))]
    pub sabotage_skip_redo: u32,
    pub other: u32,
}";
        let ls = lines(src);
        let code: Vec<String> = ls.iter().map(|l| strip_noncode(l)).collect();
        let regions =
            attribute_regions(&ls, &code, |a| a.contains("cfg(any(test, feature = \"sabotage\"))"));
        assert_eq!(regions, vec![(3, 3)]);
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
        let ls = lines(src);
        let code: Vec<String> = ls.iter().map(|l| strip_noncode(l)).collect();
        let regions =
            attribute_regions(&ls, &code, |a| a.contains("cfg(any(test, feature = \"sabotage\"))"));
        assert_eq!(regions, vec![(3, 6)]);
    }
}
