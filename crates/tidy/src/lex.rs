//! A hand-rolled Rust lexer: the one reader of a file's syntax, under
//! tidy's regions, waivers, item parser and call graph.
//!
//! The workspace is offline/vendored, so no syn/proc-macro2 — and none is
//! needed: tidy's analyses are about *this* repo's idioms, not arbitrary
//! Rust. The lexer produces a flat token stream with line numbers and,
//! beside it, every `//` line comment (where [`crate::source`] finds
//! waivers and [`crate::items`] entry markers); block comments are
//! dropped. String/char literals become single tokens, so no pattern lint
//! can fire on quoted text and no comment is ever found inside one, and
//! raw strings (`r#"…"#`) are handled so multi-line literals cannot
//! desynchronize the stream.

/// What a token is, coarsely — fine distinctions (keyword vs identifier)
/// are left to the consumer, which has the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `foo`, `SimFs`, `r#type`).
    Ident,
    /// Single punctuation character (`.`, `(`, `{`, `<`, `!`, …).
    Punct,
    /// String literal (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Numeric literal (`42`, `1.5e3`, `0xB1`, `4_096u64`).
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Coarse kind.
    pub kind: TokKind,
    /// The token's source text (a lifetime's without its tick).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }
}

/// One `//` line comment (doc comments included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column of the `//`.
    pub col: usize,
    /// Everything after the `//`, to the end of the line.
    pub text: String,
}

/// Lexes `text` into a token stream and its line comments. Never fails:
/// unterminated constructs simply run to end-of-file (tidy lints a tree
/// that rustc compiles, so malformed input only occurs in fixtures, where
/// best-effort is fine).
pub fn lex(text: &str) -> (Vec<Tok>, Vec<Comment>) {
    let b = text.as_bytes();
    let mut toks = Vec::with_capacity(text.len() / 4);
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let line_start = b[..start].iter().rposition(|&c| c == b'\n').map_or(0, |p| p + 1);
                comments.push(Comment {
                    line,
                    col: start - line_start + 1,
                    text: text[start + 2..i].to_string(),
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Block comment, nested.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if raw_string_hashes(b, i).is_some() => {
                // Raw string r"…", r#"…"#, br#"…"# — find the matching
                // closing quote + hashes.
                let (quote, hashes) = raw_string_hashes(b, i).unwrap_or((i + 1, 0));
                let (start, tok_line) = (i, line);
                i = quote + 1; // past the opening quote
                'raw: while i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                    } else if b[i] == b'"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if b.get(i + 1 + k) != Some(&b'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
                toks.push(literal(TokKind::Str, text, start, i, tok_line));
            }
            b'"' => {
                let (start, tok_line) = (i, line);
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => {
                            // `\` at a line end continues the literal on the next.
                            if b.get(i + 1) == Some(&b'\n') {
                                line += 1;
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                toks.push(literal(TokKind::Str, text, start, i, tok_line));
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime is `'ident` with no
                // closing quote right after one character.
                let is_char = matches!(
                    (b.get(i + 1), b.get(i + 2)),
                    (Some(b'\\'), _) | (Some(_), Some(b'\''))
                );
                if is_char {
                    let start = i;
                    i += 1;
                    if b.get(i) == Some(&b'\\') {
                        i += 2;
                    } else {
                        i += 1;
                    }
                    // Consume to the closing quote (handles b'\x7f').
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    toks.push(literal(TokKind::Char, text, start, i, line));
                } else {
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric()
                        || b[i] == b'_'
                        || (b[i] == b'.'
                            && b.get(i + 1).is_some_and(u8::is_ascii_digit)
                            && b.get(i.wrapping_sub(1)) != Some(&b'.')))
                {
                    // `1.5` stays one number; `0..n` stops before `..`.
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: String::from_utf8_lossy(&b[start..i]).into_owned(),
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    (toks, comments)
}

/// The literal token spanning `text[start..end]`, clamped to the text for
/// one left unterminated at end-of-file.
fn literal(kind: TokKind, text: &str, start: usize, end: usize, line: usize) -> Tok {
    let text = text.get(start..end.min(text.len())).unwrap_or_default().to_string();
    Tok { kind, text, line }
}

/// If `b[i]` starts a raw-string prefix (`r`, `br`, `rb` + hashes +
/// quote), returns (index of the opening quote, hash count).
fn raw_string_hashes(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b.get(j) == Some(&b'b') {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&b'"') {
        Some((j, hashes))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).0.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lexes_idents_puncts_numbers() {
        let (toks, _) = lex("fn f(x: u64) -> bool { x < 10 }");
        let names: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect();
        assert_eq!(names, vec!["fn", "f", "x", "u64", "bool", "x"]);
        assert!(toks.iter().any(|t| t.kind == TokKind::Num && t.text == "10"));
    }

    #[test]
    fn drops_comments_and_string_bodies() {
        let toks = kinds("a /* b /* c */ d */ e // f\n\"HashMap\" g");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["a", "e", "g"]);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
    }

    #[test]
    fn line_comments_are_kept_beside_the_tokens() {
        let src = "let a = 1; // tail\n/// doc\nlet s = \"// quoted\";\n\
                   let r = r#\"\n// raw\n\"#; /* block */";
        let (toks, comments) = lex(src);
        let got: Vec<(usize, usize, &str)> =
            comments.iter().map(|c| (c.line, c.col, c.text.as_str())).collect();
        assert_eq!(got, vec![(1, 12, " tail"), (2, 1, "/ doc")]);
        let strs: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text.as_str()).collect();
        assert_eq!(strs, vec!["\"// quoted\"", "r#\"\n// raw\n\"#"]);
    }

    #[test]
    fn raw_strings_do_not_desync_lines() {
        let src = "let a = r#\"multi\nline \" quote\"#;\nlet b = 1;";
        let (toks, _) = lex(src);
        let b_tok = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
        // A `\` line continuation inside a string literal is a line too.
        let (toks, _) = lex("let a = \"one \\\n   two\";\nlet b = 1;");
        assert_eq!(toks.iter().find(|t| t.is_ident("b")).unwrap().line, 3);
    }

    #[test]
    fn chars_vs_lifetimes() {
        let (toks, _) = lex("let c: char = 'x'; fn f<'a>(s: &'a str) {} let e = '\\n';");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
    }

    #[test]
    fn numeric_ranges_split_correctly() {
        let (toks, _) = lex("for i in 0..xs.len() { let f = 1.5e3; }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Num && t.text == "0"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Num && t.text == "1.5e3"));
        // The two dots of `..` survive as puncts.
        assert!(toks.windows(2).any(|w| w[0].is_punct('.') && w[1].is_punct('.')));
    }

    #[test]
    fn lines_are_tracked() {
        let (toks, _) = lex("a\nb\n\nc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
