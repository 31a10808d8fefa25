//! Lint: engine/harness/oracle code may not silently discard typed errors.
//!
//! The benchmark's measures depend on every failure reaching the harness:
//! a `DbError`/`VfsError`/`RecoveryError` dropped on the floor converts a
//! detectable outage into silent corruption of the measures. This lint
//! flags, in `crates/engine`, `crates/core` and `crates/oracle` non-test
//! code:
//!
//! * `let _ = fallible();` — unless the expression propagates with `?`;
//! * statement-position `fallible().ok();` — the error is erased;
//! * `fallible().unwrap_or_default()` — the error becomes an empty value
//!   (an unreadable heap, an empty index);
//! * a bare `fallible();` statement whose `#[must_use]` result is
//!   discarded (rustc warns too, but tidy also sees it in fixtures).
//!
//! "Fallible" means the callee's return type carries `DbResult`,
//! `VfsResult`, or a `Result`/`Option` naming one of the repo's error
//! types — resolved through the call graph, not by name-matching.

use crate::callgraph::Model;
use crate::lex::{Tok, TokKind};
use crate::{Diagnostics, Lint, Workspace};

/// Crates whose non-test code is held to the no-swallowing rule.
const SCOPED_PREFIXES: &[&str] =
    &["crates/engine/src/", "crates/core/src/", "crates/oracle/src/"];

/// See the module docs.
pub struct ErrorSwallow;

impl Lint for ErrorSwallow {
    fn name(&self) -> &'static str {
        "error-swallow"
    }

    fn description(&self) -> &'static str {
        "no `let _ =`/`.ok();`/`.unwrap_or_default()`/ignored results discarding DbError/VfsError/RecoveryError"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        let m = &ws.model;
        for fn_idx in 0..m.fns.len() {
            let node = &m.fns[fn_idx];
            let rel = m.rel_of(fn_idx).to_string();
            if node.item.is_test
                || node.item.body.is_empty()
                || !SCOPED_PREFIXES.iter().any(|p| rel.starts_with(p))
            {
                continue;
            }
            let toks = m.toks_of(fn_idx);
            let body = node.item.body.clone();
            for i in body.clone() {
                // `let _ = EXPR ;` where EXPR calls something fallible and
                // does not itself propagate with `?`.
                if toks[i].is_ident("let")
                    && toks.get(i + 1).is_some_and(|t| t.is_ident("_"))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
                {
                    let end = stmt_end(toks, i + 3, body.end);
                    let has_question = toks[i + 3..end].iter().any(|t| t.is_punct('?'));
                    if has_question {
                        continue;
                    }
                    if let Some(callee) = first_fallible_call(m, fn_idx, i + 3, end) {
                        diags.emit(
                            self.name(),
                            &rel,
                            toks[i].line,
                            format!(
                                "`let _ =` discards the {} result of `{callee}`; handle it, \
                                 propagate with `?`, or waive with a justification",
                                "fallible"
                            ),
                        );
                    }
                }
                // Statement-position `….ok();` erasing a fallible result.
                if toks[i].is_ident("ok")
                    && i > body.start
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(';'))
                {
                    let stmt_start = stmt_start(toks, i, body.start);
                    if first_fallible_call(m, fn_idx, stmt_start, i).is_some() {
                        diags.emit(
                            self.name(),
                            &rel,
                            toks[i].line,
                            "`.ok();` in statement position erases a typed error; handle it, \
                             propagate with `?`, or waive with a justification"
                                .to_string(),
                        );
                    }
                }
            }
            // Bare `fallible(…);` statements, whose must-use result is
            // dropped, and `fallible(…).unwrap_or_default()`.
            for site in &m.sites[fn_idx] {
                if site.targets.iter().any(|&t| m.returns_fallible(t)) {
                    let open = site.tok + 1;
                    let Some(close) = crate::callgraph::match_group(toks, open) else { continue };
                    let callee = site
                        .targets
                        .first()
                        .map(|&t| m.display_name(t))
                        .unwrap_or_else(|| site.name.clone());
                    if toks.get(close + 1).is_some_and(|t| t.is_punct('.'))
                        && toks.get(close + 2).is_some_and(|t| t.is_ident("unwrap_or_default"))
                    {
                        diags.emit(
                            self.name(),
                            &rel,
                            site.line,
                            format!(
                                "`.unwrap_or_default()` turns the error of fallible `{callee}` \
                                 into a default value; handle it or propagate with `?`"
                            ),
                        );
                    }
                    if !toks.get(close + 1).is_some_and(|t| t.is_punct(';')) {
                        continue;
                    }
                    let start = stmt_start(toks, site.tok, body.start);
                    // The statement must consist only of the call chain
                    // (receiver + call), i.e. start..close is the site.
                    let leading_ok = toks[start..site.tok].iter().all(|t| {
                        t.kind == TokKind::Ident && !t.is_ident("let") || t.is_punct('.')
                            || t.is_punct(':')
                            || t.is_punct('&')
                            || t.is_punct('*')
                    });
                    if leading_ok && !toks[start..site.tok].iter().any(|t| t.is_punct('=')) {
                        diags.emit(
                            self.name(),
                            &rel,
                            site.line,
                            format!(
                                "result of fallible `{callee}` is discarded; handle it or \
                                 propagate with `?`"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Token index one past the end of the statement starting at `from`
/// (the `;` at nesting depth zero, or `end`).
fn stmt_end(toks: &[Tok], from: usize, end: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().take(end).skip(from) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return k;
        }
    }
    end
}

/// Token index where the statement containing `at` starts (just after the
/// previous top-level `;`, `{` or `}`).
fn stmt_start(toks: &[Tok], at: usize, floor: usize) -> usize {
    let mut k = at;
    let mut depth = 0i64;
    while k > floor {
        let t = &toks[k - 1];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                return k;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return k;
        }
        k -= 1;
    }
    floor
}

/// The display name of the first call in `start..end` whose resolved
/// target returns a repo error type.
fn first_fallible_call(m: &Model, fn_idx: usize, start: usize, end: usize) -> Option<String> {
    for site in &m.sites[fn_idx] {
        if site.tok < start || site.tok >= end {
            continue;
        }
        if let Some(&t) = site.targets.iter().find(|&&t| m.returns_fallible(t)) {
            return Some(m.display_name(t));
        }
    }
    None
}
