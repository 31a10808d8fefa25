//! Lint: nothing reachable from a recovery entry point may panic.
//!
//! A panic anywhere on a recovery path turns a measured "failed recovery"
//! into a crashed experiment — the exact outcome the paper's methodology
//! cannot distinguish from a hung DBMS. v1 of this lint pattern-matched
//! four whole files; it could not see `startup → replay → codec helper →
//! unwrap`. v2 walks the approximate call graph from every function
//! marked `// tidy-entry(recovery)` (crash recovery, media recovery,
//! checkpoint, standby, archiver entries) and flags each reachable
//! `unwrap`/`expect`, panicking macro, and unguarded `[]` indexing,
//! reporting the call path that reaches it.
//!
//! Indexing heuristics (documented in DESIGN.md §12) — an index is
//! treated as guarded when:
//!
//! * the index expression contains `%` or `min` (clamped by
//!   construction);
//! * a single index variable (or single-variable range endpoint) is
//!   compared against a `len()` earlier in the same fn;
//! * the index variable was bound from a container lookup (`map.get`,
//!   `map.remove`, `map.values`, `binary_search*`) — the slab-index
//!   idiom, where the map's values are valid indices by invariant;
//! * a literal index is used after the same fn already checked
//!   `is_empty()` / `len()` (header-probing decoders);
//! * the indexed value is a `static`/`const` of the same file declared
//!   as a fixed-size array (`[[u32; 256]; 8]`), and the index at that
//!   depth is a literal below the declared length or is masked by one
//!   (`TABLES[7][(x & 0xff) as usize]` — lookup tables).
//!
//! Everything else must become `.get(…)` with a typed error, or carry a
//! justified waiver.

use crate::callgraph::{match_group, match_group_back};
use crate::lex::{Tok, TokKind};
use crate::{Diagnostics, Lint, Workspace};

/// Macro names that panic at runtime.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names that panic on the error/None arm.
const PANIC_METHODS: &[&str] = &["unwrap", "unwrap_err", "expect", "expect_err"];

/// See the module docs.
pub struct PanicFreedom;

impl Lint for PanicFreedom {
    fn name(&self) -> &'static str {
        "panic-freedom"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic!/unguarded [] reachable from a tidy-entry(recovery) fn"
    }

    fn check(&self, ws: &Workspace, diags: &mut Diagnostics) {
        let m = &ws.model;
        let entries = m.entries("recovery");
        if entries.is_empty() {
            // A tree with an engine but no declared entry points would
            // silently disable the whole lint — make that loud.
            if ws.under("crates/engine/src/").next().is_some() {
                diags.emit(
                    self.name(),
                    "crates/engine/src/recovery.rs",
                    0,
                    "no `// tidy-entry(recovery)` markers found in the workspace; \
                     the transitive panic-freedom lint has nothing to anchor on"
                        .to_string(),
                );
            }
            return;
        }
        let reach = m.reachable(&entries);
        for &fn_idx in reach.keys() {
            let node = &m.fns[fn_idx];
            if node.item.is_test || node.item.body.is_empty() {
                continue;
            }
            let rel = m.rel_of(fn_idx).to_string();
            let toks = m.toks_of(fn_idx);
            let body = node.item.body.clone();
            let via = m.trace(&reach, fn_idx);
            for i in body.clone() {
                let t = &toks[i];
                if t.kind == TokKind::Ident
                    && PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    diags.emit(
                        self.name(),
                        &rel,
                        t.line,
                        format!(
                            "`{}!` on a recovery path (via {via}); return a typed \
                             RecoveryError through DbResult instead of panicking",
                            t.text
                        ),
                    );
                } else if t.kind == TokKind::Ident
                    && PANIC_METHODS.contains(&t.text.as_str())
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                {
                    diags.emit(
                        self.name(),
                        &rel,
                        t.line,
                        format!(
                            "`.{}()` on a recovery path (via {via}); return a typed \
                             RecoveryError through DbResult instead of panicking",
                            t.text
                        ),
                    );
                } else if t.is_punct('[')
                    && i > body.start
                    && is_index_base(&toks[i - 1])
                    && !index_is_guarded(toks, &body, i)
                {
                    diags.emit(
                        self.name(),
                        &rel,
                        t.line,
                        format!(
                            "unguarded `[]` indexing on a recovery path (via {via}); \
                             use `.get(…)` with a typed error, bound the index, or waive \
                             with a justification"
                        ),
                    );
                }
            }
        }
    }
}

/// Whether the token before a `[` makes it an index expression (rather
/// than an array literal, attribute, or pattern).
fn is_index_base(prev: &Tok) -> bool {
    (prev.kind == TokKind::Ident && !is_keyword(&prev.text))
        || prev.is_punct(')')
        || prev.is_punct(']')
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "return"
            | "in"
            | "else"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "for"
            | "loop"
            | "break"
            | "continue"
            | "as"
            | "where"
            | "impl"
            | "dyn"
    )
}

/// Heuristic bounds-safety for the index expression opening at `open`.
fn index_is_guarded(toks: &[Tok], body: &std::ops::Range<usize>, open: usize) -> bool {
    let Some(close) = match_group(toks, open) else { return false };
    let idx = &toks[open + 1..close];
    // `a[x % n]`, `a[x.min(n)]`, `a[n - 1].min`-style clamps.
    if idx.iter().any(|t| t.is_punct('%') || t.is_ident("min")) {
        return true;
    }
    // A single index variable — or a range with one variable endpoint
    // (`buf[k..]`, `buf[..k]`) — compared against a `len()` earlier in
    // the fn body (`i < xs.len()`, `for i in 0..xs.len()`,
    // `if old.len() > k {…}`) is treated as guarded.
    let single_var = match idx {
        [v] if v.kind == TokKind::Ident => Some(v.text.as_str()),
        [v, a, b] | [a, b, v]
            if v.kind == TokKind::Ident && a.is_punct('.') && b.is_punct('.') =>
        {
            Some(v.text.as_str())
        }
        _ => None,
    };
    if let Some(var) = single_var {
        let mut saw_len = false;
        for k in body.start..open {
            let t = &toks[k];
            if t.is_ident("len") {
                saw_len = true;
            }
            let cmp_after = t.is_ident(var)
                && toks.get(k + 1).is_some_and(|n| n.is_punct('<') || n.is_punct('>'));
            let cmp_before = t.is_ident(var)
                && k > body.start
                && (toks[k - 1].is_punct('<') || toks[k - 1].is_punct('>'));
            if (cmp_after || cmp_before) && (saw_len || scan_len_ahead(toks, k, close)) {
                return true;
            }
        }
        // Binding-site idiom: the variable was bound from a container
        // lookup whose values are valid indices by invariant —
        // `let &i = self.map.get(&k)…`, `Some(i) = map.remove(&k)`,
        // `.map(|&i| slots[i])` over `map.values()`, a `binary_search`
        // hit — or clamped by modulo at its binding
        // (`let ng = (g + 1) % ngroups`). Checked around the variable's
        // first occurrence in the body (its binding site).
        if let Some(first) = (body.start..open).find(|&k| toks[k].is_ident(var)) {
            // 25 tokens back reaches past a `binary_search_by_key` key
            // closure; 15 forward covers `let ng = (g + 1) % n;`.
            let lo = first.saturating_sub(25).max(body.start);
            let hi = (first + 15).min(open);
            if toks[lo..hi].iter().any(|t| is_lookup_ident(t) || t.is_punct('%')) {
                return true;
            }
        }
    }
    // A literal index after the fn already probed emptiness or length
    // (`if buf.is_empty() { return … }` then `buf[0]` — the
    // header-probing decoder idiom).
    if matches!(idx, [n] if n.kind == TokKind::Num)
        && toks[body.start..open].iter().any(|t| t.is_ident("is_empty") || t.is_ident("len"))
    {
        return true;
    }
    // A fixed-size table indexed below its declared length.
    matches!((declared_len(toks, open), index_bound(idx)), (Some(len), Some(max)) if max < len)
}

/// The declared length of the array dimension the `[` at `open` indexes,
/// when the indexed value is a `static`/`const` item of the same file
/// with a fixed-size array type: `TABLES[7][i]` against
/// `static TABLES: [[u32; 256]; 8]` is 8 at the first `[`, 256 at the
/// second.
fn declared_len(toks: &[Tok], open: usize) -> Option<u64> {
    // Back over the earlier `[…]` groups of the chain to the base name.
    let mut depth = 0usize;
    let mut at = open;
    while toks[at.checked_sub(1)?].is_punct(']') {
        at = match_group_back(toks, at - 1)?;
        depth += 1;
    }
    let base = &toks[at.checked_sub(1)?];
    if base.kind != TokKind::Ident || (at >= 2 && toks[at - 2].is_punct('.')) {
        return None;
    }
    let colon = (2..toks.len()).find(|&k| {
        toks[k].is_punct(':')
            && toks[k - 1].is_ident(&base.text)
            && (toks[k - 2].is_ident("static") || toks[k - 2].is_ident("const"))
    })?;
    // `[[elem; 256]; 8]`: one more `[` in per dimension already indexed,
    // and a dimension's length is the last thing before its `]`.
    let ty = colon + 1 + depth;
    if !toks.get(colon + 1..=ty)?.iter().all(|t| t.is_punct('[')) {
        return None;
    }
    let close = match_group(toks, ty)?;
    if !toks[close - 2].is_punct(';') {
        return None;
    }
    literal_value(&toks[close - 1])
}

/// The largest value the index expression can take, when that is plain
/// from its shape: a literal, or an expression masked by a literal as
/// its last operation — `x & 0xff`, `(x >> 8 & 0xff) as usize`. `^` and
/// `|` bind looser than `&`, so one of those beside the mask means the
/// mask does not cover the whole expression.
fn index_bound(idx: &[Tok]) -> Option<u64> {
    let mut idx = idx;
    if let [head @ .., a, b] = idx {
        if a.is_ident("as") && b.is_ident("usize") {
            idx = head;
        }
    }
    if idx.first().is_some_and(|t| t.is_punct('(')) && match_group(idx, 0) == Some(idx.len() - 1) {
        idx = &idx[1..idx.len() - 1];
    }
    match idx {
        [n] => literal_value(n),
        [masked @ .., amp, mask] if amp.is_punct('&') => {
            let mut nesting = 0i64;
            for t in masked {
                if t.is_punct('(') || t.is_punct('[') {
                    nesting += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    nesting -= 1;
                } else if nesting == 0 && (t.is_punct('^') || t.is_punct('|')) {
                    return None;
                }
            }
            literal_value(mask)
        }
        _ => None,
    }
}

/// The value of an integer literal token (`7`, `0xff`, `256usize`,
/// `0b1111_1111`).
fn literal_value(t: &Tok) -> Option<u64> {
    if t.kind != TokKind::Num {
        return None;
    }
    let text = t.text.replace('_', "");
    let (digits, radix) = match text.get(..2) {
        Some("0x") => (&text[2..], 16),
        Some("0o") => (&text[2..], 8),
        Some("0b") => (&text[2..], 2),
        _ => (text.as_str(), 10),
    };
    let end = digits.find(|c: char| !c.is_digit(radix)).unwrap_or(digits.len());
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Container lookups whose yielded values are valid indices by the
/// container's own invariant (slab maps, sorted-vec searches).
fn is_lookup_ident(t: &Tok) -> bool {
    t.is_ident("get")
        || t.is_ident("remove")
        || t.is_ident("values")
        || (t.kind == TokKind::Ident && t.text.starts_with("binary_search"))
}

/// `len` within a few tokens after a comparison (`i < xs.len()`).
fn scan_len_ahead(toks: &[Tok], from: usize, limit: usize) -> bool {
    toks[from..limit.min(from + 10).min(toks.len())].iter().any(|t| t.is_ident("len"))
}
