//! The workspace model: every parsed file, a global function table, an
//! approximate intra-workspace call graph, and the shared dataflow-lite
//! pass (local type environments from parameter types, struct fields,
//! type aliases and `let` chains) that the v2 lints build on.
//!
//! ## Known approximations (also documented in DESIGN.md §12)
//!
//! * **Name-based resolution.** `self.m(…)` resolves through the
//!   enclosing `impl` type; `recv.m(…)` resolves through the receiver's
//!   inferred type when the dataflow-lite pass can infer one, and
//!   otherwise falls back to "the one workspace method with that name" —
//!   unless the name is a common `std` method (`insert`, `push`, …),
//!   where guessing would wire the graph to the wrong crate.
//! * **No trait-object dispatch.** A call through `dyn Trait` resolves to
//!   nothing; lints over-approximate by walking all inherent impls only.
//! * **Closures inline.** A closure body belongs to its enclosing fn;
//!   calls inside it are edges of that fn (sound for reachability).
//! * **Type inference is first-ident-deep.** `DbResult<&mut Instance>`
//!   infers `Instance`; tuples infer their first named type. Wrong
//!   inferences degrade to *unresolved*, never to a wrong edge, except
//!   where two workspace types share a uniquely-named method.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{self, FnItem};
use crate::lex::{Tok, TokKind};
use crate::source::SourceFile;

/// Smart-pointer-ish wrappers skipped when inferring the interesting type
/// inside a type expression.
const WRAPPERS: &[&str] =
    &["Arc", "Mutex", "RwLock", "MutexGuard", "Box", "Rc", "RefCell", "Cell", "Pin", "Vec"];

/// Result-ish wrappers additionally skipped when inferring what a call
/// *yields* (the `Ok` payload is what flows onward).
const RET_WRAPPERS: &[&str] = &["DbResult", "VfsResult", "Result", "Option"];

/// Methods that yield the same interesting type they were called on
/// (lock/borrow/clone adapters), letting chains like
/// `self.fs.lock().append_padded(…)` resolve.
const TYPE_PRESERVING: &[&str] =
    &["lock", "clone", "as_ref", "as_mut", "borrow", "borrow_mut", "unwrap", "expect"];

/// Method names too common in `std` to resolve by workspace-wide
/// uniqueness alone — a `.insert(` on a `BTreeMap` must not become an
/// edge to `Index::insert`.
const COMMON_STD_METHODS: &[&str] = &[
    "insert", "remove", "get", "get_mut", "push", "pop", "len", "is_empty", "clear", "contains",
    "contains_key", "iter", "iter_mut", "into_iter", "next", "next_back", "clone", "to_string",
    "map", "and_then", "filter", "find", "any", "all", "ok_or", "ok_or_else", "unwrap_or",
    "unwrap_or_else", "unwrap_or_default", "extend", "truncate", "drain", "entry", "keys",
    "values", "take", "split_at", "sort", "sort_by", "min", "max", "count", "sum", "rev", "new",
    "append", "write", "read", "flush", "send", "join", "name", "kind", "fmt", "eq", "cmp",
];

/// Keywords that terminate a backward receiver-chain walk.
const EXPR_KEYWORDS: &[&str] = &[
    "match", "if", "while", "return", "let", "in", "else", "for", "loop", "move", "break",
    "continue", "await", "mut", "ref", "as", "where", "impl", "dyn", "fn", "use", "pub",
];

/// How a call site was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallStyle {
    /// `name(…)`
    Free,
    /// `recv.name(…)`
    Method,
    /// `path::name(…)`
    Path,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name (within the file's token stream).
    pub tok: usize,
    /// 1-based source line.
    pub line: usize,
    /// Callee name as written.
    pub name: String,
    /// Inferred receiver type for method calls, when the dataflow-lite
    /// pass could resolve one.
    pub recv_type: Option<String>,
    /// Syntactic style.
    pub style: CallStyle,
    /// Resolved target fn indexes (possibly several same-name free fns;
    /// empty when unresolved or external).
    pub targets: Vec<usize>,
}

/// One fn in the global table.
#[derive(Debug)]
pub struct FnNode {
    /// Index into [`Model::files`].
    pub file: usize,
    /// The parsed item.
    pub item: FnItem,
}

/// The whole-workspace model.
pub struct Model {
    /// The lexed files, in workspace order.
    pub files: Vec<SourceFile>,
    /// Global fn table.
    pub fns: Vec<FnNode>,
    /// Call sites per fn (indexed like [`Model::fns`]).
    pub sites: Vec<Vec<CallSite>>,
    /// Adjacency: callee fn indexes per fn.
    pub edges: Vec<Vec<usize>>,
    /// `(type, field)` → inferred field type.
    fields: BTreeMap<(String, String), String>,
    /// Type alias → inferred target type.
    aliases: BTreeMap<String, String>,
    /// `(impl type, method)` → fn indexes.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// Method name → fn indexes (all impls).
    methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Free-fn name → fn indexes.
    free_by_name: BTreeMap<String, Vec<usize>>,
}

impl Model {
    /// Parses the items of every file and builds the model over them.
    pub fn build(files: Vec<SourceFile>) -> Model {
        let mut fns = Vec::new();
        let mut fields = BTreeMap::new();
        let mut aliases = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            let parsed = items::parse(f);
            fns.extend(parsed.fns.into_iter().map(|item| FnNode { file: fi, item }));
            for s in &parsed.structs {
                for (fname, fty) in &s.fields {
                    if let Some(t) = first_type_ident(fty, WRAPPERS) {
                        fields.insert((s.name.clone(), fname.clone()), t);
                    }
                }
            }
            for a in &parsed.aliases {
                if let Some(t) = first_type_ident(&a.target, WRAPPERS) {
                    aliases.insert(a.name.clone(), t);
                }
            }
        }
        let mut methods: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            match &f.item.impl_type {
                Some(t) => {
                    methods.entry((t.clone(), f.item.name.clone())).or_default().push(i);
                    methods_by_name.entry(f.item.name.clone()).or_default().push(i);
                }
                None => free_by_name.entry(f.item.name.clone()).or_default().push(i),
            }
        }
        let mut model = Model {
            files,
            fns,
            sites: Vec::new(),
            edges: Vec::new(),
            fields,
            aliases,
            methods,
            methods_by_name,
            free_by_name,
        };
        for i in 0..model.fns.len() {
            let sites = model.extract_sites(i);
            model.edges.push(sites.iter().flat_map(|s| s.targets.iter().copied()).collect());
            model.sites.push(sites);
        }
        model
    }

    /// The token stream of the file a fn lives in.
    pub fn toks_of(&self, fn_idx: usize) -> &[Tok] {
        &self.files[self.fns[fn_idx].file].toks
    }

    /// Workspace-relative path of the file a fn lives in.
    pub fn rel_of(&self, fn_idx: usize) -> &str {
        &self.files[self.fns[fn_idx].file].rel
    }

    /// `Type::name` / `name` display form.
    pub fn display_name(&self, fn_idx: usize) -> String {
        let f = &self.fns[fn_idx];
        match &f.item.impl_type {
            Some(t) => format!("{t}::{}", f.item.name),
            None => f.item.name.clone(),
        }
    }

    /// Fn indexes whose `// tidy-entry(<role>)` marker names `role`.
    pub fn entries(&self, role: &str) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].item.entry_roles.iter().any(|r| r == role))
            .collect()
    }

    /// BFS over the call graph from `roots`; the map's value is the
    /// parent fn each node was first reached from (roots map to
    /// themselves), which [`Model::trace`] turns into a call path.
    pub fn reachable(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.edges[n] {
                if self.fns[m].item.is_test {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(m) {
                    e.insert(n);
                    queue.push_back(m);
                }
            }
        }
        parent
    }

    /// Renders the call path `entry → … → target` from a reachability map.
    pub fn trace(&self, parent: &BTreeMap<usize, usize>, target: usize) -> String {
        let mut path = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        path.iter().map(|&i| self.display_name(i)).collect::<Vec<_>>().join(" → ")
    }

    /// Whether a fn's return type carries one of the repo's error types
    /// (`DbResult`, `VfsResult`, or a `Result`/`Option` naming `DbError` /
    /// `VfsError` / `RecoveryError`).
    pub fn returns_fallible(&self, fn_idx: usize) -> bool {
        ret_is_fallible(&self.fns[fn_idx].item.ret)
    }

    /// The local type environment of a fn: parameter names (and `self`)
    /// plus simple `let name = chain;` bindings, mapped to inferred types.
    pub fn type_env(&self, fn_idx: usize) -> BTreeMap<String, String> {
        let node = &self.fns[fn_idx];
        let mut env = BTreeMap::new();
        for (pname, pty) in &node.item.params {
            let ty = if pname == "self" {
                Some(pty.clone()).filter(|t| !t.is_empty())
            } else {
                first_type_ident(pty, WRAPPERS).map(|t| self.dealias(&t))
            };
            if let Some(t) = ty {
                env.insert(pname.clone(), self.dealias(&t));
            }
        }
        let toks = self.toks_of(fn_idx);
        let body = node.item.body.clone();
        let mut j = body.start;
        while j < body.end {
            if toks[j].is_ident("let")
                && toks
                    .get(j + 1)
                    .is_some_and(|t| t.kind == TokKind::Ident && !t.is_ident("mut"))
                && toks.get(j + 2).is_some_and(|t| t.is_punct('='))
            {
                let name = toks[j + 1].text.clone();
                if let Some(ty) = self.eval_chain(toks, j + 3, body.end, &env) {
                    env.insert(name, ty);
                }
            } else if toks[j].is_ident("let")
                && toks.get(j + 1).is_some_and(|t| t.is_ident("mut"))
                && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(j + 3).is_some_and(|t| t.is_punct('='))
            {
                let name = toks[j + 2].text.clone();
                if let Some(ty) = self.eval_chain(toks, j + 4, body.end, &env) {
                    env.insert(name, ty);
                }
            }
            j += 1;
        }
        env
    }

    fn dealias(&self, t: &str) -> String {
        self.aliases.get(t).cloned().unwrap_or_else(|| t.to_string())
    }

    /// Evaluates the type a postfix chain starting at `toks[start]`
    /// yields: `self.fs.lock()` → `SimFs`, `self.inst_mut()?` →
    /// `Instance`. `None` when inference gives out.
    fn eval_chain(
        &self,
        toks: &[Tok],
        start: usize,
        end: usize,
        env: &BTreeMap<String, String>,
    ) -> Option<String> {
        let mut j = start;
        while j < end && (toks[j].is_punct('&') || toks[j].is_ident("mut") || toks[j].is_punct('*'))
        {
            j += 1;
        }
        let head = toks.get(j)?;
        if head.kind != TokKind::Ident {
            return None;
        }
        let mut cur: String;
        if head.text == "self" {
            cur = env.get("self")?.clone();
            j += 1;
        } else if head.text == "Arc"
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(j + 3).is_some_and(|t| t.is_ident("clone"))
        {
            // `Arc::clone(&expr)` yields expr's type.
            let open = j + 4;
            if !toks.get(open).is_some_and(|t| t.is_punct('(')) {
                return None;
            }
            let close = match_group(toks, open)?;
            cur = self.eval_chain(toks, open + 1, close, env)?;
            j = close + 1;
        } else if head.text.chars().next().is_some_and(char::is_uppercase)
            && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        {
            // `Type::assoc(…)` — yields the method's inner return type,
            // or the type itself for constructors like `new`.
            let ty = self.dealias(&head.text);
            let m = toks.get(j + 3)?.text.clone();
            j += 4;
            if toks.get(j).is_some_and(|t| t.is_punct('(')) {
                j = match_group(toks, j)? + 1;
            }
            cur = match self.methods.get(&(ty.clone(), m.clone())) {
                Some(idxs) => {
                    let ret = &self.fns[idxs[0]].item.ret;
                    first_type_ident(ret, RET_WRAPPERS)
                        .map(|t| self.dealias(&t))
                        .unwrap_or(ty)
                }
                None if m == "new" || m == "default" || m == "builder" => ty,
                None => return None,
            };
        } else if let Some(t) = env.get(&head.text) {
            cur = t.clone();
            j += 1;
        } else {
            return None;
        }
        // Postfix segments.
        loop {
            while j < end && toks[j].is_punct('?') {
                j += 1;
            }
            if j >= end || !toks[j].is_punct('.') {
                break;
            }
            let seg = toks.get(j + 1)?;
            if seg.kind != TokKind::Ident {
                return None;
            }
            let seg_name = seg.text.clone();
            if toks.get(j + 2).is_some_and(|t| t.is_punct('(')) {
                // Method call.
                let close = match_group(toks, j + 2)?;
                j = close + 1;
                if let Some(idxs) = self.methods.get(&(cur.clone(), seg_name.clone())) {
                    let ret = &self.fns[idxs[0]].item.ret;
                    match first_type_ident(ret, RET_WRAPPERS) {
                        Some(t) => cur = self.dealias(&t),
                        None => return None,
                    }
                } else if TYPE_PRESERVING.contains(&seg_name.as_str()) {
                    // `.lock()`, `.clone()`, `?` — same interesting type.
                } else {
                    return None;
                }
            } else {
                // Field access.
                match self.fields.get(&(cur.clone(), seg_name.clone())) {
                    Some(t) => cur = self.dealias(t),
                    None => return None,
                }
                j += 2;
            }
        }
        Some(cur)
    }

    /// Extracts and resolves every call site in a fn body.
    fn extract_sites(&self, fn_idx: usize) -> Vec<CallSite> {
        let node = &self.fns[fn_idx];
        let body = node.item.body.clone();
        if body.is_empty() {
            return Vec::new();
        }
        let env = self.type_env(fn_idx);
        let toks = self.toks_of(fn_idx);
        let mut out = Vec::new();
        for i in body.clone() {
            if toks[i].kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                continue;
            }
            let name = toks[i].text.clone();
            if EXPR_KEYWORDS.contains(&name.as_str()) {
                continue;
            }
            let prev = i.checked_sub(1).map(|k| &toks[k]);
            let site = if prev.is_some_and(|t| t.is_punct('.')) {
                self.resolve_method(fn_idx, &env, toks, i, &name, body.start)
            } else if prev.is_some_and(|t| t.is_punct(':')) {
                self.resolve_path(toks, i, &name)
            } else if prev.is_some_and(|t| t.is_ident("fn") || t.is_punct('!')) {
                continue; // nested fn def / macro body — not a call
            } else {
                // Bare call: free fns with this name anywhere in the
                // workspace (module paths are flattened).
                let targets = self.free_by_name.get(&name).cloned().unwrap_or_default();
                CallSite {
                    tok: i,
                    line: toks[i].line,
                    name: name.clone(),
                    recv_type: None,
                    style: CallStyle::Free,
                    targets,
                }
            };
            out.push(site);
        }
        out
    }

    fn resolve_method(
        &self,
        _fn_idx: usize,
        env: &BTreeMap<String, String>,
        toks: &[Tok],
        name_tok: usize,
        name: &str,
        body_start: usize,
    ) -> CallSite {
        let chain_start = chain_start(toks, name_tok.saturating_sub(1), body_start);
        let recv_type =
            self.eval_chain(toks, chain_start, name_tok.saturating_sub(1), env);
        let targets = match &recv_type {
            Some(t) => self.methods.get(&(t.clone(), name.to_string())).cloned().unwrap_or_default(),
            None => Vec::new(),
        };
        let targets = if targets.is_empty() && recv_type.is_none() {
            // Fallback: unique workspace method, unless the name is a
            // common std method.
            match self.methods_by_name.get(name) {
                Some(idxs)
                    if !COMMON_STD_METHODS.contains(&name)
                        && idxs
                            .iter()
                            .map(|&i| self.fns[i].item.impl_type.clone())
                            .collect::<BTreeSet<_>>()
                            .len()
                            == 1 =>
                {
                    idxs.clone()
                }
                _ => Vec::new(),
            }
        } else {
            targets
        };
        CallSite {
            tok: name_tok,
            line: toks[name_tok].line,
            name: name.to_string(),
            recv_type,
            style: CallStyle::Method,
            targets,
        }
    }

    fn resolve_path(&self, toks: &[Tok], name_tok: usize, name: &str) -> CallSite {
        // `qual::name(` — a type method (`LockTable::new`) or a
        // module-qualified free fn (`checkpoint::write_dirty`).
        let qual = name_tok
            .checked_sub(3)
            .map(|k| &toks[k])
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone());
        let targets = match &qual {
            Some(q) if q.chars().next().is_some_and(char::is_uppercase) => {
                let ty = self.dealias(q);
                self.methods.get(&(ty, name.to_string())).cloned().unwrap_or_default()
            }
            _ => self.free_by_name.get(name).cloned().unwrap_or_default(),
        };
        CallSite {
            tok: name_tok,
            line: toks[name_tok].line,
            name: name.to_string(),
            recv_type: qual,
            style: CallStyle::Path,
            targets,
        }
    }
}

/// Index of the matching close token for the open group at `open`.
pub fn match_group(toks: &[Tok], open: usize) -> Option<usize> {
    let (o, c) = match toks[open].text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return None,
    };
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the matching open token for the close token at `close`,
/// scanning backwards from it.
pub fn match_group_back(toks: &[Tok], close: usize) -> Option<usize> {
    let (o, c) = match toks[close].text.as_str() {
        ")" => ('(', ')'),
        "]" => ('[', ']'),
        _ => return None,
    };
    let mut depth = 0i64;
    let mut k = close;
    loop {
        if toks[k].is_punct(c) {
            depth += 1;
        } else if toks[k].is_punct(o) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// Start index of the postfix receiver chain that ends at the `.` token
/// `dot` (exclusive): walks back over `ident`, matched groups, `?`, `.`
/// and `::` connectors, stopping at keywords and operators.
fn chain_start(toks: &[Tok], dot: usize, floor: usize) -> usize {
    let mut k = dot; // toks[dot] is the `.`; walk from the unit before it
    loop {
        if k == floor {
            return k;
        }
        let prev = k - 1;
        let t = &toks[prev];
        if t.is_punct('?') {
            // `expr?` — postfix operator, transparent to the chain.
            k = prev;
            continue;
        }
        let unit_start = if t.is_punct(')') || t.is_punct(']') {
            let Some(open) = match_group_back(toks, prev) else { return k };
            if open <= floor {
                return k;
            }
            // A call group: include the callee name and any `::` path.
            let mut s = open;
            if s > floor
                && toks[s - 1].kind == TokKind::Ident
                && !EXPR_KEYWORDS.contains(&toks[s - 1].text.as_str())
            {
                s -= 1;
                while s > floor + 1 && toks[s - 1].is_punct(':') && toks[s - 2].is_punct(':') {
                    s -= 2;
                    if s > floor && toks[s - 1].kind == TokKind::Ident {
                        s -= 1;
                    }
                }
            }
            s
        } else if t.kind == TokKind::Ident && !EXPR_KEYWORDS.contains(&t.text.as_str()) {
            let mut s = prev;
            while s > floor + 1 && toks[s - 1].is_punct(':') && toks[s - 2].is_punct(':') {
                s -= 2;
                if s > floor && toks[s - 1].kind == TokKind::Ident {
                    s -= 1;
                }
            }
            s
        } else if t.is_punct('?') {
            prev
        } else {
            return k;
        };
        // Continue only across a `.` or `?` connector further left.
        if unit_start > floor
            && (toks[unit_start - 1].is_punct('.') || toks[unit_start - 1].is_punct('?'))
        {
            let mut c = unit_start - 1;
            while c > floor && toks[c].is_punct('?') {
                c -= 1;
            }
            if toks[c].is_punct('.') {
                k = c;
                continue;
            }
            return unit_start;
        }
        return unit_start;
    }
}

/// The first uppercase-initial identifier in a type expression that is
/// not one of `skip` — the "interesting" type.
pub fn first_type_ident(ty: &str, skip: &[&str]) -> Option<String> {
    let mut word = String::new();
    let mut words = Vec::new();
    for c in ty.chars().chain(std::iter::once(' ')) {
        if c.is_ascii_alphanumeric() || c == '_' {
            word.push(c);
        } else if !word.is_empty() {
            words.push(std::mem::take(&mut word));
        }
    }
    words
        .into_iter()
        .find(|w| w.chars().next().is_some_and(char::is_uppercase) && !skip.contains(&w.as_str()))
}

/// Whether a return-type string carries one of the repo's error types.
pub fn ret_is_fallible(ret: &str) -> bool {
    ret.contains("DbResult")
        || ret.contains("VfsResult")
        || (ret.contains("Result")
            && (ret.contains("DbError") || ret.contains("VfsError") || ret.contains("RecoveryError")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(srcs: &[(&str, &str)]) -> Model {
        let files = srcs.iter().map(|(rel, src)| SourceFile::parse((*rel).to_string(), src));
        Model::build(files.collect())
    }

    const ENGINE: &str = "
pub type SharedFs = Arc<Mutex<SimFs>>;
pub struct SimFs { n: u64 }
impl SimFs {
    pub fn append_padded(&mut self, pad: u64) -> VfsResult<()> { Ok(()) }
    pub fn write_block(&mut self) -> VfsResult<()> { Ok(()) }
}
pub struct DbServer { fs: SharedFs, inst: Option<Instance> }
pub struct Instance { locks: LockTable }
pub struct LockTable { held: u64 }
impl LockTable {
    pub fn lock_row(&mut self) -> bool { true }
}
impl DbServer {
    fn inst_mut(&mut self) -> DbResult<&mut Instance> { todo!() }
    fn flush_redo(&mut self) -> DbResult<()> {
        let mut fs = self.fs.lock();
        fs.append_padded(0)?;
        Ok(())
    }
    fn lock_for_dml(&mut self) -> DbResult<bool> {
        let got = self.inst_mut()?.locks.lock_row();
        Ok(got)
    }
    fn insert_one(&mut self) -> DbResult<()> {
        self.lock_for_dml()?;
        self.flush_redo()?;
        helper();
        Ok(())
    }
}
// tidy-entry(recovery)
pub fn startup(srv: &mut DbServer) -> DbResult<()> { srv.insert_one() }
fn helper() { x.unwrap(); }
";

    fn idx(m: &Model, name: &str) -> usize {
        (0..m.fns.len()).find(|&i| m.fns[i].item.name == name).unwrap()
    }

    #[test]
    fn resolves_self_methods_fields_and_guards() {
        let m = model_of(&[("crates/engine/src/server.rs", ENGINE)]);
        // flush_redo: `self.fs.lock()` infers SimFs, so the
        // `fs.append_padded(…)` site resolves to SimFs::append_padded.
        let flush = idx(&m, "flush_redo");
        let site = m.sites[flush].iter().find(|s| s.name == "append_padded").unwrap();
        assert_eq!(site.recv_type.as_deref(), Some("SimFs"));
        assert_eq!(site.targets, vec![idx(&m, "append_padded")]);
        // lock_for_dml: `self.inst_mut()?.locks.lock_row()` resolves
        // through the return type and the field table.
        let lock = idx(&m, "lock_for_dml");
        let site = m.sites[lock].iter().find(|s| s.name == "lock_row").unwrap();
        assert_eq!(site.recv_type.as_deref(), Some("LockTable"));
    }

    #[test]
    fn reachability_walks_entries_transitively() {
        let m = model_of(&[("crates/engine/src/server.rs", ENGINE)]);
        let entries = m.entries("recovery");
        assert_eq!(entries, vec![idx(&m, "startup")]);
        let reach = m.reachable(&entries);
        for f in ["insert_one", "flush_redo", "lock_for_dml", "append_padded", "helper"] {
            assert!(reach.contains_key(&idx(&m, f)), "{f} should be reachable");
        }
        let trace = m.trace(&reach, idx(&m, "helper"));
        assert_eq!(trace, "startup → DbServer::insert_one → helper");
    }

    #[test]
    fn common_std_method_names_do_not_false_edge() {
        let m = model_of(&[(
            "a.rs",
            "impl Index { pub fn insert(&mut self) -> DbResult<()> { Ok(()) } }\n\
             fn user() { let mut m = BTreeMap::new(); m.insert(1, 2); }\n",
        )]);
        let user = idx(&m, "user");
        let site = m.sites[user].iter().find(|s| s.name == "insert").unwrap();
        assert!(site.targets.is_empty(), "BTreeMap::insert must not edge to Index::insert");
    }

    #[test]
    fn fallible_return_detection() {
        assert!(ret_is_fallible("DbResult < RowId >"));
        assert!(ret_is_fallible("Result < ( ) , VfsError >"));
        assert!(!ret_is_fallible("std :: fmt :: Result"));
        assert!(!ret_is_fallible("bool"));
    }
}
