//! Item-level parser over a file's token stream: `struct` fields, `type`
//! aliases, `impl` blocks and `fn` items with parameter and return types.
//! Every other item (`use`, `enum`, `const`, macros) is skipped.
//!
//! This is the layer the call graph builds on. It is deliberately
//! approximate — no generics instantiation, no type inference — but it
//! is *syntax*-aware: a fn body is a token range, and `impl T { fn m }`
//! methods know their `Self` type.

use crate::lex::{Tok, TokKind};
use crate::source::SourceFile;

/// A `struct` definition with its named fields (tuple structs keep an
/// empty field list — no lint needs their positional types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    /// Type name.
    pub name: String,
    /// `(field, type)` pairs; the type is the raw token text joined.
    pub fields: Vec<(String, String)>,
}

/// A `type Alias = Target;` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeAlias {
    /// Alias name.
    pub name: String,
    /// Raw target type text.
    pub target: String,
}

/// One `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `Self` type when defined inside `impl Type` / `impl Trait for Type`.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `(name, type)` pairs for named parameters; a `self` receiver is
    /// recorded as `("self", <impl type>)`.
    pub params: Vec<(String, String)>,
    /// Raw return-type text (empty for `()` / none).
    pub ret: String,
    /// Token index range of the body (exclusive of the braces); empty for
    /// bodyless trait-method declarations.
    pub body: std::ops::Range<usize>,
    /// Whether the fn sits in a `#[cfg(test)]` region or carries a
    /// `#[test]`-like attribute.
    pub is_test: bool,
    /// Entry-point roles declared by `// tidy-entry(<role>)` marker
    /// comments directly above the fn (e.g. `recovery`).
    pub entry_roles: Vec<String>,
}

/// Everything parsed out of one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Struct definitions.
    pub structs: Vec<StructItem>,
    /// Type aliases.
    pub aliases: Vec<TypeAlias>,
    /// Function items, in source order.
    pub fns: Vec<FnItem>,
}

/// Parses one lexed file.
pub fn parse(file: &SourceFile) -> FileItems {
    let mut p = Parser { file, toks: &file.toks, i: 0, out: FileItems::default() };
    p.items(None);
    p.out
}

struct Parser<'a> {
    file: &'a SourceFile,
    toks: &'a [Tok],
    i: usize,
    out: FileItems,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    /// Skips one attribute `#[…]` / `#![…]`, returning its joined text.
    fn attr_text(&mut self) -> String {
        // Caller saw `#`; consume it, optional `!`, then the bracket group.
        let mut text = String::new();
        self.i += 1;
        if self.peek().is_some_and(|t| t.is_punct('!')) {
            self.i += 1;
        }
        if self.peek().is_some_and(|t| t.is_punct('[')) {
            let mut depth = 0usize;
            while let Some(t) = self.toks.get(self.i) {
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        self.i += 1;
                        break;
                    }
                }
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&t.text);
                self.i += 1;
            }
        }
        text
    }

    /// Skips a balanced `<…>` generics group if one starts here. Handles
    /// nested angles; `->` inside generics does not occur at item level.
    fn skip_generics(&mut self) {
        if !self.peek().is_some_and(|t| t.is_punct('<')) {
            return;
        }
        let mut depth = 0i64;
        while let Some(t) = self.toks.get(self.i) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth <= 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
    }

    /// Consumes a balanced brace block starting at the current `{`,
    /// recursing for nested items. Returns the body token range
    /// (exclusive of both braces).
    fn brace_block(&mut self, impl_type: Option<&str>, descend: bool) -> std::ops::Range<usize> {
        debug_assert!(self.peek().is_some_and(|t| t.is_punct('{')));
        self.i += 1;
        let start = self.i;
        if descend {
            self.items(impl_type);
        } else {
            let mut depth = 1i64;
            while let Some(t) = self.toks.get(self.i) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                self.i += 1;
            }
        }
        let end = self.i;
        self.i += 1; // past the closing `}`
        start..end
    }

    /// Parses items until end of stream or an unmatched `}` (the caller's
    /// closing brace).
    fn items(&mut self, impl_type: Option<&str>) {
        let mut pending_attrs: Vec<String> = Vec::new();
        while let Some(t) = self.peek() {
            if t.is_punct('}') {
                return;
            }
            if t.is_punct('#') {
                pending_attrs.push(self.attr_text());
                continue;
            }
            let attrs = std::mem::take(&mut pending_attrs);
            match t.text.as_str() {
                "pub" => {
                    // `pub`, `pub(crate)`, … then re-dispatch on the next
                    // keyword with attributes preserved.
                    self.i += 1;
                    if self.peek().is_some_and(|t| t.is_punct('(')) {
                        self.paren_group();
                    }
                    match self.peek().map(|t| t.text.clone()).unwrap_or_default().as_str() {
                        "fn" => self.fn_item(impl_type, &attrs),
                        "struct" => self.struct_item(),
                        "type" => self.type_alias(),
                        _ => self.i += 1,
                    }
                }
                "fn" => self.fn_item(impl_type, &attrs),
                "struct" => self.struct_item(),
                "type" => self.type_alias(),
                "impl" => self.impl_block(),
                "mod" | "trait" => {
                    // `mod name { … }` / `trait Name { … }`: descend (trait
                    // method decls become bodyless FnItems).
                    self.i += 1;
                    while let Some(t) = self.peek() {
                        if t.is_punct('{') || t.is_punct(';') {
                            break;
                        }
                        self.i += 1;
                    }
                    if self.peek().is_some_and(|t| t.is_punct('{')) {
                        self.brace_block(None, true);
                    } else {
                        self.i += 1;
                    }
                }
                _ => {
                    // Not an item head (use/enum/const/static/macro/…): skip
                    // to the next `;` or balanced `{}` at this level.
                    self.skip_item_like();
                }
            }
        }
    }

    /// Skips a non-fn item: everything to the first `;` or through the
    /// first balanced brace block.
    fn skip_item_like(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.i += 1;
                return;
            }
            if t.is_punct('{') {
                self.brace_block(None, false);
                return;
            }
            if t.is_punct('}') {
                return;
            }
            self.i += 1;
        }
    }

    /// Skips a balanced `(…)` group.
    fn paren_group(&mut self) -> std::ops::Range<usize> {
        let mut depth = 0i64;
        let start = self.i + 1;
        while let Some(t) = self.toks.get(self.i) {
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return start..self.i - 1;
                }
            }
            self.i += 1;
        }
        start..self.i
    }

    fn struct_item(&mut self) {
        self.i += 1; // `struct`
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        self.skip_generics();
        // Tuple struct or unit struct: skip to `;`.
        if !self.peek().is_some_and(|t| t.is_punct('{')) {
            self.skip_item_like();
            if !name.is_empty() {
                self.out.structs.push(StructItem { name, fields: Vec::new() });
            }
            return;
        }
        let body = self.brace_block(None, false);
        let mut fields = Vec::new();
        let mut j = body.start;
        let mut depth = 0i64;
        while j < body.end {
            let t = &self.toks[j];
            if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0
                && t.kind == TokKind::Ident
                && self.toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && !self.toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
            {
                // `name: Type` at field level — collect the type text up to
                // the field-separating comma.
                let fname = t.text.clone();
                let mut ty = String::new();
                let mut k = j + 2;
                let mut tdepth = 0i64;
                while k < body.end {
                    let tt = &self.toks[k];
                    if tt.is_punct('<') || tt.is_punct('(') || tt.is_punct('[') {
                        tdepth += 1;
                    } else if tt.is_punct('>') || tt.is_punct(')') || tt.is_punct(']') {
                        tdepth -= 1;
                    } else if tt.is_punct(',') && tdepth <= 0 {
                        break;
                    }
                    if !ty.is_empty() && tt.kind == TokKind::Ident {
                        ty.push(' ');
                    }
                    ty.push_str(&tt.text);
                    k += 1;
                }
                fields.push((fname, ty));
                j = k;
                continue;
            }
            j += 1;
        }
        self.out.structs.push(StructItem { name, fields });
    }

    fn type_alias(&mut self) {
        self.i += 1; // `type`
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        self.skip_generics();
        if !self.peek().is_some_and(|t| t.is_punct('=')) {
            self.skip_item_like();
            return;
        }
        self.i += 1;
        let mut target = String::new();
        while let Some(t) = self.peek() {
            if t.is_punct(';') {
                self.i += 1;
                break;
            }
            if !target.is_empty() && t.kind == TokKind::Ident {
                target.push(' ');
            }
            target.push_str(&t.text);
            self.i += 1;
        }
        if !name.is_empty() {
            self.out.aliases.push(TypeAlias { name, target });
        }
    }

    fn impl_block(&mut self) {
        self.i += 1; // `impl`
        self.skip_generics();
        // Path until `for`, `{` or `where`.
        let mut first = String::new();
        let mut second: Option<String> = None;
        let mut current = &mut first;
        while let Some(t) = self.peek() {
            if t.is_punct('{') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                self.i += 1;
                second = Some(String::new());
                current = second.as_mut().unwrap_or(&mut first);
                continue;
            }
            if t.kind == TokKind::Ident {
                // Keep only the last path segment (`crate::x::T` → `T`).
                *current = t.text.clone();
            }
            if t.is_punct('<') {
                self.skip_generics();
                continue;
            }
            self.i += 1;
        }
        // `impl T { }` → T; `impl Trait for T { }` → T.
        let self_ty = second.unwrap_or(first);
        while let Some(t) = self.peek() {
            if t.is_punct('{') {
                break;
            }
            self.i += 1; // `where` clauses
        }
        if self.peek().is_some_and(|t| t.is_punct('{')) {
            self.i += 1;
            self.items(Some(&self_ty));
            if self.peek().is_some_and(|t| t.is_punct('}')) {
                self.i += 1;
            }
        }
    }

    fn fn_item(&mut self, impl_type: Option<&str>, attrs: &[String]) {
        let line = self.peek().map_or(0, |t| t.line);
        self.i += 1; // `fn`
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        self.skip_generics();
        let params_range = if self.peek().is_some_and(|t| t.is_punct('(')) {
            self.paren_group()
        } else {
            self.i..self.i
        };
        let params = self.parse_params(params_range, impl_type);
        // Return type: tokens between `->` and `{` / `where` / `;`.
        let mut ret = String::new();
        if self.peek().is_some_and(|t| t.is_punct('-'))
            && self.toks.get(self.i + 1).is_some_and(|t| t.is_punct('>'))
        {
            self.i += 2;
            let mut depth = 0i64;
            while let Some(t) = self.peek() {
                if depth == 0 && (t.is_punct('{') || t.is_punct(';') || t.is_ident("where")) {
                    break;
                }
                if t.is_punct('<') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct('>') || t.is_punct(')') {
                    depth -= 1;
                }
                if !ret.is_empty() && t.kind == TokKind::Ident {
                    ret.push(' ');
                }
                ret.push_str(&t.text);
                self.i += 1;
            }
        }
        while let Some(t) = self.peek() {
            if t.is_punct('{') || t.is_punct(';') {
                break;
            }
            self.i += 1; // `where` clause
        }
        let body = if self.peek().is_some_and(|t| t.is_punct('{')) {
            self.brace_block(None, false)
        } else {
            self.i += 1; // bodyless trait declaration
            self.i..self.i
        };
        let is_test = self.file.in_test_region(line)
            || attrs.iter().any(|a| a == "test" || a.contains("cfg ( test") || a.contains("cfg(test"));
        self.out.fns.push(FnItem {
            entry_roles: entry_markers(self.file, line),
            name,
            impl_type: impl_type.map(str::to_string),
            line,
            params,
            ret,
            body,
            is_test,
        });
    }

    fn parse_params(
        &self,
        range: std::ops::Range<usize>,
        impl_type: Option<&str>,
    ) -> Vec<(String, String)> {
        let mut params = Vec::new();
        let toks = &self.toks[range.clone()];
        // Split on top-level commas.
        let mut depth = 0i64;
        let mut start = 0usize;
        let mut groups: Vec<&[Tok]> = Vec::new();
        for (k, t) in toks.iter().enumerate() {
            if t.is_punct('(') || t.is_punct('<') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct('>') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct(',') && depth == 0 {
                groups.push(&toks[start..k]);
                start = k + 1;
            }
        }
        if start < toks.len() {
            groups.push(&toks[start..]);
        }
        for g in groups {
            if g.iter().any(|t| t.is_ident("self")) && !g.iter().any(|t| t.is_punct(':')) {
                params.push(("self".to_string(), impl_type.unwrap_or("").to_string()));
                continue;
            }
            let Some(colon) = g.iter().position(|t| t.is_punct(':')) else { continue };
            let Some(name_tok) = g[..colon].iter().rev().find(|t| t.kind == TokKind::Ident)
            else {
                continue;
            };
            let ty: String = g[colon + 1..]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            params.push((name_tok.text.clone(), ty));
        }
        params
    }
}

/// Parses `// tidy-entry(<role>)` markers in the run of comment-only and
/// attribute lines directly above 1-based line `fn_line`.
fn entry_markers(file: &SourceFile, fn_line: usize) -> Vec<String> {
    let mut roles = Vec::new();
    for line in (1..fn_line).rev() {
        let first_tok = file.toks.get(file.toks.partition_point(|t| t.line < line));
        let comment = file.comments.get(file.comments.partition_point(|c| c.line < line));
        match (first_tok.filter(|t| t.line == line), comment.filter(|c| c.line == line)) {
            (Some(t), _) if t.is_punct('#') => {}
            (None, Some(c)) => {
                let marker = c.text.trim().strip_prefix("tidy-entry(");
                if let Some(role) = marker.and_then(|r| r.strip_suffix(')')) {
                    roles.push(role.trim().to_string());
                }
            }
            _ => break,
        }
    }
    roles.reverse();
    roles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_src(src: &str) -> FileItems {
        parse(&SourceFile::parse("a.rs".into(), src))
    }

    #[test]
    fn parses_fns_methods_and_return_types() {
        let items = parse_src(
            "fn free(a: u64, fs: &mut SimFs) -> DbResult<RowId> { body(); }\n\
             impl DbServer {\n\
                 pub fn method(&mut self, s: SessionId) -> DbResult<()> { self.free(); }\n\
                 fn no_ret(&self) {}\n\
             }\n\
             impl Lint for PanicFreedom {\n\
                 fn name(&self) -> &'static str { \"x\" }\n\
             }\n",
        );
        let names: Vec<(&str, Option<&str>)> = items
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.impl_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("method", Some("DbServer")),
                ("no_ret", Some("DbServer")),
                ("name", Some("PanicFreedom")),
            ]
        );
        assert_eq!(items.fns[0].ret, "DbResult< RowId>");
        assert_eq!(items.fns[0].params[1], ("fs".to_string(), "& mut SimFs".to_string()));
        assert_eq!(items.fns[1].params[0], ("self".to_string(), "DbServer".to_string()));
        assert!(!items.fns[1].body.is_empty());
    }

    #[test]
    fn parses_struct_fields_and_type_aliases() {
        let items = parse_src(
            "pub struct Instance { pub catalog: Catalog, pub locks: LockTable, n: u64 }\n\
             pub type SharedFs = Arc<Mutex<SimFs>>;\n",
        );
        assert_eq!(items.structs.len(), 1);
        let f: Vec<(&str, &str)> = items.structs[0]
            .fields
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        assert_eq!(f, vec![("catalog", "Catalog"), ("locks", "LockTable"), ("n", "u64")]);
        assert_eq!(items.aliases[0].name, "SharedFs");
        assert!(items.aliases[0].target.contains("SimFs"));
    }

    #[test]
    fn entry_markers_attach_to_the_fn_below() {
        let src = "\
/// Docs.
// tidy-entry(recovery)
#[allow(dead_code)]
pub fn startup() -> DbResult<()> { Ok(()) }
fn unmarked() {}";
        let items = parse_src(src);
        assert_eq!(items.fns[0].entry_roles, vec!["recovery".to_string()]);
        assert!(items.fns[1].entry_roles.is_empty());
    }

    #[test]
    fn nested_mods_and_match_blocks_do_not_confuse_fn_bodies() {
        let src = "\
mod inner {
    pub fn a() { match x { Some(_) => {} None => {} } }
}
fn after() { if t { u(); } }";
        let items = parse_src(src);
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "after"]);
    }
}
