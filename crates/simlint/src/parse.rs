//! A lightweight item parser on top of [`crate::lexer`]: extracts the
//! per-file structure the workspace call graph needs — `fn` definitions
//! (with their enclosing `impl` type for method resolution), the token
//! span of each body, and every call site with its syntactic shape
//! (free `f(...)`, path `Type::f(...)` / `module::f(...)`, or method
//! `.f(...)`).
//!
//! Still zero dependencies and deliberately *not* a full Rust parser:
//! the graph rules only need "which functions exist" and "which names
//! does each one invoke", and over-approximate name-based resolution is
//! the safe direction for a determinism lint. Everything here is
//! `BTree`-ordered or index-ordered — simlint obeys its own
//! hash-order rule.

use crate::lexer::{TokKind, Token};
use crate::source::{Depth, SourceFile};

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Simple name (`solve`).
    pub name: String,
    /// `impl` type when the fn is a method (`Solver` for
    /// `impl Solver { fn solve … }` and `impl Trait for Solver { … }`).
    pub impl_type: Option<String>,
    /// Defined in a trait or an `impl Trait for T` block: callable through
    /// operators, formatting and generic bounds the graph does not see.
    pub in_trait: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inclusive token-index span of the body, braces included.
    /// `None` for body-less declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
}

impl FnDef {
    /// `Type::name` for methods, `name` for free functions.
    pub fn qual(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site, attributed to the innermost enclosing fn.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Name being invoked.
    pub callee: String,
    /// Last path segment before `::` for path calls (`Scope` in
    /// `Scope::current()`, `mpigraph` in `mpigraph::run(...)`).
    pub qualifier: Option<String>,
    /// `.callee(...)` method-call syntax.
    pub method: bool,
    pub line: u32,
    /// Token index of the callee ident.
    pub tok: usize,
    /// Index into [`ParsedFile::fns`], or `None` for module-level code.
    pub in_fn: Option<usize>,
}

/// Parse result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
    pub calls: Vec<CallSite>,
}

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "fn", "let",
    "in", "move", "ref", "mut", "pub", "use", "mod", "impl", "where", "unsafe", "async", "await",
    "dyn", "type", "const", "static", "struct", "enum", "trait", "as", "crate", "super",
];

/// Parse one lexed file into fn items and call sites.
pub fn parse(f: &SourceFile) -> ParsedFile {
    let toks = &f.tokens;
    let depths = &f.depths;
    let n = toks.len();
    let mut out = ParsedFile::default();

    // Pass 1: fn definitions, with the enclosing `impl` type tracked via
    // a brace-depth stack.
    // (open depth, type, trait or trait impl)
    let mut impl_stack: Vec<(u32, Option<String>, bool)> = Vec::new();
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.is_punct('}') {
            if let Some(&(d, _, _)) = impl_stack.last() {
                // Depth *before* the matching close brace is open depth + 1.
                if depths[i].brace == d + 1 {
                    impl_stack.pop();
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            if let Some((ty, for_trait, open)) = impl_type(toks, i) {
                impl_stack.push((depths[open].brace, ty, for_trait));
                i = open + 1;
                continue;
            }
        }
        // Trait blocks scope their methods too, so a default method (or a
        // signature) resolves as `Trait::name`.
        if t.is_ident("trait") && i + 1 < n && toks[i + 1].kind == TokKind::Ident {
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut open = None;
            while j < n {
                let tj = &toks[j];
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') {
                    angle -= 1;
                } else if tj.is_punct('{') && angle <= 0 {
                    open = Some(j);
                    break;
                } else if tj.is_punct(';') && angle <= 0 {
                    break;
                }
                j += 1;
            }
            if let Some(open) = open {
                impl_stack.push((depths[open].brace, Some(toks[i + 1].text.clone()), true));
                i = open + 1;
                continue;
            }
        }
        if t.is_ident("fn") && i + 1 < n && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let body = fn_body_span(toks, depths, i);
            let top = impl_stack.last();
            out.fns.push(FnDef {
                name,
                impl_type: top.and_then(|(_, ty, _)| ty.clone()),
                in_trait: top.is_some_and(|&(_, _, tr)| tr),
                line: t.line,
                body,
            });
        }
        i += 1;
    }

    // Pass 2: call sites, attributed to the innermost fn whose body span
    // contains the callee token. A fn passed by name as an argument
    // (`.all(is_key_char)`, `.map(Mi250x::new)`) counts as a call: a
    // path, or the bare name of a free fn of this file.
    let free_fns: Vec<&str> = out
        .fns
        .iter()
        .filter(|d| d.impl_type.is_none())
        .map(|d| d.name.as_str())
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || i + 1 >= n || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && toks[i - 1].is_ident("fn") {
            continue;
        }
        let method = i > 0 && toks[i - 1].is_punct('.');
        let qualifier = if i >= 3 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            (toks[i - 3].kind == TokKind::Ident).then(|| toks[i - 3].text.clone())
        } else {
            None
        };
        if !toks[i + 1].is_punct('(') {
            let mut start = i;
            while start >= 3 && toks[start - 1].is_punct(':') && toks[start - 2].is_punct(':') {
                start -= 3;
            }
            let argument = start > 0
                && (toks[start - 1].is_punct('(') || toks[start - 1].is_punct(','))
                && (toks[i + 1].is_punct(')') || toks[i + 1].is_punct(','));
            if !argument || (qualifier.is_none() && !free_fns.contains(&t.text.as_str())) {
                continue;
            }
        }
        out.calls.push(CallSite {
            callee: t.text.clone(),
            qualifier,
            method,
            line: t.line,
            tok: i,
            in_fn: innermost_fn(&out.fns, i),
        });
    }

    out
}

/// Index of the innermost fn whose body contains token `tok`.
pub fn innermost_fn(fns: &[FnDef], tok: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut best_span = usize::MAX;
    for (idx, f) in fns.iter().enumerate() {
        if let Some((a, b)) = f.body {
            if a <= tok && tok <= b && b - a < best_span {
                best = Some(idx);
                best_span = b - a;
            }
        }
    }
    best
}

/// The `impl` header's type name, whether it implements a trait, and the
/// index of its opening `{`.
/// `impl<T> Solver<T> { … }` → `Solver`; `impl Trait for Solver { … }` →
/// `Solver`; `impl Trait for &mut Foo` → `Foo`. Returns `None` when no
/// body brace is found (e.g. a macro fragment).
fn impl_type(toks: &[Token], at: usize) -> Option<(Option<String>, bool, usize)> {
    let n = toks.len();
    let mut j = at + 1;
    let mut angle = 0i32;
    let mut after_for: Option<String> = None;
    let mut first_ident: Option<String> = None;
    let mut saw_for = false;
    while j < n {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('{') && angle <= 0 {
            let ty = if saw_for { after_for } else { first_ident };
            return Some((ty, saw_for, j));
        } else if t.is_punct(';') && angle <= 0 {
            return None; // `impl Trait for Foo;` — not real Rust, bail
        } else if t.is_ident("for") && angle <= 0 {
            saw_for = true;
        } else if t.is_ident("where") && angle <= 0 {
            // The type is fully named before `where`; stop collecting.
            while j < n && !toks[j].is_punct('{') {
                j += 1;
            }
            continue;
        } else if t.kind == TokKind::Ident && angle <= 0 {
            if saw_for {
                // Last ident of the path after `for` wins (`fmt::Display
                // for campaign::Track` → `Track`).
                after_for = Some(t.text.clone());
            } else if first_ident.is_none() {
                first_ident = Some(t.text.clone());
            } else {
                // Trait path continues (`impl fmt::Display`): keep the
                // last segment so inherent impls read `Display`; it is
                // overwritten by the `for` clause when one appears.
                first_ident = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Token span of the body of the fn whose `fn` keyword is at `at`.
fn fn_body_span(toks: &[Token], depths: &[Depth], at: usize) -> Option<(usize, usize)> {
    let n = toks.len();
    let d0 = depths[at];
    // `[u32; 16]` in a signature is not the end of a declaration.
    let mut bracket = 0i32;
    let mut j = at + 1;
    while j < n {
        let t = &toks[j];
        if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        }
        let top = bracket == 0 && depths[j].brace == d0.brace && depths[j].paren == d0.paren;
        if t.is_punct(';') && top {
            return None; // body-less declaration
        }
        if t.is_punct('{') && depths[j].brace == d0.brace {
            // Span to the matching close brace.
            let mut m = j + 1;
            while m < n {
                if toks[m].is_punct('}') && depths[m].brace == d0.brace + 1 {
                    return Some((j, m));
                }
                m += 1;
            }
            return Some((j, n - 1));
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn parsed(src: &str) -> (SourceFile, ParsedFile) {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let p = parse(&f);
        (f, p)
    }

    #[test]
    fn free_fns_and_methods_are_extracted() {
        let (_, p) = parsed(
            "fn free() {}\n\
             impl Solver { fn step(&mut self) {} }\n\
             impl Display for Row { fn fmt(&self) {} }\n\
             trait T { fn sig(&self); }\n",
        );
        let quals: Vec<String> = p.fns.iter().map(|f| f.qual()).collect();
        assert_eq!(quals, vec!["free", "Solver::step", "Row::fmt", "T::sig"]);
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[3].body.is_none(), "trait signature has no body");
        let in_trait: Vec<bool> = p.fns.iter().map(|f| f.in_trait).collect();
        assert_eq!(in_trait, vec![false, false, true, true]);
        let (_, p) = parsed("fn block() -> [u32; 16] { quarter(); }\n");
        assert!(
            p.fns[0].body.is_some(),
            "an array type is not a declaration's end"
        );
    }

    #[test]
    fn call_sites_carry_shape_and_owner() {
        let (_, p) = parsed(
            "fn a() { helper(); Scope::current(); x.method(); }\n\
             fn helper() {}\n\
             const C: u32 = seed();\n",
        );
        let shapes: Vec<(String, Option<String>, bool, Option<usize>)> = p
            .calls
            .iter()
            .map(|c| (c.callee.clone(), c.qualifier.clone(), c.method, c.in_fn))
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("helper".into(), None, false, Some(0)),
                ("current".into(), Some("Scope".into()), false, Some(0)),
                ("method".into(), None, true, Some(0)),
                ("seed".into(), None, false, None),
            ]
        );
    }

    #[test]
    fn nested_fns_attribute_to_the_innermost() {
        let (_, p) = parsed("fn outer() { fn inner() { leaf(); } inner(); }\n");
        let leaf = p.calls.iter().find(|c| c.callee == "leaf").unwrap();
        assert_eq!(p.fns[leaf.in_fn.unwrap()].name, "inner");
        let inner_call = p.calls.iter().find(|c| c.callee == "inner").unwrap();
        assert_eq!(p.fns[inner_call.in_fn.unwrap()].name, "outer");
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let (_, p) = parsed("fn a() { if (x) {} vec![1]; println!(\"x\"); match (y) {} }\n");
        assert!(p.calls.is_empty(), "{:?}", p.calls);
    }

    #[test]
    fn fns_passed_by_name_are_calls() {
        let (_, p) = parsed("fn a(x: u32) { s.all(key); s.map(T::new); f(x, y); }\nfn key() {}\n");
        let callees: Vec<&str> = p.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["all", "key", "map", "new", "f"]);
    }

    #[test]
    fn generic_impl_headers_resolve_their_type() {
        let (_, p) = parsed(
            "impl<'a, T: Iterator<Item = u32>> Sweep<'a, T> { fn go(&self) {} }\n\
             impl<T> From<T> for Wrapper<T> where T: Clone { fn from(t: T) -> Self { Self(t) } }\n",
        );
        let quals: Vec<String> = p.fns.iter().map(|f| f.qual()).collect();
        assert_eq!(quals, vec!["Sweep::go", "Wrapper::from"]);
    }
}
