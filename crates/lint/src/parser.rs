//! Item-level parsing on top of the lexer: function items with their
//! `impl` context, `#[cfg(test)]` regions, call sites, and the
//! `utps-lint: allow(...)` escape-hatch comments.
//!
//! This is deliberately not a full Rust parser. It is a brace-matching
//! stack machine that recovers exactly the structure the rules need:
//! *which function am I in, implementing which trait for which type, and is
//! this test code* — plus a one-level view of what each function calls.
//! Over- and under-approximation are both acceptable (it is a linter with an
//! audited escape hatch), but in practice the shapes in this workspace parse
//! exactly.

use crate::lexer::{lex, TokKind, Token};

/// One parsed source file.
pub struct FileData {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Full source text.
    pub src: String,
    /// Code view: comments stripped (indices into this are "code indices").
    pub code: Vec<Token>,
    /// Every `fn` item found, in source order.
    pub fns: Vec<FnItem>,
    /// Parsed `utps-lint: allow(...)` directives.
    pub allows: Vec<Allow>,
    /// Whole file is test/bench/example context (by path).
    pub path_is_test: bool,
    /// Inclusive line ranges that are test code (`#[cfg(test)]` items,
    /// `mod tests`, `#[test]` functions).
    pub test_regions: Vec<(u32, u32)>,
}

/// A `fn` item and where it lives.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `impl` self type (last path segment), if inside an impl.
    pub owner: Option<String>,
    /// Trait being implemented (last path segment), for `impl Trait for T`.
    pub trait_name: Option<String>,
    /// Code-token index range of the body, including both braces.
    /// `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside `#[cfg(test)]`, a `mod tests`, or under `#[test]`.
    pub is_test: bool,
}

/// An `// utps-lint: allow(<rule>) — <justification>` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule id being allowed (e.g. `no-blocking-in-stage` or `R1`).
    pub rule: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// The code line the directive suppresses (the comment's own line for a
    /// trailing comment; the next token-bearing line for a standalone one).
    pub target_line: u32,
    /// Whether a non-empty justification follows the `allow(...)`.
    pub justified: bool,
}

/// A call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Called function/method name.
    pub name: String,
    /// `T` in `T::name(...)`, when path-qualified.
    pub qualifier: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub is_method: bool,
}

/// Parses `src` into a [`FileData`].
pub fn parse_file(path: &str, src: String) -> FileData {
    let tokens = lex(&src);
    let code: Vec<Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .cloned()
        .collect();
    let path_is_test = path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures");
    let (fns, test_regions) = parse_fns(&src, &code);
    let allows = parse_allows(&src, &tokens);
    FileData {
        path: path.to_string(),
        src,
        code,
        fns,
        allows,
        path_is_test,
        test_regions,
    }
}

impl FileData {
    /// Is byte line `line` suppressed for `rule` by an allow directive?
    pub fn allows_rule_on(&self, rule_id: &str, rule_code: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.target_line == line && (a.rule == rule_id || a.rule.eq_ignore_ascii_case(rule_code))
        })
    }

    /// Is `line` inside test code (by path or by `#[cfg(test)]` region)?
    pub fn is_test_line(&self, line: u32) -> bool {
        self.path_is_test
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| line >= s && line <= e)
    }
}

#[derive(Clone, Debug)]
enum Scope {
    Plain,
    Impl {
        type_name: Option<String>,
        trait_name: Option<String>,
    },
}

fn text<'a>(src: &'a str, t: &Token) -> &'a str {
    &src[t.start..t.end]
}

/// The stack machine: walks the comment-free token stream tracking impl
/// blocks, `#[cfg(test)]` items and `fn` items. Returns the fn items and the
/// inclusive line ranges of test code.
fn parse_fns(src: &str, code: &[Token]) -> (Vec<FnItem>, Vec<(u32, u32)>) {
    let mut fns: Vec<FnItem> = Vec::new();
    let mut regions: Vec<(u32, u32)> = Vec::new();
    // (scope, test) pushed at each `{`.
    let mut stack: Vec<(Scope, bool)> = Vec::new();
    // Scope the *next* `{` should open with (set when an impl/mod/test item
    // header is recognised).
    let mut pending: Option<Scope> = None;
    // Line of the `#[cfg(test)]`/`#[test]` attr (or `mod tests`) whose item
    // is still being scanned for.
    let mut pending_test: Option<u32> = None;
    // The outermost open test region: (start line, depth that closes it).
    let mut open_region: Option<(u32, usize)> = None;
    // Body-open stack for fn items: (fn index, depth at which body opened).
    let mut open_fn_bodies: Vec<(usize, usize)> = Vec::new();

    let mut i = 0;
    while i < code.len() {
        let t = &code[i];
        match t.kind {
            TokKind::Punct => match text(src, t) {
                "{" => {
                    let scope = pending.take().unwrap_or(Scope::Plain);
                    let inherited = stack.last().is_some_and(|(_, tst)| *tst);
                    let test = inherited || pending_test.is_some();
                    if test && !inherited && open_region.is_none() {
                        let start = pending_test.unwrap_or(t.line);
                        open_region = Some((start, stack.len() + 1));
                    }
                    pending_test = None;
                    stack.push((scope, test));
                    i += 1;
                }
                ";" => {
                    // A `#[cfg(test)]` attribute on a braceless item (`use`,
                    // `mod x;`) covers just that item, and must not leak
                    // onto the next one.
                    if let Some(start) = pending_test.take() {
                        if open_region.is_none() {
                            regions.push((start, t.line));
                        }
                    }
                    i += 1;
                }
                "}" => {
                    let depth = stack.len();
                    stack.pop();
                    if let Some((start, close_depth)) = open_region {
                        if close_depth == depth {
                            regions.push((start, t.line));
                            open_region = None;
                        }
                    }
                    if let Some(&(fn_idx, open_depth)) = open_fn_bodies.last() {
                        if open_depth == depth {
                            open_fn_bodies.pop();
                            if let Some(f) = fns.get_mut(fn_idx) {
                                if let Some((s, _)) = f.body {
                                    f.body = Some((s, i));
                                }
                            }
                        }
                    }
                    i += 1;
                }
                "#" => {
                    // Attribute: `#[ ... ]` (possibly `#![ ... ]`).
                    let mut j = i + 1;
                    if j < code.len() && text(src, &code[j]) == "!" {
                        j += 1;
                    }
                    if j < code.len() && text(src, &code[j]) == "[" {
                        let (end, is_test_attr) = scan_attr(src, code, j);
                        if is_test_attr && pending_test.is_none() {
                            pending_test = Some(t.line);
                        }
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                _ => i += 1,
            },
            TokKind::Ident => match text(src, t) {
                "impl" => {
                    let (scope, next) = parse_impl_header(src, code, i);
                    pending = Some(scope);
                    i = next;
                }
                "mod" => {
                    // `mod tests` without cfg(test) still counts as tests.
                    if let Some(n) = code.get(i + 1) {
                        if n.kind == TokKind::Ident && text(src, n) == "tests" {
                            pending_test.get_or_insert(t.line);
                        }
                    }
                    i += 1;
                }
                "fn" => {
                    let name = match code.get(i + 1) {
                        Some(n) if n.kind == TokKind::Ident => text(src, n).to_string(),
                        _ => {
                            i += 1;
                            continue;
                        }
                    };
                    let (owner, trait_name) = impl_context(&stack);
                    let attr_line = pending_test.take();
                    let inherited = stack.last().is_some_and(|(_, tst)| *tst);
                    let in_test = inherited || attr_line.is_some();
                    // Find the body `{` (or `;` for a bodyless declaration),
                    // tracking paren/bracket/angle nesting in the signature.
                    let mut j = i + 2;
                    let mut body = None;
                    let mut paren = 0i32;
                    while let Some(s) = code.get(j) {
                        let tx = text(src, s);
                        match tx {
                            "(" | "[" => paren += 1,
                            ")" | "]" => paren -= 1,
                            "{" if paren == 0 => {
                                body = Some((j, j)); // end patched at `}`
                                break;
                            }
                            ";" if paren == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let fn_idx = fns.len();
                    fns.push(FnItem {
                        name,
                        owner,
                        trait_name,
                        body,
                        line: t.line,
                        is_test: in_test,
                    });
                    if let Some((open, _)) = body {
                        // The `{` at `open` opens the body scope directly;
                        // its depth after pushing is stack.len() + 1.
                        if in_test && !inherited && open_region.is_none() {
                            open_region = Some((attr_line.unwrap_or(t.line), stack.len() + 1));
                        }
                        open_fn_bodies.push((fn_idx, stack.len() + 1));
                        stack.push((Scope::Plain, in_test));
                        i = open + 1;
                    } else {
                        i = j + 1;
                    }
                }
                _ => i += 1,
            },
            _ => i += 1,
        }
    }
    (fns, regions)
}

/// Scans an attribute starting at the `[` at `open_idx`; returns (index past
/// the closing `]`, whether the attribute marks test code).
fn scan_attr(src: &str, code: &[Token], open_idx: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut j = open_idx;
    while let Some(t) = code.get(j) {
        let tx = text(src, t);
        match tx {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, is_test);
                }
            }
            "cfg" => saw_cfg = true,
            "test"
                // Either `#[test]` or `#[cfg(test)]` (incl. `any(..., test)`).
                if (saw_cfg || depth == 1) => {
                    is_test = true;
                }
            _ => {}
        }
        j += 1;
    }
    (j, is_test)
}

/// Parses an `impl` header starting at the `impl` token; returns the scope
/// and the index of the opening `{` (the caller resumes there so the brace
/// pushes this scope).
fn parse_impl_header(src: &str, code: &[Token], impl_idx: usize) -> (Scope, usize) {
    let mut j = impl_idx + 1;
    // Skip `<...>` generic params.
    if code.get(j).map(|t| text(src, t)) == Some("<") {
        let mut depth = 0i32;
        while let Some(t) = code.get(j) {
            match text(src, t) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Collect the pre-`for` path (trait, or the type for inherent impls) and
    // the post-`for` path, taking the last angle-depth-0 identifier of each.
    let mut first: Option<String> = None;
    let mut second: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0i32;
    while let Some(t) = code.get(j) {
        let tx = text(src, t);
        match tx {
            "{" if angle <= 0 => break,
            ";" => break, // `impl Trait for T;` — not real Rust, bail safely
            "<" => angle += 1,
            ">" => angle -= 1,
            "where" if angle <= 0 => {
                // Skip the where clause entirely.
                while let Some(w) = code.get(j) {
                    if text(src, w) == "{" {
                        break;
                    }
                    j += 1;
                }
                continue;
            }
            "for" if angle <= 0 => saw_for = true,
            _ if t.kind == TokKind::Ident && angle <= 0 && tx != "dyn" && tx != "mut" => {
                if saw_for {
                    second = Some(tx.to_string());
                } else {
                    first = Some(tx.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    let scope = if saw_for {
        Scope::Impl {
            type_name: second,
            trait_name: first,
        }
    } else {
        Scope::Impl {
            type_name: first,
            trait_name: None,
        }
    };
    (scope, j)
}

/// The innermost impl context on the scope stack, if any.
fn impl_context(stack: &[(Scope, bool)]) -> (Option<String>, Option<String>) {
    for (scope, _) in stack.iter().rev() {
        if let Scope::Impl {
            type_name,
            trait_name,
        } = scope
        {
            return (type_name.clone(), trait_name.clone());
        }
    }
    (None, None)
}

const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "loop", "for", "in", "as", "move", "unsafe", "else", "let",
    "mut", "ref", "box", "await", "fn", "impl", "where", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static",
];

/// Extracts call sites from the code-token range `[start, end)`.
pub fn calls_in(src: &str, code: &[Token], start: usize, end: usize) -> Vec<Call> {
    let mut out = Vec::new();
    let end = end.min(code.len());
    for i in start..end {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = text(src, t);
        if CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Must be directly followed by `(` (turbofish not used on the paths
        // these rules walk).
        match code.get(i + 1) {
            Some(n) if text(src, n) == "(" => {}
            _ => continue,
        }
        // Macro invocation `name!(...)` is not a call.
        if i >= 1 && text(src, &code[i - 1]) == "!" {
            continue;
        }
        let (qualifier, is_method) =
            if i >= 2 && text(src, &code[i - 1]) == ":" && text(src, &code[i - 2]) == ":" {
                let q = code
                    .get(i.wrapping_sub(3))
                    .filter(|p| p.kind == TokKind::Ident)
                    .map(|p| text(src, p).to_string());
                (q, false)
            } else if i >= 1 && text(src, &code[i - 1]) == "." {
                (None, true)
            } else {
                (None, false)
            };
        out.push(Call {
            name: name.to_string(),
            qualifier,
            is_method,
        });
    }
    out
}

/// Finds `utps-lint: allow(<rule>)` comments and computes the line each one
/// suppresses.
fn parse_allows(src: &str, tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (idx, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        let body = text(src, t);
        // Doc comments don't carry directives — they *describe* the syntax
        // (this very file would otherwise lint itself).
        if body.starts_with("///")
            || body.starts_with("//!")
            || body.starts_with("/**")
            || body.starts_with("/*!")
        {
            continue;
        }
        let Some(pos) = body.find("utps-lint:") else {
            continue;
        };
        let rest = &body[pos + "utps-lint:".len()..];
        let rest = rest.trim_start();
        let Some(arg) = rest.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = arg.find(')') else {
            continue;
        };
        let rule = arg[..close].trim().to_string();
        let tail = arg[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '—' || c == '-' || c == ':');
        let justified = tail.trim().len() >= 3;
        // Standalone comment (first token on its line) suppresses the next
        // token-bearing line; a trailing comment suppresses its own line.
        let standalone = !tokens[..idx].iter().any(|p| p.line == t.line);
        let target_line = if standalone {
            tokens[idx + 1..]
                .iter()
                .find(|n| n.kind != TokKind::Comment)
                .map(|n| n.line)
                .unwrap_or(t.line)
        } else {
            t.line
        };
        out.push(Allow {
            rule,
            comment_line: t.line,
            target_line,
            justified,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileData {
        parse_file("crates/x/src/lib.rs", src.to_string())
    }

    #[test]
    fn finds_fns_with_impl_context() {
        let f = parse(
            "impl Stage<World> for CrStage {\n fn step(&mut self) -> u32 { self.go() }\n}\n\
             impl CrStage {\n fn go(&self) -> u32 { 1 }\n}\n\
             fn free_fn() {}",
        );
        assert_eq!(f.fns.len(), 3);
        assert_eq!(f.fns[0].name, "step");
        assert_eq!(f.fns[0].trait_name.as_deref(), Some("Stage"));
        assert_eq!(f.fns[0].owner.as_deref(), Some("CrStage"));
        assert_eq!(f.fns[1].name, "go");
        assert_eq!(f.fns[1].trait_name, None);
        assert_eq!(f.fns[1].owner.as_deref(), Some("CrStage"));
        assert_eq!(f.fns[2].owner, None);
    }

    #[test]
    fn generic_impl_headers_resolve_trait_not_bound() {
        // The `Stage` in the generic bounds must not be mistaken for the
        // implemented trait.
        let f =
            parse("impl<W, S: Stage<W>> Process<W> for StageProc<S> {\n fn step(&mut self) {}\n}");
        assert_eq!(f.fns[0].trait_name.as_deref(), Some("Process"));
        assert_eq!(f.fns[0].owner.as_deref(), Some("StageProc"));
    }

    #[test]
    fn cfg_test_mods_and_test_attrs_mark_fns() {
        let f = parse(
            "fn real() {}\n\
             #[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
        assert!(f.fns[2].is_test);
    }

    #[test]
    fn extracts_calls_with_qualifiers() {
        let f = parse("fn a() { b(); self.c(); Foo::d(); mac!(e); }");
        let (s, e) = f.fns[0].body.unwrap();
        let calls = calls_in(&f.src, &f.code, s, e);
        let names: Vec<_> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c", "d"]);
        assert!(calls[1].is_method);
        assert_eq!(calls[2].qualifier.as_deref(), Some("Foo"));
    }

    #[test]
    fn allow_comments_bind_to_lines() {
        let f = parse(
            "fn a() {\n // utps-lint: allow(determinism) — fixture needs it\n let x = 1;\n \
             let y = 2; // utps-lint: allow(payload-copy) — trailing\n}",
        );
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "determinism");
        assert_eq!(f.allows[0].target_line, 3);
        assert!(f.allows[0].justified);
        assert_eq!(f.allows[1].rule, "payload-copy");
        assert_eq!(f.allows[1].target_line, 4);
        assert!(f.allows_rule_on("determinism", "R2", 3));
        assert!(!f.allows_rule_on("determinism", "R2", 4));
    }

    #[test]
    fn unjustified_allow_is_flagged_as_such() {
        let f = parse("fn a() {\n let x = 1; // utps-lint: allow(determinism)\n}");
        assert_eq!(f.allows.len(), 1);
        assert!(!f.allows[0].justified);
    }
}
