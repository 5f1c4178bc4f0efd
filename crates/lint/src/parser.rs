//! Item-level parsing on top of the lexer: `#[cfg(test)]` regions and the
//! `utps-lint: allow(...)` escape-hatch comments.
//!
//! This is deliberately not a full Rust parser. It is a brace-matching
//! stack machine that recovers exactly the structure the rules need: *is
//! this line test code*. Over- and under-approximation are both acceptable
//! (it is a linter with an audited escape hatch), but in practice the shapes
//! in this workspace parse exactly.

use crate::lexer::{lex, TokKind, Token};

/// One parsed source file.
pub struct FileData {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Full source text.
    pub src: String,
    /// Code view: comments stripped (indices into this are "code indices").
    pub code: Vec<Token>,
    /// Parsed `utps-lint: allow(...)` directives.
    pub allows: Vec<Allow>,
    /// Whole file is test/bench/example context (by path).
    pub path_is_test: bool,
    /// Inclusive line ranges that are test code (`#[cfg(test)]` items,
    /// `mod tests`, `#[test]` functions).
    pub test_regions: Vec<(u32, u32)>,
}

/// An `// utps-lint: allow(<rule>) — <justification>` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The rule id being allowed (e.g. `metrics-schema` or `R4`).
    pub rule: String,
    /// Line of the comment itself.
    pub comment_line: u32,
    /// The code line the directive suppresses (the comment's own line for a
    /// trailing comment; the next token-bearing line for a standalone one).
    pub target_line: u32,
    /// Whether a non-empty justification follows the `allow(...)`.
    pub justified: bool,
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
    let test_regions = test_regions(&src, &code);
    let allows = parse_allows(&src, &tokens);
    FileData {
        path: path.to_string(),
        src,
        code,
        allows,
        path_is_test,
        test_regions,
    }
}

impl FileData {
    /// Is byte line `line` suppressed for `rule` by an allow directive?
    pub(crate) fn allows_rule_on(&self, rule_id: &str, rule_code: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.target_line == line && (a.rule == rule_id || a.rule.eq_ignore_ascii_case(rule_code))
        })
    }

    /// Is `line` inside test code (by path or by `#[cfg(test)]` region)?
    pub(crate) fn is_test_line(&self, line: u32) -> bool {
        self.path_is_test
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| line >= s && line <= e)
    }
}

fn text<'a>(src: &'a str, t: &Token) -> &'a str {
    &src[t.start..t.end]
}

/// The stack machine: walks the comment-free token stream tracking brace
/// depth, `#[cfg(test)]`/`#[test]` attributes and `mod tests`. Returns the
/// inclusive line ranges of test code.
fn test_regions(src: &str, code: &[Token]) -> Vec<(u32, u32)> {
    let mut regions: Vec<(u32, u32)> = Vec::new();
    let mut depth = 0usize;
    // `(`/`[` nesting, so a `;` inside `[u8; 4]` or a `{` inside a
    // signature's parentheses is not the item's end or body.
    let mut nest = 0i32;
    // The `#[cfg(test)]`/`#[test]` attr (or `mod tests`) whose item is still
    // being scanned for: (its line, `nest` at the attribute).
    let mut pending_test: Option<(u32, i32)> = None;
    // The outermost open test region: (start line, depth that closes it).
    let mut open_region: Option<(u32, usize)> = None;

    let mut i = 0;
    while i < code.len() {
        let t = &code[i];
        match text(src, t) {
            "{" => {
                depth += 1;
                // The item's body, not a block inside its signature.
                if let Some((start, _)) = pending_test.take_if(|p| p.1 == nest) {
                    open_region.get_or_insert((start, depth));
                }
            }
            "}" => {
                if let Some((start, close_depth)) = open_region {
                    if close_depth == depth {
                        regions.push((start, t.line));
                        open_region = None;
                    }
                }
                depth = depth.saturating_sub(1);
            }
            "(" | "[" => nest += 1,
            ")" | "]" => nest -= 1,
            // A `#[cfg(test)]` attribute on a braceless item (`use`,
            // `mod x;`) covers just that item, and must not leak onto the
            // next one.
            ";" => {
                if let Some((start, _)) = pending_test.take_if(|p| p.1 == nest) {
                    if open_region.is_none() {
                        regions.push((start, t.line));
                    }
                }
            }
            "#" => {
                // Attribute: `#[ ... ]` (possibly `#![ ... ]`).
                let mut j = i + 1;
                if code.get(j).is_some_and(|n| text(src, n) == "!") {
                    j += 1;
                }
                if code.get(j).is_some_and(|n| text(src, n) == "[") {
                    let (end, is_test_attr) = scan_attr(src, code, j);
                    if is_test_attr && pending_test.is_none() {
                        pending_test = Some((t.line, nest));
                    }
                    i = end;
                    continue;
                }
            }
            // `mod tests` without cfg(test) still counts as tests.
            "mod" if code.get(i + 1).is_some_and(|n| text(src, n) == "tests") => {
                pending_test.get_or_insert((t.line, nest));
            }
            _ => {}
        }
        i += 1;
    }
    regions
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
    fn cfg_test_mods_and_test_attrs_mark_fns() {
        let f = parse(
            "fn real() {}\n\
             #[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}\n\
             #[cfg(test)]\nfn helper(x: [u8; 4]) {\n let _ = x;\n}\n\
             fn after() {}",
        );
        assert!(!f.is_test_line(1));
        assert!((2..=7).all(|l| f.is_test_line(l)));
        // The `;` in `[u8; 4]` must not end the pending `#[cfg(test)]` item:
        // the whole body is test code, and nothing after it is.
        assert!((8..=11).all(|l| f.is_test_line(l)));
        assert!(!f.is_test_line(12));
    }

    #[test]
    fn allow_comments_bind_to_lines() {
        let f = parse(
            "fn a() {\n // utps-lint: allow(metrics-schema) — fixture needs it\n let x = 1;\n \
             let y = 2; // utps-lint: allow(metrics-schema) — trailing\n}",
        );
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "metrics-schema");
        assert_eq!(f.allows[0].target_line, 3);
        assert!(f.allows[0].justified);
        assert_eq!(f.allows[1].rule, "metrics-schema");
        assert_eq!(f.allows[1].target_line, 4);
        assert!(f.allows_rule_on("metrics-schema", "R4", 3));
        assert!(f.allows_rule_on("metrics-schema", "R4", 4));
        assert!(!f.allows_rule_on("metrics-schema", "R4", 5));
    }

    #[test]
    fn unjustified_allow_is_flagged_as_such() {
        let f = parse("fn a() {\n let x = 1; // utps-lint: allow(metrics-schema)\n}");
        assert_eq!(f.allows.len(), 1);
        assert!(!f.allows[0].justified);
    }
}
