//! A total, span-preserving lexer for the subset of Rust the lint rules
//! inspect.
//!
//! "Total" means it never panics and never rejects input: any byte sequence
//! lexes to a token stream whose spans tile the source (every byte belongs to
//! exactly one token or is inter-token whitespace). Malformed input —
//! unterminated strings, stray bytes, lonely quotes — degrades to `Unknown`
//! or a string token running to end-of-file, because a linter must keep
//! working on the broken tree a developer is mid-edit on.
//!
//! Comments are real tokens here (the `allow(...)` escape hatch lives in
//! comments); parsing layers filter them out when matching syntax.

/// What a token is. Coarser than rustc's lexer: the rules only need to
/// distinguish identifiers, literals, comments and punctuation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, ...).
    Ident,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
    /// Integer or float literal.
    Number,
    /// String literal of any flavour: `"…"`, `r"…"`, `r#"…"#`, `b"…"`.
    Str,
    /// Character or byte literal: `'x'`, `b'\n'`.
    Char,
    /// Line (`//`) or block (`/* */`) comment, doc or not.
    Comment,
    /// A single punctuation byte (`.`, `(`, `:`, `<`, ...). Multi-byte
    /// operators arrive as consecutive tokens; the rules match sequences.
    Punct,
    /// A byte the lexer has no rule for (stray `\\`, non-ASCII outside
    /// strings, ...). Never merged, always one byte-run long.
    Unknown,
}

/// One token with its byte span and 1-based line/column.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column (in bytes) of `start`.
    pub col: u32,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.src.get(self.pos).copied()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lexes `src` to completion. Every byte of `src` is covered by exactly one
/// returned token or is whitespace between tokens; spans are strictly
/// increasing and lie on UTF-8 character boundaries.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = cur.peek(0) {
        if b.is_ascii_whitespace() {
            cur.bump();
            continue;
        }
        let (start, line, col) = (cur.pos, cur.line, cur.col);
        let kind = lex_one(&mut cur, b);
        debug_assert!(cur.pos > start, "lexer must always make progress");
        out.push(Token {
            kind,
            start,
            end: cur.pos,
            line,
            col,
        });
    }
    out
}

fn lex_one(cur: &mut Cursor<'_>, b: u8) -> TokKind {
    match b {
        b'/' if cur.peek(1) == Some(b'/') => {
            while let Some(n) = cur.peek(0) {
                if n == b'\n' {
                    break;
                }
                cur.bump();
            }
            TokKind::Comment
        }
        b'/' if cur.peek(1) == Some(b'*') => {
            cur.bump();
            cur.bump();
            let mut depth = 1u32;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some(b'/'), Some(b'*')) => {
                        cur.bump();
                        cur.bump();
                        depth += 1;
                    }
                    (Some(b'*'), Some(b'/')) => {
                        cur.bump();
                        cur.bump();
                        depth -= 1;
                    }
                    (Some(_), _) => {
                        cur.bump();
                    }
                    (None, _) => break, // unterminated: comment runs to EOF
                }
            }
            TokKind::Comment
        }
        b'r' | b'b' if starts_raw_string(cur) => lex_raw_string(cur),
        b'b' if cur.peek(1) == Some(b'"') => {
            cur.bump();
            cur.bump();
            lex_quoted(cur, b'"');
            TokKind::Str
        }
        b'b' if cur.peek(1) == Some(b'\'') => {
            cur.bump();
            cur.bump();
            lex_quoted(cur, b'\'');
            TokKind::Char
        }
        b'"' => {
            cur.bump();
            lex_quoted(cur, b'"');
            TokKind::Str
        }
        b'\'' => lex_quote(cur),
        _ if is_ident_start(b) => {
            while cur.peek(0).is_some_and(is_ident_continue) {
                cur.bump();
            }
            TokKind::Ident
        }
        _ if b.is_ascii_digit() => {
            // Digits, `_`, `.` (fraction), exponent letters and type-suffix
            // letters all glue into one Number token; precision beyond "this
            // is a numeric literal" is not needed by any rule.
            while let Some(n) = cur.peek(0) {
                let glues = n.is_ascii_alphanumeric()
                    || n == b'_'
                    || (n == b'.' && cur.peek(1).is_some_and(|d| d.is_ascii_digit()));
                if !glues {
                    break;
                }
                cur.bump();
            }
            TokKind::Number
        }
        _ if b.is_ascii_punctuation() => {
            cur.bump();
            TokKind::Punct
        }
        _ => {
            // Non-ASCII or control byte outside any literal: consume the full
            // UTF-8 scalar so spans stay on char boundaries.
            cur.bump();
            while cur.peek(0).is_some_and(|n| n & 0xc0 == 0x80) {
                cur.bump();
            }
            TokKind::Unknown
        }
    }
}

/// Is the cursor at `r"`, `r#`, `br"`, `br#`?
fn starts_raw_string(cur: &Cursor<'_>) -> bool {
    let at = |i: usize| cur.peek(i);
    match at(0) {
        Some(b'r') => matches!(at(1), Some(b'"') | Some(b'#')),
        Some(b'b') => at(1) == Some(b'r') && matches!(at(2), Some(b'"') | Some(b'#')),
        _ => false,
    }
}

fn lex_raw_string(cur: &mut Cursor<'_>) -> TokKind {
    cur.bump(); // r
    if cur.peek(0) == Some(b'r') {
        cur.bump(); // the r of br
    }
    let mut hashes = 0usize;
    while cur.peek(0) == Some(b'#') {
        cur.bump();
        hashes += 1;
    }
    if cur.peek(0) != Some(b'"') {
        // `r#foo` raw identifier (or stray `r#`): lex as ident.
        while cur.peek(0).is_some_and(is_ident_continue) {
            cur.bump();
        }
        return TokKind::Ident;
    }
    cur.bump(); // opening quote
    'scan: while let Some(b) = cur.bump() {
        if b == b'"' {
            for i in 0..hashes {
                if cur.peek(i) != Some(b'#') {
                    continue 'scan;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
    TokKind::Str
}

/// Consumes a quoted literal body up to and including the closing `delim`,
/// honouring backslash escapes. Unterminated bodies run to EOF.
fn lex_quoted(cur: &mut Cursor<'_>, delim: u8) {
    while let Some(b) = cur.bump() {
        if b == b'\\' {
            cur.bump();
        } else if b == delim {
            break;
        }
    }
}

/// `'` starts either a char literal (`'x'`, `'\n'`) or a lifetime (`'a`).
/// Disambiguation: an escape or a close-quote right after one scalar means
/// char; an identifier run with no close-quote means lifetime.
fn lex_quote(cur: &mut Cursor<'_>) -> TokKind {
    cur.bump(); // opening '
    match cur.peek(0) {
        Some(b'\\') => {
            cur.bump();
            cur.bump(); // escaped char
                        // Unicode escapes: \u{...}
            if cur.peek(0) == Some(b'{') {
                while let Some(b) = cur.bump() {
                    if b == b'}' {
                        break;
                    }
                }
            }
            if cur.peek(0) == Some(b'\'') {
                cur.bump();
            }
            TokKind::Char
        }
        Some(c) if is_ident_start(c) => {
            // Could be 'a' (char) or 'a (lifetime): look past the ident run.
            let mut i = 0;
            while cur.peek(i).is_some_and(is_ident_continue) {
                i += 1;
            }
            if i == 1 && cur.peek(1) == Some(b'\'') {
                cur.bump();
                cur.bump();
                TokKind::Char
            } else {
                for _ in 0..i {
                    cur.bump();
                }
                TokKind::Lifetime
            }
        }
        Some(b'\'') => {
            // `''` — empty/malformed char literal.
            cur.bump();
            TokKind::Char
        }
        Some(_) => {
            // Non-ident scalar: char literal like '.' or '€'.
            cur.bump();
            while cur.peek(0).is_some_and(|n| n & 0xc0 == 0x80) {
                cur.bump();
            }
            if cur.peek(0) == Some(b'\'') {
                cur.bump();
            }
            TokKind::Char
        }
        None => TokKind::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn basic_stream() {
        let toks = kinds("fn step(&mut self) -> u32 { 42 }");
        assert_eq!(toks[0], (TokKind::Ident, "fn"));
        assert_eq!(toks[1], (TokKind::Ident, "step"));
        assert!(toks.contains(&(TokKind::Number, "42")));
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = "// unsafe in a comment\nlet s = \"unsafe { }\"; /* fn x */";
        let toks = kinds(src);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Comment).count(),
            2
        );
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && *t == "unsafe"));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = r###"let x = r#"no "fn" here"# ; fn real() {}"###;
        let toks = kinds(src);
        let fns: Vec<_> = toks
            .iter()
            .filter(|(k, t)| *k == TokKind::Ident && *t == "fn")
            .collect();
        assert_eq!(fns.len(), 1);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still */ after");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokKind::Comment);
        assert_eq!(toks[1], (TokKind::Ident, "after"));
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "'", "/* never closed", "r#\"open", "b'", "'\\"] {
            let toks = lex(src);
            assert!(toks.iter().all(|t| t.end <= src.len()));
        }
    }

    #[test]
    fn spans_tile_the_source() {
        let src = "let m = \"x\"; // tail\nfn g() { h('c', 'd') }";
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert!(t.start >= pos, "overlap at {}", t.start);
            assert!(src[pos..t.start].chars().all(char::is_whitespace));
            pos = t.end;
        }
        assert!(src[pos..].chars().all(char::is_whitespace));
    }
}
