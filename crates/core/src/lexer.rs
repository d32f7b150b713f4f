//! Lexer for the ASCII surface syntax.
//!
//! Identifiers are `[A-Za-z_][A-Za-z0-9_']*` (primes allowed, so `auto'`
//! and `pair'` from Figure 2 lex as single identifiers). Comments run from
//! `--` to end of line. The freeze, generalisation, and instantiation
//! operators lex as `~`, `$`, and `@`.
//!
//! ## Chunks
//!
//! A program's `;;` terminators cut it into *chunks*: pragmas, then at
//! most one declaration, which the chunk's only `;;` ends. The checking
//! service parses a program chunk by chunk, so that an edit re-reads only
//! the chunks it touched. [`terminator_end`] finds chunk ends by the rules
//! [`lex`] reads `--` comments and `;;` with — one implementation of each
//! — and [`is_space`] is the whitespace both skip. No other token holds a
//! `-` or a `;`, so a `;;` it finds is one `lex` reads as
//! [`TokenKind::SemiSemi`], and the lexer can start at any chunk end.
//! [`lex_into`] lexes a chunk into a reused token buffer.

use crate::symbol::{Interner, Symbol};
use std::fmt;

/// A lexical token with its byte offset (for error reporting).
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the first character.
    pub pos: usize,
}

/// The kinds of token in the surface syntax.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// `fun`
    Fun,
    /// `let`
    Let,
    /// `in`
    In,
    /// `forall`
    Forall,
    /// `true`
    True,
    /// `false`
    False,
    /// An identifier, interned once into the global symbol table.
    Ident(Symbol),
    /// An integer literal.
    Int(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `->`
    Arrow,
    /// `.`
    Dot,
    /// `:`
    Colon,
    /// `::`
    ColonColon,
    /// `,`
    Comma,
    /// `~`
    Tilde,
    /// `$`
    Dollar,
    /// `@`
    At,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `++`
    PlusPlus,
    /// `=`
    Eq,
    /// `;;` — top-level declaration terminator (program surface).
    SemiSemi,
    /// `#name` — a top-level pragma such as `#use` (program surface).
    Pragma(Symbol),
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Fun => write!(f, "fun"),
            TokenKind::Let => write!(f, "let"),
            TokenKind::In => write!(f, "in"),
            TokenKind::Forall => write!(f, "forall"),
            TokenKind::True => write!(f, "true"),
            TokenKind::False => write!(f, "false"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(n) => write!(f, "{n}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Arrow => write!(f, "->"),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Colon => write!(f, ":"),
            TokenKind::ColonColon => write!(f, "::"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Tilde => write!(f, "~"),
            TokenKind::Dollar => write!(f, "$"),
            TokenKind::At => write!(f, "@"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::PlusPlus => write!(f, "++"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::SemiSemi => write!(f, ";;"),
            TokenKind::Pragma(s) => write!(f, "#{s}"),
        }
    }
}

/// A lexing failure: an unexpected character.
#[derive(Clone, Debug, PartialEq)]
pub struct LexError {
    /// A human-readable message.
    pub msg: String,
    /// Byte offset of the failure.
    pub pos: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Is `b` lexer whitespace? Only these four ASCII bytes are: Unicode
/// whitespace (NBSP, U+2028, …) is an unexpected character.
pub const fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

/// The `--` rule: when a line comment starts at byte `i`, the offset of
/// the newline that ends it (or of the end of input).
fn comment_end(bytes: &[u8], i: usize) -> Option<usize> {
    if bytes.get(i) == Some(&b'-') && bytes.get(i + 1) == Some(&b'-') {
        let rest = &bytes[i + 2..];
        Some(i + 2 + rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len()))
    } else {
        None
    }
}

/// The `;;` rule: does a terminator start at byte `i`?
fn is_terminator(bytes: &[u8], i: usize) -> bool {
    bytes.get(i) == Some(&b';') && bytes.get(i + 1) == Some(&b';')
}

/// Just past the first `;;` at or after byte `from` of `src` that is not
/// inside a comment, by the rules [`lex`] reads them with; `None` when
/// there is none. `from` must not lie inside a comment.
pub fn terminator_end(src: &str, from: usize) -> Option<usize> {
    let bytes = src.as_bytes();
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'-' => match comment_end(bytes, i) {
                Some(end) => i = end,
                None => i += 1,
            },
            b';' if is_terminator(bytes, i) => return Some(i + 2),
            _ => i += 1,
        }
    }
    None
}

/// Tokenise the input.
///
/// # Errors
///
/// Returns a [`LexError`] on characters outside the surface syntax.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut out = Vec::new();
    lex_into(src, &mut out)?;
    Ok(out)
}

/// Tokenise the input into `out`, which is cleared first: a caller that
/// lexes many chunks reuses one buffer.
///
/// # Errors
///
/// Returns a [`LexError`] on characters outside the surface syntax.
pub fn lex_into(src: &str, out: &mut Vec<Token>) -> Result<(), LexError> {
    let bytes = src.as_bytes();
    out.clear();
    let mut names = Interner::new();
    let mut i = 0;
    while i < bytes.len() {
        if let Some(end) = comment_end(bytes, i) {
            i = end;
            continue;
        }
        let c = bytes[i] as char;
        let pos = i;
        match c {
            _ if is_space(bytes[i]) => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Token {
                    kind: TokenKind::Arrow,
                    pos,
                });
                i += 2;
            }
            '(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    pos,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    pos,
                });
                i += 1;
            }
            '[' => {
                out.push(Token {
                    kind: TokenKind::LBracket,
                    pos,
                });
                i += 1;
            }
            ']' => {
                out.push(Token {
                    kind: TokenKind::RBracket,
                    pos,
                });
                i += 1;
            }
            '.' => {
                out.push(Token {
                    kind: TokenKind::Dot,
                    pos,
                });
                i += 1;
            }
            ':' if bytes.get(i + 1) == Some(&b':') => {
                out.push(Token {
                    kind: TokenKind::ColonColon,
                    pos,
                });
                i += 2;
            }
            ':' => {
                out.push(Token {
                    kind: TokenKind::Colon,
                    pos,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    pos,
                });
                i += 1;
            }
            '~' => {
                out.push(Token {
                    kind: TokenKind::Tilde,
                    pos,
                });
                i += 1;
            }
            '$' => {
                out.push(Token {
                    kind: TokenKind::Dollar,
                    pos,
                });
                i += 1;
            }
            '@' => {
                out.push(Token {
                    kind: TokenKind::At,
                    pos,
                });
                i += 1;
            }
            '*' => {
                out.push(Token {
                    kind: TokenKind::Star,
                    pos,
                });
                i += 1;
            }
            '+' if bytes.get(i + 1) == Some(&b'+') => {
                out.push(Token {
                    kind: TokenKind::PlusPlus,
                    pos,
                });
                i += 2;
            }
            '+' => {
                out.push(Token {
                    kind: TokenKind::Plus,
                    pos,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    kind: TokenKind::Eq,
                    pos,
                });
                i += 1;
            }
            ';' if is_terminator(bytes, i) => {
                out.push(Token {
                    kind: TokenKind::SemiSemi,
                    pos,
                });
                i += 2;
            }
            '#' if bytes
                .get(i + 1)
                .is_some_and(|b| (*b as char).is_ascii_alphabetic()) =>
            {
                let start = i + 1;
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_alphabetic() {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Pragma(names.intern(&src[start..i])),
                    pos,
                });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let n = text.parse::<i64>().map_err(|_| LexError {
                    msg: format!("integer literal `{text}` out of range"),
                    pos,
                })?;
                out.push(Token {
                    kind: TokenKind::Int(n),
                    pos,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' || b == '\'' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                let kind = match text {
                    "fun" => TokenKind::Fun,
                    "let" => TokenKind::Let,
                    "in" => TokenKind::In,
                    "forall" => TokenKind::Forall,
                    "true" => TokenKind::True,
                    "false" => TokenKind::False,
                    _ => TokenKind::Ident(names.intern(text)),
                };
                out.push(Token { kind, pos });
            }
            _ => {
                // `c` is the first byte of the character at `i`; name the
                // whole (possibly multi-byte) character.
                let other = src.get(i..).and_then(|s| s.chars().next()).unwrap_or(c);
                return Err(LexError {
                    msg: format!("unexpected character `{other}`"),
                    pos,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("fun let in forall xs auto'"),
            vec![
                TokenKind::Fun,
                TokenKind::Let,
                TokenKind::In,
                TokenKind::Forall,
                TokenKind::Ident(Symbol::intern("xs")),
                TokenKind::Ident(Symbol::intern("auto'")),
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("-> :: : ++ + * ~ $ @ = . ,"),
            vec![
                TokenKind::Arrow,
                TokenKind::ColonColon,
                TokenKind::Colon,
                TokenKind::PlusPlus,
                TokenKind::Plus,
                TokenKind::Star,
                TokenKind::Tilde,
                TokenKind::Dollar,
                TokenKind::At,
                TokenKind::Eq,
                TokenKind::Dot,
                TokenKind::Comma,
            ]
        );
    }

    #[test]
    fn lexes_literals_and_brackets() {
        assert_eq!(
            kinds("[1, 42] (true false)"),
            vec![
                TokenKind::LBracket,
                TokenKind::Int(1),
                TokenKind::Comma,
                TokenKind::Int(42),
                TokenKind::RBracket,
                TokenKind::LParen,
                TokenKind::True,
                TokenKind::False,
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(kinds("x -- comment -> ignored\ny"), kinds("x y"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("x ? y").is_err());
        assert!(lex("x # y").is_err());
        assert!(lex("x ; y").is_err(), "a lone `;` is not a token");
        assert!(lex("#1").is_err(), "pragma names are alphabetic");
    }

    #[test]
    fn errors_name_the_whole_non_ascii_character() {
        for (src, ch, pos) in [
            ("let été", 'é', 4),
            ("x 🦀", '🦀', 2),
            ("\u{a0}", '\u{a0}', 0),
        ] {
            let e = lex(src).unwrap_err();
            assert_eq!(e.msg, format!("unexpected character `{ch}`"), "{src:?}");
            assert_eq!(e.pos, pos, "{src:?}: the byte position is unchanged");
        }
    }

    #[test]
    fn lexes_program_surface_tokens() {
        assert_eq!(
            kinds("#use prelude let x = 1;;"),
            vec![
                TokenKind::Pragma(Symbol::intern("use")),
                TokenKind::Ident(Symbol::intern("prelude")),
                TokenKind::Let,
                TokenKind::Ident(Symbol::intern("x")),
                TokenKind::Eq,
                TokenKind::Int(1),
                TokenKind::SemiSemi,
            ]
        );
    }

    /// Every `;;` token the lexer reads ends a chunk [`terminator_end`]
    /// finds, and no other offset does.
    #[test]
    fn terminators_are_the_lexers_semisemi_tokens() {
        for src in [
            "let x = 1;;\nlet y = x;;",
            "let x = 1 -- not yet ;;\n;;",
            "-- leading ;;\nlet x = 1;;;; -- tail ;;",
            "#use prelude\nlet f = fun x -> x;;\n--;;\n--\n;;",
            "x -> y --",
            "",
        ] {
            let lexed: Vec<usize> = lex(src)
                .unwrap()
                .iter()
                .filter(|t| t.kind == TokenKind::SemiSemi)
                .map(|t| t.pos + 2)
                .collect();
            let mut found = Vec::new();
            let mut at = 0;
            while let Some(end) = terminator_end(src, at) {
                found.push(end);
                at = end;
            }
            assert_eq!(found, lexed, "{src:?}");
        }
    }

    #[test]
    fn lexing_into_a_buffer_replaces_its_tokens() {
        let mut toks = lex("a b c d").unwrap();
        lex_into("x", &mut toks).unwrap();
        assert_eq!(toks, lex("x").unwrap());
    }

    #[test]
    fn positions_are_byte_offsets() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 3);
    }
}
