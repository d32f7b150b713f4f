//! Parser for the ASCII surface syntax.
//!
//! ## Types
//!
//! ```text
//! type  ::= 'forall' ident+ '.' type | prod ('->' type)?
//! prod  ::= app ('*' app)*
//! app   ::= 'List' atom | 'ST' atom atom | atom
//! atom  ::= 'Int' | 'Bool' | ident | '(' type ')'
//! ```
//!
//! Lowercase identifiers are type variables; uppercase identifiers are
//! nullary constructors.
//!
//! ## Terms
//!
//! ```text
//! term  ::= 'fun' param+ '->' term
//!        |  'let' (ident | '(' ident ':' type ')') '=' term 'in' term
//!        |  op
//! param ::= ident | '(' ident ':' type ')'
//! op    ::= application chains with infix `+` (60), `::` (50, right), `++` (40)
//! app   ::= postfix+
//! postfix ::= atom '@'*                        -- explicit instantiation M@
//! atom  ::= int | 'true' | 'false' | ident
//!        |  '~' ident                          -- frozen variable ⌈x⌉
//!        |  '$' gatom                          -- generalisation $V / $A V
//!        |  '(' term ')' | '(' term ',' term ')' | '[' terms? ']'
//! gatom ::= atom | '(' term ':' type ')'
//! ```
//!
//! Infix `+`, `::`, `++`, tuples, and list literals desugar to applications
//! of the Figure 2 prelude functions `plus`, `cons`, `append`, `pair`, and
//! `nil`, keeping the core term language exactly Figure 3.

use crate::lexer::{lex, LexError, Token, TokenKind};
use crate::names::TyVar;
use crate::program::{requests_prelude, Decl, Program, Span};
use crate::symbol::Symbol;
use crate::term::Term;
use crate::tycon::TyCon;
use crate::types::Type;
use std::fmt;

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Human-readable message.
    pub msg: String,
    /// Byte offset of the offending token (or end of input).
    pub pos: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            pos: e.pos,
        }
    }
}

/// Parse a type from source text.
///
/// ```
/// use freezeml_core::parse_type;
/// let t = parse_type("forall a. a -> List a").unwrap();
/// assert_eq!(t.to_string(), "forall a. a -> List a");
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_type(src: &str) -> Result<Type, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks, src.len());
    let t = p.ty()?;
    p.expect_end()?;
    Ok(t)
}

/// Parse a term from source text.
///
/// ```
/// use freezeml_core::parse_term;
/// let t = parse_term("fun x -> poly ~x").unwrap();
/// assert_eq!(t.to_string(), "fun x -> poly ~x");
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_term(src: &str) -> Result<Term, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks, src.len());
    let t = p.term()?;
    p.expect_end()?;
    Ok(t)
}

/// Parse a whole program — pragmas followed by `let …;;` declarations
/// (see [`crate::program`] for the grammar and semantics).
///
/// ```
/// use freezeml_core::parse_program;
/// let p = parse_program("let f = fun x -> x;;\nlet g = f 1;;").unwrap();
/// assert_eq!(p.decls.len(), 2);
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks, src.len());
    let mut program = Program::default();
    while let Some(item) = p.item()? {
        match item {
            Item::Pragma(name, arg, span) => {
                let (name, arg) = (name.as_str().to_string(), arg.as_str().to_string());
                program.pragmas.push((name, arg, span));
            }
            Item::Decl(d) => program.decls.push(d),
        }
    }
    Ok(program)
}

/// Parse one chunk of a program from its tokens: pragmas, then at most
/// one declaration, which ends the chunk. `len` is the chunk's length in
/// bytes, the position an end-of-input error reports. The items are
/// parsed by the code [`parse_program`] loops over, so a chunk cut at
/// its only `;;` (as [`crate::lexer::terminator_end`] cuts them) fails
/// with the error `parse_program` gives for it, and nothing is built
/// beyond its declaration.
///
/// Returns whether the chunk requests the prelude (`#use prelude`), and
/// its declaration.
///
/// ```
/// use freezeml_core::{lexer::lex, parser::parse_chunk};
/// let src = "#use prelude\nlet n = 1;;";
/// let (prelude, decl) = parse_chunk(&lex(src).unwrap(), src.len()).unwrap();
/// assert!(prelude);
/// assert_eq!(decl.unwrap().name.as_str(), "n");
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input.
pub fn parse_chunk(toks: &[Token], len: usize) -> Result<(bool, Option<Decl>), ParseError> {
    let mut p = Parser::new(toks, len);
    let mut prelude = false;
    while let Some(item) = p.item()? {
        match item {
            Item::Pragma(name, arg, _) => {
                prelude |= requests_prelude(name.as_str(), arg.as_str());
            }
            Item::Decl(d) => {
                p.expect_end()?;
                return Ok((prelude, Some(d)));
            }
        }
    }
    Ok((prelude, None))
}

/// One top-level item of a program.
enum Item {
    /// `#name arg`, with its span.
    Pragma(Symbol, Symbol, Span),
    /// `let x (: A)? = M;;`.
    Decl(Decl),
}

struct Parser<'t> {
    toks: &'t [Token],
    pos: usize,
    src_len: usize,
}

impl<'t> Parser<'t> {
    fn new(toks: &'t [Token], src_len: usize) -> Self {
        Parser {
            toks,
            pos: 0,
            src_len,
        }
    }

    /// The next top-level item; `None` at the end of input.
    fn item(&mut self) -> Result<Option<Item>, ParseError> {
        match self.peek() {
            None => Ok(None),
            Some(&TokenKind::Pragma(name)) => {
                let start = self.here();
                self.pos += 1;
                let arg_pos = self.here();
                let arg = self.ident()?;
                let end = arg_pos + arg.as_str().len();
                Ok(Some(Item::Pragma(name, arg, Span { start, end })))
            }
            Some(TokenKind::Let) => {
                let start = self.here();
                self.pos += 1;
                let (name, name_span, ann) = self.top_binder()?;
                self.expect(TokenKind::Eq)?;
                let term = self.term()?;
                let semi_pos = self.here();
                self.expect(TokenKind::SemiSemi)?;
                Ok(Some(Item::Decl(Decl {
                    name,
                    ann,
                    term,
                    span: Span {
                        start,
                        end: semi_pos + 2,
                    },
                    name_span,
                })))
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!(
                    "expected a `let` declaration or pragma, found `{t}`"
                ))
            }
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn here(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|t| t.pos)
            .unwrap_or(self.src_len)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            msg: msg.into(),
            pos: self.here(),
        })
    }

    fn expect(&mut self, k: TokenKind) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if *t == k => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected `{k}`, found `{t}`"))
            }
            None => self.err(format!("expected `{k}`, found end of input")),
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            None => Ok(()),
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected end of input, found `{t}`"))
            }
        }
    }

    fn ident(&mut self) -> Result<Symbol, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let s = *s;
                self.pos += 1;
                Ok(s)
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected identifier, found `{t}`"))
            }
            None => self.err("expected identifier, found end of input"),
        }
    }

    /// A top-level declaration binder: `x`, `x : A`, or `(x : A)`.
    fn top_binder(&mut self) -> Result<(Symbol, Span, Option<Type>), ParseError> {
        if self.peek() == Some(&TokenKind::LParen) {
            self.pos += 1;
            let pos = self.here();
            let x = self.ident()?;
            let name_span = Span {
                start: pos,
                end: pos + x.as_str().len(),
            };
            self.expect(TokenKind::Colon)?;
            let ty = self.ty()?;
            self.expect(TokenKind::RParen)?;
            return Ok((x, name_span, Some(ty)));
        }
        let pos = self.here();
        let x = self.ident()?;
        let name_span = Span {
            start: pos,
            end: pos + x.as_str().len(),
        };
        let ann = if self.peek() == Some(&TokenKind::Colon) {
            self.pos += 1;
            Some(self.ty()?)
        } else {
            None
        };
        Ok((x, name_span, ann))
    }

    // ---------------------------------------------------------- types

    fn ty(&mut self) -> Result<Type, ParseError> {
        if self.peek() == Some(&TokenKind::Forall) {
            self.pos += 1;
            let mut vars = Vec::new();
            while let Some(TokenKind::Ident(_)) = self.peek() {
                vars.push(TyVar::from_symbol(self.ident()?));
            }
            if vars.is_empty() {
                return self.err("`forall` requires at least one type variable");
            }
            self.expect(TokenKind::Dot)?;
            let body = self.ty()?;
            Ok(Type::foralls(vars, body))
        } else {
            self.ty_arrow()
        }
    }

    fn ty_arrow(&mut self) -> Result<Type, ParseError> {
        let lhs = self.ty_prod()?;
        if self.peek() == Some(&TokenKind::Arrow) {
            self.pos += 1;
            let rhs = self.ty()?;
            Ok(Type::arrow(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn ty_prod(&mut self) -> Result<Type, ParseError> {
        let mut lhs = self.ty_app()?;
        while self.peek() == Some(&TokenKind::Star) {
            self.pos += 1;
            let rhs = self.ty_app()?;
            lhs = Type::prod(lhs, rhs);
        }
        Ok(lhs)
    }

    fn ty_app(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) if s.as_str() == "List" => {
                self.pos += 1;
                let arg = self.ty_atom()?;
                Ok(Type::list(arg))
            }
            Some(TokenKind::Ident(s)) if s.as_str() == "ST" => {
                self.pos += 1;
                let s1 = self.ty_atom()?;
                let s2 = self.ty_atom()?;
                Ok(Type::st(s1, s2))
            }
            _ => self.ty_atom(),
        }
    }

    fn ty_atom(&mut self) -> Result<Type, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let s = *s;
                self.pos += 1;
                match s.as_str() {
                    "Int" => Ok(Type::int()),
                    "Bool" => Ok(Type::bool()),
                    "List" | "ST" => self.err(format!(
                        "type constructor `{s}` needs arguments (parenthesise)"
                    )),
                    _ if s.as_str().starts_with(|c: char| c.is_ascii_uppercase()) => {
                        Ok(Type::Con(TyCon::Other(s, 0), vec![]))
                    }
                    _ => Ok(Type::Var(TyVar::from_symbol(s))),
                }
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let t = self.ty()?;
                self.expect(TokenKind::RParen)?;
                Ok(t)
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected a type, found `{t}`"))
            }
            None => self.err("expected a type, found end of input"),
        }
    }

    // ---------------------------------------------------------- terms

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(TokenKind::Fun) => {
                self.pos += 1;
                let mut params: Vec<(Symbol, Option<Type>)> = Vec::new();
                loop {
                    match self.peek() {
                        Some(TokenKind::Ident(_)) => {
                            params.push((self.ident()?, None));
                        }
                        Some(TokenKind::LParen) => {
                            self.pos += 1;
                            let x = self.ident()?;
                            self.expect(TokenKind::Colon)?;
                            let ty = self.ty()?;
                            self.expect(TokenKind::RParen)?;
                            params.push((x, Some(ty)));
                        }
                        Some(TokenKind::Arrow) => break,
                        _ => return self.err("expected parameter or `->` in `fun`"),
                    }
                }
                if params.is_empty() {
                    return self.err("`fun` requires at least one parameter");
                }
                self.expect(TokenKind::Arrow)?;
                let body = self.term()?;
                Ok(params
                    .into_iter()
                    .rev()
                    .fold(body, |acc, (x, ann)| match ann {
                        None => Term::lam(x, acc),
                        Some(ty) => Term::lam_ann(x, ty, acc),
                    }))
            }
            Some(TokenKind::Let) => {
                self.pos += 1;
                match self.peek() {
                    Some(TokenKind::LParen) => {
                        self.pos += 1;
                        let x = self.ident()?;
                        self.expect(TokenKind::Colon)?;
                        let ty = self.ty()?;
                        self.expect(TokenKind::RParen)?;
                        self.expect(TokenKind::Eq)?;
                        let rhs = self.term()?;
                        self.expect(TokenKind::In)?;
                        let body = self.term()?;
                        Ok(Term::let_ann(x, ty, rhs, body))
                    }
                    _ => {
                        let x = self.ident()?;
                        self.expect(TokenKind::Eq)?;
                        let rhs = self.term()?;
                        self.expect(TokenKind::In)?;
                        let body = self.term()?;
                        Ok(Term::let_(x, rhs, body))
                    }
                }
            }
            _ => self.op_expr(0),
        }
    }

    /// Precedence climbing over the desugared infix operators.
    fn op_expr(&mut self, min_prec: u8) -> Result<Term, ParseError> {
        let mut lhs = self.app_expr()?;
        loop {
            let (prec, right_assoc, fun) = match self.peek() {
                Some(TokenKind::Plus) => (60, false, "plus"),
                Some(TokenKind::ColonColon) => (50, true, "cons"),
                Some(TokenKind::PlusPlus) => (40, false, "append"),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let next_min = if right_assoc { prec } else { prec + 1 };
            let rhs = self.op_expr(next_min)?;
            lhs = Term::apps(Term::var(fun), [lhs, rhs]);
        }
        Ok(lhs)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                TokenKind::Ident(_)
                    | TokenKind::Int(_)
                    | TokenKind::True
                    | TokenKind::False
                    | TokenKind::LParen
                    | TokenKind::LBracket
                    | TokenKind::Tilde
                    | TokenKind::Dollar
            )
        )
    }

    fn app_expr(&mut self) -> Result<Term, ParseError> {
        let mut head = self.postfix()?;
        while self.starts_atom() {
            let arg = self.postfix()?;
            head = Term::app(head, arg);
        }
        Ok(head)
    }

    fn postfix(&mut self) -> Result<Term, ParseError> {
        let mut t = self.atom()?;
        while self.peek() == Some(&TokenKind::At) {
            self.pos += 1;
            if self.peek() == Some(&TokenKind::LBracket) {
                // Explicit type application M@[A] (§6 extension).
                self.pos += 1;
                let ty = self.ty()?;
                self.expect(TokenKind::RBracket)?;
                t = Term::ty_app(t, ty);
            } else {
                t = Term::inst(t);
            }
        }
        Ok(t)
    }

    fn atom(&mut self) -> Result<Term, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(_)) => Ok(Term::var(self.ident()?)),
            Some(TokenKind::Int(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(Term::int(n))
            }
            Some(TokenKind::True) => {
                self.pos += 1;
                Ok(Term::bool(true))
            }
            Some(TokenKind::False) => {
                self.pos += 1;
                Ok(Term::bool(false))
            }
            Some(TokenKind::Tilde) => {
                self.pos += 1;
                Ok(Term::frozen(self.ident()?))
            }
            Some(TokenKind::Dollar) => {
                self.pos += 1;
                self.gen_atom()
            }
            Some(TokenKind::LParen) => {
                self.pos += 1;
                let t = self.term()?;
                match self.peek() {
                    Some(TokenKind::RParen) => {
                        self.pos += 1;
                        Ok(t)
                    }
                    Some(TokenKind::Comma) => {
                        self.pos += 1;
                        let u = self.term()?;
                        self.expect(TokenKind::RParen)?;
                        Ok(Term::apps(Term::var("pair"), [t, u]))
                    }
                    Some(TokenKind::Colon) => {
                        self.err("type ascription `(M : A)` is only allowed directly under `$`")
                    }
                    _ => self.err("expected `)`, `,` or end of parenthesised term"),
                }
            }
            Some(TokenKind::LBracket) => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() != Some(&TokenKind::RBracket) {
                    items.push(self.term()?);
                    while self.peek() == Some(&TokenKind::Comma) {
                        self.pos += 1;
                        items.push(self.term()?);
                    }
                }
                self.expect(TokenKind::RBracket)?;
                Ok(items.into_iter().rev().fold(Term::var("nil"), |acc, it| {
                    Term::apps(Term::var("cons"), [it, acc])
                }))
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected a term, found `{t}`"))
            }
            None => self.err("expected a term, found end of input"),
        }
    }

    /// The operand of `$`: an atom, or a parenthesised term with an optional
    /// type ascription `$(M : A)` giving annotated generalisation `$A M`.
    fn gen_atom(&mut self) -> Result<Term, ParseError> {
        if self.peek() == Some(&TokenKind::LParen) {
            // `$( ... )` — may contain a trailing ascription.
            self.pos += 1;
            let t = self.term()?;
            match self.peek() {
                Some(TokenKind::RParen) => {
                    self.pos += 1;
                    Ok(Term::gen(t))
                }
                Some(TokenKind::Colon) => {
                    self.pos += 1;
                    let ty = self.ty()?;
                    self.expect(TokenKind::RParen)?;
                    Ok(Term::gen_ann(ty, t))
                }
                Some(TokenKind::Comma) => {
                    self.pos += 1;
                    let u = self.term()?;
                    self.expect(TokenKind::RParen)?;
                    Ok(Term::gen(Term::apps(Term::var("pair"), [t, u])))
                }
                _ => self.err("expected `)` or `:` in generalisation"),
            }
        } else {
            let t = self.atom()?;
            Ok(Term::gen(t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_types() {
        for (src, expect) in [
            ("forall a. List a -> a", "forall a. List a -> a"),
            (
                "forall a b. (a -> b) -> List a -> List b",
                "forall a b. (a -> b) -> List a -> List b",
            ),
            (
                "(forall a. a -> a) -> Int * Bool",
                "(forall a. a -> a) -> Int * Bool",
            ),
            (
                "forall a. (forall s. ST s a) -> a",
                "forall a. (forall s. ST s a) -> a",
            ),
            ("forall b a. a -> b -> a * b", "forall b a. a -> b -> a * b"),
            ("List (forall a. a -> a)", "List (forall a. a -> a)"),
        ] {
            let t = parse_type(src).unwrap();
            assert_eq!(t.to_string(), expect, "source: {src}");
        }
    }

    #[test]
    fn arrow_is_right_assoc() {
        let t = parse_type("a -> b -> c").unwrap();
        assert_eq!(
            t,
            Type::arrow(Type::var("a"), Type::arrow(Type::var("b"), Type::var("c")))
        );
    }

    #[test]
    fn type_round_trips_through_display() {
        for src in [
            "forall a b. a -> b -> b",
            "(forall a. a -> a) -> forall b. b -> b",
            "List (Int * Bool) -> ST s Int",
            "forall a. (forall s. ST s a) -> a",
        ] {
            let t = parse_type(src).unwrap();
            let t2 = parse_type(&t.to_string()).unwrap();
            assert!(t.alpha_eq(&t2), "{src} printed as {t}");
        }
    }

    #[test]
    fn parses_lambda_forms() {
        assert_eq!(
            parse_term("fun x y -> y").unwrap(),
            Term::lam("x", Term::lam("y", Term::var("y")))
        );
        let t = parse_term("fun (x : forall a. a -> a) -> x x").unwrap();
        match t {
            Term::LamAnn(_, ann, body) => {
                assert_eq!(ann.to_string(), "forall a. a -> a");
                assert_eq!(*body, Term::app(Term::var("x"), Term::var("x")));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_freeze_gen_inst() {
        assert_eq!(parse_term("~id").unwrap(), Term::frozen("id"));
        // $id desugars to let $n = id in ~$n
        match parse_term("$id").unwrap() {
            Term::Let(x, rhs, body) => {
                assert_eq!(*rhs, Term::var("id"));
                assert_eq!(*body, Term::FrozenVar(x));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        // (head ids)@ desugars to let $n = head ids in $n
        match parse_term("(head ids)@").unwrap() {
            Term::Let(x, rhs, body) => {
                assert_eq!(*rhs, Term::app(Term::var("head"), Term::var("ids")));
                assert_eq!(*body, Term::Var(x));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_annotated_gen() {
        match parse_term("$(fun x -> x : forall a. a -> a)").unwrap() {
            Term::LetAnn(x, ann, _, body) => {
                assert_eq!(ann.to_string(), "forall a. a -> a");
                assert_eq!(*body, Term::FrozenVar(x));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn ascription_outside_gen_is_rejected() {
        assert!(parse_term("(x : Int)").is_err());
    }

    #[test]
    fn parses_let_forms() {
        let t = parse_term("let f = fun x -> x in ~f").unwrap();
        assert_eq!(
            t,
            Term::let_("f", Term::lam("x", Term::var("x")), Term::frozen("f"))
        );
        let t = parse_term("let (f : forall a. a -> a) = ~id in f 3").unwrap();
        match t {
            Term::LetAnn(_, ann, rhs, _) => {
                assert_eq!(ann.to_string(), "forall a. a -> a");
                assert_eq!(*rhs, Term::frozen("id"));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn application_binds_tighter_than_operators() {
        // f 42 + 1  ≡  plus (f 42) 1
        let t = parse_term("f 42 + 1").unwrap();
        assert_eq!(
            t,
            Term::apps(
                Term::var("plus"),
                [Term::app(Term::var("f"), Term::int(42)), Term::int(1)]
            )
        );
    }

    #[test]
    fn cons_is_right_assoc() {
        // a :: b :: c ≡ cons a (cons b c)
        let t = parse_term("a :: b :: c").unwrap();
        assert_eq!(
            t,
            Term::apps(
                Term::var("cons"),
                [
                    Term::var("a"),
                    Term::apps(Term::var("cons"), [Term::var("b"), Term::var("c")])
                ]
            )
        );
    }

    #[test]
    fn lists_and_tuples_desugar() {
        assert_eq!(parse_term("[]").unwrap(), Term::var("nil"));
        assert_eq!(
            parse_term("[x]").unwrap(),
            Term::apps(Term::var("cons"), [Term::var("x"), Term::var("nil")])
        );
        assert_eq!(
            parse_term("(x, y)").unwrap(),
            Term::apps(Term::var("pair"), [Term::var("x"), Term::var("y")])
        );
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_term("x y )").is_err());
        assert!(parse_type("Int Int").is_err());
    }

    #[test]
    fn frozen_requires_identifier() {
        assert!(parse_term("~3").is_err());
        assert!(parse_term("~(f x)").is_err());
    }

    /// A chunk parses to what the whole program parses to, and fails
    /// with the whole program's error.
    #[test]
    fn a_chunk_parses_as_the_program_does() {
        for src in [
            "let f = fun x -> x;;",
            "-- note\n#use prelude\n#use mystery\nlet (g : Int) = 1;;",
            "#use prelude",
            "-- only a comment",
            "",
            "let x = ;;",
            "let x = 1",
            "#use 1",
            ";;",
            "let x = 1 é;;",
        ] {
            let chunk = lex(src)
                .map_err(ParseError::from)
                .and_then(|toks| parse_chunk(&toks, src.len()));
            match (chunk, parse_program(src)) {
                (Ok((prelude, decl)), Ok(p)) => {
                    assert_eq!(prelude, p.uses_prelude(), "{src:?}");
                    assert_eq!(decl.as_ref(), p.decls.first(), "{src:?}");
                }
                (Err(c), Err(p)) => assert_eq!(c, p, "{src:?}"),
                (c, p) => panic!("{src:?}: chunk {c:?}, program {p:?}"),
            }
        }
    }

    #[test]
    fn a_declaration_ends_its_chunk() {
        let src = "let x = 1;; let y = 2;;";
        let e = parse_chunk(&lex(src).unwrap(), src.len()).unwrap_err();
        assert_eq!(e.pos, 12, "{e}");
    }

    #[test]
    fn at_after_var_and_paren() {
        // head ids @ — `@` binds to the nearest atom, `ids` here.
        let t = parse_term("head ids@").unwrap();
        match t {
            Term::App(f, arg) => {
                assert_eq!(*f, Term::var("head"));
                assert!(matches!(*arg, Term::Let(_, _, _)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }
}
