//! Top-level programs: sequences of `let` declarations.
//!
//! The paper evaluates single expressions, but FreezeML's home (the Links
//! implementation, §6) checks whole programs of top-level bindings. This
//! module gives the Rust reproduction the same surface:
//!
//! ```text
//! program ::= pragma* decl*
//! pragma  ::= '#use' ident                      -- e.g. `#use prelude`
//! decl    ::= 'let' binder '=' term ';;'
//! binder  ::= ident (':' type)? | '(' ident ':' type ')'
//! ```
//!
//! `--` comments are those of the expression surface. Every declaration
//! carries byte-offset [`Span`]s (the whole declaration and the bound
//! name) so downstream consumers — the program-checking service, the
//! conformance harness — can attach diagnostics to source locations.
//!
//! A declaration `let x = M;;` binds `x` for the *rest of the program*
//! with exactly the `let` rule's semantics: the scheme of `x` is the type
//! of `x` in `let x = M in ⌈x⌉` (generalised for guarded values,
//! monomorphised under the value restriction otherwise), and a later
//! `let x = …;;` shadows an earlier one. [`Decl::probe_term`] builds that
//! probe term.
//!
//! ```
//! use freezeml_core::parse_program;
//!
//! let p = parse_program(
//!     "#use prelude\n\
//!      let f = fun x -> x;;  -- generalised\n\
//!      let n : Int = f 3;;\n",
//! )
//! .unwrap();
//! assert_eq!(p.decls.len(), 2);
//! assert!(p.uses_prelude());
//! assert_eq!(p.decls[1].name.as_str(), "n");
//! ```

use crate::names::Var;
use crate::scan;
use crate::symbol::Symbol;
use crate::term::Term;
use crate::types::Type;
use std::fmt;

/// A half-open byte range `[start, end)` into the source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// The `line:col` (both 1-based) of the span's start in `src`. One
    /// lookup builds a whole [`LineIndex`]; locate many spans of one
    /// source through a shared index instead.
    pub fn line_col(&self, src: &str) -> (usize, usize) {
        LineIndex::new(src).line_col(self.start)
    }
}

/// The newline offsets of one source text, built in one pass, so that
/// each position lookup is a binary search rather than a rescan from
/// byte 0.
#[derive(Clone, Debug)]
pub struct LineIndex {
    /// Byte offset of every `\n`, ascending.
    newlines: Vec<usize>,
}

impl LineIndex {
    /// Index the newlines of `src`, found eight bytes at a time
    /// ([`scan::find_newline`]).
    pub fn new(src: &str) -> LineIndex {
        let mut newlines = Vec::new();
        let mut at = 0;
        while let Some(k) = scan::find_newline(&src.as_bytes()[at..]) {
            newlines.push(at + k);
            at += k + 1;
        }
        LineIndex { newlines }
    }

    /// The `line:col` (both 1-based) of byte `offset`. The line counts
    /// the newlines before `offset`; the column is in bytes from the
    /// last of them (a `\r` before a `\n` is an ordinary byte). An
    /// offset past the end of the source lies on its last line.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        self.locate(self.newlines.partition_point(|&nl| nl < offset), offset)
    }

    /// The [`LineIndex::line_col`] of each of `offsets`. Offsets that
    /// ascend, as a program's declarations do, are located in one walk
    /// along the index; an offset before the one preceding it is
    /// searched for.
    pub fn line_cols<'a, I>(&'a self, offsets: I) -> impl Iterator<Item = (usize, usize)> + 'a
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: 'a,
    {
        let nl = &self.newlines;
        let mut before = 0;
        offsets.into_iter().map(move |offset| {
            if before > 0 && nl[before - 1] >= offset {
                before = nl[..before].partition_point(|&n| n < offset);
            }
            while nl.get(before).is_some_and(|&n| n < offset) {
                before += 1;
            }
            self.locate(before, offset)
        })
    }

    /// The `line:col` of `offset`, which follows `before` newlines.
    fn locate(&self, before: usize, offset: usize) -> (usize, usize) {
        let col = match before {
            0 => offset + 1,
            k => offset - self.newlines[k - 1],
        };
        (before + 1, col)
    }
}

/// One top-level declaration `let x (: A)? = M;;`.
#[derive(Clone, Debug, PartialEq)]
pub struct Decl {
    /// The bound name (interned).
    pub name: Symbol,
    /// The annotation, for `let x : A = M;;` / `let (x : A) = M;;`.
    pub ann: Option<Type>,
    /// The right-hand side.
    pub term: Term,
    /// The whole declaration, `let` through `;;`.
    pub span: Span,
    /// Just the bound name.
    pub name_span: Span,
}

impl Decl {
    /// The probe term whose type *is* the declaration's scheme:
    /// `let x = M in ⌈x⌉` (or the annotated form). Checking the probe
    /// reuses the paper's `let` rule verbatim — generalisation for
    /// guarded values, demotion under the value restriction, annotation
    /// splitting and the escape check for annotated declarations.
    pub fn probe_term(&self) -> Term {
        self.clone().into_probe_term()
    }

    /// [`Decl::probe_term`], built from the declaration's own term.
    pub fn into_probe_term(self) -> Term {
        let x = Var::from_symbol(self.name);
        let (rhs, body) = (Box::new(self.term), Box::new(Term::FrozenVar(x)));
        match self.ann {
            None => Term::Let(x, rhs, body),
            Some(ann) => Term::LetAnn(x, ann, rhs, body),
        }
    }

    /// The free term variables of the right-hand side — the names this
    /// declaration depends on (to be resolved against earlier
    /// declarations or the prelude).
    pub fn deps(&self) -> Vec<Var> {
        self.term.free_vars()
    }
}

impl fmt::Display for Decl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.ann {
            None => write!(f, "let {} = {};;", self.name, self.term),
            Some(ann) => write!(f, "let {} : {} = {};;", self.name, ann, self.term),
        }
    }
}

/// Is `#name arg` the pragma requesting the Figure 2 prelude?
pub(crate) fn requests_prelude(name: &str, arg: &str) -> bool {
    name == "use" && arg == "prelude"
}

/// A parsed program: pragmas followed by declarations.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// `#name arg` pragmas in order, with their spans.
    pub pragmas: Vec<(String, String, Span)>,
    /// The declarations, in order.
    pub decls: Vec<Decl>,
}

impl Program {
    /// Does the program request the Figure 2 prelude (`#use prelude`)?
    pub fn uses_prelude(&self) -> bool {
        self.pragmas
            .iter()
            .any(|(name, arg, _)| requests_prelude(name, arg))
    }

    /// Pragmas other than the ones the checker understands
    /// (`#use prelude` is currently the only recognised pragma).
    pub fn unknown_pragmas(&self) -> Vec<(String, String, Span)> {
        self.pragmas
            .iter()
            .filter(|(name, arg, _)| !requests_prelude(name, arg))
            .cloned()
            .collect()
    }

    /// For each declaration, the index of the declaration each free
    /// variable of its right-hand side resolves to — the latest *earlier*
    /// declaration of that name (ML shadowing). Variables that resolve to
    /// no earlier declaration are the prelude's (or unbound) and are
    /// omitted. The result is deduplicated and sorted.
    pub fn resolved_deps(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(self.decls.len());
        for (i, d) in self.decls.iter().enumerate() {
            let mut deps: Vec<usize> = d
                .deps()
                .into_iter()
                .filter_map(|v| {
                    self.decls[..i]
                        .iter()
                        .rposition(|e| v.symbol() == Some(e.name))
                })
                .collect();
            deps.sort_unstable();
            deps.dedup();
            out.push(deps);
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, arg, _) in &self.pragmas {
            writeln!(f, "#{name} {arg}")?;
        }
        for d in &self.decls {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn parses_a_program_with_spans() {
        let src = "-- demo\nlet f = fun x -> x;;\nlet g : Int = f 3;;\n";
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 2);
        let f = &p.decls[0];
        assert_eq!(f.name.as_str(), "f");
        assert_eq!(&src[f.span.start..f.span.end], "let f = fun x -> x;;");
        assert_eq!(&src[f.name_span.start..f.name_span.end], "f");
        assert_eq!(f.span.line_col(src), (2, 1));
        let g = &p.decls[1];
        assert_eq!(g.ann.as_ref().unwrap().to_string(), "Int");
        assert_eq!(g.span.line_col(src), (3, 1));
    }

    #[test]
    fn parenthesised_annotation_form_is_accepted() {
        let p = parse_program("let (f : forall a. a -> a) = fun x -> x;;").unwrap();
        assert_eq!(
            p.decls[0].ann.as_ref().unwrap().to_string(),
            "forall a. a -> a"
        );
    }

    #[test]
    fn pragmas_are_collected() {
        let p = parse_program("#use prelude\nlet x = 1;;").unwrap();
        assert!(p.uses_prelude());
        assert!(p.unknown_pragmas().is_empty());
        let q = parse_program("#use mystery\nlet x = 1;;").unwrap();
        assert!(!q.uses_prelude());
        assert_eq!(q.unknown_pragmas().len(), 1);
    }

    #[test]
    fn probe_terms_reuse_the_let_rule() {
        let p = parse_program("let f = fun x -> x;;\nlet g : Int -> Int = fun x -> x;;").unwrap();
        assert!(matches!(p.decls[0].probe_term(), Term::Let(_, _, _)));
        assert!(matches!(p.decls[1].probe_term(), Term::LetAnn(_, _, _, _)));
        for d in p.decls {
            assert_eq!(d.probe_term(), d.clone().into_probe_term());
        }
    }

    #[test]
    fn resolution_honours_shadowing() {
        let p = parse_program("let x = 1;;\nlet x = plus x 1;;\nlet y = plus x x;;\nlet z = 9;;")
            .unwrap();
        let deps = p.resolved_deps();
        assert_eq!(deps[0], Vec::<usize>::new());
        assert_eq!(deps[1], vec![0], "rhs `x` is the *previous* x");
        assert_eq!(deps[2], vec![1], "y sees the shadowing x");
        assert_eq!(deps[3], Vec::<usize>::new());
    }

    #[test]
    fn display_round_trips() {
        let src = "#use prelude\nlet f = fun x -> x;;\nlet g : Int = f 3;;\nlet h = poly ~f;;\n";
        let p = parse_program(src).unwrap();
        let printed = p.to_string();
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(p.pragmas.len(), p2.pragmas.len());
        assert_eq!(p.decls.len(), p2.decls.len());
        for (a, b) in p.decls.iter().zip(&p2.decls) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.term, b.term);
            assert_eq!(a.ann, b.ann);
        }
    }

    #[test]
    fn parse_errors_carry_positions() {
        let e = parse_program("let = 3;;").unwrap_err();
        assert!(e.to_string().contains("identifier"), "{e}");
        let e = parse_program("let x = 3").unwrap_err();
        assert!(e.to_string().contains(";;"), "{e}");
        let e = parse_program("let x = 3;; junk x;;").unwrap_err();
        assert!(e.to_string().contains("`let`"), "{e}");
    }

    #[test]
    fn line_col_is_one_based() {
        let s = Span { start: 0, end: 1 };
        assert_eq!(s.line_col("abc"), (1, 1));
        let s = Span { start: 4, end: 5 };
        assert_eq!(s.line_col("ab\ncd\n"), (2, 2));
        let s = Span { start: 6, end: 7 };
        assert_eq!(s.line_col("ab\ncd\nef"), (3, 1));
    }

    /// The rescan-from-byte-0 rule `line_col` used before the index,
    /// over bytes so that it is defined at every offset.
    fn rescan_line_col(src: &str, offset: usize) -> (usize, usize) {
        let upto = &src.as_bytes()[..offset.min(src.len())];
        let line = upto.iter().filter(|&&b| b == b'\n').count() + 1;
        let col = upto
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(offset + 1, |i| offset - i);
        (line, col)
    }

    #[test]
    fn the_line_index_agrees_with_a_rescan_at_every_offset() {
        let mut sources: Vec<String> = [
            "",
            "\n",
            "\n\n",
            "abc",
            "let x = 1;;\r\nlet y = x;;\r\n",
            "-- é\nlet s = \"😀\";;\r\n\r\nlet t = s;;",
            "\r\r\n\u{2028}\n",
        ]
        .map(String::from)
        .to_vec();
        // Deterministic mixes of CRLF, bare CR/LF and 2-, 3- and 4-byte
        // characters, so a newline lands next to every kind of byte.
        let pieces = ["a", " ", "\n", "\r\n", "\r", "é", "\u{2028}", "😀", ";;"];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..64 {
            let mut s = String::new();
            for _ in 0..40 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                s.push_str(pieces[(state % pieces.len() as u64) as usize]);
            }
            sources.push(s);
        }
        for src in &sources {
            let index = LineIndex::new(src);
            let offsets: Vec<usize> = (0..=src.len() + 3).collect();
            let mut expected = offsets.iter().map(|&o| rescan_line_col(src, o));
            assert!(index.line_cols(offsets.iter().copied()).eq(&mut expected));
            // Offsets that jump back and forth.
            let jumps = offsets.iter().rev().chain(&offsets).step_by(3).copied();
            let mut expected = jumps.clone().map(|o| rescan_line_col(src, o));
            assert!(index.line_cols(jumps).eq(&mut expected), "{src:?}");
            for offset in 0..=src.len() + 3 {
                assert_eq!(
                    index.line_col(offset),
                    rescan_line_col(src, offset),
                    "offset {offset} of {src:?}"
                );
                if src.is_char_boundary(offset.min(src.len())) {
                    let span = Span {
                        start: offset,
                        end: offset,
                    };
                    assert_eq!(span.line_col(src), index.line_col(offset));
                }
            }
        }
    }
}
