//! The program database: bindings keyed by content hash, a resolved
//! dependency graph levelled into topological waves, and Merkle-style
//! cache keys that make invalidation exact.
//!
//! ## Invalidation model
//!
//! Every declaration gets a **content hash** — the [`Hasher64`] hash of
//! its source slice (`let` through `;;`). Its **cache key** combines that
//! hash with the cache keys of the declarations its free variables
//! resolve to, plus the checker configuration:
//!
//! ```text
//! key(d) = H(slice(d), key(dep₁), …, key(depₖ), opts, engine, #use)
//! ```
//!
//! The key is therefore a fingerprint of *everything the binding's
//! scheme can depend on*: edit a declaration and exactly that
//! declaration and its transitive dependents change key; reorder,
//! insert, or delete unrelated declarations and every untouched key is
//! preserved, so the scheme cache keeps serving them. FreezeML's
//! principal-types guarantee (paper Theorem 7) is what makes caching a
//! binding's scheme sound at all: the scheme is a function of the
//! binding and its dependencies' schemes, with no cross-binding
//! inference state to leak.
//!
//! Name resolution follows ML shadowing — each free variable resolves to
//! the *latest earlier* declaration of that name, so every dependency
//! edge points backwards and the graph is acyclic by construction. A
//! binding's wave is therefore one more than the latest wave among its
//! dependencies (0 without any), computed in the same forward pass.
//!
//! ## The front end
//!
//! A text is read chunk by chunk: a chunk ends at a `;;`, found by
//! [`freezeml_core::lexer::terminator_end`] — the lexer's own comment and
//! terminator rules, not a second scanner. Each chunk is looked up by the
//! hash of its slice in the hub's [`Frontend`]; a miss lexes the slice
//! into one reused token buffer and parses the tokens with
//! [`freezeml_core::parser::parse_chunk`], the item code
//! `parse_program` loops over. A chunked analysis fails with the first
//! failing chunk's error. The cached declaration keeps the probe term
//! every check borrows, its free variables and its content hash, and an
//! analysis keeps every binding's dependencies in one index pool.
//!
//! ## Patching
//!
//! An analysis remembers the chunk layout of its text, so an edit patches
//! it (`Analysis::patch`) instead of rebuilding it: only the chunks whose
//! bytes changed are looked up in the parse cache, and only the
//! declarations they hold, the ones whose names they declared or removed
//! resolve to, and everything downstream are re-resolved and re-keyed.
//! The keys keep the meaning above, so a patched analysis equals a full
//! one; a full analysis is the patch from the empty document.

use crate::hash::{hash_str, Hasher64, U64Map};
use crate::sync::Arc;
use freezeml_core::lexer::{is_space, lex_into, terminator_end, Token};
use freezeml_core::parser::parse_chunk;
use freezeml_core::{
    Decl, InstantiationStrategy, Options, ParseError, Program, Span, Symbol, Term, Type, Var,
};
use freezeml_obs::{TraceCtx, Tracer};
use fxhash::{FxHashMap, FxHashSet};
use std::ops::DerefMut;

/// Which inference engine(s) the service and the conformance harness
/// drive.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineSel {
    /// The paper-literal `core` engine only.
    Core,
    /// The union-find engine only — the production configuration.
    Uf,
    /// Both, with a per-binding agreement obligation (differential runs).
    #[default]
    Both,
}

impl EngineSel {
    /// Read the selection from the `ENGINE` environment variable
    /// (`core`, `uf`, or `both`; default [`EngineSel::Both`]).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognised value — a misspelt selector silently
    /// running the wrong engine would defeat differential runs.
    pub fn from_env() -> EngineSel {
        match std::env::var("ENGINE") {
            Err(_) => EngineSel::default(),
            Ok(v) => match v.as_str() {
                "core" => EngineSel::Core,
                "uf" => EngineSel::Uf,
                "both" | "" => EngineSel::Both,
                other => panic!("ENGINE must be core|uf|both, got `{other}`"),
            },
        }
    }

    pub(crate) fn tag(self) -> u64 {
        match self {
            EngineSel::Core => 1,
            EngineSel::Uf => 2,
            EngineSel::Both => 3,
        }
    }
}

/// The verdict on one binding.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// Well typed at this (closed, canonical) scheme.
    Typed {
        /// The binding's scheme in the service's shared scheme bank —
        /// an α-class id the Merkle cache keys directly; the `core::Type`
        /// tree is materialised only on demand at the protocol boundary.
        id: freezeml_engine::SchemeId,
        /// The canonical rendering, memoised per id in the scheme bank
        /// (shared `Arc`, so cache hits and `type-of` clone a pointer).
        scheme: crate::sync::Arc<str>,
        /// Residual monomorphic variables that were grounded to `Int`
        /// to keep the environment closed (value restriction; same
        /// defaulting the REPL performs), by canonical name.
        defaulted: Vec<String>,
    },
    /// Ill typed.
    Error {
        /// The error class (Debug rendering of
        /// [`freezeml_engine::ErrorClass`]).
        class: String,
        /// The rendered message.
        message: String,
    },
    /// Not checked because a dependency failed.
    Blocked {
        /// The failing dependency's name.
        on: String,
    },
    /// The two engines disagreed (only under [`EngineSel::Both`]) — a
    /// checker bug, surfaced loudly rather than cached.
    Disagreement {
        /// The oracle's verdict, rendered.
        core: String,
        /// The union-find engine's verdict, rendered.
        uf: String,
    },
}

impl Outcome {
    /// Is this a successful scheme?
    pub fn is_typed(&self) -> bool {
        matches!(self, Outcome::Typed { .. })
    }

    /// May this verdict be cached and served warm? Disagreements and
    /// internal errors are checker bugs, so every pass recomputes them.
    pub(crate) fn cacheable(&self) -> bool {
        match self {
            Outcome::Disagreement { .. } => false,
            Outcome::Error { class, .. } => class != crate::exec::INTERNAL_ERROR_CLASS,
            _ => true,
        }
    }

    /// One-line rendering for reports and diffs.
    pub fn display(&self) -> String {
        match self {
            Outcome::Typed {
                scheme, defaulted, ..
            } if defaulted.is_empty() => scheme.to_string(),
            Outcome::Typed {
                scheme, defaulted, ..
            } => {
                format!("{scheme}  (defaulted: {})", defaulted.join(", "))
            }
            Outcome::Error { message, .. } => format!("✕ ({message})"),
            Outcome::Blocked { on } => format!("blocked on `{on}`"),
            Outcome::Disagreement { core, uf } => {
                format!("engines disagree: core gave {core}, union-find gave {uf}")
            }
        }
    }
}

/// One analysed declaration: its position in the document plus a shared
/// handle on the parsed chunk (probe term, free variables). The handle
/// is an [`std::sync::Arc`] into the front-end's parse cache, so
/// re-analysing a document after an edit clones no terms for the
/// untouched declarations.
#[derive(Clone, Debug)]
pub struct DeclInfo {
    /// The whole declaration, `let` through `;;` (absolute).
    pub span: Span,
    /// The bound name (absolute).
    pub name_span: Span,
    /// The bound name and its interned string (copies of the chunk's,
    /// read without following the `Arc` or locking the symbol table).
    sym: Symbol,
    name: &'static str,
    chunk: Arc<ParsedDecl>,
    /// The hash of the declaration's source slice: the text its Merkle
    /// key covers.
    content: u64,
}

impl DeclInfo {
    /// The declaration of a chunk that starts at byte `at`.
    fn new(chunk: Arc<ParsedDecl>, at: usize) -> DeclInfo {
        let span = Span {
            start: chunk.decl_rel.start + at,
            end: chunk.decl_rel.end + at,
        };
        let name_span = Span {
            start: chunk.name_rel.start + at,
            end: chunk.name_rel.end + at,
        };
        DeclInfo {
            span,
            name_span,
            sym: chunk.name,
            name: chunk.name_str,
            content: chunk.content,
            chunk,
        }
    }

    /// Move the declaration by `delta` bytes (two's complement).
    fn shift(&mut self, delta: usize) {
        for s in [&mut self.span, &mut self.name_span] {
            s.start = s.start.wrapping_add(delta);
            s.end = s.end.wrapping_add(delta);
        }
    }

    /// The bound name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The bound name as an interned symbol.
    pub fn name_sym(&self) -> Symbol {
        self.sym
    }

    /// The annotation, if any.
    pub fn ann(&self) -> Option<&Type> {
        match &self.chunk.probe {
            Term::LetAnn(_, ann, _, _) => Some(ann),
            _ => None,
        }
    }

    /// The free term variables of the right-hand side.
    pub fn free_vars(&self) -> &[Var] {
        &self.chunk.fv
    }

    /// The probe term whose type is the declaration's scheme —
    /// `let x (: A)? = M in ⌈x⌉` (see [`freezeml_core::Decl::probe_term`]),
    /// built once when the chunk is parsed.
    pub fn probe_term(&self) -> &Term {
        &self.chunk.probe
    }
}

/// One chunk of an analysed text: a `;;`-terminated run, or the
/// unterminated trailer, and what it contributed.
#[derive(Clone, Copy, Debug)]
struct Chunk {
    /// Where the chunk starts, leading whitespace trimmed: `start..end`
    /// is the slice the parse cache keys.
    start: usize,
    /// Just past the chunk's `;;` (the text's end for a trailer).
    end: usize,
    /// Declarations in earlier chunks, so the index of this chunk's
    /// declaration when it has one.
    first_decl: usize,
    /// Does the chunk hold a declaration?
    decl: bool,
    /// Does the chunk hold `#use prelude`?
    prelude: bool,
}

/// A parsed program analysed for checking: resolved dependencies,
/// topological waves, and cache keys.
///
/// An analysis built by [`analyze_cached`] also keeps the chunk layout
/// of its text, so the service can patch it to an edited text instead
/// of rebuilding it. One routine does both: a full analysis is the
/// patch from the empty document.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Does the program request the Figure 2 prelude (`#use prelude`)?
    pub uses_prelude: bool,
    /// The declarations, in order.
    pub decls: Vec<DeclInfo>,
    /// Every binding's dependencies (see [`Analysis::deps`]).
    deps: Deps,
    /// Binding indices grouped into topological waves, ascending within
    /// each wave: every dependency of a binding in wave `k` lies in a
    /// wave `< k`, so the bindings of one wave are independent.
    pub waves: Vec<Vec<usize>>,
    /// `keys[i]` — the Merkle cache key of binding `i`.
    pub keys: Vec<u64>,
    /// `wave_of[i]` — the wave binding `i` sits in.
    wave_of: Vec<usize>,
    /// The checker options and engine, absorbed: every key's
    /// configuration fingerprint continues from here with `#use`.
    config: Hasher64,
    /// The text's chunks, in order ([`analyze`]'s whole-program parse
    /// leaves this empty, so only [`analyze_cached`] analyses patch).
    chunks: Vec<Chunk>,
    /// Is the last chunk an unterminated trailer?
    trailer: bool,
    /// Chunks holding `#use prelude`.
    prelude_chunks: usize,
}

/// A database build failure: the program did not parse.
pub type AnalyzeError = ParseError;

/// Parse and analyse a program under the given configuration.
///
/// # Errors
///
/// A [`ParseError`] when the text is not a well-formed program.
pub fn analyze(src: &str, opts: &Options, engine: EngineSel) -> Result<Analysis, AnalyzeError> {
    let program = freezeml_core::parse_program(src)?;
    Ok(analyze_parsed(program, src, opts, engine))
}

// -------------------------------------------------- incremental front-end

/// A parsed declaration, shared between the parse cache and analyses.
#[derive(Debug)]
struct ParsedDecl {
    name: Symbol,
    name_str: &'static str,
    /// The probe term `let x (: A)? = M in ⌈x⌉`, which every check of
    /// the declaration borrows.
    probe: Term,
    /// Slice-relative declaration span (`let` through `;;` — a chunk may
    /// carry leading comments the declaration span excludes).
    decl_rel: Span,
    /// Slice-relative name span.
    name_rel: Span,
    /// Free term variables of the right-hand side.
    fv: Box<[Var]>,
    /// The hash of the declaration's source slice.
    content: u64,
}

impl ParsedDecl {
    /// A declaration whose source slice hashes to `content`, its free
    /// variables collected in `fv`, a reused buffer.
    fn new(d: Decl, content: u64, fv: &mut Vec<Var>) -> Arc<ParsedDecl> {
        d.term.free_vars_into(fv);
        Arc::new(ParsedDecl {
            name: d.name,
            name_str: d.name.as_str(),
            decl_rel: d.span,
            name_rel: d.name_span,
            fv: fv.as_slice().into(),
            content,
            probe: d.into_probe_term(),
        })
    }
}

/// What a chunk contributes to an analysis: does it hold
/// `#use prelude`, and its declaration, if any.
type ChunkParse = (bool, Option<Arc<ParsedDecl>>);

/// One declaration chunk, cached by the hash of its source slice.
struct CachedChunk {
    /// Where the exact slice sits in [`Frontend`]'s `slices` (collision
    /// guard for the 64-bit key).
    at: usize,
    len: usize,
    /// Does the chunk hold `#use prelude`?
    prelude: bool,
    /// The declaration, if the chunk holds one.
    decl: Option<Arc<ParsedDecl>>,
}

/// A [`Frontend`] keeps its token buffer for the next chunk only while
/// it holds at most this many tokens, so one huge chunk does not pin its
/// tokens' memory.
const TOKENS_KEPT: usize = 1 << 10;

/// Slices a [`Frontend`] caches before the next analysis that opens it
/// clears it.
const FRONTEND_CAP: usize = 8192;

/// A declaration-level parse cache: the expensive parts of analysing a
/// chunk — lexing, interning, term construction and free-variable
/// collection — are cached per declaration slice and shared by `Arc`. A
/// full analysis looks up every chunk here; an edit patched into an
/// analysis looks up only the chunks whose bytes changed, so a reverted
/// chunk is a hit. A miss lexes its slice into one reused token buffer
/// and parses the tokens with [`parse_chunk`].
#[derive(Default)]
pub struct Frontend {
    chunks: U64Map<CachedChunk>,
    /// The cached chunks' slices, end to end.
    slices: String,
    /// Buffers reused from one missed chunk to the next: its tokens
    /// (unless they were too many to keep, [`TOKENS_KEPT`]) and its free
    /// variables.
    toks: Vec<Token>,
    fv: Vec<Var>,
    /// Chunk lookups served from the cache (observability; plain
    /// fields — the whole `Frontend` already sits behind the hub's
    /// mutex).
    hits: u64,
    /// Chunk lookups that had to re-parse.
    misses: u64,
}

impl Frontend {
    /// Number of cached declaration chunks (observability).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk lookups served from the cache since process start.
    pub fn parse_hits(&self) -> u64 {
        self.hits
    }

    /// Chunk lookups that re-parsed their slice.
    pub fn parse_misses(&self) -> u64 {
        self.misses
    }

    /// The parse of `slice`, a chunk starting at byte `at` of its text:
    /// from the cache, else parsed and cached.
    fn look_up(&mut self, slice: &str, at: usize) -> Result<ChunkParse, ParseError> {
        let key = hash_str(slice);
        let cached = |c: &&CachedChunk| self.slices.get(c.at..c.at + c.len) == Some(slice);
        if let Some(c) = self.chunks.get(&key).filter(cached) {
            self.hits += 1;
            return Ok((c.prelude, c.decl.clone()));
        }
        self.misses += 1;
        let (prelude, decl) = lex_into(slice, &mut self.toks)
            .map_err(ParseError::from)
            .and_then(|()| parse_chunk(&self.toks, slice.len()))
            .map_err(|e| ParseError {
                msg: e.msg,
                pos: e.pos + at,
            })?;
        let decl = decl.map(|d| {
            // The content hash covers exactly the declaration (`let`
            // through `;;`), NOT the whole chunk, which may carry leading
            // comments: a comment-only edit re-parses the chunk but must
            // not invalidate the binding's scheme. Mostly the chunk is
            // just the declaration, and its key is the hash.
            let Span { start, end } = d.span;
            let content = if (start, end) == (0, slice.len()) {
                key
            } else {
                hash_str(&slice[start..end])
            };
            ParsedDecl::new(d, content, &mut self.fv)
        });
        if self.toks.capacity() > TOKENS_KEPT {
            self.toks = Vec::new();
        }
        let chunk = CachedChunk {
            at: self.slices.len(),
            len: slice.len(),
            prelude,
            decl,
        };
        self.slices.push_str(slice);
        let out = (chunk.prelude, chunk.decl.clone());
        self.chunks.insert(key, chunk);
        Ok(out)
    }
}

/// Write the checker options into a fingerprint: the value restriction,
/// then the instantiation strategy as 0/1. The Merkle keys and the
/// snapshot epoch both mix these words in this order, so changing it
/// orphans every persisted snapshot.
pub(crate) fn write_options(h: &mut Hasher64, opts: &Options) {
    h.write_u64(u64::from(opts.value_restriction));
    h.write_u64(match opts.instantiation {
        InstantiationStrategy::Variable => 0,
        InstantiationStrategy::Eliminator => 1,
    });
}

/// A whole-document key: text plus the same configuration fingerprint
/// the Merkle keys mix in. No server path calls it: it is kept, with
/// [`doc_verify`], only for `perfbench/src/traced.rs`, until ROADMAP
/// item 6's benchmark change.
pub fn doc_key(src: &str, opts: &Options, engine: EngineSel) -> u64 {
    let mut h = Hasher64::new();
    write_options(&mut h, opts);
    h.write_u64(engine.tag());
    h.write_str(src);
    h.finish()
}

/// A second whole-document digest, seeded apart from [`doc_key`]'s, so
/// that a false match of both needs a simultaneous 128-bit collision.
/// Kept, like [`doc_key`], only for `perfbench/src/traced.rs`.
pub fn doc_verify(src: &str) -> u64 {
    let mut h = Hasher64::new();
    h.write_u64(0xD0C5_ECC0_5A17_ED00);
    h.write_str(src);
    h.finish()
}

/// `start..end` of `src` with its leading lexer whitespace skipped (so
/// a reindented but otherwise untouched declaration still hits the
/// cache). Only the lexer's: `str::trim_start` would also eat Unicode
/// whitespace (NBSP, U+2028, …) that the lexer *rejects*, silently
/// accepting programs the plain front-end errors on.
fn trimmed(src: &str, start: usize, end: usize) -> (usize, usize) {
    let blank = src.as_bytes()[start..end]
        .iter()
        .take_while(|&&b| is_space(b))
        .count();
    (start + blank, end)
}

/// The length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    // Whole blocks first: slice equality is a `memcmp`.
    while i + 64 <= n && a[i..i + 64] == b[i..i + 64] {
        i += 64;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// The length of the longest common suffix of `a` and `b`.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut i = 0;
    while i + 64 <= n && a[n - i - 64..n - i] == b[n - i - 64..n - i] {
        i += 64;
    }
    while i < n && a[n - i - 1] == b[n - i - 1] {
        i += 1;
    }
    i
}

/// The chunks an edit touched: the old chunks `k0..k1` give way to the
/// new text's `spans` (leading whitespace trimmed).
struct Window {
    k0: usize,
    k1: usize,
    spans: Vec<(usize, usize)>,
    /// Does the window run to the text's end, ending in a trailer?
    trailer: bool,
}

/// What [`Analysis::patch`] changed: which bindings were re-keyed, and
/// where every other binding sat before.
#[derive(Debug)]
pub(crate) struct Patch {
    /// `rekeyed[i]`: binding `i` was re-parsed, re-resolved, or sits
    /// downstream of one, so its Merkle key was recomputed.
    rekeyed: Vec<bool>,
    /// Bindings before `at` kept their index; binding `i ≥ at` was
    /// binding `i - at + old_at`.
    at: usize,
    old_at: usize,
}

impl Patch {
    /// Was binding `i` re-keyed? The re-keyed set is closed under
    /// dependents.
    pub(crate) fn rekeyed(&self, i: usize) -> bool {
        self.rekeyed[i]
    }

    /// Does every binding have the index it had before the patch? Then
    /// the patch replaced as many declarations as it removed.
    pub(crate) fn keeps_indices(&self) -> bool {
        self.at == self.old_at
    }

    /// The index binding `i` had before the patch, unless it was
    /// re-keyed.
    pub(crate) fn origin(&self, i: usize) -> Option<usize> {
        if self.rekeyed[i] {
            None
        } else if i < self.at {
            Some(i)
        } else {
            Some(i - self.at + self.old_at)
        }
    }
}

/// Like [`analyze`], but chunk by chunk through a declaration-level parse
/// cache: only chunks whose source slice is not in `fe` are parsed.
///
/// # Errors
///
/// A [`ParseError`], the first failing chunk's (positions are absolute
/// into `src`). [`analyze`] lexes the whole text first, so where a later
/// chunk does not lex it reports that instead.
pub fn analyze_cached(
    fe: &mut Frontend,
    src: &str,
    opts: &Options,
    engine: EngineSel,
) -> Result<Analysis, AnalyzeError> {
    analyze_cached_traced(fe, src, opts, engine, &Tracer::off(), TraceCtx::default())
}

/// [`analyze_cached`] with trace context: the chunk-parsing loop and the
/// dependency-graph construction each get a span (`parse`, `dep-graph`)
/// on the given tracer, and chunk-cache hits/misses are counted on the
/// frontend. It is `Analysis::patch` from the empty document.
pub fn analyze_cached_traced(
    fe: &mut Frontend,
    src: &str,
    opts: &Options,
    engine: EngineSel,
    tracer: &Tracer,
    ctx: TraceCtx,
) -> Result<Analysis, AnalyzeError> {
    let mut a = Analysis::empty(opts, engine);
    a.patch("", src, || &mut *fe, tracer, ctx)?;
    Ok(a)
}

/// Analyse an already-parsed program (spans must index into `src`).
pub fn analyze_parsed(program: Program, src: &str, opts: &Options, engine: EngineSel) -> Analysis {
    let mut a = Analysis::empty(opts, engine);
    a.prelude_chunks = usize::from(program.uses_prelude());
    let mut fv = Vec::new();
    a.decls = program
        .decls
        .into_iter()
        .map(|d| {
            let content = hash_str(src.get(d.span.start..d.span.end).unwrap_or_default());
            DeclInfo::new(ParsedDecl::new(d, content, &mut fv), 0)
        })
        .collect();
    let n = a.decls.len();
    a.deps.splice(0, 0, n);
    a.keys = vec![0; n];
    a.wave_of = vec![0; n];
    a.relink(0, n, &FxHashSet::default(), vec![true; n], true);
    a
}

/// The marker a dependency on a replaced declaration carries until it
/// is re-resolved.
const GONE: usize = usize::MAX;

/// Every binding's dependencies in one index pool: binding `i`'s are
/// `pool[ranges[i].0..ranges[i].1]`. A list that a patch re-resolves is
/// rewritten in place when it does not grow, else appended; the pool is
/// compacted once its dead entries outnumber its live ones.
#[derive(Clone, Debug, Default)]
struct Deps {
    pool: Vec<usize>,
    ranges: Vec<(usize, usize)>,
    /// Pool entries no range covers.
    dead: usize,
}

impl Deps {
    fn get(&self, i: usize) -> &[usize] {
        let (s, e) = self.ranges[i];
        &self.pool[s..e]
    }

    /// Make binding `i`'s dependencies `ds`.
    fn set(&mut self, i: usize, ds: &[usize]) {
        let (s, e) = self.ranges[i];
        if ds.len() <= e - s {
            self.pool[s..s + ds.len()].copy_from_slice(ds);
            self.ranges[i] = (s, s + ds.len());
            self.dead += e - s - ds.len();
        } else {
            self.dead += e - s;
            let at = self.pool.len();
            self.pool.extend_from_slice(ds);
            self.ranges[i] = (at, self.pool.len());
        }
    }

    /// Replace bindings `d0..d1` by `m` bindings without dependencies.
    fn splice(&mut self, d0: usize, d1: usize, m: usize) {
        let gone: usize = self.ranges[d0..d1].iter().map(|&(s, e)| e - s).sum();
        self.dead += gone;
        self.ranges.splice(d0..d1, std::iter::repeat_n((0, 0), m));
    }

    /// Map every dependency of bindings `i..` through `f`.
    fn renumber_from(&mut self, i: usize, f: impl Fn(usize) -> usize) {
        for &(s, e) in &self.ranges[i..] {
            for t in &mut self.pool[s..e] {
                *t = f(*t);
            }
        }
    }

    fn compact(&mut self) {
        if self.dead * 2 <= self.pool.len() {
            return;
        }
        let mut pool = Vec::with_capacity(self.pool.len() - self.dead);
        for r in &mut self.ranges {
            let at = pool.len();
            pool.extend_from_slice(&self.pool[r.0..r.1]);
            *r = (at, pool.len());
        }
        debug_assert_eq!(pool.len(), self.pool.len() - self.dead, "dead entries");
        self.pool = pool;
        self.dead = 0;
    }
}

impl Analysis {
    /// The analysis of the empty document under a configuration.
    pub(crate) fn empty(opts: &Options, engine: EngineSel) -> Analysis {
        let mut config = Hasher64::new();
        write_options(&mut config, opts);
        config.write_u64(engine.tag());
        Analysis {
            uses_prelude: false,
            decls: Vec::new(),
            deps: Deps::default(),
            waves: Vec::new(),
            keys: Vec::new(),
            wave_of: Vec::new(),
            config,
            chunks: Vec::new(),
            trailer: false,
            prelude_chunks: 0,
        }
    }

    /// Bring this analysis of `old` up to `new`, touching only what the
    /// edit touched:
    ///
    /// 1. a common byte prefix and suffix bound the edit; old chunks
    ///    wholly in the prefix are kept, and the rest are re-chunked from
    ///    the start of the first one the edit reaches, until a new chunk
    ///    ends where an old one does, past the edit;
    /// 2. when the window holds as many chunks as before, each new chunk
    ///    byte-identical to the old chunk at its position is kept (moved);
    ///    every other chunk is looked up in the parse cache, which
    ///    `frontend` opens, once, only if one is needed;
    /// 3. chunks past the window keep their declarations, shifted;
    /// 4. the re-parsed declarations are resolved, the names declared or
    ///    removed in the window are re-resolved wherever a later
    ///    declaration uses them, and the keys and waves of what that
    ///    changed, and of everything downstream, are recomputed.
    ///
    /// The result equals a full analysis of `new`. On a parse error the
    /// analysis is left as it was, and the error is the one a full
    /// analysis reports: the first failing chunk's, since every chunk
    /// outside the window parsed before.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] (positions are absolute into `new`).
    pub(crate) fn patch<G: DerefMut<Target = Frontend>>(
        &mut self,
        old: &str,
        new: &str,
        frontend: impl FnOnce() -> G,
        tracer: &Tracer,
        ctx: TraceCtx,
    ) -> Result<Patch, ParseError> {
        let parse_span = tracer.span("parse", ctx);
        let win = self.window(old, new);
        // `None` keeps the old chunk at the same window position.
        let mut parsed: Vec<Option<ChunkParse>> = vec![None; win.spans.len()];
        let same = win.spans.len() == win.k1 - win.k0;
        let stale: Vec<usize> = (0..win.spans.len())
            .filter(|&j| {
                let (s, e) = win.spans[j];
                let c = self.chunks.get(win.k0 + j);
                !(same && c.is_some_and(|c| old.get(c.start..c.end) == new.get(s..e)))
            })
            .collect();
        if !stale.is_empty() {
            let mut fe = frontend();
            if fe.chunks.len() > FRONTEND_CAP {
                // A crude cap; the scheme cache is what matters.
                fe.chunks.clear();
                fe.slices.clear();
            }
            fe.chunks.reserve(stale.len());
            for &j in &stale {
                let (s, e) = win.spans[j];
                parsed[j] = Some(fe.look_up(&new[s..e], s)?);
            }
        }
        drop(parse_span);
        let _dep_span = tracer.span("dep-graph", ctx);
        Ok(self.splice(win, parsed, new.len().wrapping_sub(old.len())))
    }

    /// Step 1 of [`Analysis::patch`]: the chunks an edit from `old` to
    /// `new` touched.
    fn window(&self, old: &str, new: &str) -> Window {
        let (ob, nb) = (old.as_bytes(), new.as_bytes());
        let p = common_prefix(ob, nb);
        let tail = nb.len() - common_suffix(&ob[p..], &nb[p..]);
        let delta = nb.len().wrapping_sub(ob.len());
        let last = self.chunks.len();
        // Chunks ending inside the prefix are unchanged: the scan decides
        // on a `;;` from its two bytes and the state before them. An
        // unterminated trailer ends at the text's end, so an append
        // reaches it.
        let mut k0 = self.chunks.partition_point(|c| c.end <= p);
        if self.trailer && k0 == last && last > 0 {
            k0 -= 1;
        }
        // Re-chunk from where chunk k0 begins: just past a `;;`, outside
        // any comment, in both texts.
        let mut start = if k0 == 0 { 0 } else { self.chunks[k0 - 1].end };
        let mut spans = Vec::new();
        let (mut k, mut k1) = (k0, None);
        while k1.is_none() {
            let Some(end) = terminator_end(new, start) else {
                break;
            };
            spans.push(trimmed(new, start, end));
            start = end;
            // Resynchronise: past the edit, a chunk that ends where an
            // old chunk ends is followed by the same text, which
            // therefore chunks as before. A new `--` can swallow old
            // `;;`s, so this may be several old chunks on.
            if end >= tail {
                let e = end.wrapping_sub(delta);
                while k < last && self.chunks[k].end < e {
                    k += 1;
                }
                if k < last && self.chunks[k].end == e {
                    k1 = Some(k + 1);
                }
            }
        }
        // A non-blank rest after the last `;;` is a chunk of its own: the
        // per-chunk parse reports it (pragmas only, or a parse error).
        let trailer = k1.is_none() && !nb[start..].iter().all(|&b| is_space(b));
        if trailer {
            spans.push(trimmed(new, start, nb.len()));
        }
        Window {
            k0,
            k1: k1.unwrap_or(last),
            spans,
            trailer,
        }
    }

    /// Steps 3 and 4 of [`Analysis::patch`]: put the window's chunks in
    /// place, move everything after it by `delta` bytes, and relink.
    fn splice(&mut self, win: Window, parsed: Vec<Option<ChunkParse>>, delta: usize) -> Patch {
        let Window {
            k0,
            k1,
            spans,
            trailer,
        } = win;
        let n_old = self.decls.len();
        let d0 = self.chunks.get(k0).map_or(n_old, |c| c.first_decl);
        let d1 = self.chunks.get(k1).map_or(n_old, |c| c.first_decl);
        if k1 == self.chunks.len() {
            self.trailer = trailer;
        }
        // Names declared or removed in the window: a later declaration
        // that uses one must be re-resolved (so none are needed when no
        // declaration follows the window).
        let mut moved = FxHashSet::default();
        let in_place = spans.len() == k1 - k0
            && parsed
                .iter()
                .zip(&self.chunks[k0..k1])
                .all(|(p, c)| p.as_ref().is_none_or(|(_, d)| d.is_some() == c.decl));
        let (m, k_after, rekeyed) = if in_place {
            // As many chunks and declarations as before: overwrite.
            let mut rekeyed = vec![false; n_old];
            for ((&(s, e), p), c) in spans.iter().zip(parsed).zip(&mut self.chunks[k0..k1]) {
                match p {
                    None if c.decl => self.decls[c.first_decl].shift(s.wrapping_sub(c.start)),
                    None => {}
                    Some((prelude, decl)) => {
                        self.prelude_chunks =
                            self.prelude_chunks + usize::from(prelude) - usize::from(c.prelude);
                        c.prelude = prelude;
                        if let Some(decl) = decl {
                            let i = c.first_decl;
                            let (was, is) = (self.decls[i].name_sym(), decl.name);
                            if was != is {
                                moved.extend([was, is]);
                            }
                            self.decls[i] = DeclInfo::new(decl, s);
                            rekeyed[i] = true;
                        }
                    }
                }
                (c.start, c.end) = (s, e);
            }
            (d1 - d0, k1, rekeyed)
        } else {
            // Replace the window's chunks and declarations wholesale.
            let mut chunks = Vec::with_capacity(spans.len());
            let mut decls = Vec::with_capacity(spans.len());
            for (j, (&(s, e), p)) in spans.iter().zip(parsed).enumerate() {
                let (prelude, decl) = match p {
                    None => {
                        let c = self.chunks[k0 + j];
                        let decl = c.decl.then(|| {
                            let mut d = self.decls[c.first_decl].clone();
                            d.shift(s.wrapping_sub(c.start));
                            d
                        });
                        (c.prelude, decl)
                    }
                    Some((prelude, decl)) => (prelude, decl.map(|d| DeclInfo::new(d, s))),
                };
                chunks.push(Chunk {
                    start: s,
                    end: e,
                    first_decl: d0 + decls.len(),
                    decl: decl.is_some(),
                    prelude,
                });
                decls.extend(decl);
            }
            let m = decls.len();
            if d1 < n_old {
                moved.extend(
                    self.decls[d0..d1]
                        .iter()
                        .chain(&decls)
                        .map(DeclInfo::name_sym),
                );
            }
            self.prelude_chunks = self.prelude_chunks + chunks.iter().filter(|c| c.prelude).count()
                - self.chunks[k0..k1].iter().filter(|c| c.prelude).count();
            let k_after = k0 + chunks.len();
            self.deps.splice(d0, d1, m);
            if self.chunks.is_empty() {
                // The empty document (a full analysis): nothing to keep.
                self.chunks = chunks;
                self.decls = decls;
                self.keys = vec![0; m];
                self.wave_of = vec![0; m];
            } else {
                self.chunks.splice(k0..k1, chunks);
                self.decls.splice(d0..d1, decls);
                self.keys.splice(d0..d1, std::iter::repeat_n(0, m));
                self.wave_of.splice(d0..d1, std::iter::repeat_n(0, m));
            }
            // Later declarations move by `m - (d1 - d0)` places. Their
            // dependencies on the replaced ones are marked and
            // re-resolved: those names are all in `moved`.
            let by = m.wrapping_sub(d1 - d0);
            for c in &mut self.chunks[k_after..] {
                c.first_decl = c.first_decl.wrapping_add(by);
            }
            self.deps.renumber_from(d0 + m, |t| {
                if t >= d1 {
                    t.wrapping_add(by)
                } else if t >= d0 {
                    GONE
                } else {
                    t
                }
            });
            let mut rekeyed = vec![false; self.decls.len()];
            rekeyed[d0..d0 + m].fill(true);
            (m, k_after, rekeyed)
        };
        if delta != 0 {
            for c in &mut self.chunks[k_after..] {
                c.start = c.start.wrapping_add(delta);
                c.end = c.end.wrapping_add(delta);
            }
            for d in &mut self.decls[d0 + m..] {
                d.shift(delta);
            }
        }
        Patch {
            rekeyed: self.relink(d0, m, &moved, rekeyed, !in_place),
            at: d0 + m,
            old_at: d1,
        }
    }

    /// Resolve the declarations marked in `rekeyed` (all within
    /// `d0..d0 + m`), re-resolve the names in `moved` wherever a later
    /// declaration uses them, then recompute the wave and key of every
    /// declaration whose dependencies changed and of everything
    /// downstream of one — all of them if `#use prelude` came or went.
    /// `regroup` rebuilds the waves even if no declaration changed wave
    /// (declarations moved places). Returns the re-keyed set.
    fn relink(
        &mut self,
        d0: usize,
        m: usize,
        moved: &FxHashSet<Symbol>,
        mut rekeyed: Vec<bool>,
        mut regroup: bool,
    ) -> Vec<bool> {
        let n = self.decls.len();
        let was_prelude = self.uses_prelude;
        self.uses_prelude = self.prelude_chunks > 0;
        let flipped = self.uses_prelude != was_prelude;

        // Name resolution follows ML shadowing: a free variable resolves
        // to the latest earlier declaration of its name, which `latest`
        // tracks in one forward pass. A pass from the first declaration (a
        // full analysis) tracks every name; otherwise only the names to
        // resolve (the re-parsed declarations' free variables and the
        // moved names) are tracked, starting from the declarations before
        // `d0`.
        let end = if moved.is_empty() { d0 + m } else { n };
        let every = d0 == 0;
        let mut latest: FxHashMap<Symbol, usize> = FxHashMap::default();
        if every {
            latest.reserve(end);
        } else {
            for i in (d0..d0 + m).filter(|&i| rekeyed[i]) {
                let names = self.decls[i].free_vars().iter().filter_map(Var::symbol);
                latest.extend(names.map(|x| (x, GONE)));
            }
            latest.extend(moved.iter().map(|&x| (x, GONE)));
            if !latest.is_empty() {
                for (j, d) in self.decls[..d0].iter().enumerate() {
                    if let Some(l) = latest.get_mut(&d.name_sym()) {
                        *l = j;
                    }
                }
            }
        }
        let resolve = |latest: &FxHashMap<Symbol, usize>, v: &Var| {
            v.symbol()
                .and_then(|x| latest.get(&x).copied())
                .filter(|&j| j != GONE)
        };
        let is_moved = |v: &Var| v.symbol().is_some_and(|x| moved.contains(&x));
        // One buffer for every re-resolved binding's dependencies.
        let mut ds: Vec<usize> = Vec::new();
        for (i, rekey) in rekeyed.iter_mut().enumerate().take(end).skip(d0) {
            // The free variables are read only when needed: they sit
            // behind the parse cache's `Arc`.
            let fv = || self.decls[i].free_vars();
            if *rekey {
                ds.clear();
                ds.extend(fv().iter().filter_map(|v| resolve(&latest, v)));
                ds.sort_unstable();
                ds.dedup();
                self.deps.set(i, &ds);
            } else if !moved.is_empty() && fv().iter().any(is_moved) {
                ds.clear();
                ds.extend(
                    self.deps
                        .get(i)
                        .iter()
                        .copied()
                        .filter(|&t| t != GONE && !moved.contains(&self.decls[t].name_sym()))
                        .chain(
                            fv().iter()
                                .filter(|v| is_moved(v))
                                .filter_map(|v| resolve(&latest, v)),
                        ),
                );
                ds.sort_unstable();
                ds.dedup();
                if ds != self.deps.get(i) {
                    self.deps.set(i, &ds);
                    *rekey = true;
                }
            }
            debug_assert!(!self.deps.get(i).contains(&GONE), "binding {i} re-resolved");
            let name = self.decls[i].name_sym();
            if every {
                latest.insert(name, i);
            } else if let Some(l) = latest.get_mut(&name) {
                *l = i;
            }
        }

        // Configuration fingerprint, mixed into every key: the same
        // binding under a different mode, engine, or prelude is a
        // different cache entry.
        let mut cfg = self.config;
        cfg.write_u64(u64::from(self.uses_prelude));
        let cfg = cfg.finish();
        // Dependencies point backwards, so one forward pass sees every
        // dependency's final wave and key before its dependents.
        for i in if flipped { 0 } else { d0 }..n {
            let deps = self.deps.get(i);
            if !(flipped || rekeyed[i] || deps.iter().any(|&d| rekeyed[d])) {
                continue;
            }
            rekeyed[i] = true;
            let w = deps.iter().map(|&d| self.wave_of[d] + 1).max().unwrap_or(0);
            regroup |= w != self.wave_of[i];
            self.wave_of[i] = w;
            let mut h = Hasher64::new();
            h.write_u64(cfg);
            h.write_u64(self.decls[i].content);
            for &d in deps {
                h.write_u64(self.keys[d]);
            }
            self.keys[i] = h.finish();
        }
        if regroup {
            // In index order every wave is reached after the one before
            // it, so pushing keeps each ascending.
            self.waves.iter_mut().for_each(Vec::clear);
            for (i, &w) in self.wave_of.iter().enumerate() {
                if w == self.waves.len() {
                    self.waves.push(Vec::new());
                }
                self.waves[w].push(i);
            }
            while self.waves.last().is_some_and(Vec::is_empty) {
                self.waves.pop();
            }
        }
        self.deps.compact();
        rekeyed
    }

    /// The indices of the declarations binding `i` depends on, ascending.
    pub fn deps(&self, i: usize) -> &[usize] {
        self.deps.get(i)
    }

    /// The transitive dependents of binding `i` (excluding `i` itself) —
    /// exactly the set an edit to `i` invalidates beyond `i`.
    pub fn dependents(&self, i: usize) -> Vec<usize> {
        let n = self.decls.len();
        let mut hit = vec![false; n];
        hit[i] = true;
        // deps point backwards, so one forward pass closes the set.
        for j in i + 1..n {
            if self.deps.get(j).iter().any(|&d| hit[d]) {
                hit[j] = true;
            }
        }
        (i + 1..n).filter(|&j| hit[j]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::GenProgram;

    fn std_analysis(src: &str) -> Analysis {
        analyze(src, &Options::default(), EngineSel::Uf).unwrap()
    }

    /// Every binding's dependency list.
    fn all_deps(a: &Analysis) -> Vec<Vec<usize>> {
        (0..a.decls.len()).map(|i| a.deps(i).to_vec()).collect()
    }

    const DIAMOND: &str = "#use prelude\n\
        let base = 1;;\n\
        let l = plus base 1;;\n\
        let r = plus base 2;;\n\
        let top = plus l r;;\n";

    #[test]
    fn diamond_waves_expose_parallelism() {
        let a = std_analysis(DIAMOND);
        assert_eq!(a.waves.len(), 3);
        assert_eq!(a.waves[1].len(), 2, "l and r are independent");
        assert_eq!(a.dependents(0), vec![1, 2, 3]);
        assert_eq!(a.dependents(1), vec![3]);
        assert_eq!(a.dependents(3), Vec::<usize>::new());
    }

    #[test]
    fn a_chain_gives_one_wave_per_binding() {
        let a = std_analysis("let a = 1;;\nlet b = a;;\nlet c = b;;\n");
        assert_eq!(a.waves, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn independent_bindings_share_wave_zero() {
        let a = std_analysis("let a = 1;;\nlet b = 2;;\nlet c = 3;;\n");
        assert_eq!(a.waves, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn names_resolve_only_to_earlier_declarations() {
        // Mutual and self references cannot form a cycle: `g` in `f`
        // and `h` in `h` are not yet declared, so they are free (an
        // unbound-variable error at check time), not dependencies.
        let a = std_analysis(
            "let f = fun x -> g x;;\n\
             let g = fun y -> f y;;\n\
             let h = fun z -> h z;;\n",
        );
        assert_eq!(all_deps(&a), [vec![], vec![0], vec![]]);
        assert_eq!(a.waves, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn a_deep_chain_levels_one_wave_per_binding() {
        let n = 20_000;
        let mut src = String::from("let x0 = 1;;\n");
        for i in 1..n {
            src.push_str(&format!("let x{i} = x{};;\n", i - 1));
        }
        let a = std_analysis(&src);
        assert_eq!(a.waves.len(), n);
        assert!(a.waves.iter().enumerate().all(|(w, m)| m == &[w]));
        assert_eq!(a.dependents(0).len(), n - 1);
    }

    /// Wave sizes of generated programs (the second is the benchmark's
    /// 2000-binding document), pinned because every report's `waves`
    /// count and the order of trace spans follow from the schedule.
    #[test]
    fn generated_programs_keep_their_wave_sizes() {
        for (n, seed, sizes) in [
            (480, 7, &[144, 88, 85, 65, 49, 24, 15, 8, 2][..]),
            (
                2000,
                0,
                &[574, 349, 321, 228, 160, 106, 91, 68, 33, 28, 24, 8, 6, 4],
            ),
        ] {
            let a = std_analysis(&GenProgram::generate(n, seed).text());
            let got: Vec<usize> = a.waves.iter().map(Vec::len).collect();
            assert_eq!(got, sizes, "gen {n} {seed}");
            // Each binding sits in exactly one wave, one past the latest
            // wave among its dependencies (0 without any), and indices
            // ascend within a wave.
            let mut wave_of = vec![None; a.decls.len()];
            for (w, members) in a.waves.iter().enumerate() {
                assert!(members.windows(2).all(|p| p[0] < p[1]), "wave {w}");
                for &i in members {
                    assert_eq!(wave_of[i].replace(w), None, "binding {i} twice");
                }
            }
            for (i, w) in wave_of.iter().enumerate() {
                let w = w.unwrap_or_else(|| panic!("binding {i} in no wave"));
                let want = a
                    .deps(i)
                    .iter()
                    .map(|&d| wave_of[d].unwrap() + 1)
                    .max()
                    .unwrap_or(0);
                assert_eq!(w, want, "gen {n} {seed}: binding {i}");
            }
        }
    }

    /// Snapshot files carry the epoch and the Merkle keys; these values
    /// were written by earlier builds, so changing how the options are
    /// fingerprinted would orphan every existing snapshot. The epochs
    /// also mix in the snapshot format version, so they move (and only
    /// they) when it is bumped. No snapshot holds a document key any
    /// more; its pin keeps `doc_key` unchanged for perfbench.
    #[test]
    fn fingerprints_match_existing_snapshots() {
        let src = "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n";
        let (std, pure) = (Options::default(), Options::pure_freezeml());
        assert_eq!(crate::persist::epoch(&std), 0x7f70_a4d1_4019_35a7);
        assert_eq!(crate::persist::epoch(&pure), 0x14db_3505_b74f_aa99);
        assert_eq!(doc_key(src, &std, EngineSel::Uf), 0x4086_7fdb_91fa_5920);
        assert_eq!(
            std_analysis(src).keys,
            [0x069f_af02_e83f_4e50, 0xee16_9369_2b02_292c]
        );
        assert_eq!(
            analyze(src, &pure, EngineSel::Both).unwrap().keys,
            [0x7990_23f7_17b6_cab2, 0xe4fc_0917_8fd2_3537]
        );
    }

    #[test]
    fn editing_a_binding_changes_its_key_and_its_dependents() {
        let a = std_analysis(DIAMOND);
        let b = std_analysis(&DIAMOND.replace("let l = plus base 1;;", "let l = plus base 7;;"));
        assert_ne!(a.keys[1], b.keys[1], "edited binding");
        assert_ne!(a.keys[3], b.keys[3], "transitive dependent");
        assert_eq!(a.keys[0], b.keys[0], "untouched dependency");
        assert_eq!(a.keys[2], b.keys[2], "untouched sibling");
    }

    #[test]
    fn inserting_an_unrelated_binding_preserves_keys() {
        let b = std_analysis(&DIAMOND.replace(
            "let top = plus l r;;",
            "let noise = 9;;\nlet top = plus l r;;",
        ));
        let a = std_analysis(DIAMOND);
        for (name, i_a) in [("base", 0), ("l", 1), ("r", 2)] {
            assert_eq!(a.decls[i_a].name(), name);
            assert_eq!(a.keys[i_a], b.keys[i_a], "{name} key stable");
        }
        // `top` moved but its slice and dep keys are unchanged.
        assert_eq!(a.keys[3], b.keys[4]);
    }

    #[test]
    fn shadowing_redirects_keys() {
        let a = std_analysis("let x = 1;;\nlet y = x;;\n");
        let b = std_analysis("let x = 1;;\nlet x = true;;\nlet y = x;;\n");
        // y's slice is identical but now resolves to the shadowing x.
        assert_ne!(a.keys[1], b.keys[2]);
    }

    #[test]
    fn comment_edits_do_not_invalidate_schemes() {
        let mut fe = Frontend::default();
        let opts = Options::default();
        let with_note = "-- note\nlet x = 1;;\nlet y = x;;\n";
        let a = analyze_cached(&mut fe, with_note, &opts, EngineSel::Uf).unwrap();
        let b = analyze_cached(
            &mut fe,
            "-- a completely different note\nlet x = 1;;\nlet y = x;;\n",
            &opts,
            EngineSel::Uf,
        )
        .unwrap();
        assert_eq!(a.keys, b.keys, "comment-only edits keep every key");
        // …and the cached and plain analyses produce compatible keys.
        let c = analyze(with_note, &opts, EngineSel::Uf).unwrap();
        assert_eq!(a.keys, c.keys);
        // A comment *inside* the declaration is part of its content.
        let d = analyze_cached(
            &mut fe,
            "-- note\nlet x = 1 -- inline\n;;\nlet y = x;;\n",
            &opts,
            EngineSel::Uf,
        )
        .unwrap();
        assert_ne!(a.keys[0], d.keys[0]);
    }

    #[test]
    fn configuration_is_part_of_the_key() {
        let a = std_analysis("let x = 1;;");
        let b = analyze("let x = 1;;", &Options::default(), EngineSel::Core).unwrap();
        let c = analyze("let x = 1;;", &Options::pure_freezeml(), EngineSel::Uf).unwrap();
        assert_ne!(a.keys[0], b.keys[0]);
        assert_ne!(a.keys[0], c.keys[0]);
    }

    #[test]
    fn engine_sel_from_env_default_is_both() {
        assert_eq!(EngineSel::default(), EngineSel::Both);
    }

    /// The cached front-end must agree with the plain one: same
    /// parse verdict, and on success the same declarations, spans,
    /// pragmas, and Merkle keys.
    fn assert_cached_matches_plain(src: &str) {
        let opts = Options::default();
        let mut fe = Frontend::default();
        let cached = analyze_cached(&mut fe, src, &opts, EngineSel::Uf);
        let plain = analyze(src, &opts, EngineSel::Uf);
        match (&cached, &plain) {
            (Ok(c), Ok(p)) => {
                assert_eq!(
                    c.decls.iter().map(DeclInfo::name).collect::<Vec<_>>(),
                    p.decls.iter().map(DeclInfo::name).collect::<Vec<_>>(),
                    "decl names diverge on {src:?}"
                );
                assert_eq!(
                    c.decls.iter().map(|d| d.span).collect::<Vec<_>>(),
                    p.decls.iter().map(|d| d.span).collect::<Vec<_>>(),
                    "decl spans diverge on {src:?}"
                );
                assert_eq!(c.keys, p.keys, "cache keys diverge on {src:?}");
                assert_eq!(c.uses_prelude, p.uses_prelude, "{src:?}");
            }
            (Err(_), Err(_)) => {}
            (c, p) => panic!(
                "front-ends disagree on {src:?}: cached {:?}, plain {:?}",
                c.as_ref().map(|_| "ok").map_err(|e| e.to_string()),
                p.as_ref().map(|_| "ok").map_err(|e| e.to_string())
            ),
        }
        // A second cached pass (every chunk warm) must be identical too.
        let warm = analyze_cached(&mut fe, src, &opts, EngineSel::Uf);
        match (&cached, &warm) {
            (Ok(a), Ok(b)) => assert_eq!(a.keys, b.keys, "warm pass diverges on {src:?}"),
            (Err(a), Err(b)) => assert_eq!(a, b, "warm pass diverges on {src:?}"),
            _ => panic!("warm pass flipped the verdict on {src:?}"),
        }
    }

    #[test]
    fn chunker_honours_semis_inside_comments() {
        for src in [
            // `;;` inside a line comment is text, not a terminator.
            "let x = 1 -- not yet ;;\n;;\nlet y = x;;\n",
            // …including a comment that itself contains `--` again
            // ("nested" comments collapse to one line comment).
            "let x = 1 -- outer -- inner ;; still text\n;;\nlet y = x;;\n",
            // A comment-only line with `;;` between declarations.
            "let x = 1;;\n-- interlude ;; here\nlet y = x;;\n",
            // A `;;` inside a comment after a real `;;` on one line.
            "let x = 1;; -- tail ;; comment\nlet y = x;;\n",
        ] {
            assert_cached_matches_plain(src);
            let a = std_analysis(src);
            assert_eq!(a.decls.len(), 2, "{src:?}");
            assert_eq!(a.decls[0].name(), "x");
            assert_eq!(a.decls[1].name(), "y");
        }
        // Comment at the very start, its `;;` inert.
        let src = "-- leading ;;\nlet x = 1;;\n";
        assert_cached_matches_plain(src);
        let a = std_analysis(src);
        assert_eq!(a.decls.len(), 1);
        assert_eq!(a.decls[0].name(), "x");
    }

    #[test]
    fn chunker_handles_eof_without_trailing_newline() {
        // Well-formed program, no trailing newline after the final `;;`.
        assert_cached_matches_plain("let x = 1;;\nlet y = x;;");
        // Comment (containing `;;`) runs to EOF without a newline.
        assert_cached_matches_plain("let x = 1;; -- trailing ;; to eof");
        // A comment alone, unterminated.
        assert_cached_matches_plain("-- only a comment ;;");
        // Declaration missing its `;;` at EOF: both front-ends must
        // report the parse error at the same position.
        let opts = Options::default();
        let mut fe = Frontend::default();
        let src = "let x = 1;;\nlet y = x";
        let cached = analyze_cached(&mut fe, src, &opts, EngineSel::Uf).unwrap_err();
        let plain = analyze(src, &opts, EngineSel::Uf).unwrap_err();
        assert_eq!(cached.pos, plain.pos, "error positions diverge");
        assert_eq!(cached.pos, src.len());
        // A declaration whose `;;` sits inside a comment is unterminated.
        assert_cached_matches_plain("let x = 1 -- ;;");
        // A stray `;;` after the last declaration.
        assert_cached_matches_plain("let x = 1;;;;");
    }

    #[test]
    fn chunker_trims_only_lexer_whitespace() {
        // NBSP is *not* surface whitespace: the lexer rejects it, and the
        // chunker must not silently trim it into acceptance.
        for src in [
            "let x = 1;;\u{a0}let y = 2;;",
            "let x = 1;;\u{a0}",
            "\u{2028}let x = 1;;",
        ] {
            assert_cached_matches_plain(src);
            assert!(
                analyze(src, &Options::default(), EngineSel::Uf).is_err(),
                "{src:?} should be a lex error"
            );
        }
        // Ordinary reindentation still hits the cache.
        let opts = Options::default();
        let mut fe = Frontend::default();
        let a = analyze_cached(&mut fe, "let x = 1;;\nlet y = x;;", &opts, EngineSel::Uf).unwrap();
        let b = analyze_cached(
            &mut fe,
            "let x = 1;;\n\t  let y = x;;",
            &opts,
            EngineSel::Uf,
        )
        .unwrap();
        assert_eq!(a.keys, b.keys, "reindentation keeps keys");
    }

    #[test]
    fn identical_chunks_share_one_cache_entry() {
        // ML shadowing: the same slice twice must produce two DeclInfos
        // (distinct spans) off one cached parse, with distinct keys
        // (the second resolves its deps differently — here, none — but
        // shadowing still orders them).
        let opts = Options::default();
        let mut fe = Frontend::default();
        let src = "let x = 1;;\nlet x = 1;;\nlet y = x;;\n";
        let a = analyze_cached(&mut fe, src, &opts, EngineSel::Uf).unwrap();
        assert_eq!(a.decls.len(), 3);
        assert_ne!(a.decls[0].span, a.decls[1].span, "spans are per-chunk");
        assert_eq!(a.deps(2), [1], "y resolves to the shadowing x");
        assert_cached_matches_plain(src);
    }

    // ------------------------------------------------ patch ≡ full analysis

    /// The structure a patched analysis must share with a full one.
    fn assert_same_analysis(got: &Analysis, want: &Analysis, ctx: &str) {
        let names = |a: &Analysis| a.decls.iter().map(DeclInfo::name).collect::<Vec<_>>();
        let spans = |a: &Analysis| {
            a.decls
                .iter()
                .map(|d| (d.span, d.name_span))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(got), names(want), "names: {ctx}");
        assert_eq!(spans(got), spans(want), "spans: {ctx}");
        assert_eq!(all_deps(got), all_deps(want), "deps: {ctx}");
        assert_eq!(got.waves, want.waves, "waves: {ctx}");
        assert_eq!(got.keys, want.keys, "keys: {ctx}");
        assert_eq!(got.uses_prelude, want.uses_prelude, "#use: {ctx}");
    }

    /// SplitMix64, for deterministic edit scripts.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }

        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len())]
        }
    }

    const NAMES: &[&str] = &["a", "b", "c", "f", "g", "x", "y", "zz"];

    fn body(rng: &mut Rng) -> String {
        let n = NAMES[rng.below(NAMES.len())];
        match rng.below(8) {
            0 => format!("{}", rng.below(1000)),
            1 => format!("plus {n} {}", rng.below(10)),
            2 => format!("single {n}"),
            3 => format!("fun x -> {n} x"),
            4 => "$(fun x -> x)".to_string(),
            5 => format!("poly ~{n}"),
            6 => format!("pair {n} {}", NAMES[rng.below(NAMES.len())]),
            _ => format!("head (single {n})"),
        }
    }

    fn decl(rng: &mut Rng) -> String {
        format!("let {} = {};;", NAMES[rng.below(NAMES.len())], body(rng))
    }

    /// One random edit of a document held as lines; returns its kind.
    fn edit(rng: &mut Rng, lines: &mut Vec<String>, tail_newline: &mut bool) -> &'static str {
        let n = lines.len();
        let i = rng.below(n + 1).min(n.saturating_sub(1));
        match rng.below(16) {
            // A body edit: the right-hand side after the first ` = `.
            0..=2 if n > 0 => match lines[i].split_once(" = ") {
                Some((head, _)) if lines[i].ends_with(";;") => {
                    lines[i] = format!("{head} = {};;", body(rng));
                    "body"
                }
                _ => "noop",
            },
            3 => {
                lines.insert(rng.below(n + 1), decl(rng));
                "insert"
            }
            4 if n > 0 => {
                lines.remove(i);
                "delete"
            }
            // Rename a binder: every `let NAME ` on the line.
            5 if n > 0 => {
                let to = rng.pick(NAMES);
                lines[i] = lines[i].replacen(
                    &format!("let {} ", rng.pick(NAMES)),
                    &format!("let {to} "),
                    1,
                );
                "rename"
            }
            6 if n > 1 => {
                let j = rng.below(n - 1);
                lines.swap(j, j + 1);
                "reorder"
            }
            7 => {
                let note = ["-- note", "-- a ;; in a comment", "-- let q = 1;;", "--"];
                lines.insert(rng.below(n + 1), rng.pick(&note).to_string());
                "comment"
            }
            8 if n > 0 => {
                let pad = rng.pick(&["  ", "\t", "\n", " \r\n "]);
                lines[i] = format!("{pad}{}", lines[i]);
                "reindent"
            }
            // A `--` somewhere in a line, swallowing what follows on it —
            // `;;` included.
            9 if n > 0 => {
                let line = &lines[i];
                let at = (0..=line.len())
                    .filter(|&k| line.is_char_boundary(k))
                    .nth(rng.below(line.len() + 1))
                    .unwrap_or(line.len());
                lines[i] = format!("{}-- {}", &line[..at], &line[at..]);
                "swallow"
            }
            // Two declarations on one line.
            10 if n > 1 => {
                let next = lines.remove(i + 1 - usize::from(i + 1 == n));
                let j = i.min(lines.len() - 1);
                lines[j] = format!("{} {next}", lines[j]);
                "join"
            }
            11 => {
                match lines.iter().position(|l| l.trim() == "#use prelude") {
                    Some(j) => {
                        lines.remove(j);
                    }
                    None => lines.insert(rng.below(n + 1), "#use prelude".to_string()),
                }
                "prelude"
            }
            // The final chunk without `;;`: a trailing comment or pragma,
            // or a declaration cut short.
            12 => {
                match rng.below(3) {
                    0 => lines.push("-- trailing ;;".to_string()),
                    1 => lines.push("#use prelude".to_string()),
                    _ => match lines.last_mut() {
                        Some(l) if l.ends_with(";;") => l.truncate(l.len() - 2),
                        _ => lines.push("let cut = 1".to_string()),
                    },
                }
                *tail_newline = rng.below(2) == 0;
                "trailer"
            }
            // Garbage: a parse or lex error somewhere.
            13 => {
                let bad = [
                    "let = 1;;",
                    "let x = ;;",
                    ";;",
                    "let y = 1 let",
                    "let é = 1;;",
                    "let x = (1;;",
                ];
                lines.insert(rng.below(n + 1), rng.pick(&bad).to_string());
                "garbage"
            }
            // Text appended to the last line: it may extend a trailer.
            14 if n > 0 => {
                let more = rng.pick(&[" more", " x", ";;", " -- z ;;", " 1;;", " let q = 2;;"]);
                lines[n - 1].push_str(more);
                *tail_newline = rng.below(3) == 0;
                "append"
            }
            _ => {
                lines.insert(rng.below(n + 1), decl(rng));
                "insert"
            }
        }
    }

    fn render(lines: &[String], tail_newline: bool) -> String {
        let mut s = lines.join("\n");
        if tail_newline {
            s.push('\n');
        }
        s
    }

    /// Patch from the last good analysis to `new`, as the service does,
    /// and hold the result to a full analysis of `new`: the same
    /// structure when it parses, else the same error as the full path
    /// and the analysis left as it was.
    fn step(a: &mut Analysis, good: &mut String, fe: &mut Frontend, new: &str, ctx: &str) {
        let opts = Options::default();
        let patched = a.patch(good, new, || &mut *fe, &Tracer::off(), TraceCtx::default());
        match (patched, analyze(new, &opts, EngineSel::Uf)) {
            (Ok(_), Ok(want)) => {
                assert_same_analysis(a, &want, ctx);
                *good = new.to_string();
            }
            (Err(got), Err(_)) => {
                let want = analyze_cached(&mut Frontend::default(), new, &opts, EngineSel::Uf)
                    .expect_err("the chunked front-end rejects it too");
                assert_eq!(got, want, "error: {ctx}");
                let kept = analyze(good, &opts, EngineSel::Uf).expect("the last good text");
                assert_same_analysis(a, &kept, &format!("{ctx} (after the error)"));
            }
            (got, want) => panic!(
                "{ctx}: patched {:?}, full {:?}",
                got.map(|_| "ok").map_err(|e| e.to_string()),
                want.map(|_| "ok").map_err(|e| e.to_string())
            ),
        }
    }

    #[test]
    fn a_patched_analysis_equals_a_full_one_across_edit_scripts() {
        let scripts: usize = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(160);
        let mut kinds = std::collections::BTreeMap::new();
        for script in 0..scripts as u64 {
            let mut rng = Rng(0xED17_5C21_0000 + script);
            // Half the scripts start from a generated program, half from
            // a handful of random declarations.
            let mut lines: Vec<String> = if script % 2 == 0 {
                GenProgram::generate(12 + rng.below(40), script)
                    .text()
                    .lines()
                    .map(str::to_string)
                    .collect()
            } else {
                let mut l = vec!["#use prelude".to_string()];
                l.extend((0..rng.below(12)).map(|_| decl(&mut rng)));
                l
            };
            let mut tail_newline = true;
            let mut fe = Frontend::default();
            let mut good = render(&lines, tail_newline);
            let mut a = analyze_cached(&mut fe, &good, &Options::default(), EngineSel::Uf)
                .expect("scripts start from a program");
            for n in 0..30 {
                let before = lines.clone();
                let kind = edit(&mut rng, &mut lines, &mut tail_newline);
                *kinds.entry(kind).or_insert(0) += 1;
                let new = render(&lines, tail_newline);
                step(
                    &mut a,
                    &mut good,
                    &mut fe,
                    &new,
                    &format!("script {script} step {n} ({kind}): {new:?}"),
                );
                // Undo a change that broke the text half the time, so a
                // parse error is followed by its fix.
                if new != good && rng.below(2) == 0 {
                    lines = before;
                    let fixed = render(&lines, tail_newline);
                    step(
                        &mut a,
                        &mut good,
                        &mut fe,
                        &fixed,
                        &format!("script {script} step {n} (fix): {fixed:?}"),
                    );
                }
            }
        }
        for kind in [
            "body", "insert", "delete", "rename", "reorder", "comment", "reindent", "swallow",
            "join", "prelude", "trailer", "garbage", "append",
        ] {
            assert!(
                kinds.get(kind).copied().unwrap_or(0) > 0,
                "no `{kind}` edit ran"
            );
        }
    }

    #[test]
    fn patches_resynchronise_after_a_comment_swallows_semis() {
        let opts = Options::default();
        let old = "#use prelude\nlet a = 1;; let y = a;;\nlet b = plus a 2;;\nlet c = b;;\n";
        for new in [
            // The second declaration on the line is commented out, its
            // `;;` with it: the next chunk absorbs the comment.
            "#use prelude\nlet a = 1;; -- let y = a;;\nlet b = plus a 2;;\nlet c = b;;\n",
            // A comment swallows a `;;`, and a later `;;` ends the
            // declaration instead.
            "#use prelude\nlet a = 1;; let y = a -- ;;\n;;\nlet b = plus a 2;;\nlet c = b;;\n",
            // …or never does: a parse error.
            "#use prelude\nlet a = 1 -- ;; let y = a;;\nlet b = plus a 2;;\nlet c = b;;\n",
        ] {
            let mut fe = Frontend::default();
            let mut a = analyze_cached(&mut fe, old, &opts, EngineSel::Uf).unwrap();
            let mut good = old.to_string();
            step(&mut a, &mut good, &mut fe, new, new);
        }
    }

    // ------------------------------------------------ error precedence

    /// The error a chunk-by-chunk front end owes a text: split it at every
    /// `;;` outside a `--` comment (by a byte loop of its own), parse each
    /// chunk as a whole program, and keep the first failure, at its
    /// absolute position.
    fn first_chunk_error(src: &str) -> Option<(String, usize)> {
        let b = src.as_bytes();
        let mut ends = Vec::new();
        let mut i = 0;
        while i < b.len() {
            if b[i..].starts_with(b"--") {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            } else if b[i..].starts_with(b";;") {
                i += 2;
                ends.push(i);
            } else {
                i += 1;
            }
        }
        ends.push(b.len());
        let mut start = 0;
        for end in ends {
            if let Err(e) = freezeml_core::parse_program(&src[start..end]) {
                return Some((e.msg, start + e.pos));
            }
            start = end;
        }
        None
    }

    #[test]
    fn the_first_failing_chunk_reports_its_error() {
        // A lex error in a later chunk does not outrank a parse error in
        // an earlier one, as it does when the whole text is lexed first.
        let src = "let a = ;;\nlet b = é;;";
        let want = first_chunk_error(src).map(|(_, pos)| pos);
        assert_eq!(want, Some(8));
        let cold = analyze_cached(
            &mut Frontend::default(),
            src,
            &Options::default(),
            EngineSel::Uf,
        );
        assert_eq!(cold.unwrap_err().pos, 8);
        assert_eq!(
            analyze(src, &Options::default(), EngineSel::Uf)
                .unwrap_err()
                .pos,
            19
        );
    }

    /// Single-byte mutations of generated programs and of the Figure 1
    /// corpus: a cold chunked analysis and a patch from the unmutated
    /// text both answer the first failing chunk's error, message and
    /// position, or no error when every chunk parses.
    #[test]
    fn mutants_report_the_first_failing_chunks_error() {
        let opts = Options::default();
        let mut bases: Vec<String> = [(40, 1), (25, 9)]
            .iter()
            .map(|&(n, seed)| GenProgram::generate(n, seed).text())
            .collect();
        let mut figure1 = String::from("#use prelude\n-- Figure 1 ;; as one program\n");
        for (i, e) in freezeml_corpus::EXAMPLES.iter().enumerate() {
            figure1.push_str(&format!("let fig{i} = {};;\n", e.src));
        }
        bases.push(figure1);
        let mut rng = Rng(0xE770_0000);
        let (mut mutants, mut failing) = (0, 0);
        for base in &bases {
            let mut fe = Frontend::default();
            let a = analyze_cached(&mut fe, base, &opts, EngineSel::Uf).expect("bases parse");
            for _ in 0..150 {
                let mut at = rng.below(base.len() + 1);
                while !base.is_char_boundary(at) {
                    at -= 1;
                }
                let mutant = match rng.below(7) {
                    0 => {
                        let width = base[at..].chars().next().map_or(0, char::len_utf8);
                        format!("{}{}", &base[..at], &base[at + width..])
                    }
                    k => {
                        let byte = [";", "-", "(", "#", "é", "\n"][k - 1];
                        format!("{}{byte}{}", &base[..at], &base[at..])
                    }
                };
                let want = first_chunk_error(&mutant);
                let cold = analyze_cached(&mut Frontend::default(), &mutant, &opts, EngineSel::Uf);
                assert_eq!(
                    cold.err().map(|e| (e.msg, e.pos)),
                    want,
                    "cold analysis of {mutant:?}"
                );
                let mut patched = a.clone();
                let patch = patched.patch(
                    base,
                    &mutant,
                    || &mut fe,
                    &Tracer::off(),
                    TraceCtx::default(),
                );
                assert_eq!(
                    patch.err().map(|e| (e.msg, e.pos)),
                    want,
                    "patch to {mutant:?}"
                );
                mutants += 1;
                failing += usize::from(want.is_some());
            }
        }
        assert!(
            failing * 3 > mutants && failing < mutants,
            "{failing} of {mutants} mutants fail to parse"
        );
    }

    #[test]
    fn a_body_edit_looks_up_only_its_chunk() {
        let opts = Options::default();
        let g = GenProgram::generate(200, 0);
        let mut fe = Frontend::default();
        let old = g.text();
        let mut a = analyze_cached(&mut fe, &old, &opts, EngineSel::Uf).unwrap();
        let lookups = |fe: &Frontend| fe.parse_hits() + fe.parse_misses();
        let before = lookups(&fe);
        let new = g.edited_text(150, 7);
        let patch = a
            .patch(&old, &new, || &mut fe, &Tracer::off(), TraceCtx::default())
            .unwrap();
        assert_eq!(lookups(&fe) - before, 1, "one changed chunk, one lookup");
        assert_same_analysis(&a, &analyze(&new, &opts, EngineSel::Uf).unwrap(), "b150");
        // The edited binding and its dependents are re-keyed; everything
        // else keeps its place.
        let mut cone = a.dependents(150);
        cone.push(150);
        for i in 0..a.decls.len() {
            assert_eq!(patch.rekeyed(i), cone.contains(&i), "binding {i}");
            assert_eq!(patch.origin(i), (!cone.contains(&i)).then_some(i));
        }
    }
}
