//! The program database: bindings keyed by content hash, a resolved
//! dependency graph levelled into topological waves, and Merkle-style
//! cache keys that make invalidation exact.
//!
//! ## Invalidation model
//!
//! Every declaration gets a **content hash** — the FNV-1a hash of its
//! source slice (`let` through `;;`). Its **cache key** combines that
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

use crate::hash::{hash_str, Hasher64, U64Map};
use crate::sync::Arc;
use freezeml_core::{
    Decl, InstantiationStrategy, Options, ParseError, Program, Span, Symbol, Term, Type, Var,
};
use freezeml_obs::{TraceCtx, Tracer};
use fxhash::FxHashMap;

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
/// handle on the parsed chunk (term, annotation, free variables). The
/// handle is an [`std::sync::Arc`] into the front-end's parse cache, so
/// re-analysing a document after an edit clones no terms for the
/// untouched declarations.
#[derive(Clone, Debug)]
pub struct DeclInfo {
    /// The whole declaration, `let` through `;;` (absolute).
    pub span: Span,
    /// The bound name (absolute).
    pub name_span: Span,
    chunk: Arc<ParsedDecl>,
}

impl DeclInfo {
    /// The bound name.
    pub fn name(&self) -> &'static str {
        self.chunk.name.as_str()
    }

    /// The bound name as an interned symbol.
    pub fn name_sym(&self) -> Symbol {
        self.chunk.name
    }

    /// The annotation, if any.
    pub fn ann(&self) -> Option<&Type> {
        self.chunk.ann.as_ref()
    }

    /// The free term variables of the right-hand side.
    pub fn free_vars(&self) -> &[Var] {
        &self.chunk.fv
    }

    /// The probe term whose type is the declaration's scheme —
    /// `let x (: A)? = M in ⌈x⌉` (see [`freezeml_core::Decl::probe_term`]).
    pub fn probe_term(&self) -> Term {
        let x = Var::from_symbol(self.chunk.name);
        match &self.chunk.ann {
            None => Term::Let(
                x,
                Box::new(self.chunk.term.clone()),
                Box::new(Term::FrozenVar(x)),
            ),
            Some(ann) => Term::LetAnn(
                x,
                ann.clone(),
                Box::new(self.chunk.term.clone()),
                Box::new(Term::FrozenVar(x)),
            ),
        }
    }
}

/// A parsed program analysed for checking: resolved dependencies,
/// topological waves, and cache keys.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The source text the program was parsed from (spans index into it).
    pub src: String,
    /// Does the program request the Figure 2 prelude (`#use prelude`)?
    pub uses_prelude: bool,
    /// The declarations, in order.
    pub decls: Vec<DeclInfo>,
    /// `deps[i]` — indices of the declarations binding `i` depends on.
    pub deps: Vec<Vec<usize>>,
    /// Binding indices grouped into topological waves, ascending within
    /// each wave: every dependency of a binding in wave `k` lies in a
    /// wave `< k`, so the bindings of one wave are independent.
    pub waves: Vec<Vec<usize>>,
    /// `keys[i]` — the Merkle cache key of binding `i`.
    pub keys: Vec<u64>,
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
    ann: Option<Type>,
    term: Term,
    /// Slice-relative declaration span (`let` through `;;` — a chunk may
    /// carry leading comments the declaration span excludes).
    decl_rel: Span,
    /// Slice-relative name span.
    name_rel: Span,
    /// Free term variables of the right-hand side.
    fv: Vec<Var>,
}

impl ParsedDecl {
    fn from_decl(d: Decl) -> (Arc<ParsedDecl>, Span) {
        let fv = d.term.free_vars();
        let span = d.span;
        (
            Arc::new(ParsedDecl {
                name: d.name,
                ann: d.ann,
                term: d.term,
                decl_rel: d.span,
                name_rel: d.name_span,
                fv,
            }),
            span,
        )
    }
}

/// One declaration chunk, cached by the hash of its source slice.
#[derive(Clone)]
struct CachedChunk {
    /// The exact slice (collision guard for the 64-bit key).
    slice: String,
    /// Pragmas in the chunk, with slice-relative spans.
    pragmas: Vec<(String, String, Span)>,
    /// The declaration, if the chunk holds one.
    decl: Option<Arc<ParsedDecl>>,
}

/// Slices a [`Frontend`] caches before the next analysis clears it.
const FRONTEND_CAP: usize = 8192;

/// A declaration-level parse cache: the expensive parts of analysing a
/// document — term construction and free-variable collection — are
/// cached per declaration slice and shared by `Arc`, so an edit
/// re-parses only the touched declaration(s) and clones no terms for
/// the rest. This is what keeps a warm edit's fixed costs far below a
/// cold check's (see `EXPERIMENTS.md` for numbers).
#[derive(Default)]
pub struct Frontend {
    chunks: U64Map<CachedChunk>,
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

    /// The raw source slices of every cached chunk — what the
    /// persistence layer writes out. Slices, not parse trees: terms
    /// hold interned symbols that don't survive a process boundary, and
    /// re-parsing a chunk is cheap next to re-inferring it.
    pub(crate) fn export_slices(&self) -> Vec<String> {
        self.chunks.values().map(|c| c.slice.clone()).collect()
    }

    /// Re-parse and cache one persisted slice (load path). Returns
    /// whether the slice was accepted — a slice that no longer parses
    /// (e.g. persisted by a different version) is simply skipped.
    pub(crate) fn absorb_slice(&mut self, slice: &str) -> bool {
        if self.chunks.len() > FRONTEND_CAP {
            return false;
        }
        let key = hash_str(slice);
        if matches!(self.chunks.get(&key), Some(c) if c.slice == slice) {
            return true;
        }
        let Ok(parsed) = freezeml_core::parse_program(slice) else {
            return false;
        };
        if parsed.decls.len() > 1 {
            return false; // cached chunks hold at most one declaration
        }
        self.chunks.insert(
            key,
            CachedChunk {
                slice: slice.to_string(),
                pragmas: parsed.pragmas,
                decl: parsed
                    .decls
                    .into_iter()
                    .next()
                    .map(|d| ParsedDecl::from_decl(d).0),
            },
        );
        true
    }
}

/// Write the checker options into a fingerprint: the value restriction,
/// then the instantiation strategy as 0/1. The document key, the Merkle
/// keys and the snapshot epoch all mix these words in this order, so
/// changing it orphans every persisted snapshot.
pub(crate) fn write_options(h: &mut Hasher64, opts: &Options) {
    h.write_u64(u64::from(opts.value_restriction));
    h.write_u64(match opts.instantiation {
        InstantiationStrategy::Variable => 0,
        InstantiationStrategy::Eliminator => 1,
    });
}

/// The whole-document cache key: text plus the same configuration
/// fingerprint the Merkle keys mix in. Two sessions with different
/// options or engines can share one hub without serving each other's
/// reports.
pub fn doc_key(src: &str, opts: &Options, engine: EngineSel) -> u64 {
    let mut h = Hasher64::new();
    write_options(&mut h, opts);
    h.write_u64(engine.tag());
    h.write_str(src);
    h.finish()
}

/// An independent check digest for the whole-document cache. The
/// content hash mixes adjacent words only lightly before the final
/// avalanche, so two *structurally similar* documents (same length,
/// differing in a couple of nearby words — exactly what an edit stream
/// produces) can collide at realistic document counts. A doc-cache hit
/// therefore verifies this second digest too — seeded differently, so
/// the state-dependent collision condition of one hash is uncorrelated
/// with the other's — making a false hit require a simultaneous
/// 128-bit collision.
pub fn doc_verify(src: &str) -> u64 {
    let mut h = Hasher64::new();
    h.write_u64(0xD0C5_ECC0_5A17_ED00);
    h.write_str(src);
    h.finish()
}

/// Split source text into declaration chunks: each chunk ends at a `;;`
/// (comments are honoured — a `;;` after `--` on a line is text). The
/// scan is exact for the surface language because `;;` cannot occur
/// inside a term or type, and a final chunk without `;;` is returned
/// too (it must be pragmas-only or a parse error, which the per-chunk
/// parse reports at the right offset).
fn chunk_spans(src: &str) -> Vec<(usize, usize)> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b';' if bytes.get(i + 1) == Some(&b';') => {
                out.push((start, i + 2));
                i += 2;
                start = i;
            }
            _ => i += 1,
        }
    }
    // Trim leading whitespace off every chunk (so a reindented but
    // otherwise untouched declaration still hits the cache) and keep a
    // non-empty trailer. Only the lexer's whitespace (space, tab, CR,
    // LF) is trimmed: `str::trim_start` would also eat Unicode
    // whitespace (NBSP, U+2028, …) that the lexer *rejects*, silently
    // accepting programs the plain front-end errors on.
    const LEXER_WS: [char; 4] = [' ', '\t', '\n', '\r'];
    let mut trimmed: Vec<(usize, usize)> = Vec::with_capacity(out.len() + 1);
    let shift = |s: usize, e: usize| -> (usize, usize) {
        let skipped = src[s..e].len() - src[s..e].trim_start_matches(LEXER_WS).len();
        (s + skipped, e)
    };
    for (s, e) in out {
        trimmed.push(shift(s, e));
    }
    if !src[start..].trim_matches(LEXER_WS).is_empty() {
        trimmed.push(shift(start, src.len()));
    }
    trimmed
}

/// Like [`analyze`], but with a declaration-level parse cache: only
/// chunks whose source slice changed since the last call are re-parsed.
///
/// # Errors
///
/// A [`ParseError`] (positions are absolute into `src`).
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
/// frontend.
pub fn analyze_cached_traced(
    fe: &mut Frontend,
    src: &str,
    opts: &Options,
    engine: EngineSel,
    tracer: &Tracer,
    ctx: TraceCtx,
) -> Result<Analysis, AnalyzeError> {
    if fe.chunks.len() > FRONTEND_CAP {
        fe.chunks.clear(); // crude cap; the scheme cache is what matters
    }
    let mut pragmas = Vec::new();
    let mut decls = Vec::new();
    let mut content = Vec::new();
    let parse_span = tracer.span("parse", ctx);
    for (start, end) in chunk_spans(src) {
        let slice = &src[start..end];
        let key = hash_str(slice);
        let hit = matches!(fe.chunks.get(&key), Some(c) if c.slice == slice);
        if hit {
            fe.hits += 1;
        } else {
            fe.misses += 1;
            let parsed = freezeml_core::parse_program(slice).map_err(|e| ParseError {
                msg: e.msg,
                pos: e.pos + start,
            })?;
            debug_assert!(parsed.decls.len() <= 1, "one `;;` per chunk");
            let chunk = CachedChunk {
                slice: slice.to_string(),
                pragmas: parsed.pragmas,
                decl: parsed
                    .decls
                    .into_iter()
                    .next()
                    .map(|d| ParsedDecl::from_decl(d).0),
            };
            fe.chunks.insert(key, chunk);
        }
        // lint: allow(unwrap) — entry inserted two lines above under the same lock
        let chunk = fe.chunks.get(&key).expect("present or just inserted");
        for (name, arg, span) in &chunk.pragmas {
            pragmas.push((
                name.clone(),
                arg.clone(),
                Span {
                    start: span.start + start,
                    end: span.end + start,
                },
            ));
        }
        if let Some(parsed) = &chunk.decl {
            let (decl_rel, name_rel) = (parsed.decl_rel, parsed.name_rel);
            let span = Span {
                start: decl_rel.start + start,
                end: decl_rel.end + start,
            };
            decls.push(DeclInfo {
                span,
                name_span: Span {
                    start: name_rel.start + start,
                    end: name_rel.end + start,
                },
                chunk: Arc::clone(parsed),
            });
            // The Merkle content hash covers exactly the declaration
            // (`let` through `;;`) — NOT the whole chunk, which may carry
            // leading comments: a comment-only edit re-parses the chunk
            // but must not invalidate the binding's scheme. This also
            // keeps [`analyze`] and [`analyze_cached`] key-compatible.
            content.push(hash_str(src.get(span.start..span.end).unwrap_or_default()));
        }
    }
    drop(parse_span);
    let _dep_span = tracer.span("dep-graph", ctx);
    Ok(build_analysis(pragmas, decls, content, src, opts, engine))
}

/// Analyse an already-parsed program (spans must index into `src`).
pub fn analyze_parsed(program: Program, src: &str, opts: &Options, engine: EngineSel) -> Analysis {
    let pragmas = program.pragmas;
    let decls: Vec<DeclInfo> = program
        .decls
        .into_iter()
        .map(|d| {
            let name_span = d.name_span;
            let (chunk, span) = ParsedDecl::from_decl(d);
            DeclInfo {
                span,
                name_span,
                chunk,
            }
        })
        .collect();
    let content = decls
        .iter()
        .map(|d| hash_str(src.get(d.span.start..d.span.end).unwrap_or_default()))
        .collect();
    build_analysis(pragmas, decls, content, src, opts, engine)
}

fn build_analysis(
    pragmas: Vec<(String, String, Span)>,
    decls: Vec<DeclInfo>,
    content: Vec<u64>,
    src: &str,
    opts: &Options,
    engine: EngineSel,
) -> Analysis {
    let n = decls.len();
    let uses_prelude = pragmas
        .iter()
        .any(|(name, arg, _)| name == "use" && arg == "prelude");

    // Resolve each free variable to the latest earlier declaration of
    // that name (ML shadowing), via an incrementally maintained
    // name → latest-index map — O(total free variables), not O(n²).
    // Dependencies are earlier bindings, so their waves are already
    // known and pushing `i` keeps every wave ascending.
    let mut latest: FxHashMap<Symbol, usize> =
        FxHashMap::with_capacity_and_hasher(n, Default::default());
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut wave_of: Vec<usize> = Vec::with_capacity(n);
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for (i, d) in decls.iter().enumerate() {
        let mut ds: Vec<usize> = d
            .free_vars()
            .iter()
            .filter_map(|v| v.symbol().and_then(|name| latest.get(&name).copied()))
            .collect();
        ds.sort_unstable();
        ds.dedup();
        let w = ds.iter().map(|&j| wave_of[j] + 1).max().unwrap_or(0);
        if w == waves.len() {
            waves.push(Vec::new());
        }
        waves[w].push(i);
        wave_of.push(w);
        deps.push(ds);
        latest.insert(d.name_sym(), i);
    }

    // Configuration fingerprint, mixed into every key: the same binding
    // under a different mode, engine, or prelude is a different cache
    // entry.
    let mut cfg = Hasher64::new();
    write_options(&mut cfg, opts);
    cfg.write_u64(engine.tag());
    cfg.write_u64(u64::from(uses_prelude));
    let cfg = cfg.finish();

    // Keys in declaration order: dependencies point backwards, so each
    // key only needs earlier keys. The slice content enters through the
    // already-computed per-chunk content hash (one pass over the text,
    // not two).
    let mut keys = vec![0u64; n];
    for i in 0..n {
        let mut h = Hasher64::new();
        h.write_u64(cfg);
        h.write_u64(content[i]);
        for &dep in &deps[i] {
            h.write_u64(keys[dep]);
        }
        keys[i] = h.finish();
    }

    Analysis {
        src: src.to_string(),
        uses_prelude,
        decls,
        deps,
        waves,
        keys,
    }
}

impl Analysis {
    /// The transitive dependents of binding `i` (excluding `i` itself) —
    /// exactly the set an edit to `i` invalidates beyond `i`.
    pub fn dependents(&self, i: usize) -> Vec<usize> {
        let n = self.decls.len();
        let mut hit = vec![false; n];
        hit[i] = true;
        // deps point backwards, so one forward pass closes the set.
        for j in i + 1..n {
            if self.deps[j].iter().any(|&d| hit[d]) {
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
        assert_eq!(a.deps, vec![vec![], vec![0], vec![]]);
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
                let want = a.deps[i]
                    .iter()
                    .map(|&d| wave_of[d].unwrap() + 1)
                    .max()
                    .unwrap_or(0);
                assert_eq!(w, want, "gen {n} {seed}: binding {i}");
            }
        }
    }

    /// Snapshot files carry the epoch, document keys and Merkle keys;
    /// these values were written by earlier builds, so changing how the
    /// options are fingerprinted would orphan every existing snapshot.
    #[test]
    fn fingerprints_match_existing_snapshots() {
        let src = "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n";
        let (std, pure) = (Options::default(), Options::pure_freezeml());
        assert_eq!(crate::persist::epoch(&std), 0xa42b_45c9_c41c_5691);
        assert_eq!(crate::persist::epoch(&pure), 0x1d7a_9299_24db_1eb0);
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
        assert_eq!(a.deps[2], vec![1], "y resolves to the shadowing x");
        assert_cached_matches_plain(src);
    }
}
