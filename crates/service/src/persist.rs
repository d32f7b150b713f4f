//! Persistent warm starts: a crash-safe on-disk snapshot of the hub's
//! warm state, so a restarted `serve` or a repeated `freezeml check
//! --cache-dir DIR` begins at warm-edit speed instead of cold.
//!
//! ## What is persisted
//!
//! Two tables, both content-addressed (the in-memory keys already
//! fingerprint text, dependencies, and configuration — [`crate::db`]):
//!
//! 1. the **scheme DAG** — the α-canonical nodes reachable from every
//!    persisted verdict, flattened topologically
//!    ([`freezeml_engine::snapshot`]); SchemeIds are process-local, so
//!    loads remap them by structural re-interning;
//! 2. the **Merkle verdict cache** — cache key → outcome (+ root index
//!    and defaulted-variable count for typed outcomes).
//!
//! Principal types (paper Theorem 7) make each binding's scheme a
//! function of its text and its dependencies' schemes, so these two
//! are the whole warm state. Everything else is derived: a load renders
//! each restored scheme once from the DAG
//! ([`SchemeBank::pretty`](freezeml_engine::SchemeBank::pretty)) and
//! names its defaulted variables with
//! [`SchemeBank::defaulted_names`](freezeml_engine::SchemeBank::defaulted_names),
//! exactly as inference does. A document reopened after a restart is
//! parsed and analysed, and every binding of it is then a verdict-cache
//! hit: no inference runs.
//!
//! ## Format
//!
//! Hand-rolled, little-endian, length-prefixed (the same no-new-deps
//! discipline as the JSON protocol):
//!
//! ```text
//! "FZSC" | version u32 | epoch u64 | generation u64
//!        | payload_len u64 | checksum u64 | payload …
//! ```
//!
//! The **epoch** fingerprints format version, crate version, and
//! checker options; a mismatch means the bytes may be meaningless and
//! the load silently starts cold. The **checksum** (the content hash of
//! [`crate::hash`]) covers the payload, so truncation or bit rot is
//! detected before anything is applied — a snapshot decodes *fully*
//! into plain data first, and only a fully valid one touches the hub.
//! Invented (`%n`/`!n`) variables never travel: entries rooted in them
//! are skipped at save time and ill-scoped roots are refused by
//! [`freezeml_engine::bank::SchemeBank::absorb_snapshot`] at load time.
//!
//! ## Crash safety
//!
//! Writes go to a temp file in the same directory, `fsync`, then
//! atomically rename over `freezeml.cache` (and fsync the directory).
//! A crash at any point leaves either the old snapshot or the new one,
//! never a torn file. The header carries a **generation** counter; the
//! hub stamps every cache touch with its current generation
//! ([`crate::shared`]), saves sort entries newest-generation-first, and
//! when a snapshot would exceed `--max-cache-bytes` the oldest
//! (untouched-longest) entries are evicted from the file *and* the hub.

use crate::db::{self, Outcome};
use crate::fault;
use crate::hash::Hasher64;
use crate::shared::Shared;
use crate::sync::{Arc, PoisonError};
use freezeml_core::Options;
use freezeml_engine::{PortableCon, PortableNode, SchemeId};
use freezeml_obs::lockrank;
use freezeml_obs::{Record, TraceCtx, Val};
use std::io::{self, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Snapshot file magic.
const MAGIC: &[u8; 4] = b"FZSC";

/// Bumped on any incompatible layout change (also mixed into the
/// epoch). The header check refuses another version before the epoch
/// or the layout is read, under the `version` reason.
const FORMAT_VERSION: u32 = 3;

/// Header size in bytes: magic + version + epoch + generation +
/// payload_len + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8 + 8;

/// The snapshot file name within the cache directory.
pub const CACHE_FILE: &str = "freezeml.cache";

/// Where and how large. `Clone` so the CLI can hand one to a
/// checkpointer thread and keep another for the final save.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// The cache directory (created on first save).
    pub dir: PathBuf,
    /// Snapshot size cap; oldest-generation entries are evicted to fit.
    pub max_bytes: u64,
}

/// Default snapshot size cap (64 MiB).
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

impl PersistConfig {
    /// A config with the default 64 MiB cap.
    pub fn new(dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            dir: dir.into(),
            max_bytes: DEFAULT_MAX_BYTES,
        }
    }

    /// The snapshot file path.
    pub fn file(&self) -> PathBuf {
        self.dir.join(CACHE_FILE)
    }
}

/// The cache-key epoch: a fingerprint of everything that must match for
/// persisted bytes to be meaningful. Engine selection is deliberately
/// *not* in the epoch — it is in every cache key, so one snapshot file
/// serves mixed-engine sessions the same way one hub does.
pub fn epoch(opts: &Options) -> u64 {
    let mut h = Hasher64::new();
    h.write_u64(u64::from(FORMAT_VERSION));
    h.write_str(env!("CARGO_PKG_VERSION"));
    db::write_options(&mut h, opts);
    h.finish()
}

/// What a save wrote (observability; surfaced by `check --cache-dir`).
#[derive(Clone, Debug)]
pub struct SaveOutcome {
    /// Snapshot file size.
    pub bytes: u64,
    /// Verdict-cache entries written.
    pub entries: usize,
    /// Entries evicted (file + memory) to meet the size cap.
    pub evicted: u64,
    /// Entries skipped because their scheme reaches an invented
    /// variable (unportable, served in-process only).
    pub unportable: usize,
    /// The generation stamped into the header.
    pub generation: u64,
}

/// What a load found. Never an error: every failure mode is a cold
/// start, with `warning` saying why when the file existed but was
/// unusable.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// Did a snapshot apply?
    pub loaded: bool,
    /// Verdict-cache entries restored.
    pub entries: usize,
    /// Scheme nodes absorbed.
    pub nodes: usize,
    /// The generation the hub resumed at.
    pub generation: u64,
    /// Why the load fell back cold, when it did and a file was present.
    pub warning: Option<String>,
}

// ------------------------------------------------------------ encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, String>;

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecResult<u32> {
        // lint: allow(unwrap) — take(4) yields exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> DecResult<u64> {
        // lint: allow(unwrap) — take(8) yields exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> DecResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 string".to_string())
    }

    /// A section count, sanity-capped by the bytes actually present so
    /// corrupt counts can't drive huge allocations.
    fn count(&mut self, min_elem_bytes: usize) -> DecResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(format!("count {n} exceeds remaining bytes"));
        }
        Ok(n)
    }
}

// ------------------------------------------------- portable structures

/// An outcome as persisted: typed outcomes carry a root index into the
/// snapshot's node table and how many variables were defaulted (the
/// load renders the scheme and names the defaulted variables from the
/// restored DAG), everything else travels as strings.
#[derive(Clone, Debug)]
enum POutcome {
    Typed { root: u32, defaulted: u32 },
    Error { class: String, message: String },
    Blocked { on: String },
}

#[derive(Debug, Default)]
struct DecodedSnapshot {
    nodes: Vec<PortableNode>,
    /// `(cache key, generation, outcome)`.
    entries: Vec<(u64, u64, POutcome)>,
}

fn enc_node(e: &mut Enc, n: &PortableNode) {
    match n {
        PortableNode::Bound(k) => {
            e.u8(0);
            e.u32(*k);
        }
        PortableNode::Free(name) => {
            e.u8(1);
            e.str(name);
        }
        PortableNode::Con(c, children) => {
            e.u8(2);
            match c {
                PortableCon::Int => e.u8(0),
                PortableCon::Bool => e.u8(1),
                PortableCon::List => e.u8(2),
                PortableCon::Arrow => e.u8(3),
                PortableCon::Prod => e.u8(4),
                PortableCon::St => e.u8(5),
                PortableCon::Other { name, arity } => {
                    e.u8(6);
                    e.str(name);
                    e.u32(*arity);
                }
            }
            e.u32(children.len() as u32);
            for c in children {
                e.u32(*c);
            }
        }
        PortableNode::Forall { body, hint } => {
            e.u8(3);
            e.u32(*body);
            match hint {
                None => e.u8(0),
                Some(h) => {
                    e.u8(1);
                    e.str(h);
                }
            }
        }
    }
}

fn dec_node(d: &mut Dec) -> DecResult<PortableNode> {
    Ok(match d.u8()? {
        0 => PortableNode::Bound(d.u32()?),
        1 => PortableNode::Free(d.str()?),
        2 => {
            let con = match d.u8()? {
                0 => PortableCon::Int,
                1 => PortableCon::Bool,
                2 => PortableCon::List,
                3 => PortableCon::Arrow,
                4 => PortableCon::Prod,
                5 => PortableCon::St,
                6 => {
                    let name = d.str()?;
                    let arity = d.u32()?;
                    PortableCon::Other { name, arity }
                }
                t => return Err(format!("unknown constructor tag {t}")),
            };
            let n = d.count(4)?;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(d.u32()?);
            }
            PortableNode::Con(con, children)
        }
        3 => {
            let body = d.u32()?;
            let hint = match d.u8()? {
                0 => None,
                1 => Some(d.str()?),
                t => return Err(format!("unknown hint tag {t}")),
            };
            PortableNode::Forall { body, hint }
        }
        t => return Err(format!("unknown node tag {t}")),
    })
}

fn enc_outcome(e: &mut Enc, o: &POutcome) {
    match o {
        POutcome::Typed { root, defaulted } => {
            e.u8(0);
            e.u32(*root);
            e.u32(*defaulted);
        }
        POutcome::Error { class, message } => {
            e.u8(1);
            e.str(class);
            e.str(message);
        }
        POutcome::Blocked { on } => {
            e.u8(2);
            e.str(on);
        }
    }
}

fn dec_outcome(d: &mut Dec) -> DecResult<POutcome> {
    Ok(match d.u8()? {
        0 => POutcome::Typed {
            root: d.u32()?,
            defaulted: d.u32()?,
        },
        1 => POutcome::Error {
            class: d.str()?,
            message: d.str()?,
        },
        2 => POutcome::Blocked { on: d.str()? },
        t => return Err(format!("unknown outcome tag {t}")),
    })
}

fn encode_payload(s: &DecodedSnapshot) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(s.nodes.len() as u32);
    for n in &s.nodes {
        enc_node(&mut e, n);
    }
    e.u32(s.entries.len() as u32);
    for (key, gen, o) in &s.entries {
        e.u64(*key);
        e.u64(*gen);
        enc_outcome(&mut e, o);
    }
    e.buf
}

fn decode_payload(data: &[u8]) -> DecResult<DecodedSnapshot> {
    let mut d = Dec::new(data);
    let mut s = DecodedSnapshot::default();
    let n = d.count(1)?;
    for _ in 0..n {
        s.nodes.push(dec_node(&mut d)?);
    }
    let n = d.count(17)?;
    for _ in 0..n {
        let key = d.u64()?;
        let gen = d.u64()?;
        s.entries.push((key, gen, dec_outcome(&mut d)?));
    }
    if d.remaining() != 0 {
        return Err(format!("{} trailing bytes", d.remaining()));
    }
    Ok(s)
}

// ----------------------------------------------------------------- save

/// A cheap size estimate of one verdict-cache entry in the file.
fn est_bytes(o: &Outcome) -> u64 {
    17 + match o {
        // The file holds a typed outcome's DAG nodes, not its string,
        // but a load renders the string again. Charging three times its
        // length bounds what a load renders, so the size cap evicts a
        // verdict with a huge rendering instead of re-rendering it at
        // every start.
        Outcome::Typed { scheme, .. } => 48 + 3 * scheme.len() as u64,
        Outcome::Error { class, message } => 24 + (class.len() + message.len()) as u64,
        Outcome::Blocked { on } => 16 + on.len() as u64,
        Outcome::Disagreement { .. } => 0, // never persisted
    }
}

fn portable_outcome(o: &Outcome, idx_of: &dyn Fn(SchemeId) -> Option<u32>) -> Option<POutcome> {
    match o {
        Outcome::Typed { id, defaulted, .. } => idx_of(*id).map(|root| POutcome::Typed {
            root,
            defaulted: defaulted.len() as u32,
        }),
        Outcome::Error { class, message } => Some(POutcome::Error {
            class: class.clone(),
            message: message.clone(),
        }),
        Outcome::Blocked { on } => Some(POutcome::Blocked { on: on.clone() }),
        Outcome::Disagreement { .. } => None,
    }
}

/// Snapshot the hub to `cfg.dir`, evicting oldest-generation entries
/// (from the file and the hub) as needed to respect `cfg.max_bytes`,
/// then advance the hub generation.
///
/// # Errors
///
/// I/O failures creating or writing the cache directory. The previous
/// snapshot, if any, survives any failure.
pub fn save(shared: &Shared, epoch: u64, cfg: &PersistConfig) -> io::Result<SaveOutcome> {
    let t0 = Instant::now();
    let generation = shared.cache().generation();

    // Collect `(key, generation, outcome)` candidates, newest
    // generation first.
    let mut items = shared.cache().export();
    items.sort_by_key(|&(_, gen, _)| std::cmp::Reverse(gen));

    // Budget pre-pass on cheap size estimates.
    let budget = cfg.max_bytes.saturating_sub(HEADER_LEN as u64 + 64);
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    let mut used = 0u64;
    for it in items {
        let sz = est_bytes(&it.2);
        if used + sz <= budget {
            used += sz;
            kept.push(it);
        } else {
            dropped.push(it);
        }
    }

    // Failpoint: a snapshot that cannot even be encoded (`delay` models
    // a slow encode under memory pressure).
    if let Some(f) = fault::hit_counted("persist.encode", shared.metrics()) {
        if let Err(e) = f.io_effect() {
            shared.metrics().checkpoint_failures.inc();
            return Err(e);
        }
    }

    // Encode, shrinking the kept set if the real size still overflows
    // (node tables shared across entries make estimates optimistic).
    let mut unportable;
    let payload = loop {
        let (snapshot, skipped) = build_snapshot(shared, &kept);
        unportable = skipped;
        let payload = encode_payload(&snapshot);
        if payload.len() + HEADER_LEN <= cfg.max_bytes as usize || kept.is_empty() {
            break payload;
        }
        // Drop the oldest quarter (at least one) and retry.
        let cut = (kept.len() - kept.len() / 4).min(kept.len() - 1);
        dropped.extend(kept.drain(cut..));
    };

    let entries = kept.len();

    // Write: temp + fsync + atomic rename + directory fsync.
    std::fs::create_dir_all(&cfg.dir)?;
    let tmp = cfg
        .dir
        .join(format!(".{CACHE_FILE}.tmp.{}", std::process::id()));
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&epoch.to_le_bytes());
    header.extend_from_slice(&generation.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = Hasher64::new().write(&payload).finish();
    header.extend_from_slice(&checksum.to_le_bytes());
    let res = (|| -> io::Result<u64> {
        let mut f = std::fs::File::create(&tmp)?;
        if let Some(fp) = fault::hit_counted("persist.write", shared.metrics()) {
            fp.io_effect()?;
        }
        f.write_all(&header)?;
        f.write_all(&payload)?;
        f.sync_all()?;
        if let Some(fp) = fault::hit_counted("persist.rename", shared.metrics()) {
            fp.io_effect()?;
        }
        std::fs::rename(&tmp, cfg.file())?;
        if let Ok(d) = std::fs::File::open(&cfg.dir) {
            let _ = d.sync_all(); // best effort; not all platforms allow it
        }
        Ok((header.len() + payload.len()) as u64)
    })();
    let bytes = match res {
        Ok(b) => b,
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            shared.metrics().checkpoint_failures.inc();
            return Err(e);
        }
    };

    // The file is durable; now make memory agree with it — evicted
    // entries leave the hub too, and the generation advances so future
    // touches are distinguishable from everything this snapshot saw.
    let evicted = dropped.len() as u64;
    for &(key, _, _) in &dropped {
        shared.cache().remove(key);
    }
    shared.metrics().evictions.add(evicted);
    shared.cache().advance_generation();

    // Checkpoint-thread wiring: duration, bytes, and per-save evictions
    // land in the registry (and one `snapshot-save` span on the tracer)
    // whether the save came from the checkpointer, `finish`, or an
    // explicit `save_cache`.
    let m = shared.metrics();
    m.checkpoints.inc();
    m.checkpoint_bytes.add(bytes);
    m.checkpoint_duration.record(t0.elapsed());
    let extras = [("bytes", Val::U(bytes)), ("evicted", Val::U(evicted))];
    shared.tracer().emit(
        &Record::new("span", "snapshot-save")
            .dur(t0.elapsed())
            .extras(&extras),
    );

    Ok(SaveOutcome {
        bytes,
        entries,
        evicted,
        unportable,
        generation,
    })
}

/// Build the portable snapshot for the kept entries: export the scheme
/// DAG reachable from their typed outcomes and translate outcomes.
/// Returns the snapshot plus how many entries were skipped as
/// unportable.
fn build_snapshot(shared: &Shared, kept: &[(u64, u64, Outcome)]) -> (DecodedSnapshot, usize) {
    // Unique typed roots across everything kept.
    let mut roots: Vec<SchemeId> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (_, _, o) in kept {
        if let Outcome::Typed { id, .. } = o {
            if seen.insert(*id) {
                roots.push(*id);
            }
        }
    }

    let (nodes, idxs) = shared.bank().export_snapshot(&roots);
    let idx_by_id: std::collections::HashMap<SchemeId, Option<u32>> =
        roots.iter().copied().zip(idxs).collect();
    let idx_of = |id: SchemeId| -> Option<u32> { idx_by_id.get(&id).copied().flatten() };

    let mut snapshot = DecodedSnapshot {
        nodes,
        ..DecodedSnapshot::default()
    };
    let mut unportable = 0usize;
    for (k, g, o) in kept {
        match portable_outcome(o, &idx_of) {
            Some(po) => snapshot.entries.push((*k, *g, po)),
            None => unportable += 1,
        }
    }
    (snapshot, unportable)
}

// ----------------------------------------------------------------- load

/// Load a snapshot into the hub, if a valid one for this epoch exists.
/// Total: every failure mode — no file, wrong magic/version/epoch,
/// truncation, checksum mismatch, malformed payload — is a cold start
/// reported in the outcome, never an error or a partial application.
pub fn load(shared: &Shared, epoch_now: u64, cfg: &PersistConfig) -> LoadOutcome {
    let t0 = Instant::now();
    // Failpoint: a snapshot file that cannot be read back. Exercises
    // the cold-fallback path with the `io` failure label.
    if let Some(f) = fault::hit_counted("persist.load", shared.metrics()) {
        if let Err(e) = f.io_effect() {
            return cold(
                shared,
                "io",
                format!("cannot read snapshot: {e} (failpoint)"),
            );
        }
    }
    let path = cfg.file();
    let data = match std::fs::read(&path) {
        Ok(d) => d,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return LoadOutcome::default(),
        Err(e) => return cold(shared, "io", format!("cannot read {}: {e}", path.display())),
    };
    let (generation, payload) = match validate(&data, epoch_now) {
        Ok(p) => p,
        Err((reason, w)) => return cold(shared, reason, w),
    };
    let snapshot = match decode_payload(payload) {
        Ok(s) => s,
        Err(w) => return cold(shared, "malformed", format!("malformed payload: {w}")),
    };
    let out = apply(shared, generation, snapshot);
    if out.loaded {
        shared.metrics().cache_loads.inc();
        let extras = [("entries", Val::U(out.entries as u64))];
        shared.tracer().emit(
            &Record::new("span", "snapshot-load")
                .dur(t0.elapsed())
                .extras(&extras),
        );
    }
    out
}

/// A cold start with a warning: the structured replacement for what
/// used to be an unstructured stderr line — `reason`, one of a small
/// stable label set named where the failure happens (`io`, `truncated`,
/// `magic`, `version`, `epoch`, `checksum`, `malformed`), lands on the
/// `cache_load_failures` labeled counter and a `warn` trace record.
fn cold(shared: &Shared, reason: &'static str, warning: String) -> LoadOutcome {
    shared.metrics().cache_load_failures.inc(reason);
    shared.tracer().warn(
        "cold-fallback",
        TraceCtx::default(),
        &[("reason", Val::S(reason)), ("detail", Val::S(&warning))],
    );
    LoadOutcome {
        warning: Some(warning),
        ..LoadOutcome::default()
    }
}

/// Header and checksum validation; returns the generation and payload,
/// or the failure's `cache_load_failures` reason and its warning.
fn validate(data: &[u8], epoch_now: u64) -> Result<(u64, &[u8]), (&'static str, String)> {
    if data.len() < HEADER_LEN {
        return Err((
            "truncated",
            format!("file too short ({} bytes)", data.len()),
        ));
    }
    if &data[0..4] != MAGIC {
        return Err(("magic", "bad magic".to_string()));
    }
    // lint: allow(unwrap) — 4-byte slice by construction
    let u32_at = |i: usize| u32::from_le_bytes(data[i..i + 4].try_into().expect("4"));
    // lint: allow(unwrap) — 8-byte slice by construction
    let u64_at = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().expect("8"));
    let version = u32_at(4);
    if version != FORMAT_VERSION {
        let w = format!("format version {version} != {FORMAT_VERSION}");
        return Err(("version", w));
    }
    let epoch = u64_at(8);
    if epoch != epoch_now {
        let w = "epoch mismatch (engine version or options changed)";
        return Err(("epoch", w.to_string()));
    }
    let generation = u64_at(16);
    let payload_len = u64_at(24) as usize;
    let checksum = u64_at(32);
    let payload = &data[HEADER_LEN..];
    if payload.len() != payload_len {
        let w = format!("payload length {} != header's {payload_len}", payload.len());
        return Err(("truncated", w));
    }
    if Hasher64::new().write(payload).finish() != checksum {
        return Err(("checksum", "checksum mismatch".to_string()));
    }
    Ok((generation, payload))
}

/// Apply a fully decoded snapshot. The scheme DAG absorbs first (ids
/// remapped by structural re-interning); entries whose roots are
/// rejected are skipped individually. Each restored scheme is
/// rendered once here, by the bank's memoised `pretty`.
fn apply(shared: &Shared, generation: u64, snapshot: DecodedSnapshot) -> LoadOutcome {
    let bank = shared.bank();
    // Failpoint: the scheme DAG cannot be re-interned (models a
    // snapshot whose node table the bank rejects).
    if let Some(f) = fault::hit_counted("bank.absorb", shared.metrics()) {
        if let Err(e) = f.io_effect() {
            return cold(
                shared,
                "malformed",
                format!("malformed payload: {e} (failpoint)"),
            );
        }
    }
    let absorbed = match bank.absorb_snapshot(&snapshot.nodes) {
        Ok(a) => a,
        Err(e) => return cold(shared, "malformed", e.to_string()),
    };

    let restore = |po: &POutcome| -> Option<Outcome> {
        Some(match po {
            POutcome::Typed { root, defaulted } => {
                let id = absorbed.closed(*root)?;
                let scheme = bank.pretty(id);
                // Each defaulted variable was grounded to an `Int` that
                // the rendering shows, so a larger count is corrupt: it
                // must not size an allocation.
                let defaulted = *defaulted as usize;
                if defaulted > scheme.len() / "Int".len() {
                    return None;
                }
                Outcome::Typed {
                    id,
                    defaulted: bank.defaulted_names(id, defaulted),
                    scheme,
                }
            }
            POutcome::Error { class, message } => Outcome::Error {
                class: class.clone(),
                message: message.clone(),
            },
            POutcome::Blocked { on } => Outcome::Blocked { on: on.clone() },
        })
    };

    let mut out = LoadOutcome {
        loaded: true,
        nodes: absorbed.len(),
        generation: generation.saturating_add(1),
        ..LoadOutcome::default()
    };
    for (key, gen, po) in &snapshot.entries {
        if let Some(o) = restore(po) {
            shared.cache().insert_with_gen(*key, o, *gen);
            out.entries += 1;
        }
    }
    // Resume past the snapshot's generation: everything restored reads
    // as "last touched at generation ≤ header's", fresh work reads
    // newer.
    shared.cache().set_generation(out.generation);
    out
}

// --------------------------------------------------------- checkpointer

/// The stop flag + condvar pair that drives a periodic background
/// loop. Extracted from the checkpointer as a standalone type so
/// `tests/model/` can model-check the wakeup protocol directly: a
/// `signal` can never be lost, no matter how it interleaves with the
/// loop's first lock acquisition or a wait — the flag is re-checked
/// under the lock *before every wait*, so a signal that lands early is
/// seen without its notification.
///
/// The stop lock carries `lockrank::PERSIST_STOP`, the lowest rank in
/// the table, because the tick callback runs while it is held and
/// acquires hub locks (cache stripes, bank shards) underneath.
pub struct StopSignal {
    stop: lockrank::Mutex<bool>,
    cvar: lockrank::Condvar,
}

impl Default for StopSignal {
    fn default() -> Self {
        Self::new()
    }
}

impl StopSignal {
    /// A fresh, un-signalled stop.
    pub fn new() -> StopSignal {
        StopSignal {
            stop: lockrank::Mutex::new(lockrank::PERSIST_STOP, "service.persist.stop", false),
            cvar: lockrank::Condvar::new(lockrank::PERSIST_STOP, "service.persist.stop.cv"),
        }
    }

    /// Signal the loop to stop and wake it if it is waiting. One-way
    /// and idempotent.
    pub fn signal(&self) {
        *self.stop.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.cvar.notify_all();
    }

    /// Has the stop been signalled?
    pub fn stopped(&self) -> bool {
        *self.stop.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `on_tick` every `interval` until signalled. The flag is
    /// checked before the first wait (a stop signalled between `spawn`
    /// and the loop's first lock acquisition has already had its
    /// notification — waiting for the timeout would stall the caller a
    /// full interval) and re-checked after every wakeup; the tick runs
    /// with the stop lock held, so `signal` callers block for at most
    /// one in-flight tick and the loop exits on the next iteration.
    pub fn run(&self, interval: Duration, mut on_tick: impl FnMut()) {
        let mut stopped = self.stop.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if *stopped {
                return;
            }
            let (guard, timeout) = self
                .cvar
                .wait_timeout(stopped, interval)
                .unwrap_or_else(PoisonError::into_inner);
            stopped = guard;
            if *stopped {
                return;
            }
            if timeout.timed_out() {
                on_tick();
            }
        }
    }
}

/// A background thread that snapshots the hub every `interval` — the
/// `serve --cache-dir` crash-safety story: a killed server loses at
/// most one interval of warm state, and the atomic-rename protocol
/// means it never loses the previous snapshot.
pub struct Checkpointer {
    stop: Arc<StopSignal>,
    handle: Option<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
    epoch: u64,
    cfg: PersistConfig,
}

impl Checkpointer {
    /// Start checkpointing `shared` every `interval`.
    pub fn checkpoint_every(
        shared: Arc<Shared>,
        epoch: u64,
        cfg: PersistConfig,
        interval: Duration,
    ) -> Checkpointer {
        let stop = Arc::new(StopSignal::new());
        let handle = {
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                stop.run(interval, || {
                    let t0 = Instant::now();
                    match save(&shared, epoch, &cfg) {
                        Ok(out) => {
                            let extras = [
                                ("bytes", Val::U(out.bytes)),
                                ("evicted", Val::U(out.evicted)),
                            ];
                            shared.tracer().emit(
                                &Record::new("span", "checkpoint")
                                    .dur(t0.elapsed())
                                    .extras(&extras),
                            );
                        }
                        // The structured replacement for the old
                        // stderr line: the failure is already on
                        // `checkpoint_failures` (counted in `save`),
                        // and the detail goes to the tracer.
                        Err(e) => {
                            let detail = e.to_string();
                            shared.tracer().warn(
                                "checkpoint-failed",
                                TraceCtx::default(),
                                &[("error", Val::S(&detail))],
                            );
                        }
                    }
                })
            })
        };
        Checkpointer {
            stop,
            handle: Some(handle),
            shared,
            epoch,
            cfg,
        }
    }

    /// Stop the thread and take a final snapshot (the on-shutdown
    /// checkpoint).
    ///
    /// # Errors
    ///
    /// The final save's I/O error, if any.
    pub fn finish(mut self) -> io::Result<SaveOutcome> {
        self.stop.signal();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        save(&self.shared, self.epoch, &self.cfg)
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        // Best effort: un-finished checkpointers still stop their
        // thread; the final save is `finish`'s job.
        self.stop.signal();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{analyze, EngineSel};
    use crate::exec::{CheckReport, Executor};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "freezeml-persist-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn warm_hub(src: &str) -> Shared {
        let shared = Shared::new();
        let a = analyze(src, &Options::default(), EngineSel::Uf).unwrap();
        Executor::new(1, Options::default(), EngineSel::Uf).run(&a, &shared);
        shared
    }

    const SRC: &str = "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n";

    #[test]
    fn save_load_round_trips_the_verdict_cache() {
        let dir = tmp_dir("roundtrip");
        let cfg = PersistConfig::new(&dir);
        let opts = Options::default();
        let shared = warm_hub(SRC);
        let n = shared.cache().len();
        assert!(n >= 2);
        let saved = save(&shared, epoch(&opts), &cfg).unwrap();
        assert_eq!(saved.entries, n);
        assert_eq!(saved.evicted, 0);

        let fresh = Shared::new();
        let out = load(&fresh, epoch(&opts), &cfg);
        assert!(out.loaded, "{:?}", out.warning);
        assert_eq!(out.entries, n);
        assert!(out.warning.is_none());

        // A check on the restored hub is pure reuse, and it renders
        // nothing beyond what the load rendered.
        let renders = fresh.bank().renders();
        let a = analyze(SRC, &opts, EngineSel::Uf).unwrap();
        let r = Executor::new(1, opts, EngineSel::Uf).run(&a, &fresh);
        assert_eq!((r.rechecked, r.reused), (0, 2));
        assert!(r.all_typed());
        assert_eq!(r.binding("p").unwrap().outcome.display(), "Int * Bool");
        assert_eq!(
            fresh.bank().renders(),
            renders,
            "the load rendered every restored scheme"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_silent_cold_start() {
        let dir = tmp_dir("missing");
        let out = load(&Shared::new(), 42, &PersistConfig::new(&dir));
        assert!(!out.loaded);
        assert!(out.warning.is_none(), "no file, no warning");
    }

    #[test]
    fn wrong_epoch_falls_back_cold_with_a_warning() {
        let dir = tmp_dir("epoch");
        let cfg = PersistConfig::new(&dir);
        let shared = warm_hub(SRC);
        save(&shared, 111, &cfg).unwrap();
        let fresh = Shared::new();
        let out = load(&fresh, 222, &cfg);
        assert!(!out.loaded);
        assert!(out.warning.unwrap().contains("epoch"));
        assert_eq!(fresh.cache().len(), 0, "nothing applied");

        // Another format version is refused before the epoch is read.
        let mut file = std::fs::read(cfg.file()).unwrap();
        file[4..8].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        std::fs::write(cfg.file(), &file).unwrap();
        let out = load(&fresh, 111, &cfg);
        assert!(out.warning.unwrap().contains("format version"));
        let text = crate::stats::prometheus_text(&fresh);
        assert!(text.contains("freezeml_cache_load_failures_total{reason=\"version\"} 1"));
        assert_eq!((fresh.cache().len(), fresh.bank().len()), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_bitflips_fall_back_cold() {
        let dir = tmp_dir("corrupt");
        let cfg = PersistConfig::new(&dir);
        let opts = Options::default();
        let shared = warm_hub(SRC);
        save(&shared, epoch(&opts), &cfg).unwrap();
        let valid = std::fs::read(cfg.file()).unwrap();

        // Every truncation: never a panic, never partial state.
        for cut in [
            0,
            1,
            HEADER_LEN - 1,
            HEADER_LEN,
            valid.len() / 2,
            valid.len() - 1,
        ] {
            std::fs::write(cfg.file(), &valid[..cut]).unwrap();
            let fresh = Shared::new();
            let out = load(&fresh, epoch(&opts), &cfg);
            assert!(!out.loaded, "truncated at {cut} must not load");
            assert!(out.warning.is_some());
            assert_eq!(fresh.cache().len(), 0);
        }

        // A payload bit flip trips the checksum.
        let mut flipped = valid.clone();
        let mid = HEADER_LEN + (flipped.len() - HEADER_LEN) / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(cfg.file(), &flipped).unwrap();
        let out = load(&Shared::new(), epoch(&opts), &cfg);
        assert!(!out.loaded);
        assert!(out.warning.unwrap().contains("checksum"));

        // A checksum-valid payload whose node table the bank rejects (a
        // child index past the table) is a malformed snapshot too.
        rewrite_payload(
            &cfg,
            &DecodedSnapshot {
                nodes: vec![PortableNode::Con(PortableCon::Arrow, vec![5, 5])],
                ..DecodedSnapshot::default()
            },
        );
        let fresh = Shared::new();
        let out = load(&fresh, epoch(&opts), &cfg);
        assert!(!out.loaded);
        assert!(out.warning.unwrap().contains("not topological"));
        let text = crate::stats::prometheus_text(&fresh);
        assert!(text.contains("freezeml_cache_load_failures_total{reason=\"malformed\"} 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_defaulted_count_the_scheme_cannot_hold_is_skipped() {
        let dir = tmp_dir("defaulted");
        let cfg = PersistConfig::new(&dir);
        let opts = Options::default();
        save(&warm_hub(SRC), epoch(&opts), &cfg).unwrap();
        // One `Int` node; key 1 claims one defaulted variable, key 2
        // more than any `Int`-typed binding can have.
        let typed = |defaulted| POutcome::Typed { root: 0, defaulted };
        rewrite_payload(
            &cfg,
            &DecodedSnapshot {
                nodes: vec![PortableNode::Con(PortableCon::Int, vec![])],
                entries: vec![(1, 0, typed(1)), (2, 0, typed(u32::MAX))],
            },
        );
        let fresh = Shared::new();
        let out = load(&fresh, epoch(&opts), &cfg);
        assert_eq!(out.entries, 1, "{:?}", out.warning);
        let Some(Outcome::Typed { defaulted, .. }) = fresh.cache().get(1) else {
            panic!("key 1 not restored as typed");
        };
        assert_eq!(defaulted, ["a"]);
        assert_eq!(fresh.cache().get(2), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generations_advance_across_saves_and_loads() {
        let dir = tmp_dir("gen");
        let cfg = PersistConfig::new(&dir);
        let opts = Options::default();
        let shared = warm_hub(SRC);
        assert_eq!(shared.cache().generation(), 0);
        let s1 = save(&shared, epoch(&opts), &cfg).unwrap();
        assert_eq!(s1.generation, 0);
        assert_eq!(shared.cache().generation(), 1, "save advances");

        let fresh = Shared::new();
        let out = load(&fresh, epoch(&opts), &cfg);
        assert_eq!(out.generation, 1, "load resumes past the header");
        assert_eq!(fresh.cache().generation(), 1);
        let s2 = save(&fresh, epoch(&opts), &cfg).unwrap();
        assert_eq!(s2.generation, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tiny_budget_evicts_oldest_generations_first() {
        let dir = tmp_dir("evict");
        let mut cfg = PersistConfig::new(&dir);
        let opts = Options::default();
        let shared = Shared::new();
        let mut exec = Executor::new(1, opts, EngineSel::Uf);
        // Two programs checked at different generations: the second is
        // fresher.
        let a = analyze("let old1 = 1;;\nlet old2 = 2;;\n", &opts, EngineSel::Uf).unwrap();
        exec.run(&a, &shared);
        // Age the first batch: save (advances the generation)…
        save(&shared, epoch(&opts), &cfg).unwrap();
        let b = analyze("let fresh = true;;\n", &opts, EngineSel::Uf).unwrap();
        exec.run(&b, &shared);

        // …then squeeze: room for the header + roughly one entry only.
        cfg.max_bytes = 220;
        let out = save(&shared, epoch(&opts), &cfg).unwrap();
        assert!(out.evicted > 0, "tiny budget must evict");
        assert!(shared.metrics().evictions.get() > 0);
        assert!(
            std::fs::metadata(cfg.file()).unwrap().len() <= cfg.max_bytes,
            "file respects the cap"
        );
        // The fresh entry survived in preference to the old ones.
        let fresh_hub = Shared::new();
        let loaded = load(&fresh_hub, epoch(&opts), &cfg);
        assert!(loaded.loaded, "{:?}", loaded.warning);
        let r = exec_into(&fresh_hub, "let fresh = true;;\n");
        assert_eq!((r.rechecked, r.reused), (0, 1), "newest stayed warm");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replace the snapshot's payload with `s`, keeping the file's header
    /// but making its payload length and checksum match.
    fn rewrite_payload(cfg: &PersistConfig, s: &DecodedSnapshot) {
        let payload = encode_payload(s);
        let mut file = std::fs::read(cfg.file()).unwrap()[..HEADER_LEN - 16].to_vec();
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&Hasher64::new().write(&payload).finish().to_le_bytes());
        file.extend_from_slice(&payload);
        std::fs::write(cfg.file(), &file).unwrap();
    }

    fn exec_into(shared: &Shared, src: &str) -> CheckReport {
        let opts = Options::default();
        let a = analyze(src, &opts, EngineSel::Uf).unwrap();
        Executor::new(1, opts, EngineSel::Uf).run(&a, shared)
    }

    #[test]
    fn checkpointer_takes_a_final_snapshot_on_finish() {
        let dir = tmp_dir("ckpt");
        let cfg = PersistConfig::new(&dir);
        let opts = Options::default();
        let shared = Arc::new(warm_hub(SRC));
        let ck = Checkpointer::checkpoint_every(
            Arc::clone(&shared),
            epoch(&opts),
            cfg.clone(),
            Duration::from_secs(3600), // never fires in-test
        );
        assert!(!cfg.file().exists());
        let out = ck.finish().unwrap();
        assert!(out.entries >= 2);
        assert!(cfg.file().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a stop signalled before the checkpoint thread first
    /// acquires its lock used to lose the wakeup — the thread then sat
    /// in `wait_timeout` for the full interval (an hour here) with the
    /// flag already set, stalling `finish`. Many quick start/finish
    /// cycles reliably hit the race window.
    #[test]
    fn finish_immediately_after_start_does_not_stall() {
        let dir = tmp_dir("ckpt-race");
        let cfg = PersistConfig::new(&dir);
        let opts = Options::default();
        let shared = Arc::new(warm_hub(SRC));
        for _ in 0..200 {
            let ck = Checkpointer::checkpoint_every(
                Arc::clone(&shared),
                epoch(&opts),
                cfg.clone(),
                Duration::from_secs(3600),
            );
            ck.finish().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
