//! The scheme bank: inference results exported as [`SchemeId`]s —
//! sharing-preserving, α-canonical, **zonk-free**, and shared by many
//! worker threads **without a global lock**.
//!
//! [`Store::zonk`] re-expands a DAG-shared type into a `core::Type`
//! tree. For the pair chain that expansion is exponential: the type is
//! O(n) in the store and 2ⁿ as a tree, so a scheme crossing the
//! engine→service boundary as a tree would undo everything hash-consing
//! bought. The bank keeps schemes in DAG form across that boundary:
//!
//! * it is a hash-consed arena of **ground scheme nodes** with **de
//!   Bruijn binders** — no flexible variables, no mutable cells, binders
//!   nameless. Hash-consing over de Bruijn nodes makes a `SchemeId` an
//!   **α-equivalence class**: two α-equivalent schemes with the same free
//!   variables intern to the same id, so the service's Merkle cache can
//!   key on the id directly and "same scheme" is an integer comparison;
//! * [`SchemeBank::export`] copies the reachable, resolved part of a
//!   session [`Store`] into the bank in O(DAG) — cells are read through,
//!   never expanded;
//! * [`SchemeBank::intern_into`] is the inverse: layering a cached scheme
//!   back into a session store (a dependency's scheme entering `Γ`) is
//!   again O(DAG), with no `core::Type` tree in between;
//! * [`SchemeBank::to_type`] and [`SchemeBank::pretty`] materialise a
//!   tree / a string **on demand** — the protocol boundary (`type-of`,
//!   goldens) is the only place that pays, and `pretty` memoises per id
//!   so shared subterms are rendered once (O(DAG) structural work plus
//!   the unavoidable O(output) bytes).
//!
//! A `SchemeId` is shared by *every* α-equivalent scheme, so its
//! rendering must be a function of the α-class: binders are lettered
//! canonically (`forall a. a -> a`), never taken from any one exporter's
//! source names — restoring those would leak one binding's annotation
//! names into another's output. Binder *name hints* are still recorded
//! (outside the hash) and guide [`SchemeBank::intern_into`], where the
//! use is per-occurrence and no cross-binding leak is possible.
//!
//! The arena is spread over [`SHARDS`] independently locked shards:
//!
//! * a node's **home shard** is chosen by its structural fingerprint
//!   (`fp & (SHARDS-1)`), so α-identical nodes interned from any thread
//!   race to the *same* shard and the hash-consing invariant — one id
//!   per α-class per bank — holds bank-wide, not per shard;
//! * a [`SchemeId`] encodes `(slot << SHARD_BITS) | shard`: ids stay
//!   stable for the life of the bank, and decoding never needs a lock;
//! * every method takes `&self`; interior shard locks are held for one
//!   node read or one probe+insert, **never across recursion**, so the
//!   lock graph is flat and deadlock-free by construction;
//! * locks recover from poisoning (`PoisonError::into_inner`) — shard
//!   state is only written under invariant-preserving single-node
//!   operations, so a panicked writer leaves the shard valid and a
//!   poisoned lock is safe to re-enter. One crashed binding cannot take
//!   the session's scheme space down with it.
//!
//! The hub holds one bank for every session; a single-threaded caller
//! (elaboration's per-call bank in [`crate::elab`]) pays only
//! uncontended shard locks. `tests/bank_properties.rs` holds the id
//! partition to `Type::alpha_eq`, single-threaded, under racing
//! threads, and across a snapshot round trip.

use crate::snapshot::{AbsorbedSnapshot, PortableCon, PortableNode, SnapshotError};
use crate::store::{reprobe, Shape, Store, TypeId};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, PoisonError};
use freezeml_core::{Symbol, TyCon, TyVar, Type};
use freezeml_obs::lockrank;
use fxhash::{FxHashMap, FxHashSet};
use std::hash::{Hash, Hasher};

/// log₂ of the shard count. 16 shards keeps the id encoding roomy
/// (2²⁸ nodes per shard) while giving a worker pool an order of
/// magnitude more lock granularity than it has threads.
const SHARD_BITS: u32 = 4;

/// Number of shards in a bank.
pub const SHARDS: usize = 1 << SHARD_BITS;

const SHARD_MASK: u32 = (SHARDS as u32) - 1;

/// An exported scheme: an id minted by a [`SchemeBank`]. Within one
/// bank, id equality is α-equivalence (for schemes with the same free
/// variables).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SchemeId(u32);

impl SchemeId {
    /// The raw encoding `(slot << SHARD_BITS) | shard` — stable and
    /// unique for the life of the bank; what the service mixes into
    /// observability output.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A contiguous child range in one shard's slab.
#[derive(Clone, Copy)]
struct SRange {
    start: u32,
    len: u32,
}

/// One scheme node, as stored. Ground (no flexible variables) and
/// nameless at binders (de Bruijn indices), so structural identity is
/// α-identity. Child ids are *global* (bank-encoded) [`SchemeId`]s; the
/// `SRange` indexes the owning shard's slab.
#[derive(Clone, Copy)]
enum SNode {
    /// A binder occurrence: de Bruijn index, 0 = innermost `∀`.
    Bound(u32),
    /// A free variable (a source-named rigid, or — for open schemes —
    /// a residual variable's stable name).
    Free(TyVar),
    /// A fully applied constructor.
    Con(TyCon, SRange),
    /// A quantifier over the body. Nameless; the display hint lives in
    /// `Shard::hints`, outside the hash.
    Forall(SchemeId),
}

/// A copied-out snapshot of one node: what traversals recurse over
/// after the shard lock is dropped.
enum View {
    Bound(u32),
    Free(TyVar),
    Con(TyCon, Vec<SchemeId>),
    Forall(SchemeId),
}

/// One lock's worth of the bank: node arena, child slab, and intern
/// table. The probe protocol (`reprobe` on fingerprint collision) and
/// slab layout are [`Store`]'s.
#[derive(Default)]
struct Shard {
    nodes: Vec<SNode>,
    children: Vec<SchemeId>,
    /// Per-node binder name hint (only meaningful for `Forall` nodes).
    /// First exporter wins — hints never affect identity.
    hints: Vec<Option<TyVar>>,
    intern: FxHashMap<u64, SchemeId>,
    /// Memoised renderings of nodes homed here.
    rendered: FxHashMap<SchemeId, Arc<str>>,
}

impl Shard {
    fn children_of(&self, r: SRange) -> &[SchemeId] {
        &self.children[r.start as usize..(r.start + r.len) as usize]
    }

    fn node_eq(&self, id: SchemeId, node: &SNode, args: &[SchemeId]) -> bool {
        match (&self.nodes[slot_of(id)], node) {
            (SNode::Bound(a), SNode::Bound(b)) => a == b,
            (SNode::Free(a), SNode::Free(b)) => a == b,
            (SNode::Con(c, r), SNode::Con(d, _)) => c == d && self.children_of(*r) == args,
            (SNode::Forall(a), SNode::Forall(b)) => a == b,
            _ => false,
        }
    }
}

/// Which shard an id lives in.
fn shard_of(id: SchemeId) -> usize {
    (id.index() & SHARD_MASK) as usize
}

/// The id's slot within its shard's arenas.
fn slot_of(id: SchemeId) -> usize {
    (id.index() >> SHARD_BITS) as usize
}

fn assemble(slot: usize, shard: usize) -> SchemeId {
    let id = SchemeId(((slot as u32) << SHARD_BITS) | shard as u32);
    assert!(slot_of(id) == slot, "scheme bank shard overflow");
    id
}

/// The sharded concurrent scheme arena. See the module docs.
pub struct SchemeBank {
    /// Rank-witnessed shard locks (`lockrank::BANK_SHARD` is the
    /// highest rank in the table: a shard lock is a leaf — nothing is
    /// ever acquired while holding one, and the debug-build witness
    /// enforces exactly that).
    shards: [lockrank::RwLock<Shard>; SHARDS],
    /// Tree/string materialisations performed (cold `pretty`/`to_type`
    /// work) — the counter the service asserts its memoisation against.
    renders: AtomicU64,
    /// `pretty` calls served from the memo.
    render_hits: AtomicU64,
}

impl Default for SchemeBank {
    fn default() -> Self {
        Self::new()
    }
}

impl SchemeBank {
    /// An empty bank.
    pub fn new() -> Self {
        SchemeBank {
            shards: std::array::from_fn(|_| {
                lockrank::RwLock::new(lockrank::BANK_SHARD, "engine.bank.shard", Shard::default())
            }),
            // ord: Relaxed everywhere below — renders/render_hits are
            // monotonic statistics; no reader derives control flow or
            // publication from them.
            renders: AtomicU64::new(0),
            render_hits: AtomicU64::new(0),
        }
    }

    /// Shard read lock, recovering from poison: shard invariants are
    /// maintained per single-node operation, so state behind a
    /// poisoned lock is still valid.
    fn read(&self, s: usize) -> lockrank::RwLockReadGuard<'_, Shard> {
        self.shards[s]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self, s: usize) -> lockrank::RwLockWriteGuard<'_, Shard> {
        self.shards[s]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy one node out of its shard. The only way traversals touch
    /// shard state — the lock is released before any recursion.
    fn view(&self, id: SchemeId) -> View {
        let g = self.read(shard_of(id));
        match g.nodes[slot_of(id)] {
            SNode::Bound(i) => View::Bound(i),
            SNode::Free(v) => View::Free(v),
            SNode::Con(c, r) => View::Con(c, g.children_of(r).to_vec()),
            SNode::Forall(b) => View::Forall(b),
        }
    }

    fn hint(&self, id: SchemeId) -> Option<TyVar> {
        self.read(shard_of(id)).hints[slot_of(id)]
    }

    /// Number of interned scheme nodes, bank-wide (observability).
    pub fn len(&self) -> usize {
        (0..SHARDS).map(|s| self.read(s).nodes.len()).sum()
    }

    /// Is the bank empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cold materialisations (tree or string) performed so far.
    pub fn renders(&self) -> u64 {
        // ord: Relaxed — monotonic statistic; no acquire pairing needed.
        self.renders.load(Ordering::Relaxed)
    }

    /// `pretty` calls served straight from the per-node memo.
    pub fn render_hits(&self) -> u64 {
        // ord: Relaxed — monotonic statistic; no acquire pairing needed.
        self.render_hits.load(Ordering::Relaxed)
    }

    fn fingerprint(node: &SNode, args: &[SchemeId]) -> u64 {
        let mut h = fxhash::FxHasher::default();
        match node {
            SNode::Bound(i) => {
                h.write_u8(0);
                h.write_u32(*i);
            }
            SNode::Free(v) => {
                h.write_u8(1);
                v.hash(&mut h);
            }
            SNode::Con(c, _) => {
                h.write_u8(2);
                c.hash(&mut h);
                h.write_u32(args.len() as u32);
                for a in args {
                    h.write_u32(a.index());
                }
            }
            SNode::Forall(b) => {
                h.write_u8(3);
                h.write_u32(b.index());
            }
        }
        h.finish()
    }

    /// Hash-consing intern. The home shard is a pure function of the
    /// initial fingerprint, so concurrent interns of α-identical nodes
    /// contend on one lock and are deduplicated there; the probe chain
    /// (`reprobe` on fingerprint collision) stays within the shard.
    fn intern_node(&self, node: SNode, args: &[SchemeId], hint: Option<TyVar>) -> SchemeId {
        let fp = Self::fingerprint(&node, args);
        let s = (fp as u32 & SHARD_MASK) as usize;
        let mut shard = self.write(s);
        let mut h = fp;
        loop {
            match shard.intern.get(&h) {
                Some(&id) if shard.node_eq(id, &node, args) => return id,
                Some(_) => h = reprobe(h),
                None => break,
            }
        }
        let id = assemble(shard.nodes.len(), s);
        let node = match node {
            SNode::Con(c, _) => {
                let start = shard.children.len() as u32;
                shard.children.extend_from_slice(args);
                SNode::Con(
                    c,
                    SRange {
                        start,
                        len: args.len() as u32,
                    },
                )
            }
            other => other,
        };
        shard.nodes.push(node);
        shard.hints.push(hint);
        shard.intern.insert(h, id);
        id
    }

    // ---------------------------------------------------------- export

    /// Export a resolved session type into the bank, preserving sharing:
    /// O(DAG) in the store representation. Cells are read through
    /// ([`Store::resolve`]); unsolved flexible variables export under
    /// their stable fresh names (open schemes — the service grounds them
    /// before exporting, so its schemes are closed).
    pub fn export(&self, store: &mut Store, t: TypeId) -> SchemeId {
        let mut binders: Vec<TyVar> = Vec::new();
        // Memo for *scope-closed* subtrees (no reference to a binder
        // outside the subtree) — their de Bruijn encoding is
        // position-independent, so they are safe to share across scopes
        // and depths. Keyed by *resolved* TypeId.
        let mut memo: FxHashMap<TypeId, SchemeId> = FxHashMap::default();
        self.export_go(store, t, &mut binders, &mut memo).0
    }

    /// Returns `(id, lowest_ref)`: `lowest_ref` is the smallest binder-
    /// stack index the subtree references, `None` if it references no
    /// binder in scope. Only scope-closed conversions are memoised — a
    /// subtree referencing an enclosing binder re-indexes under a
    /// different depth, but a *self-contained* quantified subtree (the
    /// shared-`∀` case) is closed and memoises fine.
    fn export_go(
        &self,
        store: &mut Store,
        t: TypeId,
        binders: &mut Vec<TyVar>,
        memo: &mut FxHashMap<TypeId, SchemeId>,
    ) -> (SchemeId, Option<usize>) {
        let t = store.resolve(t);
        if let Some(&id) = memo.get(&t) {
            return (id, None);
        }
        match store.shape(t) {
            Shape::Rigid(v) => {
                if let Some(pos) = binders.iter().rposition(|b| *b == v) {
                    let idx = (binders.len() - 1 - pos) as u32;
                    (self.intern_node(SNode::Bound(idx), &[], None), Some(pos))
                } else {
                    let id = self.intern_node(SNode::Free(v), &[], None);
                    memo.insert(t, id);
                    (id, None)
                }
            }
            Shape::Flex(v) => {
                let name = store.name_of(v);
                let id = self.intern_node(SNode::Free(name), &[], None);
                memo.insert(t, id);
                (id, None)
            }
            Shape::Con(c, n) => {
                let mut lowest: Option<usize> = None;
                let ids: Vec<SchemeId> = (0..n)
                    .map(|i| {
                        let child = store.con_child(t, i);
                        let (id, low) = self.export_go(store, child, binders, memo);
                        lowest = match (lowest, low) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        id
                    })
                    .collect();
                let id = self.intern_node(SNode::Con(c, SRange { start: 0, len: 0 }), &ids, None);
                if lowest.is_none() {
                    memo.insert(t, id);
                }
                (id, lowest)
            }
            Shape::Forall(v, body) => {
                // The new binder sits at index `depth`; a body reference
                // below it is a reference to an *outer* binder.
                let depth = binders.len();
                binders.push(v);
                let (b, low) = self.export_go(store, body, binders, memo);
                binders.pop();
                let hint = store.binder_source(&v);
                let id = self.intern_node(SNode::Forall(b), &[], hint);
                let escaping = low.filter(|&p| p < depth);
                if escaping.is_none() {
                    memo.insert(t, id);
                }
                (id, escaping)
            }
        }
    }

    /// Import a `core` type directly — α-canonical like export, so a
    /// core-inferred and a uf-inferred α-equivalent scheme intern to
    /// the same id.
    pub fn intern_type(&self, ty: &Type) -> SchemeId {
        let mut binders: Vec<TyVar> = Vec::new();
        self.intern_type_go(ty, &mut binders)
    }

    fn intern_type_go(&self, ty: &Type, binders: &mut Vec<TyVar>) -> SchemeId {
        match ty {
            Type::Var(v) => {
                if let Some(pos) = binders.iter().rposition(|b| b == v) {
                    let idx = (binders.len() - 1 - pos) as u32;
                    self.intern_node(SNode::Bound(idx), &[], None)
                } else {
                    self.intern_node(SNode::Free(*v), &[], None)
                }
            }
            Type::Con(c, args) => {
                let ids: Vec<SchemeId> = args
                    .iter()
                    .map(|a| self.intern_type_go(a, binders))
                    .collect();
                self.intern_node(SNode::Con(*c, SRange { start: 0, len: 0 }), &ids, None)
            }
            Type::Forall(v, body) => {
                binders.push(*v);
                let b = self.intern_type_go(body, binders);
                binders.pop();
                let hint = if v.is_named() { Some(*v) } else { None };
                self.intern_node(SNode::Forall(b), &[], hint)
            }
        }
    }

    // ---------------------------------------------------------- import

    /// Layer a scheme back into a session [`Store`] — a dependency's
    /// cached scheme entering `Γ` — in O(DAG), with no `core::Type` tree
    /// in between. Binders are freshened (the store's global-uniqueness
    /// invariant) and their hints recorded so a later zonk restores
    /// source names.
    pub fn intern_into(&self, store: &mut Store, id: SchemeId) -> TypeId {
        let mut binders: Vec<TypeId> = Vec::new();
        let mut memo: FxHashMap<SchemeId, TypeId> = FxHashMap::default();
        self.intern_into_go(store, id, &mut binders, &mut memo).0
    }

    /// Returns `(t, deepest)`: `deepest` is the largest de Bruijn index
    /// the subtree references *relative to its own position*, `None` if
    /// it references no enclosing binder. Scope-closed subtrees —
    /// including self-contained quantified nodes — are memoised, so a
    /// shared `∀` in the scheme DAG becomes one shared (one-binder)
    /// node in the store instead of a freshened copy per occurrence.
    fn intern_into_go(
        &self,
        store: &mut Store,
        id: SchemeId,
        binders: &mut Vec<TypeId>,
        memo: &mut FxHashMap<SchemeId, TypeId>,
    ) -> (TypeId, Option<u32>) {
        if let Some(&t) = memo.get(&id) {
            return (t, None);
        }
        match self.view(id) {
            View::Bound(i) => {
                let t = binders[binders.len() - 1 - i as usize];
                (t, Some(i))
            }
            View::Free(v) => {
                let t = store.rigid(v);
                memo.insert(id, t);
                (t, None)
            }
            View::Con(c, children) => {
                let mut deepest: Option<u32> = None;
                let mut ids: Vec<TypeId> = Vec::with_capacity(children.len());
                for ch in children {
                    let (t, d) = self.intern_into_go(store, ch, binders, memo);
                    deepest = match (deepest, d) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                    ids.push(t);
                }
                let t = store.con(c, &ids);
                if deepest.is_none() {
                    memo.insert(id, t);
                }
                (t, deepest)
            }
            View::Forall(body) => {
                let fresh = store.fresh_binder(self.hint(id));
                let fresh_id = store.rigid(fresh);
                binders.push(fresh_id);
                let (b, d) = self.intern_into_go(store, body, binders, memo);
                binders.pop();
                let t = store.forall(fresh, b);
                // Index 0 is this node's own binder; anything deeper
                // still escapes (shifted by one).
                let escaping = d.and_then(|m| m.checked_sub(1));
                if escaping.is_none() {
                    memo.insert(id, t);
                }
                (t, escaping)
            }
        }
    }

    // ------------------------------------------------- materialisation

    /// Materialise the scheme as a `core::Type` tree — the on-demand
    /// zonk, exponential in the worst case (the tree *is* that big).
    ///
    /// Binders come out as fresh invented variables, which the printer
    /// letters canonically — the rendering is a function of the α-class,
    /// **deliberately ignoring binder-name hints** (see the module docs).
    pub fn to_type(&self, id: SchemeId) -> Type {
        // ord: Relaxed — statistic bump; RMW atomicity is all we need.
        self.renders.fetch_add(1, Ordering::Relaxed);
        let mut stack: Vec<TyVar> = Vec::new();
        self.to_type_go(id, &mut stack)
    }

    fn to_type_go(&self, id: SchemeId, stack: &mut Vec<TyVar>) -> Type {
        match self.view(id) {
            View::Bound(i) => Type::Var(stack[stack.len() - 1 - i as usize]),
            View::Free(v) => Type::Var(v),
            View::Con(c, children) => {
                let args = children
                    .into_iter()
                    .map(|ch| self.to_type_go(ch, stack))
                    .collect();
                Type::Con(c, args)
            }
            View::Forall(body) => {
                let placeholder = TyVar::fresh();
                stack.push(placeholder);
                let body_ty = self.to_type_go(body, stack);
                stack.pop();
                Type::Forall(placeholder, Box::new(body_ty))
            }
        }
    }

    /// The canonical rendering of the scheme, memoised per id.
    ///
    /// Binders are lettered `a, b, c, …` in traversal order (skipping
    /// the scheme's free named variables), never taken from exporter
    /// hints — so every binding that shares an id displays identically.
    /// Schemes whose free variables are all source-named (everything the
    /// service stores: grounded) are rendered by a direct DAG walk with
    /// no intermediate `Type` tree; schemes with invented free variables
    /// fall back to `to_type` + the lettering printer (they need
    /// whole-type naming). Both paths produce byte-identical text. Two
    /// threads racing on a cold id both compute the same deterministic
    /// string; last insert wins harmlessly.
    pub fn pretty(&self, id: SchemeId) -> Arc<str> {
        let s_idx = shard_of(id);
        if let Some(s) = self.read(s_idx).rendered.get(&id) {
            // ord: Relaxed — statistic bump; RMW atomicity is all we need.
            self.render_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(s);
        }
        // ord: Relaxed — statistic bump; RMW atomicity is all we need.
        self.renders.fetch_add(1, Ordering::Relaxed);
        let s: Arc<str> = if self.directly_renderable(id) {
            let mut supply = self.letters(id);
            let mut out = String::new();
            self.render_go(id, 1, &mut Vec::new(), &mut supply, &mut out);
            Arc::from(out)
        } else {
            Arc::from(self.to_type_tree(id).to_string())
        };
        self.write(s_idx).rendered.insert(id, Arc::clone(&s));
        s
    }

    /// `to_type` without bumping the counter twice (internal fallback).
    fn to_type_tree(&self, id: SchemeId) -> Type {
        let mut stack = Vec::new();
        self.to_type_go(id, &mut stack)
    }

    fn directly_renderable(&self, id: SchemeId) -> bool {
        let mut seen = FxHashSet::default();
        self.renderable_go(id, &mut seen)
    }

    fn renderable_go(&self, id: SchemeId, seen: &mut FxHashSet<SchemeId>) -> bool {
        if !seen.insert(id) {
            return true;
        }
        match self.view(id) {
            View::Bound(_) => true,
            View::Free(v) => v.is_named(),
            View::Con(_, children) => children.into_iter().all(|ch| self.renderable_go(ch, seen)),
            View::Forall(body) => self.renderable_go(body, seen),
        }
    }

    /// Direct renderer; precedence levels match `core::pretty`.
    fn render_go(
        &self,
        id: SchemeId,
        prec: u8,
        stack: &mut Vec<Symbol>,
        supply: &mut impl Iterator<Item = Symbol>,
        out: &mut String,
    ) {
        match self.view(id) {
            View::Bound(i) => {
                let sym = stack[stack.len() - 1 - i as usize];
                out.push_str(sym.as_str());
            }
            View::Free(v) => out.push_str(v.name().unwrap_or("?")),
            View::Forall(_) => {
                if prec > 1 {
                    out.push('(');
                }
                out.push_str("forall");
                let mut cur = id;
                let mut pushed = 0usize;
                while let View::Forall(body) = self.view(cur) {
                    let sym = supply.next().expect("infinite supply");
                    out.push(' ');
                    out.push_str(sym.as_str());
                    stack.push(sym);
                    pushed += 1;
                    cur = body;
                }
                out.push_str(". ");
                self.render_go(cur, 1, stack, supply, out);
                stack.truncate(stack.len() - pushed);
                if prec > 1 {
                    out.push(')');
                }
            }
            View::Con(c, args) => match (c, args.len()) {
                (TyCon::Arrow, 2) => {
                    if prec > 1 {
                        out.push('(');
                    }
                    self.render_go(args[0], 2, stack, supply, out);
                    out.push_str(" -> ");
                    self.render_go(args[1], 1, stack, supply, out);
                    if prec > 1 {
                        out.push(')');
                    }
                }
                (TyCon::Prod, 2) => {
                    if prec > 2 {
                        out.push('(');
                    }
                    self.render_go(args[0], 3, stack, supply, out);
                    out.push_str(" * ");
                    self.render_go(args[1], 3, stack, supply, out);
                    if prec > 2 {
                        out.push(')');
                    }
                }
                (_, 0) => out.push_str(c.name()),
                _ => {
                    if prec > 3 {
                        out.push('(');
                    }
                    out.push_str(c.name());
                    for a in args {
                        out.push(' ');
                        self.render_go(a, 4, stack, supply, out);
                    }
                    if prec > 3 {
                        out.push(')');
                    }
                }
            },
        }
    }

    // ------------------------------------------------------- snapshots

    /// Flatten the subgraphs reachable from `roots` into portable form
    /// (see [`crate::snapshot`]). Returns the flattened node vector and,
    /// per root, its index therein — `None` where the root reaches an
    /// invented (fresh/skolem) variable, which cannot travel between
    /// processes. Children always precede parents in the output, the
    /// invariant [`Self::absorb_snapshot`] validates on the way back in.
    pub fn export_snapshot(&self, roots: &[SchemeId]) -> (Vec<PortableNode>, Vec<Option<u32>>) {
        let mut nodes: Vec<PortableNode> = Vec::new();
        let mut memo: FxHashMap<SchemeId, Option<u32>> = FxHashMap::default();
        let idxs = roots
            .iter()
            .map(|&r| self.export_portable(r, &mut nodes, &mut memo))
            .collect();
        (nodes, idxs)
    }

    fn export_portable(
        &self,
        id: SchemeId,
        nodes: &mut Vec<PortableNode>,
        memo: &mut FxHashMap<SchemeId, Option<u32>>,
    ) -> Option<u32> {
        if let Some(&idx) = memo.get(&id) {
            return idx;
        }
        let node = match self.view(id) {
            View::Bound(i) => Some(PortableNode::Bound(i)),
            View::Free(v) => v.name().map(|n| PortableNode::Free(n.to_string())),
            View::Con(c, children) => {
                let mut idxs = Vec::with_capacity(children.len());
                let mut ok = true;
                for ch in children {
                    match self.export_portable(ch, nodes, memo) {
                        Some(i) => idxs.push(i),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let pc = match c {
                        TyCon::Int => PortableCon::Int,
                        TyCon::Bool => PortableCon::Bool,
                        TyCon::List => PortableCon::List,
                        TyCon::Arrow => PortableCon::Arrow,
                        TyCon::Prod => PortableCon::Prod,
                        TyCon::St => PortableCon::St,
                        TyCon::Other(s, n) => PortableCon::Other {
                            name: s.as_str().to_string(),
                            arity: n as u32,
                        },
                    };
                    Some(PortableNode::Con(pc, idxs))
                } else {
                    None
                }
            }
            View::Forall(body) => self.export_portable(body, nodes, memo).map(|b| {
                let hint = self.hint(id).and_then(|v| v.name().map(|n| n.to_string()));
                PortableNode::Forall { body: b, hint }
            }),
        };
        let idx = node.map(|n| {
            let i = nodes.len() as u32;
            nodes.push(n);
            i
        });
        memo.insert(id, idx);
        idx
    }

    /// Re-intern a flattened snapshot, remapping its indices to this
    /// bank's ids. Total over arbitrary input: child references must
    /// point strictly backwards and constructor arities must match, or
    /// the whole snapshot is rejected; each node's open de-Bruijn depth
    /// is tracked so [`AbsorbedSnapshot::closed`] can refuse ill-scoped
    /// roots. α-identical schemes re-intern to the ids the bank would
    /// have produced natively — loading a snapshot can only deduplicate,
    /// never fork, the α-class space.
    pub fn absorb_snapshot(
        &self,
        nodes: &[PortableNode],
    ) -> Result<AbsorbedSnapshot, SnapshotError> {
        if nodes.len() > (u32::MAX as usize) {
            return Err(SnapshotError("snapshot too large".into()));
        }
        let mut ids: Vec<SchemeId> = Vec::with_capacity(nodes.len());
        let mut open: Vec<u32> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let child = |c: u32| -> Result<usize, SnapshotError> {
                if (c as usize) < i {
                    Ok(c as usize)
                } else {
                    Err(SnapshotError(format!(
                        "node {i} references child {c} (not topological)"
                    )))
                }
            };
            let (id, o) = match node {
                PortableNode::Bound(k) => (
                    self.intern_node(SNode::Bound(*k), &[], None),
                    k.saturating_add(1),
                ),
                PortableNode::Free(name) => (
                    self.intern_node(SNode::Free(TyVar::named(name)), &[], None),
                    0,
                ),
                PortableNode::Con(pc, children) => {
                    let con = match pc {
                        PortableCon::Int => TyCon::Int,
                        PortableCon::Bool => TyCon::Bool,
                        PortableCon::List => TyCon::List,
                        PortableCon::Arrow => TyCon::Arrow,
                        PortableCon::Prod => TyCon::Prod,
                        PortableCon::St => TyCon::St,
                        PortableCon::Other { name, arity } => {
                            TyCon::Other(Symbol::intern(name), *arity as usize)
                        }
                    };
                    if con.arity() != children.len() {
                        return Err(SnapshotError(format!(
                            "node {i}: constructor {} expects {} children, got {}",
                            con.name(),
                            con.arity(),
                            children.len()
                        )));
                    }
                    let mut args = Vec::with_capacity(children.len());
                    let mut o = 0u32;
                    for &c in children {
                        let c = child(c)?;
                        args.push(ids[c]);
                        o = o.max(open[c]);
                    }
                    (
                        self.intern_node(SNode::Con(con, SRange { start: 0, len: 0 }), &args, None),
                        o,
                    )
                }
                PortableNode::Forall { body, hint } => {
                    let b = child(*body)?;
                    let hint = hint.as_deref().map(TyVar::named);
                    (
                        self.intern_node(SNode::Forall(ids[b]), &[], hint),
                        open[b].saturating_sub(1),
                    )
                }
            };
            ids.push(id);
            open.push(o);
        }
        Ok(AbsorbedSnapshot { ids, open })
    }

    /// Seed the rendering memo for `id` — used by the persistence layer
    /// to reinstall strings rendered by a previous process, so a warm
    /// restart serves schemes without a single cold `pretty` pass.
    /// First writer wins, same as a rendering race; an id that is not
    /// interned here is ignored.
    pub fn seed_rendering(&self, id: SchemeId, s: Arc<str>) {
        let mut g = self.write(shard_of(id));
        if slot_of(id) < g.nodes.len() {
            g.rendered.entry(id).or_insert(s);
        }
    }

    /// Collision-free display names for `count` residual variables that
    /// were grounded out of the scheme `id` (value-restriction
    /// defaulting): consecutive letters from the canonical supply,
    /// *after* the letters the scheme's rendering assigns to its binders
    /// and excluding its free named variables. Every engine route to a
    /// verdict (`core`, `uf`, differential `both`) names residuals
    /// through this one function, so the reports are identical by
    /// construction and can never collide with a name the rendered
    /// scheme itself displays.
    pub fn defaulted_names(&self, id: SchemeId, count: usize) -> Vec<String> {
        if count == 0 {
            return Vec::new();
        }
        let mut supply = self.letters(id);
        self.skip_binder_letters(id, &mut supply);
        (0..count)
            .map(|_| supply.next().expect("infinite supply").as_str().to_string())
            .collect()
    }

    /// The canonical letter supply for `id`: `a, b, c, …`, skipping the
    /// scheme's free named variables. The direct renderer draws binder
    /// names from it, and [`Self::defaulted_names`] draws after them.
    fn letters(&self, id: SchemeId) -> impl Iterator<Item = Symbol> {
        let taken = self
            .free_vars(id)
            .iter()
            .filter_map(|v| v.symbol())
            .collect();
        freezeml_core::types::letter_supply(taken)
    }

    fn skip_binder_letters(&self, id: SchemeId, supply: &mut impl Iterator<Item = Symbol>) {
        match self.view(id) {
            View::Bound(_) | View::Free(_) => {}
            View::Con(_, children) => {
                for ch in children {
                    self.skip_binder_letters(ch, supply);
                }
            }
            View::Forall(body) => {
                supply.next();
                self.skip_binder_letters(body, supply);
            }
        }
    }

    /// The free (non-binder) variables of the scheme, in order of first
    /// appearance.
    pub fn free_vars(&self, id: SchemeId) -> Vec<TyVar> {
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        self.free_vars_go(id, &mut seen, &mut out);
        out
    }

    fn free_vars_go(&self, id: SchemeId, seen: &mut FxHashSet<SchemeId>, out: &mut Vec<TyVar>) {
        if !seen.insert(id) {
            return;
        }
        match self.view(id) {
            View::Bound(_) => {}
            View::Free(v) => {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            View::Con(_, children) => {
                for ch in children {
                    self.free_vars_go(ch, seen, out);
                }
            }
            View::Forall(body) => self.free_vars_go(body, seen, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezeml_core::parse_type;

    fn export_str(bank: &SchemeBank, src: &str) -> SchemeId {
        let mut store = Store::new();
        let t = parse_type(src).unwrap();
        let tid = store.intern_type(&t);
        bank.export(&mut store, tid)
    }

    #[test]
    fn alpha_classes_share_one_id_across_shards() {
        let bank = SchemeBank::new();
        let a = export_str(&bank, "forall a. a -> a");
        let b = export_str(&bank, "forall b. b -> b");
        assert_eq!(a, b);
        let c = export_str(&bank, "forall a b. a -> b");
        let d = export_str(&bank, "forall b a. a -> b");
        assert_ne!(c, d, "quantifier order still matters");
        assert_eq!(
            c,
            bank.intern_type(&parse_type("forall a b. a -> b").unwrap())
        );
    }

    #[test]
    fn export_to_type_round_trips() {
        let bank = SchemeBank::new();
        for src in [
            "Int",
            "forall a. a -> a",
            "forall a b. a -> b -> a * b",
            "(forall a. a -> a) -> Int * Bool",
            "forall s. ST s Int",
            "List (forall a. a -> a)",
        ] {
            let sid = export_str(&bank, src);
            assert!(
                bank.to_type(sid).alpha_eq(&parse_type(src).unwrap()),
                "{src}"
            );
        }
    }

    #[test]
    fn intern_into_round_trips_through_a_store() {
        let bank = SchemeBank::new();
        let sid = export_str(&bank, "forall a. (a -> Int) -> List a");
        let mut fresh = Store::new();
        let tid = bank.intern_into(&mut fresh, sid);
        let z = fresh.zonk(tid);
        assert!(z.alpha_eq(&parse_type("forall a. (a -> Int) -> List a").unwrap()));
    }

    #[test]
    fn core_interning_matches_export() {
        let mut store = Store::new();
        let ty = parse_type("forall a. (forall b. b -> a) -> List a").unwrap();
        let tid = store.intern_type(&ty);
        let bank = SchemeBank::new();
        let exported = bank.export(&mut store, tid);
        let imported = bank.intern_type(&ty);
        assert_eq!(exported, imported);
    }

    #[test]
    fn pretty_memoises_and_matches_tree_printer() {
        let bank = SchemeBank::new();
        let sid = export_str(&bank, "forall a b. (a -> b) -> List a -> List b");
        let direct = bank.pretty(sid);
        assert_eq!(&*direct, &bank.to_type(sid).to_string());
        let before = bank.renders();
        assert_eq!(bank.pretty(sid), direct);
        assert_eq!(bank.renders(), before, "second pretty is a memo hit");
        assert!(bank.render_hits() > 0);
    }

    #[test]
    fn pretty_matches_display_and_memoises() {
        for src in [
            "forall a. a -> a",
            "forall s. ST s Int",
            "(forall a. a -> a) -> Int * Bool",
            "Int * Bool * Int",
            "List (forall a. a -> a)",
        ] {
            let bank = SchemeBank::new();
            let sid = export_str(&bank, src);
            let direct = bank.pretty(sid);
            assert_eq!(&*direct, &bank.to_type(sid).to_string(), "{src}");
            let before = bank.renders();
            assert_eq!(bank.pretty(sid), direct);
            assert_eq!(bank.renders(), before, "second pretty is a memo hit");
            assert!(bank.render_hits() > 0);
        }
    }

    #[test]
    fn pair_chain_exports_in_dag_size() {
        let mut store = Store::new();
        let mut t = store.int();
        for _ in 0..12 {
            t = store.con(TyCon::Prod, &[t, t]);
        }
        let bank = SchemeBank::new();
        let sid = bank.export(&mut store, t);
        assert_eq!(bank.len(), 13, "13 distinct nodes for n=12");
        // …and the on-demand tree still agrees with eager zonking.
        let eager = store.zonk(t);
        assert!(bank.to_type(sid).alpha_eq(&eager));
        // The memoised pretty renders it without building the tree.
        assert_eq!(bank.pretty(sid).len(), eager.to_string().len());
    }

    #[test]
    fn snapshot_round_trips_alpha_classes() {
        let bank = SchemeBank::new();
        let srcs = [
            "Int",
            "forall a. a -> a",
            "forall a b. a -> b -> a * b",
            "(forall a. a -> a) -> Int * Bool",
            "forall s. ST s Int",
            "List (forall a. a -> a)",
        ];
        let roots: Vec<SchemeId> = srcs.iter().map(|s| export_str(&bank, s)).collect();
        let (nodes, idxs) = bank.export_snapshot(&roots);
        let fresh = SchemeBank::new();
        let absorbed = fresh.absorb_snapshot(&nodes).unwrap();
        for (i, src) in srcs.iter().enumerate() {
            let idx = idxs[i].expect("all named/closed");
            let id = absorbed.closed(idx).expect("roots are closed");
            assert!(
                fresh.to_type(id).alpha_eq(&parse_type(src).unwrap()),
                "{src}"
            );
            // Renders are byte-identical across the round trip.
            assert_eq!(bank.pretty(roots[i]), fresh.pretty(id), "{src}");
        }
        // Absorbing into the *same* bank maps back to the original ids:
        // re-interning deduplicates rather than forks α-classes.
        let back = bank.absorb_snapshot(&nodes).unwrap();
        for (i, &root) in roots.iter().enumerate() {
            assert_eq!(back.closed(idxs[i].unwrap()), Some(root));
        }
    }

    #[test]
    fn snapshot_skips_invented_variables() {
        let bank = SchemeBank::new();
        let named = export_str(&bank, "forall a. a -> a");
        let fresh_var = bank.intern_type(&Type::Var(TyVar::fresh()));
        let (nodes, idxs) = bank.export_snapshot(&[named, fresh_var]);
        assert!(idxs[0].is_some());
        assert!(idxs[1].is_none(), "fresh vars are unportable");
        assert!(nodes
            .iter()
            .all(|n| !matches!(n, crate::snapshot::PortableNode::Free(s) if s.starts_with('%'))));
    }

    #[test]
    fn absorb_rejects_malformed_snapshots() {
        use crate::snapshot::{PortableCon, PortableNode};
        let bank = SchemeBank::new();
        // Forward (non-topological) child reference.
        assert!(bank
            .absorb_snapshot(&[PortableNode::Con(PortableCon::List, vec![1])])
            .is_err());
        // Self reference.
        assert!(bank
            .absorb_snapshot(&[PortableNode::Forall {
                body: 0,
                hint: None
            }])
            .is_err());
        // Arity mismatch.
        assert!(bank
            .absorb_snapshot(&[
                PortableNode::Free("a".into()),
                PortableNode::Con(PortableCon::Arrow, vec![0]),
            ])
            .is_err());
        // A dangling Bound absorbs but is not closed, so it can never
        // be used as a root.
        let a = bank.absorb_snapshot(&[PortableNode::Bound(3)]).unwrap();
        assert_eq!(a.closed(0), None);
        assert_eq!(a.closed(7), None, "out-of-range index is rejected");
        // Properly scoped quantification closes it.
        let a = bank
            .absorb_snapshot(&[
                PortableNode::Bound(0),
                PortableNode::Forall {
                    body: 0,
                    hint: Some("a".into()),
                },
            ])
            .unwrap();
        assert_eq!(a.closed(0), None, "bare Bound stays open");
        let id = a.closed(1).expect("forall closes the binder");
        assert!(bank
            .to_type(id)
            .alpha_eq(&parse_type("forall a. a").unwrap()));
    }

    #[test]
    fn seed_rendering_feeds_the_pretty_memo() {
        let bank = SchemeBank::new();
        let id = export_str(&bank, "forall a. a -> a");
        let canonical: Arc<str> = Arc::from("forall a. a -> a");
        bank.seed_rendering(id, Arc::clone(&canonical));
        let before = bank.renders();
        assert_eq!(&*bank.pretty(id), &*canonical);
        assert_eq!(bank.renders(), before, "seeded pretty is a memo hit");
        // Seeding never overwrites an existing rendering.
        bank.seed_rendering(id, Arc::from("bogus"));
        assert_eq!(&*bank.pretty(id), &*canonical);
    }

    #[test]
    fn shared_forall_subterms_stay_dag_sized_both_ways() {
        // Regression: a quantified subterm shared across a pair chain is
        // scope-closed, so export and re-import must memoise it — a
        // "never memoise ∀" rule degenerates both directions to the full
        // 2ⁿ tree (and import freshens a binder per visit).
        let mut store = Store::new();
        let id_ty = parse_type("forall a. a -> a").unwrap();
        let mut t = store.intern_type(&id_ty);
        for _ in 0..20 {
            t = store.con(TyCon::Prod, &[t, t]);
        }
        let bank = SchemeBank::new();
        let sid = bank.export(&mut store, t);
        assert!(bank.len() <= 32, "export blew up: {} nodes", bank.len());
        let mut fresh = Store::new();
        let back = bank.intern_into(&mut fresh, sid);
        assert_eq!(fresh.children(back).len(), 2);
        // A chain small enough to zonk round-trips to the same tree.
        let mut small = Store::new();
        let mut st = small.intern_type(&id_ty);
        for _ in 0..3 {
            st = small.con(TyCon::Prod, &[st, st]);
        }
        let ssid = bank.export(&mut small, st);
        let mut small_fresh = Store::new();
        let sback = bank.intern_into(&mut small_fresh, ssid);
        let z = small_fresh.zonk(sback);
        assert!(z.alpha_eq(&small.zonk(st)));
    }

    #[test]
    fn free_vars_in_order() {
        let bank = SchemeBank::new();
        let sid = export_str(&bank, "b -> a -> b");
        let names: Vec<String> = bank.free_vars(sid).iter().map(|v| v.to_string()).collect();
        assert_eq!(names, ["b", "a"]);
    }
}
