//! The mutable type store: a hash-consed arena of type nodes plus a
//! union-find bank of flexible-variable cells.
//!
//! This is the data layer the union-find engine runs on, replacing the
//! paper-literal representation (`core::Type` trees, `Subst` composition,
//! `RefinedEnv` rebuilding) with the machinery every production ML
//! implementation uses:
//!
//! * **Arena interning** — types are [`TypeId`]s into a node arena;
//!   structurally identical subtrees share one node, so equality of
//!   interned ids implies structural identity and deep types built by
//!   repeated application (e.g. the exponential pair chain) collapse to
//!   DAGs. A [`Node`] is `Copy`: `Con` children live in a **flat child
//!   slab** addressed by [`ChildRange`], so a node never owns a heap
//!   allocation and interning never hashes an owned vector — the intern
//!   table maps a structural 64-bit fingerprint straight to a `TypeId`
//!   (collisions fall back to linear re-probing; a genuine 64-bit
//!   collision merely costs one extra probe, never a wrong answer).
//! * **Union-find cells** — a flexible variable is a [`VarId`] into a cell
//!   bank. Solving a variable writes its cell once; *demotion* (the
//!   paper's `demote(•, Θ, ∆′)`, Figure 15) is a kind-field update on the
//!   cell — O(α) per variable instead of rebuilding `Θ`.
//! * **Path compression** — [`Store::resolve`] shortens link chains as it
//!   follows them, so repeated resolution of a solved chain is amortised
//!   constant.
//! * **Levels** — every cell records the generalisation level at which it
//!   was created (Rémy-style). Binding propagates the minimum level into
//!   the bound type, so "is this variable reachable from the environment
//!   that existed before this `let` right-hand side?" — the paper's
//!   `∆′ = ftv(θ₁)` side condition — is a single integer comparison.
//! * **Trail** — every cell mutation (solution, kind, level, compression)
//!   is journalled. The trail serves three masters: the quantifier rule's
//!   skolem-escape check and the annotated-`let` escape check scan the
//!   bindings made inside a scope (exactly the paper's `c ∉ ftv(θ′)` and
//!   `ftv(θ₂) # ∆′` assertions, restricted to the delta of state they
//!   could have changed), and benchmarks roll the store back to a mark to
//!   re-run workloads on identical state.
//!
//! **Binder freshening.** [`Store::intern_type`] α-renames every `∀`
//! binder to a globally fresh [`TyVar`] while interning. Binder names are
//! therefore unique across the store, which makes substitution
//! ([`Store::subst_rigid`]) and zonking ([`Store::zonk`]) trivially
//! capture-avoiding — no occurrence of a binder can ever be confused with
//! a like-named rigid variable flowing in through a solved cell. Pretty
//! printing and α-equivalence are unaffected (the printer letters
//! invented binders).

use freezeml_core::{Kind, TyCon, TyVar, Type};
use fxhash::{FxHashMap, FxHashSet};
use std::hash::{Hash, Hasher};

/// An interned type: an index into the store's node arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TypeId(u32);

/// A flexible (unification) variable: an index into the store's cell bank.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct VarId(u32);

impl VarId {
    /// The cell ordinal. Cells are numbered in creation order, so
    /// comparing against a [`Store::var_count`] watermark asks "did this
    /// variable exist before the scope opened?".
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A `Con` node's children: a contiguous range in the store's child slab.
/// `Copy`, two words — the node itself owns nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChildRange {
    start: u32,
    len: u32,
}

impl ChildRange {
    /// Number of children.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Is the range empty (a nullary constructor)?
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One arena node. `Copy`: `Con` children sit in the store's flat child
/// slab ([`ChildRange`]), `Forall` bodies are [`TypeId`]s — a node never
/// owns a subtree or a heap allocation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// A rigid variable: source-named, annotation-bound, a freshened `∀`
    /// binder, or a unification skolem.
    Rigid(TyVar),
    /// A flexible variable — resolution must consult its cell.
    Flex(VarId),
    /// A fully applied constructor; children via [`Store::children`].
    Con(TyCon, ChildRange),
    /// A quantified type. The binder name is globally unique (freshened
    /// at interning / generalisation time).
    Forall(TyVar, TypeId),
}

/// An allocation-free projection of a [`Node`] for traversal — see
/// [`Store::shape`]. `Copy`; with interned names the projection is a
/// couple of machine words.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// A rigid variable.
    Rigid(TyVar),
    /// A flexible variable.
    Flex(VarId),
    /// A constructor head and its argument count.
    Con(TyCon, usize),
    /// A quantifier and its body.
    Forall(TyVar, TypeId),
}

/// The mutable state of one flexible variable.
#[derive(Clone, Debug)]
struct Cell {
    /// `Some(t)` once solved; resolution follows these links.
    solution: Option<TypeId>,
    /// The paper's refined kind `•`/`⋆` (Figure 12); demotion rewrites it
    /// in place.
    kind: Kind,
    /// Generalisation level at creation, min-propagated on binding.
    level: u32,
    /// Stable fresh name used when the variable survives to zonking.
    name: TyVar,
}

/// A saved cell snapshot; [`Store::undo_to`] restores them in reverse.
struct TrailEntry {
    var: VarId,
    solution: Option<TypeId>,
    kind: Kind,
    level: u32,
}

/// An opaque trail mark (see [`Store::mark`]). Carries the store's reset
/// epoch so a mark that predates a [`Store::reset_to`] cannot silently
/// roll back the wrong journal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mark {
    trail: usize,
    epoch: u32,
}

/// The arena + union-find store. See the module documentation.
#[derive(Default)]
pub struct Store {
    nodes: Vec<Node>,
    /// Flat slab of `Con` children; nodes address it by [`ChildRange`].
    children: Vec<TypeId>,
    /// Structural fingerprint → id. On a (vanishingly rare) fingerprint
    /// collision the insert re-probes with [`reprobe`]; lookups verify
    /// structural equality before trusting an entry, so collisions cost
    /// probes, never correctness.
    intern: FxHashMap<u64, TypeId>,
    cells: Vec<Cell>,
    trail: Vec<TrailEntry>,
    /// Current generalisation level (incremented inside `let` right-hand
    /// sides).
    level: u32,
    /// Bumped by [`Store::reset_to`]; invalidates outstanding [`Mark`]s.
    epoch: u32,
    /// Source name of each freshened `∀` binder, so zonking can restore
    /// the programmer's names when no collision forbids it.
    binder_src: FxHashMap<TyVar, TyVar>,
    /// Freshened binders in creation order, so [`Store::reset_to`] can
    /// evict their `binder_src` entries.
    binder_log: Vec<TyVar>,
}

/// A store-extent snapshot (see [`Store::checkpoint`]).
#[derive(Clone, Copy, Debug)]
pub struct StoreMark {
    nodes: usize,
    children: usize,
    cells: usize,
    binders: usize,
}

/// Next probe position after a fingerprint collision (deterministic, so
/// [`Store::reset_to`] can retrace an entry's probe chain). Shared with
/// the scheme bank's interner — one probe protocol, one constant.
pub(crate) fn reprobe(h: u64) -> u64 {
    h.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15
}

fn fingerprint(node: &Node, children: &[TypeId]) -> u64 {
    let mut h = fxhash::FxHasher::default();
    match node {
        Node::Rigid(v) => {
            h.write_u8(0);
            v.hash(&mut h);
        }
        Node::Flex(v) => {
            h.write_u8(1);
            h.write_u32(v.0);
        }
        Node::Con(c, _) => {
            h.write_u8(2);
            c.hash(&mut h);
            h.write_u32(children.len() as u32);
            for &t in children {
                h.write_u32(t.0);
            }
        }
        Node::Forall(v, b) => {
            h.write_u8(3);
            v.hash(&mut h);
            h.write_u32(b.0);
        }
    }
    h.finish()
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The children of a `Con` node (empty for every other node kind).
    pub fn children(&self, t: TypeId) -> &[TypeId] {
        match self.nodes[t.0 as usize] {
            Node::Con(_, r) => &self.children[r.start as usize..(r.start + r.len) as usize],
            _ => &[],
        }
    }

    /// Is the interned node `t` structurally identical to `node` (whose
    /// prospective children are `args`)?
    fn node_eq(&self, t: TypeId, node: &Node, args: &[TypeId]) -> bool {
        match (&self.nodes[t.0 as usize], node) {
            (Node::Rigid(a), Node::Rigid(b)) => a == b,
            (Node::Flex(a), Node::Flex(b)) => a == b,
            (Node::Con(c, _), Node::Con(d, _)) => c == d && self.children(t) == args,
            (Node::Forall(a, x), Node::Forall(b, y)) => a == b && x == y,
            _ => false,
        }
    }

    /// Intern a node whose `Con` children (if any) are given by `args`
    /// and not yet in the slab. Returns the existing id for structurally
    /// identical nodes; otherwise copies `args` into the slab and
    /// allocates.
    fn intern_node(&mut self, node: Node, args: &[TypeId]) -> TypeId {
        let mut h = fingerprint(&node, args);
        loop {
            match self.intern.get(&h) {
                Some(&id) if self.node_eq(id, &node, args) => return id,
                Some(_) => h = reprobe(h), // fingerprint collision
                None => break,
            }
        }
        let id = TypeId(self.nodes.len() as u32);
        let node = match node {
            Node::Con(c, _) => {
                let start = self.children.len() as u32;
                self.children.extend_from_slice(args);
                Node::Con(
                    c,
                    ChildRange {
                        start,
                        len: args.len() as u32,
                    },
                )
            }
            other => other,
        };
        self.nodes.push(node);
        self.intern.insert(h, id);
        id
    }

    /// The node behind an id (not resolved — `Flex` nodes stay `Flex`).
    pub fn node(&self, t: TypeId) -> &Node {
        &self.nodes[t.0 as usize]
    }

    /// An allocation-free projection of a node for traversal: `Con`
    /// carries only its head and arity (children are fetched by index
    /// with [`Store::con_child`]). Everything is `Copy` — interned names
    /// make this a register-width move, no `Arc` bumps.
    pub fn shape(&self, t: TypeId) -> Shape {
        match self.nodes[t.0 as usize] {
            Node::Rigid(v) => Shape::Rigid(v),
            Node::Flex(v) => Shape::Flex(v),
            Node::Con(c, r) => Shape::Con(c, r.len()),
            Node::Forall(v, b) => Shape::Forall(v, b),
        }
    }

    /// The `i`th argument of a `Con` node.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a `Con` or `i` is out of range.
    pub fn con_child(&self, t: TypeId, i: usize) -> TypeId {
        match self.nodes[t.0 as usize] {
            Node::Con(_, r) => {
                assert!(i < r.len(), "con_child index {i} out of range");
                self.children[r.start as usize + i]
            }
            other => panic!("con_child on non-Con node {other:?}"),
        }
    }

    /// A rigid variable node.
    pub fn rigid(&mut self, v: TyVar) -> TypeId {
        self.intern_node(Node::Rigid(v), &[])
    }

    /// The node for an existing flexible variable.
    pub fn flex(&mut self, v: VarId) -> TypeId {
        self.intern_node(Node::Flex(v), &[])
    }

    /// A constructor application.
    pub fn con(&mut self, c: TyCon, args: &[TypeId]) -> TypeId {
        self.intern_node(Node::Con(c, ChildRange { start: 0, len: 0 }), args)
    }

    /// The function type `a -> b`.
    pub fn arrow(&mut self, a: TypeId, b: TypeId) -> TypeId {
        self.con(TyCon::Arrow, &[a, b])
    }

    /// `Int`.
    pub fn int(&mut self) -> TypeId {
        self.con(TyCon::Int, &[])
    }

    /// `Bool`.
    pub fn bool(&mut self) -> TypeId {
        self.con(TyCon::Bool, &[])
    }

    /// A quantified type (the binder must be globally fresh — callers
    /// either freshen at interning time or use a cell's unique name).
    pub fn forall(&mut self, v: TyVar, body: TypeId) -> TypeId {
        self.intern_node(Node::Forall(v, body), &[])
    }

    /// A globally fresh `∀` binder, optionally recording the source name
    /// it stands for so zonking restores it (used when layering cached
    /// schemes back into the store — see
    /// [`SchemeBank::intern_into`](crate::bank::SchemeBank::intern_into)).
    pub fn fresh_binder(&mut self, src: Option<TyVar>) -> TyVar {
        let fresh = TyVar::fresh();
        if let Some(src) = src {
            self.binder_src.insert(fresh, src);
            self.binder_log.push(fresh);
        }
        fresh
    }

    /// A snapshot of the store's extent, for [`Store::reset_to`].
    pub fn checkpoint(&self) -> StoreMark {
        StoreMark {
            nodes: self.nodes.len(),
            children: self.children.len(),
            cells: self.cells.len(),
            binders: self.binder_log.len(),
        }
    }

    /// Shrink the store back to a checkpoint: drop every node, child-slab
    /// entry, cell, freshened-binder record, and trail entry created
    /// since. Sound only when (a) nothing outside the store references
    /// post-checkpoint ids and (b) no pre-checkpoint cell was mutated
    /// after it (nodes only ever reference older nodes, so pre-checkpoint
    /// state is closed). Outstanding [`Mark`]s are invalidated (their
    /// epoch no longer matches). [`Session`](crate::Session) uses this to
    /// reclaim per-term state.
    pub fn reset_to(&mut self, mark: &StoreMark) {
        self.epoch += 1;
        debug_assert!(self
            .cells
            .iter()
            .take(mark.cells)
            .all(|c| c.solution.is_none_or(|t| (t.0 as usize) < mark.nodes)));
        // Evict dropped nodes from the intern table by retracing each
        // one's probe chain.
        for idx in (mark.nodes..self.nodes.len()).rev() {
            let id = TypeId(idx as u32);
            let node = self.nodes[idx];
            let mut h = fingerprint(&node, self.children(id));
            loop {
                match self.intern.get(&h) {
                    Some(&found) if found == id => {
                        self.intern.remove(&h);
                        break;
                    }
                    Some(_) => h = reprobe(h),
                    // Possible only if the node was a duplicate that lost
                    // an interleaved probe race with a collision partner;
                    // nothing to evict.
                    None => break,
                }
            }
        }
        self.nodes.truncate(mark.nodes);
        self.children.truncate(mark.children);
        self.cells.truncate(mark.cells);
        for b in self.binder_log.drain(mark.binders..) {
            self.binder_src.remove(&b);
        }
        self.trail.clear();
    }

    /// A fresh flexible variable of the given kind at the current level.
    /// Returns its cell id and its node.
    pub fn fresh_var(&mut self, kind: Kind) -> (VarId, TypeId) {
        let v = VarId(self.cells.len() as u32);
        self.cells.push(Cell {
            solution: None,
            kind,
            level: self.level,
            name: TyVar::fresh(),
        });
        let id = self.flex(v);
        (v, id)
    }

    /// Number of cells ever created (used as a scope watermark: cells with
    /// ids `< var_count()` existed before the scope opened).
    pub fn var_count(&self) -> usize {
        self.cells.len()
    }

    /// The kind currently recorded for a variable.
    pub fn kind_of(&self, v: VarId) -> Kind {
        self.cells[v.0 as usize].kind
    }

    /// The level currently recorded for a variable.
    pub fn level_of(&self, v: VarId) -> u32 {
        self.cells[v.0 as usize].level
    }

    /// Is the variable solved?
    pub fn is_solved(&self, v: VarId) -> bool {
        self.cells[v.0 as usize].solution.is_some()
    }

    /// The stable zonk name of a variable.
    pub fn name_of(&self, v: VarId) -> TyVar {
        self.cells[v.0 as usize].name
    }

    /// Enter a `let` right-hand side (one generalisation level deeper).
    pub fn enter_level(&mut self) {
        self.level += 1;
    }

    /// Leave a `let` right-hand side.
    pub fn leave_level(&mut self) {
        self.level -= 1;
    }

    /// The current generalisation level.
    pub fn current_level(&self) -> u32 {
        self.level
    }

    // ------------------------------------------------------------ trail

    /// A mark for [`Store::undo_to`] / [`Store::bound_since`].
    pub fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len(),
            epoch: self.epoch,
        }
    }

    /// Save a cell's state before mutating it.
    fn save(&mut self, v: VarId) {
        let c = &self.cells[v.0 as usize];
        self.trail.push(TrailEntry {
            var: v,
            solution: c.solution,
            kind: c.kind,
            level: c.level,
        });
    }

    /// Roll every cell mutation since `mark` back (benchmark replay; never
    /// used by inference itself, which only scans the trail).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a mark from before a [`Store::reset_to`]
    /// — the journal it indexed no longer exists.
    pub fn undo_to(&mut self, mark: Mark) {
        debug_assert_eq!(mark.epoch, self.epoch, "mark predates a reset_to");
        while self.trail.len() > mark.trail {
            let e = self.trail.pop().expect("trail len checked");
            let c = &mut self.cells[e.var.0 as usize];
            c.solution = e.solution;
            c.kind = e.kind;
            c.level = e.level;
        }
    }

    /// The variables that went from unsolved to solved since `mark`, in
    /// binding order (deduplicated; compression entries are skipped).
    pub fn bound_since(&self, mark: Mark) -> Vec<VarId> {
        debug_assert_eq!(mark.epoch, self.epoch, "mark predates a reset_to");
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for e in &self.trail[mark.trail..] {
            if e.solution.is_none() && self.is_solved(e.var) && seen.insert(e.var) {
                out.push(e.var);
            }
        }
        out
    }

    /// Demote a variable to kind `•` (trail-recorded).
    pub fn demote(&mut self, v: VarId) {
        if self.cells[v.0 as usize].kind != Kind::Mono {
            self.save(v);
            self.cells[v.0 as usize].kind = Kind::Mono;
        }
    }

    /// Lower a variable's level to at most `level` (trail-recorded).
    fn lower_level(&mut self, v: VarId, level: u32) {
        if self.cells[v.0 as usize].level > level {
            self.save(v);
            self.cells[v.0 as usize].level = level;
        }
    }

    /// Solve a variable (trail-recorded). The caller is responsible for
    /// the occurs check and kind discipline (see `unify::bind`).
    pub fn solve(&mut self, v: VarId, t: TypeId) {
        debug_assert!(self.cells[v.0 as usize].solution.is_none());
        self.save(v);
        self.cells[v.0 as usize].solution = Some(t);
    }

    // ------------------------------------------------------- resolution

    /// Follow solved-variable links to the representative, compressing the
    /// path (trail-recorded so benchmarks can roll back).
    pub fn resolve(&mut self, t: TypeId) -> TypeId {
        let mut cur = t;
        while let Node::Flex(v) = self.node(cur) {
            match self.cells[v.0 as usize].solution {
                Some(next) => cur = next,
                None => break,
            }
        }
        // Path compression: repoint every link on the chain at the root.
        let mut walk = t;
        while walk != cur {
            let Node::Flex(v) = *self.node(walk) else {
                break;
            };
            let next = self.cells[v.0 as usize].solution.expect("on solved chain");
            if next != cur {
                self.save(v);
                self.cells[v.0 as usize].solution = Some(cur);
            }
            walk = next;
        }
        cur
    }

    // -------------------------------------------------------- interning

    /// Intern a `core` type, freshening every `∀` binder. Free named
    /// variables become [`Node::Rigid`] under their own names.
    pub fn intern_type(&mut self, ty: &Type) -> TypeId {
        self.intern_type_with(ty, &FxHashMap::default())
    }

    /// Intern a `core` type, mapping the given free variables to existing
    /// nodes (used to route a test environment's flexible `TyVar`s to
    /// their cells). Bound occurrences always win over the map.
    pub fn intern_type_with(&mut self, ty: &Type, free: &FxHashMap<TyVar, TypeId>) -> TypeId {
        let mut bound = Vec::new();
        self.intern_go(ty, free, &mut bound)
    }

    fn intern_go(
        &mut self,
        ty: &Type,
        free: &FxHashMap<TyVar, TypeId>,
        bound: &mut Vec<(TyVar, TypeId)>,
    ) -> TypeId {
        match ty {
            Type::Var(a) => {
                if let Some((_, id)) = bound.iter().rev().find(|(b, _)| b == a) {
                    *id
                } else if let Some(&id) = free.get(a) {
                    id
                } else {
                    self.rigid(*a)
                }
            }
            Type::Con(c, args) => {
                let ids: Vec<TypeId> = args
                    .iter()
                    .map(|t| self.intern_go(t, free, bound))
                    .collect();
                self.con(*c, &ids)
            }
            Type::Forall(a, body) => {
                let fresh = TyVar::fresh();
                self.binder_src.insert(fresh, *a);
                self.binder_log.push(fresh);
                let fresh_id = self.rigid(fresh);
                bound.push((*a, fresh_id));
                let b = self.intern_go(body, free, bound);
                bound.pop();
                self.forall(fresh, b)
            }
        }
    }

    // ----------------------------------------------------------- zonking

    /// Read an interned type back as a `core` type, resolving every solved
    /// variable. Unsolved variables appear under their stable fresh names,
    /// which `core`'s printer letters exactly like its own flexibles.
    /// Freshened binders get their source names back whenever the name is
    /// not free in the body (so the output names match what the
    /// paper-literal engine would print; `rename_free` keeps the
    /// restoration capture-avoiding in the shadowed-binder corner).
    ///
    /// This re-expands a DAG-shared type into a tree — worst case
    /// exponential in the store representation (the pair chain). It is
    /// the *protocol boundary* operation: inference itself never calls
    /// it, and the scheme pipeline ([`crate::bank`]) exports results
    /// without it.
    pub fn zonk(&mut self, t: TypeId) -> Type {
        let t = self.resolve(t);
        match self.shape(t) {
            Shape::Rigid(v) => Type::Var(v),
            Shape::Flex(v) => Type::Var(self.name_of(v)),
            Shape::Con(c, n) => {
                let args = (0..n)
                    .map(|i| {
                        let child = self.con_child(t, i);
                        self.zonk(child)
                    })
                    .collect();
                Type::Con(c, args)
            }
            Shape::Forall(v, body) => {
                let body = self.zonk(body);
                if let Some(src) = self.binder_src.get(&v).copied() {
                    if !body.occurs_free(&src) {
                        let body = body.rename_free(&v, &Type::Var(src));
                        return Type::Forall(src, Box::new(body));
                    }
                }
                Type::Forall(v, Box::new(body))
            }
        }
    }

    /// The source name recorded for a freshened binder, if any.
    pub(crate) fn binder_source(&self, v: &TyVar) -> Option<TyVar> {
        self.binder_src.get(v).copied()
    }

    // ------------------------------------------------------ substitution

    /// Replace free occurrences of the rigid variable `from` by `to`,
    /// resolving solved cells on the way (so occurrences reachable through
    /// a generalised cell are rewritten too). Binder uniqueness makes this
    /// capture-free; a memo keeps it linear in the (DAG) size and returns
    /// the original id for untouched subtrees.
    pub fn subst_rigid(&mut self, t: TypeId, from: &TyVar, to: TypeId) -> TypeId {
        let mut memo = FxHashMap::default();
        self.subst_go(t, from, to, &mut memo)
    }

    fn subst_go(
        &mut self,
        t: TypeId,
        from: &TyVar,
        to: TypeId,
        memo: &mut FxHashMap<TypeId, TypeId>,
    ) -> TypeId {
        let t = self.resolve(t);
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = match self.shape(t) {
            Shape::Rigid(v) => {
                if v == *from {
                    to
                } else {
                    t
                }
            }
            Shape::Flex(_) => t, // unsolved: cannot contain a rigid
            Shape::Con(c, n) => {
                let mut changed = false;
                let ids: Vec<TypeId> = (0..n)
                    .map(|i| {
                        let child = self.con_child(t, i);
                        let sub = self.subst_go(child, from, to, memo);
                        changed |= sub != child;
                        sub
                    })
                    .collect();
                if changed {
                    self.con(c, &ids)
                } else {
                    t
                }
            }
            Shape::Forall(v, body) => {
                // Binders are globally unique, so `v != from` always and
                // no capture is possible.
                debug_assert_ne!(&v, from, "duplicate binder in store");
                let b = self.subst_go(body, from, to, memo);
                if b == body {
                    t
                } else {
                    self.forall(v, b)
                }
            }
        };
        memo.insert(t, r);
        r
    }

    // ----------------------------------------------------------- queries

    /// Does the rigid variable `v` occur in the resolved type? (Skolem and
    /// annotation-variable escape checks.)
    pub fn occurs_rigid(&mut self, t: TypeId, v: &TyVar) -> bool {
        let mut seen = FxHashSet::default();
        self.occurs_rigid_go(t, v, &mut seen)
    }

    fn occurs_rigid_go(&mut self, t: TypeId, v: &TyVar, seen: &mut FxHashSet<TypeId>) -> bool {
        let t = self.resolve(t);
        if !seen.insert(t) {
            return false;
        }
        match self.shape(t) {
            Shape::Rigid(w) => w == *v,
            Shape::Flex(_) => false,
            Shape::Con(_, n) => (0..n).any(|i| {
                let child = self.con_child(t, i);
                self.occurs_rigid_go(child, v, seen)
            }),
            Shape::Forall(_, body) => self.occurs_rigid_go(body, v, seen),
        }
    }

    /// The distinct unsolved flexible variables free in the resolved type,
    /// in order of first appearance (the paper's ordered `ftv`).
    pub fn free_flex(&mut self, t: TypeId) -> Vec<VarId> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        self.free_flex_go(t, &mut seen, &mut out);
        out
    }

    fn free_flex_go(&mut self, t: TypeId, seen: &mut FxHashSet<TypeId>, out: &mut Vec<VarId>) {
        let t = self.resolve(t);
        if !seen.insert(t) {
            return;
        }
        match self.shape(t) {
            Shape::Rigid(_) => {}
            Shape::Flex(v) => out.push(v),
            Shape::Con(_, n) => {
                for i in 0..n {
                    let child = self.con_child(t, i);
                    self.free_flex_go(child, seen, out);
                }
            }
            Shape::Forall(_, body) => self.free_flex_go(body, seen, out),
        }
    }

    /// What `unify::bind` needs to know about a candidate solution, in one
    /// memoized walk over the resolved type: does the variable being
    /// solved occur (the occurs check), does a quantifier occur anywhere
    /// (the kind check), and which unsolved variables are free in it (for
    /// demotion and level propagation).
    pub fn analyze(&mut self, t: TypeId, x: VarId) -> Analysis {
        let mut a = Analysis::default();
        let mut seen = FxHashSet::default();
        self.analyze_go(t, x, &mut seen, &mut a);
        a
    }

    fn analyze_go(&mut self, t: TypeId, x: VarId, seen: &mut FxHashSet<TypeId>, a: &mut Analysis) {
        let t = self.resolve(t);
        if !seen.insert(t) {
            return;
        }
        match self.shape(t) {
            Shape::Rigid(_) => {}
            Shape::Flex(v) => {
                if v == x {
                    a.occurs = true;
                } else {
                    a.flex.push(v);
                }
            }
            Shape::Con(_, n) => {
                for i in 0..n {
                    let child = self.con_child(t, i);
                    self.analyze_go(child, x, seen, a);
                }
            }
            Shape::Forall(_, body) => {
                a.has_forall = true;
                self.analyze_go(body, x, seen, a);
            }
        }
    }

    /// Propagate a binding's level and (for `•`-kinded bindings, Figure
    /// 15's `demote`) kind into the free variables of the solution.
    pub fn absorb(&mut self, vars: &[VarId], level: u32, demote: bool) {
        for &v in vars {
            self.lower_level(v, level);
            if demote {
                self.demote(v);
            }
        }
    }
}

/// Result of [`Store::analyze`].
#[derive(Default, Debug)]
pub struct Analysis {
    /// The solved-for variable occurs in the candidate type.
    pub occurs: bool,
    /// A `∀` occurs somewhere in the candidate type.
    pub has_forall: bool,
    /// Distinct unsolved variables free in the candidate, in order.
    pub flex: Vec<VarId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use freezeml_core::parse_type;

    #[test]
    fn interning_shares_nodes() {
        let mut s = Store::new();
        let a = s.int();
        let b = s.int();
        assert_eq!(a, b);
        let f1 = s.arrow(a, b);
        let f2 = s.arrow(a, b);
        assert_eq!(f1, f2);
    }

    #[test]
    fn nodes_are_copy_and_slab_backed() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Node>();
        assert_copy::<Shape>();
        let mut s = Store::new();
        let i = s.int();
        let b = s.bool();
        let p = s.con(TyCon::Prod, &[i, b]);
        assert_eq!(s.children(p), &[i, b]);
        assert_eq!(s.con_child(p, 0), i);
        assert_eq!(s.con_child(p, 1), b);
        assert!(s.children(i).is_empty());
    }

    #[test]
    fn reset_evicts_interned_nodes_and_children() {
        let mut s = Store::new();
        let i = s.int();
        let mark = s.checkpoint();
        let b = s.bool();
        let p = s.con(TyCon::Prod, &[i, b]);
        let slab_len = s.children.len();
        assert!(slab_len >= 2);
        s.reset_to(&mark);
        // Dropped nodes are gone from arena, slab, and intern table…
        assert_eq!(s.nodes.len(), 1);
        assert!(s.children.len() < slab_len);
        // …and re-creating them re-interns fresh ids at the same slots.
        let b2 = s.bool();
        let p2 = s.con(TyCon::Prod, &[i, b2]);
        assert_eq!(b2, b, "slot reuse after reset");
        assert_eq!(p2, p);
        // Pre-mark nodes still deduplicate.
        assert_eq!(s.int(), i);
    }

    #[test]
    fn binders_are_freshened() {
        let mut s = Store::new();
        let t = parse_type("forall a. a -> a").unwrap();
        let id1 = s.intern_type(&t);
        let id2 = s.intern_type(&t);
        // Fresh binders each time: different interned identities…
        assert_ne!(id1, id2);
        // …but both zonk back to the same α-class.
        assert!(s.zonk(id1).alpha_eq(&t));
        assert!(s.zonk(id2).alpha_eq(&t));
    }

    #[test]
    fn free_vars_keep_their_names() {
        let mut s = Store::new();
        let t = parse_type("a -> forall b. b -> a").unwrap();
        let id = s.intern_type(&t);
        let z = s.zonk(id);
        assert!(z.alpha_eq(&t));
        assert_eq!(z.ftv(), t.ftv());
    }

    #[test]
    fn resolve_follows_and_compresses() {
        let mut s = Store::new();
        let (x, xid) = s.fresh_var(Kind::Poly);
        let (y, yid) = s.fresh_var(Kind::Poly);
        let i = s.int();
        s.solve(x, yid);
        s.solve(y, i);
        assert_eq!(s.resolve(xid), i);
        // Compressed: x now links straight to Int.
        assert_eq!(s.cells[x.0 as usize].solution, Some(i));
    }

    #[test]
    fn undo_restores_solutions_kinds_and_levels() {
        let mut s = Store::new();
        let (x, xid) = s.fresh_var(Kind::Poly);
        let m = s.mark();
        let i = s.int();
        s.solve(x, i);
        s.demote(x);
        assert_eq!(s.resolve(xid), i);
        s.undo_to(m);
        assert_eq!(s.resolve(xid), xid);
        assert_eq!(s.kind_of(x), Kind::Poly);
    }

    #[test]
    fn bound_since_reports_bindings_not_compressions() {
        let mut s = Store::new();
        let (x, _) = s.fresh_var(Kind::Poly);
        let (y, yid) = s.fresh_var(Kind::Poly);
        let m = s.mark();
        s.solve(x, yid);
        let i = s.int();
        s.solve(y, i);
        let xid = s.flex(x);
        let _ = s.resolve(xid); // compresses x
        assert_eq!(s.bound_since(m), vec![x, y]);
    }

    #[test]
    fn subst_rigid_rewrites_through_solutions() {
        let mut s = Store::new();
        let (x, xid) = s.fresh_var(Kind::Poly);
        let a = TyVar::named("a");
        let aid = s.rigid(a);
        s.solve(x, aid);
        let arr = s.arrow(xid, aid);
        let i = s.int();
        let r = s.subst_rigid(arr, &a, i);
        assert_eq!(s.zonk(r), parse_type("Int -> Int").unwrap());
    }

    #[test]
    fn analyze_finds_occurs_foralls_and_flexibles() {
        let mut s = Store::new();
        let (x, xid) = s.fresh_var(Kind::Poly);
        let (y, yid) = s.fresh_var(Kind::Poly);
        let id_ty = parse_type("forall a. a -> a").unwrap();
        let idt = s.intern_type(&id_ty);
        let t = s.con(TyCon::Prod, &[yid, idt]);
        let a = s.analyze(t, x);
        assert!(!a.occurs && a.has_forall);
        assert_eq!(a.flex, vec![y]);
        let t2 = s.arrow(xid, yid);
        let a2 = s.analyze(t2, x);
        assert!(a2.occurs);
        assert!(!a2.has_forall);
    }

    #[test]
    fn zonk_is_dag_safe() {
        // pair-chain-shaped sharing: (t, t) nested; interning collapses it.
        let mut s = Store::new();
        let mut t = s.int();
        for _ in 0..4 {
            t = s.con(TyCon::Prod, &[t, t]);
        }
        let z = s.zonk(t);
        assert_eq!(z.size(), 31); // full tree re-expanded
    }

    #[test]
    fn pair_chain_is_linear_in_the_store() {
        // The n=12 exponential pair chain: 2^12 tree nodes, O(n) arena
        // nodes — the representation invariant the scheme pipeline
        // preserves across the engine boundary.
        let mut s = Store::new();
        let before = s.nodes.len();
        let mut t = s.int();
        for _ in 0..12 {
            t = s.con(TyCon::Prod, &[t, t]);
        }
        assert_eq!(s.nodes.len() - before, 13);
    }
}
