//! Portable scheme snapshots: the process-independent form of a
//! [`SchemeBank`](crate::SchemeBank) DAG.
//!
//! A [`SchemeId`](crate::SchemeId) is only meaningful inside the bank
//! that interned it — ids encode shard/slot positions, and named
//! variables carry [`Symbol`](freezeml_core::Symbol)s that index a
//! process-local table. To persist warm state across restarts
//! (`freezeml --cache-dir`), the bank's reachable subgraph is flattened
//! into [`PortableNode`]s: children become indices into the flattened
//! vector (strictly topological — a child index is always smaller than
//! its parent's), and every name travels as a string.
//!
//! Two deliberate lossy edges keep the format sound:
//!
//! * **Invented variables don't travel.** Fresh (`%n`) and skolem
//!   (`!n`) variables are meaningless in another process — exporting a
//!   node that reaches one returns `None` and the caller skips the
//!   cache entry rooted there. Persisted schemes are exactly the
//!   *presentable* ones: named or closed.
//! * **Absorb is total.** [`crate::SchemeBank::absorb_snapshot`]
//!   re-interns structurally, so loaded ids are bank-native α-classes; it
//!   validates the topological child order and tracks each node's open
//!   de-Bruijn depth, and [`AbsorbedSnapshot::closed`] only hands out
//!   roots that are well-scoped. Arbitrarily corrupted input produces
//!   an error or a rejected root — never a panic.

use std::fmt;

/// A type constructor by name — the portable image of
/// [`TyCon`](freezeml_core::TyCon). Builtins keep their own tags so a
/// user constructor literally named `Int` cannot collapse into the
/// builtin on reload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortableCon {
    /// `Int`.
    Int,
    /// `Bool`.
    Bool,
    /// `List`.
    List,
    /// `->`.
    Arrow,
    /// `*`.
    Prod,
    /// `ST`.
    St,
    /// A user-defined constructor.
    Other {
        /// The constructor's surface name.
        name: String,
        /// Its arity (checked against the child count on absorb).
        arity: u32,
    },
}

/// One flattened scheme node. Child references are indices into the
/// snapshot's node vector and always point *backwards* (child < parent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortableNode {
    /// A de-Bruijn bound variable.
    Bound(u32),
    /// A free *named* variable, carried by name.
    Free(String),
    /// A constructor application.
    Con(PortableCon, Vec<u32>),
    /// A quantifier over `body`, with the binder's source-name hint.
    Forall {
        /// Index of the body node.
        body: u32,
        /// Source binder name, if the exporting bank had one.
        hint: Option<String>,
    },
}

/// Why a snapshot could not be absorbed. The message is diagnostic
/// only — callers treat any error as "fall back to cold".
#[derive(Debug)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scheme snapshot: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// The result of absorbing a snapshot: per-node bank ids plus each
/// node's open de-Bruijn depth (0 ⇔ well-scoped as a root).
pub struct AbsorbedSnapshot {
    pub(crate) ids: Vec<crate::SchemeId>,
    pub(crate) open: Vec<u32>,
}

impl AbsorbedSnapshot {
    /// The bank-native id for snapshot node `idx`, provided the node is
    /// closed (no dangling `Bound` reference). Open nodes are interned —
    /// they may be legitimate sub-terms — but must never be used as
    /// roots, where `to_type`/`pretty` would index past the binder
    /// stack.
    pub fn closed(&self, idx: u32) -> Option<crate::SchemeId> {
        let i = idx as usize;
        match (self.ids.get(i), self.open.get(i)) {
            (Some(&id), Some(0)) => Some(id),
            _ => None,
        }
    }

    /// Number of nodes absorbed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}
