//! # ss-index — the low-latency index service
//!
//! The paper's central objects — priority indices (cµ, Gittins, Whittle,
//! Klimov) — are *computed* elsewhere in this workspace by bisection, DP
//! and linear solves.  This crate is the **serving layer** between those
//! solvers and the decision loops that consume their output millions of
//! times per simulated second: it tabulates every discipline's indices
//! once into flat, cache-friendly structure-of-arrays slabs, answers
//! single lookups with one bounds-checked load (zero allocation, no
//! virtual dispatch needed on the monomorphic path) and answers batched
//! lookups over a caller-owned buffer.
//!
//! ## Architecture
//!
//! * [`IndexTable`] — one immutable SoA slab per tier: `classes × stride`
//!   contiguous `f64`s, `(class, queue_len)`-addressed with explicit
//!   saturation at the truncation boundary (`len ≥ stride` clamps to the
//!   last tabulated entry, which the build guarantees is the boundary
//!   index — never a garbage read or a sentinel).  NaN entries are a hard
//!   **build-time** error: a NaN priority index must never reach a
//!   runtime comparison, where it would lose every strict `>` and make
//!   selection position-dependent.
//! * [`TierSpec`] / [`TableKind`] — the solver-agnostic description of
//!   what to tabulate (which discipline, over which job classes).
//! * [`build_table`] — a pure, cold build: each kind's indices come from
//!   its solver crate's discipline constructor, so the index arithmetic
//!   lives in exactly one place and the table is bit-identical to the
//!   per-call discipline by construction.
//!
//! The service fabric (`ss-fabric`) builds its tier disciplines through
//! this crate; the `index_service` binary in `ss-bench` gates the
//! decisions/second the tables serve against per-decision recomputation.

pub mod table;

use ss_bandits::discipline::WhittleQueueDiscipline;
use ss_batch::discipline::{gittins_discipline, GittinsGrid};
use ss_core::job::JobClass;
use ss_queueing::discipline::cmu_discipline;

pub use table::IndexTable;

/// Which discipline a tier tabulates.
#[derive(Debug, Clone, Copy)]
pub enum TableKind {
    /// Constant index 0 for every class — global FIFO via the tie-break.
    Fifo,
    /// The cµ rule: static per-class index `c_j · µ_j`.
    Cmu,
    /// Gittins service index at zero attained service, on the given grid.
    Gittins(GittinsGrid),
    /// Discounted Whittle indices of the per-class queue-length projects,
    /// truncated at `truncation` (states `0..=truncation`).
    Whittle { truncation: usize },
}

impl TableKind {
    /// Short stable key, matching the per-call disciplines' `name()`s (the
    /// report lines and conformance fixtures depend on these strings).
    pub fn key(&self) -> &'static str {
        match self {
            Self::Fifo => "fifo",
            Self::Cmu => "cmu",
            Self::Gittins(_) => "gittins",
            Self::Whittle { .. } => "whittle",
        }
    }
}

/// What one tier's table is built from: the discipline kind and the job
/// classes (arrival rate, service distribution, holding cost) it ranks.
#[derive(Clone)]
pub struct TierSpec {
    pub kind: TableKind,
    pub classes: Vec<JobClass>,
}

/// Tabulate one tier's discipline.  The result is a pure function of
/// `spec`: static kinds get one column per class, Whittle one row of
/// `truncation + 1` queue lengths (empty state pinned to `-∞`).
pub fn build_table(spec: &TierSpec) -> IndexTable {
    let classes = &spec.classes;
    assert!(!classes.is_empty(), "need >= 1 class");
    let column = |indices: &[f64]| indices.iter().map(|&v| vec![v]).collect();
    let rows: Vec<Vec<f64>> = match spec.kind {
        TableKind::Fifo => classes.iter().map(|_| vec![0.0]).collect(),
        TableKind::Cmu => column(cmu_discipline(classes).indices()),
        TableKind::Gittins(grid) => column(gittins_discipline(classes, grid).indices()),
        TableKind::Whittle { truncation } => {
            let whittle = WhittleQueueDiscipline::new(classes, truncation);
            (0..classes.len())
                .map(|c| whittle.table(c).to_vec())
                .collect()
        }
    };
    IndexTable::from_rows(spec.kind.key(), &rows)
}
