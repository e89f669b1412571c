//! Workloads of the `index_service` gate: sharded Whittle-backed
//! [`IndexTable`]s, deterministic query streams, and the three
//! decision-serving paths under comparison —
//!
//! * **single**: one trait-object `class_index` call per decision (the
//!   fabric's `select_class` scan);
//! * **batched**: [`IndexTable::lookup_batch`] over a reused buffer (the
//!   decision-serving fast path);
//! * **recompute**: no serving layer at all — every decision re-runs the
//!   discounted Whittle solve for the queried class, which is what the
//!   per-call solver adapters would cost if the indices were not
//!   tabulated.  This is the denominator of the perf budget.
//!
//! Every path folds its answers into an xor-of-bits checksum, so the
//! binary can assert the three paths agree bit-for-bit on the same stream
//! before trusting any throughput ratio.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ss_bandits::discipline::{
    discounted_whittle_table, whittle_uniformization_clock, WHITTLE_DISCOUNT,
};
use ss_core::discipline::Discipline;
use ss_core::job::JobClass;
use ss_distributions::{dyn_dist, Exponential};
use ss_index::{build_table, IndexTable, TableKind, TierSpec};

/// Whittle truncation boundary used by every shard (matches the fabric's
/// `WHITTLE_TRUNCATION`, so stride = 41).
pub const TRUNCATION: usize = 40;

/// Master seed of the query streams.
pub const QUERY_SEED: u64 = 0x1DE7_5EED;

/// One benchmark shard: a tier's classes and their tabulated indices.
pub struct IndexShard {
    pub name: &'static str,
    pub classes: Vec<JobClass>,
    pub clock: f64,
    pub table: IndexTable,
}

fn shard(name: &'static str, n_classes: usize) -> IndexShard {
    let classes: Vec<JobClass> = (0..n_classes)
        .map(|j| {
            // Distinct rates/costs per class, so every row is its own solve.
            let mean = 0.4 + (j % 97) as f64 * 0.013;
            let arrival = 0.05 + (j % 89) as f64 * 0.007;
            let cost = 0.25 + (j % 101) as f64 * 0.125;
            JobClass::new(j, arrival, dyn_dist(Exponential::with_mean(mean)), cost)
        })
        .collect();
    let clock = whittle_uniformization_clock(&classes);
    let table = build_table(&TierSpec {
        kind: TableKind::Whittle {
            truncation: TRUNCATION,
        },
        classes: classes.clone(),
    });
    IndexShard {
        name,
        classes,
        clock,
        table,
    }
}

/// The shard ladder: a small tier, a wide tier, and a tier far larger
/// than any fabric scenario ships, to expose cache effects of the slab.
pub fn shards() -> Vec<IndexShard> {
    vec![
        shard("classes=4", 4),
        shard("classes=64", 64),
        shard("classes=1024", 1024),
    ]
}

/// Deterministic query stream: `n` uniform `(class, queue_len)` pairs with
/// lengths spanning `0..=2·truncation` — in and beyond the tabulated
/// range, exercising the saturating boundary.
pub fn query_stream(seed: u64, n: usize, n_classes: usize) -> Vec<(u32, u32)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..n_classes as u32),
                rng.gen_range(0..=(2 * TRUNCATION) as u32),
            )
        })
        .collect()
}

/// Per-decision trait-object path: one `class_index` virtual call per
/// query, answers folded into an xor-of-bits checksum.
pub fn lookup_single(table: &dyn Discipline, queries: &[(u32, u32)]) -> u64 {
    let mut acc = 0u64;
    for &(class, len) in queries {
        acc ^= table.class_index(class as usize, len as usize).to_bits();
    }
    acc
}

/// Batched path: resolve the stream in `chunk`-sized batches through one
/// reused output buffer (steady-state allocation-free).
pub fn lookup_batched(
    table: &IndexTable,
    queries: &[(u32, u32)],
    chunk: usize,
    buf: &mut Vec<f64>,
) -> u64 {
    let mut acc = 0u64;
    for batch in queries.chunks(chunk) {
        for v in table.lookup_batch(batch, buf) {
            acc ^= v.to_bits();
        }
    }
    acc
}

/// No-serving-layer path: every decision re-solves the queried class's
/// discounted Whittle chain from scratch, exactly as the legacy per-call
/// construction would have to without tabulation.  Bit-identical answers
/// to the table (same arithmetic, same `-∞` empty-state pin).
pub fn recompute(classes: &[JobClass], clock: f64, queries: &[(u32, u32)]) -> u64 {
    let mut acc = 0u64;
    for &(class, len) in queries {
        let c = &classes[class as usize];
        let row = discounted_whittle_table(
            c.arrival_rate / clock,
            c.service_rate() / clock,
            c.holding_cost,
            TRUNCATION,
            WHITTLE_DISCOUNT,
        );
        let v = if len == 0 {
            f64::NEG_INFINITY
        } else {
            row[(len as usize).min(TRUNCATION)]
        };
        acc ^= v.to_bits();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three serving paths agree bit-for-bit on the same stream, so
    /// the binary's throughput ratios compare equal work.
    #[test]
    fn all_three_paths_share_one_checksum() {
        let s = shard("test", 8);
        let queries = query_stream(QUERY_SEED, 512, s.classes.len());
        let single = lookup_single(&s.table, &queries);
        let mut buf = Vec::new();
        let batched = lookup_batched(&s.table, &queries, 128, &mut buf);
        let recomputed = recompute(&s.classes, s.clock, &queries);
        assert_eq!(single, batched, "batched path diverged from single");
        assert_eq!(single, recomputed, "recompute path diverged from table");
    }

    /// The stream is a pure function of its seed.
    #[test]
    fn query_stream_is_deterministic() {
        assert_eq!(query_stream(7, 100, 16), query_stream(7, 100, 16));
        assert_ne!(query_stream(7, 100, 16), query_stream(8, 100, 16));
    }
}
