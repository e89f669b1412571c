//! Perf-budget gate of the `ss-index` serving layer.
//!
//! ```text
//! cargo run --release -p ss-bench --bin index_service
//! ```
//!
//! Measures every shard (4, 64 and 1024 classes) live: batched table
//! lookups against per-decision index recomputation on the same query
//! stream.  Exits nonzero if any shard's batched path serves fewer than
//! `BUDGET_MIN_RATIO` times the decisions/sec of recomputation, or if the
//! serving paths disagree on the xor-of-bits checksum — a throughput
//! number for a wrong answer is worthless.
//!
//! The budget is a **ratio** on one host and one stream, not an absolute
//! decisions/sec figure, so the gate is robust to slow or noisy CI hosts:
//! both sides of the ratio slow down together.

use ss_bench::index_service::{
    lookup_batched, lookup_single, query_stream, recompute, shards, IndexShard, QUERY_SEED,
};
use std::time::Instant;

/// The perf budget: batched serving must beat per-decision recomputation
/// by at least this factor.  The measured margin is orders of magnitude
/// larger (a saturating slab read vs ~40 tridiagonal solves); 10x is the
/// contract floor, not the expectation.
const BUDGET_MIN_RATIO: f64 = 10.0;

/// Batch size of the batched path (one output buffer refill per batch).
const BATCH: usize = 1024;

/// Queries per shard through the table paths.
const LOOKUPS: usize = 200_000;

/// Queries per shard through the recompute path (its per-decision cost
/// is ~5 orders of magnitude higher; decisions/sec normalises).
const RECOMPUTES: usize = 400;

/// Best-of-3 wall-clock of `run`, returning (seconds, checksum).
fn timed(mut run: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0;
    for _ in 0..3 {
        let start = Instant::now();
        checksum = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, checksum)
}

/// Gate one shard: print its batched-vs-recompute ratio and return
/// whether it meets the budget with agreeing checksums.
fn gate(s: &IndexShard) -> bool {
    let stream = query_stream(QUERY_SEED, LOOKUPS, s.classes.len());
    let mut buf = Vec::new();

    let single_sum = lookup_single(&s.table, &stream);
    let (batched_secs, batched_sum) = timed(|| lookup_batched(&s.table, &stream, BATCH, &mut buf));

    // The recompute path replays a prefix of the same stream, so its
    // checksum is cross-checked against the table on that prefix.
    let prefix = &stream[..RECOMPUTES];
    let (rec_secs, rec_sum) = timed(|| recompute(&s.classes, s.clock, prefix));
    let prefix_sum = lookup_single(&s.table, prefix);

    let ratio = (LOOKUPS as f64 / batched_secs) / (prefix.len() as f64 / rec_secs);
    let checksums_ok = single_sum == batched_sum && rec_sum == prefix_sum;
    let ratio_ok = ratio >= BUDGET_MIN_RATIO;
    println!(
        "{}: batched_vs_recompute = {ratio:.1}x (floor {BUDGET_MIN_RATIO}x), checksums {}: {}",
        s.name,
        if checksums_ok { "agree" } else { "DISAGREE" },
        if checksums_ok && ratio_ok {
            "PASS"
        } else {
            "FAIL"
        }
    );
    checksums_ok && ratio_ok
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument {arg:?}");
        eprintln!("usage: index_service");
        std::process::exit(1);
    }
    // Gate every shard, even after a failure, so the log shows them all.
    let passed = shards().iter().map(gate).fold(true, |ok, g| ok & g);
    if passed {
        println!("index-service perf budget passed");
    } else {
        eprintln!("index-service perf budget FAILED");
        std::process::exit(1);
    }
}
