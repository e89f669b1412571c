//! Decision-serving throughput recorder and the perf-budget gate of the
//! `ss-index` serving layer.
//!
//! ```text
//! cargo run --release -p ss-bench --bin index_service
//!     # full recording: single / batched / recompute decisions-per-second
//!     # on every shard; prints tables and writes BENCH_index_service.json
//! cargo run --release -p ss-bench --bin index_service -- --json out.json
//!     # same, custom output path
//! cargo run --release -p ss-bench --bin index_service -- --budget
//!     # CI perf-budget gate: quick live measurement plus a check of the
//!     # committed BENCH_index_service.json; exits nonzero if the batched
//!     # path serves fewer than BUDGET_MIN_RATIO times the decisions/sec
//!     # of per-decision recomputation (live or committed), or if the
//!     # three paths' checksums diverge
//! ```
//!
//! The budget is a **ratio** (batched table lookups vs per-decision index
//! recomputation on the same host, same stream), not an absolute
//! decisions/sec figure, so the gate is robust to slow or noisy CI hosts:
//! both sides of the ratio slow down together.  In every mode the binary
//! exits nonzero if the three paths disagree on the xor-of-bits checksum —
//! a throughput number for a wrong answer is worthless.

use ss_bench::index_service::{
    lookup_batched, lookup_single, query_stream, recompute, shards, IndexShard, QUERY_SEED,
};
use ss_sim::json;
use std::time::Instant;

/// The committed perf budget: batched serving must beat per-decision
/// recomputation by at least this factor.  The measured margin is orders
/// of magnitude larger (a saturating slab read vs ~40 tridiagonal solves);
/// 10x is the contract floor, not the expectation.
const BUDGET_MIN_RATIO: f64 = 10.0;

/// Batch size of the batched path (one output buffer refill per batch).
const BATCH: usize = 1024;

struct PathPoint {
    shard: &'static str,
    path: &'static str,
    queries: usize,
    seconds: f64,
    decisions_per_sec: f64,
}

struct RatioPoint {
    shard: &'static str,
    batched_vs_single: f64,
    batched_vs_recompute: f64,
    checksums_identical: bool,
}

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

/// Measure the three paths on one shard: `lookups` queries through the
/// table paths, `recomputes` through the solver path (its per-decision
/// cost is ~5 orders of magnitude higher; decisions/sec normalises).
fn measure(
    s: &IndexShard,
    lookups: usize,
    recomputes: usize,
    paths: &mut Vec<PathPoint>,
) -> RatioPoint {
    let stream = query_stream(QUERY_SEED, lookups, s.classes.len());
    let mut buf = Vec::new();

    let (single_secs, single_sum) = timed(|| lookup_single(&s.table, &stream));
    let (batched_secs, batched_sum) = timed(|| lookup_batched(&s.table, &stream, BATCH, &mut buf));

    // The recompute path replays a prefix of the same stream, so its
    // checksum is cross-checked against the table on that prefix.
    let prefix = &stream[..recomputes.min(stream.len())];
    let (rec_secs, rec_sum) = timed(|| recompute(&s.classes, s.clock, prefix));
    let prefix_sum = lookup_single(&s.table, prefix);

    let single_rate = lookups as f64 / single_secs;
    let batched_rate = lookups as f64 / batched_secs;
    let rec_rate = prefix.len() as f64 / rec_secs;
    for (path, queries, seconds, rate) in [
        ("single", lookups, single_secs, single_rate),
        ("batched", lookups, batched_secs, batched_rate),
        ("recompute", prefix.len(), rec_secs, rec_rate),
    ] {
        paths.push(PathPoint {
            shard: s.name,
            path,
            queries,
            seconds,
            decisions_per_sec: rate,
        });
    }
    RatioPoint {
        shard: s.name,
        batched_vs_single: batched_rate / single_rate,
        batched_vs_recompute: batched_rate / rec_rate,
        checksums_identical: single_sum == batched_sum && rec_sum == prefix_sum,
    }
}

fn write_json(path: &str, paths: &[PathPoint], ratios: &[RatioPoint]) -> std::io::Result<()> {
    let mut body = String::from("{\n");
    body.push_str("  \"benchmark\": \"index_service\",\n");
    body.push_str(&format!(
        "  \"generated_unix_time\": {},\n",
        json::unix_time()
    ));
    body.push_str(&json::host_env_fields());
    body.push_str(
        "  \"workloads\": \"Whittle-backed SoA index tables (truncation 40, stride 41) at 4 / \
         64 / 1024 classes; uniform (class, queue_len) query streams spanning twice the \
         truncation; single = per-decision trait call, batched = lookup_batch over a reused \
         buffer, recompute = a fresh discounted Whittle solve per decision (the \
         no-serving-layer baseline)\",\n",
    );
    body.push_str(
        "  \"timing\": \"best of 3 runs per path; decisions_per_sec = queries / seconds; all \
         three paths must agree on an xor-of-bits checksum before any ratio is recorded\",\n",
    );
    body.push_str(&format!(
        "  \"budget\": {{\"metric\": \"batched_vs_recompute\", \"min_ratio\": {BUDGET_MIN_RATIO:.1}, \
         \"gate\": \"cargo run --release -p ss-bench --bin index_service -- --budget\"}},\n"
    ));
    body.push_str("  \"paths\": [\n");
    for (i, p) in paths.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"shard\": \"{}\", \"path\": \"{}\", \"queries\": {}, \"seconds\": {:.6}, \
             \"decisions_per_sec\": {:.1}}}{}\n",
            json::escape(p.shard),
            p.path,
            p.queries,
            p.seconds,
            p.decisions_per_sec,
            if i + 1 < paths.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"ratios\": [\n");
    for (i, r) in ratios.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"shard\": \"{}\", \"batched_vs_single\": {:.3}, \
             \"batched_vs_recompute\": {:.1}, \"checksums_identical\": {}}}{}\n",
            json::escape(r.shard),
            r.batched_vs_single,
            r.batched_vs_recompute,
            r.checksums_identical,
            if i + 1 < ratios.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(path, body)
}

/// Tiered verdict on one measured ratio against the committed budget.
fn verdict(ratio: f64) -> (&'static str, bool) {
    if ratio >= 10.0 * BUDGET_MIN_RATIO {
        ("PASS (comfortable margin)", true)
    } else if ratio >= BUDGET_MIN_RATIO {
        ("PASS (within tolerance of the budget floor)", true)
    } else {
        ("FAIL (below the committed budget)", false)
    }
}

/// Pull every `"batched_vs_recompute": <number>` out of the committed
/// artifact (flat hand-assembled JSON; no serde in this workspace).
fn committed_ratios(text: &str) -> Vec<f64> {
    let needle = "\"batched_vs_recompute\": ";
    text.match_indices(needle)
        .filter_map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse::<f64>().ok()
        })
        .collect()
}

/// The CI gate: a quick live measurement on the middle shard plus a sanity
/// pass over the committed artifact.
fn budget_gate(committed_path: &str) -> bool {
    let mut ok = true;

    let mut paths = Vec::new();
    let all = shards();
    let s = &all[1]; // classes=64: wide enough to be honest, quick to solve
    let point = measure(s, 200_000, 400, &mut paths);
    if !point.checksums_identical {
        eprintln!("budget gate: FAIL — serving paths disagree on {}", s.name);
        ok = false;
    }
    let (live_verdict, live_ok) = verdict(point.batched_vs_recompute);
    println!(
        "budget gate: live {} batched_vs_recompute = {:.1}x (floor {BUDGET_MIN_RATIO}x): {live_verdict}",
        s.name, point.batched_vs_recompute
    );
    ok &= live_ok;

    match std::fs::read_to_string(committed_path) {
        Ok(text) => {
            let ratios = committed_ratios(&text);
            if ratios.is_empty() {
                eprintln!(
                    "budget gate: FAIL — {committed_path} records no batched_vs_recompute ratios"
                );
                ok = false;
            }
            for r in ratios {
                let (v, r_ok) = verdict(r);
                println!("budget gate: committed ratio {r:.1}x: {v}");
                ok &= r_ok;
            }
        }
        Err(e) => {
            eprintln!("budget gate: FAIL — cannot read {committed_path}: {e}");
            ok = false;
        }
    }
    ok
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: index_service [--budget | --json PATH]");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut budget_mode = false;
    let mut json_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--budget" => budget_mode = true,
            "--json" => match it.next() {
                Some(path) if !path.starts_with("--") => json_path = Some(path.clone()),
                _ => usage_error("--json needs an output path"),
            },
            other => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if budget_mode && json_path.is_some() {
        usage_error("--budget and --json are mutually exclusive");
    }

    if budget_mode {
        if budget_gate("BENCH_index_service.json") {
            println!("index-service perf budget passed");
        } else {
            eprintln!("index-service perf budget FAILED");
            std::process::exit(1);
        }
        return;
    }

    let json_path = json_path.as_deref().unwrap_or("BENCH_index_service.json");
    println!("| shard | path | queries | wall-clock | decisions/sec |");
    println!("|---|---|---|---|---|");

    let mut paths = Vec::new();
    let mut ratios = Vec::new();
    let mut all_identical = true;
    for s in shards() {
        let point = measure(&s, 2_000_000, 2_000, &mut paths);
        all_identical &= point.checksums_identical;
        ratios.push(point);
    }
    for p in &paths {
        println!(
            "| {} | {} | {} | {:.1} ms | {:.2e} |",
            p.shard,
            p.path,
            p.queries,
            p.seconds * 1e3,
            p.decisions_per_sec
        );
    }
    println!("\n| shard | batched vs single | batched vs recompute | checksums identical |");
    println!("|---|---|---|---|");
    for r in &ratios {
        println!(
            "| {} | {:.2}x | {:.1}x | {} |",
            r.shard, r.batched_vs_single, r.batched_vs_recompute, r.checksums_identical
        );
    }

    if let Err(e) = write_json(json_path, &paths, &ratios) {
        eprintln!("failed to write {json_path}: {e}");
        std::process::exit(2);
    }
    println!("\nwrote {json_path}");
    if !all_identical {
        eprintln!("checksum gate FAILED: serving paths disagree");
        std::process::exit(1);
    }
    let worst = ratios
        .iter()
        .map(|r| r.batched_vs_recompute)
        .fold(f64::INFINITY, f64::min);
    if worst < BUDGET_MIN_RATIO {
        eprintln!(
            "perf budget FAILED: worst batched_vs_recompute {worst:.1}x < {BUDGET_MIN_RATIO}x"
        );
        std::process::exit(1);
    }
}
