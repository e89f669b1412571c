//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the correctness gate reads the committed
//! fixtures and `EXPERIMENTS.md`.  The run
//!
//! 1. runs the workload's correctness gate (no timing yet);
//! 2. builds the workload's inputs from the seed several times, timing
//!    each build (`setup_s` is their median);
//! 3. runs one untimed warm-up batch (not for `oracle-corpus` and
//!    `paper-experiments`, whose batches take seconds), then fixed batches
//!    until `--seconds` have passed (`run_s` is the median batch time).
//!    Every batch's output is checked;
//! 4. with `--trace 1`, alternates untraced and traced batches instead, and
//!    after them runs the kernel probes at the workload's operating point.
//!
//! It prints provenance, the gate, and the end-to-end table (or, traced,
//! the per-layer metrics), writes the same to `.bench_out/`, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.

mod gate;
mod probes;
mod report;
mod stats;
mod trace;
mod wide;
mod workloads;

use std::path::Path;
use std::time::Instant;

use gate::Gate;
use report::{Metric, Provenance};
use stats::median;
use trace::{Span, Tracer};
use workloads::{Workload, NAMES};

/// Seed used while the benchmark is developed and tuned.
pub const DEV_SEED: u64 = 1;
/// Seed kept back for held-out checks of a claimed gain.
pub const HELDOUT_SEED: u64 = 0x5EED_0FF5;

/// Minimum and target count / time of the repeated setups.
const MIN_SETUPS: usize = 3;
const SETUP_TARGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 100_000;

const OUT_DIR: &str = ".bench_out";

/// The end-to-end metrics of the result line, in `BENCHMARK.json` order.
/// They apply to every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The rows of the printed end-to-end table: the result line's metrics and
/// the workload-specific ones, `n/a` where a workload has no such number.
const TABLE: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "1"),
    ("sim_rtt_p50", "sim_time"),
    ("sim_rtt_p99", "sim_time"),
    ("oracle_worst_margin", "1"),
];

/// Every per-layer metric of a traced run, in `BENCHMARK.json` order.  A
/// layer the workload does not call reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("fabric.cells", "count"),
        ("fabric.cell_s.p50", "s"),
        ("fabric.cell_s.tail", "s"),
        ("fabric.cell_s.tail_pct", "%"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for s in workloads::SUITE_SCENARIOS.iter().chain(&["wide"]) {
        out.push((format!("fabric.ns_per_event.{s}"), "ns"));
    }
    for (n, u) in [
        ("fabric.aggregate_s", "s"),
        ("fabric.render_s", "s"),
        ("fabric.events", "count"),
        ("fabric.offered", "count"),
        ("fabric.completed", "count"),
        ("fabric.ledger_gap", "count"),
        ("index.build_s", "s"),
        ("index.class_index_ns", "ns"),
        ("sim.calendar_hold_ns", "ns"),
        ("sim.rng_draw_ns", "ns"),
        ("sim.sketch_record_ns", "ns"),
        ("pool.busy_frac", "1"),
        ("distributions.sample_ns.exp", "ns"),
        ("distributions.sample_ns.hyperexp", "ns"),
        ("distributions.sample_ns.erlang", "ns"),
        ("verify.generate_s", "s"),
        ("verify.scenarios", "count"),
        ("verify.scenario_s.p50", "s"),
        ("verify.scenario_s.tail", "s"),
    ] {
        out.push((n.to_string(), u));
    }
    for p in workloads::PAIRS {
        out.push((format!("verify.pair_s.{p}"), "s"));
    }
    for id in workloads::experiment_ids() {
        out.push((format!("experiments.wall_s.{id}"), "s"));
    }
    out.push(("trace.overhead_pct".to_string(), "%"));
    out
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>\n\
         seeds: {DEV_SEED} while developing, {HELDOUT_SEED} held out for checking a claimed gain",
        NAMES.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEV_SEED,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" {
            println!("{}", usage());
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

struct Outcome {
    name: &'static str,
    gate: Gate,
    attempted: u64,
    failed: u64,
    /// The result line's metrics.
    metrics: Vec<Metric>,
    lines: Vec<String>,
    json: String,
    spans: Vec<Span>,
}

/// Set-up, warm-up and timed batches of one workload whose gate has run.
fn run_workload(w: &mut dyn Workload, mut gate: Gate, args: &Args, pool: usize) -> Outcome {
    let mut lines = Vec::new();

    let tracer = Tracer::new(args.trace);
    let quiet = Tracer::new(false);
    let mut setup_walls = Vec::new();
    let mut setup_spans = Vec::new();
    let setup_start = Instant::now();
    while setup_walls.len() < MIN_SETUPS
        || (setup_start.elapsed().as_secs_f64() < SETUP_TARGET_S && setup_walls.len() < MAX_SETUPS)
    {
        let mark = tracer.mark();
        let start = Instant::now();
        w.setup(&tracer);
        setup_walls.push(start.elapsed().as_secs_f64());
        setup_spans.push(tracer.spans_since(mark));
    }
    let setup_s = median(&setup_walls);

    let mut attempted = 0;
    let mut failed = 0;
    let mut count = |c: workloads::BatchCount| {
        attempted += c.ops;
        failed += c.failed;
    };
    if w.warm_up() {
        count(w.batch(&quiet, None));
    }

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        count(w.batch(&quiet, None));
        walls.push(t.elapsed().as_secs_f64());
        if args.trace {
            let mark = tracer.mark();
            let t = Instant::now();
            count(tracer.span("batch", None, None, |root| w.batch(&tracer, root)));
            traced_walls.push(t.elapsed().as_secs_f64());
            traced.push(tracer.spans_since(mark));
        }
        if start.elapsed().as_secs_f64() >= args.seconds as f64 {
            break;
        }
    }
    let run_s = median(&walls);
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        gate.record("peak-rss", Err(e));
        0.0
    });

    let results = w.results(run_s);
    let table: Vec<Metric> = [
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("run_s", run_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ]
    .into_iter()
    .chain(results)
    .collect();
    let find = |name: &str| table.iter().find(|m| m.name == name);

    lines.extend(w.describe());
    lines.push(format!(
        "batches: {} timed{} after {} warm-up; setups: {}",
        walls.len(),
        if args.trace {
            format!(" + {} traced", traced.len())
        } else {
            String::new()
        },
        u8::from(w.warm_up()),
        setup_walls.len()
    ));

    let list = |xs: &[f64]| {
        let items: Vec<String> = xs.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(","))
    };
    let mut json_parts = vec![
        format!("\"setup_walls\":{}", list(&setup_walls)),
        format!("\"batch_walls\":{}", list(&walls)),
        format!("\"traced_batch_walls\":{}", list(&traced_walls)),
    ];
    let metrics: Vec<Metric> = if args.trace {
        let point = w.operating_point();
        lines.extend(point.describe());
        let overhead = 100.0 * (median(&traced_walls) / run_s - 1.0);
        let mut layer = w.layers(&traced, &setup_spans, pool);
        layer.extend(probes::run_probes(&point, args.seed));
        layer.push(Metric::new("trace.overhead_pct", overhead, "%"));
        let metrics: Vec<Metric> = per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(&name, value, unit)
            })
            .collect();
        for m in &metrics {
            lines.push(format!("{:<44} {:>18.6} {}", m.name, m.value, m.unit));
        }
        json_parts.push(format!(
            "\"operating_point\":{}",
            report::string(&point.describe().join("\n"))
        ));
        metrics
    } else {
        for (name, unit) in TABLE {
            let value = find(name).map_or("n/a".to_string(), |m| format!("{:.6}", m.value));
            lines.push(format!("{:<20} {:>18} {unit}", name, value));
        }
        json_parts.push(format!("\"table\":{}", report::metrics_json(&table)));
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let m = find(name).expect("every workload reports the end-to-end metrics");
                debug_assert_eq!(m.unit, *unit);
                m.clone()
            })
            .collect()
    };
    Outcome {
        name: w.name(),
        gate,
        attempted,
        failed,
        metrics,
        lines,
        json: json_parts.join(","),
        spans: tracer.all(),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{}", usage());
        std::process::exit(2);
    });
    for path in [
        gate::FABRIC_FIXTURE,
        gate::VERIFY_FIXTURE,
        gate::EXPERIMENTS_DOC,
    ] {
        if !Path::new(path).is_file() {
            eprintln!("perfbench: {path} not found; run from the repository root");
            std::process::exit(2);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = nproc;
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut workloads: Vec<Box<dyn Workload>> = names
        .iter()
        .map(|n| workloads::make(n, args.seed).expect("names are checked"))
        .collect();
    // Every gate runs before any timing.
    let outcomes: Vec<Outcome> = ss_sim::pool::with_threads(pool, || {
        let gates: Vec<Gate> = workloads
            .iter()
            .map(|w| {
                let mut gate = Gate::default();
                w.gate(&mut gate);
                gate
            })
            .collect();
        workloads
            .iter_mut()
            .zip(gates)
            .map(|(w, gate)| run_workload(w.as_mut(), gate, &args, pool))
            .collect()
    });

    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (o, w) in outcomes.iter().zip(&workloads) {
        let provenance = Provenance {
            workload: o.name.to_string(),
            seed: args.seed,
            nproc,
            pool,
            input_hash: w.input_hash(),
            rustc: env!("PERFBENCH_RUSTC"),
            seconds: args.seconds,
            trace: args.trace,
        };
        println!("== {} ==", o.name);
        println!("provenance: {}", provenance.json());
        for line in o.gate.lines().iter().chain(&o.lines) {
            println!("{line}");
        }
        let stem = format!(
            "{OUT_DIR}/{}-seed{}-trace{}",
            o.name,
            args.seed,
            u8::from(args.trace)
        );
        let result = format!(
            "{{\"provenance\":{},\"gate\":{},\"attempted\":{},\"failed\":{},{},\"metrics\":{}}}\n",
            provenance.json(),
            report::string(&o.gate.lines().join("\n")),
            o.attempted,
            o.failed,
            o.json,
            report::metrics_json(&o.metrics)
        );
        let mut written = std::fs::write(format!("{stem}.json"), result);
        if args.trace {
            written = written.and(std::fs::write(
                format!("{stem}.spans.jsonl"),
                trace::to_json_lines(&o.spans),
            ));
        }
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {stem}: {e}");
            std::process::exit(2);
        }
        correct &= o.gate.passed() && o.failed == 0;
        attempted += o.attempted;
        failed += o.failed;
        if outcomes.len() == 1 {
            metrics.extend(o.metrics.iter().cloned());
        } else {
            metrics.extend(o.metrics.iter().map(|m| Metric {
                name: format!("{}.{}", o.name, m.name),
                ..m.clone()
            }));
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units of a `BENCHMARK.json` metric list, by a plain scan
    /// (the file is the repository's; no JSON parser is vendored).
    fn declared(list: &str) -> Vec<(String, String)> {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = doc.find(&format!("\"{list}\"")).expect("list present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list ends")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
