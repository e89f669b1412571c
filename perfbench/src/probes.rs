//! Kernel probes of the traced run: calendar hold, RNG draw, distribution
//! sample, sketch record and index lookup, each timed in a tight loop at
//! the operating point of the workload that just ran.
//!
//! The operating point is derived from the workload's own fabric configs
//! and reports (calendar depth, the `(class, queue length)` mix, the
//! sampled service families, the RTT values) and is recorded beside the
//! probe results.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rand::Rng;
use ss_core::discipline::Discipline;
use ss_distributions::{dyn_dist, DistKind, DynDist, Erlang, Exponential, HyperExponential};
use ss_fabric::events::FabricEvent;
use ss_fabric::{ArrivalProcess, FabricConfig, FabricReport};
use ss_sim::events::EventQueue;
use ss_sim::rng::RngStreams;
use ss_sim::stats::QuantileSketch;

use crate::report::Metric;
use crate::stats::median;

/// Stream id of the probes' own generators (`"PROB"`).
const PROBE_STREAM: u64 = 0x5052_4F42;
const OPS_PER_REPEAT: usize = 200_000;
const REPEATS: usize = 7;

/// Expected number of pending calendar events of a running fabric:
/// busy servers (one `Complete` each), one arrival timer per class, one
/// phase timer per MMPP class, one failure timer per server of a failing
/// tier, one chaos timer per slowdown or outage process, and the requests
/// in flight on a hop (Little's law: arrival rate × hop time, where a
/// tier's hop delay is paid forward and back by every tier but the last).
pub fn calendar_depth(cfg: &FabricConfig, utilization: &[f64], arrival_rate: f64) -> f64 {
    let busy: f64 = cfg
        .tiers
        .iter()
        .zip(utilization)
        .map(|(t, u)| u * t.servers as f64)
        .sum();
    let mmpp = cfg
        .classes
        .iter()
        .filter(|c| matches!(c.arrivals, ArrivalProcess::Mmpp { .. }))
        .count();
    let timers: usize = cfg
        .tiers
        .iter()
        .map(|t| {
            t.failure.map_or(0, |_| t.servers)
                + usize::from(t.slowdown.is_some())
                + usize::from(t.outage.is_some())
        })
        .sum();
    let last = cfg.tiers.len() - 1;
    let hop_time: f64 = cfg.tiers[..last].iter().map(|t| 2.0 * t.hop_delay).sum();
    busy + (cfg.classes.len() + mmpp + timers) as f64 + arrival_rate * hop_time
}

/// One fabric the workload ran: its config, tier disciplines, the report
/// aggregated over `reps` replications.
pub struct FabricRun<'a> {
    pub config: &'a FabricConfig,
    pub disciplines: &'a [Arc<dyn Discipline>],
    pub report: &'a FabricReport,
    pub reps: u64,
}

impl FabricRun<'_> {
    fn depth(&self) -> f64 {
        let window = (self.config.horizon - self.config.warmup) * self.reps as f64;
        let util: Vec<f64> = self.report.tiers.iter().map(|t| t.utilization).collect();
        calendar_depth(self.config, &util, self.report.arrivals as f64 / window)
    }
}

pub struct OperatingPoint {
    pub source: String,
    /// Event-weighted mean calendar depth over the runs.
    pub calendar_depth: usize,
    /// `(discipline, class, waiting)` lookups: every class of every tier at
    /// every non-empty queue length up to the tier's bound (16 if none).
    pub index_queries: Vec<(usize, usize, usize)>,
    pub disciplines: Vec<Arc<dyn Discipline>>,
    /// Exp, HyperExp and Erlang service distributions, each with whether it
    /// came from the workload's configs or is a reference shape (mean 1;
    /// HyperExp SCV 4; Erlang-4) because no config uses that family.
    pub families: Vec<(&'static str, DynDist, bool)>,
    /// RTT values spread over the merged RTT sketch's quantiles.
    pub rtt_values: Vec<f64>,
}

impl OperatingPoint {
    pub fn from_runs(source: &str, runs: &[FabricRun<'_>]) -> Self {
        let events: f64 = runs.iter().map(|r| r.report.events as f64).sum();
        let depth = runs
            .iter()
            .map(|r| r.depth() * r.report.events as f64)
            .sum::<f64>()
            / events;
        let mut disciplines = Vec::new();
        let mut index_queries = Vec::new();
        for run in runs {
            for (tier, d) in run.config.tiers.iter().zip(run.disciplines) {
                let lens = tier.queue_capacity.unwrap_or(16).max(1);
                for class in 0..run.config.classes.len() {
                    for len in 1..=lens {
                        index_queries.push((disciplines.len(), class, len));
                    }
                }
                disciplines.push(Arc::clone(d));
            }
        }
        let services: Vec<&DynDist> = runs
            .iter()
            .flat_map(|r| r.config.tiers.iter().flat_map(|t| &t.service))
            .collect();
        let family = |name, kind, reference: DynDist| {
            services
                .iter()
                .find(|d| d.kind() == kind)
                .map_or((name, reference, false), |d| (name, Arc::clone(d), true))
        };
        let families = vec![
            family(
                "exp",
                DistKind::Exponential,
                dyn_dist(Exponential::with_mean(1.0)),
            ),
            family(
                "hyperexp",
                DistKind::HyperExponential,
                dyn_dist(HyperExponential::with_mean_scv(1.0, 4.0)),
            ),
            family(
                "erlang",
                DistKind::Erlang,
                dyn_dist(Erlang::with_mean(4, 1.0)),
            ),
        ];
        let mut rtt = runs[0].report.rtt.clone();
        for r in &runs[1..] {
            rtt.merge(&r.report.rtt);
        }
        let n = 4096;
        let rtt_values = (0..n)
            .map(|i| rtt.quantile((i as f64 + 0.5) / n as f64))
            .collect();
        Self {
            source: source.to_string(),
            calendar_depth: depth.round().max(1.0) as usize,
            index_queries,
            disciplines,
            families,
            rtt_values,
        }
    }

    /// Human-readable description, one line per ingredient.
    pub fn describe(&self) -> Vec<String> {
        let mut lines = vec![
            format!("operating point: {}", self.source),
            format!("  calendar depth: {} pending events", self.calendar_depth),
            format!(
                "  class_index mix: {} (class, length) lookups over {} tier tables",
                self.index_queries.len(),
                self.disciplines.len()
            ),
        ];
        for (name, d, from_config) in &self.families {
            lines.push(format!(
                "  sample {name}: {} ({})",
                d.describe(),
                if *from_config { "config" } else { "reference" }
            ));
        }
        lines.push(format!(
            "  sketch values: {} RTT quantiles, median {:.6}",
            self.rtt_values.len(),
            self.rtt_values[self.rtt_values.len() / 2]
        ));
        lines
    }
}

/// Median over [`REPEATS`] of the time per operation of `op`, in ns.
fn ns_per_op(mut op: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..OPS_PER_REPEAT {
                op(i);
            }
            start.elapsed().as_secs_f64() * 1e9 / OPS_PER_REPEAT as f64
        })
        .collect();
    median(&samples)
}

pub fn run_probes(point: &OperatingPoint, seed: u64) -> Vec<Metric> {
    let streams = RngStreams::new(seed);
    let mut out = Vec::new();

    // Calendar hold: pop the earliest event and schedule it again an
    // exponential step later, keeping the depth constant.
    let mut rng = streams.substream(PROBE_STREAM, 0);
    let depth = point.calendar_depth;
    let steps: Vec<f64> = (0..4096)
        .map(|_| -(1.0 - rng.gen::<f64>()).ln() * depth as f64)
        .collect();
    let mut calendar = EventQueue::new();
    for (i, step) in steps.iter().cycle().take(depth).enumerate() {
        calendar.schedule(
            *step,
            FabricEvent::Complete {
                tier: 0,
                server: i,
                epoch: 0,
            },
        );
    }
    out.push(Metric::new(
        "sim.calendar_hold_ns",
        ns_per_op(|i| {
            let (t, ev) = calendar.pop().expect("the calendar is never empty");
            calendar.schedule(t + steps[i % steps.len()], black_box(ev));
        }),
        "ns",
    ));

    let mut rng = streams.substream(PROBE_STREAM, 1);
    out.push(Metric::new(
        "sim.rng_draw_ns",
        ns_per_op(|_| {
            black_box(rng.gen::<f64>());
        }),
        "ns",
    ));

    for (k, (name, dist, _)) in point.families.iter().enumerate() {
        let mut rng = streams.substream(PROBE_STREAM, 2 + k as u64);
        out.push(Metric::new(
            &format!("distributions.sample_ns.{name}"),
            ns_per_op(|_| {
                black_box(dist.sample(&mut rng));
            }),
            "ns",
        ));
    }

    let mut sketch = QuantileSketch::latency_default();
    let values = &point.rtt_values;
    out.push(Metric::new(
        "sim.sketch_record_ns",
        ns_per_op(|i| sketch.record(black_box(values[i % values.len()]))),
        "ns",
    ));
    black_box(sketch.count());

    let queries = &point.index_queries;
    let disciplines = &point.disciplines;
    out.push(Metric::new(
        "index.class_index_ns",
        ns_per_op(|i| {
            let (d, class, len) = queries[i % queries.len()];
            black_box(disciplines[d].class_index(black_box(class), black_box(len)));
        }),
        "ns",
    ));
    out
}
