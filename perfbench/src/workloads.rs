//! The four workloads.  Each is a fixed batch of work, run closed-loop over
//! the `ss_sim::pool`: a lane takes the next cell when it finishes one.
//!
//! | workload | cell | batch |
//! |---|---|---|
//! | `fabric-suite` | `run_fabric_with` per (scenario, rep) | the 8 suite scenarios at the full budget, then `aggregate` and `render_suite_report` |
//! | `fabric-wide` | `run_fabric_with` per rep | [`REPS_WIDE`] reps of the seed's wide fabric, then `aggregate` and render |
//! | `oracle-corpus` | `run_scenario` per scenario | all 66 scenarios of each of [`CORPORA`] corpora at `Budget::full()` |
//! | `paper-experiments` | `run_experiments(&[e], 1)` per experiment | E1–E22 except E21, one at a time |

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use ss_bench::experiments::{all_experiments, run_experiments, Experiment};
use ss_core::discipline::Discipline;
use ss_distributions::{dyn_dist, Exponential};
use ss_fabric::scenarios::{self, aggregate, render_suite_report, scenario_list};
use ss_fabric::{
    replication_seed, run_fabric, run_fabric_with, ArrivalProcess, ClassConfig, DisciplineKind,
    FabricConfig, FabricReport, LbPolicy, RetryPolicy, TierConfig,
};
use ss_sim::pool::parallel_indexed;
use ss_sim::rng::RngStreams;
use ss_sim::stats::QuantileSketch;
use ss_verify::scenario::Spec;
use ss_verify::{generate_corpus, render_check_report, run_scenario, Corpus, ScenarioReport};

use crate::gate::{self, Gate};
use crate::probes::{FabricRun, OperatingPoint};
use crate::report::Metric;
use crate::stats::{fnv1a, median, tail};
use crate::trace::{Span, SpanId, Tracer};
use crate::wide::{offered_rho, wide_config};

/// Replications of the wide fabric per batch.
pub const REPS_WIDE: u64 = 4;

/// The 8 committed suite scenarios, in suite order.
pub const SUITE_SCENARIOS: [&str; 8] = [
    "mm3-fifo-baseline",
    "two-tier-rtt",
    "cmu-priority",
    "gittins-mixed-scv",
    "whittle-mmpp-bursty",
    "failures-retries",
    "bounded-backpressure",
    "retry-storm-recovery",
];

/// The 12 oracle-pair keys.
pub const PAIRS: [&str; 12] = [
    "fifo-vs-pk",
    "nonpreemptive-vs-cobham",
    "preemptive-vs-formula",
    "conservation-identity",
    "gittins-vs-dp",
    "lp-primal-vs-dual",
    "achievable-lp-vs-cmu",
    "klimov-vs-exact",
    "whittle-vs-dp",
    "sept-lept-vs-dp",
    "fabric-vs-erlangc",
    "fabric-vs-mmck",
];

/// The experiments the workload runs: E1–E22 except E21, whose report
/// embeds its own timings and whose sweep sizes its own pools.
pub fn experiment_ids() -> Vec<String> {
    (1..=22)
        .filter(|&n| n != 21)
        .map(|n| format!("E{n}"))
        .collect()
}

/// What one batch did, for `attempted` / `failed`.
pub struct BatchCount {
    pub ops: u64,
    pub failed: u64,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Build the inputs of the timed phase.  The runner calls it several
    /// times (timing each) and keeps the last build.
    fn setup(&mut self, tracer: &Tracer);
    /// Hash of the generated inputs, for provenance.
    fn input_hash(&self) -> u64;
    /// Checks made before any timing.
    fn gate(&self, gate: &mut Gate);
    /// Whether the runner runs one untimed batch before timing.  The
    /// workloads whose batches take seconds skip it.
    fn warm_up(&self) -> bool {
        true
    }
    /// One batch; checks its own outputs.
    fn batch(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> BatchCount;
    /// The end-to-end table: the nine metrics of this workload that apply
    /// to it, given the median batch time.
    fn results(&self, run_s: f64) -> Vec<Metric>;
    /// Per-layer metrics of this workload from the traced batches' spans
    /// (`batches[i]` holds batch `i`'s root span and all its descendants).
    fn layers(&self, batches: &[Vec<Span>], setups: &[Vec<Span>], pool: usize) -> Vec<Metric>;
    fn operating_point(&self) -> OperatingPoint;
    /// Human-readable lines about the inputs and outputs.
    fn describe(&self) -> Vec<String>;
}

pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fabric-suite" => Box::new(FabricWorkload::new(FabricKind::Suite, seed)),
        "fabric-wide" => Box::new(FabricWorkload::new(FabricKind::Wide, seed)),
        "oracle-corpus" => Box::new(OracleCorpus::new(seed)),
        "paper-experiments" => Box::new(PaperExperiments::default()),
        _ => return None,
    })
}

pub const NAMES: [&str; 4] = [
    "fabric-suite",
    "fabric-wide",
    "oracle-corpus",
    "paper-experiments",
];

fn durations<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(Span::duration).collect()
}

/// Per batch: sum of durations of `name` spans matching `keep`; then the
/// median over batches.
fn median_sum(batches: &[Vec<Span>], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    let per_batch: Vec<f64> = batches
        .iter()
        .map(|b| {
            b.iter()
                .filter(|s| s.name == name && keep(s))
                .map(Span::duration)
                .sum()
        })
        .collect();
    median(&per_batch)
}

/// Median over batches of the cells' busy time over (batch time × lanes).
fn busy_frac(batches: &[Vec<Span>], cell: &str, pool: usize) -> f64 {
    let per_batch: Vec<f64> = batches
        .iter()
        .map(|b| {
            let busy: f64 = durations(b.iter().filter(|s| s.name == cell)).iter().sum();
            busy / (b[0].duration() * pool as f64)
        })
        .collect();
    median(&per_batch)
}

fn cell_timing(prefix: &str, cells: &[f64]) -> Vec<Metric> {
    let (tail_s, tail_pct) = tail(cells);
    vec![
        Metric::new(&format!("{prefix}.cells"), cells.len() as f64, "count"),
        Metric::new(&format!("{prefix}.cell_s.p50"), median(cells), "s"),
        Metric::new(&format!("{prefix}.cell_s.tail"), tail_s, "s"),
        Metric::new(&format!("{prefix}.cell_s.tail_pct"), tail_pct, "%"),
    ]
}

// ---------------------------------------------------------------- fabric --

#[derive(Clone, Copy, PartialEq)]
enum FabricKind {
    Suite,
    Wide,
}

struct FabricWorkload {
    kind: FabricKind,
    seed: u64,
    configs: Vec<FabricConfig>,
    disciplines: Vec<Vec<Arc<dyn Discipline>>>,
    reps: u64,
    /// Aggregated reports of the latest batch, per config.
    results: Vec<(String, FabricReport)>,
    /// The first batch's rendered report; every later batch must match it.
    reference: Option<String>,
    mismatches: u64,
}

impl FabricWorkload {
    fn new(kind: FabricKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            configs: Vec::new(),
            disciplines: Vec::new(),
            reps: 0,
            results: Vec::new(),
            reference: None,
            mismatches: 0,
        }
    }

    /// `run_suite`'s cell scheme over `configs` × `reps`, each cell and the
    /// aggregation and rendering in their own spans.
    fn run(
        tracer: &Tracer,
        parent: Option<SpanId>,
        master_seed: u64,
        configs: &[FabricConfig],
        disciplines: &[Vec<Arc<dyn Discipline>>],
        reps: u64,
    ) -> (Vec<(String, FabricReport)>, String) {
        let streams = RngStreams::new(master_seed);
        let r = reps as usize;
        let cells = parallel_indexed(configs.len() * r, |i| {
            let (s, rep) = (i / r, (i % r) as u64);
            tracer.span("fabric.cell", Some((s as u32, rep as u32)), parent, |_| {
                run_fabric_with(
                    &configs[s],
                    &disciplines[s],
                    replication_seed(&streams, s as u64, rep),
                )
            })
        });
        let results: Vec<(String, FabricReport)> =
            tracer.span("fabric.aggregate", None, parent, |_| {
                configs
                    .iter()
                    .enumerate()
                    .map(|(s, c)| (c.name.clone(), aggregate(&cells[s * r..(s + 1) * r])))
                    .collect()
            });
        let text = tracer.span("fabric.render", None, parent, |_| {
            render_suite_report(master_seed, &results)
        });
        (results, text)
    }

    fn totals(&self) -> Totals {
        let mut reports = self.results.iter().map(|(_, r)| r);
        let first = reports.next().expect("a batch has run");
        let mut t = Totals {
            events: first.events,
            offered: first.arrivals,
            completed: first.completed,
            failed: first.lost + first.shed + first.timed_out,
            rtt: first.rtt.clone(),
        };
        for r in reports {
            t.events += r.events;
            t.offered += r.arrivals;
            t.completed += r.completed;
            t.failed += r.lost + r.shed + r.timed_out;
            t.rtt.merge(&r.rtt);
        }
        t
    }
}

/// A batch's counts summed over its fabrics, RTT sketches merged.
struct Totals {
    events: u64,
    offered: u64,
    completed: u64,
    /// Simulated requests lost, shed or timed out.
    failed: u64,
    rtt: QuantileSketch,
}

impl Workload for FabricWorkload {
    fn name(&self) -> &'static str {
        match self.kind {
            FabricKind::Suite => "fabric-suite",
            FabricKind::Wide => "fabric-wide",
        }
    }

    fn setup(&mut self, tracer: &Tracer) {
        tracer.span("setup", None, None, |root| {
            let (configs, reps) = match self.kind {
                FabricKind::Suite => {
                    let budget = scenarios::Budget::full();
                    let configs = tracer.span("fabric.scenario_list", None, root, |_| {
                        scenario_list(&budget)
                    });
                    (configs, budget.replications)
                }
                FabricKind::Wide => {
                    let config =
                        tracer.span("wide.generate", None, root, |_| wide_config(self.seed));
                    (vec![config], REPS_WIDE)
                }
            };
            self.disciplines = configs
                .iter()
                .enumerate()
                .map(|(s, c)| {
                    tracer.span("index.build", Some((s as u32, 0)), root, |_| {
                        c.build_disciplines()
                    })
                })
                .collect();
            self.configs = configs;
            self.reps = reps;
        });
    }

    fn input_hash(&self) -> u64 {
        fnv1a(format!("{:?}", self.configs).as_bytes())
    }

    fn gate(&self, gate: &mut Gate) {
        // The committed check fixture, through this workload's own cell
        // scheme: proves the benchmark runs what `fabric --check` runs.
        let budget = scenarios::Budget::check();
        let configs = scenario_list(&budget);
        let disciplines: Vec<_> = configs.iter().map(|c| c.build_disciplines()).collect();
        let quiet = Tracer::new(false);
        let (_, text) = Self::run(
            &quiet,
            None,
            scenarios::DEFAULT_SEED,
            &configs,
            &disciplines,
            budget.replications,
        );
        gate.record(
            gate::FABRIC_FIXTURE,
            gate::check_fixture(gate::FABRIC_FIXTURE, &text),
        );
        if self.kind == FabricKind::Wide {
            let cfg = wide_config(self.seed);
            let validated =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cfg.validate()))
                    .map_err(|_| "FabricConfig::validate rejected the wide fabric".to_string());
            gate.record("wide-config-validates", validated);
            let rho = offered_rho(&cfg);
            let stable = match rho.iter().find(|r| **r >= 1.0) {
                Some(r) => Err(format!("a tier is offered rho {r} >= 1")),
                None => Ok(()),
            };
            gate.record("wide-config-rho-below-1", stable);
        }
    }

    fn batch(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> BatchCount {
        let (results, text) = Self::run(
            tracer,
            parent,
            self.seed,
            &self.configs,
            &self.disciplines,
            self.reps,
        );
        let ops = self.configs.len() as u64 * self.reps;
        let failed = match &self.reference {
            None => {
                self.reference = Some(text);
                0
            }
            Some(first) if *first == text => 0,
            Some(_) => {
                self.mismatches += 1;
                ops
            }
        };
        self.results = results;
        BatchCount { ops, failed }
    }

    fn results(&self, run_s: f64) -> Vec<Metric> {
        let t = self.totals();
        vec![
            Metric::new("events_per_s", t.events as f64 / run_s, "1/s"),
            Metric::new("requests_per_s", t.completed as f64 / run_s, "1/s"),
            Metric::new("failed_frac", t.failed as f64 / t.offered as f64, "1"),
            Metric::new("sim_rtt_p50", t.rtt.quantile(0.50), "sim_time"),
            Metric::new("sim_rtt_p99", t.rtt.quantile(0.99), "sim_time"),
            Metric::new("work_per_s", t.events as f64 / run_s, "1/s"),
        ]
    }

    fn layers(&self, batches: &[Vec<Span>], setups: &[Vec<Span>], pool: usize) -> Vec<Metric> {
        let cells: Vec<f64> =
            durations(batches.iter().flatten().filter(|s| s.name == "fabric.cell"));
        let mut out = cell_timing("fabric", &cells);
        for (s, (name, report)) in self.results.iter().enumerate() {
            let busy = median_sum(batches, "fabric.cell", |sp| {
                sp.cell.is_some_and(|c| c.0 as usize == s)
            });
            out.push(Metric::new(
                &format!("fabric.ns_per_event.{name}"),
                busy * 1e9 / report.events as f64,
                "ns",
            ));
        }
        let t = self.totals();
        out.extend([
            Metric::new(
                "fabric.aggregate_s",
                median_sum(batches, "fabric.aggregate", |_| true),
                "s",
            ),
            Metric::new(
                "fabric.render_s",
                median_sum(batches, "fabric.render", |_| true),
                "s",
            ),
            Metric::new("fabric.events", t.events as f64, "count"),
            Metric::new("fabric.offered", t.offered as f64, "count"),
            Metric::new("fabric.completed", t.completed as f64, "count"),
            Metric::new(
                "fabric.ledger_gap",
                t.completed as f64 - t.offered as f64,
                "count",
            ),
            Metric::new(
                "index.build_s",
                median_sum(setups, "index.build", |_| true),
                "s",
            ),
            Metric::new(
                "pool.busy_frac",
                busy_frac(batches, "fabric.cell", pool),
                "1",
            ),
        ]);
        out
    }

    fn operating_point(&self) -> OperatingPoint {
        let runs: Vec<FabricRun<'_>> = self
            .configs
            .iter()
            .zip(&self.disciplines)
            .zip(&self.results)
            .map(|((config, disciplines), (_, report))| FabricRun {
                config,
                disciplines,
                report,
                reps: self.reps,
            })
            .collect();
        let source = match self.kind {
            FabricKind::Suite => "the 8 suite scenarios, event-weighted",
            FabricKind::Wide => "the wide fabric",
        };
        OperatingPoint::from_runs(source, &runs)
    }

    fn describe(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} configs x {} reps, master seed {}",
            self.configs.len(),
            self.reps,
            self.seed
        )];
        for (name, r) in &self.results {
            lines.push(format!(
                "  {name}: events={} offered={} completed={} ledger_gap={} lost={} shed={} timedout={}",
                r.events,
                r.arrivals,
                r.completed,
                r.completed as i64 - r.arrivals as i64,
                r.lost,
                r.shed,
                r.timed_out
            ));
        }
        if self.mismatches > 0 {
            lines.push(format!(
                "  {} batches rendered a report that differs from the first",
                self.mismatches
            ));
        }
        lines
    }
}

// --------------------------------------------------------- oracle corpus --

/// Corpora per `oracle-corpus` batch.  A corpus's cost follows its
/// generated fabric-pair rates, which vary several-fold from seed to seed;
/// a batch of several corpora keeps the work per batch close to the same
/// for every seed.
pub const CORPORA: u64 = 8;

/// Stream id deriving the corpus seeds from the benchmark seed (`"CORP"`).
const CORPUS_STREAM: u64 = 0x434F_5250;

struct OracleCorpus {
    seed: u64,
    corpora: Vec<Corpus>,
    /// The latest batch's reports, corpus by corpus.
    reports: Vec<ScenarioReport>,
    reference: Option<String>,
    mismatches: u64,
}

impl OracleCorpus {
    fn new(seed: u64) -> Self {
        Self {
            seed,
            corpora: Vec::new(),
            reports: Vec::new(),
            reference: None,
            mismatches: 0,
        }
    }

    /// `run_corpus`'s scheme for each corpus (replication streams from the
    /// corpus seed), all scenarios of all corpora as cells of one pool
    /// fan-out, scenario `i` of corpus `k` as cell `(i, k)`.
    fn run(
        tracer: &Tracer,
        parent: Option<SpanId>,
        corpora: &[Corpus],
        budget: &ss_verify::Budget,
    ) -> Vec<ScenarioReport> {
        let streams: Vec<RngStreams> = corpora.iter().map(|c| RngStreams::new(c.seed)).collect();
        let cells: Vec<(usize, usize)> = corpora
            .iter()
            .enumerate()
            .flat_map(|(k, c)| (0..c.scenarios.len()).map(move |i| (k, i)))
            .collect();
        parallel_indexed(cells.len(), |j| {
            let (k, i) = cells[j];
            tracer.span(
                "verify.scenario",
                Some((i as u32, k as u32)),
                parent,
                |_| run_scenario(&corpora[k].scenarios[i], budget, &streams[k]),
            )
        })
    }

    fn render(corpora: &[Corpus], reports: &[ScenarioReport]) -> String {
        let mut at = 0;
        corpora
            .iter()
            .map(|c| {
                let text = render_check_report(c, &reports[at..at + c.len()]);
                at += c.len();
                text
            })
            .collect()
    }
}

/// `|error| / allowed`, the share of its tolerance a verdict used.
fn margin(r: &ScenarioReport) -> f64 {
    if r.verdict.allowed > 0.0 {
        r.verdict.abs_error / r.verdict.allowed
    } else {
        0.0
    }
}

/// The single-tier central-queue FIFO fabric `ss-verify` builds for its
/// Erlang-C and M/M/c/K pairs.
fn mmc_config(servers: usize, queue_capacity: Option<usize>, lambda: f64, mu: f64) -> FabricConfig {
    let budget = ss_verify::Budget::full();
    FabricConfig {
        name: format!("mmc-c{servers}"),
        classes: vec![ClassConfig {
            arrivals: ArrivalProcess::Poisson { rate: lambda },
            holding_cost: 1.0,
        }],
        tiers: vec![TierConfig {
            servers,
            queue_capacity,
            service: vec![dyn_dist(Exponential::with_mean(1.0 / mu))],
            discipline: DisciplineKind::Fifo,
            lb: LbPolicy::CentralQueue,
            hop_delay: 0.0,
            failure: None,
            breaker: None,
            slowdown: None,
            outage: None,
        }],
        retry: RetryPolicy::none(),
        deadlines: None,
        shedder: None,
        sla_window: None,
        warmup: budget.warmup,
        horizon: budget.horizon,
    }
}

impl Workload for OracleCorpus {
    fn name(&self) -> &'static str {
        "oracle-corpus"
    }

    fn warm_up(&self) -> bool {
        false
    }

    fn setup(&mut self, tracer: &Tracer) {
        tracer.span("setup", None, None, |root| {
            let streams = RngStreams::new(self.seed);
            self.corpora = (0..CORPORA)
                .map(|k| {
                    let seed = streams.substream(CORPUS_STREAM, k).gen::<u64>();
                    tracer.span("verify.generate", None, root, |_| generate_corpus(seed))
                })
                .collect();
        });
    }

    fn input_hash(&self) -> u64 {
        fnv1a(format!("{:?}", self.corpora).as_bytes())
    }

    fn gate(&self, gate: &mut Gate) {
        let corpora = [generate_corpus(ss_verify::DEFAULT_SEED)];
        let reports = Self::run(
            &Tracer::new(false),
            None,
            &corpora,
            &ss_verify::Budget::check(),
        );
        gate.record(
            gate::VERIFY_FIXTURE,
            gate::check_fixture(gate::VERIFY_FIXTURE, &Self::render(&corpora, &reports)),
        );
    }

    fn batch(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> BatchCount {
        let reports = Self::run(tracer, parent, &self.corpora, &ss_verify::Budget::full());
        let text = Self::render(&self.corpora, &reports);
        let ops = reports.len() as u64;
        let mut failed = reports.iter().filter(|r| !r.verdict.pass).count() as u64;
        match &self.reference {
            None => self.reference = Some(text),
            Some(first) if *first == text => {}
            Some(_) => {
                self.mismatches += 1;
                failed = ops;
            }
        }
        self.reports = reports;
        BatchCount { ops, failed }
    }

    fn results(&self, run_s: f64) -> Vec<Metric> {
        let fails = self.reports.iter().filter(|r| !r.verdict.pass).count();
        let worst = self.reports.iter().map(margin).fold(0.0, f64::max);
        vec![
            Metric::new("failed_frac", fails as f64 / self.reports.len() as f64, "1"),
            Metric::new("oracle_worst_margin", worst, "1"),
            Metric::new("work_per_s", self.reports.len() as f64 / run_s, "1/s"),
        ]
    }

    fn layers(&self, batches: &[Vec<Span>], setups: &[Vec<Span>], pool: usize) -> Vec<Metric> {
        let pair_of = |s: &Span| {
            s.cell.map(|(i, k)| {
                self.corpora[k as usize].scenarios[i as usize]
                    .spec
                    .pair()
                    .key()
            })
        };
        let scenarios: Vec<f64> = durations(
            batches
                .iter()
                .flatten()
                .filter(|s| s.name == "verify.scenario"),
        );
        let (tail_s, _) = tail(&scenarios);
        let mut out = vec![
            Metric::new(
                "verify.generate_s",
                median_sum(setups, "verify.generate", |_| true),
                "s",
            ),
            Metric::new("verify.scenarios", scenarios.len() as f64, "count"),
            Metric::new("verify.scenario_s.p50", median(&scenarios), "s"),
            Metric::new("verify.scenario_s.tail", tail_s, "s"),
            Metric::new(
                "pool.busy_frac",
                busy_frac(batches, "verify.scenario", pool),
                "1",
            ),
        ];
        for pair in PAIRS {
            out.push(Metric::new(
                &format!("verify.pair_s.{pair}"),
                median_sum(batches, "verify.scenario", |s| pair_of(s) == Some(pair)),
                "s",
            ));
        }
        out
    }

    fn operating_point(&self) -> OperatingPoint {
        // The corpora's fabric scenarios, one replication each on its own
        // stream: the only fabrics this workload runs.
        let streams = RngStreams::new(self.seed);
        let configs: Vec<FabricConfig> = self
            .corpora
            .iter()
            .flat_map(|c| &c.scenarios)
            .filter_map(|s| match &s.spec {
                Spec::Fabric {
                    servers,
                    lambda,
                    mu,
                } => Some(mmc_config(*servers, None, *lambda, *mu)),
                Spec::FabricFinite {
                    servers,
                    queue_cap,
                    lambda,
                    mu,
                } => Some(mmc_config(*servers, Some(*queue_cap), *lambda, *mu)),
                _ => None,
            })
            .collect();
        let disciplines: Vec<_> = configs.iter().map(|c| c.build_disciplines()).collect();
        let reports: Vec<FabricReport> = configs
            .iter()
            .zip(&disciplines)
            .enumerate()
            .map(|(i, (c, d))| run_fabric_with(c, d, replication_seed(&streams, i as u64, 0)))
            .collect();
        let runs: Vec<FabricRun<'_>> = configs
            .iter()
            .zip(&disciplines)
            .zip(&reports)
            .map(|((config, disciplines), report)| FabricRun {
                config,
                disciplines,
                report,
                reps: 1,
            })
            .collect();
        OperatingPoint::from_runs(
            "the corpora's M/M/c and M/M/c/K fabric scenarios, one replication each",
            &runs,
        )
    }

    fn describe(&self) -> Vec<String> {
        let seeds: Vec<String> = self.corpora.iter().map(|c| c.seed.to_string()).collect();
        let mut lines = vec![format!(
            "{} corpora x {} scenarios over {} oracle pairs, corpus seeds {}",
            self.corpora.len(),
            self.corpora[0].len(),
            self.corpora[0].stats().pairs,
            seeds.join(" ")
        )];
        let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
        for r in &self.reports {
            let w = worst.entry(r.pair.key()).or_insert(0.0);
            *w = w.max(margin(r));
        }
        for (pair, m) in worst {
            lines.push(format!("  worst margin {pair}: {m:.4}"));
        }
        if self.mismatches > 0 {
            lines.push(format!(
                "  {} batches rendered a report that differs from the first",
                self.mismatches
            ));
        }
        lines
    }
}

// ----------------------------------------------------- paper experiments --

#[derive(Default)]
struct PaperExperiments {
    experiments: Vec<Experiment>,
    /// `EXPERIMENTS.md` section bodies by experiment id.
    expected: BTreeMap<String, String>,
    /// Batches in which each experiment panicked or differed.
    mismatched: BTreeMap<String, u64>,
    /// Experiments that failed in the latest batch.
    failed: u64,
}

impl Workload for PaperExperiments {
    fn name(&self) -> &'static str {
        "paper-experiments"
    }

    fn warm_up(&self) -> bool {
        false
    }

    fn setup(&mut self, tracer: &Tracer) {
        tracer.span("setup", None, None, |root| {
            let ids = experiment_ids();
            self.experiments = tracer.span("experiments.list", None, root, |_| {
                all_experiments()
                    .into_iter()
                    .filter(|e| ids.iter().any(|id| id == e.id))
                    .collect()
            });
            // A missing document leaves no expected reports, so every
            // experiment then counts as failed.
            if let Ok(doc) = gate::read(gate::EXPERIMENTS_DOC) {
                self.expected = gate::experiment_sections(&doc);
            }
        });
    }

    fn input_hash(&self) -> u64 {
        let ids: Vec<&str> = self.experiments.iter().map(|e| e.id).collect();
        fnv1a(ids.join(",").as_bytes())
    }

    fn gate(&self, gate: &mut Gate) {
        // The experiments' reports are compared on every batch; here the
        // document must have a section for every experiment.
        let doc = gate::read(gate::EXPERIMENTS_DOC).and_then(|doc| {
            let sections = gate::experiment_sections(&doc);
            match experiment_ids()
                .iter()
                .find(|id| !sections.contains_key(*id))
            {
                Some(id) => Err(format!("{} has no section for {id}", gate::EXPERIMENTS_DOC)),
                None => Ok(()),
            }
        });
        gate.record(gate::EXPERIMENTS_DOC, doc);
    }

    fn batch(&mut self, tracer: &Tracer, parent: Option<SpanId>) -> BatchCount {
        let mut failed = 0;
        for (i, e) in self.experiments.iter().enumerate() {
            let report = tracer.span("experiments.run", Some((i as u32, 0)), parent, |_| {
                run_experiments(&[e], 1)
                    .pop()
                    .expect("one report per experiment")
            });
            let expected = self.expected.get(e.id).map(String::as_str);
            if report.panicked || expected != Some(report.report.trim_end()) {
                failed += 1;
                *self.mismatched.entry(e.id.to_string()).or_insert(0) += 1;
            }
        }
        self.failed = failed;
        BatchCount {
            ops: self.experiments.len() as u64,
            failed,
        }
    }

    fn results(&self, run_s: f64) -> Vec<Metric> {
        let n = self.experiments.len() as f64;
        vec![
            Metric::new("failed_frac", self.failed as f64 / n, "1"),
            Metric::new("work_per_s", n / run_s, "1/s"),
        ]
    }

    fn layers(&self, batches: &[Vec<Span>], _setups: &[Vec<Span>], pool: usize) -> Vec<Metric> {
        let mut out = vec![Metric::new(
            "pool.busy_frac",
            busy_frac(batches, "experiments.run", pool),
            "1",
        )];
        for (i, e) in self.experiments.iter().enumerate() {
            out.push(Metric::new(
                &format!("experiments.wall_s.{}", e.id),
                median_sum(batches, "experiments.run", |s| {
                    s.cell.is_some_and(|c| c.0 as usize == i)
                }),
                "s",
            ));
        }
        out
    }

    fn operating_point(&self) -> OperatingPoint {
        // E22's two arms, replayed exactly as the experiment runs them: the
        // only fabrics this workload runs.
        let budget = scenarios::Budget::full();
        let streams = RngStreams::new(scenarios::DEFAULT_SEED);
        let configs: Vec<FabricConfig> = [false, true]
            .iter()
            .map(|&p| scenarios::retry_storm_config(p, &budget))
            .collect();
        let disciplines: Vec<_> = configs.iter().map(|c| c.build_disciplines()).collect();
        let reports: Vec<FabricReport> = configs
            .iter()
            .map(|c| {
                let reps: Vec<_> = (0..budget.replications)
                    .map(|rep| run_fabric(c, replication_seed(&streams, 7, rep)))
                    .collect();
                aggregate(&reps)
            })
            .collect();
        let runs: Vec<FabricRun<'_>> = configs
            .iter()
            .zip(&disciplines)
            .zip(&reports)
            .map(|((config, disciplines), report)| FabricRun {
                config,
                disciplines,
                report,
                reps: budget.replications,
            })
            .collect();
        OperatingPoint::from_runs("E22's two retry-storm arms", &runs)
    }

    fn describe(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{} experiments, seeds compiled into the harness (the benchmark seed does not reach them)",
            self.experiments.len()
        )];
        for (id, n) in &self.mismatched {
            lines.push(format!(
                "  {id}: report differs from {} or panicked in {n} batches",
                gate::EXPERIMENTS_DOC
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_match_the_program() {
        let suite: Vec<String> = scenario_list(&scenarios::Budget::full())
            .into_iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(suite, SUITE_SCENARIOS);
        let pairs: Vec<&str> = ss_verify::OraclePair::ALL.iter().map(|p| p.key()).collect();
        assert_eq!(pairs, PAIRS);
        let ids: Vec<&str> = all_experiments()
            .iter()
            .filter(|e| !e.timing_sensitive())
            .map(|e| e.id)
            .collect();
        assert_eq!(ids, experiment_ids());
    }
}
