//! Bit-identity of the tabulated preemptive Gittins simulator against the
//! per-epoch recomputation it replaced.
//!
//! `reference_simulate` is that loop, kept here as the reference: it
//! re-evaluates every unfinished job's index at every review epoch.  Over
//! randomized instances the table must reproduce every outcome field bit
//! for bit and leave the RNG at the same position, both as a fresh table
//! per replication (the `simulate_gittins_preemptive` wrapper) and as one
//! table reused across replications.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ss_batch::preemptive::{
    gittins_service_index, simulate_gittins_preemptive, PreemptiveConfig, PreemptiveIndexTable,
    PreemptiveOutcome,
};
use ss_core::instance::BatchInstance;
use ss_distributions::{
    dyn_dist, Deterministic, DistKind, DynDist, Erlang, Exponential, HyperExponential,
    ServiceDistribution,
};

/// The per-epoch simulator: every unfinished job's index is recomputed at
/// every review epoch.
fn reference_simulate(
    instance: &BatchInstance,
    config: &PreemptiveConfig,
    rng: &mut dyn RngCore,
) -> PreemptiveOutcome {
    let jobs = instance.jobs();
    let n = jobs.len();
    let true_sizes: Vec<f64> = jobs.iter().map(|j| j.dist.sample(rng)).collect();
    let mut attained = vec![0.0f64; n];
    let mut done = vec![false; n];
    let mut completion = vec![0.0f64; n];
    let mut remaining = n;
    let mut clock = 0.0;
    let mut last_served: Option<usize> = None;
    let mut preemptions = 0;

    while remaining > 0 {
        let mut best_job = None;
        let mut best_index = f64::NEG_INFINITY;
        for i in 0..n {
            if done[i] {
                continue;
            }
            let idx = gittins_service_index(
                jobs[i].dist.as_ref(),
                jobs[i].weight,
                attained[i],
                config.min_quantum,
                config.index_horizon,
                config.grid_points,
            );
            if idx > best_index {
                best_index = idx;
                best_job = Some(i);
            }
        }
        let i = best_job.expect("remaining > 0 implies an unfinished job exists");
        if let Some(prev) = last_served {
            if prev != i && !done[prev] {
                preemptions += 1;
            }
        }
        last_served = Some(i);

        let needed = true_sizes[i] - attained[i];
        if needed <= config.review_period {
            clock += needed.max(0.0);
            attained[i] = true_sizes[i];
            done[i] = true;
            completion[i] = clock;
            remaining -= 1;
        } else {
            clock += config.review_period;
            attained[i] += config.review_period;
        }
    }

    let weighted_flowtime = (0..n).map(|i| jobs[i].weight * completion[i]).sum();
    let makespan = completion.iter().cloned().fold(0.0, f64::max);
    PreemptiveOutcome {
        weighted_flowtime,
        makespan,
        preemptions,
    }
}

/// A point mass at `size` whose survival function reports the job complete
/// from `size / 2` on, so from there its index is the `+∞` sentinel.
///
/// A valid distribution never reaches that sentinel in the simulator: an
/// unfinished `Deterministic` job has attained less than its size, so its
/// survival is 1, and `Job::new` rejects a zero-mean point mass.  This
/// stand-in drives the sentinel through many consecutive table entries.
#[derive(Debug)]
struct Underestimated {
    size: f64,
}

impl ServiceDistribution for Underestimated {
    fn kind(&self) -> DistKind {
        DistKind::Deterministic
    }
    fn mean(&self) -> f64 {
        self.size
    }
    fn variance(&self) -> f64 {
        0.0
    }
    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.size
    }
    fn cdf(&self, x: f64) -> f64 {
        if x >= self.size / 2.0 {
            1.0
        } else {
            0.0
        }
    }
    fn pdf(&self, _x: f64) -> f64 {
        0.0
    }
}

/// Three to five jobs drawn from Exp, HyperExp, Erlang and `Deterministic`
/// with mixed weights and means, plus one job that reaches the `+∞` index.
fn random_instance(rng: &mut ChaCha8Rng) -> BatchInstance {
    let mut builder = BatchInstance::builder();
    for _ in 0..rng.gen_range(3..6usize) {
        let weight = rng.gen_range(0.5..3.0);
        let mean = rng.gen_range(0.3..1.5);
        let dist = match rng.gen_range(0..4u32) {
            0 => dyn_dist(Exponential::with_mean(mean)),
            1 => dyn_dist(HyperExponential::with_mean_scv(
                mean,
                rng.gen_range(2.0..12.0),
            )),
            2 => dyn_dist(Erlang::with_mean(rng.gen_range(2..5u32), mean)),
            _ => dyn_dist(Deterministic::new(mean)),
        };
        builder = builder.job(weight, dist);
    }
    let size = rng.gen_range(0.5..2.0);
    builder.job(1.0, dyn_dist(Underestimated { size })).build()
}

fn assert_same(a: &PreemptiveOutcome, b: &PreemptiveOutcome, what: &str) {
    assert_eq!(
        a.weighted_flowtime.to_bits(),
        b.weighted_flowtime.to_bits(),
        "{what}: weighted_flowtime {} vs {}",
        a.weighted_flowtime,
        b.weighted_flowtime
    );
    assert_eq!(
        a.makespan.to_bits(),
        b.makespan.to_bits(),
        "{what}: makespan {} vs {}",
        a.makespan,
        b.makespan
    );
    assert_eq!(a.preemptions, b.preemptions, "{what}: preemptions");
}

/// Four copies of one job, as in experiment E2.  With a flat index their
/// ordering turns on the last bits of each index, so it is the case that
/// tells the accumulated `attained` from `k * review_period`.
fn identical_jobs(dist: DynDist) -> BatchInstance {
    let mut builder = BatchInstance::builder();
    for _ in 0..4 {
        builder = builder.job(1.0, dist.clone());
    }
    builder.build()
}

#[test]
fn table_reproduces_the_per_epoch_loop_bit_for_bit() {
    let mut gen = ChaCha8Rng::seed_from_u64(0x5E5C1C);
    let mut instances: Vec<BatchInstance> = (0..4).map(|_| random_instance(&mut gen)).collect();
    instances.push(identical_jobs(dyn_dist(Exponential::with_mean(1.0))));
    instances.push(identical_jobs(dyn_dist(HyperExponential::with_mean_scv(
        1.0, 1.01,
    ))));
    for (case, inst) in instances.iter().enumerate() {
        for review_period in [0.05, 0.1, 0.3] {
            let config = PreemptiveConfig {
                review_period,
                min_quantum: review_period,
                index_horizon: 30.0,
                grid_points: 8,
            };
            let seed = gen.next_u64();
            let mut rng_ref = ChaCha8Rng::seed_from_u64(seed);
            let mut rng_fresh = ChaCha8Rng::seed_from_u64(seed);
            let mut rng_reused = ChaCha8Rng::seed_from_u64(seed);
            let mut table = PreemptiveIndexTable::new(inst, &config).unwrap();
            for rep in 0..12 {
                let what = format!("case {case}, review period {review_period}, rep {rep}");
                let expected = reference_simulate(inst, &config, &mut rng_ref);
                let fresh = simulate_gittins_preemptive(inst, &config, &mut rng_fresh);
                let reused = table.simulate(&mut rng_reused);
                assert_same(&expected, &fresh, &format!("{what}, fresh table"));
                assert_same(&expected, &reused, &format!("{what}, reused table"));
                let next = rng_ref.next_u64();
                assert_eq!(next, rng_fresh.next_u64(), "{what}: fresh table RNG");
                assert_eq!(next, rng_reused.next_u64(), "{what}: reused table RNG");
            }
        }
    }
}
