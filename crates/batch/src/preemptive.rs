//! Preemptive single-machine scheduling (Sevcik 1974).
//!
//! When preemption is allowed, the optimal policy for `E[Σ w_i C_i]` is a
//! priority-index rule whose index depends on the *attained service* of each
//! job: the Gittins-type index
//!
//! ```text
//! G_i(a) = w_i * sup_{s > 0}  P(P_i <= a + s | P_i > a)
//!                             -----------------------------
//!                             E[ min(P_i - a, s) | P_i > a ]
//! ```
//!
//! For exponential processing times the index is constant (`w_i λ_i`, i.e.
//! WSEPT) and preemption brings no benefit; for decreasing-hazard-rate jobs
//! the index falls as service accrues, so the optimal policy abandons jobs
//! that fail to finish quickly — the source of the strict improvement over
//! WSEPT measured in experiment E2.
//!
//! The index is computed numerically on a quantum grid; the scheduler is a
//! discrete-review simulator with a configurable review period.
//!
//! ## The (job, k) index table
//!
//! A job's index depends only on its distribution, its weight and its
//! attained service, and between completions attained service moves in
//! whole review periods.  A job that has been served `k` quanta has
//! attained exactly the `k`-fold sum `0.0 + review_period + …`, with the
//! same bits in every replication, so its index is a pure function of
//! `(job, k)`.  [`PreemptiveIndexTable`] therefore keeps one lazily grown
//! row per job: entry `k` is evaluated once, on first need, from that
//! running sum, and is reused at every later review epoch and in every
//! later replication.
//!
//! The key is the quanta count, but the value is computed from the
//! accumulated `attained`, never from `k as f64 * review_period`: the
//! product rounds differently from the sum, and the index must see the
//! exact bits the per-epoch recomputation saw for the outcomes to stay
//! bit-identical.

use rand::RngCore;
use ss_core::instance::BatchInstance;
use ss_distributions::ServiceDistribution;
use std::fmt;

/// Numerically evaluate the Gittins/Sevcik index of a job with weight
/// `weight`, processing-time distribution `dist` and attained service `a`.
///
/// The supremum over the stopping quantum `s` is approximated over a
/// geometric grid spanning `[min_quantum, horizon]`.
pub fn gittins_service_index(
    dist: &dyn ServiceDistribution,
    weight: f64,
    attained: f64,
    min_quantum: f64,
    horizon: f64,
    grid_points: usize,
) -> f64 {
    let rate = gittins_service_rate(dist, attained, min_quantum, horizon, grid_points);
    if rate.is_infinite() {
        // The job is (numerically) sure to be complete; top priority
        // regardless of weight so the simulator finishes it off.
        return f64::INFINITY;
    }
    weight * rate
}

/// The weight-independent part of [`gittins_service_index`]: the supremum
/// of completion-probability over expected-quantum ratios, so that
/// `gittins_service_index = weight · gittins_service_rate` (with the
/// numerically-complete `+∞` case passed through unscaled).
///
/// Split out so warm-start serving layers (`ss-index`) can cache the
/// expensive grid supremum per distribution and reprice a holding-cost
/// drift with one multiply — bit-identical to a cold rebuild, because the
/// cold path is this same function followed by the same multiply.
pub fn gittins_service_rate(
    dist: &dyn ServiceDistribution,
    attained: f64,
    min_quantum: f64,
    horizon: f64,
    grid_points: usize,
) -> f64 {
    assert!(min_quantum > 0.0 && horizon > min_quantum && grid_points >= 2);
    let sa = dist.sf(attained);
    if sa <= 1e-12 {
        // The job is (numerically) sure to be complete.
        return f64::INFINITY;
    }
    let ratio = (horizon / min_quantum).powf(1.0 / (grid_points - 1) as f64);
    let mut best = 0.0f64;
    let mut s = min_quantum;
    for _ in 0..grid_points {
        let p_complete = dist.completion_rate(attained, s);
        // E[min(residual, s) | survive a] by trapezoidal integration of the
        // conditional survival function.
        let steps = 32;
        let h = s / steps as f64;
        let mut integral = 0.0;
        let mut prev = 1.0; // S(a + 0)/S(a)
        for k in 1..=steps {
            let cur = dist.sf(attained + k as f64 * h) / sa;
            integral += 0.5 * (prev + cur) * h;
            prev = cur;
        }
        if integral > 1e-12 {
            best = best.max(p_complete / integral);
        }
        s *= ratio;
    }
    best
}

/// Outcome of one simulated preemptive schedule.
#[derive(Debug, Clone, Copy)]
pub struct PreemptiveOutcome {
    /// Realised weighted flowtime `Σ w_i C_i`.
    pub weighted_flowtime: f64,
    /// Realised makespan.
    pub makespan: f64,
    /// Number of preemptions that occurred.
    pub preemptions: usize,
}

/// Configuration of the discrete-review preemptive scheduler.
#[derive(Debug, Clone, Copy)]
pub struct PreemptiveConfig {
    /// Review period (service quantum between scheduling decisions).
    pub review_period: f64,
    /// Quantum grid lower bound for the index computation.
    pub min_quantum: f64,
    /// Quantum grid upper bound (roughly the largest plausible residual).
    pub index_horizon: f64,
    /// Number of grid points for the index supremum.
    pub grid_points: usize,
}

impl Default for PreemptiveConfig {
    fn default() -> Self {
        Self {
            review_period: 0.05,
            min_quantum: 0.05,
            index_horizon: 50.0,
            grid_points: 24,
        }
    }
}

impl PreemptiveConfig {
    /// Check the preconditions the simulator and the index grid rely on.
    ///
    /// A review period that is not finite and positive would never let a
    /// job's attained service reach its size, so the simulator would loop
    /// forever; the grid checks are the ones [`gittins_service_rate`]
    /// asserts.
    pub fn validate(&self) -> Result<(), PreemptiveConfigError> {
        if !(self.review_period.is_finite() && self.review_period > 0.0) {
            return Err(PreemptiveConfigError::ReviewPeriod(self.review_period));
        }
        if self.min_quantum.is_nan() || self.min_quantum <= 0.0 {
            return Err(PreemptiveConfigError::MinQuantum(self.min_quantum));
        }
        if self.index_horizon.is_nan() || self.index_horizon <= self.min_quantum {
            return Err(PreemptiveConfigError::IndexHorizon {
                min_quantum: self.min_quantum,
                index_horizon: self.index_horizon,
            });
        }
        if self.grid_points < 2 {
            return Err(PreemptiveConfigError::GridPoints(self.grid_points));
        }
        Ok(())
    }
}

/// A [`PreemptiveConfig`] rejected by [`PreemptiveConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreemptiveConfigError {
    /// `review_period` is not finite and positive.
    ReviewPeriod(f64),
    /// `min_quantum` is not positive.
    MinQuantum(f64),
    /// `index_horizon` does not exceed `min_quantum`.
    IndexHorizon {
        min_quantum: f64,
        index_horizon: f64,
    },
    /// `grid_points` is below 2.
    GridPoints(usize),
}

impl fmt::Display for PreemptiveConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ReviewPeriod(v) => {
                write!(f, "review_period must be finite and positive, got {v:?}")
            }
            Self::MinQuantum(v) => write!(f, "min_quantum must be positive, got {v:?}"),
            Self::IndexHorizon {
                min_quantum,
                index_horizon,
            } => write!(
                f,
                "index_horizon must exceed min_quantum, got {index_horizon:?} <= {min_quantum:?}"
            ),
            Self::GridPoints(n) => write!(f, "grid_points must be at least 2, got {n}"),
        }
    }
}

impl std::error::Error for PreemptiveConfigError {}

/// The Gittins-index preemptive scheduler of one instance, with each job's
/// index tabulated by quanta served (see the module docs).
///
/// Entries are computed on first need and kept, so one table reused across
/// replications evaluates each `(job, k)` once in total.  Reuse changes no
/// outcome bit and draws nothing from the RNG.
pub struct PreemptiveIndexTable<'a> {
    instance: &'a BatchInstance,
    config: &'a PreemptiveConfig,
    /// `index[i][k]`: job `i`'s index after `k` quanta of service.
    index: Vec<Vec<f64>>,
}

impl<'a> PreemptiveIndexTable<'a> {
    /// An empty table for `instance` under `config`, which must pass
    /// [`PreemptiveConfig::validate`].
    pub fn new(
        instance: &'a BatchInstance,
        config: &'a PreemptiveConfig,
    ) -> Result<Self, PreemptiveConfigError> {
        config.validate()?;
        Ok(Self {
            instance,
            config,
            index: vec![Vec::new(); instance.jobs().len()],
        })
    }

    /// Simulate one realisation of the Gittins-index preemptive policy on a
    /// single machine.
    ///
    /// Processing times are sampled up front (the scheduler never sees
    /// them); at each review epoch the job with the largest current index
    /// receives the next quantum of service.
    pub fn simulate(&mut self, rng: &mut dyn RngCore) -> PreemptiveOutcome {
        let jobs = self.instance.jobs();
        let review_period = self.config.review_period;
        let n = jobs.len();
        let true_sizes: Vec<f64> = jobs.iter().map(|j| j.dist.sample(rng)).collect();
        let mut attained = vec![0.0f64; n];
        let mut quanta = vec![0usize; n];
        let mut done = vec![false; n];
        let mut completion = vec![0.0f64; n];
        let mut remaining = n;
        let mut clock = 0.0;
        let mut last_served: Option<usize> = None;
        let mut preemptions = 0;

        while remaining > 0 {
            // Pick the job with the highest index.
            let mut best_job = None;
            let mut best_index = f64::NEG_INFINITY;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                // A job served k quanta was picked at k - 1, so its row
                // already holds entries 0..k.
                let row = &mut self.index[i];
                if row.len() == quanta[i] {
                    row.push(gittins_service_index(
                        jobs[i].dist.as_ref(),
                        jobs[i].weight,
                        attained[i],
                        self.config.min_quantum,
                        self.config.index_horizon,
                        self.config.grid_points,
                    ));
                }
                let idx = row[quanta[i]];
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
            if needed <= review_period {
                clock += needed.max(0.0);
                attained[i] = true_sizes[i];
                done[i] = true;
                completion[i] = clock;
                remaining -= 1;
            } else {
                clock += review_period;
                attained[i] += review_period;
                quanta[i] += 1;
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
}

/// Simulate one realisation of the Gittins-index preemptive policy on a
/// single machine, through a fresh [`PreemptiveIndexTable`].
///
/// Callers that run many replications of one instance should hold one
/// table instead, so every `(job, k)` index is computed once in total.
///
/// # Panics
///
/// If `config` fails [`PreemptiveConfig::validate`].
pub fn simulate_gittins_preemptive(
    instance: &BatchInstance,
    config: &PreemptiveConfig,
    rng: &mut dyn RngCore,
) -> PreemptiveOutcome {
    PreemptiveIndexTable::new(instance, config)
        .unwrap_or_else(|e| panic!("{e}"))
        .simulate(rng)
}

/// Simulate one realisation of the *nonpreemptive* WSEPT list on the same
/// sampled processing times, for paired comparisons (common random numbers
/// are achieved by the caller reusing the RNG stream).
pub fn simulate_wsept_nonpreemptive(instance: &BatchInstance, rng: &mut dyn RngCore) -> f64 {
    let order = crate::policies::wsept_order(instance);
    crate::single_machine::sample_weighted_flowtime(instance, &order, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Deterministic, Exponential, HyperExponential};

    #[test]
    fn exponential_index_is_w_lambda() {
        let d = Exponential::new(2.0);
        for a in [0.0, 0.7, 3.0] {
            let g = gittins_service_index(&d, 1.5, a, 0.01, 20.0, 32);
            assert!((g - 3.0).abs() < 0.05, "index {g} at attained {a}");
        }
    }

    #[test]
    fn dhr_index_decreases_with_attained_service() {
        let d = HyperExponential::with_mean_scv(1.0, 8.0);
        let g0 = gittins_service_index(&d, 1.0, 0.0, 0.01, 40.0, 40);
        let g2 = gittins_service_index(&d, 1.0, 2.0, 0.01, 40.0, 40);
        assert!(g0 > g2, "DHR index should fall: {g0} -> {g2}");
    }

    #[test]
    fn deterministic_jobs_schedule_without_preemption_waste() {
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Deterministic::new(1.0)))
            .job(1.0, dyn_dist(Deterministic::new(2.0)))
            .build();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = simulate_gittins_preemptive(&inst, &PreemptiveConfig::default(), &mut rng);
        // Makespan is the total work regardless of policy.
        assert!((out.makespan - 3.0).abs() < 1e-9);
        // The short job should finish first: 1*1 + 1*3 = 4.
        assert!((out.weighted_flowtime - 4.0).abs() < 1e-6);
    }

    #[test]
    fn preemptive_matches_wsept_for_exponential_jobs() {
        // Memorylessness makes preemption worthless: the two estimates agree
        // within Monte-Carlo noise (E2, exponential row).
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::with_mean(1.0)))
            .job(2.0, dyn_dist(Exponential::with_mean(0.5)))
            .job(1.0, dyn_dist(Exponential::with_mean(2.0)))
            .build();
        let reps = 1500;
        let config = PreemptiveConfig {
            review_period: 0.2,
            min_quantum: 0.2,
            index_horizon: 20.0,
            grid_points: 8,
        };
        let mut table = PreemptiveIndexTable::new(&inst, &config).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut pre = 0.0;
        let mut non = 0.0;
        for _ in 0..reps {
            pre += table.simulate(&mut rng).weighted_flowtime;
            non += simulate_wsept_nonpreemptive(&inst, &mut rng);
        }
        pre /= reps as f64;
        non /= reps as f64;
        let rel = (pre - non).abs() / non;
        assert!(
            rel < 0.08,
            "preemptive {pre} vs WSEPT {non} (rel diff {rel})"
        );
    }

    #[test]
    fn preemption_helps_for_dhr_jobs() {
        // Strongly DHR jobs: abandoning a job that failed to finish quickly
        // is valuable, so the Gittins preemptive policy beats WSEPT.
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .job(1.0, dyn_dist(HyperExponential::with_mean_scv(1.0, 16.0)))
            .build();
        let reps = 1500;
        let config = PreemptiveConfig {
            review_period: 0.25,
            min_quantum: 0.25,
            index_horizon: 30.0,
            grid_points: 8,
        };
        let mut table = PreemptiveIndexTable::new(&inst, &config).unwrap();
        let mut rng_a = ChaCha8Rng::seed_from_u64(21);
        let mut rng_b = ChaCha8Rng::seed_from_u64(21);
        let mut pre = 0.0;
        let mut non = 0.0;
        for _ in 0..reps {
            pre += table.simulate(&mut rng_a).weighted_flowtime;
            non += simulate_wsept_nonpreemptive(&inst, &mut rng_b);
        }
        pre /= reps as f64;
        non /= reps as f64;
        assert!(
            pre < non * 0.97,
            "expected a clear preemption gain: preemptive {pre} vs WSEPT {non}"
        );
    }

    fn check(config: PreemptiveConfig, expected: PreemptiveConfigError) {
        assert_eq!(config.validate(), Err(expected));
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::new(1.0)))
            .build();
        assert_eq!(
            PreemptiveIndexTable::new(&inst, &config).err(),
            Some(expected)
        );
    }

    #[test]
    fn review_period_must_be_finite_and_positive() {
        for review_period in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let config = PreemptiveConfig {
                review_period,
                ..PreemptiveConfig::default()
            };
            // NaN != NaN, so compare the variant through its bits.
            match config.validate() {
                Err(PreemptiveConfigError::ReviewPeriod(v)) => {
                    assert_eq!(v.to_bits(), review_period.to_bits())
                }
                other => panic!("review_period {review_period}: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "review_period must be finite and positive, got 0.0")]
    fn zero_review_period_panics_instead_of_hanging() {
        let inst = BatchInstance::builder()
            .job(1.0, dyn_dist(Exponential::new(1.0)))
            .build();
        let config = PreemptiveConfig {
            review_period: 0.0,
            ..PreemptiveConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        simulate_gittins_preemptive(&inst, &config, &mut rng);
    }

    #[test]
    fn min_quantum_must_be_positive() {
        check(
            PreemptiveConfig {
                min_quantum: 0.0,
                ..PreemptiveConfig::default()
            },
            PreemptiveConfigError::MinQuantum(0.0),
        );
    }

    #[test]
    fn index_horizon_must_exceed_min_quantum() {
        check(
            PreemptiveConfig {
                min_quantum: 0.5,
                index_horizon: 0.5,
                ..PreemptiveConfig::default()
            },
            PreemptiveConfigError::IndexHorizon {
                min_quantum: 0.5,
                index_horizon: 0.5,
            },
        );
    }

    #[test]
    fn grid_needs_two_points() {
        check(
            PreemptiveConfig {
                grid_points: 1,
                ..PreemptiveConfig::default()
            },
            PreemptiveConfigError::GridPoints(1),
        );
    }
}
