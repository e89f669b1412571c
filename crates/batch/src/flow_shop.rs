//! Stochastic flow shops: `m` machines in series (Wie–Pinedo 1986).
//!
//! Every job visits machine 1, then machine 2, …, then machine `m`;
//! a permutation schedule processes the jobs in the same order on every
//! machine (with unlimited intermediate buffers).  The module provides
//!
//! * a permutation-schedule simulator (expected makespan / flowtime by
//!   Monte Carlo),
//! * the classical deterministic recursion used per realisation,
//! * Johnson-type and Talwar-type orderings for two-machine shops
//!   (for exponential processing times Talwar's rule — sort by
//!   nonincreasing `λ1 - λ2`, i.e. the index `λ_{i,1} - λ_{i,2}` — minimises
//!   the expected makespan), and
//! * an exhaustive search over permutations for small instances, used by
//!   the tests to confirm Talwar's rule on exponential two-machine shops.

use rand::RngCore;
use ss_distributions::DynDist;

/// A stochastic flow-shop instance: `stage_dists[i][k]` is the processing
/// time distribution of job `i` on machine (stage) `k`.
#[derive(Debug, Clone)]
pub struct FlowShopInstance {
    /// Per-job, per-stage distributions.
    pub stage_dists: Vec<Vec<DynDist>>,
}

impl FlowShopInstance {
    /// Create an instance; all jobs must have the same number of stages.
    pub fn new(stage_dists: Vec<Vec<DynDist>>) -> Self {
        assert!(!stage_dists.is_empty(), "need at least one job");
        let stages = stage_dists[0].len();
        assert!(stages >= 1, "need at least one stage");
        assert!(
            stage_dists.iter().all(|row| row.len() == stages),
            "ragged stage matrix"
        );
        Self { stage_dists }
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.stage_dists.len()
    }

    /// Number of machines (stages).
    pub fn num_stages(&self) -> usize {
        self.stage_dists[0].len()
    }
}

/// Deterministic permutation-flow-shop recursion on realised durations:
/// `C[i][k] = max(C[i-1][k], C[i][k-1]) + p[i][k]` in permutation order.
/// Returns (makespan, total flowtime) for the realisation.
pub fn realised_permutation_schedule(durations: &[Vec<f64>], order: &[usize]) -> (f64, f64) {
    let stages = durations[0].len();
    let mut prev_row = vec![0.0f64; stages];
    let mut total_flowtime = 0.0;
    for &job in order {
        let mut row = vec![0.0f64; stages];
        for k in 0..stages {
            let ready_machine = prev_row[k];
            let ready_job = if k == 0 { 0.0 } else { row[k - 1] };
            row[k] = ready_machine.max(ready_job) + durations[job][k];
        }
        total_flowtime += row[stages - 1];
        prev_row = row;
    }
    (prev_row[stages - 1], total_flowtime)
}

/// Simulate one realisation of a permutation schedule; returns
/// `(makespan, total flowtime)`.
pub fn simulate_permutation(
    instance: &FlowShopInstance,
    order: &[usize],
    rng: &mut dyn RngCore,
) -> (f64, f64) {
    assert_eq!(order.len(), instance.num_jobs());
    let durations: Vec<Vec<f64>> = instance
        .stage_dists
        .iter()
        .map(|row| row.iter().map(|d| d.sample(rng)).collect())
        .collect();
    realised_permutation_schedule(&durations, order)
}

/// Talwar's rule for two-machine shops with exponential processing times:
/// order jobs by nonincreasing `λ_{i,1} - λ_{i,2}` (rate on machine 1 minus
/// rate on machine 2).  For exponential stages this minimises the expected
/// makespan over permutation schedules.
pub fn talwar_order(rates_stage1: &[f64], rates_stage2: &[f64]) -> Vec<usize> {
    assert_eq!(rates_stage1.len(), rates_stage2.len());
    let mut order: Vec<usize> = (0..rates_stage1.len()).collect();
    order.sort_by(|&a, &b| {
        let ka = rates_stage1[a] - rates_stage2[a];
        let kb = rates_stage1[b] - rates_stage2[b];
        kb.partial_cmp(&ka).unwrap()
    });
    order
}

/// Johnson's rule applied to the *mean* processing times (a natural
/// deterministic heuristic for stochastic shops): job `i` goes early if
/// `E[p_{i,1}] < E[p_{i,2}]`, sorted ascending by `E[p_{i,1}]`; the rest go
/// late sorted descending by `E[p_{i,2}]`.
pub fn johnson_order_on_means(instance: &FlowShopInstance) -> Vec<usize> {
    assert_eq!(
        instance.num_stages(),
        2,
        "Johnson's rule applies to 2-machine shops"
    );
    let means: Vec<(f64, f64)> = instance
        .stage_dists
        .iter()
        .map(|row| (row[0].mean(), row[1].mean()))
        .collect();
    let mut early: Vec<usize> = (0..means.len())
        .filter(|&i| means[i].0 <= means[i].1)
        .collect();
    let mut late: Vec<usize> = (0..means.len())
        .filter(|&i| means[i].0 > means[i].1)
        .collect();
    early.sort_by(|&a, &b| means[a].0.partial_cmp(&means[b].0).unwrap());
    late.sort_by(|&a, &b| means[b].1.partial_cmp(&means[a].1).unwrap());
    early.extend(late);
    early
}

/// Exhaustive search over permutations minimising the Monte-Carlo expected
/// makespan (common random numbers across permutations); returns
/// `(best_order, best_value)`.  Intended for `n <= 7`.
pub fn exhaustive_best_permutation(
    instance: &FlowShopInstance,
    replications: usize,
    rng: &mut dyn RngCore,
) -> (Vec<usize>, f64) {
    let n = instance.num_jobs();
    assert!(n <= 8, "exhaustive permutation search limited to 8 jobs");
    // Pre-sample realisations so every permutation sees the same durations
    // (common random numbers make the comparison exact in distribution).
    let samples: Vec<Vec<Vec<f64>>> = (0..replications)
        .map(|_| {
            instance
                .stage_dists
                .iter()
                .map(|row| row.iter().map(|d| d.sample(rng)).collect())
                .collect()
        })
        .collect();
    let evaluate = |order: &[usize]| -> f64 {
        samples
            .iter()
            .map(|durations| realised_permutation_schedule(durations, order).0)
            .sum::<f64>()
            / replications as f64
    };
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best_order = perm.clone();
    let mut best_value = evaluate(&perm);
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let value = evaluate(&perm);
            if value < best_value {
                best_value = value;
                best_order = perm.clone();
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    (best_order, best_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Deterministic, Exponential};

    fn det_shop() -> FlowShopInstance {
        // Two jobs, two machines, deterministic: p = [[3, 2], [1, 4]].
        FlowShopInstance::new(vec![
            vec![
                dyn_dist(Deterministic::new(3.0)),
                dyn_dist(Deterministic::new(2.0)),
            ],
            vec![
                dyn_dist(Deterministic::new(1.0)),
                dyn_dist(Deterministic::new(4.0)),
            ],
        ])
    }

    #[test]
    fn deterministic_recursion_matches_hand_computation() {
        let shop = det_shop();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        // Order [0, 1]: machine1 completions 3, 4; machine2: 5, 9.
        let (mk, flow) = simulate_permutation(&shop, &[0, 1], &mut rng);
        assert!((mk - 9.0).abs() < 1e-12);
        assert!((flow - 14.0).abs() < 1e-12);
        // Order [1, 0]: machine1: 1, 4; machine2: 5, 7.
        let (mk2, _) = simulate_permutation(&shop, &[1, 0], &mut rng);
        assert!((mk2 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn johnson_order_on_det_instance_is_optimal() {
        // Johnson's rule on the deterministic instance picks [1, 0].
        let shop = det_shop();
        assert_eq!(johnson_order_on_means(&shop), vec![1, 0]);
    }

    #[test]
    fn single_stage_flow_shop_flowtime_matches_single_machine() {
        let shop = FlowShopInstance::new(vec![
            vec![dyn_dist(Deterministic::new(2.0))],
            vec![dyn_dist(Deterministic::new(1.0))],
        ]);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (mk, flow) = simulate_permutation(&shop, &[1, 0], &mut rng);
        assert!((mk - 3.0).abs() < 1e-12);
        assert!((flow - 4.0).abs() < 1e-12);
    }

    #[test]
    fn talwar_rule_matches_exhaustive_for_exponential_two_machine_shop() {
        // E-flow-shop claim: Talwar's index rule minimises the expected
        // makespan for exponential processing times; check against the
        // common-random-number exhaustive search on a 5-job instance.
        let r1 = [2.0, 0.8, 1.5, 3.0, 1.0];
        let r2 = [1.0, 2.0, 1.2, 0.7, 2.5];
        let jobs: Vec<Vec<DynDist>> = (0..5)
            .map(|i| {
                vec![
                    dyn_dist(Exponential::new(r1[i])),
                    dyn_dist(Exponential::new(r2[i])),
                ]
            })
            .collect();
        let shop = FlowShopInstance::new(jobs);
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let (_, best) = exhaustive_best_permutation(&shop, 4000, &mut rng);
        let talwar = talwar_order(&r1, &r2);
        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        // Evaluate Talwar on the same sample paths by regenerating them.
        let samples: Vec<Vec<Vec<f64>>> = (0..4000)
            .map(|_| {
                shop.stage_dists
                    .iter()
                    .map(|row| row.iter().map(|d| d.sample(&mut rng2)).collect())
                    .collect()
            })
            .collect();
        let talwar_value: f64 = samples
            .iter()
            .map(|d| realised_permutation_schedule(d, &talwar).0)
            .sum::<f64>()
            / samples.len() as f64;
        // Talwar should be within Monte-Carlo noise of the best permutation.
        assert!(
            talwar_value <= best * 1.02 + 1e-9,
            "Talwar {talwar_value} should be near the exhaustive best {best}"
        );
    }
}
