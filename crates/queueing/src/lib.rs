//! # ss-queueing — queueing scheduling control (§3 of the survey)
//!
//! Models where the jobs arrive over time and the scheduler controls a
//! service discipline in steady state:
//!
//! | Survey claim | Module |
//! |---|---|
//! | The cµ-rule minimises the steady-state holding-cost rate of a multiclass M/G/1 queue (Cox–Smith 1961) | [`mg1`] (simulator), [`cobham`] (exact formulas), [`cmu`] |
//! | Work conservation / the achievable-region (polymatroid) view of M/G/1 performance | [`conservation`] |
//! | The achievable-region LP, polymatroid vertices and the adaptive-greedy account of the cµ/Klimov indices (Bertsimas–Niño-Mora 1996) | [`achievable_region`] |
//! | Klimov's algorithm gives the optimal priority indices for the M/G/1 with Bernoulli feedback (Klimov 1974, Tcha–Pliska 1977) | [`klimov`], [`klimov_sim`] (the simulator + exact workload) |
//! | The Klimov/cµ index used as a heuristic for multiclass M/M/m parallel servers: relaxation bounds and heavy-traffic optimality (Glazebrook–Niño-Mora 2001) | [`parallel_servers`] |
//! | Multi-station multiclass networks: the stability problem — work-conserving priority rules can be unstable below nominal capacity | [`network`], [`stability`] |
//! | Fluid approximations and fluid-guided scheduling (Chen–Yao 1993, Atkins–Chen 1995) | [`fluid`] |
//! | Changeover/setup times and polling disciplines (Levy–Sidi 1990, Reiman–Wein 1998) | [`polling`] |
//! | Setup thresholds from the heavy-traffic (diffusion) viewpoint (Reiman–Wein 1998) | [`setups`] |
//!
//! All simulators are event-driven on `ss-sim` primitives, use reproducible
//! RNG streams, support warm-up deletion and report time-average queue
//! lengths per class.

pub mod achievable_region;
pub mod cmu;
pub mod cobham;
pub mod conservation;
pub mod discipline;
pub mod fluid;
pub mod klimov;
pub mod klimov_sim;
pub mod mg1;
pub mod network;
pub mod parallel_servers;
pub mod polling;
pub(crate) mod sampling;
pub mod setups;
pub mod stability;

pub use achievable_region::{region_lp, vertex_performance, RegionLpResult};
pub use cmu::cmu_order;
pub use cobham::{mg1_nonpreemptive_priority, mg1_preemptive_priority, pollaczek_khinchine_wait};
pub use discipline::cmu_discipline;
pub use klimov::{klimov_indices, KlimovNetwork};
pub use klimov_sim::{exact_mean_workload, simulate_klimov_policy, KlimovPolicyResult};
pub use mg1::{Mg1Config, Mg1Result, ServiceOrder};
