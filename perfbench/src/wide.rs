//! The `fabric-wide` workload's fabric, generated from the benchmark seed.
//!
//! Same fabric code as the committed suite, used at a different size: tens
//! of classes with mixed Exp / HyperExp / Erlang service, a front tier of a
//! few hundred round-robin Whittle servers with bounded per-server queues,
//! a back tier of several hundred central-queue Gittins servers, hop delays
//! on both tiers, and utilisation `RHO` on each tier.  The calendar then
//! holds hundreds of pending events, every service start scans all classes
//! through the index table, and every central-queue arrival scans the back
//! tier for an idle server.

use rand::Rng;
use ss_distributions::{dyn_dist, DynDist, Erlang, Exponential, HyperExponential};
use ss_fabric::{
    ArrivalProcess, ClassConfig, DisciplineKind, FabricConfig, LbPolicy, RetryPolicy, TierConfig,
};
use ss_sim::rng::RngStreams;

pub const CLASSES: usize = 32;
pub const FRONT_SERVERS: usize = 300;
pub const BACK_SERVERS: usize = 400;
/// Offered load per server on both tiers.
pub const RHO: f64 = 0.9;
/// Waiting room per front-tier server.
pub const FRONT_QUEUE: usize = 6;
pub const HOP_DELAY: f64 = 0.1;
pub const WARMUP: f64 = 10.0;
pub const HORIZON: f64 = 250.0;

/// Stream id of the generator (`"WIDE"`), disjoint from the workspace's
/// registered stream ids.
const WIDE_STREAM: u64 = 0x5749_4445;

fn family(j: usize, mean: f64, rng: &mut impl Rng) -> DynDist {
    match j % 3 {
        0 => dyn_dist(Exponential::with_mean(mean)),
        1 => dyn_dist(HyperExponential::with_mean_scv(
            mean,
            rng.gen_range(2.0..6.0),
        )),
        _ => dyn_dist(Erlang::with_mean(rng.gen_range(2..5), mean)),
    }
}

/// The wide fabric for `seed`.  Class shares, relative service means,
/// shapes and holding costs are drawn from the seed.  Sizes and the total
/// arrival rate are fixed, and each tier's means are scaled so its offered
/// load per server is exactly [`RHO`], so every seed gives the same amount
/// of work.
pub fn wide_config(seed: u64) -> FabricConfig {
    let mut rng = RngStreams::new(seed).stream(WIDE_STREAM);
    let shares: Vec<f64> = (0..CLASSES).map(|_| rng.gen_range(0.5..1.5)).collect();
    let total: f64 = shares.iter().sum();
    let shares: Vec<f64> = shares.iter().map(|s| s / total).collect();
    let front_means: Vec<f64> = (0..CLASSES).map(|_| rng.gen_range(0.5..1.5)).collect();
    let back_means: Vec<f64> = (0..CLASSES).map(|_| rng.gen_range(0.5..1.5)).collect();
    let costs: Vec<f64> = (0..CLASSES).map(|_| rng.gen_range(0.5..2.0)).collect();

    // Mean service per request = `scale`, so tier load = λ · scale / servers.
    let lambda = RHO * FRONT_SERVERS as f64;
    let work = |means: &[f64]| shares.iter().zip(means).map(|(p, m)| p * m).sum::<f64>();
    let front_scale = 1.0 / work(&front_means);
    let back_scale = BACK_SERVERS as f64 / FRONT_SERVERS as f64 / work(&back_means);

    let front_service = (0..CLASSES)
        .map(|j| family(j, front_means[j] * front_scale, &mut rng))
        .collect();
    let back_service = (0..CLASSES)
        .map(|j| family(j, back_means[j] * back_scale, &mut rng))
        .collect();
    let tier = |servers, queue_capacity, service, discipline, lb| TierConfig {
        servers,
        queue_capacity,
        service,
        discipline,
        lb,
        hop_delay: HOP_DELAY,
        failure: None,
        breaker: None,
        slowdown: None,
        outage: None,
    };
    FabricConfig {
        name: "wide".into(),
        classes: (0..CLASSES)
            .map(|j| ClassConfig {
                arrivals: ArrivalProcess::Poisson {
                    rate: lambda * shares[j],
                },
                holding_cost: costs[j],
            })
            .collect(),
        tiers: vec![
            tier(
                FRONT_SERVERS,
                Some(FRONT_QUEUE),
                front_service,
                DisciplineKind::Whittle,
                LbPolicy::RoundRobin,
            ),
            tier(
                BACK_SERVERS,
                None,
                back_service,
                DisciplineKind::Gittins,
                LbPolicy::CentralQueue,
            ),
        ],
        retry: RetryPolicy::none(),
        deadlines: None,
        shedder: None,
        sla_window: None,
        warmup: WARMUP,
        horizon: HORIZON,
    }
}

/// Offered load per server of each tier: `Σ_j λ_j E[S_j] / servers`.
pub fn offered_rho(cfg: &FabricConfig) -> Vec<f64> {
    cfg.tiers
        .iter()
        .map(|t| {
            cfg.classes
                .iter()
                .zip(&t.service)
                .map(|(c, s)| c.arrivals.mean_rate() * s.mean())
                .sum::<f64>()
                / t.servers as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::calendar_depth;

    #[test]
    fn generator_is_deterministic_in_its_seed() {
        let a = format!("{:?}", wide_config(7));
        assert_eq!(a, format!("{:?}", wide_config(7)));
        assert_ne!(a, format!("{:?}", wide_config(8)));
    }

    #[test]
    fn generated_fabrics_validate_and_stay_stable() {
        for seed in [1, 2, 0xB5EED, u64::MAX] {
            let cfg = wide_config(seed);
            cfg.validate();
            for rho in offered_rho(&cfg) {
                assert!((rho - RHO).abs() < 1e-9 && rho < 1.0, "rho {rho}");
            }
        }
    }

    #[test]
    fn calendar_depth_is_in_the_hundreds() {
        for seed in [1, 2, 3] {
            let cfg = wide_config(seed);
            let rho = offered_rho(&cfg);
            let lambda: f64 = cfg.classes.iter().map(|c| c.arrivals.mean_rate()).sum();
            let depth = calendar_depth(&cfg, &rho, lambda);
            assert!((100.0..1000.0).contains(&depth), "depth {depth}");
        }
    }
}
