//! Event-driven simulator for the multiclass M/G/1 queue.
//!
//! Supports FIFO, nonpreemptive static priority and preemptive-resume
//! static priority disciplines; reports time-average queue lengths per
//! class (with warm-up deletion), mean waiting times of completed jobs and
//! the steady-state holding-cost rate.  Experiment E11 calibrates this
//! simulator against the exact Cobham / Pollaczek–Khinchine formulas of
//! [`crate::cobham`] and then uses it for the disciplines the formulas do
//! not cover.

use crate::sampling::sample_exp;
use rand::RngCore;
use ss_core::job::JobClass;
use ss_sim::stats::TimeWeighted;
use std::collections::VecDeque;

/// Service order of the single server: which waiting job it serves next.
#[derive(Debug, Clone)]
pub enum ServiceOrder {
    /// First-in-first-out across all classes.
    Fifo,
    /// Nonpreemptive static priority; the vector lists class indices from
    /// highest to lowest priority.
    NonpreemptivePriority(Vec<usize>),
    /// Preemptive-resume static priority (same encoding).
    PreemptivePriority(Vec<usize>),
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct Mg1Config {
    /// The job classes (arrival rates, service distributions, holding costs).
    pub classes: Vec<JobClass>,
    /// Service discipline.
    pub discipline: ServiceOrder,
    /// Simulated time horizon.
    pub horizon: f64,
    /// Warm-up period excluded from the time averages.
    pub warmup: f64,
}

/// Steady-state estimates from one simulation run.
#[derive(Debug, Clone)]
pub struct Mg1Result {
    /// Time-average number in system per class.
    pub mean_number: Vec<f64>,
    /// Mean waiting time (excluding service) of completed jobs per class.
    pub mean_wait: Vec<f64>,
    /// `Σ_j c_j * mean_number[j]`.
    pub holding_cost_rate: f64,
    /// Number of completed jobs per class (after warm-up).
    pub completed: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Customer {
    class: usize,
    arrival_time: f64,
    total_service: f64,
    remaining_service: f64,
}

/// Simulate one run of the multiclass M/G/1 queue.
pub fn simulate_mg1(config: &Mg1Config, rng: &mut dyn RngCore) -> Mg1Result {
    let n_classes = config.classes.len();
    assert!(n_classes > 0);
    assert!(config.horizon > config.warmup && config.warmup >= 0.0);

    // Priority rank per class (lower = served first); FIFO ignores it.
    let rank: Vec<usize> = match &config.discipline {
        ServiceOrder::Fifo => vec![0; n_classes],
        ServiceOrder::NonpreemptivePriority(order) | ServiceOrder::PreemptivePriority(order) => {
            assert_eq!(order.len(), n_classes);
            let mut r = vec![0usize; n_classes];
            for (pos, &c) in order.iter().enumerate() {
                r[c] = pos;
            }
            r
        }
    };
    let preemptive = matches!(config.discipline, ServiceOrder::PreemptivePriority(_));
    let fifo = matches!(config.discipline, ServiceOrder::Fifo);

    // Per-class waiting queues (FIFO uses a single global queue keyed by arrival order).
    let mut queues: Vec<VecDeque<Customer>> = vec![VecDeque::new(); n_classes];
    let mut fifo_queue: VecDeque<Customer> = VecDeque::new();

    // Next arrival time per class.
    let mut next_arrival: Vec<f64> = config
        .classes
        .iter()
        .map(|c| {
            if c.arrival_rate > 0.0 {
                sample_exp(rng, c.arrival_rate)
            } else {
                f64::INFINITY
            }
        })
        .collect();

    let mut in_service: Option<Customer> = None;
    let mut service_completion = f64::INFINITY;
    let mut clock = 0.0;
    let mut number_trackers: Vec<TimeWeighted> = (0..n_classes)
        .map(|_| TimeWeighted::new(0.0, 0.0))
        .collect();
    let mut counts = vec![0usize; n_classes];
    let mut warmup_done = false;

    let mut wait_sum = vec![0.0; n_classes];
    let mut completed = vec![0u64; n_classes];

    let update_count =
        |trackers: &mut Vec<TimeWeighted>, counts: &[usize], class: usize, time: f64| {
            trackers[class].update(time, counts[class] as f64);
        };

    loop {
        // Next event: earliest arrival or the service completion.
        let (min_class, min_arrival) = next_arrival
            .iter()
            .cloned()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let next_time = min_arrival.min(service_completion);
        if next_time > config.horizon {
            break;
        }
        clock = next_time;
        if !warmup_done && clock >= config.warmup {
            for t in &mut number_trackers {
                t.update(clock, t.current());
                t.reset(clock);
            }
            warmup_done = true;
        }

        if min_arrival <= service_completion {
            // Arrival of class `min_class`.
            let class = min_class;
            let service = config.classes[class].service.sample(rng);
            let customer = Customer {
                class,
                arrival_time: clock,
                total_service: service,
                remaining_service: service,
            };
            counts[class] += 1;
            update_count(&mut number_trackers, &counts, class, clock);
            next_arrival[class] = clock + sample_exp(rng, config.classes[class].arrival_rate);

            let mut enqueue = Some(customer);
            if in_service.is_none() {
                // Idle server: start immediately.
                let c = enqueue.take().unwrap();
                service_completion = clock + c.remaining_service;
                in_service = Some(c);
            } else if preemptive {
                let current = in_service.as_ref().unwrap();
                if rank[class] < rank[current.class] {
                    // Preempt: requeue the interrupted job with its residual.
                    let mut interrupted = in_service.take().unwrap();
                    interrupted.remaining_service = service_completion - clock;
                    queues[interrupted.class].push_front(interrupted);
                    let c = enqueue.take().unwrap();
                    service_completion = clock + c.remaining_service;
                    in_service = Some(c);
                }
            }
            if let Some(c) = enqueue {
                if fifo {
                    fifo_queue.push_back(c);
                } else {
                    queues[class].push_back(c);
                }
            }
        } else {
            // Service completion.
            let done = in_service
                .take()
                .expect("completion without a job in service");
            let class = done.class;
            counts[class] -= 1;
            update_count(&mut number_trackers, &counts, class, clock);
            if clock >= config.warmup {
                completed[class] += 1;
                wait_sum[class] += (clock - done.arrival_time) - done.total_service;
            }
            // Start the next job, if any.
            let next = if fifo {
                fifo_queue.pop_front()
            } else {
                // Highest-priority nonempty class queue.
                let mut best: Option<usize> = None;
                for c in 0..n_classes {
                    if !queues[c].is_empty() {
                        match best {
                            None => best = Some(c),
                            Some(b) if rank[c] < rank[b] => best = Some(c),
                            _ => {}
                        }
                    }
                }
                best.and_then(|c| queues[c].pop_front())
            };
            match next {
                Some(c) => {
                    service_completion = clock + c.remaining_service;
                    in_service = Some(c);
                }
                None => {
                    service_completion = f64::INFINITY;
                }
            }
        }
    }

    let effective_start = config.warmup.min(clock);
    let span_end = config.horizon.max(effective_start + 1e-9);
    let mean_number: Vec<f64> = number_trackers
        .iter()
        .map(|t| t.time_average(span_end))
        .collect();
    let mean_wait: Vec<f64> = (0..n_classes)
        .map(|c| {
            if completed[c] > 0 {
                wait_sum[c] / completed[c] as f64
            } else {
                0.0
            }
        })
        .collect();
    let holding_cost_rate = config
        .classes
        .iter()
        .enumerate()
        .map(|(c, cl)| cl.holding_cost * mean_number[c])
        .sum();
    Mg1Result {
        mean_number,
        mean_wait,
        holding_cost_rate,
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmu::cmu_order;
    use crate::cobham::{
        mg1_nonpreemptive_priority, mg1_preemptive_priority, pollaczek_khinchine_wait,
    };
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ss_distributions::{dyn_dist, Erlang, Exponential};

    fn classes_2() -> Vec<JobClass> {
        vec![
            JobClass::new(0, 0.3, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.25, dyn_dist(Erlang::with_mean(2, 1.2)), 4.0),
        ]
    }

    fn run(classes: Vec<JobClass>, discipline: ServiceOrder, seed: u64) -> Mg1Result {
        let config = Mg1Config {
            classes,
            discipline,
            horizon: 60_000.0,
            warmup: 2_000.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        simulate_mg1(&config, &mut rng)
    }

    #[test]
    fn fifo_matches_pollaczek_khinchine() {
        let classes = classes_2();
        let expected_wait = pollaczek_khinchine_wait(&classes);
        let res = run(classes, ServiceOrder::Fifo, 1);
        for (c, w) in res.mean_wait.iter().enumerate() {
            assert!(
                (w - expected_wait).abs() / expected_wait < 0.08,
                "class {c}: simulated wait {w} vs PK {expected_wait}"
            );
        }
    }

    #[test]
    fn nonpreemptive_priority_matches_cobham() {
        let classes = classes_2();
        let order = vec![1usize, 0];
        let exact = mg1_nonpreemptive_priority(&classes, &order);
        let res = run(classes, ServiceOrder::NonpreemptivePriority(order), 2);
        for c in 0..2 {
            assert!(
                (res.mean_wait[c] - exact.wait[c]).abs() / exact.wait[c] < 0.1,
                "class {c}: simulated {} vs Cobham {}",
                res.mean_wait[c],
                exact.wait[c]
            );
            assert!(
                (res.mean_number[c] - exact.number_in_system[c]).abs() / exact.number_in_system[c]
                    < 0.1,
                "class {c}: simulated L {} vs exact {}",
                res.mean_number[c],
                exact.number_in_system[c]
            );
        }
    }

    #[test]
    fn preemptive_priority_matches_formulas() {
        let classes = classes_2();
        let order = vec![1usize, 0];
        let exact = mg1_preemptive_priority(&classes, &order);
        let res = run(classes, ServiceOrder::PreemptivePriority(order), 3);
        for c in 0..2 {
            assert!(
                (res.mean_number[c] - exact.number_in_system[c]).abs() / exact.number_in_system[c]
                    < 0.1,
                "class {c}: simulated L {} vs exact {}",
                res.mean_number[c],
                exact.number_in_system[c]
            );
        }
    }

    #[test]
    fn cmu_priority_beats_fifo_and_reverse_priority() {
        // E11 in miniature: the cµ order has the lowest simulated holding
        // cost rate among {cmu, reverse cmu, FIFO}.
        let classes = classes_2();
        let cmu = cmu_order(&classes);
        let mut reverse = cmu.clone();
        reverse.reverse();
        let res_cmu = run(classes.clone(), ServiceOrder::NonpreemptivePriority(cmu), 4);
        let res_rev = run(
            classes.clone(),
            ServiceOrder::NonpreemptivePriority(reverse),
            4,
        );
        let res_fifo = run(classes, ServiceOrder::Fifo, 4);
        assert!(res_cmu.holding_cost_rate < res_rev.holding_cost_rate);
        assert!(res_cmu.holding_cost_rate < res_fifo.holding_cost_rate);
    }

    #[test]
    fn little_law_consistency() {
        // lambda * (W + E[S]) should match the time-average number in system.
        let classes = classes_2();
        let res = run(classes.clone(), ServiceOrder::Fifo, 5);
        for (c, cl) in classes.iter().enumerate() {
            let little = cl.arrival_rate * (res.mean_wait[c] + cl.mean_service());
            assert!(
                (little - res.mean_number[c]).abs() / res.mean_number[c] < 0.1,
                "class {c}: Little {little} vs tracked {}",
                res.mean_number[c]
            );
        }
    }

    #[test]
    fn empty_arrival_class_is_harmless() {
        let classes = vec![
            JobClass::new(0, 0.5, dyn_dist(Exponential::with_mean(1.0)), 1.0),
            JobClass::new(1, 0.0, dyn_dist(Exponential::with_mean(1.0)), 1.0),
        ];
        let res = run(classes, ServiceOrder::Fifo, 6);
        assert_eq!(res.completed[1], 0);
        assert!(res.mean_number[1].abs() < 1e-9);
    }
}
