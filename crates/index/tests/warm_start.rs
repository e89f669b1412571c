//! Rebuilds after parameter drift: [`build_table`] keeps no state between
//! calls, so a table built after a drift in holding cost or arrival rate
//! is bit-identical to the per-call discipline built from the drifted
//! classes, whatever was built before it.

use ss_bandits::discipline::WhittleQueueDiscipline;
use ss_batch::discipline::{gittins_discipline, GittinsGrid};
use ss_core::discipline::Discipline;
use ss_core::job::JobClass;
use ss_distributions::{dyn_dist, Erlang, Exponential};
use ss_index::{build_table, IndexTable, TableKind, TierSpec};

const TRUNCATION: usize = 40;

fn classes(costs: &[f64]) -> Vec<JobClass> {
    costs
        .iter()
        .enumerate()
        .map(|(j, &c)| {
            let service = if j % 2 == 0 {
                dyn_dist(Exponential::with_mean(0.8 + j as f64 * 0.1))
            } else {
                dyn_dist(Erlang::with_mean(3, 1.1))
            };
            JobClass::new(j, 0.3 + j as f64 * 0.05, service, c)
        })
        .collect()
}

fn whittle_spec(costs: &[f64]) -> TierSpec {
    TierSpec {
        kind: TableKind::Whittle {
            truncation: TRUNCATION,
        },
        classes: classes(costs),
    }
}

fn gittins_spec(costs: &[f64]) -> TierSpec {
    TierSpec {
        kind: TableKind::Gittins(GittinsGrid::default()),
        classes: classes(costs),
    }
}

fn assert_same_bits(a: &IndexTable, b: &IndexTable) {
    assert_eq!(a.classes(), b.classes());
    assert_eq!(a.stride(), b.stride());
    for (x, y) in a.slab().iter().zip(b.slab()) {
        assert_eq!(x.to_bits(), y.to_bits(), "rebuild drifted");
    }
}

/// Every tabulated entry of `table` equals `reference`'s index, by bits.
fn assert_matches(table: &IndexTable, reference: &dyn Discipline) {
    for class in 0..table.classes() {
        for len in 0..table.stride() {
            assert_eq!(
                table.lookup(class, len).to_bits(),
                reference.class_index(class, len).to_bits(),
                "class {class}, queue length {len}"
            );
        }
    }
}

fn whittle_reference(spec: &TierSpec) -> WhittleQueueDiscipline {
    WhittleQueueDiscipline::new(&spec.classes, TRUNCATION)
}

#[test]
fn identical_respec_copies_every_whittle_row() {
    let spec = whittle_spec(&[1.0, 2.0, 0.5]);
    let first = build_table(&spec);
    let rebuilt = build_table(&spec);
    assert_same_bits(&first, &rebuilt);
    assert_matches(&rebuilt, &whittle_reference(&spec));
}

#[test]
fn holding_cost_drift_reuses_idle_solves_and_stays_bit_identical_to_cold() {
    let before = whittle_spec(&[1.0, 2.0, 0.5]);
    let after = whittle_spec(&[1.0, 2.75, 0.5]); // class 1's cost drifts

    build_table(&before);
    let rebuilt = build_table(&after);
    assert_matches(&rebuilt, &whittle_reference(&after));
}

#[test]
fn arrival_rate_drift_is_cold_for_the_drifted_class_only() {
    // Class 1 owns the uniformization clock (λ + µ = 0.5 + 2.5) in both
    // arms, so drifting class 0's arrival rate leaves class 1's row (and
    // the clock itself) untouched.
    let mk = |arrival0: f64| TierSpec {
        kind: TableKind::Whittle {
            truncation: TRUNCATION,
        },
        classes: vec![
            JobClass::new(0, arrival0, dyn_dist(Exponential::with_mean(0.8)), 1.0),
            JobClass::new(1, 0.5, dyn_dist(Exponential::with_mean(0.4)), 2.0),
        ],
    };
    let old = build_table(&mk(0.3));
    let drifted = mk(0.21);
    let rebuilt = build_table(&drifted);
    assert_matches(&rebuilt, &whittle_reference(&drifted));
    for len in 0..rebuilt.stride() {
        assert_eq!(
            rebuilt.lookup(1, len).to_bits(),
            old.lookup(1, len).to_bits()
        );
    }
}

#[test]
fn gittins_cost_drift_reuses_cached_grid_suprema() {
    let before = gittins_spec(&[1.0, 2.0, 0.5]);
    let after = gittins_spec(&[4.0, 2.0, 0.125]);

    build_table(&before);
    let rebuilt = build_table(&after);
    assert_matches(
        &rebuilt,
        &gittins_discipline(&after.classes, GittinsGrid::default()),
    );
}

#[test]
fn static_kinds_build_single_column_tables() {
    let fifo = build_table(&TierSpec {
        kind: TableKind::Fifo,
        classes: classes(&[1.0, 2.0]),
    });
    assert_eq!((fifo.classes(), fifo.stride()), (2, 1));
    assert_eq!(fifo.lookup(0, 10_000).to_bits(), 0.0f64.to_bits());

    let cmu = build_table(&TierSpec {
        kind: TableKind::Cmu,
        classes: classes(&[1.0, 2.0]),
    });
    assert_eq!((cmu.classes(), cmu.stride()), (2, 1));
    // cµ is static in queue length: saturation returns the same index.
    assert_eq!(
        cmu.lookup(1, 0).to_bits(),
        cmu.lookup(1, usize::MAX).to_bits()
    );
}
