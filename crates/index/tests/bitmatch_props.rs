//! Property tests of the tabulation contract: for **every** table kind and
//! randomized class sets, the SoA table returns bit-for-bit the same index
//! as the per-call legacy discipline it replaced — inside the tabulated
//! range and (via the saturating lookup) arbitrarily far beyond it.
//!
//! The index layer consumes **no randomness of its own** (no RNG streams,
//! no iteration over unordered containers on the value path), so these
//! properties double as the seed-purity check: the same specs built in any
//! order must emit bit-identical tables.

use proptest::prelude::*;
use ss_bandits::discipline::WhittleQueueDiscipline;
use ss_batch::discipline::{gittins_discipline, GittinsGrid};
use ss_core::discipline::{Discipline, Fifo};
use ss_core::job::JobClass;
use ss_distributions::{dyn_dist, DynDist, Empirical, Erlang, Exponential, HyperExponential};
use ss_index::{build_table, TableKind, TierSpec};
use ss_queueing::discipline::cmu_discipline;

const TRUNCATION: usize = 40;

/// Decode one u32 into a service distribution: low bits pick the family,
/// the rest the (coarsely bucketed) mean, so meaningful collisions and
/// meaningful diversity both occur.
fn decode_dist(raw: u32) -> DynDist {
    let mean = 0.25 + ((raw >> 4) % 32) as f64 * 0.22;
    match raw % 3 {
        0 => dyn_dist(Exponential::with_mean(mean)),
        1 => dyn_dist(Erlang::with_mean(2 + (raw >> 2) % 3, mean)),
        _ => dyn_dist(HyperExponential::with_mean_scv(
            mean,
            2.0 + (raw % 7) as f64,
        )),
    }
}

/// Decode a flat word stream into classes, three words per class:
/// distribution, arrival rate, holding cost.
fn decode_classes(raws: &[u32]) -> Vec<JobClass> {
    raws.chunks_exact(3)
        .enumerate()
        .map(|(j, w)| {
            let arrival = 0.05 + (w[1] % 64) as f64 * 0.02;
            let cost = 0.125 + (w[2] % 48) as f64 * 0.25;
            JobClass::new(j, arrival, decode_dist(w[0]), cost)
        })
        .collect()
}

/// Queue lengths probed per class: the whole tabulated range, the
/// saturation boundary's neighbourhood, and far past it.
fn probe_lens() -> impl Iterator<Item = usize> {
    (0..=TRUNCATION + 5).chain([100, 4096, usize::MAX])
}

/// The per-call discipline a table of `kind` over `classes` must match.
fn reference(kind: TableKind, classes: &[JobClass]) -> Box<dyn Discipline> {
    match kind {
        TableKind::Fifo => Box::new(Fifo),
        TableKind::Cmu => Box::new(cmu_discipline(classes)),
        TableKind::Gittins(grid) => Box::new(gittins_discipline(classes, grid)),
        TableKind::Whittle { truncation } => {
            Box::new(WhittleQueueDiscipline::new(classes, truncation))
        }
    }
}

fn assert_bitmatch(table: &dyn Discipline, legacy: &dyn Discipline, classes: usize) {
    for j in 0..classes {
        for len in probe_lens() {
            let t = table.class_index(j, len);
            let l = legacy.class_index(j, len);
            assert_eq!(
                t.to_bits(),
                l.to_bits(),
                "kind {} class {j} len {len}: table {t} vs legacy {l}",
                legacy.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every `TableKind` bit-matches its legacy discipline on randomized
    /// class sets, in and beyond the tabulated range.
    #[test]
    fn tables_bit_match_legacy_disciplines(
        raws in prop::collection::vec(0u32..u32::MAX, 3..15),
    ) {
        let classes = decode_classes(&raws);
        let grid = GittinsGrid::default();

        let kinds = [
            TableKind::Fifo,
            TableKind::Cmu,
            TableKind::Gittins(grid),
            TableKind::Whittle { truncation: TRUNCATION },
        ];
        for kind in kinds {
            let legacy = reference(kind, &classes);
            let spec = TierSpec { kind, classes: classes.clone() };
            let table = build_table(&spec);
            prop_assert_eq!(table.name(), legacy.name());
            assert_bitmatch(&table, legacy.as_ref(), classes.len());
        }
    }

    /// Seed purity / order independence: building arbitrary other specs
    /// first never changes a table — every spec, built forward and then
    /// again in reverse, is bit-identical to its reference discipline.
    #[test]
    fn warm_service_is_bit_pure_whatever_it_saw_before(
        first in prop::collection::vec(0u32..u32::MAX, 3..12),
        second in prop::collection::vec(0u32..u32::MAX, 3..12),
    ) {
        let grid = GittinsGrid::default();
        let specs: Vec<TierSpec> = [decode_classes(&first), decode_classes(&second)]
            .into_iter()
            .flat_map(|classes| {
                [
                    TableKind::Whittle { truncation: TRUNCATION },
                    TableKind::Gittins(grid),
                    TableKind::Cmu,
                ]
                .map(|kind| TierSpec { kind, classes: classes.clone() })
            })
            .collect();

        let forward: Vec<Vec<f64>> = specs.iter().map(|s| build_table(s).slab().to_vec()).collect();
        for (s, first_slab) in specs.iter().zip(&forward).rev() {
            let rebuilt = build_table(s);
            for (a, b) in rebuilt.slab().iter().zip(first_slab) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_bitmatch(&rebuilt, reference(s.kind, &s.classes).as_ref(), s.classes.len());
        }
    }
}

/// Two distinct `Empirical` services in one Gittins tier each get their
/// own index: no lossy distribution fingerprint may alias them.
#[test]
fn gittins_tier_keeps_distinct_empirical_services_apart() {
    let classes = vec![
        JobClass::new(0, 0.3, dyn_dist(Empirical::new(vec![1.0, 1.0, 3.0])), 1.0),
        JobClass::new(1, 0.3, dyn_dist(Empirical::new(vec![1.25, 1.25, 2.5])), 1.0),
    ];
    let grid = GittinsGrid::default();
    let table = build_table(&TierSpec {
        kind: TableKind::Gittins(grid),
        classes: classes.clone(),
    });
    let expected = gittins_discipline(&classes, grid);
    for (j, &want) in expected.indices().iter().enumerate() {
        let got = table.lookup(j, 0);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "class {j}: table serves {got}, gittins_discipline gives {want}"
        );
    }
}
