//! Adapters from this crate's index policies onto the common
//! [`ss_core::discipline::Discipline`] trait used by the service fabric.

use ss_core::discipline::StaticIndex;
use ss_core::job::JobClass;

use crate::cmu::cmu_indices;

/// The cµ rule as a fabric discipline: classes ranked by `c_j · µ_j`
/// (Cox–Smith; optimal for the nonpreemptive multiclass M/G/1 with linear
/// holding costs).
pub fn cmu_discipline(classes: &[JobClass]) -> StaticIndex {
    StaticIndex::new("cmu", cmu_indices(classes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_core::discipline::Discipline;
    use ss_distributions::{dyn_dist, Exponential};

    #[test]
    fn cmu_discipline_ranks_by_c_times_mu() {
        let classes = vec![
            JobClass::new(0, 0.1, dyn_dist(Exponential::with_mean(1.0)), 1.0), // cµ = 1
            JobClass::new(1, 0.1, dyn_dist(Exponential::with_mean(0.25)), 1.0), // cµ = 4
            JobClass::new(2, 0.1, dyn_dist(Exponential::with_mean(1.0)), 2.5), // cµ = 2.5
        ];
        let d = cmu_discipline(&classes);
        assert_eq!(d.name(), "cmu");
        assert!(d.class_index(1, 1) > d.class_index(2, 1));
        assert!(d.class_index(2, 5) > d.class_index(0, 5));
        // Static rule: the queue length does not move the index.
        assert_eq!(
            d.class_index(1, 1).to_bits(),
            d.class_index(1, 50).to_bits()
        );
    }
}
