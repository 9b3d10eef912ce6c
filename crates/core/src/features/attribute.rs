//! An attribute-type feature `Ma` — a *fourth* feature demonstrating the
//! paper's central motivation for adaptive fusion: hand-tuning weights
//! "becomes impractical with the increase of features" (§I), while the
//! adaptive strategy extends to any number of similarity matrices
//! unchanged.
//!
//! The signal is the Jaccard overlap of attribute-**type** sets (the
//! JAPE/GCN-Align view); like real attribute data it is noisy and
//! incomplete, so fusion should assign it a modest weight — which is
//! exactly what makes it a good stress test for weight assignment.

use super::Feature;
use ceaff_graph::{AttributeTable, EntityId, KgPair};
use ceaff_sim::{SimStore, SimilarityMatrix};

/// A computed attribute feature.
#[derive(Debug, Clone)]
pub struct AttributeFeature {
    source: AttributeTable,
    target: AttributeTable,
    test: SimStore,
}

impl AttributeFeature {
    /// Compute the test-set Jaccard matrix between attribute-type sets.
    ///
    /// # Panics
    /// Panics if the tables do not cover the KGs' entities.
    pub fn compute(pair: &KgPair, source: &AttributeTable, target: &AttributeTable) -> Self {
        assert!(
            source.num_entities() >= pair.source.num_entities(),
            "source attribute table does not cover the source KG"
        );
        assert!(
            target.num_entities() >= pair.target.num_entities(),
            "target attribute table does not cover the target KG"
        );
        let sources = pair.test_sources();
        let targets = pair.test_targets();
        let mut test = SimilarityMatrix::zeros(sources.len(), targets.len());
        for (i, &u) in sources.iter().enumerate() {
            for (j, &v) in targets.iter().enumerate() {
                test.set(i, j, source.jaccard(u, target, v));
            }
        }
        Self {
            source: source.clone(),
            target: target.clone(),
            test: SimStore::Dense(test),
        }
    }
}

impl Feature for AttributeFeature {
    fn name(&self) -> &'static str {
        "attribute"
    }

    fn test_store(&self) -> &SimStore {
        &self.test
    }

    fn score(&self, u: EntityId, v: EntityId) -> f32 {
        self.source.jaccard(u, &self.target, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_support::{dataset, diagonal_margin};
    use ceaff_datagen::NameChannel;

    #[test]
    fn attribute_feature_carries_weak_but_real_signal() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = AttributeFeature::compute(&ds.pair, &ds.source_attributes, &ds.target_attributes);
        let margin = diagonal_margin(f.test_store());
        assert!(margin > 0.02, "attribute margin too small: {margin}");
        // But much weaker than the name features — the realistic profile.
        assert!(
            margin < 0.6,
            "attribute margin implausibly strong: {margin}"
        );
    }

    #[test]
    fn score_matches_matrix() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = AttributeFeature::compute(&ds.pair, &ds.source_attributes, &ds.target_attributes);
        let s = ds.pair.test_sources();
        let t = ds.pair.test_targets();
        assert_eq!(f.test_store().get(3, 5), f.score(s[3], t[5]));
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn rejects_undersized_tables() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let tiny = AttributeTable::new(1, 4);
        let _ = AttributeFeature::compute(&ds.pair, &tiny, &ds.target_attributes);
    }
}
