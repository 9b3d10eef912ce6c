//! The paper's three representative features (§IV): structural (GCN),
//! semantic (averaged name embeddings) and string (Levenshtein ratio).
//!
//! Each computed feature exposes two views:
//!
//! * [`Feature::test_store`] — the `test-sources × test-targets`
//!   similarity store (`Ms`, `Mn`, `Ml`) consumed by fusion and matching,
//!   dense or sparse top-k depending on the candidate strategy the feature
//!   was computed under;
//! * [`Feature::score`] — the same similarity for *arbitrary* entity pairs,
//!   which the learning-based (logistic regression) weighting baseline
//!   needs to score seed pairs and their corruptions (§VII-E).

mod attribute;
mod semantic;
mod string;
mod structural;

pub use attribute::AttributeFeature;
pub use semantic::SemanticFeature;
pub use string::StringFeature;
pub use structural::StructuralFeature;

use ceaff_graph::{EntityId, KgPair, KnowledgeGraph};
use ceaff_sim::{cosine_similarity_matrix, CandidateSet, SimStore, SparseTopK};
use ceaff_tensor::Matrix;

/// A computed alignment feature.
pub trait Feature: Send + Sync {
    /// Short identifier (`"structural"`, `"semantic"`, `"string"`).
    fn name(&self) -> &'static str;

    /// The test-set similarity store (rows = test sources in test order,
    /// columns = test targets in test order) — dense for the paper's exact
    /// pipeline, sparse top-k when the feature was scored over a blocked
    /// candidate set.
    fn test_store(&self) -> &SimStore;

    /// Similarity between any source-KG entity and any target-KG entity.
    fn score(&self, u: EntityId, v: EntityId) -> f32;
}

/// [`Feature::score`] of the embedding features (structural, semantic):
/// rows are already unit-normalised, so the dot product is the cosine.
pub(crate) fn embedding_score(source_row: &[f32], target_row: &[f32]) -> f32 {
    ceaff_tensor::dot(source_row, target_row)
}

/// Score the test split from all-entity embeddings that are already
/// L2-row-normalised: every pair into a dense cosine matrix, or only the
/// `blocked` candidate pairs, `k` kept per row, into a sparse top-k store.
pub(crate) fn score_test_split(
    pair: &KgPair,
    z_source: &Matrix,
    z_target: &Matrix,
    blocked: Option<(&CandidateSet, usize)>,
) -> SimStore {
    let src_idx: Vec<usize> = pair.test_sources().iter().map(|e| e.index()).collect();
    let tgt_idx: Vec<usize> = pair.test_targets().iter().map(|e| e.index()).collect();
    let zs = z_source.gather_rows(&src_idx);
    let zt = z_target.gather_rows(&tgt_idx);
    match blocked {
        None => SimStore::Dense(cosine_similarity_matrix(&zs, &zt)),
        // Rows are unit-normalised, so the dot product is the cosine.
        Some((candidates, k)) => {
            SimStore::Sparse(SparseTopK::from_candidates(candidates, k, |i| {
                let (zi, zt) = (zs.row(i), &zt);
                move |j| embedding_score(zi, zt.row(j as usize))
            }))
        }
    }
}

/// Every entity name of `kg`, in id order.
pub(crate) fn all_names(kg: &KnowledgeGraph) -> Vec<&str> {
    kg.entity_ids()
        .map(|e| kg.entity_name(e).expect("interned entity has a name"))
        .collect()
}

/// The test split's (source, target) names, in split order.
pub(crate) fn test_names(pair: &KgPair) -> (Vec<&str>, Vec<&str>) {
    pair.test_pairs()
        .iter()
        .map(|&(u, v)| {
            (
                pair.source.entity_name(u).expect("interned"),
                pair.target.entity_name(v).expect("interned"),
            )
        })
        .unzip()
}

/// [`Feature::score`] of the string feature: the Levenshtein ratio of the
/// two names.
pub(crate) fn name_score(source: &str, target: &str) -> f32 {
    ceaff_sim::levenshtein_ratio(source, target)
}

#[cfg(test)]
pub(crate) mod test_support {
    use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel};

    /// A small deterministic dataset shared by the feature tests.
    pub fn dataset(channel: NameChannel) -> GeneratedDataset {
        ceaff_datagen::generate(&GenConfig {
            aligned_entities: 120,
            extra_frac: 0.1,
            avg_degree: 8.0,
            overlap: 0.85,
            channel,
            vocab_size: 400,
            lexicon_coverage: 0.95,
            semantic_noise: 0.05,
            ..GenConfig::default()
        })
    }

    /// Mean of the diagonal minus mean of the off-diagonal — a quick
    /// separation score for a feature store whose ground truth is the
    /// diagonal.
    pub fn diagonal_margin(m: &ceaff_sim::SimStore) -> f64 {
        let n = m.sources().min(m.targets());
        let mut diag = 0.0f64;
        let mut off = 0.0f64;
        let mut off_n = 0usize;
        for i in 0..n {
            diag += m.get(i, i) as f64;
            for j in 0..n {
                if j != i {
                    off += m.get(i, j) as f64;
                    off_n += 1;
                }
            }
        }
        diag / n as f64 - off / off_n.max(1) as f64
    }
}
