//! The common interface all baseline EA methods implement.
//!
//! Every method consumes an alignment problem (plus the side resources the
//! richer methods use — word embedders for name-based methods, attribute
//! tables for JAPE/GCN-Align/MultiKE) and produces a test-set similarity
//! matrix. Decisions are then made *independently* (greedy argmax), exactly
//! as the paper describes state-of-the-art behaviour (§I) — which is what
//! CEAFF's collective strategy is compared against.

use ceaff_core::eval::{ranking_metrics_store, RankingMetrics};
use ceaff_embed::WordEmbedder;
use ceaff_graph::{AttributeTable, KgPair};
use ceaff_sim::{SimStore, SimilarityMatrix};

/// Everything a baseline may consume.
pub struct BaselineInput<'a> {
    /// The KG pair with its seed/test split.
    pub pair: &'a KgPair,
    /// Word embedder for source-KG entity names (name-based methods).
    pub source_embedder: &'a dyn WordEmbedder,
    /// Word embedder for target-KG entity names (same space).
    pub target_embedder: &'a dyn WordEmbedder,
    /// Source-KG attribute types, when the dataset provides them.
    pub source_attributes: Option<&'a AttributeTable>,
    /// Target-KG attribute types.
    pub target_attributes: Option<&'a AttributeTable>,
}

/// A baseline entity-alignment method.
pub trait AlignmentMethod {
    /// The method's name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Produce the test-set similarity matrix (rows = test sources,
    /// columns = test targets, in test order).
    fn align(&self, input: &BaselineInput<'_>) -> SimilarityMatrix;
}

/// Result row for one method on one dataset: the paper's accuracy (Hits@1
/// under independent decisions) plus the Table VI ranking metrics.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name.
    pub method: &'static str,
    /// Accuracy = Hits@1 (independent decisions).
    pub accuracy: f64,
    /// Hits@1 / Hits@10 / MRR.
    pub ranking: RankingMetrics,
    /// Wall-clock seconds spent in `align`.
    pub seconds: f64,
}

/// Run a method and evaluate it against the diagonal ground truth.
pub fn evaluate(method: &dyn AlignmentMethod, input: &BaselineInput<'_>) -> MethodResult {
    let start = std::time::Instant::now();
    let m = SimStore::Dense(method.align(input));
    let seconds = start.elapsed().as_secs_f64();
    let ranking = ranking_metrics_store(&m);
    MethodResult {
        method: method.name(),
        accuracy: ranking.hits1,
        ranking,
        seconds,
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel};

    /// A small deterministic problem for baseline smoke tests.
    pub fn dataset(channel: NameChannel) -> GeneratedDataset {
        ceaff_datagen::generate(&GenConfig {
            aligned_entities: 120,
            extra_frac: 0.1,
            avg_degree: 8.0,
            overlap: 0.85,
            channel,
            vocab_size: 400,
            lexicon_coverage: 0.95,
            ..GenConfig::default()
        })
    }

    /// Evaluate `method` on `ds` and return its accuracy.
    pub fn run_on(method: &dyn AlignmentMethod, ds: &GeneratedDataset, dim: usize) -> MethodResult {
        let src = ds.source_embedder(dim);
        let tgt = ds.target_embedder(dim);
        let input = BaselineInput {
            pair: &ds.pair,
            source_embedder: &src,
            target_embedder: &tgt,
            source_attributes: Some(&ds.source_attributes),
            target_attributes: Some(&ds.target_attributes),
        };
        evaluate(method, &input)
    }
}
