//! GCN-Align (Wang et al., EMNLP 2018) — the paper's reference \[25\].
//!
//! Two views fused at outcome level with **fixed** weights: a structural
//! GCN over the relation-functionality-weighted adjacency (exactly the
//! encoder CEAFF reuses), and an attribute view embedding each entity's
//! attribute-type multi-hot vector. The paper credits GCN-Align as the
//! origin of both the adjacency construction and the fixed-weight
//! outcome-level fusion that CEAFF's adaptive strategy replaces.

use crate::method::{AlignmentMethod, BaselineInput};
use crate::util::test_cosine_matrix;
use ceaff_core::gcn::{self, GcnConfig};
use ceaff_graph::AttributeTable;
use ceaff_graph::KgPair;
use ceaff_sim::SimilarityMatrix;
use ceaff_tensor::Matrix;

/// GCN-Align with structure + attribute views.
#[derive(Debug, Clone)]
pub struct GcnAlign {
    /// GCN configuration for the structural view.
    pub gcn: GcnConfig,
    /// Fixed weight of the structural view (the remainder goes to the
    /// attribute view); GCN-Align's β.
    pub structure_weight: f32,
}

impl Default for GcnAlign {
    fn default() -> Self {
        Self {
            gcn: GcnConfig::default(),
            structure_weight: 0.9,
        }
    }
}

/// Attribute-view similarity: cosine between multi-hot attribute-type
/// vectors of the test entities (the lite form of GCN-Align's attribute
/// embedding — types only, as in the original).
pub(crate) fn attribute_matrix(
    pair: &KgPair,
    src_attrs: &AttributeTable,
    tgt_attrs: &AttributeTable,
) -> SimilarityMatrix {
    let d = src_attrs.num_types().max(tgt_attrs.num_types());
    let build = |attrs: &AttributeTable, ids: &[ceaff_graph::EntityId]| -> Matrix {
        let mut m = Matrix::zeros(ids.len(), d);
        for (row, &e) in ids.iter().enumerate() {
            for &ty in attrs.types_of(e) {
                m[(row, ty as usize)] = 1.0;
            }
        }
        m
    };
    let src = build(src_attrs, &pair.test_sources());
    let tgt = build(tgt_attrs, &pair.test_targets());
    ceaff_sim::cosine_similarity_matrix(&src, &tgt)
}

impl AlignmentMethod for GcnAlign {
    fn name(&self) -> &'static str {
        "GCN-Align"
    }

    fn align(&self, input: &BaselineInput<'_>) -> SimilarityMatrix {
        let pair = input.pair;
        let enc = gcn::train(pair, &self.gcn);
        let mut structural = test_cosine_matrix(pair, &enc.z_source, &enc.z_target);
        match (input.source_attributes, input.target_attributes) {
            (Some(sa), Some(ta)) => {
                let attr = attribute_matrix(pair, sa, ta);
                let mut fused = structural.scaled(self.structure_weight);
                fused.add_scaled(&attr, 1.0 - self.structure_weight);
                fused
            }
            _ => {
                // No attributes available: structure only (as GCN-Align
                // degrades on attribute-poor KGs).
                structural = structural.scaled(1.0);
                structural
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::test_support::{dataset, run_on};
    use ceaff_datagen::NameChannel;

    fn fast() -> GcnAlign {
        GcnAlign {
            gcn: GcnConfig {
                dim: 32,
                epochs: 50,
                ..GcnConfig::default()
            },
            ..GcnAlign::default()
        }
    }

    #[test]
    fn attribute_matrix_scores_aligned_higher_on_average() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let m = attribute_matrix(&ds.pair, &ds.source_attributes, &ds.target_attributes);
        let n = m.sources();
        let mut diag = 0.0f64;
        let mut off = 0.0f64;
        for i in 0..n {
            diag += m.get(i, i) as f64;
            off += m.get(i, (i + 7) % n) as f64;
        }
        assert!(diag > off, "diag {diag} vs off {off}");
    }

    #[test]
    fn gcn_align_beats_chance() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let res = run_on(&fast(), &ds, 16);
        let chance = 1.0 / ds.pair.test_pairs().len() as f64;
        assert!(
            res.accuracy > chance * 10.0,
            "GCN-Align accuracy {} vs chance {}",
            res.accuracy,
            chance
        );
    }

    #[test]
    fn works_without_attributes() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let src = ds.source_embedder(16);
        let tgt = ds.target_embedder(16);
        let input = BaselineInput {
            pair: &ds.pair,
            source_embedder: &src,
            target_embedder: &tgt,
            source_attributes: None,
            target_attributes: None,
        };
        let m = fast().align(&input);
        assert_eq!(m.sources(), ds.pair.test_pairs().len());
    }
}
