//! Adjacency builders for graph-convolutional encoders.
//!
//! The paper constructs the GCN adjacency "according to \[25\]" (GCN-Align,
//! Wang et al. EMNLP 2018): edge weights derive from relation
//! *functionality*, so that edges realised through near-functional relations
//! (which identify their endpoints strongly) receive more mass than edges of
//! very generic relations. A plain self-loop-normalised binary adjacency is
//! provided as well (used by the MuGNN-lite baseline channel and in tests).

use crate::csr::CsrMatrix;
use crate::kg::KnowledgeGraph;
use serde::{Deserialize, Serialize};

/// Strategy for turning a KG into a GCN propagation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdjacencyKind {
    /// `D^{-1/2} (A + I) D^{-1/2}` with binary, undirected `A`.
    SelfLoopNormalized,
    /// GCN-Align functionality weighting:
    /// `a_ij = Σ_{(e_i, r, e_j) ∈ T} ifun(r) + Σ_{(e_j, r, e_i) ∈ T} fun(r)`
    /// followed by adding self-loops and symmetric normalisation.
    Functionality,
}

/// Build the normalised propagation matrix of `kg` under `kind`.
pub fn build_adjacency(kg: &KnowledgeGraph, kind: AdjacencyKind) -> CsrMatrix {
    let n = kg.num_entities();
    let mut triplets: Vec<(usize, usize, f32)> = Vec::with_capacity(2 * kg.num_triples() + n);
    match kind {
        AdjacencyKind::SelfLoopNormalized => {
            for t in kg.triples() {
                if t.is_loop() {
                    continue;
                }
                let (h, ta) = (t.head.index(), t.tail.index());
                triplets.push((h, ta, 1.0));
                triplets.push((ta, h, 1.0));
            }
            // Binary: clamp duplicate edges back to 1 by deduplicating first.
            triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
            triplets.dedup_by_key(|&mut (r, c, _)| (r, c));
        }
        AdjacencyKind::Functionality => {
            let (fun, ifun) = kg.relation_functionality();
            for t in kg.triples() {
                if t.is_loop() {
                    continue;
                }
                let (h, ta, r) = (t.head.index(), t.tail.index(), t.relation.index());
                // Information flowing tail <- head is weighted by ifun(r),
                // head <- tail by fun(r), per GCN-Align.
                triplets.push((h, ta, ifun[r]));
                triplets.push((ta, h, fun[r]));
            }
        }
    }
    for i in 0..n {
        triplets.push((i, i, 1.0));
    }
    let a = CsrMatrix::from_triplets(n, n, &triplets)
        .expect("triple endpoints are interned entity ids, always in bounds");
    a.symmetric_normalized()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        let mut g = KnowledgeGraph::new();
        g.add_fact("a", "r1", "b");
        g.add_fact("b", "r2", "c");
        g.add_fact("a", "r1", "c");
        g
    }

    #[test]
    fn self_loop_normalized_shape_and_symmetry() {
        let g = toy();
        let a = build_adjacency(&g, AdjacencyKind::SelfLoopNormalized);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 3);
        // Every diagonal entry present.
        for i in 0..3 {
            assert!(a.row(i).any(|(c, v)| c == i && v > 0.0));
        }
        // Symmetric by construction.
        let entries: Vec<_> = a.iter().collect();
        for &(r, c, v) in &entries {
            let back = entries
                .iter()
                .find(|&&(r2, c2, _)| r2 == c && c2 == r)
                .map(|&(_, _, v2)| v2)
                .unwrap();
            assert!((v - back).abs() < 1e-6);
        }
    }

    #[test]
    fn duplicate_edges_stay_binary_for_self_loop_kind() {
        let mut g = KnowledgeGraph::new();
        g.add_fact("a", "r1", "b");
        g.add_fact("a", "r2", "b");
        let a = build_adjacency(&g, AdjacencyKind::SelfLoopNormalized);
        // Before normalisation A+I rows are [1,1],[1,1]: normalised to 0.5.
        for (_, _, v) in a.iter() {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn functionality_weights_generic_relations_lower() {
        // Relation "generic": one head, many tails -> fun low, ifun 1.
        // Relation "specific": one-to-one -> fun 1, ifun 1.
        let mut g = KnowledgeGraph::new();
        g.add_fact("hub", "generic", "x1");
        g.add_fact("hub", "generic", "x2");
        g.add_fact("hub", "generic", "x3");
        g.add_fact("a", "specific", "b");
        let a = build_adjacency(&g, AdjacencyKind::Functionality);
        assert_eq!(a.rows(), g.num_entities());
        // x1 receives from hub with weight ifun(generic)=1; hub receives from
        // x1 with fun(generic)=1/3. Normalisation rescales but the asymmetric
        // raw weighting shows up as row-dependent values; just sanity-check
        // the matrix is well formed and positive.
        for (_, _, v) in a.iter() {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn self_loops_in_data_do_not_double_diagonal() {
        let mut g = KnowledgeGraph::new();
        g.add_fact("a", "r", "a");
        g.add_fact("a", "r", "b");
        let a = build_adjacency(&g, AdjacencyKind::SelfLoopNormalized);
        // Row 0 = {diag, edge to b}; with sums 2 for both rows -> all 0.5.
        for (_, _, v) in a.iter() {
            assert!((v - 0.5).abs() < 1e-6, "value {v}");
        }
    }
}
