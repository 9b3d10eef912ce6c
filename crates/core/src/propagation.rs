//! Training-free structural encoding by neighbourhood propagation — the
//! structural mode of the incremental (delta) pipeline.
//!
//! The paper's structural feature trains a GCN whose every epoch couples
//! all entities through shared weights and sampled negatives, so a single
//! edge edit invalidates the whole embedding table. This module provides a
//! *parameter-free* alternative with the locality the delta pipeline
//! needs: entity `i`'s layer-`l` vector depends only on the layer-`l−1`
//! vectors of `{i} ∪ N(i)` and on the degrees of those entities. An edit
//! therefore dirties exactly the entities within `layers` undirected hops
//! of the edited region, and [`crate::delta`] recomputes only those rows.
//!
//! The scheme is symmetrically-normalised mean propagation (the fixed
//! `D^{-1/2} (A+I) D^{-1/2}` operator of GCN folklore, without trained
//! weights): layer 0 is a deterministic hash of the entity *name*
//! (id-independent, so entity insertions that shift ids never dirty kept
//! rows), each subsequent layer sums `c_ij · H_{l-1}[j]` over
//! `j ∈ {i} ∪ N(i)` in ascending id order with
//! `c_ij = 1/√((d_i+1)(d_j+1))`, and every layer is L2-row-normalised.
//!
//! Every row is a pure function of (name, neighbour rows, degrees), and
//! the bulk encoder computes rows through the same per-row functions the
//! delta patcher calls — so a patched layer is bitwise-identical to a
//! fresh one at any thread count.

use ceaff_graph::{EntityId, KgPair, KnowledgeGraph};
use ceaff_tensor::{dot, Matrix};

use crate::gcn::GcnEncoder;

/// Rows per parallel work item in the bulk encoder.
const ROW_GRAIN: usize = 64;

/// FNV-1a hash of an entity name — the per-entity seed of layer 0.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: decorrelates successive draws from one seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// L2-normalise a row exactly like [`Matrix::l2_normalize_rows`] does:
/// `v / norm` with `norm = √(row · row)`, zero rows left untouched.
pub(crate) fn normalize_row(row: &mut [f32]) {
    let norm = dot(row, row).sqrt();
    if norm > 0.0 {
        for v in row.iter_mut() {
            *v /= norm;
        }
    }
}

/// The layer-0 row of an entity: `dim` pseudo-random values in `[-1, 1)`
/// seeded by the entity *name*, L2-normalised. Pure in the name, so kept
/// entities keep their row bit-for-bit across any delta.
pub fn seed_row(name: &str, dim: usize) -> Vec<f32> {
    let mut state = name_seed(name);
    let mut row: Vec<f32> = (0..dim)
        .map(|_| {
            let bits = splitmix64(&mut state) >> 40; // 24 high-quality bits
            (bits as f32 / (1u32 << 23) as f32) - 1.0
        })
        .collect();
    normalize_row(&mut row);
    row
}

/// One propagated row: `Σ c_ij · prev(j)` over `j ∈ {i} ∪ neighbors`
/// in ascending id order (`neighbors` must be sorted ascending, `i`
/// spliced at its position), L2-normalised. `prev(j)` is row `j` of the
/// previous layer and `degree(j)` the distinct undirected neighbour count
/// of `j`.
///
/// The delta patcher calls this for dirty rows with the *new* graph's
/// neighbour lists and the *patched* previous layer; the bulk encoder
/// below calls it for every row — one code path, bitwise-identical
/// results.
pub fn propagate_row<'a>(
    prev: impl Fn(usize) -> &'a [f32],
    i: usize,
    neighbors: &[EntityId],
    degree: impl Fn(usize) -> usize,
) -> Vec<f32> {
    let di = degree(i) as f32;
    let mut row = vec![0.0f32; prev(i).len()];
    let mut accumulate = |j: usize| {
        let c = 1.0 / ((di + 1.0) * (degree(j) as f32 + 1.0)).sqrt();
        for (o, &v) in row.iter_mut().zip(prev(j)) {
            *o += c * v;
        }
    };
    // Members {i} ∪ N(i) in ascending id order: neighbours are sorted and
    // never contain i, so emit i at its ordered position.
    let mut self_emitted = false;
    for &n in neighbors {
        if !self_emitted && n.index() > i {
            accumulate(i);
            self_emitted = true;
        }
        accumulate(n.index());
    }
    if !self_emitted {
        accumulate(i);
    }
    normalize_row(&mut row);
    row
}

/// Sorted distinct undirected neighbour lists for every entity.
fn neighbor_lists(kg: &KnowledgeGraph) -> Vec<Vec<EntityId>> {
    kg.entity_ids().map(|e| kg.neighbors(e)).collect()
}

/// Assemble per-row results into a matrix (rows computed in parallel;
/// assembly order is deterministic, so the result is thread-count
/// invariant). Shared with the delta patcher.
pub(crate) fn matrix_from_par_rows(
    n: usize,
    dim: usize,
    row_of: impl Fn(usize) -> Vec<f32> + Sync,
) -> Matrix {
    let rows = ceaff_parallel::par_map(n, ROW_GRAIN, row_of);
    let mut m = Matrix::zeros(n, dim);
    for (i, row) in rows.iter().enumerate() {
        m.row_mut(i).copy_from_slice(row);
    }
    m
}

/// All propagation layers `[H₀, …, H_L]` of one graph (`L = layers`).
/// Each matrix is `num_entities × dim` with L2-normalised rows. Rows are
/// computed in parallel; every row is independent given the previous
/// layer, so the result is identical at any thread count.
pub fn propagate(kg: &KnowledgeGraph, dim: usize, layers: usize) -> Vec<Matrix> {
    let n = kg.num_entities();
    let neigh = neighbor_lists(kg);
    let degrees: Vec<usize> = neigh.iter().map(Vec::len).collect();
    let names: Vec<&str> = kg
        .entity_ids()
        .map(|e| kg.entity_name(e).expect("interned"))
        .collect();
    let mut out = Vec::with_capacity(layers + 1);
    out.push(matrix_from_par_rows(n, dim, |i| seed_row(names[i], dim)));
    for _ in 0..layers {
        let prev = out.last().expect("layer 0 pushed");
        let next = matrix_from_par_rows(n, dim, |i| {
            propagate_row(|j| prev.row(j), i, &neigh[i], |j| degrees[j])
        });
        out.push(next);
    }
    out
}

/// Encode both graphs of a pair and package the final layers as a
/// [`GcnEncoder`] (empty loss curve — nothing is trained), so the
/// existing [`crate::features::StructuralFeature`] constructors apply
/// unchanged.
pub fn encode(pair: &KgPair, dim: usize, layers: usize) -> GcnEncoder {
    let zs = propagate(&pair.source, dim, layers)
        .pop()
        .expect("at least layer 0");
    let zt = propagate(&pair.target, dim, layers)
        .pop()
        .expect("at least layer 0");
    GcnEncoder {
        z_source: zs,
        z_target: zt,
        loss_curve: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        for i in 0..6 {
            kg.add_entity(&format!("e{i}"));
        }
        kg.add_fact("e0", "r", "e1");
        kg.add_fact("e1", "r", "e2");
        kg.add_fact("e2", "r", "e3");
        kg.add_fact("e3", "r", "e0");
        kg.add_fact("e4", "r", "e0");
        kg
    }

    #[test]
    fn seed_rows_are_deterministic_and_unit_norm() {
        let a = seed_row("Berlin", 32);
        let b = seed_row("Berlin", 32);
        assert_eq!(a, b);
        let n = dot(&a, &a).sqrt();
        assert!((n - 1.0).abs() < 1e-5, "norm {n}");
        assert_ne!(seed_row("Berlin", 32), seed_row("Paris", 32));
    }

    #[test]
    fn layers_have_unit_rows_and_right_shapes() {
        let kg = toy_graph();
        let layers = propagate(&kg, 16, 2);
        assert_eq!(layers.len(), 3);
        for m in &layers {
            assert_eq!(m.shape(), (6, 16));
            for r in 0..m.rows() {
                let n = m.row_norm(r);
                assert!((n - 1.0).abs() < 1e-5, "row {r} norm {n}");
            }
        }
    }

    #[test]
    fn propagation_is_thread_count_invariant() {
        let kg = toy_graph();
        let a = ceaff_parallel::with_threads(1, || propagate(&kg, 16, 2));
        let b = ceaff_parallel::with_threads(4, || propagate(&kg, 16, 2));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn bulk_rows_match_single_row_calls() {
        let kg = toy_graph();
        let layers = propagate(&kg, 8, 2);
        let neigh = neighbor_lists(&kg);
        let degrees: Vec<usize> = neigh.iter().map(Vec::len).collect();
        for l in 1..layers.len() {
            for (i, row_neigh) in neigh.iter().enumerate() {
                let prev = &layers[l - 1];
                let fresh = propagate_row(|j| prev.row(j), i, row_neigh, |j| degrees[j]);
                assert_eq!(
                    layers[l].row(i),
                    &fresh[..],
                    "layer {l} row {i} differs from single-row recompute"
                );
            }
        }
    }

    #[test]
    fn isolated_entities_keep_their_seed_direction() {
        let kg = toy_graph();
        // e5 has no triples: its propagated row is c·H0[5] renormalised,
        // i.e. exactly its (already unit) seed row.
        let layers = propagate(&kg, 8, 1);
        let seed = seed_row("e5", 8);
        for (a, b) in layers[1].row(5).iter().zip(&seed) {
            assert!((a - b).abs() < 1e-5);
        }
    }
}
