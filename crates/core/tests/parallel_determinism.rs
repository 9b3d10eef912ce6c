//! End-to-end determinism: feature similarity matrices and the full CEAFF
//! pipeline must produce bitwise-identical output for 1, 2 and 8 threads
//! — and for every kernel tile width (`ceaff_tensor::with_tile`).
//!
//! This is the integration-level counterpart of the kernel tests in
//! `ceaff-tensor`: it exercises the real feature stack (GCN training,
//! name-embedding cosine, Levenshtein string similarity), adaptive
//! fusion, and collective matching under `ceaff_parallel::with_threads`.

use ceaff_core::features::{Feature, SemanticFeature, StringFeature, StructuralFeature};
use ceaff_core::pipeline::{try_run, CeaffConfig, EaInput, FeatureSet};
use ceaff_core::GcnConfig;
use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel};
use ceaff_parallel::with_threads;
use ceaff_sim::SimilarityMatrix;

fn dataset() -> GeneratedDataset {
    ceaff_datagen::generate(&GenConfig {
        aligned_entities: 120,
        extra_frac: 0.1,
        avg_degree: 6.0,
        overlap: 0.8,
        channel: NameChannel::CloseLingual {
            morph_rate: 0.5,
            replace_rate: 0.2,
        },
        vocab_size: 300,
        lexicon_coverage: 0.9,
        ..GenConfig::default()
    })
}

fn fast_cfg() -> CeaffConfig {
    CeaffConfig {
        gcn: GcnConfig {
            dim: 16,
            epochs: 20,
            ..GcnConfig::default()
        },
        embed_dim: 16,
        ..CeaffConfig::default()
    }
}

/// Assert that `f` yields the same similarity matrix at 1, 2 and 8 threads.
fn assert_matrix_invariant(label: &str, f: impl Fn() -> SimilarityMatrix) {
    let baseline = with_threads(1, &f);
    for threads in [2, 8] {
        let m = with_threads(threads, &f);
        assert_eq!(
            m.as_matrix().as_slice(),
            baseline.as_matrix().as_slice(),
            "{label}: similarity matrix differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn structural_similarity_matrix_is_thread_count_independent() {
    let ds = dataset();
    let gcn = GcnConfig {
        dim: 16,
        epochs: 20,
        ..GcnConfig::default()
    };
    assert_matrix_invariant("structural", || {
        StructuralFeature::compute(&ds.pair, &gcn)
            .test_store()
            .to_dense()
    });
}

#[test]
fn semantic_similarity_matrix_is_thread_count_independent() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    assert_matrix_invariant("semantic", || {
        SemanticFeature::compute(&ds.pair, &src, &tgt)
            .test_store()
            .to_dense()
    });
}

#[test]
fn string_similarity_matrix_is_thread_count_independent() {
    let ds = dataset();
    assert_matrix_invariant("string", || {
        StringFeature::compute(&ds.pair).test_store().to_dense()
    });
}

#[test]
fn csls_adjustment_is_thread_count_independent() {
    let ds = dataset();
    let string = StringFeature::compute(&ds.pair).test_store().to_dense();
    assert_matrix_invariant("csls", || ceaff_sim::csls_adjusted(&string, 10));
}

#[test]
fn full_pipeline_output_is_thread_count_independent() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = fast_cfg();
    let run = |threads: usize| {
        with_threads(threads, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            try_run(&input, &cfg).expect("pipeline runs")
        })
    };
    let baseline = run(1);
    for threads in [2, 8] {
        let out = run(threads);
        assert_eq!(
            out.fused.as_matrix().as_slice(),
            baseline.fused.as_matrix().as_slice(),
            "fused matrix differs between 1 and {threads} threads"
        );
        assert_eq!(
            out.matching.pairs(),
            baseline.matching.pairs(),
            "matching differs between 1 and {threads} threads"
        );
        assert_eq!(out.accuracy, baseline.accuracy);
        assert_eq!(out.ranking.hits1, baseline.ranking.hits1);
        assert_eq!(out.ranking.hits10, baseline.ranking.hits10);
        assert_eq!(out.ranking.mrr, baseline.ranking.mrr);
    }
}

#[test]
fn full_pipeline_output_is_tile_width_independent() {
    // The cache-blocked kernels promise that tile width only changes
    // traversal order, never a single accumulation — so GCN training and
    // every similarity matrix must be byte-identical across the
    // {2, 8 threads} × {tile 16, tile 64} matrix.
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = fast_cfg();
    let run = |threads: usize, tile: usize| {
        with_threads(threads, || {
            ceaff_tensor::with_tile(tile, || {
                let input = EaInput::new(&ds.pair, &src, &tgt);
                try_run(&input, &cfg).expect("pipeline runs")
            })
        })
    };
    let baseline = run(1, 64);
    for threads in [2, 8] {
        for tile in [16, 64] {
            let out = run(threads, tile);
            assert_eq!(
                out.fused.as_matrix().as_slice(),
                baseline.fused.as_matrix().as_slice(),
                "fused matrix differs at {threads} threads, tile {tile}"
            );
            assert_eq!(
                out.matching.pairs(),
                baseline.matching.pairs(),
                "matching differs at {threads} threads, tile {tile}"
            );
            assert_eq!(out.accuracy, baseline.accuracy);
            assert_eq!(out.ranking.mrr, baseline.ranking.mrr);
        }
    }
}

#[test]
fn precomputed_feature_reuse_is_thread_count_independent() {
    // Features computed at one width, fusion + matching replayed at
    // several widths — the ablation-harness usage pattern.
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = fast_cfg();
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let features = with_threads(4, || FeatureSet::compute_all(&input, &cfg));
    let decide = |threads: usize| {
        with_threads(threads, || {
            ceaff_core::pipeline::try_run_with_features(
                &ds.pair,
                &features,
                &cfg,
                &ceaff_telemetry::Telemetry::disabled(),
            )
            .expect("pipeline runs")
        })
    };
    let baseline = decide(1);
    for threads in [2, 8] {
        let out = decide(threads);
        assert_eq!(
            out.fused.as_matrix().as_slice(),
            baseline.fused.as_matrix().as_slice()
        );
        assert_eq!(out.matching.pairs(), baseline.matching.pairs());
    }
}

/// FNV-1a over the bit patterns of a GCN run's embeddings and loss curve.
fn gcn_bits_hash(enc: &ceaff_core::GcnEncoder) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = enc
        .z_source
        .as_slice()
        .iter()
        .chain(enc.z_target.as_slice())
        .chain(&enc.loss_curve);
    for v in words {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn gcn_training_bits_are_pinned_across_commits() {
    // Cross-commit pin: `golden_metrics` rounds to six decimals, so a
    // one-ulp reordering inside a matmul kernel would slip past it. These
    // constants were recorded before the AVX backward kernels landed; any
    // change to a per-cell accumulation order in the GCN's forward or
    // backward products, the hard-negative pools or the validation scorer
    // moves them. Dim 30 exercises every kernel edge (`k % 4 = 2`,
    // `n % 8 = 6`, `n % 16 = 14`); dim 32 the full-width fast paths.
    let ds = dataset();
    for (dim, want) in [(30, 0x1044_fa94_1105_7dae_u64), (32, 0x1d2c_747b_25b8_9f50)] {
        let cfg = GcnConfig {
            dim,
            epochs: 12,
            hard_negative_refresh: 5,
            validate_every: 4,
            ..GcnConfig::default()
        };
        let enc = ceaff_core::gcn::train(&ds.pair, &cfg);
        let got = gcn_bits_hash(&enc);
        assert_eq!(
            got, want,
            "GCN training bits moved at dim {dim}: {got:#018x}"
        );
    }
}
