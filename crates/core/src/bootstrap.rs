//! Iterative (bootstrapped) CEAFF — an extension combining the paper's
//! framework with the self-training loop of its IPTransE/BootEA baselines
//! (§II, §VII-A): confident *collective* matches are promoted into the
//! seed alignment and the structural feature is retrained, for a fixed
//! number of rounds.
//!
//! Promotion uses the same one-to-one discipline as BootEA — but the
//! candidates come from the stable matching over the *fused* matrix, so a
//! promoted pair was already mutually preferred under all features
//! combined, which keeps the self-training noise low. Matches are promoted
//! when their fused score clears `threshold`.

use crate::error::CeaffError;
use crate::pipeline::{
    try_run_with_features, CeaffConfig, CeaffOutput, EaInput, FeatureSet, RunOptions,
};
use ceaff_graph::{EntityId, KgPair};
use serde::{Deserialize, Serialize};

/// Bootstrapping configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BootstrapConfig {
    /// Total rounds (1 = plain CEAFF, no promotion).
    pub rounds: usize,
    /// Minimum fused similarity (after per-feature preprocessing) for a
    /// collective match to be promoted into the seed set.
    pub threshold: f32,
    /// Cap on promotions per round as a fraction of the test set (promote
    /// the highest-scoring matches first). Guards against flooding the
    /// seed set with early noise.
    pub max_promotions_per_round: f64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            rounds: 3,
            threshold: 0.75,
            max_promotions_per_round: 0.3,
        }
    }
}

/// Result of a bootstrapped run.
#[derive(Debug)]
pub struct BootstrapOutput {
    /// The final round's pipeline output (its
    /// [`CeaffOutput::trace`] covers the final round).
    pub final_output: CeaffOutput,
    /// Accuracy after each round (diagnostic).
    pub accuracy_per_round: Vec<f64>,
    /// Number of pairs promoted after each round (the last round promotes
    /// nothing).
    pub promotions_per_round: Vec<usize>,
}

/// Run CEAFF with bootstrapped seed augmentation.
///
/// Each round: compute features on a pair whose seed set is augmented with
/// the previous round's confident matches, run the full pipeline, promote.
/// The *evaluation* is always against the original test set.
///
/// Per-round progress is reported to `input.telemetry` as `bootstrap`
/// gauges (`extra_seeds` at round start, `promotions` after the round);
/// because every round drains the trace into its own [`CeaffOutput`],
/// those gauges land in that round's trace.
pub fn try_run_bootstrapped(
    input: &EaInput<'_>,
    cfg: &CeaffConfig,
    boot: &BootstrapConfig,
) -> Result<BootstrapOutput, CeaffError> {
    if boot.rounds == 0 {
        return Err(CeaffError::InvalidConfig(
            "bootstrapping needs at least one round".into(),
        ));
    }
    cfg.validate()?;
    let telemetry = &input.telemetry;
    let base_pair = input.pair;
    let test_sources = base_pair.test_sources();
    let test_targets = base_pair.test_targets();

    let mut extra_seeds: Vec<(EntityId, EntityId)> = Vec::new();
    let mut accuracy_per_round = Vec::with_capacity(boot.rounds);
    let mut promotions_per_round = Vec::with_capacity(boot.rounds);
    let mut last_output: Option<CeaffOutput> = None;
    // Semantic and string features depend only on names, not on seeds:
    // compute them once and retrain only the structural feature per round.
    let mut carried: Option<FeatureSet> = None;

    for round in 0..boot.rounds {
        telemetry.gauge(
            "bootstrap",
            "extra_seeds",
            Some(round as u64),
            extra_seeds.len() as f64,
        );
        // Build the augmented problem: same graphs and test split, seeds
        // extended with promotions. The test pairs stay identical so the
        // similarity matrices keep their index space.
        let augmented = augment_seeds(base_pair, &extra_seeds);
        let aug_input = EaInput::new(&augmented, input.source_embedder, input.target_embedder)
            .with_telemetry(telemetry.clone());
        let features = match carried.take() {
            None => FeatureSet::try_compute(&aug_input, cfg, &RunOptions::default())?,
            Some(mut prev) => {
                if cfg.use_structural {
                    // Through the pipeline's own feature body, so the
                    // candidate strategy, the encoder mode and typed
                    // errors all follow `cfg`.
                    let structural_only = CeaffConfig {
                        use_semantic: false,
                        use_string: false,
                        ..cfg.clone()
                    };
                    prev.structural = FeatureSet::try_compute(
                        &aug_input,
                        &structural_only,
                        &RunOptions::default(),
                    )?
                    .structural;
                }
                prev
            }
        };
        let output = try_run_with_features(&augmented, &features, cfg, telemetry)?;
        carried = Some(features);
        accuracy_per_round.push(output.accuracy);

        if round + 1 < boot.rounds {
            // Promote confident one-to-one matches not already promoted.
            let already: std::collections::HashSet<EntityId> =
                extra_seeds.iter().map(|&(u, _)| u).collect();
            let mut candidates: Vec<(f32, EntityId, EntityId)> = output
                .matching
                .pairs()
                .iter()
                .filter_map(|&(i, j)| {
                    let score = output.fused.get(i, j);
                    let (u, v) = (test_sources[i], test_targets[j]);
                    (score >= boot.threshold && !already.contains(&u)).then_some((score, u, v))
                })
                .collect();
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores are finite"));
            let cap =
                ((test_sources.len() as f64) * boot.max_promotions_per_round).round() as usize;
            candidates.truncate(cap);
            promotions_per_round.push(candidates.len());
            telemetry.gauge(
                "bootstrap",
                "promotions",
                Some(round as u64),
                candidates.len() as f64,
            );
            extra_seeds.extend(candidates.into_iter().map(|(_, u, v)| (u, v)));
        } else {
            promotions_per_round.push(0);
        }
        last_output = Some(output);
    }

    Ok(BootstrapOutput {
        final_output: last_output.expect("at least one round ran"),
        accuracy_per_round,
        promotions_per_round,
    })
}

/// Clone `pair` with `extra` appended to its seed list (test split kept).
fn augment_seeds(pair: &KgPair, extra: &[(EntityId, EntityId)]) -> KgPair {
    let mut seeds = pair.seeds().to_vec();
    seeds.extend_from_slice(extra);
    let split = ceaff_graph::SeedSplit::from_parts(seeds, pair.test_pairs().to_vec());
    KgPair {
        source: pair.source.clone(),
        target: pair.target.clone(),
        alignment: pair.alignment.clone(),
        split,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gcn::GcnConfig;
    use ceaff_datagen::{GenConfig, NameChannel};
    use ceaff_telemetry::Telemetry;

    fn dataset() -> ceaff_datagen::GeneratedDataset {
        ceaff_datagen::generate(&GenConfig {
            aligned_entities: 150,
            extra_frac: 0.1,
            avg_degree: 8.0,
            overlap: 0.8,
            channel: NameChannel::DistantLingual,
            lexicon_coverage: 0.6,
            semantic_noise: 0.25,
            vocab_size: 400,
            ..GenConfig::default()
        })
    }

    fn fast_cfg() -> CeaffConfig {
        CeaffConfig {
            gcn: GcnConfig {
                dim: 32,
                epochs: 40,
                ..GcnConfig::default()
            },
            embed_dim: 32,
            ..CeaffConfig::default()
        }
    }

    #[test]
    fn bootstrapping_never_loses_much_and_usually_gains() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let out = try_run_bootstrapped(&input, &cfg, &BootstrapConfig::default()).expect("runs");
        assert_eq!(out.accuracy_per_round.len(), 3);
        assert_eq!(out.promotions_per_round.len(), 3);
        assert_eq!(
            out.promotions_per_round[2], 0,
            "final round promotes nothing"
        );
        let first = out.accuracy_per_round[0];
        let last = *out.accuracy_per_round.last().unwrap();
        assert!(
            last >= first - 0.05,
            "bootstrapping degraded badly: {first} -> {last}"
        );
        assert!(
            out.promotions_per_round[0] > 0,
            "confident matches should exist"
        );
        // The final round's trace carries stage timings as usual.
        assert!(out.final_output.trace.stage_seconds("matcher").is_some());
    }

    #[test]
    fn single_round_equals_plain_ceaff() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let plain = crate::pipeline::try_run(&input, &cfg).expect("runs");
        let boot = try_run_bootstrapped(
            &input,
            &cfg,
            &BootstrapConfig {
                rounds: 1,
                ..BootstrapConfig::default()
            },
        )
        .expect("runs");
        assert!((plain.accuracy - boot.final_output.accuracy).abs() < 1e-9);
    }

    #[test]
    fn later_rounds_keep_the_blocked_candidate_stores() {
        // Names that share trigrams, so blocking finds candidates.
        let ds = ceaff_datagen::generate(&GenConfig {
            aligned_entities: 150,
            channel: NameChannel::Identical { typo_rate: 0.1 },
            ..GenConfig::default()
        });
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let k = 8;
        let out = try_run_bootstrapped(
            &input,
            &fast_cfg().with_blocking(k),
            &BootstrapConfig {
                rounds: 2,
                ..BootstrapConfig::default()
            },
        )
        .expect("runs");
        assert!(out.promotions_per_round[0] > 0, "round 2 retrains");
        let ceaff_sim::SimStore::Sparse(fused) = &out.final_output.fused else {
            panic!("a blocked run fuses into a sparse store");
        };
        for i in 0..fused.sources() {
            let (cols, _) = fused.row_entries(i);
            assert!(cols.len() <= k, "row {i} holds {} entries", cols.len());
        }
    }

    #[test]
    fn zero_rounds_is_an_error() {
        let ds = dataset();
        let src = ds.source_embedder(16);
        let tgt = ds.target_embedder(16);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let err = try_run_bootstrapped(
            &input,
            &fast_cfg(),
            &BootstrapConfig {
                rounds: 0,
                ..BootstrapConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CeaffError::InvalidConfig(_)));
        assert!(err.to_string().contains("at least one round"));
    }

    #[test]
    fn enabled_telemetry_reports_bootstrap_rounds() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let sink = std::sync::Arc::new(ceaff_telemetry::InMemorySink::default());
        let input =
            EaInput::new(&ds.pair, &src, &tgt).with_telemetry(Telemetry::with_sink(sink.clone()));
        let cfg = fast_cfg();
        let out = try_run_bootstrapped(
            &input,
            &cfg,
            &BootstrapConfig {
                rounds: 2,
                ..BootstrapConfig::default()
            },
        )
        .expect("runs");
        // The sink saw every round's events, including the bootstrap
        // gauges the per-round traces were drained around.
        let events = sink.snapshot();
        let rounds: Vec<u64> = events
            .iter()
            .filter(|e| e.stage == "bootstrap" && e.name == "extra_seeds")
            .filter_map(|e| e.step)
            .collect();
        assert_eq!(rounds, vec![0, 1]);
        assert!(
            events
                .iter()
                .any(|e| e.stage == "bootstrap" && e.name == "promotions"),
            "promotions gauge expected"
        );
        assert!(out.final_output.trace.stage_seconds("gcn").is_some());
    }
}
