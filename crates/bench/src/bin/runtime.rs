//! **§VII-C runtime comparison** — "our proposal merely requires less than
//! 10 minutes" (vs GM-Align's days on DBP100K).
//!
//! Times every stage of CEAFF (feature generation, fusion, matching) and a
//! representative baseline per family on one dense and one sparse dataset,
//! and reports the end-to-end wall clock. Also times the Hungarian
//! alternative to quantify the §VI efficiency argument for deferred
//! acceptance, on each fused matrix and on a uniform random 400×400 one.

use ceaff::baselines::{evaluate, BootEa, GmAlignLite, RdgcnLite};
use ceaff::matching::{Hungarian, Matcher, StableMarriage};
use ceaff::prelude::*;
use ceaff::sim::{SimStore, SimilarityMatrix};
use ceaff::tensor::Matrix;
use ceaff_bench::{maybe_write_json, HarnessOpts};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::time::Instant;

/// Side of the random matrix the matchers are timed on.
const RANDOM_N: usize = 400;

/// Wall-clock seconds of deferred acceptance and Hungarian on `store`.
fn time_matchers(store: &SimStore) -> (f64, f64) {
    let store = std::hint::black_box(store);
    let t = Instant::now();
    std::hint::black_box(StableMarriage.matching_store(store));
    let t_daa = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(Hungarian.matching_store(store));
    (t_daa, t.elapsed().as_secs_f64())
}

fn main() {
    let opts = HarnessOpts::from_args();
    let mut jout = Vec::new();
    for preset in [Preset::Dbp100kDbpWd, Preset::SrprsEnFr] {
        let task = opts.task(preset);
        let pair = &task.dataset.pair;
        println!(
            "\n=== {} ({} + {} entities, {} test pairs) ===",
            preset.label(),
            pair.source.num_entities(),
            pair.target.num_entities(),
            pair.test_pairs().len()
        );
        let cfg = opts.ceaff_config();

        let t0 = Instant::now();
        let features = FeatureSet::compute_all(&task.input(), &cfg);
        let t_features = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let out = try_run_with_features(pair, &features, &cfg, &Telemetry::disabled())
            .expect("pipeline runs");
        let t_decide = t1.elapsed().as_secs_f64();
        println!(
            "CEAFF: features {t_features:.2}s + fusion/matching {t_decide:.3}s  \
             (accuracy {:.3})",
            out.accuracy
        );

        // The §VI efficiency argument: DAA vs Hungarian on the fused matrix.
        let (t_daa, t_hun) = time_matchers(&out.fused);
        println!("matching only: deferred acceptance {t_daa:.3}s vs hungarian {t_hun:.3}s");

        let mut jbase = Vec::new();
        let boot = BootEa {
            transe: opts.transe_config(),
            ..BootEa::default()
        };
        let rdgcn = RdgcnLite {
            gcn: opts.gcn_config(),
            ..RdgcnLite::default()
        };
        let gm = GmAlignLite::default();
        for (label, res) in [
            ("BootEA", evaluate(&boot, &task.baseline_input())),
            ("RDGCN-lite", evaluate(&rdgcn, &task.baseline_input())),
            ("GM-Align-lite", evaluate(&gm, &task.baseline_input())),
        ] {
            println!(
                "{label}: {:.2}s (accuracy {:.3})",
                res.seconds, res.accuracy
            );
            jbase.push(json!({ "method": label, "seconds": res.seconds }));
        }
        jout.push(json!({
            "dataset": preset.label(),
            "ceaff_feature_seconds": t_features,
            "ceaff_decision_seconds": t_decide,
            "daa_seconds": t_daa,
            "hungarian_seconds": t_hun,
            "baselines": jbase,
        }));
    }
    // Without the fused matrices' near-diagonal structure the asymptotics
    // dominate: uniform random scores, fixed seed.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let data: Vec<f32> = (0..RANDOM_N * RANDOM_N)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect();
    let random = SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(
        RANDOM_N, RANDOM_N, data,
    )));
    let (t_daa, t_hun) = time_matchers(&random);
    println!(
        "\n=== random uniform {RANDOM_N}x{RANDOM_N} ===\n\
         matching only: deferred acceptance {t_daa:.3}s vs hungarian {t_hun:.3}s"
    );
    jout.push(json!({
        "dataset": format!("random uniform {RANDOM_N}x{RANDOM_N}"),
        "daa_seconds": t_daa,
        "hungarian_seconds": t_hun,
    }));
    println!(
        "\nPaper claim to check: CEAFF end-to-end stays in minutes at full scale\n\
         (here, seconds at reduced scale); DAA is far cheaper than Hungarian."
    );
    maybe_write_json(&opts, "runtime", &json!(jout));
}
