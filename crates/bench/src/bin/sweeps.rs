//! Design-choice sweeps — the analyses behind the paper's fixed settings:
//!
//! * `--sweep seed`  — accuracy vs seed fraction (the paper fixes 30%);
//! * `--sweep theta` — the θ1/θ2 grid the paper says it tuned on a
//!   validation set (§VII-A; §VII-E motivates the cap);
//! * `--sweep dim`   — accuracy/runtime vs embedding dimension (the paper
//!   fixes ds = 300; this repo defaults to 64 on one core);
//! * `--sweep budget` — the deadline-vs-quality tradeoff as a
//!   deterministic step-limit ladder (one granule = one GCN epoch, one
//!   feature stage, or one matcher round), exactly reproducible on any
//!   machine unlike a wall-clock deadline.
//!
//! ```sh
//! cargo run --release -p ceaff-bench --bin sweeps -- --sweep theta --scale 0.5
//! ```

use ceaff::prelude::*;
use ceaff_bench::harness::Args;
use ceaff_bench::{maybe_write_json, run_ceaff, HarnessOpts};
use rand::SeedableRng;
use serde_json::json;

fn main() {
    let args = Args::from_env(&[&HarnessOpts::FLAGS[..], &["--sweep"]].concat(), &[]);
    let opts = HarnessOpts::from_parsed(&args);
    match args.get("--sweep", "theta".to_owned()).as_str() {
        "seed" => sweep_seed_fraction(&opts),
        "theta" => sweep_theta(&opts),
        "dim" => sweep_dim(&opts),
        "budget" => sweep_budget(&opts),
        other => {
            eprintln!("error: unknown sweep '{other}' (seed | theta | dim | budget)");
            std::process::exit(2);
        }
    }
}

/// Accuracy vs seed fraction on one cross-lingual pair: how much training
/// alignment CEAFF needs (the paper fixes 30%).
fn sweep_seed_fraction(opts: &HarnessOpts) {
    println!(
        "seed-fraction sweep on DBP15K ZH-EN (sim), scale {}",
        opts.scale
    );
    println!("{:>8} {:>10} {:>10}", "seeds", "CEAFF", "w/o C");
    let mut jout = Vec::new();
    for fraction in [0.1f64, 0.2, 0.3, 0.4, 0.5] {
        let ds = Preset::Dbp15kZhEn.generate(opts.scale);
        // Re-split the same gold standard at the swept fraction.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let pair = ceaff::graph::KgPair::new(
            ds.pair.source.clone(),
            ds.pair.target.clone(),
            ds.pair.alignment.clone(),
            fraction,
            &mut rng,
        );
        let src = ds.source_embedder(opts.dim);
        let tgt = ds.target_embedder(opts.dim);
        let input = EaInput::new(&pair, &src, &tgt);
        let cfg = opts.ceaff_config();
        let telemetry = Telemetry::disabled();
        let features = FeatureSet::compute_all(&input, &cfg);
        let full = run_ceaff(&pair, &features, &cfg, &telemetry);
        let greedy = run_ceaff(
            &pair,
            &features,
            &cfg.clone().without_collective(),
            &telemetry,
        );
        println!(
            "{:>7.0}% {:>10.3} {:>10.3}",
            fraction * 100.0,
            full.accuracy,
            greedy.accuracy
        );
        jout.push(json!({
            "seed_fraction": fraction,
            "ceaff": full.accuracy,
            "greedy": greedy.accuracy,
        }));
    }
    println!(
        "\nShape: accuracy grows with the seed fraction (the structural anchor\n\
         strengthens) and the collective margin persists throughout."
    );
    maybe_write_json(opts, "sweep_seed_fraction", &json!(jout));
}

/// The θ1/θ2 grid of §VII-A / §VII-E.
fn sweep_theta(opts: &HarnessOpts) {
    println!("theta sweep on DBP15K ZH-EN (sim), scale {}", opts.scale);
    let task = opts.task(Preset::Dbp15kZhEn);
    let base = opts.ceaff_config();
    let telemetry = opts.telemetry();
    let features = FeatureSet::compute_all(&task.input(), &base);
    println!("{:>8} {:>8} {:>10}", "theta1", "theta2", "accuracy");
    let mut jout = Vec::new();
    for theta1 in [0.90f32, 0.95, 0.98, 0.995] {
        for theta2 in [0.05f32, 0.1, 0.3, 0.5] {
            let mut cfg = base.clone();
            cfg.fusion.theta1 = theta1;
            cfg.fusion.theta2 = theta2;
            let out = run_ceaff(&task.dataset.pair, &features, &cfg, &telemetry);
            println!("{theta1:>8} {theta2:>8} {:>10.3}", out.accuracy);
            jout.push(json!({
                "theta1": theta1,
                "theta2": theta2,
                "accuracy": out.accuracy,
            }));
        }
    }
    let mut cfg = base.clone();
    cfg.fusion.cap_enabled = false;
    let out = run_ceaff(&task.dataset.pair, &features, &cfg, &telemetry);
    println!("{:>8} {:>8} {:>10.3}", "-", "-", out.accuracy);
    jout.push(json!({ "cap": false, "accuracy": out.accuracy }));
    println!(
        "\nThe paper tunes θ1 = 0.98, θ2 = 0.1 on a validation set; the grid shows\n\
         how sensitive (or not) the fusion is around that point, and the final row\n\
         is the cap disabled entirely (Table V's \"w/o θ1, θ2\")."
    );
    maybe_write_json(opts, "sweep_theta", &json!(jout));
}

/// The deadline-vs-quality curve, swept deterministically: instead of a
/// wall-clock deadline (whose cut point depends on the machine) the
/// budget is a granule counter — one granule is one GCN epoch, one
/// non-structural feature stage, or one matcher round — so every rung of
/// the ladder degrades at exactly the same point everywhere. A full run
/// consumes `epochs + 2 + n` granules (n = test pairs).
fn sweep_budget(opts: &HarnessOpts) {
    println!(
        "step-budget sweep on DBP15K ZH-EN (sim), scale {}",
        opts.scale
    );
    let task = opts.task(Preset::Dbp15kZhEn);
    let cfg = opts.ceaff_config();
    let n = task.dataset.pair.test_pairs().len() as u64;
    let epochs = cfg.gcn.epochs as u64;
    let full = epochs + 2 + n;
    println!(
        "{:>8} {:>8} {:>10}  degraded stages (% best-effort)",
        "granules", "of full", "accuracy"
    );
    let mut jout = Vec::new();
    for limit in [
        0,
        epochs / 4,
        epochs / 2,
        epochs,
        epochs + 2 + n / 2,
        full - 1,
        full,
    ] {
        let budget = ExecBudget::unlimited().with_step_limit(limit);
        let out = ceaff::run(
            &task.input(),
            &cfg,
            &ceaff::RunOptions {
                budget: &budget,
                checkpoint: None,
            },
        )
        .expect("budgeted run");
        let degraded: Vec<String> = out
            .trace
            .degradations
            .iter()
            .map(|d| format!("{} {:.0}%", d.stage, d.fraction_degraded * 100.0))
            .collect();
        let label = if degraded.is_empty() {
            "-".to_string()
        } else {
            degraded.join(", ")
        };
        println!(
            "{limit:>8} {:>7.0}% {:>10.3}  {label}",
            limit as f64 / full as f64 * 100.0,
            out.accuracy
        );
        jout.push(json!({
            "step_limit": limit,
            "fraction_of_full": limit as f64 / full as f64,
            "accuracy": out.accuracy,
            "degraded": degraded,
        }));
    }
    println!(
        "\nShape: quality degrades monotonically but *gracefully* — even a zero\n\
         budget returns a valid one-to-one matching (greedy completion over the\n\
         untrained structural snapshot), and the curve recovers most of the full\n\
         accuracy well before the full granule count."
    );
    maybe_write_json(opts, "sweep_budget", &json!(jout));
}

/// Accuracy and runtime vs embedding dimension.
fn sweep_dim(opts: &HarnessOpts) {
    println!("dimension sweep on SRPRS EN-FR (sim), scale {}", opts.scale);
    println!("{:>6} {:>10} {:>10}", "dim", "accuracy", "seconds");
    let mut jout = Vec::new();
    for dim in [16usize, 32, 64, 128] {
        let task = DatasetTask::from_preset(Preset::SrprsEnFr, opts.scale, dim);
        let mut cfg = opts.ceaff_config();
        cfg.gcn.dim = dim;
        cfg.embed_dim = dim;
        let out = ceaff::try_run(&task.input(), &cfg).expect("pipeline runs");
        let secs = out.trace.total_seconds();
        println!("{dim:>6} {:>10.3} {secs:>10.2}", out.accuracy);
        jout.push(json!({ "dim": dim, "accuracy": out.accuracy, "seconds": secs }));
    }
    println!(
        "\nShape: accuracy saturates well below the paper's ds = 300 on the scaled\n\
         benchmarks; runtime grows roughly linearly in the dimension."
    );
    maybe_write_json(opts, "sweep_dim", &json!(jout));
}
