//! # ceaff-bench
//!
//! The experiment binaries regenerating every table of the paper's
//! evaluation section, and the `bench_*` binaries that write the
//! committed `BENCH_*.json` files. All thirteen parse their flags through
//! [`harness::Args`]; the `bench_*` ones also time, stamp, validate and
//! write their reports through [`harness`].
//!
//! Run one with `cargo run --release -p ceaff-bench --bin <name> --
//! <flags>`. An unknown flag, a value flag with nothing after it, or a
//! value that does not parse exits with status 2.
//!
//! | binary | artefact | flags (default) | `--check` runs |
//! |---|---|---|---|
//! | `table2_stats` | Table II — dataset statistics | experiment flags | |
//! | `table3_cross_lingual` | Table III — cross-lingual accuracy | experiment flags | |
//! | `table4_mono_lingual` | Table IV — mono-lingual accuracy | experiment flags | |
//! | `table5_ablation` | Table V — ablation study | experiment flags | |
//! | `table6_ranking` | Table VI — ranking evaluation (Hits@k, MRR) | experiment flags | |
//! | `runtime` | §VII-C runtime comparison | experiment flags | |
//! | `extensions` | §VIII future-work experiments | experiment flags | |
//! | `sweeps` | design-choice sweeps | experiment flags, `--sweep seed\|theta\|dim\|budget` (theta) | |
//! | `bench_delta` | `BENCH_delta.json` | `--scale` (1.0), `--steps` (20), `--out`, `--check` | scale 0.08, 5 steps, 1 rep |
//! | `bench_restart` | `BENCH_restart.json` | `--scale` (1.0), `--steps` (10), `--out`, `--check` | scale 0.08, 5 steps, 1 rep |
//! | `bench_server` | `BENCH_server.json` | `--reps` (5), `--requests` (48), `--out`, `--check` | 1 round of 16 requests |
//! | `bench_kernels` | `BENCH_kernels.json` | `--scale`, repeatable (0.2 1 5), `--reps` (5), `--threads` (4), `--out`, `--check` | 2 reps; scale 0.2 unless given |
//! | `bench_sparse` | `BENCH_sparse.json` | `--scale` (10), `--small-scale` (1.0), `--cap-mb` (512), `--topk` (50), `--out` | |
//!
//! The experiment flags ([`HarnessOpts::FLAGS`]) are `--scale <f64>`
//! (dataset size multiplier, default 0.3), `--dim <usize>` (GCN/TransE
//! dimension, default 64), `--epochs <usize>` (encoder epochs, default
//! 100), `--json <path>` (also dump machine-readable results) and
//! `--trace <path>` (stream telemetry events as JSON lines). A `bench_*`
//! binary's `--out` defaults to its `BENCH_*.json` in the working
//! directory; `--check` is the smoke mode CI runs.

use ceaff::baselines::*;
use ceaff::prelude::*;
use harness::Args;
use serde_json::json;

pub mod harness;
pub mod kernels;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Dataset size multiplier (1.0 = 1 000 aligned pairs for 15k-class
    /// datasets).
    pub scale: f64,
    /// Encoder embedding dimension.
    pub dim: usize,
    /// Encoder training epochs.
    pub epochs: usize,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Optional telemetry trace path (JSON lines).
    pub trace: Option<String>,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        Self {
            scale: 0.3,
            dim: 64,
            epochs: 100,
            json: None,
            trace: None,
        }
    }
}

impl HarnessOpts {
    /// The value flags every experiment binary accepts.
    pub const FLAGS: [&'static str; 5] = ["--scale", "--dim", "--epochs", "--json", "--trace"];

    /// Parse this process's arguments (the [`HarnessOpts::FLAGS`]); a
    /// malformed command line exits with status 2.
    pub fn from_args() -> Self {
        Self::from_parsed(&Args::from_env(&Self::FLAGS, &[]))
    }

    /// The options `args` sets, with the defaults for the rest.
    pub fn from_parsed(args: &Args) -> Self {
        let d = Self::default();
        Self {
            scale: args.get("--scale", d.scale),
            dim: args.get("--dim", d.dim),
            epochs: args.get("--epochs", d.epochs),
            json: args.opt("--json"),
            trace: args.opt("--trace"),
        }
    }

    /// The CEAFF configuration these options imply.
    pub fn ceaff_config(&self) -> CeaffConfig {
        let mut cfg = CeaffConfig::default();
        cfg.gcn.dim = self.dim;
        cfg.gcn.epochs = self.epochs;
        cfg.embed_dim = self.dim;
        cfg
    }

    /// TransE configuration for the translational baselines.
    pub fn transe_config(&self) -> TranseConfig {
        TranseConfig {
            dim: self.dim,
            epochs: (self.epochs * 3).max(150), // per-triple SGD needs more passes
            ..TranseConfig::default()
        }
    }

    /// GCN configuration for the GNN baselines.
    pub fn gcn_config(&self) -> ceaff::GcnConfig {
        ceaff::GcnConfig {
            dim: self.dim,
            epochs: self.epochs,
            ..ceaff::GcnConfig::default()
        }
    }

    /// Build the [`DatasetTask`] of a preset under these options.
    pub fn task(&self, preset: Preset) -> DatasetTask {
        DatasetTask::from_preset(preset, self.scale, self.dim)
    }

    /// The telemetry handle these options imply: a JSON-lines stream when
    /// `--trace` was given, otherwise disabled (timings only). Call once
    /// per binary — a second call would truncate the trace file.
    pub fn telemetry(&self) -> Telemetry {
        match &self.trace {
            Some(path) => {
                let sink = ceaff::telemetry::JsonLinesSink::create(path)
                    .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
                Telemetry::with_sink(std::sync::Arc::new(sink))
            }
            None => Telemetry::disabled(),
        }
    }
}

/// Shorthand for the experiment binaries: run fusion + matching on
/// precomputed features, panicking on pipeline errors (an experiment with
/// a bad configuration should abort loudly).
pub fn run_ceaff(
    pair: &ceaff::graph::KgPair,
    features: &FeatureSet,
    cfg: &CeaffConfig,
    telemetry: &Telemetry,
) -> CeaffOutput {
    try_run_with_features(pair, features, cfg, telemetry).expect("pipeline runs")
}

/// Which group a method belongs to in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodGroup {
    /// Structure-only methods (Table III/IV upper block).
    Structural,
    /// Methods using features beyond structure (lower block).
    MultiFeature,
}

/// The baseline roster, in the papers' table order.
pub fn baseline_roster(opts: &HarnessOpts) -> Vec<(MethodGroup, Box<dyn AlignmentMethod>)> {
    let transe = opts.transe_config();
    let gcn = opts.gcn_config();
    vec![
        (
            MethodGroup::Structural,
            Box::new(MTransE {
                transe,
                ..MTransE::default()
            }) as Box<dyn AlignmentMethod>,
        ),
        (
            MethodGroup::Structural,
            Box::new(IpTransE {
                transe,
                ..IpTransE::default()
            }),
        ),
        (
            MethodGroup::Structural,
            Box::new(BootEa {
                transe,
                ..BootEa::default()
            }),
        ),
        (
            MethodGroup::Structural,
            Box::new(RsnLite {
                config: RsnLiteConfig {
                    dim: opts.dim,
                    ..RsnLiteConfig::default()
                },
            }),
        ),
        (MethodGroup::Structural, Box::new(MuGnnLite { gcn })),
        (
            MethodGroup::Structural,
            Box::new(NaeaLite {
                gcn,
                ..NaeaLite::default()
            }),
        ),
        (
            MethodGroup::MultiFeature,
            Box::new(GcnAlign {
                gcn,
                ..GcnAlign::default()
            }),
        ),
        (
            MethodGroup::MultiFeature,
            Box::new(Jape {
                transe,
                ..Jape::default()
            }),
        ),
        (
            MethodGroup::MultiFeature,
            Box::new(RdgcnLite {
                gcn,
                ..RdgcnLite::default()
            }),
        ),
        (MethodGroup::MultiFeature, Box::new(GmAlignLite::default())),
        (
            MethodGroup::MultiFeature,
            Box::new(MultiKeLite {
                transe,
                ..MultiKeLite::default()
            }),
        ),
    ]
}

/// Print a fixed-width table: header row, then rows of (label, cells).
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n=== {title} ===");
    print!("{:<18}", "");
    for c in columns {
        print!(" {c:>14}");
    }
    println!();
    for (label, cells) in rows {
        print!("{label:<18}");
        for cell in cells {
            print!(" {cell:>14}");
        }
        println!();
    }
}

/// Format an accuracy cell like the paper (3 decimals, `-` for missing).
pub fn fmt_acc(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

/// Write collected results as JSON if the options ask for it.
pub fn maybe_write_json(opts: &HarnessOpts, experiment: &str, value: &serde_json::Value) {
    if let Some(path) = &opts.json {
        let payload = json!({
            "experiment": experiment,
            "options": {
                "scale": opts.scale,
                "dim": opts.dim,
                "epochs": opts.epochs,
            },
            "results": value,
        });
        std::fs::write(
            path,
            serde_json::to_string_pretty(&payload).expect("serializable"),
        )
        .expect("write json output");
        println!("\n(json results written to {path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_complete_and_ordered() {
        let opts = HarnessOpts::default();
        let roster = baseline_roster(&opts);
        assert_eq!(roster.len(), 11);
        let names: Vec<_> = roster.iter().map(|(_, m)| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "MTransE",
                "IPTransE",
                "BootEA",
                "RSNs",
                "MuGNN",
                "NAEA",
                "GCN-Align",
                "JAPE",
                "RDGCN",
                "GM-Align",
                "MultiKE"
            ]
        );
        // First six are the structure-only group.
        assert!(roster[..6]
            .iter()
            .all(|(g, _)| *g == MethodGroup::Structural));
    }

    #[test]
    fn fmt_acc_formats() {
        assert_eq!(fmt_acc(Some(0.7954)), "0.795");
        assert_eq!(fmt_acc(None), "-");
    }
}
