//! # ceaff-bench
//!
//! The experiment harness regenerating every table of the paper's
//! evaluation section (see the `src/bin` binaries) plus the `bench_*`
//! harnesses that write the committed `BENCH_*.json` files.
//!
//! Binaries (run with `cargo run --release -p ceaff-bench --bin <name>`):
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table2_stats` | Table II — dataset statistics |
//! | `table3_cross_lingual` | Table III — cross-lingual accuracy |
//! | `table4_mono_lingual` | Table IV — mono-lingual accuracy |
//! | `table5_ablation` | Table V — ablation study |
//! | `table6_ranking` | Table VI — ranking evaluation (Hits@k, MRR) |
//! | `runtime` | §VII-C runtime comparison |
//!
//! Every binary accepts `--scale <f64>` (dataset size multiplier, default
//! 0.3), `--dim <usize>` (GCN/TransE dimension, default 64), `--epochs
//! <usize>` (encoder epochs, default 100), `--json <path>` (also dump
//! machine-readable results) and `--trace <path>` (stream telemetry
//! events as JSON lines).

use ceaff::baselines::*;
use ceaff::prelude::*;
use serde_json::json;

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
    /// Parse from `std::env::args` (flags: `--scale`, `--dim`, `--epochs`,
    /// `--json`).
    ///
    /// # Panics
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--scale" => opts.scale = value("--scale").parse().expect("--scale takes a float"),
                "--dim" => opts.dim = value("--dim").parse().expect("--dim takes an integer"),
                "--epochs" => {
                    opts.epochs = value("--epochs")
                        .parse()
                        .expect("--epochs takes an integer")
                }
                "--json" => opts.json = Some(value("--json")),
                "--trace" => opts.trace = Some(value("--trace")),
                other => {
                    panic!("unknown flag {other}; known: --scale --dim --epochs --json --trace")
                }
            }
        }
        opts
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

/// Nearest-rank percentile of an unsorted sample, sorted in place.
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of an unsorted sample, sorted in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
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
