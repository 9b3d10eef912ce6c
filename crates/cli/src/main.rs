//! `ceaff` — command-line entity alignment.
//!
//! ```text
//! ceaff generate <preset> --scale 0.3 --out DIR     write a synthetic benchmark
//! ceaff stats --dir DIR                             inspect a benchmark directory
//! ceaff align --dir DIR [--lexicon TSV] [...]       align and evaluate/emit pairs
//! ceaff serve --dir DIR [--addr HOST:PORT] [...]    serve alignment over HTTP
//! ceaff presets                                     list available presets
//! ```
//!
//! `align` reads the OpenEA-style directory layout (`triples_1`,
//! `triples_2`, `links`, optional `entities_*`), runs the full CEAFF
//! pipeline, writes the predicted pairs as TSV, and — because the gold
//! links are present — reports accuracy and, when `--threshold` is given,
//! precision/recall/F1 of the abstaining matching.

mod args;

use args::Args;
use ceaff::embed::PairEmbedders;
use ceaff::graph::io;
use ceaff::prelude::*;
use rand::SeedableRng;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
ceaff — collective entity alignment via adaptive features (ICDE 2020)

USAGE:
  ceaff presets
      List the built-in benchmark presets.

  ceaff generate <preset> [--scale F] [--out DIR] [--seed-fraction F]
      Generate a synthetic benchmark; write TSVs to DIR (and a lexicon
      file when the pair is cross-lingual).
        --evolve N        also write DIR/deltas.jsonl: a replayable
                          N-step edit stream over the generated pair
                          (one timestamped KgDelta per line), the input
                          of `align --deltas`
        --evolve-seed S   edit-stream RNG seed        [default 7]

  ceaff stats --dir DIR
      Print statistics of a benchmark directory.

  ceaff serve --dir DIR [options]
      Warm up the full CEAFF pipeline once, then serve alignment over
      HTTP (GET /health, GET /status, GET /topk?entity=N&k=K,
      POST /align) until SIGTERM/SIGINT triggers a graceful drain.
        --addr HOST:PORT  bind address [default 127.0.0.1:7077]; port 0
                          picks a free port (printed as `listening on`)
        --workers N       request worker threads      [default 2]
        --queue-capacity N
                          admission queue bound; excess connections are
                          shed with 503 + Retry-After [default 16]
        --default-deadline-ms N
                          per-request deadline when the client sends no
                          Deadline-Ms header          [default 10000]
        --mem-quota-mb N  global tensor memory quota, split across the
                          workers                     [default 512]
        --drain-grace-ms N
                          how long a drain waits before degrading the
                          remaining in-flight work    [default 500]
        --chaos-fraction F --chaos-seed N
                          fault-inject a deterministic fraction of
                          requests (testing/benchmark facility)
        --debug-endpoints honor test-only request knobs such as
                          /align?debug-sleep-ms=N (off by default: it
                          lets any client hold a worker)
        --incremental     accept POST /delta edit batches (KgDelta JSON
                          bodies): the warm state absorbs each edit by
                          dirty-region recompute and /topk, /align and
                          /status serve the evolved KG. Implies the
                          training-free propagation structural encoder
                          (--prop-layers, default 2)
        --wal-dir DIR     durable incremental serving (requires
                          --incremental): fsync every accepted delta to
                          a write-ahead log in DIR before acknowledging
                          it, and snapshot the warm state periodically.
                          A restart on the same DIR recovers from the
                          latest valid snapshot + WAL tail (bitwise the
                          uninterrupted state) instead of recomputing
                          features
        --snapshot-every N
                          snapshot/rotation cadence in applied deltas
                          with --wal-dir [default 8]; 0 keeps only the
                          initial snapshot
        --dim/--epochs/--seed-fraction/--rng-seed/--matcher/
        --candidates/--topk/--lossy/--trace as for `align`

  ceaff align --dir DIR [options]
      Align a benchmark directory with CEAFF and report metrics.
        --out FILE        write predicted pairs as TSV
        --lexicon FILE    foreign→pivot word dictionary (MUSE format) for
                          cross-lingual names
        --dim N           embedding dimension        [default 64]
        --epochs N        GCN epochs                 [default 100]
        --seed-fraction F seed split on load         [default 0.3]
        --matcher NAME    daa | hungarian | greedy1to1 | greedy [default daa]
        --threshold F     abstain below this fused similarity
        --csls K          CSLS hubness correction
        --candidates MODE dense | blocked [default dense]: score every
                          source-target pair, or block on name
                          tokens/trigrams and score only the candidates
                          (sub-quadratic memory; sparse top-k stores)
        --topk K          per-row candidate cap with --candidates blocked
                          [default 50]
        --trace FILE      stream telemetry events (stage timings, GCN
                          epoch losses, fusion weights, matcher counters,
                          watchdog progress heartbeats) as JSON lines to
                          FILE
        --deadline-ms N   execution deadline: when it passes, the run
                          degrades gracefully — GCN stops at its best
                          snapshot, the matcher completes unmatched rows
                          greedily — and the partial result is reported
                          with a degradation record instead of running on
        --max-mem-mb N    cap the live tensor footprint; crossing the cap
                          is a clean typed error, never an OOM abort
        --lossy           skip malformed TSV lines (wrong arity, invalid
                          UTF-8, unknown link entities) instead of
                          aborting; skipped-line counts are reported per
                          file and surfaced as telemetry counters
        --checkpoint-dir DIR
                          persist training/stage checkpoints to DIR so an
                          interrupted run can be resumed; resumed results
                          are bitwise-identical to an uninterrupted run,
                          with dense or blocked candidates
        --checkpoint-every N
                          save GCN training state every N epochs
                          [default 10; 0 = stage boundaries only]
        --resume          resume from --checkpoint-dir (configuration is
                          restored from the checkpoint; pass the same
                          --dim and data directory as the original run)
        --deltas FILE     incremental mode: warm the pipeline on the
                          directory, then replay the JSONL edit stream
                          (one timestamped KgDelta per line, as written
                          by `generate --evolve`) through dirty-region
                          recompute, reporting an alignment diff per
                          delta. Implies the training-free propagation
                          structural mode; final metrics and --out refer
                          to the evolved pair. Incompatible with
                          --checkpoint-dir/--resume.
        --prop-layers N   propagation layers in incremental mode; an
                          edit dirties at most this many hops [default 2]
        --no-structural / --no-semantic / --no-string
        --equal-weights   fixed equal weights instead of adaptive fusion

GLOBAL OPTIONS:
  --threads N
      Size of the worker pool used by the parallel kernels (matmuls,
      similarity matrices, preference sorts). Defaults to the CEAFF_THREADS
      environment variable, then to the number of CPUs. Results are
      bitwise-identical for any thread count; only wall-clock changes.

SIGNALS:
  The first SIGINT (Ctrl-C) during `align` cancels cooperatively: the run
  stops at the next granule, degrades gracefully and reports its partial
  result, and the process exits 0. SIGTERM takes the same cooperative
  path but exits 143 so supervisors can tell a terminated run from a
  completed one. During `serve`, SIGTERM and SIGINT both trigger a
  graceful drain: stop accepting, finish or degrade in-flight requests,
  flush telemetry, exit 0. A second signal terminates immediately.
";

/// Set by the SIGINT handler; `align` polls it through a
/// [`ceaff::CancelToken`] so Ctrl-C degrades the run
/// gracefully instead of killing it.
static CANCEL_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Set (alongside [`CANCEL_REQUESTED`]) by the SIGTERM handler, so the
/// run can degrade through the same cooperative path as Ctrl-C but exit
/// non-zero afterwards — a supervisor that terminated the process should
/// not see it report success.
static TERM_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Conventional exit status for "terminated by SIGTERM" (128 + 15).
const EXIT_SIGTERM: i32 = 143;

/// Route SIGINT onto [`CANCEL_REQUESTED`]. The handler may only touch
/// statics and async-signal-safe calls, which is exactly why
/// `CancelToken::from_static` exists: the handler flips the very flag the
/// budget polls, no relay thread in between. After the first signal the
/// default disposition is restored, so a second Ctrl-C terminates the
/// process the ordinary way.
#[cfg(unix)]
fn install_sigint_handler() {
    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigint(_sig: i32) {
        CANCEL_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
        unsafe {
            signal(2, SIG_DFL);
        }
    }
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Route SIGTERM onto the same cooperative-cancel flag as SIGINT, plus
/// [`TERM_REQUESTED`] so the caller can pick the exit status. As with
/// SIGINT, the default disposition is restored after the first signal:
/// a second SIGTERM kills the process outright.
#[cfg(unix)]
fn install_sigterm_handler() {
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigterm(_sig: i32) {
        TERM_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
        CANCEL_REQUESTED.store(true, std::sync::atomic::Ordering::Relaxed);
        unsafe {
            signal(15, SIG_DFL);
        }
    }
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    if let Some(threads) = args.get("threads") {
        let threads: usize = threads.parse().unwrap_or_else(|_| {
            eprintln!("error: --threads expects a positive integer");
            std::process::exit(2);
        });
        ceaff_parallel::set_default_threads(threads);
    }
    match args.command.as_deref() {
        Some("presets") => cmd_presets(),
        Some("generate") => cmd_generate(&args),
        Some("stats") => cmd_stats(&args),
        Some("align") => cmd_align(&args),
        Some("serve") => cmd_serve(&args),
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            std::process::exit(2);
        }
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn all_presets() -> Vec<Preset> {
    let mut v = Preset::ALL.to_vec();
    v.extend(Preset::EXTENSIONS);
    v
}

/// CLI slug of a preset: lowercase, spaces → dashes.
fn slug(p: Preset) -> String {
    p.label().to_lowercase().replace(' ', "-")
}

fn find_preset(name: &str) -> Option<Preset> {
    all_presets().into_iter().find(|p| slug(*p) == name)
}

fn cmd_presets() {
    println!("{:<22} description", "preset");
    for p in all_presets() {
        let cfg = p.config(1.0);
        println!(
            "{:<22} {} — {} aligned pairs at scale 1.0",
            slug(p),
            cfg.name,
            cfg.aligned_entities
        );
    }
}

fn cmd_generate(args: &Args) {
    let Some(name) = args.positional().first() else {
        eprintln!("error: generate needs a preset name (see `ceaff presets`)");
        std::process::exit(2);
    };
    let Some(preset) = find_preset(name) else {
        eprintln!("error: unknown preset '{name}' (see `ceaff presets`)");
        std::process::exit(2);
    };
    let scale = args.get_parsed("scale", 0.3f64);
    let ds = preset.generate(scale);
    let pair = &ds.pair;
    println!(
        "{}: {}+{} entities, {}+{} triples, {} gold pairs ({} seed / {} test)",
        ds.config.name,
        pair.source.num_entities(),
        pair.target.num_entities(),
        pair.source.num_triples(),
        pair.target.num_triples(),
        pair.alignment.len(),
        pair.seeds().len(),
        pair.test_pairs().len()
    );
    if let Some(dir) = args.get("out") {
        io::save_pair_to_dir(pair, dir).unwrap_or_else(|e| {
            eprintln!("error: cannot write {dir}: {e}");
            std::process::exit(1);
        });
        // Cross-lingual pairs also get their word dictionary, so `align`
        // can reconstruct the shared semantic space.
        if !ds.lexicon.is_empty() {
            let path = std::path::Path::new(dir).join("lexicon.tsv");
            let mut f = std::fs::File::create(&path).expect("create lexicon file");
            ds.lexicon.to_tsv_writer(&mut f).expect("write lexicon");
            println!("wrote {dir}/{{triples_*, entities_*, links, lexicon.tsv}}");
        } else {
            println!("wrote {dir}/{{triples_*, entities_*, links}}");
        }
        if let Some(steps) = args.get("evolve") {
            let steps: usize = steps.parse().unwrap_or_else(|_| {
                eprintln!("error: --evolve expects a positive integer");
                std::process::exit(2);
            });
            // Validate the stream against the pair as `align` will see it:
            // the TSV roundtrip drops interned-but-unused relations, and
            // the seed/test split is drawn at load time — so evolve over a
            // reload of what was just written (align's default split).
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.get_parsed("rng-seed", 7u64));
            let (reloaded, _) = io::load_pair_from_dir_with(
                dir,
                args.get_parsed("seed-fraction", 0.3),
                &mut rng,
                io::LoadMode::Strict,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: cannot reload {dir} for --evolve: {e}");
                std::process::exit(1);
            });
            let stream = ceaff::datagen::evolve(
                &reloaded,
                &ceaff::datagen::EvolveConfig {
                    steps,
                    seed: args.get_parsed("evolve-seed", 7u64),
                    ..ceaff::datagen::EvolveConfig::default()
                },
            );
            let path = std::path::Path::new(dir).join("deltas.jsonl");
            let mut f =
                std::io::BufWriter::new(std::fs::File::create(&path).expect("create deltas file"));
            for td in &stream {
                let line = serde_json::to_string(td).expect("delta serializes");
                writeln!(f, "{line}").expect("write delta");
            }
            println!("wrote {} edit(s) to {}", stream.len(), path.display());
        }
    } else if args.get("evolve").is_some() {
        eprintln!("error: --evolve needs --out DIR to write deltas.jsonl");
        std::process::exit(2);
    }
}

fn cmd_stats(args: &Args) {
    let dir = require_dir(args);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
    let (pair, _) = load_dir(args, &dir, &mut rng);
    println!(
        "{:<6} {:>9} {:>10} {:>7} {:>9} {:>6}",
        "KG", "#triples", "#entities", "#rels", "mean-deg", "tail%"
    );
    for (tag, kg) in [("KG1", &pair.source), ("KG2", &pair.target)] {
        let s = ceaff::graph::stats::KgStats::of(kg);
        println!(
            "{:<6} {:>9} {:>10} {:>7} {:>9.2} {:>5.0}%",
            tag,
            s.triples,
            s.entities,
            s.relations,
            s.mean_degree,
            s.tail_fraction * 100.0
        );
    }
    println!(
        "gold: {} pairs ({} seed / {} test at the chosen split)",
        pair.alignment.len(),
        pair.seeds().len(),
        pair.test_pairs().len()
    );
}

/// Map a CLI matcher label onto [`MatcherKind`], exiting on junk —
/// shared by `align` and `serve`.
fn parse_matcher(name: &str) -> MatcherKind {
    match name {
        "daa" => MatcherKind::StableMarriage,
        "hungarian" => MatcherKind::Hungarian,
        "greedy1to1" => MatcherKind::GreedyOneToOne,
        "greedy" => MatcherKind::Greedy,
        other => {
            eprintln!("error: unknown matcher '{other}'");
            std::process::exit(2);
        }
    }
}

fn require_dir(args: &Args) -> String {
    match args.get("dir") {
        Some(d) => d.to_owned(),
        None => {
            eprintln!("error: --dir is required");
            std::process::exit(2);
        }
    }
}

/// Load a benchmark directory honouring `--lossy`, reporting any skipped
/// lines on stderr.
fn load_dir(
    args: &Args,
    dir: &str,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> (ceaff::graph::KgPair, io::LoadReport) {
    let mode = if args.has_switch("lossy") {
        io::LoadMode::Lossy
    } else {
        io::LoadMode::Strict
    };
    let (pair, report) =
        io::load_pair_from_dir_with(dir, args.get_parsed("seed-fraction", 0.3), rng, mode)
            .unwrap_or_else(|e| {
                eprintln!("error: cannot load {dir}: {e}");
                std::process::exit(1);
            });
    for (file, n) in &report.skipped {
        eprintln!("warning: skipped {n} malformed line(s) in {dir}/{file}");
    }
    if matches!(mode, io::LoadMode::Lossy) {
        eprintln!(
            "lossy load: skipped {} malformed line(s) across {} file(s)",
            report.total_skipped(),
            report.skipped.len()
        );
    }
    (pair, report)
}

fn cmd_align(args: &Args) {
    let dir = require_dir(args);
    if args.has_switch("resume") && args.get("checkpoint-dir").is_none() {
        eprintln!("error: --resume requires --checkpoint-dir");
        std::process::exit(2);
    }
    if args.get("deltas").is_some()
        && (args.get("checkpoint-dir").is_some() || args.has_switch("resume"))
    {
        eprintln!(
            "error: --deltas replays an edit stream over warm in-memory state; \
             it cannot be combined with --checkpoint-dir/--resume"
        );
        std::process::exit(2);
    }
    let dim = args.get_parsed("dim", 64usize);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(args.get_parsed("rng-seed", 7u64));
    let (pair, load_report) = load_dir(args, &dir, &mut rng);

    // Embedders: a subword embedder for the source side; the target side
    // routes through a lexicon when one is provided (or found in the
    // directory), otherwise uses the same subword embedder (mono-lingual).
    let lexicon = args
        .get("lexicon")
        .map(PathBuf::from)
        .or_else(|| PairEmbedders::lexicon_in(Path::new(&dir)));
    let embedders = PairEmbedders::load(dim, lexicon.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    if let (Some(path), Some(lex)) = (&lexicon, embedders.lexicon()) {
        eprintln!("using lexicon {} ({} entries)", path.display(), lex.len());
    }

    let mut cfg = CeaffConfig::default();
    cfg.gcn.dim = dim;
    cfg.gcn.epochs = args.get_parsed("epochs", 100usize);
    cfg.embed_dim = dim;
    cfg.use_structural = !args.has_switch("no-structural");
    cfg.use_semantic = !args.has_switch("no-semantic");
    cfg.use_string = !args.has_switch("no-string");
    if args.has_switch("equal-weights") {
        cfg = cfg.without_adaptive_fusion();
    }
    if let Some(k) = args.get("csls") {
        cfg.csls = Some(k.parse().unwrap_or_else(|_| {
            eprintln!("error: --csls expects an integer");
            std::process::exit(2);
        }));
    }
    match args.get("candidates").unwrap_or("dense") {
        "dense" => {}
        "blocked" => {
            let k = args.get_parsed("topk", 50usize);
            cfg = cfg.with_blocking(k);
        }
        other => {
            eprintln!("error: unknown candidate strategy '{other}' (dense | blocked)");
            std::process::exit(2);
        }
    }
    cfg.matcher = parse_matcher(args.get("matcher").unwrap_or("daa"));
    if args.get("deltas").is_some() && cfg.use_structural {
        // The trained GCN has no dirty region smaller than the whole KG;
        // incremental mode needs the training-free propagation encoder.
        cfg = cfg.with_propagation(args.get_parsed("prop-layers", 2usize));
    }

    if args.has_switch("trace") {
        eprintln!("error: --trace expects a file path");
        std::process::exit(2);
    }
    let telemetry = match args.get("trace") {
        Some(path) => {
            let sink = ceaff::telemetry::JsonLinesSink::create(path).unwrap_or_else(|e| {
                eprintln!("error: cannot write trace {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("streaming telemetry to {path}");
            Telemetry::with_sink(std::sync::Arc::new(sink))
        }
        None => Telemetry::disabled(),
    };
    // Skipped-line counts from a lossy load ride along on the run trace.
    for (file, n) in &load_report.skipped {
        telemetry.counter_add("io", &format!("skipped_lines:{file}"), *n as u64);
    }
    let input =
        EaInput::new(&pair, embedders.source(), embedders.target()).with_telemetry(telemetry);

    // Every align run is cancellable (Ctrl-C and SIGTERM both degrade
    // gracefully); the deadline and memory cap are opt-in.
    install_sigint_handler();
    install_sigterm_handler();
    let mut budget = ceaff::ExecBudget::unlimited()
        .with_cancel(ceaff::CancelToken::from_static(&CANCEL_REQUESTED));
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms.parse().unwrap_or_else(|_| {
            eprintln!("error: --deadline-ms expects a positive integer");
            std::process::exit(2);
        });
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(mb) = args.get("max-mem-mb") {
        let mb: usize = mb.parse().unwrap_or_else(|_| {
            eprintln!("error: --max-mem-mb expects a positive integer");
            std::process::exit(2);
        });
        budget = budget.with_max_mem_bytes(mb.saturating_mul(1024 * 1024));
    }

    if let Some(deltas_path) = args.get("deltas") {
        let raw = std::fs::read_to_string(deltas_path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {deltas_path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "warming incremental state on {} test pair(s) ...",
            pair.test_pairs().len()
        );
        let mut state = ceaff::DeltaState::new(&input, &cfg).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "warm: accuracy {:.4}, fingerprint {:#010x}",
            state.output().accuracy,
            state.fingerprint()
        );
        for (lineno, line) in raw.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let td: ceaff::datagen::TimestampedDelta =
                serde_json::from_str(line).unwrap_or_else(|e| {
                    eprintln!("error: {deltas_path}:{}: bad delta: {e}", lineno + 1);
                    std::process::exit(1);
                });
            let diff = state
                .apply_budgeted(&td.delta, embedders.source(), embedders.target(), &budget)
                .unwrap_or_else(|e| {
                    eprintln!("error: delta {} failed: {e}", td.step);
                    std::process::exit(1);
                });
            println!(
                "delta {} @{}: accuracy {:.4}, matched {}, +{} -{} ~{}, recompute {:.1}%, fp {:#010x}",
                diff.step,
                td.at_unix_ms,
                diff.accuracy,
                diff.matched,
                diff.added.len(),
                diff.removed.len(),
                diff.changed.len(),
                diff.recompute_fraction * 100.0,
                diff.fingerprint
            );
            for (s, t) in &diff.added {
                println!("  + {s} -> {t}");
            }
            for (s, t) in &diff.removed {
                println!("  - {s} -> {t}");
            }
            for (s, old, new) in &diff.changed {
                println!("  ~ {s}: {old} -> {new}");
            }
        }
        let out = state.output();
        let evolved = state.pair();
        println!(
            "final accuracy: {:.4} (step {})",
            out.accuracy,
            state.step()
        );
        if let Some(path) = args.get("out") {
            let sources = evolved.test_sources();
            let targets = evolved.test_targets();
            let mut f = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }));
            for &(i, j) in out.matching.pairs() {
                writeln!(
                    f,
                    "{}\t{}\t{:.4}",
                    evolved.source.entity_name(sources[i]).expect("interned"),
                    evolved.target.entity_name(targets[j]).expect("interned"),
                    out.fused.get(i, j)
                )
                .expect("write pair");
            }
            println!("wrote {} pairs to {path}", out.matching.len());
        }
        if TERM_REQUESTED.load(std::sync::atomic::Ordering::Relaxed) {
            eprintln!("terminated by SIGTERM after reporting partial results");
            std::process::exit(EXIT_SIGTERM);
        }
        return;
    }

    eprintln!(
        "aligning {} test sources against {} test targets ...",
        pair.test_pairs().len(),
        pair.test_pairs().len()
    );
    let run = |cfg: &ceaff::CeaffConfig, checkpoint: Option<&ceaff::Checkpointer>| {
        let opts = ceaff::RunOptions {
            budget: &budget,
            checkpoint,
        };
        ceaff::run(&input, cfg, &opts)
    };
    let result = match (args.get("checkpoint-dir"), args.has_switch("resume")) {
        (Some(ckdir), true) => {
            eprintln!("resuming from {ckdir}");
            ceaff::Checkpointer::open(ckdir).and_then(|(ck, cfg)| run(&cfg, Some(&ck)))
        }
        (Some(ckdir), false) => {
            let every = args.get_parsed("checkpoint-every", 10usize);
            let policy = if every == 0 {
                ceaff::CheckpointPolicy::PerStage
            } else {
                ceaff::CheckpointPolicy::EveryNEpochs(every)
            };
            eprintln!("checkpointing to {ckdir}");
            cfg.validate()
                .and_then(|()| ceaff::Checkpointer::create(ckdir, policy, &cfg))
                .and_then(|ck| run(&cfg, Some(&ck)))
        }
        // `--resume` without `--checkpoint-dir` was rejected up front.
        (None, _) => run(&cfg, None),
    };
    let out = result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    eprintln!("done in {:.1}s", out.trace.total_seconds());
    for timing in &out.trace.stages {
        eprintln!("  {:<10} {:>8.2}s", timing.stage, timing.seconds);
    }
    for d in &out.trace.degradations {
        eprintln!(
            "degraded: {} stopped by {} after {} round(s); {:.1}% of its work was completed best-effort",
            d.stage,
            d.reason,
            d.rounds_completed,
            d.fraction_degraded * 100.0
        );
    }

    println!("accuracy: {:.4}", out.accuracy);
    println!(
        "ranking (w/o collective): Hits@1 {:.4}, Hits@10 {:.4}, MRR {:.4}",
        out.ranking.hits1, out.ranking.hits10, out.ranking.mrr
    );
    let final_matching = if let Some(threshold) = args.get("threshold") {
        let threshold: f32 = threshold.parse().unwrap_or_else(|_| {
            eprintln!("error: --threshold expects a float");
            std::process::exit(2);
        });
        let kept = out.matching.filter_by_threshold(&out.fused, threshold);
        let pr = ceaff::precision_recall(&kept, out.fused.sources());
        println!(
            "at threshold {threshold}: matched {} of {}, precision {:.4}, recall {:.4}, F1 {:.4}",
            kept.len(),
            out.fused.sources(),
            pr.precision,
            pr.recall,
            pr.f1
        );
        kept
    } else {
        out.matching.clone()
    };

    if let Some(path) = args.get("out") {
        let sources = pair.test_sources();
        let targets = pair.test_targets();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }));
        for &(i, j) in final_matching.pairs() {
            writeln!(
                f,
                "{}\t{}\t{:.4}",
                pair.source.entity_name(sources[i]).expect("interned"),
                pair.target.entity_name(targets[j]).expect("interned"),
                out.fused.get(i, j)
            )
            .expect("write pair");
        }
        println!("wrote {} pairs to {path}", final_matching.len());
    }

    // A SIGTERM-ed run reported its clean partial result above, but the
    // process must still tell its supervisor it was terminated.
    if TERM_REQUESTED.load(std::sync::atomic::Ordering::Relaxed) {
        eprintln!("terminated by SIGTERM after reporting partial results");
        std::process::exit(EXIT_SIGTERM);
    }
}

fn cmd_serve(args: &Args) {
    let dir = require_dir(args);
    let opts = ceaff_server::LoadOptions {
        dim: args.get_parsed("dim", 64usize),
        epochs: args.get_parsed("epochs", 100usize),
        seed_fraction: args.get_parsed("seed-fraction", 0.3f64),
        rng_seed: args.get_parsed("rng-seed", 7u64),
        matcher: parse_matcher(args.get("matcher").unwrap_or("daa")),
        blocked_topk: match args.get("candidates").unwrap_or("dense") {
            "dense" => None,
            "blocked" => Some(args.get_parsed("topk", 50usize)),
            other => {
                eprintln!("error: unknown candidate strategy '{other}' (dense | blocked)");
                std::process::exit(2);
            }
        },
        lossy: args.has_switch("lossy"),
        incremental: args
            .has_switch("incremental")
            .then(|| args.get_parsed("prop-layers", 2usize)),
        wal: args.get("wal-dir").map(|d| ceaff_server::WalOptions {
            dir: std::path::PathBuf::from(d),
            snapshot_every: args.get_parsed("snapshot-every", 8usize),
        }),
    };
    if opts.wal.is_some() && opts.incremental.is_none() {
        eprintln!("error: --wal-dir requires --incremental");
        std::process::exit(2);
    }
    let telemetry = match args.get("trace") {
        Some(path) => {
            let sink = ceaff::telemetry::JsonLinesSink::create(path).unwrap_or_else(|e| {
                eprintln!("error: cannot write trace {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("streaming telemetry to {path}");
            Telemetry::with_sink(std::sync::Arc::new(sink))
        }
        None => Telemetry::disabled(),
    };

    eprintln!("warming up from {dir} ...");
    let started = std::time::Instant::now();
    let state = ceaff_server::WarmState::load_dir(std::path::Path::new(&dir), &opts, &telemetry)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    let core = state.snapshot();
    eprintln!(
        "warm in {:.1}s: {}x{} fused similarity resident{}",
        started.elapsed().as_secs_f64(),
        core.fused.sources(),
        core.fused.targets(),
        if state.is_incremental() {
            " (incremental: POST /delta accepted)"
        } else {
            ""
        }
    );
    if let Some(rec) = state.recovery_report() {
        if rec.cold {
            eprintln!(
                "durable start: cold build (no usable snapshot), {} delta(s) replayed from the wal",
                rec.replayed
            );
        } else {
            eprintln!(
                "warm restart from snapshot step {} + {} replayed delta(s){}{}",
                rec.snapshot_step.unwrap_or(0),
                rec.replayed,
                if rec.torn_tail_dropped {
                    " (torn tail dropped)"
                } else {
                    ""
                },
                if rec.snapshots_skipped > 0 {
                    " (fell back past a corrupt snapshot)"
                } else {
                    ""
                },
            );
        }
    }
    drop(core);

    let chaos_fraction = args.get_parsed("chaos-fraction", 0.0f64);
    let cfg = ceaff_server::ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7077").to_owned(),
        workers: args.get_parsed("workers", 2usize),
        queue_capacity: args.get_parsed("queue-capacity", 16usize),
        default_deadline_ms: args.get_parsed("default-deadline-ms", 10_000u64),
        mem_quota_mb: args.get_parsed("mem-quota-mb", 512usize),
        drain_grace_ms: args.get_parsed("drain-grace-ms", 500u64),
        debug_endpoints: args.has_switch("debug-endpoints"),
        chaos: (chaos_fraction > 0.0).then(|| {
            eprintln!(
                "chaos: injecting faults into {:.0}% of requests (seed {})",
                chaos_fraction * 100.0,
                args.get_parsed("chaos-seed", 0u64)
            );
            ceaff_server::ChaosConfig {
                fraction: chaos_fraction,
                seed: args.get_parsed("chaos-seed", 0u64),
            }
        }),
        ..ceaff_server::ServerConfig::default()
    };
    let server = ceaff_server::Server::start(std::sync::Arc::new(state), cfg, telemetry)
        .unwrap_or_else(|e| {
            eprintln!("error: cannot bind: {e}");
            std::process::exit(1);
        });

    // Stdout so a supervisor (or the e2e tests) can parse the resolved
    // port when binding to port 0.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().expect("flush stdout");

    install_sigint_handler();
    install_sigterm_handler();
    while !TERM_REQUESTED.load(std::sync::atomic::Ordering::Relaxed)
        && !CANCEL_REQUESTED.load(std::sync::atomic::Ordering::Relaxed)
    {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    eprintln!("signal received: draining (grace for in-flight requests) ...");
    server.drain();
    let counters = server.join();
    for (name, total) in &counters {
        if *total > 0 {
            eprintln!("  server/{name}: {total}");
        }
    }
    eprintln!("drained cleanly");
}
