//! End-to-end tests driving the real `ceaff` binary.

use std::process::Command;

fn ceaff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ceaff"))
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ceaff-cli-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn presets_lists_all_ten() {
    let out = ceaff().arg("presets").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for slug in [
        "dbp15k-zh-en",
        "dbp100k-dbp-wd",
        "srprs-en-fr",
        "hard-mono-dbp-wd",
    ] {
        assert!(text.contains(slug), "missing preset {slug} in:\n{text}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = ceaff().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE"));
}

#[test]
fn generate_stats_align_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let dir_s = dir.display().to_string();

    // generate
    let out = ceaff()
        .args([
            "generate",
            "srprs-dbp-wd",
            "--scale",
            "0.1",
            "--out",
            &dir_s,
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("triples_1").exists());
    assert!(dir.join("links").exists());

    // stats
    let out = ceaff()
        .args(["stats", "--dir", &dir_s])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("gold: 100 pairs"), "{text}");

    // align with output file and threshold
    let pred = dir.join("pred.tsv");
    let out = ceaff()
        .args([
            "align",
            "--dir",
            &dir_s,
            "--dim",
            "16",
            "--epochs",
            "15",
            "--threshold",
            "0.5",
            "--out",
            pred.to_str().unwrap(),
        ])
        .output()
        .expect("run align");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("accuracy:"), "{text}");
    assert!(text.contains("precision"), "{text}");
    // Mono-lingual tiny dataset: should align very well.
    let acc: f64 = text
        .lines()
        .find(|l| l.starts_with("accuracy:"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("parse accuracy");
    assert!(acc > 0.8, "CLI accuracy {acc} too low:\n{text}");
    // Predicted pairs file has tab-separated rows with scores.
    let pred_text = std::fs::read_to_string(&pred).unwrap();
    let first = pred_text.lines().next().expect("at least one pair");
    assert_eq!(first.split('\t').count(), 3, "line: {first}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn align_uses_generated_lexicon_for_cross_lingual_pairs() {
    let dir = tmp_dir("lexicon");
    let dir_s = dir.display().to_string();
    let out = ceaff()
        .args([
            "generate",
            "dbp15k-zh-en",
            "--scale",
            "0.1",
            "--out",
            &dir_s,
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    assert!(
        dir.join("lexicon.tsv").exists(),
        "cross-lingual generate must emit a lexicon"
    );

    let out = ceaff()
        .args(["align", "--dir", &dir_s, "--dim", "16", "--epochs", "15"])
        .output()
        .expect("run align");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("using lexicon"),
        "align should auto-discover the lexicon: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Metric lines of an align run's stdout (accuracy + ranking), which must
/// be byte-identical between an uninterrupted and a killed-and-resumed run.
fn metric_lines(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with("accuracy:") || l.starts_with("ranking"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn kill_and_resume_is_bitwise_identical() {
    kill_and_resume_matches("kill-resume", &[]);
}

#[test]
fn kill_and_resume_blocked_is_bitwise_identical() {
    // Truncated top-k stores checkpoint and resume like dense matrices;
    // the resumed run takes the strategy from the run directory.
    kill_and_resume_matches(
        "kill-resume-blocked",
        &["--candidates", "blocked", "--topk", "8"],
    );
}

/// Abort an `align` run mid-training, resume it at another thread count,
/// and compare with an uninterrupted run; `strategy` flags go to the two
/// runs that are not resumed.
fn kill_and_resume_matches(tag: &str, strategy: &[&str]) {
    let dir = tmp_dir(tag);
    let dir_s = dir.display().to_string();
    let out = ceaff()
        .args([
            "generate",
            "srprs-dbp-wd",
            "--scale",
            "0.1",
            "--out",
            &dir_s,
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    let align = |extra: &[&str], threads: &str, envs: &[(&str, &str)]| {
        let mut cmd = ceaff();
        cmd.args(["align", "--dir", &dir_s, "--dim", "16", "--epochs", "25"])
            .args(extra)
            .env("CEAFF_THREADS", threads);
        for (k, v) in envs {
            cmd.env(k, v);
        }
        cmd.output().expect("run align")
    };

    // Reference: uninterrupted run at 1 thread writing predicted pairs.
    let ref_pred = dir.join("pred-ref.tsv");
    let reference = align(
        &[&["--out", ref_pred.to_str().unwrap()], strategy].concat(),
        "1",
        &[],
    );
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Kill the process for real (std::process::abort) mid-GCN-training,
    // with checkpoints every 5 epochs.
    let ck = dir.join("ckpt");
    let ck_s = ck.display().to_string();
    let crashed = align(
        &[
            &["--checkpoint-dir", &ck_s, "--checkpoint-every", "5"],
            strategy,
        ]
        .concat(),
        "1",
        &[("CEAFF_FI_ABORT_AT_EPOCH", "12")],
    );
    assert!(
        !crashed.status.success(),
        "the injected abort must kill the run"
    );
    assert!(
        ck.join("gcn_train.ckpt").exists(),
        "a training checkpoint must survive the crash"
    );

    // Resume at 4 threads: metrics and the pairs file must match the
    // uninterrupted single-thread reference byte for byte.
    let res_pred = dir.join("pred-res.tsv");
    let resumed = align(
        &[
            "--checkpoint-dir",
            &ck_s,
            "--resume",
            "--out",
            res_pred.to_str().unwrap(),
        ],
        "4",
        &[],
    );
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        metric_lines(&reference.stdout),
        metric_lines(&resumed.stdout),
        "resumed metrics diverge from the uninterrupted run"
    );
    let (ref_bytes, res_bytes) = (
        std::fs::read(&ref_pred).unwrap(),
        std::fs::read(&res_pred).unwrap(),
    );
    assert!(!ref_bytes.is_empty());
    assert_eq!(ref_bytes, res_bytes, "predicted-pairs files differ");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lossy_flag_skips_malformed_lines_strict_rejects_them() {
    use std::io::Write as _;
    let dir = tmp_dir("lossy");
    let dir_s = dir.display().to_string();
    let out = ceaff()
        .args([
            "generate",
            "srprs-dbp-wd",
            "--scale",
            "0.1",
            "--out",
            &dir_s,
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success());

    // Mangle the dataset: a wrong-arity line and an invalid-UTF-8 line.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("triples_1"))
        .unwrap();
    f.write_all(b"mangled line without tabs\n").unwrap();
    f.write_all(b"bad\xff\xfeutf8\tr\tx\n").unwrap();
    drop(f);

    let strict = ceaff()
        .args(["stats", "--dir", &dir_s])
        .output()
        .expect("run stats");
    assert!(!strict.status.success(), "strict load must reject the file");

    let lossy = ceaff()
        .args(["stats", "--dir", &dir_s, "--lossy"])
        .output()
        .expect("run stats --lossy");
    assert!(
        lossy.status.success(),
        "{}",
        String::from_utf8_lossy(&lossy.stderr)
    );
    let err = String::from_utf8_lossy(&lossy.stderr);
    assert!(
        err.contains("skipped 2 malformed line(s)") && err.contains("triples_1"),
        "skip counts must be reported: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Generate the srprs-dbp-wd benchmark at `scale` into a fresh temp dir
/// and return it (budget tests share this setup).
fn generated_dir(tag: &str, scale: &str) -> std::path::PathBuf {
    let dir = tmp_dir(tag);
    let out = ceaff()
        .args([
            "generate",
            "srprs-dbp-wd",
            "--scale",
            scale,
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    dir
}

#[test]
fn sigint_mid_training_exits_cleanly_with_partial_result() {
    let dir = generated_dir("sigint", "0.1");
    // Fault injection raises a real SIGINT against the process at GCN
    // epoch 5; the CLI's handler must turn it into cooperative
    // cancellation: training stops, the matcher completes greedily, and
    // the process exits *successfully* with a partial result.
    let out = ceaff()
        .args([
            "align",
            "--dir",
            dir.to_str().unwrap(),
            "--dim",
            "16",
            "--epochs",
            "25",
        ])
        .env("CEAFF_FI_SIGINT_AT_EPOCH", "5")
        .output()
        .expect("run align");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "SIGINT must degrade, not kill: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("accuracy:"), "partial result missing: {text}");
    assert!(
        err.contains("degraded:") && err.contains("cancelled"),
        "degradation must be reported: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_shorter_than_the_run_degrades_but_stays_valid() {
    let dir = generated_dir("deadline", "0.1");
    // A 1 ms deadline expires before training can finish; the run must
    // still produce a valid matching plus a degradation record rather
    // than erroring or overrunning.
    let out = ceaff()
        .args([
            "align",
            "--dir",
            dir.to_str().unwrap(),
            "--dim",
            "16",
            "--epochs",
            "25",
            "--deadline-ms",
            "1",
        ])
        .output()
        .expect("run align");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "deadline must degrade: {err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("accuracy:"), "{text}");
    assert!(
        err.contains("degraded:") && err.contains("deadline"),
        "deadline degradation must be reported: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tiny_memory_budget_is_a_clean_typed_error() {
    // At scale 0.3 / dim 64 the GCN's live tensors peak around 1.7 MiB,
    // so a 1 MiB cap must fail the run with the typed budget error on
    // stderr — not an allocator abort.
    let dir = generated_dir("memcap", "0.3");
    let out = ceaff()
        .args([
            "align",
            "--dir",
            dir.to_str().unwrap(),
            "--dim",
            "64",
            "--epochs",
            "25",
            "--max-mem-mb",
            "1",
        ])
        .output()
        .expect("run align");
    assert!(!out.status.success(), "the cap must fail the run");
    assert_eq!(out.status.code(), Some(1), "clean exit, not a signal");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("memory budget exceeded"),
        "typed error must reach stderr: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_without_checkpoint_dir_is_a_usage_error() {
    let out = ceaff()
        .args(["align", "--dir", "/nonexistent", "--resume"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume requires --checkpoint-dir"), "{err}");
}

#[test]
fn matcher_flag_is_validated() {
    let out = ceaff()
        .args(["align", "--dir", "/nonexistent", "--matcher", "bogus"])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn evolve_and_delta_replay_roundtrip() {
    let dir = tmp_dir("evolve");
    let dir_s = dir.display().to_string();

    // generate with an edit stream riding along
    let out = ceaff()
        .args([
            "generate",
            "srprs-dbp-wd",
            "--scale",
            "0.1",
            "--out",
            &dir_s,
            "--evolve",
            "6",
        ])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let deltas = dir.join("deltas.jsonl");
    assert!(deltas.exists(), "deltas.jsonl must be written");
    let stream = std::fs::read_to_string(&deltas).unwrap();
    assert_eq!(stream.lines().count(), 6, "one JSON delta per line");

    // incremental replay: one diff line per delta plus a final accuracy
    let pred = dir.join("pred.tsv");
    let out = ceaff()
        .args([
            "align",
            "--dir",
            &dir_s,
            "--deltas",
            deltas.to_str().unwrap(),
            "--dim",
            "16",
            "--out",
            pred.to_str().unwrap(),
        ])
        .output()
        .expect("run align --deltas");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    for step in 1..=6 {
        assert!(
            text.contains(&format!("delta {step} @")),
            "missing per-delta summary for step {step}: {text}"
        );
    }
    assert!(text.contains("final accuracy:"), "{text}");
    assert!(err.contains("warm: accuracy"), "{err}");
    let tsv = std::fs::read_to_string(&pred).unwrap();
    assert!(!tsv.is_empty(), "predictions must be written");
    for line in tsv.lines() {
        assert_eq!(line.split('\t').count(), 3, "bad TSV line: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deltas_with_checkpointing_is_a_usage_error() {
    let out = ceaff()
        .args([
            "align",
            "--dir",
            "/nonexistent",
            "--deltas",
            "/nonexistent/deltas.jsonl",
            "--checkpoint-dir",
            "/tmp/ck",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--deltas") && err.contains("--checkpoint-dir"),
        "{err}"
    );
}
