//! Library-level durability tests: warm restart from snapshot + WAL
//! tail, torn-tail truncation, corrupt-snapshot fallback, sealed-gen
//! corruption, and the `/status` durability fields — all asserting
//! *bitwise* parity with an uninterrupted in-memory run.

use ceaff_core::{EventKind, ExecBudget, InMemorySink, Telemetry};
use ceaff_graph::{DeltaOp, KgDelta, Side};
use ceaff_server::{
    Client, ClientConfig, LoadOptions, Server, ServerConfig, WalOptions, WarmState,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh scratch directory under the system temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ceaff-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Generate a small benchmark pair on disk and return its directory.
fn dataset_dir(root: &Path) -> PathBuf {
    let ds = ceaff_datagen::generate(&ceaff_datagen::GenConfig {
        aligned_entities: 40,
        channel: ceaff_datagen::NameChannel::Identical { typo_rate: 0.05 },
        ..ceaff_datagen::GenConfig::default()
    });
    let dir = root.join("data");
    std::fs::create_dir_all(&dir).expect("create data dir");
    ceaff_graph::io::save_pair_to_dir(&ds.pair, dir.to_str().unwrap()).expect("save pair");
    dir
}

fn opts(wal: Option<WalOptions>) -> LoadOptions {
    LoadOptions {
        dim: 16,
        epochs: 5,
        incremental: Some(2),
        wal,
        ..LoadOptions::default()
    }
}

fn load(data: &Path, wal: Option<WalOptions>) -> WarmState {
    WarmState::load_dir(data, &opts(wal), &Telemetry::disabled()).expect("warm-up")
}

/// The `i`-th test delta: a fresh aligned entity pair wired into both
/// graphs, deterministic in `i`.
fn delta(i: usize) -> KgDelta {
    let name = format!("durable probe {i}");
    KgDelta::new(vec![
        DeltaOp::AddEntity {
            side: Side::Source,
            name: name.clone(),
            at: None,
        },
        DeltaOp::AddEntity {
            side: Side::Target,
            name: name.clone(),
            at: None,
        },
        DeltaOp::AddLink {
            source: name.clone(),
            target: name,
            split: None,
            alignment_at: None,
            split_at: None,
        },
    ])
}

fn apply(state: &WarmState, i: usize) {
    state
        .apply_delta(&delta(i), &ExecBudget::unlimited())
        .expect("delta applies");
}

/// Everything `/align` and `/topk` serve, bit-exact: the fused scores,
/// the name tables, and the incremental (step, fingerprint) stamp.
type ServedBits = (Vec<u32>, Vec<String>, Vec<String>, Option<(usize, u32)>);

fn served_bits(state: &WarmState) -> ServedBits {
    let core = state.snapshot();
    let (rows, cols) = (core.fused.sources(), core.fused.targets());
    let mut bits = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            bits.push(core.fused.get(i, j).to_bits());
        }
    }
    (
        bits,
        core.source_names.clone(),
        core.target_names.clone(),
        core.incremental,
    )
}

fn flip_byte(path: &Path, offset_from_end: usize) {
    let mut bytes = std::fs::read(path).expect("read file");
    let n = bytes.len();
    assert!(n > offset_from_end, "file too short to corrupt");
    bytes[n - 1 - offset_from_end] ^= 0x40;
    std::fs::write(path, bytes).expect("write corrupted file");
}

fn truncate_by(path: &Path, drop: u64) {
    let len = std::fs::metadata(path).expect("stat").len();
    assert!(len > drop, "file too short to truncate");
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate");
    f.set_len(len - drop).expect("truncate");
}

#[test]
fn warm_restart_is_bitwise_identical_to_an_uninterrupted_run() {
    let root = scratch("warm-restart");
    let data = dataset_dir(&root);
    let wal_dir = root.join("wal");
    let walopts = WalOptions {
        dir: wal_dir.clone(),
        snapshot_every: 2,
    };

    // First durable start: cold build, initial snapshot installed.
    let durable = load(&data, Some(walopts.clone()));
    let report = durable.recovery_report().expect("durable report").clone();
    assert!(report.cold, "first start has no snapshot to warm from");
    assert_eq!(report.replayed, 0);
    let status = durable.durability().expect("durable status");
    assert_eq!(status.generation, 0);
    assert_eq!(status.durable_step, 0);
    assert_eq!(status.last_snapshot_step, 0);

    // An uninterrupted, purely in-memory control over the same dataset.
    let control = load(&data, None);
    assert!(control.durability().is_none());
    assert!(control.recovery_report().is_none());

    // Three deltas: snapshot lands at step 2, frame 3 stays in the tail.
    for i in 1..=3 {
        apply(&durable, i);
        apply(&control, i);
    }
    let status = durable.durability().expect("durable status");
    assert_eq!(status.durable_step, 3);
    assert_eq!(status.last_snapshot_step, 2);
    assert_eq!(status.generation, 2);
    let before = served_bits(&durable);
    assert_eq!(
        before,
        served_bits(&control),
        "durable run must not perturb results"
    );

    // Restart: drop the instance, reload the same WAL directory.
    drop(durable);
    let restarted = load(&data, Some(walopts));
    let report = restarted.recovery_report().expect("durable report").clone();
    assert!(!report.cold, "second start must warm from the snapshot");
    assert_eq!(report.snapshot_step, Some(2));
    assert_eq!(report.replayed, 1, "only the tail frame is replayed");
    assert!(!report.torn_tail_dropped);
    assert_eq!(report.snapshots_skipped, 0);
    assert_eq!(served_bits(&restarted), before, "recovery must be bitwise");

    // And it keeps evolving in lockstep with the uninterrupted control.
    apply(&restarted, 4);
    apply(&control, 4);
    assert_eq!(
        served_bits(&restarted),
        served_bits(&control),
        "post-recovery evolution must stay bitwise identical"
    );
    let status = restarted.durability().expect("durable status");
    assert_eq!(status.durable_step, 4);
    assert_eq!(
        status.last_snapshot_step, 4,
        "step 4 triggers the next snapshot"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn torn_tail_is_dropped_and_sealed_generation_corruption_is_fatal() {
    let root = scratch("torn-tail");
    let data = dataset_dir(&root);
    let wal_dir = root.join("wal");
    let walopts = WalOptions {
        dir: wal_dir.clone(),
        snapshot_every: 2,
    };

    let durable = load(&data, Some(walopts.clone()));
    for i in 1..=3 {
        apply(&durable, i);
    }
    let step2_fingerprint = {
        // What the state looked like at the snapshot boundary: replay
        // deltas 1..=2 on an in-memory control.
        let control = load(&data, None);
        apply(&control, 1);
        apply(&control, 2);
        served_bits(&control)
    };
    drop(durable);

    // Tear the active generation's tail: frame 3 loses its last bytes.
    let active = wal_dir.join("wal-2.log");
    assert!(active.exists(), "active generation file expected");
    truncate_by(&active, 3);

    let recovered = load(&data, Some(walopts.clone()));
    let report = recovered.recovery_report().expect("durable report").clone();
    assert!(report.torn_tail_dropped, "the torn frame must be detected");
    assert_eq!(report.snapshot_step, Some(2));
    assert_eq!(
        report.replayed, 0,
        "the torn frame is dropped, not replayed"
    );
    assert_eq!(
        served_bits(&recovered),
        step2_fingerprint,
        "recovery lands exactly on the snapshot state"
    );
    // The healed log accepts new appends: the state moves on from step 2.
    apply(&recovered, 3);
    assert_eq!(recovered.durability().expect("status").durable_step, 3);
    drop(recovered);

    // Corruption in a *sealed* generation is not a torn tail — it is
    // data loss, and recovery must refuse with a typed error rather
    // than silently serving a wrong state.
    let sealed = wal_dir.join("wal-0.log");
    assert!(sealed.exists(), "sealed generation file expected");
    flip_byte(&sealed, 6);
    let err = WarmState::load_dir(&data, &opts(Some(walopts)), &Telemetry::disabled())
        .map(|_| ())
        .expect_err("sealed-generation corruption must fail recovery");
    let msg = err.to_string();
    assert!(
        msg.contains("wal-0.log"),
        "error should name the damaged file: {msg}"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupt_snapshot_falls_back_to_the_previous_generation() {
    let root = scratch("snap-fallback");
    let data = dataset_dir(&root);
    let wal_dir = root.join("wal");
    let walopts = WalOptions {
        dir: wal_dir.clone(),
        snapshot_every: 2,
    };

    // Five deltas: snapshots at 0, 2, 4; retention keeps {4, 2} and the
    // generations from 2 on (frames 3..=5).
    let durable = load(&data, Some(walopts.clone()));
    for i in 1..=5 {
        apply(&durable, i);
    }
    let before = served_bits(&durable);
    drop(durable);
    assert!(wal_dir.join("snap-4.bin").exists());
    assert!(wal_dir.join("snap-2.bin").exists());
    assert!(
        !wal_dir.join("wal-0.log").exists(),
        "retention should have reclaimed the pre-snap-2 generation"
    );

    // Damage the newest snapshot's payload.
    flip_byte(&wal_dir.join("snap-4.bin"), 10);

    let recovered = load(&data, Some(walopts));
    let report = recovered.recovery_report().expect("durable report").clone();
    assert!(!report.cold);
    assert_eq!(
        report.snapshots_skipped, 1,
        "snap-4 must be rejected by crc"
    );
    assert_eq!(
        report.snapshot_step,
        Some(2),
        "fallback to the previous generation"
    );
    assert_eq!(report.replayed, 3, "frames 3..=5 replayed on top of snap-2");
    assert_eq!(
        served_bits(&recovered),
        before,
        "fallback + replay must reproduce the exact pre-restart state"
    );

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_cold_recovery_replays_the_log_and_decides_once() {
    let root = scratch("cold-decides-once");
    let data = dataset_dir(&root);
    let wal_dir = root.join("wal");
    let walopts = WalOptions {
        dir: wal_dir.clone(),
        snapshot_every: 10,
    };
    // One snapshot at step 0 and a three-frame log; then every snapshot
    // is removed, so the restart must rebuild features and replay the log.
    let durable = load(&data, Some(walopts.clone()));
    for i in 1..=3 {
        apply(&durable, i);
    }
    let before = served_bits(&durable);
    drop(durable);
    for entry in std::fs::read_dir(&wal_dir).expect("list wal dir") {
        let path = entry.expect("dir entry").path();
        if path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("snap-")
        {
            std::fs::remove_file(path).expect("remove snapshot");
        }
    }

    let sink = Arc::new(InMemorySink::default());
    let telemetry = Telemetry::with_sink(sink.clone());
    let recovered =
        WarmState::load_dir(&data, &opts(Some(walopts)), &telemetry).expect("cold recovery");
    let report = recovered.recovery_report().expect("durable report").clone();
    assert!(report.cold, "no snapshot is left to warm from");
    assert_eq!(report.replayed, 3, "the whole log is replayed");
    let fusions = sink
        .take()
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.stage == "fusion")
        .count();
    assert_eq!(fusions, 1, "a cold recovery decides once, after the replay");
    assert_eq!(
        served_bits(&recovered),
        before,
        "cold recovery must reproduce the exact pre-restart state"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// Overwrite the fingerprint of frame `step` (1-based within the log
/// file) and re-seal its CRC, so the frame is well-formed but claims a
/// fingerprint its delta does not chain to.
fn forge_fingerprint(log: &Path, step: usize) {
    let mut bytes = std::fs::read(log).expect("read log");
    let mut pos = 0;
    for _ in 1..step {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += len + 12;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    let fp_at = pos + 8 + len;
    bytes[fp_at] ^= 0x01;
    let crc = ceaff_core::checkpoint::crc32(&bytes[pos + 8..fp_at + 4]);
    bytes[pos + 4..pos + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(log, bytes).expect("write forged log");
}

#[test]
fn a_chain_broken_mid_tail_fails_the_load_and_names_the_step() {
    let root = scratch("chain-break");
    let data = dataset_dir(&root);
    let wal_dir = root.join("wal");
    let walopts = WalOptions {
        dir: wal_dir.clone(),
        snapshot_every: 10,
    };
    // One snapshot at step 0 and a three-frame tail.
    let durable = load(&data, Some(walopts.clone()));
    for i in 1..=3 {
        apply(&durable, i);
    }
    drop(durable);
    forge_fingerprint(&wal_dir.join("wal-0.log"), 2);

    let err = WarmState::load_dir(&data, &opts(Some(walopts)), &Telemetry::disabled())
        .map(|_| ())
        .expect_err("a broken fingerprint chain must fail recovery");
    let msg = err.to_string();
    assert!(
        msg.contains("fingerprint chain broke at replayed step 2"),
        "error should name the step whose fingerprint does not chain: {msg}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn wal_requires_incremental_mode() {
    let root = scratch("wal-needs-incremental");
    let data = dataset_dir(&root);
    let mut o = opts(Some(WalOptions {
        dir: root.join("wal"),
        snapshot_every: 2,
    }));
    o.incremental = None;
    let err = WarmState::load_dir(&data, &o, &Telemetry::disabled())
        .map(|_| ())
        .expect_err("a WAL without the delta engine must be refused");
    assert!(err.to_string().contains("--incremental"), "{err}");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn status_reports_durability_and_operability_fields() {
    let root = scratch("status-fields");
    let data = dataset_dir(&root);
    let walopts = WalOptions {
        dir: root.join("wal"),
        snapshot_every: 2,
    };
    let state = load(&data, Some(walopts));
    let server = Server::start(
        Arc::new(state),
        ServerConfig::default(),
        Telemetry::disabled(),
    )
    .expect("server starts");
    let client = Client::new(server.local_addr().to_string(), ClientConfig::default());

    // Advance one step through the real endpoint so the counters move.
    let body = serde_json::to_string(&delta(1)).expect("encode delta");
    let res = client.post("/delta", &[], body.as_bytes()).unwrap();
    assert_eq!(res.status, 200, "{}", res.body);

    let status: Value = serde_json::from_str(&client.get("/status").unwrap().body).unwrap();
    // Operability fields (satellite: /status must answer "is it keeping
    // up" without grepping logs).
    assert!(status["queue_depth"].as_u64().is_some(), "{status:?}");
    assert!(status["workers"].as_u64().unwrap() >= 1);
    assert!(status["occupancy"].as_f64().is_some());
    assert!(status["uptime_secs"].as_f64().is_some());
    // Durability fields under the incremental block.
    let wal = &status["incremental"]["wal"];
    assert_eq!(wal["durable_step"].as_u64(), Some(1), "{status:?}");
    assert_eq!(wal["generation"].as_u64(), Some(0));
    assert_eq!(wal["last_snapshot_step"].as_u64(), Some(0));
    assert_eq!(
        status["incremental"]["step"].as_u64(),
        Some(1),
        "served step and durable step agree"
    );

    server.join();
    std::fs::remove_dir_all(&root).ok();
}
