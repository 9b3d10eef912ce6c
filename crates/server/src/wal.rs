//! Delta write-ahead log + warm-state snapshot files: the durability
//! layer under `serve --incremental`.
//!
//! # On-disk layout
//!
//! A WAL directory holds two kinds of files, both named after the delta
//! *step* they anchor to:
//!
//! * `snap-<S>.bin` — warm-state snapshot taken after step `S`:
//!   `[u32 crc32(payload)][payload]`, where the payload is the
//!   [`ceaff_core::snapshot`] encoding of the whole
//!   [`DeltaState`](ceaff_core::DeltaState).
//!   Written atomically (`.tmp` + fsync + rename + directory fsync),
//!   exactly the discipline of `ceaff-core::checkpoint`.
//! * `wal-<S>.log` — the log *generation* started right after the
//!   snapshot at step `S`; its frames are the deltas of steps `S+1`,
//!   `S+2`, … in order. Each frame is
//!   `[u32 len][u32 crc32(payload ‖ fp)][payload: len bytes][u32 fp]`
//!   where the payload is the delta's canonical JSON and `fp` is the
//!   chained fingerprint the state reported *after* applying it — so
//!   replay re-proves the fingerprint chain frame by frame.
//!
//! # Ordering contract
//!
//! `POST /delta` applies in memory first (a rejected delta never touches
//! the log), then appends + fsyncs the frame, then (when due) installs a
//! snapshot, and only then publishes the new [`ServeCore`](crate::ServeCore) snapshot to
//! readers — so a delta is never *acknowledged* before it is durable,
//! and a crash at any instant loses only unacknowledged work.
//!
//! # Recovery rules
//!
//! * Snapshot files whose CRC does not match are skipped; recovery falls
//!   back to the previous generation (retention always keeps two).
//! * A torn or truncated frame is tolerated **only** as the tail of the
//!   highest-numbered log: it is dropped and the file truncated back to
//!   the last valid frame. The same damage in any lower generation means
//!   the disk lied about fsynced history — a typed error, never a guess.
//! * Leftover `.tmp` files (a crash between snapshot write and rename)
//!   are deleted on sight.
//!
//! Every fsync/rename/append passes through
//! [`ceaff_faultinject::durable_write`], which is how the chaos matrix
//! injects a crash at every one of these points and proves recovery is
//! bitwise-faithful.

use ceaff_core::checkpoint::crc32;
use ceaff_graph::KgDelta;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Where the log lives and how often snapshots are cut.
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Directory holding `wal-*.log` and `snap-*.bin` (created if
    /// absent). Must be private to one server instance.
    pub dir: PathBuf,
    /// Install a snapshot (and rotate the log) every this many applied
    /// deltas. `0` disables periodic snapshots (the initial snapshot is
    /// still written, so a restart always has a base to replay from).
    pub snapshot_every: usize,
}

/// A durability failure: I/O, or on-disk state that fails verification.
#[derive(Debug)]
pub enum WalError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file's content contradicts its framing (CRC mismatch, impossible
    /// length, non-tail truncation, broken step chain).
    Corrupt {
        /// The offending file (or the log as a whole).
        file: String,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt { file, reason } => write!(f, "wal corrupt ({file}): {reason}"),
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

fn corrupt(file: impl Into<String>, reason: impl Into<String>) -> WalError {
    WalError::Corrupt {
        file: file.into(),
        reason: reason.into(),
    }
}

/// One replayable WAL frame.
#[derive(Debug)]
pub struct Frame {
    /// The step this delta advanced the state to.
    pub step: usize,
    /// The delta itself.
    pub delta: KgDelta,
    /// The chained fingerprint the state reported after applying it;
    /// replay must reproduce it exactly.
    pub fingerprint: u32,
}

/// Everything `recover` found on disk, verified as far as files go
/// (snapshot *payloads* are decoded — and config-checked — by the
/// caller, which is where fallback to an older generation happens).
#[derive(Debug, Default)]
pub struct Recovery {
    /// File-CRC-valid snapshots, newest first, as `(step, payload)`.
    pub snapshots: Vec<(usize, Vec<u8>)>,
    /// Snapshot files dropped for a bad CRC or unreadable framing.
    pub skipped_snapshots: usize,
    /// All replayable frames across retained generations, ascending by
    /// step, each generation internally contiguous.
    pub frames: Vec<Frame>,
    /// Whether a torn tail was dropped (and truncated) from the highest
    /// generation.
    pub torn_tail_dropped: bool,
    /// The highest generation present on disk, if any.
    pub max_gen: Option<usize>,
}

fn parse_step(name: &str, prefix: &str, suffix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Scan a WAL directory: verify snapshot file framing, parse every log
/// generation, drop (and truncate away) a torn tail in the highest one,
/// and fail typed on damage anywhere else.
pub fn recover(dir: &Path) -> Result<Recovery, WalError> {
    fs::create_dir_all(dir)?;
    let mut snap_steps = Vec::new();
    let mut gen_steps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            // A crash between snapshot write and rename; the rename never
            // happened, so the file is garbage by definition.
            fs::remove_file(entry.path()).ok();
        } else if let Some(step) = parse_step(&name, "snap-", ".bin") {
            snap_steps.push(step);
        } else if let Some(step) = parse_step(&name, "wal-", ".log") {
            gen_steps.push(step);
        }
    }
    snap_steps.sort_unstable_by(|a, b| b.cmp(a));
    gen_steps.sort_unstable();

    let mut rec = Recovery {
        max_gen: gen_steps.last().copied(),
        ..Recovery::default()
    };
    for step in snap_steps {
        let path = dir.join(format!("snap-{step}.bin"));
        match read_snapshot_file(&path) {
            Ok(payload) => rec.snapshots.push((step, payload)),
            Err(_) => rec.skipped_snapshots += 1,
        }
    }

    let mut by_step: BTreeMap<usize, Frame> = BTreeMap::new();
    for (i, &start) in gen_steps.iter().enumerate() {
        let is_highest = i + 1 == gen_steps.len();
        let path = dir.join(format!("wal-{start}.log"));
        let name = format!("wal-{start}.log");
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let (frames, valid_len) = parse_frames(&bytes, start);
        if valid_len < bytes.len() {
            if !is_highest {
                return Err(corrupt(
                    name,
                    format!(
                        "invalid frame at byte {valid_len} of a sealed generation \
                         (only the newest log may have a torn tail)"
                    ),
                ));
            }
            // Torn tail of the active generation: the crash interrupted
            // an unacknowledged append. Drop it and heal the file so new
            // appends continue from a clean boundary.
            OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(valid_len as u64)?;
            rec.torn_tail_dropped = true;
        }
        for frame in frames {
            by_step.entry(frame.step).or_insert(frame);
        }
    }
    rec.frames = by_step.into_values().collect();
    Ok(rec)
}

/// Parse frames of a generation starting after `start`; returns the
/// frames and the byte length of the valid prefix (equal to the buffer
/// length iff every byte parsed).
fn parse_frames(bytes: &[u8], start: usize) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (frames, pos);
        }
        if rest.len() < 8 {
            return (frames, pos);
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        let Some(total) = len.checked_add(12) else {
            return (frames, pos);
        };
        if rest.len() < total {
            return (frames, pos);
        }
        let body = &rest[8..8 + len + 4];
        if crc32(body) != crc {
            return (frames, pos);
        }
        let payload = &body[..len];
        let fingerprint = u32::from_le_bytes(body[len..].try_into().unwrap());
        let Ok(text) = std::str::from_utf8(payload) else {
            return (frames, pos);
        };
        let Ok(delta) = serde_json::from_str::<KgDelta>(text) else {
            return (frames, pos);
        };
        frames.push(Frame {
            step: start + frames.len() + 1,
            delta,
            fingerprint,
        });
        pos += total;
    }
}

/// A snapshot file's payload, CRC-checked. The header is read apart, so
/// the payload lands in its own buffer without a copy.
fn read_snapshot_file(path: &Path) -> Result<Vec<u8>, WalError> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let mut file = File::open(path)?;
    let mut header = [0u8; 4];
    if let Err(e) = file.read_exact(&mut header) {
        return Err(match e.kind() {
            std::io::ErrorKind::UnexpectedEof => corrupt(name, "shorter than its CRC header"),
            _ => e.into(),
        });
    }
    let len = file.metadata()?.len().saturating_sub(4) as usize;
    let mut payload = Vec::with_capacity(len);
    file.read_to_end(&mut payload)?;
    if crc32(&payload) != u32::from_le_bytes(header) {
        return Err(corrupt(name, "payload CRC mismatch"));
    }
    Ok(payload)
}

/// Point-in-time durability counters for `/status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStatus {
    /// Step the active log generation started at.
    pub generation: usize,
    /// Last step whose frame is fsynced.
    pub durable_step: usize,
    /// Step of the newest installed snapshot.
    pub last_snapshot_step: usize,
}

/// The append half: an open handle on the active generation. One per
/// server instance, owned by the delta engine (appends are already
/// serialized by the engine mutex).
pub struct Wal {
    opts: WalOptions,
    file: File,
    gen: usize,
    durable_step: usize,
    last_snapshot_step: usize,
    /// After a failed append/snapshot the in-memory state and the log
    /// disagree; accepting further deltas would write a gapped history,
    /// so the log refuses everything until a restart re-syncs them.
    poisoned: bool,
}

fn die(label: &str) -> ! {
    eprintln!("ceaff-faultinject: crashing at durable-write point '{label}'");
    std::process::abort();
}

impl Wal {
    /// Open (creating if absent) the generation `gen` log for appending.
    /// `durable_step` and `last_snapshot_step` come from recovery.
    pub fn open(
        opts: WalOptions,
        gen: usize,
        durable_step: usize,
        last_snapshot_step: usize,
    ) -> Result<Wal, WalError> {
        fs::create_dir_all(&opts.dir)?;
        let path = opts.dir.join(format!("wal-{gen}.log"));
        let fresh = !path.exists();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if fresh {
            fsync_dir(&opts.dir)?;
        }
        Ok(Wal {
            opts,
            file,
            gen,
            durable_step,
            last_snapshot_step,
            poisoned: false,
        })
    }

    /// Current counters for `/status`.
    pub fn status(&self) -> WalStatus {
        WalStatus {
            generation: self.gen,
            durable_step: self.durable_step,
            last_snapshot_step: self.last_snapshot_step,
        }
    }

    fn check_usable(&self) -> Result<(), WalError> {
        if self.poisoned {
            return Err(corrupt(
                "wal",
                "log poisoned by an earlier durability failure; restart to re-sync",
            ));
        }
        Ok(())
    }

    /// Append one frame and fsync it. `step`/`fingerprint` are the
    /// state's values *after* applying the delta; the append must be the
    /// very next step, anything else means caller and log lost sync.
    pub fn append(
        &mut self,
        delta: &KgDelta,
        step: usize,
        fingerprint: u32,
    ) -> Result<(), WalError> {
        self.check_usable()?;
        if step != self.durable_step + 1 {
            self.poisoned = true;
            return Err(corrupt(
                "wal",
                format!(
                    "append of step {step} but the log is at step {} — history would gap",
                    self.durable_step
                ),
            ));
        }
        let payload = serde_json::to_string(delta)
            .map_err(|e| corrupt("frame", format!("cannot serialize delta: {e}")))?;
        let mut body = payload.into_bytes();
        body.extend_from_slice(&fingerprint.to_le_bytes());
        let mut frame = Vec::with_capacity(body.len() + 8);
        frame.extend_from_slice(&((body.len() - 4) as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);

        match ceaff_faultinject::durable_write("wal/append") {
            ceaff_faultinject::WriteFault::None => {}
            ceaff_faultinject::WriteFault::Crash => die("wal/append"),
            ceaff_faultinject::WriteFault::Torn(offset) => {
                // Land only a prefix of the frame, make *that* durable,
                // then die — the torn tail recovery must detect.
                let keep = (offset as usize).min(frame.len().saturating_sub(1)).max(1);
                let _ = self.file.write_all(&frame[..keep]);
                let _ = self.file.sync_data();
                die("wal/append(torn)");
            }
        }
        if let Err(e) = self.file.write_all(&frame) {
            self.poisoned = true;
            return Err(e.into());
        }
        if ceaff_faultinject::durable_write("wal/sync") == ceaff_faultinject::WriteFault::Crash {
            die("wal/sync");
        }
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e.into());
        }
        self.durable_step = step;
        Ok(())
    }

    /// Whether the periodic snapshot cadence says the current step needs
    /// one.
    pub fn snapshot_due(&self) -> bool {
        self.opts.snapshot_every > 0
            && self.durable_step - self.last_snapshot_step >= self.opts.snapshot_every
    }

    /// Install a snapshot at the current durable step, rotate to a fresh
    /// generation, and apply retention (keep this snapshot, the previous
    /// one, and every generation the previous one may need to replay).
    pub fn install_snapshot(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.check_usable()?;
        let step = self.durable_step;
        let tmp = self.opts.dir.join(format!("snap-{step}.bin.tmp"));
        let dest = self.opts.dir.join(format!("snap-{step}.bin"));

        if ceaff_faultinject::durable_write("snap/write") == ceaff_faultinject::WriteFault::Crash {
            die("snap/write");
        }
        let write_tmp = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&crc32(payload).to_le_bytes())?;
            f.write_all(payload)?;
            f.sync_all()
        };
        if let Err(e) = write_tmp() {
            self.poisoned = true;
            return Err(e.into());
        }
        if ceaff_faultinject::durable_write("snap/rename") == ceaff_faultinject::WriteFault::Crash {
            die("snap/rename");
        }
        let land = || -> std::io::Result<()> {
            fs::rename(&tmp, &dest)?;
            fsync_dir(&self.opts.dir)
        };
        if let Err(e) = land() {
            self.poisoned = true;
            return Err(e.into());
        }
        if ceaff_faultinject::durable_write("wal/rotate") == ceaff_faultinject::WriteFault::Crash {
            die("wal/rotate");
        }
        let rotate = || -> std::io::Result<File> {
            let path = self.opts.dir.join(format!("wal-{step}.log"));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            fsync_dir(&self.opts.dir)?;
            Ok(file)
        };
        match rotate() {
            Ok(file) => self.file = file,
            Err(e) => {
                self.poisoned = true;
                return Err(e.into());
            }
        }
        let previous = self.last_snapshot_step;
        self.gen = step;
        self.last_snapshot_step = step;
        self.retain(step, previous);
        Ok(())
    }

    /// Best-effort retention: anything older than the previous snapshot
    /// (and the generations it needs) is garbage.
    fn retain(&self, current: usize, previous: usize) {
        let Ok(entries) = fs::read_dir(&self.opts.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = match (
                parse_step(&name, "snap-", ".bin"),
                parse_step(&name, "wal-", ".log"),
            ) {
                (Some(step), _) => step != current && step != previous,
                (_, Some(start)) => start < previous,
                _ => false,
            };
            if stale {
                fs::remove_file(entry.path()).ok();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_graph::{DeltaOp, Side};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ceaff-wal-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn delta(n: usize) -> KgDelta {
        KgDelta::new(vec![DeltaOp::AddEntity {
            side: Side::Source,
            name: format!("e{n}"),
            at: None,
        }])
    }

    fn opts(dir: &Path, every: usize) -> WalOptions {
        WalOptions {
            dir: dir.to_path_buf(),
            snapshot_every: every,
        }
    }

    #[test]
    fn append_then_recover_roundtrips_frames_and_fingerprints() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::open(opts(&dir, 0), 0, 0, 0).unwrap();
        for n in 1..=3 {
            wal.append(&delta(n), n, n as u32 * 7).unwrap();
        }
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.frames.len(), 3);
        assert!(!rec.torn_tail_dropped);
        for (i, f) in rec.frames.iter().enumerate() {
            assert_eq!(f.step, i + 1);
            assert_eq!(f.fingerprint, (i as u32 + 1) * 7);
            assert_eq!(f.delta, delta(i + 1));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_file_healed() {
        let dir = tmpdir("torn");
        let mut wal = Wal::open(opts(&dir, 0), 0, 0, 0).unwrap();
        wal.append(&delta(1), 1, 11).unwrap();
        wal.append(&delta(2), 2, 22).unwrap();
        let path = dir.join("wal-0.log");
        let full = fs::metadata(&path).unwrap().len();
        ceaff_faultinject::truncate_file(&path, full - 3).unwrap();
        let rec = recover(&dir).unwrap();
        assert!(rec.torn_tail_dropped);
        assert_eq!(rec.frames.len(), 1, "the torn frame is gone");
        assert_eq!(rec.frames[0].step, 1);
        // The file was truncated back to the valid prefix, so appends
        // resume cleanly.
        let mut wal = Wal::open(opts(&dir, 0), 0, 1, 0).unwrap();
        wal.append(&delta(2), 2, 22).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.frames.len(), 2);
        assert!(!rec.torn_tail_dropped);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_frame_in_sealed_generation_is_a_typed_error() {
        let dir = tmpdir("sealed");
        let mut wal = Wal::open(opts(&dir, 1), 0, 0, 0).unwrap();
        wal.append(&delta(1), 1, 11).unwrap();
        wal.install_snapshot(b"snapshot-payload").unwrap();
        wal.append(&delta(2), 2, 22).unwrap();
        // wal-0.log is now sealed (wal-1.log is the active generation);
        // flip a byte inside its only frame.
        ceaff_faultinject::flip_byte(dir.join("wal-0.log"), 10).unwrap();
        match recover(&dir) {
            Err(WalError::Corrupt { file, .. }) => assert_eq!(file, "wal-0.log"),
            other => panic!("sealed-generation damage must fail typed, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_skipped_and_older_one_survives() {
        let dir = tmpdir("snapfall");
        let mut wal = Wal::open(opts(&dir, 1), 0, 0, 0).unwrap();
        wal.append(&delta(1), 1, 11).unwrap();
        wal.install_snapshot(b"snapshot-one").unwrap();
        wal.append(&delta(2), 2, 22).unwrap();
        wal.install_snapshot(b"snapshot-two").unwrap();
        ceaff_faultinject::flip_byte(dir.join("snap-2.bin"), 6).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.skipped_snapshots, 1);
        assert_eq!(rec.snapshots.len(), 1);
        assert_eq!(rec.snapshots[0].0, 1);
        assert_eq!(rec.snapshots[0].1, b"snapshot-one");
        // Exactly the tail the surviving snapshot needs is still on disk
        // (retention keeps generations ≥ the previous snapshot's step;
        // frame 1 is below the fallback floor and was reclaimed).
        assert_eq!(
            rec.frames.iter().map(|f| f.step).collect::<Vec<_>>(),
            vec![2]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_snapshots_are_all_counted_while_the_newest_is_valid() {
        let dir = tmpdir("skipcount");
        let mut wal = Wal::open(opts(&dir, 1), 0, 0, 0).unwrap();
        for n in 1..=2 {
            wal.append(&delta(n), n, n as u32).unwrap();
            wal.install_snapshot(format!("payload-{n}").as_bytes())
                .unwrap();
        }
        // An older generation is CRC-checked even though the newest one
        // is usable, so a lost fallback shows in the skipped count.
        ceaff_faultinject::flip_byte(dir.join("snap-1.bin"), 6).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.skipped_snapshots, 1);
        assert_eq!(rec.snapshots, vec![(2, b"payload-2".to_vec())]);
        // A file shorter than its CRC header is skipped the same way.
        fs::write(dir.join("snap-1.bin"), b"ab").unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.skipped_snapshots, 1);
        assert_eq!(rec.snapshots.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_retention_keep_two_snapshots_and_their_logs() {
        let dir = tmpdir("retain");
        let mut wal = Wal::open(opts(&dir, 1), 0, 0, 0).unwrap();
        for n in 1..=3 {
            wal.append(&delta(n), n, n as u32).unwrap();
            assert!(wal.snapshot_due());
            wal.install_snapshot(format!("payload-{n}").as_bytes())
                .unwrap();
            assert_eq!(wal.status().last_snapshot_step, n);
            assert_eq!(wal.status().generation, n);
        }
        let names: Vec<String> = {
            let mut v: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            names,
            vec!["snap-2.bin", "snap-3.bin", "wal-2.log", "wal-3.log"],
            "retention keeps the latest two snapshots and generations ≥ the older one"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_append_poisons_the_log() {
        let dir = tmpdir("poison");
        let mut wal = Wal::open(opts(&dir, 0), 0, 0, 0).unwrap();
        wal.append(&delta(1), 1, 1).unwrap();
        assert!(wal.append(&delta(3), 3, 3).is_err(), "gap must be refused");
        assert!(
            wal.append(&delta(2), 2, 2).is_err(),
            "a poisoned log refuses everything until restart"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stray_tmp_files_are_cleaned_on_recovery() {
        let dir = tmpdir("tmpclean");
        fs::write(dir.join("snap-5.bin.tmp"), b"half-written").unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.snapshots.len(), 0);
        assert!(!dir.join("snap-5.bin.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }
}
