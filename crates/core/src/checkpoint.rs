//! Crash-safe checkpointing of pipeline runs (the fault-tolerance layer).
//!
//! A run directory holds one artifact per completed unit of work — the
//! in-flight GCN training state and each finished pipeline stage — plus a
//! `manifest.json` recording the byte length and CRC32 of every artifact
//! and a `config.json` envelope pinning the run's configuration. Every
//! write is atomic (`name.tmp` + `rename`), and the manifest is only
//! updated *after* its artifact landed, so a crash at any instant leaves
//! the directory either without the artifact or with a fully verified one
//! — never with a half-written file that a resume would trust.
//!
//! Resume correctness leans on the workspace's determinism contract: every
//! stage is bitwise-reproducible at any thread count, so a run resumed
//! from checkpoints is *required* (and tested) to produce bit-identical
//! final metrics to the same run executed uninterrupted.
//!
//! Binary artifacts use a little-endian fixed-width codec (`f32`/`f64`
//! values as raw bits), so floating-point state round-trips exactly.

use crate::error::CeaffError;
use crate::features::{Feature, SemanticFeature, StringFeature, StructuralFeature};
use crate::pipeline::CeaffConfig;
use ceaff_graph::KgPair;
use ceaff_sim::{SimStore, SimilarityMatrix, SparseTopK};
use ceaff_tensor::{Matrix, OptimSlot, OptimState};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Version tag written into `config.json` and checked by
/// [`Checkpointer::create`] and [`Checkpointer::open`], so a layout change
/// fails loudly instead of mis-parsing old runs. Version 2 stores each
/// stage as a [`SimStore`] (dense or sparse top-k) behind a store tag.
pub const FORMAT_VERSION: u32 = 2;

/// In-flight GCN training state artifact.
pub const TRAIN_FILE: &str = "gcn_train.ckpt";
/// Completed structural-stage artifact.
pub const STAGE_STRUCTURAL: &str = "stage_structural.bin";
/// Completed semantic-stage artifact.
pub const STAGE_SEMANTIC: &str = "stage_semantic.bin";
/// Completed string-stage artifact.
pub const STAGE_STRING: &str = "stage_string.bin";

/// When checkpoints are written during a checkpointed run (a run without
/// a [`Checkpointer`] writes none).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointPolicy {
    /// Save each pipeline stage's output when the stage completes.
    PerStage,
    /// Per-stage outputs *plus* the GCN training state every `N` epochs,
    /// so a crash mid-training loses at most `N` epochs of work.
    EveryNEpochs(usize),
}

impl CheckpointPolicy {
    /// The epoch interval at which training state is saved, when any.
    pub fn epoch_interval(&self) -> Option<usize> {
        match self {
            CheckpointPolicy::EveryNEpochs(n) if *n > 0 => Some(*n),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` is the CRC state contribution of byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the state
/// by eight bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 checksum (IEEE) of a byte slice — the integrity check attached
/// to every checkpoint artifact, WAL frame and snapshot file. Slicing-by-8:
/// the same checksum a bytewise table walk computes, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian binary codec
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder for binary checkpoint artifacts.
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        Self { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn f32s(&mut self, vs: &[f32]) {
        self.usize(vs.len());
        for &v in vs {
            self.f32(v);
        }
    }

    pub(crate) fn u32s(&mut self, vs: &[u32]) {
        self.usize(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    pub(crate) fn matrix(&mut self, m: &Matrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        for &v in m.as_slice() {
            self.f32(v);
        }
    }

    /// An optional field: tag `0` for `None`, else tag `1` and `put`'s
    /// bytes.
    pub(crate) fn opt<T>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                put(self, v);
            }
        }
    }
}

/// Cursor-based decoder over a checkpoint artifact; every read is
/// bounds-checked so a truncated or corrupt payload fails with a reason
/// instead of panicking.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "truncated payload: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len()
                )
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// End of the payload: bytes left over after the last field mean a
    /// foreign or corrupt payload, not a shorter one.
    pub(crate) fn finish(&self) -> Result<(), String> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the last field")),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, String> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("length {v} exceeds the address space"))
    }

    /// A length prefix that must also be *plausible*: the remaining bytes
    /// must be able to hold `elem_bytes`-sized elements of that count.
    /// Catches corrupted lengths before they drive a huge allocation.
    fn checked_len(&mut self, elem_bytes: usize) -> Result<usize, String> {
        let n = self.usize()?;
        let need = n
            .checked_mul(elem_bytes)
            .ok_or_else(|| format!("implausible element count {n}"))?;
        if need > self.buf.len() - self.pos {
            return Err(format!(
                "element count {n} needs {need} bytes but only {} remain",
                self.buf.len() - self.pos
            ));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let n = self.checked_len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "invalid UTF-8 string".to_owned())
    }

    pub(crate) fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.checked_len(4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    pub(crate) fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.checked_len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    pub(crate) fn matrix(&mut self) -> Result<Matrix, String> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let elems = rows
            .checked_mul(cols)
            .filter(|&e| {
                e.checked_mul(4)
                    .is_some_and(|b| b <= self.buf.len() - self.pos)
            })
            .ok_or_else(|| format!("implausible matrix shape {rows}x{cols}"))?;
        let mut data = Vec::with_capacity(elems);
        for _ in 0..elems {
            data.push(self.f32()?);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// An optional field written by [`ByteWriter::opt`].
    pub(crate) fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            tag => Err(format!("bad option tag {tag}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest and config envelope
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    file: String,
    bytes: u64,
    crc32: u32,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    config_crc32: u32,
    entries: Vec<ManifestEntry>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConfigEnvelope {
    version: u32,
    policy: CheckpointPolicy,
    config: CeaffConfig,
}

fn ckpt_err(file: impl Into<String>, reason: impl Into<String>) -> CeaffError {
    CeaffError::Checkpoint {
        file: file.into(),
        reason: reason.into(),
    }
}

/// Fingerprint of a configuration: CRC32 of its canonical JSON form.
/// Resuming under a different configuration would silently change the
/// result, so a mismatch is a hard error. It also seeds a fresh
/// [`crate::DeltaState`]'s fingerprint chain.
pub fn config_fingerprint(cfg: &CeaffConfig) -> Result<u32, CeaffError> {
    let json = serde_json::to_string(cfg)
        .map_err(|e| ckpt_err("config.json", format!("cannot serialize config: {e}")))?;
    Ok(crc32(json.as_bytes()))
}

/// Write `bytes` to `path` atomically: land them in `path.tmp` first,
/// fsync, then rename over the destination. A crash mid-write leaves the
/// old artifact (or nothing) in place, never a torn file.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(e) = ceaff_faultinject::io_error(path) {
        return Err(e);
    }
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    if let Some(e) = ceaff_faultinject::io_error(path) {
        return Err(e);
    }
    std::fs::read(path)
}

/// Read and parse the run directory's JSON `file` at `path`.
fn read_json<T: serde::de::DeserializeOwned>(path: &Path, file: &str) -> Result<T, CeaffError> {
    let bytes = read_file(path).map_err(|e| ckpt_err(file, format!("cannot read: {e}")))?;
    let text = String::from_utf8(bytes).map_err(|_| ckpt_err(file, "not valid UTF-8"))?;
    serde_json::from_str(&text).map_err(|e| ckpt_err(file, format!("bad JSON: {e}")))
}

/// Serialize `value` into the run directory's JSON `file` at `path`,
/// atomically.
fn write_json<T: Serialize>(path: &Path, file: &str, value: &T) -> Result<(), CeaffError> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| ckpt_err(file, format!("cannot serialize: {e}")))?;
    atomic_write(path, json.as_bytes()).map_err(|e| ckpt_err(file, format!("cannot write: {e}")))
}

// ---------------------------------------------------------------------------
// Checkpointer
// ---------------------------------------------------------------------------

/// Handle to a run directory: verified loads, atomic saves, manifest
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    policy: CheckpointPolicy,
    config_crc32: u32,
}

impl Checkpointer {
    /// Create (or re-open) a run directory for `cfg`.
    ///
    /// A fresh directory gets a `config.json` envelope; an existing one
    /// must have been produced by the *same* configuration and
    /// [`FORMAT_VERSION`] — a mismatch is a [`CeaffError::Checkpoint`]
    /// error, since resuming under different hyperparameters or another
    /// artifact layout would corrupt the run.
    pub fn create(
        dir: impl AsRef<Path>,
        policy: CheckpointPolicy,
        cfg: &CeaffConfig,
    ) -> Result<Self, CeaffError> {
        if policy == CheckpointPolicy::EveryNEpochs(0) {
            // A zero interval silently behaved like PerStage (the
            // training state was never saved); reject it so the caller
            // states what they actually want.
            return Err(CeaffError::InvalidConfig(
                "checkpoint interval must be at least 1 epoch \
                 (use CheckpointPolicy::PerStage for stage-only checkpoints)"
                    .into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ckpt_err(dir.display().to_string(), format!("cannot create: {e}")))?;
        let fingerprint = config_fingerprint(cfg)?;
        let config_path = dir.join("config.json");
        if config_path.exists() {
            let envelope = Self::read_envelope(&config_path)?;
            let stored = config_fingerprint(&envelope.config)?;
            if stored != fingerprint {
                return Err(ckpt_err(
                    "config.json",
                    "run directory was created with a different configuration",
                ));
            }
        }
        // (Re)write the envelope so the latest policy is what a later
        // resume picks up.
        let envelope = ConfigEnvelope {
            version: FORMAT_VERSION,
            policy,
            config: cfg.clone(),
        };
        write_json(&config_path, "config.json", &envelope)?;
        Ok(Self {
            dir,
            policy,
            config_crc32: fingerprint,
        })
    }

    /// Open an existing run directory, recovering the configuration and
    /// policy it was created with — what a resumed run passes to
    /// [`crate::pipeline::run`].
    pub fn open(dir: impl AsRef<Path>) -> Result<(Self, CeaffConfig), CeaffError> {
        let dir = dir.as_ref().to_path_buf();
        let envelope = Self::read_envelope(&dir.join("config.json"))?;
        let fingerprint = config_fingerprint(&envelope.config)?;
        Ok((
            Self {
                dir,
                policy: envelope.policy,
                config_crc32: fingerprint,
            },
            envelope.config,
        ))
    }

    /// Read `config.json`; a directory written under another
    /// [`FORMAT_VERSION`] is rejected, since its artifacts would be read
    /// under the wrong layout.
    fn read_envelope(path: &Path) -> Result<ConfigEnvelope, CeaffError> {
        let envelope: ConfigEnvelope = read_json(path, "config.json")?;
        if envelope.version != FORMAT_VERSION {
            return Err(ckpt_err(
                "config.json",
                format!(
                    "format version {} is not the supported {FORMAT_VERSION}",
                    envelope.version
                ),
            ));
        }
        Ok(envelope)
    }

    /// The policy this run was created with.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn read_manifest(&self) -> Result<Manifest, CeaffError> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(Manifest {
                version: FORMAT_VERSION,
                config_crc32: self.config_crc32,
                entries: Vec::new(),
            });
        }
        let manifest: Manifest = read_json(&path, "manifest.json")?;
        if manifest.config_crc32 != self.config_crc32 {
            return Err(ckpt_err(
                "manifest.json",
                "manifest belongs to a different configuration",
            ));
        }
        Ok(manifest)
    }

    /// Atomically save an artifact and record it in the manifest. The
    /// manifest is written *after* the artifact rename lands, so an entry
    /// always refers to complete bytes.
    pub fn save(&self, name: &str, payload: &[u8]) -> Result<(), CeaffError> {
        atomic_write(&self.dir.join(name), payload)
            .map_err(|e| ckpt_err(name, format!("cannot write: {e}")))?;
        let mut manifest = self.read_manifest()?;
        let entry = ManifestEntry {
            file: name.to_owned(),
            bytes: payload.len() as u64,
            crc32: crc32(payload),
        };
        match manifest.entries.iter_mut().find(|e| e.file == name) {
            Some(slot) => *slot = entry,
            None => manifest.entries.push(entry),
        }
        write_json(&self.manifest_path(), "manifest.json", &manifest)
    }

    /// Load and verify an artifact. `Ok(None)` when the manifest has no
    /// entry for it (the unit of work never completed); a size or CRC32
    /// mismatch is a typed error and loads nothing partial.
    pub fn load(&self, name: &str) -> Result<Option<Vec<u8>>, CeaffError> {
        let manifest = self.read_manifest()?;
        let Some(entry) = manifest.entries.iter().find(|e| e.file == name) else {
            return Ok(None);
        };
        let path = self.dir.join(name);
        if !path.exists() {
            return Err(ckpt_err(name, "listed in the manifest but missing on disk"));
        }
        let bytes = read_file(&path).map_err(|e| ckpt_err(name, format!("cannot read: {e}")))?;
        if bytes.len() as u64 != entry.bytes {
            return Err(ckpt_err(
                name,
                format!(
                    "truncated: {} bytes on disk, {} expected",
                    bytes.len(),
                    entry.bytes
                ),
            ));
        }
        let found = crc32(&bytes);
        if found != entry.crc32 {
            return Err(ckpt_err(
                name,
                format!(
                    "crc32 mismatch: {found:#010x} on disk, {:#010x} expected",
                    entry.crc32
                ),
            ));
        }
        Ok(Some(bytes))
    }

    /// Whether a verified artifact with this name is recorded.
    pub fn has(&self, name: &str) -> bool {
        self.read_manifest()
            .map(|m| m.entries.iter().any(|e| e.file == name))
            .unwrap_or(false)
    }

    /// Drop an artifact from the manifest and disk (e.g. the in-flight
    /// training state once its stage output is saved).
    pub fn remove(&self, name: &str) -> Result<(), CeaffError> {
        let mut manifest = self.read_manifest()?;
        manifest.entries.retain(|e| e.file != name);
        write_json(&self.manifest_path(), "manifest.json", &manifest)?;
        std::fs::remove_file(self.dir.join(name)).ok();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// GCN training-state artifact
// ---------------------------------------------------------------------------

/// Everything the GCN training loop needs to continue bitwise-identically
/// from an epoch boundary.
pub(crate) struct GcnTrainState {
    /// The next epoch to run (all epochs `< next_epoch` are complete).
    pub next_epoch: usize,
    /// Numeric-recovery attempts consumed so far.
    pub retries: usize,
    /// Parameter matrices in registration order (`x1, x2, w1, w2`).
    pub params: Vec<Matrix>,
    /// Optimizer moments / step counter / (possibly decayed) LR.
    pub opt: OptimState,
    /// ChaCha8 state words, resuming the sampling stream mid-draw.
    pub rng_words: [u32; 33],
    /// Loss per completed epoch.
    pub loss_curve: Vec<f32>,
    /// Hard-negative pools (refreshed on a cadence, so part of the state).
    pub pool_u: Vec<Vec<u32>>,
    pub pool_v: Vec<Vec<u32>>,
    /// Early-stopping snapshot: best validation score and embeddings.
    pub best: Option<(f64, Matrix, Matrix)>,
}

fn write_pools(w: &mut ByteWriter, pools: &[Vec<u32>]) {
    w.usize(pools.len());
    for p in pools {
        w.u32s(p);
    }
}

fn read_pools(r: &mut ByteReader<'_>) -> Result<Vec<Vec<u32>>, String> {
    let n = r.usize()?;
    (0..n).map(|_| r.u32s()).collect()
}

pub(crate) fn encode_train_state(s: &GcnTrainState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.usize(s.next_epoch);
    w.usize(s.retries);
    w.usize(s.params.len());
    for m in &s.params {
        w.matrix(m);
    }
    w.str(&s.opt.kind);
    w.i32(s.opt.step_count);
    w.f32(s.opt.lr);
    w.usize(s.opt.slots.len());
    for slot in &s.opt.slots {
        w.usize(slot.param);
        w.usize(slot.moments.len());
        for m in &slot.moments {
            w.matrix(m);
        }
    }
    for &word in &s.rng_words {
        w.u32(word);
    }
    w.f32s(&s.loss_curve);
    write_pools(&mut w, &s.pool_u);
    write_pools(&mut w, &s.pool_v);
    w.opt(s.best.as_ref(), |w, (score, z1, z2)| {
        w.f64(*score);
        w.matrix(z1);
        w.matrix(z2);
    });
    w.into_bytes()
}

pub(crate) fn decode_train_state(bytes: &[u8]) -> Result<GcnTrainState, String> {
    let mut r = ByteReader::new(bytes);
    let next_epoch = r.usize()?;
    let retries = r.usize()?;
    let n_params = r.usize()?;
    let params = (0..n_params)
        .map(|_| r.matrix())
        .collect::<Result<Vec<_>, _>>()?;
    let kind = r.str()?;
    let step_count = r.i32()?;
    let lr = r.f32()?;
    let n_slots = r.usize()?;
    let mut slots = Vec::with_capacity(n_slots.min(1024));
    for _ in 0..n_slots {
        let param = r.usize()?;
        let n_moments = r.usize()?;
        let moments = (0..n_moments)
            .map(|_| r.matrix())
            .collect::<Result<Vec<_>, _>>()?;
        slots.push(OptimSlot { param, moments });
    }
    let mut rng_words = [0u32; 33];
    for word in rng_words.iter_mut() {
        *word = r.u32()?;
    }
    let loss_curve = r.f32s()?;
    let pool_u = read_pools(&mut r)?;
    let pool_v = read_pools(&mut r)?;
    let best = r.opt(|r| Ok((r.f64()?, r.matrix()?, r.matrix()?)))?;
    r.finish()?;
    Ok(GcnTrainState {
        next_epoch,
        retries,
        params,
        opt: OptimState {
            kind,
            step_count,
            lr,
            slots,
        },
        rng_words,
        loss_curve,
        pool_u,
        pool_v,
        best,
    })
}

// ---------------------------------------------------------------------------
// Feature codec: stage artifacts and warm snapshots
// ---------------------------------------------------------------------------

/// Encode a similarity store: tag `0` and the dense matrix, or tag `1`,
/// `targets`, `k`, `sources` and each sparse row's columns and scores.
pub(crate) fn put_store(w: &mut ByteWriter, store: &SimStore) {
    match store {
        SimStore::Dense(m) => {
            w.u8(0);
            w.matrix(m.as_matrix());
        }
        SimStore::Sparse(sp) => {
            w.u8(1);
            w.usize(sp.targets());
            w.usize(sp.k());
            w.usize(sp.sources());
            for i in 0..sp.sources() {
                let (cols, vals) = sp.row_entries(i);
                w.u32s(cols);
                w.f32s(vals);
            }
        }
    }
}

/// Decode a store written by [`put_store`] that scores `pair`'s test
/// split. A shape other than the split's, and everything the store
/// constructors would panic on — `k = 0`, a column out of range, a NaN
/// score, a row over the `k` cap — fail with a reason instead.
pub(crate) fn get_store(r: &mut ByteReader<'_>, pair: &KgPair) -> Result<SimStore, String> {
    let n = pair.test_pairs().len();
    let check_shape = |sources: usize, targets: usize| {
        if (sources, targets) == (n, n) {
            return Ok(());
        }
        Err(format!(
            "store shape {sources}x{targets} does not match the {n}x{n} test split"
        ))
    };
    match r.u8()? {
        0 => {
            let m = r.matrix()?;
            check_shape(m.rows(), m.cols())?;
            if m.as_slice().iter().any(|v| v.is_nan()) {
                return Err("NaN score in a dense store".into());
            }
            Ok(SimStore::Dense(SimilarityMatrix::new(m)))
        }
        1 => {
            let (targets, k, sources) = (r.usize()?, r.usize()?, r.usize()?);
            check_shape(sources, targets)?;
            if k == 0 {
                return Err("sparse store with k = 0".into());
            }
            let mut rows = Vec::with_capacity(sources);
            for i in 0..sources {
                let (cols, vals) = (r.u32s()?, r.f32s()?);
                if cols.len() != vals.len() || cols.len() > k {
                    return Err(format!("sparse row {i} has bad entries (k = {k})"));
                }
                if let Some(c) = cols.iter().find(|&&c| c as usize >= targets) {
                    return Err(format!("sparse row {i} has column {c} of {targets}"));
                }
                if vals.iter().any(|v| v.is_nan()) {
                    return Err(format!("NaN score in sparse row {i}"));
                }
                rows.push(cols.into_iter().zip(vals).collect());
            }
            // `from_rows` keeps already-canonical rows (score-desc,
            // col-asc ties) untouched, so the rebuilt store is bitwise
            // the encoded one — and it re-registers the tensor-ledger
            // bytes the serde skip dropped.
            Ok(SimStore::Sparse(SparseTopK::from_rows(targets, k, rows)))
        }
        tag => Err(format!("unknown store tag {tag}")),
    }
}

/// One feature's payload: the whole of its checkpoint stage artifact and
/// its block in a warm snapshot. Embeddings are stored already
/// L2-row-normalised (re-normalising is not bitwise-stable), names are
/// re-derived from the pair, and the test store keeps its kind, so a
/// decoded feature is bit-identical to the encoded one.
pub(crate) trait FeatureCodec: Sized {
    /// Append the feature's block.
    fn put(&self, w: &mut ByteWriter);
    /// Read a block written by [`FeatureCodec::put`] for `pair`.
    fn get(r: &mut ByteReader<'_>, pair: &KgPair) -> Result<Self, String>;
}

impl FeatureCodec for StructuralFeature {
    fn put(&self, w: &mut ByteWriter) {
        w.matrix(self.source_embeddings());
        w.matrix(self.target_embeddings());
        w.f32s(&self.loss_curve);
        put_store(w, self.test_store());
    }

    fn get(r: &mut ByteReader<'_>, pair: &KgPair) -> Result<Self, String> {
        let (zs, zt, loss_curve) = (r.matrix()?, r.matrix()?, r.f32s()?);
        check_embeddings("structural", &zs, &zt, pair)?;
        Ok(Self::from_store_parts(
            zs,
            zt,
            get_store(r, pair)?,
            loss_curve,
        ))
    }
}

impl FeatureCodec for SemanticFeature {
    fn put(&self, w: &mut ByteWriter) {
        w.matrix(self.source_embeddings());
        w.matrix(self.target_embeddings());
        put_store(w, self.test_store());
    }

    fn get(r: &mut ByteReader<'_>, pair: &KgPair) -> Result<Self, String> {
        let (ns, nt) = (r.matrix()?, r.matrix()?);
        check_embeddings("semantic", &ns, &nt, pair)?;
        Ok(Self::from_store_parts(ns, nt, get_store(r, pair)?))
    }
}

/// A feature's whole-KG embedding matrices must hold one row per entity of
/// their graph and share one width: the delta patcher renumbers their
/// rows by entity id and scores source rows against target rows.
fn check_embeddings(feature: &str, zs: &Matrix, zt: &Matrix, pair: &KgPair) -> Result<(), String> {
    check_rows(feature, "source", zs, pair.source.num_entities())?;
    check_rows(feature, "target", zt, pair.target.num_entities())?;
    if zs.cols() != zt.cols() {
        return Err(format!(
            "{feature} embedding widths differ: source {}, target {}",
            zs.cols(),
            zt.cols()
        ));
    }
    Ok(())
}

/// `m` holds one row per entity of a graph with `entities` of them.
pub(crate) fn check_rows(
    what: &str,
    side: &str,
    m: &Matrix,
    entities: usize,
) -> Result<(), String> {
    if m.rows() == entities {
        return Ok(());
    }
    Err(format!(
        "{what} {side} matrix has {} rows for {entities} entities",
        m.rows()
    ))
}

impl FeatureCodec for StringFeature {
    fn put(&self, w: &mut ByteWriter) {
        put_store(w, self.test_store());
    }

    fn get(r: &mut ByteReader<'_>, pair: &KgPair) -> Result<Self, String> {
        Ok(Self::from_store(pair, get_store(r, pair)?))
    }
}

/// A stage artifact: the feature's block and nothing else.
pub(crate) fn encode_stage<F: FeatureCodec>(f: &F) -> Vec<u8> {
    let mut w = ByteWriter::new();
    f.put(&mut w);
    w.into_bytes()
}

/// Decode a stage artifact written by [`encode_stage`] for `pair`.
pub(crate) fn decode_stage<F: FeatureCodec>(bytes: &[u8], pair: &KgPair) -> Result<F, String> {
    let mut r = ByteReader::new(bytes);
    let f = F::get(&mut r, pair)?;
    r.finish()?;
    Ok(f)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Crafted stores over an `n`×`n` test split (`n >= 2`), each with a
    /// substring of the typed error its decode must fail with.
    pub(crate) fn hostile_stores(n: usize) -> Vec<(&'static str, Vec<u8>)> {
        // Row 0 holds `cols`/`vals`, every later row is empty.
        let sparse = |targets: usize, k: usize, sources: usize, cols: &[u32], vals: &[f32]| {
            let mut w = ByteWriter::new();
            w.u8(1);
            [targets, k, sources].into_iter().for_each(|v| w.usize(v));
            w.u32s(cols);
            w.f32s(vals);
            for _ in 1..sources {
                w.u32s(&[]);
                w.f32s(&[]);
            }
            w.into_bytes()
        };
        let dense = |cols: usize, first: f32| {
            let mut data = vec![0.0; n * cols];
            data[0] = first;
            let mut w = ByteWriter::new();
            w.u8(0);
            w.matrix(&Matrix::from_vec(n, cols, data));
            w.into_bytes()
        };
        vec![
            ("k = 0", sparse(n, 0, n, &[], &[])),
            ("column", sparse(n, 2, n, &[n as u32], &[0.5])),
            ("NaN", sparse(n, 2, n, &[0], &[f32::NAN])),
            ("bad entries", sparse(n, 1, n, &[0, 1], &[0.9, 0.5])),
            ("bad entries", sparse(n, 2, n, &[0, 1], &[0.9])),
            ("shape", sparse(n, 2, n + 1, &[], &[])),
            ("shape", sparse(n + 1, 2, n, &[], &[])),
            ("NaN", dense(n, f32::NAN)),
            ("shape", dense(n + 1, 0.5)),
            ("tag", vec![7]),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise CRC32 (IEEE, reflected `0xEDB88320`), one bit at a
    /// time: the reference the sliced implementation must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        // Deterministic pseudo-random bytes (xorshift).
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..(1 << 20) + 19)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        // Every length through two whole 8-byte blocks plus a tail.
        for len in 0..=17 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bytewise(&bytes[..len]),
                "len {len}"
            );
        }
        // Sub-slices at every alignment, of lengths on both sides of a block.
        for start in 0..8 {
            for len in [1, 7, 8, 9, 63, 64, 65, 1000] {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        // 1 MiB, aligned and off by three.
        let mib = &bytes[..1 << 20];
        assert_eq!(crc32(mib), crc32_bytewise(mib));
        let shifted = &bytes[3..(1 << 20) + 3];
        assert_eq!(crc32(shifted), crc32_bytewise(shifted));
    }

    #[test]
    fn codec_roundtrips_exact_bits() {
        let mut w = ByteWriter::new();
        w.u32(0xDEAD_BEEF);
        w.f32(f32::from_bits(0x7FC0_0001)); // a NaN payload
        w.f64(-0.1);
        w.str("héllo");
        w.f32s(&[1.5, -0.0, f32::MIN_POSITIVE]);
        w.matrix(&Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.f32().unwrap().to_bits(), 0x7FC0_0001);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert_eq!(r.str().unwrap(), "héllo");
        let vs = r.f32s().unwrap();
        assert_eq!(vs[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.matrix().unwrap()[(1, 0)], 3.0);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_truncation_and_bad_lengths() {
        let mut w = ByteWriter::new();
        w.f32s(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        // Cut mid-payload.
        let mut r = ByteReader::new(&bytes[..bytes.len() - 2]);
        assert!(r.f32s().is_err());
        // A corrupted length prefix must not drive a huge allocation.
        let mut evil = bytes.clone();
        evil[0] = 0xFF;
        evil[7] = 0x7F;
        let mut r = ByteReader::new(&evil);
        assert!(r.f32s().is_err());
    }

    #[test]
    fn train_state_roundtrip_is_exact() {
        let state = GcnTrainState {
            next_epoch: 17,
            retries: 1,
            params: vec![
                Matrix::from_vec(2, 3, vec![0.1, -0.2, 0.3, f32::EPSILON, 5.0, -6.5]),
                Matrix::from_vec(1, 2, vec![7.0, 8.0]),
            ],
            opt: OptimState {
                kind: "adam".into(),
                step_count: 17,
                lr: 0.01,
                slots: vec![OptimSlot {
                    param: 0,
                    moments: vec![Matrix::zeros(2, 3), Matrix::filled(2, 3, 0.5)],
                }],
            },
            rng_words: core::array::from_fn(|i| i as u32 * 7 + 1),
            loss_curve: vec![3.0, 2.5, 2.0],
            pool_u: vec![vec![1, 2, 3], vec![]],
            pool_v: vec![vec![9]],
            best: Some((0.75, Matrix::filled(2, 2, 1.0), Matrix::filled(2, 2, 2.0))),
        };
        let bytes = encode_train_state(&state);
        let back = decode_train_state(&bytes).unwrap();
        assert_eq!(back.next_epoch, 17);
        assert_eq!(back.retries, 1);
        assert_eq!(back.params, state.params);
        assert_eq!(back.opt, state.opt);
        assert_eq!(back.rng_words, state.rng_words);
        assert_eq!(back.loss_curve, state.loss_curve);
        assert_eq!(back.pool_u, state.pool_u);
        assert_eq!(back.pool_v, state.pool_v);
        let (score, z1, z2) = back.best.unwrap();
        assert_eq!(score.to_bits(), 0.75f64.to_bits());
        assert_eq!(z1, Matrix::filled(2, 2, 1.0));
        assert_eq!(z2, Matrix::filled(2, 2, 2.0));
        // Every decode path rejects truncation, and bytes left over.
        for cut in [1usize, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_train_state(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let err = decode_train_state(&[&bytes[..], &[0]].concat()).err();
        assert!(err.is_some_and(|e| e.contains("trailing")));
    }

    #[test]
    fn hostile_stage_artifacts_fail_typed_never_panic() {
        let ds = ceaff_datagen::generate(&ceaff_datagen::GenConfig {
            aligned_entities: 40,
            ..ceaff_datagen::GenConfig::default()
        });
        let pair = &ds.pair;
        let n = pair.test_pairs().len();
        // A string artifact is one store, so a crafted store is a whole
        // crafted artifact.
        for (want, bytes) in hostile_stores(n) {
            let err = decode_stage::<StringFeature>(&bytes, pair).expect_err(want);
            assert!(err.contains(want), "expected {want:?}: {err}");
        }
        // Embedding matrices must hold one row per entity and share a
        // width (a mis-shaped one used to decode, then panic the next
        // delta apply when it renumbered the rows).
        let (ns_rows, nt_rows) = (pair.source.num_entities(), pair.target.num_entities());
        let artifact = |zs: Matrix, zt: Matrix, structural: bool| {
            let mut w = ByteWriter::new();
            w.matrix(&zs);
            w.matrix(&zt);
            if structural {
                w.f32s(&[1.0]);
            }
            put_store(&mut w, &SimStore::Dense(SimilarityMatrix::zeros(n, n)));
            w.into_bytes()
        };
        for structural in [false, true] {
            for (want, zs, zt) in [
                ("1 rows", Matrix::zeros(1, 4), Matrix::zeros(nt_rows, 4)),
                (
                    "rows for",
                    Matrix::zeros(ns_rows, 4),
                    Matrix::zeros(nt_rows + 1, 4),
                ),
                (
                    "widths differ",
                    Matrix::zeros(ns_rows, 4),
                    Matrix::zeros(nt_rows, 5),
                ),
            ] {
                let bytes = artifact(zs, zt, structural);
                let err = if structural {
                    decode_stage::<StructuralFeature>(&bytes, pair).map(|_| ())
                } else {
                    decode_stage::<SemanticFeature>(&bytes, pair).map(|_| ())
                };
                let err = err.expect_err(want);
                assert!(err.contains(want), "expected {want:?}: {err}");
            }
            let ok = artifact(
                Matrix::zeros(ns_rows, 4),
                Matrix::zeros(nt_rows, 4),
                structural,
            );
            let decoded = if structural {
                decode_stage::<StructuralFeature>(&ok, pair).map(|_| ())
            } else {
                decode_stage::<SemanticFeature>(&ok, pair).map(|_| ())
            };
            decoded.expect("a well-shaped artifact decodes");
        }
        // Both store kinds round-trip; a trailing byte is rejected.
        let (s, t) = (ds.test_source_names(), ds.test_target_names());
        let cands = ceaff_sim::build_candidates(&s, &t, &Default::default(), 4);
        for blocked in [None, Some((&cands, 4))] {
            let mut bytes = encode_stage(&StringFeature::compute_scoring(pair, blocked));
            let back: StringFeature = decode_stage(&bytes, pair).unwrap();
            assert_eq!(encode_stage(&back), bytes);
            bytes.push(0);
            let err = decode_stage::<StringFeature>(&bytes, pair).unwrap_err();
            assert!(err.contains("trailing"), "{err}");
        }
    }

    #[test]
    fn a_directory_of_another_format_version_fails_create_and_open() {
        let dir = tmp_dir("version");
        let cfg = CeaffConfig::default();
        Checkpointer::create(&dir, CheckpointPolicy::PerStage, &cfg).unwrap();
        let path = dir.join("config.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let old = format!("\"version\": {FORMAT_VERSION}");
        assert!(text.contains(&old), "{text}");
        std::fs::write(&path, text.replacen(&old, "\"version\": 1", 1)).unwrap();
        for res in [
            Checkpointer::create(&dir, CheckpointPolicy::PerStage, &cfg).map(|_| ()),
            Checkpointer::open(&dir).map(|_| ()),
        ] {
            let err = res.unwrap_err();
            assert!(matches!(err, CeaffError::Checkpoint { .. }), "{err:?}");
            let msg = err.to_string();
            assert!(msg.contains("'config.json': format version 1"), "{msg}");
        }
        // The rejected `create` left the old envelope alone.
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"version\": 1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ceaff-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn save_load_roundtrip_with_manifest() {
        let dir = tmp_dir("roundtrip");
        let cfg = CeaffConfig::default();
        let ck = Checkpointer::create(&dir, CheckpointPolicy::PerStage, &cfg).unwrap();
        assert_eq!(ck.load("missing.bin").unwrap(), None);
        ck.save("a.bin", b"hello checkpoint").unwrap();
        assert!(ck.has("a.bin"));
        assert_eq!(ck.load("a.bin").unwrap().unwrap(), b"hello checkpoint");
        // Overwrite updates the manifest entry.
        ck.save("a.bin", b"v2").unwrap();
        assert_eq!(ck.load("a.bin").unwrap().unwrap(), b"v2");
        ck.remove("a.bin").unwrap();
        assert_eq!(ck.load("a.bin").unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_and_truncation_are_typed_errors() {
        let dir = tmp_dir("corrupt");
        let cfg = CeaffConfig::default();
        let ck = Checkpointer::create(&dir, CheckpointPolicy::PerStage, &cfg).unwrap();
        ck.save("x.bin", &[7u8; 64]).unwrap();
        ceaff_faultinject::flip_byte(dir.join("x.bin"), 10).unwrap();
        match ck.load("x.bin") {
            Err(CeaffError::Checkpoint { file, reason }) => {
                assert_eq!(file, "x.bin");
                assert!(reason.contains("crc32"), "{reason}");
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
        ck.save("y.bin", &[1u8; 64]).unwrap();
        ceaff_faultinject::truncate_file(dir.join("y.bin"), 10).unwrap();
        match ck.load("y.bin") {
            Err(CeaffError::Checkpoint { reason, .. }) => {
                assert!(reason.contains("truncated"), "{reason}")
            }
            other => panic!("expected checkpoint error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_with_a_different_config_is_rejected() {
        let dir = tmp_dir("fingerprint");
        let cfg = CeaffConfig::default();
        Checkpointer::create(&dir, CheckpointPolicy::PerStage, &cfg).unwrap();
        let mut other = cfg.clone();
        other.gcn.epochs += 1;
        let err = Checkpointer::create(&dir, CheckpointPolicy::PerStage, &other).unwrap_err();
        assert!(matches!(err, CeaffError::Checkpoint { .. }));
        // Same config re-opens fine, and `open` recovers it.
        let ck = Checkpointer::create(&dir, CheckpointPolicy::EveryNEpochs(5), &cfg).unwrap();
        assert_eq!(ck.policy().epoch_interval(), Some(5));
        let (reopened, recovered) = Checkpointer::open(&dir).unwrap();
        assert_eq!(reopened.policy(), CheckpointPolicy::EveryNEpochs(5));
        assert_eq!(recovered.gcn.epochs, cfg.gcn.epochs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_without_a_run_directory_fails() {
        let err = Checkpointer::open("/definitely/not/a/run/dir").unwrap_err();
        assert!(matches!(err, CeaffError::Checkpoint { .. }));
    }

    #[test]
    fn zero_epoch_interval_is_rejected_with_a_typed_error() {
        let dir = tmp_dir("zero-interval");
        let err = Checkpointer::create(
            &dir,
            CheckpointPolicy::EveryNEpochs(0),
            &CeaffConfig::default(),
        )
        .unwrap_err();
        match err {
            CeaffError::InvalidConfig(msg) => assert!(msg.contains("at least 1"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Nothing was written before the rejection.
        assert!(!dir.join("config.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
