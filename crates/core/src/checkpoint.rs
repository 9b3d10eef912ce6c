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
use crate::pipeline::CeaffConfig;
use ceaff_tensor::{Matrix, OptimSlot, OptimState};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Version tag written into `config.json` and checked on open, so a
/// future layout change fails loudly instead of mis-parsing old runs.
pub const FORMAT_VERSION: u32 = 1;

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

fn crc32_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC32 checksum (IEEE) of a byte slice — the integrity check attached
/// to every checkpoint artifact.
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
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

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
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
/// result, so a mismatch is a hard error.
pub(crate) fn config_fingerprint(cfg: &CeaffConfig) -> Result<u32, CeaffError> {
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
    /// must have been produced by the *same* configuration — a
    /// fingerprint mismatch is a [`CeaffError::Checkpoint`] error, since
    /// resuming under different hyperparameters would corrupt the run.
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
        let json = serde_json::to_string_pretty(&envelope)
            .map_err(|e| ckpt_err("config.json", format!("cannot serialize: {e}")))?;
        atomic_write(&config_path, json.as_bytes())
            .map_err(|e| ckpt_err("config.json", format!("cannot write: {e}")))?;
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
        if envelope.version != FORMAT_VERSION {
            return Err(ckpt_err(
                "config.json",
                format!(
                    "format version {} is not the supported {FORMAT_VERSION}",
                    envelope.version
                ),
            ));
        }
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

    fn read_envelope(path: &Path) -> Result<ConfigEnvelope, CeaffError> {
        let bytes =
            read_file(path).map_err(|e| ckpt_err("config.json", format!("cannot read: {e}")))?;
        let text =
            String::from_utf8(bytes).map_err(|_| ckpt_err("config.json", "not valid UTF-8"))?;
        serde_json::from_str(&text).map_err(|e| ckpt_err("config.json", format!("bad JSON: {e}")))
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
        let bytes =
            read_file(&path).map_err(|e| ckpt_err("manifest.json", format!("cannot read: {e}")))?;
        let text =
            String::from_utf8(bytes).map_err(|_| ckpt_err("manifest.json", "not valid UTF-8"))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| ckpt_err("manifest.json", format!("bad JSON: {e}")))?;
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
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| ckpt_err("manifest.json", format!("cannot serialize: {e}")))?;
        atomic_write(&self.manifest_path(), json.as_bytes())
            .map_err(|e| ckpt_err("manifest.json", format!("cannot write: {e}")))
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
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| ckpt_err("manifest.json", format!("cannot serialize: {e}")))?;
        atomic_write(&self.manifest_path(), json.as_bytes())
            .map_err(|e| ckpt_err("manifest.json", format!("cannot write: {e}")))?;
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
    match &s.best {
        None => w.u8(0),
        Some((score, z1, z2)) => {
            w.u8(1);
            w.f64(*score);
            w.matrix(z1);
            w.matrix(z2);
        }
    }
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
    let best = match r.u8()? {
        0 => None,
        1 => Some((r.f64()?, r.matrix()?, r.matrix()?)),
        other => return Err(format!("bad best-snapshot tag {other}")),
    };
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
// Stage-output artifacts
// ---------------------------------------------------------------------------

/// Encode a structural-stage result: normalized embeddings, the test
/// similarity matrix, and the loss curve — everything
/// `StructuralFeature::from_saved_parts` needs.
pub(crate) fn encode_structural(
    z_source: &Matrix,
    z_target: &Matrix,
    test: &Matrix,
    loss_curve: &[f32],
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.matrix(z_source);
    w.matrix(z_target);
    w.matrix(test);
    w.f32s(loss_curve);
    w.into_bytes()
}

pub(crate) fn decode_structural(
    bytes: &[u8],
) -> Result<(Matrix, Matrix, Matrix, Vec<f32>), String> {
    let mut r = ByteReader::new(bytes);
    Ok((r.matrix()?, r.matrix()?, r.matrix()?, r.f32s()?))
}

/// Encode a semantic- (or any two-embedding-) stage result.
pub(crate) fn encode_embedding_stage(
    n_source: &Matrix,
    n_target: &Matrix,
    test: &Matrix,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.matrix(n_source);
    w.matrix(n_target);
    w.matrix(test);
    w.into_bytes()
}

pub(crate) fn decode_embedding_stage(bytes: &[u8]) -> Result<(Matrix, Matrix, Matrix), String> {
    let mut r = ByteReader::new(bytes);
    Ok((r.matrix()?, r.matrix()?, r.matrix()?))
}

/// Encode a string-stage result (names are rebuilt from the KG pair).
pub(crate) fn encode_matrix_stage(test: &Matrix) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.matrix(test);
    w.into_bytes()
}

pub(crate) fn decode_matrix_stage(bytes: &[u8]) -> Result<Matrix, String> {
    let mut r = ByteReader::new(bytes);
    r.matrix()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
        assert!(r.is_empty());
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
        // Every decode path rejects truncation.
        for cut in [1usize, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_train_state(&bytes[..cut]).is_err(), "cut at {cut}");
        }
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
