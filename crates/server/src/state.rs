//! The warm alignment state a server instance loads once and every
//! request reads — plus the optional incremental engine behind
//! `POST /delta` that advances it between snapshots.

use crate::wal::{self, Wal, WalOptions, WalStatus};
use crate::ServerError;
use ceaff_core::{
    run_decision_budgeted, AlignmentDiff, CeaffConfig, CeaffError, DecisionOutput, DeltaFeatures,
    DeltaState, EaInput, ExecBudget, MatcherKind, Telemetry,
};
use ceaff_embed::{PairEmbedders, SubwordEmbedder, WordEmbedder};
use ceaff_graph::io::{self, LoadMode};
use ceaff_graph::{KgDelta, KgPair, KnowledgeGraph};
use ceaff_sim::SimStore;
use rand::SeedableRng;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// One immutable, internally-consistent snapshot of the servable state:
/// the fused similarity store over the test split and the entity-name
/// tables backing `/topk` and `/align`. Handlers take one snapshot per
/// request ([`WarmState::snapshot`]) and never observe a half-applied
/// delta; repeated identical requests against the same snapshot return
/// byte-identical responses.
pub struct ServeCore {
    /// Fused similarity over the test split (feature generation + fusion
    /// already applied).
    pub fused: SimStore,
    /// Row index → source entity name.
    pub source_names: Vec<String>,
    /// Column index → target entity name.
    pub target_names: Vec<String>,
    /// `(step, fingerprint)` of the incremental state this snapshot was
    /// cut from; `None` on a server without an incremental engine.
    pub incremental: Option<(usize, u32)>,
    /// The write-ahead log's counters as of this snapshot; `None` on a
    /// server loaded without a WAL directory.
    pub wal: Option<WalStatus>,
    /// Source entity name → row index.
    source_index: HashMap<String, usize>,
}

impl ServeCore {
    fn from_parts(
        fused: SimStore,
        source_names: Vec<String>,
        target_names: Vec<String>,
        incremental: Option<(usize, u32)>,
        wal: Option<WalStatus>,
    ) -> Self {
        assert_eq!(fused.sources(), source_names.len(), "row/name mismatch");
        assert_eq!(fused.targets(), target_names.len(), "col/name mismatch");
        let source_index = source_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), i))
            .collect();
        ServeCore {
            fused,
            source_names,
            target_names,
            incremental,
            wal,
            source_index,
        }
    }

    /// Cut a snapshot from warm incremental state and its log.
    fn of_delta_state(state: &DeltaState, wal: Option<&Wal>) -> Self {
        let (source_names, target_names) = test_names(state.pair());
        ServeCore::from_parts(
            state.output().fused.clone(),
            source_names,
            target_names,
            Some((state.step(), state.fingerprint())),
            wal.map(Wal::status),
        )
    }

    /// Row index of a source entity name.
    pub fn source_row(&self, name: &str) -> Option<usize> {
        self.source_index.get(name).copied()
    }

    /// Top-`k` targets for source row `i`, as `(target name, score)`
    /// descending (ties by column index, matching the sparse store's
    /// canonical row order).
    pub fn topk(&self, i: usize, k: usize) -> Vec<(&str, f32)> {
        let mut entries: Vec<(f32, usize)> = match &self.fused {
            SimStore::Dense(m) => (0..m.targets()).map(|j| (m.get(i, j), j)).collect(),
            SimStore::Sparse(sp) => {
                let (cols, scores) = sp.row_entries(i);
                scores
                    .iter()
                    .zip(cols)
                    .map(|(&v, &j)| (v, j as usize))
                    .collect()
            }
        };
        entries.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("similarity scores must not be NaN")
                .then(a.1.cmp(&b.1))
        });
        entries.truncate(k);
        entries
            .into_iter()
            .map(|(v, j)| (self.target_names[j].as_str(), v))
            .collect()
    }

    /// Run one budgeted alignment decision over this snapshot (the
    /// `/align` body). Read-only.
    pub fn decide(
        &self,
        matcher: MatcherKind,
        budget: &ExecBudget,
        telemetry: &Telemetry,
    ) -> Result<DecisionOutput, CeaffError> {
        run_decision_budgeted(&self.fused, matcher, budget, telemetry)
    }
}

/// The mutable half of an incremental server: warm [`DeltaState`] plus
/// the embedders edits are materialised through. Lives behind its own
/// mutex so an in-flight `POST /delta` never blocks readers — they keep
/// serving the previous snapshot until the swap.
struct DeltaEngine {
    state: DeltaState,
    embedders: PairEmbedders,
    /// The write-ahead log, when the server was loaded durably. Appends
    /// happen under the engine mutex, between the in-memory apply and
    /// the snapshot swap — a delta is acknowledged only once durable.
    wal: Option<Wal>,
}

/// Everything the serving path needs: an atomically-swappable snapshot
/// ([`ServeCore`]) that requests read, and — when the server was loaded
/// with [`LoadOptions::incremental`] — the delta engine that `POST
/// /delta` advances. A panicking, degraded, or cancelled request cannot
/// poison either: requests read snapshots, and a failed delta leaves the
/// engine untouched (deltas are atomic end to end).
pub struct WarmState {
    core: RwLock<Arc<ServeCore>>,
    /// Matcher `/align` runs (per request, under that request's budget).
    pub matcher: MatcherKind,
    engine: Option<Mutex<DeltaEngine>>,
    /// How this state came to be (cold build vs snapshot + replay);
    /// `None` when loaded without a WAL directory.
    recovery: Option<RecoveryReport>,
}

/// How a durable load rebuilt its warm state — the restart banner's and
/// the e2e suite's evidence that a warm restart did *not* recompute
/// features.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when no usable snapshot existed and the full pipeline ran.
    pub cold: bool,
    /// Step of the snapshot the state was decoded from, if any.
    pub snapshot_step: Option<usize>,
    /// WAL frames replayed on top of the snapshot (or the cold build).
    pub replayed: usize,
    /// Whether a torn tail was dropped from the newest log generation.
    pub torn_tail_dropped: bool,
    /// Snapshot files skipped for CRC/decode/config mismatches before
    /// one was accepted.
    pub snapshots_skipped: usize,
}

/// Options for [`WarmState::load_dir`], mirroring the CLI's `align`
/// knobs that matter for serving.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Embedding dimension (GCN + word vectors).
    pub dim: usize,
    /// GCN training epochs for the structural feature.
    pub epochs: usize,
    /// Seed fraction of the gold links (the rest become the servable
    /// test split).
    pub seed_fraction: f64,
    /// RNG seed for the split.
    pub rng_seed: u64,
    /// Matcher `/align` uses.
    pub matcher: MatcherKind,
    /// `Some(k)`: trigram blocking with per-row candidate cap `k`
    /// (sparse top-k stores); `None`: dense scoring.
    pub blocked_topk: Option<usize>,
    /// Skip malformed TSV lines instead of failing the load.
    pub lossy: bool,
    /// `Some(layers)`: accept `POST /delta` edits, recomputing only the
    /// dirty region of each feature store. Implies the training-free
    /// propagation structural encoder with this many layers (the trained
    /// GCN has no dirty region smaller than the whole KG). `None`: the
    /// warm state is immutable and `/delta` answers 409.
    pub incremental: Option<usize>,
    /// `Some`: durable incremental serving — deltas are WAL-logged and
    /// the warm state periodically snapshotted under this directory, and
    /// the load itself becomes a *recovery* (latest valid snapshot + WAL
    /// tail replay instead of recomputing features). Requires
    /// [`LoadOptions::incremental`].
    pub wal: Option<WalOptions>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            dim: 64,
            epochs: 100,
            seed_fraction: 0.3,
            rng_seed: 7,
            matcher: MatcherKind::StableMarriage,
            blocked_topk: None,
            lossy: false,
            incremental: None,
            wal: None,
        }
    }
}

impl WarmState {
    /// Wrap an already-fused store (the test-support constructor; the
    /// binary path goes through [`WarmState::load_dir`]). No incremental
    /// engine: `/delta` answers 409.
    pub fn from_parts(
        fused: SimStore,
        matcher: MatcherKind,
        source_names: Vec<String>,
        target_names: Vec<String>,
    ) -> Self {
        WarmState {
            core: RwLock::new(Arc::new(ServeCore::from_parts(
                fused,
                source_names,
                target_names,
                None,
                None,
            ))),
            matcher,
            engine: None,
            recovery: None,
        }
    }

    /// Load an OpenEA-style benchmark directory, run feature generation +
    /// fusion once (the expensive part), and keep the fused store warm.
    /// Mirrors the CLI `align` load path: subword embedders, with the
    /// target side routed through `lexicon.tsv` when the directory has
    /// one.
    pub fn load_dir(
        dir: &Path,
        opts: &LoadOptions,
        telemetry: &Telemetry,
    ) -> Result<Self, ServerError> {
        let mode = if opts.lossy {
            LoadMode::Lossy
        } else {
            LoadMode::Strict
        };
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.rng_seed);
        let (pair, _report) = io::load_pair_from_dir_with(dir, opts.seed_fraction, &mut rng, mode)
            .map_err(|e| ServerError::Load(format!("cannot load {}: {e}", dir.display())))?;

        let embedders = PairEmbedders::load(opts.dim, PairEmbedders::lexicon_in(dir).as_deref())
            .map_err(|e| ServerError::Load(e.to_string()))?;
        let (base, target_embedder) = (embedders.source(), embedders.target());

        let mut cfg = CeaffConfig::default();
        cfg.gcn.dim = opts.dim;
        cfg.gcn.epochs = opts.epochs;
        cfg.embed_dim = opts.dim;
        cfg.matcher = opts.matcher;
        if let Some(k) = opts.blocked_topk {
            cfg = cfg.with_blocking(k);
        }

        if opts.wal.is_some() && opts.incremental.is_none() {
            return Err(ServerError::Load(
                "a WAL directory requires incremental mode (--incremental)".into(),
            ));
        }
        if let Some(layers) = opts.incremental {
            let cfg = cfg.with_propagation(layers);
            let (state, wal, recovery) = match &opts.wal {
                None => {
                    let input = EaInput::new(&pair, base, target_embedder)
                        .with_telemetry(telemetry.child());
                    (DeltaState::new(&input, &cfg)?, None, None)
                }
                Some(walopts) => {
                    let (state, wal, report) =
                        recover_durable(walopts, &cfg, &pair, base, target_embedder, telemetry)?;
                    (state, Some(wal), Some(report))
                }
            };
            let core = ServeCore::of_delta_state(&state, wal.as_ref());
            return Ok(WarmState {
                core: RwLock::new(Arc::new(core)),
                matcher: opts.matcher,
                engine: Some(Mutex::new(DeltaEngine {
                    state,
                    embedders,
                    wal,
                })),
                recovery,
            });
        }

        let input = EaInput::new(&pair, base, target_embedder).with_telemetry(telemetry.child());
        let out = ceaff_core::try_run(&input, &cfg)?;
        let (source_names, target_names) = test_names(&pair);
        Ok(WarmState::from_parts(
            out.fused,
            opts.matcher,
            source_names,
            target_names,
        ))
    }

    /// The current servable snapshot. Cheap (one `Arc` clone under a
    /// read lock); handlers take exactly one per request so every read
    /// within the request is consistent.
    pub fn snapshot(&self) -> Arc<ServeCore> {
        self.core.read().expect("core lock").clone()
    }

    /// Whether `POST /delta` is supported (the state was loaded with
    /// [`LoadOptions::incremental`]).
    pub fn is_incremental(&self) -> bool {
        self.engine.is_some()
    }

    /// Apply one edit batch to the warm incremental state, then publish a
    /// fresh snapshot. Serialised across callers by the engine mutex;
    /// readers keep the previous snapshot until the swap, so they never
    /// block on an in-flight delta. On error the engine *and* the
    /// snapshot are untouched.
    ///
    /// Panics if the state has no incremental engine — callers gate on
    /// [`WarmState::is_incremental`].
    pub fn apply_delta(
        &self,
        delta: &KgDelta,
        budget: &ExecBudget,
    ) -> Result<AlignmentDiff, CeaffError> {
        let engine = self
            .engine
            .as_ref()
            .expect("apply_delta requires incremental mode");
        let mut engine = engine.lock().expect("engine lock");
        let DeltaEngine {
            state,
            embedders,
            wal,
        } = &mut *engine;
        let diff = state.apply_budgeted(delta, embedders.source(), embedders.target(), budget)?;
        // Durability before visibility: the frame (and, when due, a
        // snapshot) must be fsynced before readers — or the client ack —
        // can observe the new step. On failure the log poisons itself
        // (subsequent deltas are refused; a restart re-syncs from disk)
        // and readers keep the last published snapshot.
        if let Some(wal) = wal {
            let wal_err = |e: wal::WalError| CeaffError::Checkpoint {
                file: "wal".into(),
                reason: e.to_string(),
            };
            wal.append(delta, state.step(), state.fingerprint())
                .map_err(wal_err)?;
            if wal.snapshot_due() {
                let payload = ceaff_core::snapshot::encode_delta_state(state)?;
                wal.install_snapshot(&payload).map_err(wal_err)?;
            }
        }
        let core = Arc::new(ServeCore::of_delta_state(state, wal.as_ref()));
        *self.core.write().expect("core lock") = core;
        Ok(diff)
    }

    /// Durability counters for `/status`; `None` when the state was
    /// loaded without a WAL directory. Read from the current snapshot,
    /// so an in-flight delta holding the engine mutex never blocks this.
    pub fn durability(&self) -> Option<WalStatus> {
        self.snapshot().wal
    }

    /// How a durable load rebuilt this state; `None` without a WAL
    /// directory.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }
}

/// The test split's source and target names, in row and column order.
fn test_names(pair: &KgPair) -> (Vec<String>, Vec<String>) {
    let name = |kg: &KnowledgeGraph, e| kg.entity_name(e).expect("interned").to_owned();
    pair.test_pairs()
        .iter()
        .map(|&(u, v)| (name(&pair.source, u), name(&pair.target, v)))
        .unzip()
}

/// Rebuild warm state from a WAL directory: newest valid snapshot (with
/// fallback to the previous generation), then the WAL tail. The tail's
/// fingerprint chain is proven frame by frame before any delta is
/// replayed, and the replay decides once ([`DeltaState::replay`]). Only
/// when no snapshot is usable are the features computed
/// ([`DeltaFeatures::new`]) — and even then the log's contiguous history
/// is replayed into them before the one decision. Returns the recovered
/// state, an opened log positioned for the next append, and the report.
fn recover_durable(
    walopts: &WalOptions,
    cfg: &CeaffConfig,
    pair: &KgPair,
    base: &SubwordEmbedder,
    target: &dyn WordEmbedder,
    telemetry: &Telemetry,
) -> Result<(DeltaState, Wal, RecoveryReport), ServerError> {
    let rec = wal::recover(&walopts.dir).map_err(|e| ServerError::Load(e.to_string()))?;

    let mut snapshots_skipped = rec.skipped_snapshots;
    let chosen = rec.snapshots.iter().find_map(|(step, payload)| {
        let state = ceaff_core::snapshot::decode_delta_state(payload, cfg);
        snapshots_skipped += usize::from(state.is_err());
        Some((*step, state.ok()?.with_telemetry(telemetry.child())))
    });
    // A cold start is at step 0 under the configuration's fingerprint, so
    // the chain is proven before anything is computed.
    let (mut step, mut fingerprint) = match &chosen {
        Some((_, state)) => (state.step(), state.fingerprint()),
        None => (0, ceaff_core::checkpoint::config_fingerprint(cfg)?),
    };
    let tail: Vec<&wal::Frame> = rec.frames.iter().filter(|f| f.step > step).collect();
    for frame in &tail {
        if frame.step != step + 1 {
            return Err(ServerError::Load(format!(
                "wal replay gap: recovered state is at step {step} but the next durable frame \
                 is step {} — the log no longer reaches back to a usable snapshot",
                frame.step
            )));
        }
        fingerprint = ceaff_core::chain_fingerprint(fingerprint, &frame.delta)?;
        step += 1;
        if fingerprint != frame.fingerprint {
            return Err(ServerError::Load(format!(
                "fingerprint chain broke at replayed step {step}: frame recorded {:#010x}, \
                 replay produced {fingerprint:#010x}",
                frame.fingerprint
            )));
        }
    }
    let replayed = tail.len();
    let deltas = tail.iter().map(|f| &f.delta);
    let (snapshot_step, state) = match chosen {
        Some((step, state)) => (Some(step), state.replay(deltas, base, target)?),
        None => {
            // No usable snapshot: compute the features, replay the whole
            // log into them, and decide once.
            let run = telemetry.child();
            let input = EaInput::new(pair, base, target).with_telemetry(run.clone());
            let mut features = DeltaFeatures::new(&input, cfg)?;
            features.replay(deltas, base, target, &run)?;
            (None, features.decide(run)?)
        }
    };

    let gen = rec.max_gen.unwrap_or(0).max(snapshot_step.unwrap_or(0));
    let mut wal = Wal::open(
        walopts.clone(),
        gen,
        state.step(),
        snapshot_step.unwrap_or(0),
    )
    .map_err(|e| ServerError::Load(e.to_string()))?;
    // Guarantee a usable base on disk: first durable start writes
    // snap-0, and a recovery that replayed a full interval's worth of
    // frames (or fell back cold) re-snapshots immediately.
    let needs_snapshot = match snapshot_step {
        None => true,
        Some(step) => walopts.snapshot_every > 0 && state.step() - step >= walopts.snapshot_every,
    };
    if needs_snapshot {
        let payload = ceaff_core::snapshot::encode_delta_state(&state)?;
        wal.install_snapshot(&payload)
            .map_err(|e| ServerError::Load(e.to_string()))?;
    }
    let report = RecoveryReport {
        cold: snapshot_step.is_none(),
        snapshot_step,
        replayed,
        torn_tail_dropped: rec.torn_tail_dropped,
        snapshots_skipped,
    };
    Ok((state, wal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_sim::SimilarityMatrix;

    fn tiny_state() -> WarmState {
        let mut m = SimilarityMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                m.set(i, j, if i == j { 0.9 } else { 0.1 * (j as f32 + 1.0) });
            }
        }
        WarmState::from_parts(
            SimStore::Dense(m),
            MatcherKind::StableMarriage,
            vec!["a".into(), "b".into(), "c".into()],
            vec!["x".into(), "y".into(), "z".into()],
        )
    }

    #[test]
    fn topk_orders_by_score_then_column() {
        let core = tiny_state().snapshot();
        let row = core.source_row("b").unwrap();
        let top = core.topk(row, 2);
        assert_eq!(top[0], ("y", 0.9));
        assert_eq!(top[1], ("z", 0.3));
        assert!(core.source_row("nope").is_none());
    }

    #[test]
    fn decide_is_exact_under_unlimited_budget() {
        let core = tiny_state().snapshot();
        let out = core
            .decide(
                MatcherKind::StableMarriage,
                &ExecBudget::unlimited(),
                &Telemetry::disabled(),
            )
            .unwrap();
        assert!(out.degradation.is_none());
        assert_eq!(out.matching.len(), 3);
        assert!((out.accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_parts_state_is_not_incremental() {
        let state = tiny_state();
        assert!(!state.is_incremental());
        assert_eq!(state.snapshot().incremental, None);
    }
}
