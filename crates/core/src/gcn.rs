//! The 2-layer GCN structural encoder (paper §IV-A).
//!
//! Two GCNs — one per KG — **share** their layer weights `W1, W2 ∈ R^{d×d}`
//! and are trained to place seed-aligned entities close under L1 distance
//! via the margin-based ranking loss of Eq. 1, with negative pairs obtained
//! by corrupting seeds (5 uniform corruptions per positive by default).
//! Input features `X` are sampled from a truncated normal and L2-normalised
//! on rows ("to capture pure structural signal"); the adjacency follows
//! GCN-Align's relation-functionality weighting.
//!
//! One deliberate deviation from the paper's complexity paragraph (which
//! counts only `2·d²` parameters): like the GCN-Align implementation the
//! paper builds on, the input feature matrices are trainable by default —
//! with frozen random inputs the shared `d×d` weights alone cannot align
//! two disjoint random feature spaces. Set
//! [`GcnConfig::train_input`] `= false` for the strictly-literal variant.

use crate::budget::ExecBudget;
use crate::checkpoint::{self, Checkpointer, GcnTrainState};
use crate::error::CeaffError;
use ceaff_graph::{build_adjacency, AdjacencyKind, KgPair};
use ceaff_telemetry::Telemetry;
use ceaff_tensor::{init, Adam, Graph, Matrix, Optimizer, ParamSet, Sgd};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Bounded numeric-recovery attempts before training gives up with
/// [`CeaffError::NumericDivergence`]. A module constant (not a
/// [`GcnConfig`] field) so existing serialized configurations stay valid.
pub const MAX_NUMERIC_RETRIES: usize = 3;

/// Epoch cadence of the in-memory rollback snapshot when no checkpoint
/// interval is armed; with [`crate::checkpoint::CheckpointPolicy::EveryNEpochs`]
/// the snapshot follows the checkpoint cadence instead.
const RECOVERY_SNAPSHOT_INTERVAL: usize = 10;

/// Inter-layer activation of the GCN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit (the paper's choice).
    Relu,
    /// No activation (linear propagation).
    Linear,
}

/// Which optimizer trains the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimKind {
    /// Plain stochastic gradient descent (the paper's choice).
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Adam — steadier on the scaled-down single-core configuration.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

/// GCN training configuration. Paper values: `ds = 300`, `γ = 3`,
/// 300 epochs, 5 negatives per positive (§VII-A); dimension and epochs are
/// scaled down by default for the single-core environment.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GcnConfig {
    /// Embedding dimensionality `ds` (kept equal across layers, as in the
    /// paper).
    pub dim: usize,
    /// Training epochs (full-batch over the seed set).
    pub epochs: usize,
    /// Margin `γ` of the ranking loss.
    pub margin: f32,
    /// Negative samples per positive seed pair.
    pub negatives: usize,
    /// Optimizer.
    pub optimizer: OptimKind,
    /// Adjacency construction strategy.
    pub adjacency: AdjacencyKind,
    /// Whether the input feature matrices are trained (see module docs).
    pub train_input: bool,
    /// Tie the input features of seed-aligned entity pairs after every
    /// optimizer step (averaging the two rows). This is the "fusing the
    /// training corpus" technique of §II — several of the paper's cited
    /// methods project both KGs into one space by merging seeds — and it
    /// substantially strengthens the structural signal when the seed set
    /// is small. Disable for the strictly-GCN-Align-literal encoder.
    pub tie_seed_inputs: bool,
    /// Initialise the shared layer weights as the identity instead of
    /// Xavier noise, so the untrained forward pass is pure neighbourhood
    /// propagation (which already carries the seed-anchor overlap signal)
    /// and training only refines it.
    pub identity_weights: bool,
    /// Inter-layer activation. The paper's GCN uses ReLU; with the
    /// seed-anchored signed anchors a linear first layer preserves twice
    /// the signal, so `Linear` is the default here (deviation documented).
    pub activation: Activation,
    /// Sample negatives from the `hard_negative_pool` nearest entities of
    /// the corrupted side (recomputed every `hard_negative_refresh`
    /// epochs) instead of uniformly — BootEA's ε-truncated negative
    /// sampling, which the margin loss needs to discriminate among
    /// near-duplicates. `0` disables (uniform corruption only).
    pub hard_negative_pool: usize,
    /// Epochs between hard-negative pool refreshes.
    pub hard_negative_refresh: usize,
    /// Fraction of the seed alignment held out for early stopping: every
    /// `validate_every` epochs the current embeddings are scored by Hits@1
    /// of the held-out pairs (cosine, against all target entities) and the
    /// best snapshot is returned. Small seed sets overfit the margin loss
    /// quickly; validation-based selection keeps whatever amount of
    /// training actually helps. `0.0` disables (the last epoch wins).
    pub validation_fraction: f64,
    /// Epochs between validation snapshots.
    pub validate_every: usize,
    /// RNG seed for init and negative sampling.
    pub seed: u64,
}

impl GcnConfig {
    /// Number of *weight* parameters: `2 · ds²` — the paper's complexity
    /// analysis ("the total number of parameters is 2 × ds × ds", §IV-A),
    /// which counts only the shared layer matrices `W1, W2`.
    pub fn num_weight_parameters(&self) -> usize {
        2 * self.dim * self.dim
    }

    /// Total trainable parameters for a given KG pair, including the input
    /// feature matrices when `train_input` is on — the count the
    /// implementation actually optimises.
    pub fn num_trainable_parameters(&self, n_source: usize, n_target: usize) -> usize {
        let weights = self.num_weight_parameters();
        if self.train_input {
            weights + (n_source + n_target) * self.dim
        } else {
            weights
        }
    }
}

impl Default for GcnConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            epochs: 100,
            margin: 3.0,
            negatives: 5,
            optimizer: OptimKind::Adam { lr: 0.02 },
            adjacency: AdjacencyKind::Functionality,
            train_input: true,
            tie_seed_inputs: true,
            identity_weights: true,
            activation: Activation::Linear,
            hard_negative_pool: 20,
            hard_negative_refresh: 20,
            validation_fraction: 0.1,
            validate_every: 10,
            seed: 0x0067_636e,
        }
    }
}

/// A trained encoder: final structural embeddings of both KGs (rows indexed
/// by entity id).
#[derive(Debug, Clone)]
pub struct GcnEncoder {
    /// Source-KG embeddings `Z₁` (`|E1| × d`).
    pub z_source: Matrix,
    /// Target-KG embeddings `Z₂` (`|E2| × d`).
    pub z_target: Matrix,
    /// Training-loss trajectory (one value per epoch), for diagnostics.
    pub loss_curve: Vec<f32>,
}

struct Layers {
    x1: ceaff_tensor::ParamId,
    x2: ceaff_tensor::ParamId,
    w1: ceaff_tensor::ParamId,
    w2: ceaff_tensor::ParamId,
}

fn forward(
    g: &mut Graph,
    adj: &Rc<ceaff_graph::CsrMatrix>,
    x: ceaff_tensor::Var,
    w1: ceaff_tensor::Var,
    w2: ceaff_tensor::Var,
    activation: Activation,
) -> ceaff_tensor::Var {
    let h = g.spmm(Rc::clone(adj), x);
    let h = g.matmul(h, w1);
    let h = match activation {
        Activation::Relu => g.relu(h),
        Activation::Linear => h,
    };
    let h = g.spmm(Rc::clone(adj), h);
    g.matmul(h, w2)
}

/// Identity matrix initialiser for the shared layer weights.
fn identity(dim: usize) -> Matrix {
    let mut m = Matrix::zeros(dim, dim);
    for i in 0..dim {
        m[(i, i)] = 1.0;
    }
    m
}

/// Train the shared-weight GCN pair on `pair`'s seed alignment:
/// [`try_train_budgeted`] with telemetry off, no checkpointer and an
/// unlimited budget.
///
/// # Panics
/// Panics with the typed error's text when training fails.
pub fn train(pair: &KgPair, cfg: &GcnConfig) -> GcnEncoder {
    try_train_budgeted(
        pair,
        cfg,
        &Telemetry::disabled(),
        None,
        &ExecBudget::unlimited(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Capture everything needed to re-enter the training loop at an epoch
/// boundary — used both for the on-disk checkpoint artifact and for the
/// in-memory numeric-recovery rollback snapshot.
#[allow(clippy::too_many_arguments)]
fn capture_state(
    next_epoch: usize,
    retries: usize,
    params: &ParamSet,
    layers: &Layers,
    opt: &dyn Optimizer,
    rng: &ChaCha8Rng,
    loss_curve: &[f32],
    pool_u: &[Vec<u32>],
    pool_v: &[Vec<u32>],
    best: &Option<(f64, Matrix, Matrix)>,
) -> GcnTrainState {
    GcnTrainState {
        next_epoch,
        retries,
        params: [layers.x1, layers.x2, layers.w1, layers.w2]
            .iter()
            .map(|&id| params.get(id).clone())
            .collect(),
        opt: opt.state(),
        rng_words: rng.state_words(),
        loss_curve: loss_curve.to_vec(),
        pool_u: pool_u.to_vec(),
        pool_v: pool_v.to_vec(),
        best: best.clone(),
    }
}

/// Overwrite the live training state with a snapshot. The prologue
/// (splits, adjacencies, index lists) is deterministic and already
/// replayed by the caller; only the mutable trajectory is restored here.
#[allow(clippy::too_many_arguments)]
fn restore_state(
    state: &GcnTrainState,
    params: &mut ParamSet,
    layers: &Layers,
    opt: &mut dyn Optimizer,
    rng: &mut ChaCha8Rng,
    loss_curve: &mut Vec<f32>,
    pool_u: &mut Vec<Vec<u32>>,
    pool_v: &mut Vec<Vec<u32>>,
    best: &mut Option<(f64, Matrix, Matrix)>,
) -> Result<(), CeaffError> {
    let ids = [layers.x1, layers.x2, layers.w1, layers.w2];
    if state.params.len() != ids.len() {
        return Err(CeaffError::Checkpoint {
            file: checkpoint::TRAIN_FILE.into(),
            reason: format!(
                "expected {} parameter matrices, found {}",
                ids.len(),
                state.params.len()
            ),
        });
    }
    for (&id, saved) in ids.iter().zip(&state.params) {
        let live = params.get(id);
        if (live.rows(), live.cols()) != (saved.rows(), saved.cols()) {
            return Err(CeaffError::Checkpoint {
                file: checkpoint::TRAIN_FILE.into(),
                reason: format!(
                    "parameter shape {}x{} does not match the run's {}x{}",
                    saved.rows(),
                    saved.cols(),
                    live.rows(),
                    live.cols()
                ),
            });
        }
        *params.get_mut(id) = saved.clone();
    }
    opt.restore(&state.opt)
        .map_err(|reason| CeaffError::Checkpoint {
            file: checkpoint::TRAIN_FILE.into(),
            reason,
        })?;
    *rng = ChaCha8Rng::from_state_words(state.rng_words);
    *loss_curve = state.loss_curve.clone();
    *pool_u = state.pool_u.clone();
    *pool_v = state.pool_v.clone();
    *best = state.best.clone();
    Ok(())
}

/// Fallible, checkpoint-aware training (the fault-tolerant entry point).
///
/// With a [`Checkpointer`] whose policy has an epoch interval, the full
/// training state (parameters, optimizer moments, RNG stream, loss curve,
/// negative pools, early-stopping snapshot) is atomically saved every `N`
/// epochs; a later call on the same run directory replays the
/// deterministic prologue and then continues from the saved boundary,
/// producing **bitwise-identical** embeddings to an uninterrupted run.
///
/// Every epoch's loss and gradients are scanned for non-finite values. On
/// the first bad value the loop rolls back to the last good in-memory
/// snapshot, halves the learning rate, and bumps the `numeric_recovery`
/// telemetry counter; after [`MAX_NUMERIC_RETRIES`] failed recoveries it
/// returns [`CeaffError::NumericDivergence`].
///
/// Training runs under `budget`. The granule is one epoch: each epoch
/// boundary consumes a budget step, polls the memory cap, and reports a
/// progress heartbeat. When the budget stops the run
/// before `cfg.epochs`, training ends at the last *completed* epoch, the
/// epilogue returns the best validation snapshot so far (exactly as if
/// `epochs` had been configured lower), and a `"gcn"` [`Degradation`]
/// record is registered with `telemetry`. A cancel or deadline that
/// fires *inside* an epoch's kernels leaves partially-written gradient
/// buffers behind — that epoch is discarded wholesale (no optimizer
/// step, no loss-curve entry) so corrupt data never reaches the
/// parameters.
///
/// An unlimited budget never stops the run. The whole run is timed under
/// the `"gcn"` stage, and with an active event stream every epoch emits
/// an `epoch_loss` and a `grad_norm` gauge.
///
/// [`Degradation`]: ceaff_telemetry::Degradation
pub fn try_train_budgeted(
    pair: &KgPair,
    cfg: &GcnConfig,
    telemetry: &Telemetry,
    checkpointer: Option<&Checkpointer>,
    budget: &ExecBudget,
) -> Result<GcnEncoder, CeaffError> {
    if cfg.dim == 0 || cfg.negatives == 0 {
        return Err(CeaffError::InvalidConfig(
            "gcn.dim and gcn.negatives must be positive".into(),
        ));
    }
    let _span = telemetry.span("gcn");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let n1 = pair.source.num_entities();
    let n2 = pair.target.num_entities();

    // Hold out part of the seed alignment for early stopping. Held-out
    // pairs take no part in anchoring, tying, or the loss.
    let mut all_seeds: Vec<(ceaff_graph::EntityId, ceaff_graph::EntityId)> = pair.seeds().to_vec();
    use rand::seq::SliceRandom;
    all_seeds.shuffle(&mut rng);
    let n_val =
        ((all_seeds.len() as f64) * cfg.validation_fraction.clamp(0.0, 0.5)).round() as usize;
    let val_seeds: Vec<_> = all_seeds.split_off(all_seeds.len() - n_val.min(all_seeds.len()));
    let train_seeds = all_seeds;
    let a1 = Rc::new(build_adjacency(&pair.source, cfg.adjacency));
    let a2 = Rc::new(build_adjacency(&pair.target, cfg.adjacency));

    let mut params = ParamSet::new();
    let mut x1_init = init::truncated_normal(n1, cfg.dim, 1.0, &mut rng);
    x1_init.l2_normalize_rows();
    let mut x2_init = init::truncated_normal(n2, cfg.dim, 1.0, &mut rng);
    x2_init.l2_normalize_rows();
    if cfg.tie_seed_inputs {
        // Seed-anchored initialisation: non-seed rows start at zero and
        // every seed pair shares one unit-norm random row, so the first
        // propagation already carries the seed-neighbourhood-overlap
        // signal instead of burying it under uncorrelated random features.
        // (A deliberate strengthening over the paper's plain random init —
        // see the module docs and DESIGN.md; disable via
        // `tie_seed_inputs: false` for the literal variant.)
        x1_init.fill_zero();
        x2_init.fill_zero();
        let mut anchor = init::truncated_normal(train_seeds.len().max(1), cfg.dim, 1.0, &mut rng);
        anchor.l2_normalize_rows();
        for (i, &(u, v)) in train_seeds.iter().enumerate() {
            x1_init.row_mut(u.index()).copy_from_slice(anchor.row(i));
            x2_init.row_mut(v.index()).copy_from_slice(anchor.row(i));
        }
    }
    let (w1_init, w2_init) = if cfg.identity_weights {
        (identity(cfg.dim), identity(cfg.dim))
    } else {
        (
            init::xavier_uniform(cfg.dim, cfg.dim, &mut rng),
            init::xavier_uniform(cfg.dim, cfg.dim, &mut rng),
        )
    };
    let layers = Layers {
        x1: params.add(x1_init),
        x2: params.add(x2_init),
        w1: params.add(w1_init),
        w2: params.add(w2_init),
    };
    let mut opt: Box<dyn Optimizer> = match cfg.optimizer {
        OptimKind::Sgd { lr } => Box::new(Sgd::new(lr)),
        OptimKind::Adam { lr } => Box::new(Adam::new(lr)),
    };

    let seeds: &[(ceaff_graph::EntityId, ceaff_graph::EntityId)] = &train_seeds;
    let mut loss_curve = Vec::with_capacity(cfg.epochs);
    if seeds.is_empty() {
        // Nothing to train on: return the (normalised) random propagation.
        let (z1, z2) = final_forward(&params, &layers, &a1, &a2, cfg.activation);
        return Ok(GcnEncoder {
            z_source: z1,
            z_target: z2,
            loss_curve,
        });
    }

    // Positive index lists, repeated once per negative sample.
    let pos_u: Vec<usize> = seeds.iter().map(|&(u, _)| u.index()).collect();
    let pos_v: Vec<usize> = seeds.iter().map(|&(_, v)| v.index()).collect();
    let rep_u: Rc<Vec<usize>> = Rc::new(
        pos_u
            .iter()
            .flat_map(|&u| std::iter::repeat_n(u, cfg.negatives))
            .collect(),
    );
    let rep_v: Rc<Vec<usize>> = Rc::new(
        pos_v
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, cfg.negatives))
            .collect(),
    );

    // Hard-negative pools: for each seed, the nearest entities to its two
    // endpoints under the current embeddings (ε-truncated sampling).
    let mut pool_u: Vec<Vec<u32>> = Vec::new();
    let mut pool_v: Vec<Vec<u32>> = Vec::new();

    // Early-stopping state: best validation score and its embeddings.
    let mut best: Option<(f64, Matrix, Matrix)> = None;
    let validate = |params: &ParamSet, best: &mut Option<(f64, Matrix, Matrix)>| {
        if val_seeds.is_empty() {
            return;
        }
        let (z1, z2) = final_forward(params, &layers, &a1, &a2, cfg.activation);
        let score = validation_hits1(&z1, &z2, &val_seeds);
        if best.as_ref().is_none_or(|(b, _, _)| score > *b) {
            *best = Some((score, z1, z2));
        }
    };

    // Resume: the prologue above replayed every deterministic draw from a
    // fresh seeded RNG; a verified training checkpoint now overwrites the
    // whole mutable trajectory, continuing the run at the saved boundary.
    let mut start_epoch = 0usize;
    let mut retries = 0usize;
    let mut resumed = false;
    if let Some(ck) = checkpointer {
        if let Some(bytes) = ck.load(checkpoint::TRAIN_FILE)? {
            let state = checkpoint::decode_train_state(&bytes).map_err(|reason| {
                CeaffError::Checkpoint {
                    file: checkpoint::TRAIN_FILE.into(),
                    reason,
                }
            })?;
            restore_state(
                &state,
                &mut params,
                &layers,
                &mut *opt,
                &mut rng,
                &mut loss_curve,
                &mut pool_u,
                &mut pool_v,
                &mut best,
            )?;
            start_epoch = state.next_epoch.min(cfg.epochs);
            retries = state.retries;
            resumed = true;
            telemetry.counter_add("checkpoint", "train_resumed", 1);
        }
    }
    if !resumed {
        // Only a fresh run scores the initial parameters: the resumed
        // trajectory already contains every validation snapshot up to the
        // boundary, and an extra comparison would change which epoch wins.
        validate(&params, &mut best);
    }

    let disk_interval = checkpointer.and_then(|c| c.policy().epoch_interval());
    let snap_interval = disk_interval.unwrap_or(RECOVERY_SNAPSHOT_INTERVAL).max(1);
    // The rollback target for numeric recovery (always armed, even without
    // a run directory — recovery is in-memory).
    let mut snap = capture_state(
        start_epoch,
        retries,
        &params,
        &layers,
        &*opt,
        &rng,
        &loss_curve,
        &pool_u,
        &pool_v,
        &best,
    );

    let mut epoch = start_epoch;
    let mut stopped = None;
    while epoch < cfg.epochs {
        ceaff_faultinject::abort_point(epoch);
        ceaff_faultinject::sigint_point(epoch);
        ceaff_faultinject::sigterm_point(epoch);
        if ceaff_faultinject::simulated_crash(epoch) {
            return Err(CeaffError::Checkpoint {
                file: checkpoint::TRAIN_FILE.into(),
                reason: format!("fault injection: simulated crash at epoch {epoch}"),
            });
        }
        if let Some(reason) = budget.consume_step() {
            stopped = Some(reason);
            break;
        }
        budget.check_mem("gcn")?;
        telemetry.progress("gcn", epoch as u64, cfg.epochs as u64);
        if cfg.hard_negative_pool > 0
            && (epoch == 0 || epoch.is_multiple_of(cfg.hard_negative_refresh.max(1)))
            && epoch + 1 < cfg.epochs
        {
            let (z1, z2) = final_forward(&params, &layers, &a1, &a2, cfg.activation);
            pool_u = nearest_pools(&z1, &pos_u, cfg.hard_negative_pool);
            pool_v = nearest_pools(&z2, &pos_v, cfg.hard_negative_pool);
        }
        // Fresh corruptions each epoch (S′ in Eq. 1): mostly hard
        // negatives from the pools, mixed with uniform exploration.
        let mut neg_u = Vec::with_capacity(rep_u.len());
        let mut neg_v = Vec::with_capacity(rep_v.len());
        for i in 0..rep_u.len() {
            let seed_idx = i / cfg.negatives;
            let hard = !pool_u.is_empty() && rng.gen_bool(0.8);
            if rng.gen_bool(0.5) {
                let cand = if hard {
                    let pool = &pool_u[seed_idx];
                    pool[rng.gen_range(0..pool.len())] as usize
                } else {
                    rng.gen_range(0..n1)
                };
                neg_u.push(cand);
                neg_v.push(rep_v[i]);
            } else {
                let cand = if hard {
                    let pool = &pool_v[seed_idx];
                    pool[rng.gen_range(0..pool.len())] as usize
                } else {
                    rng.gen_range(0..n2)
                };
                neg_u.push(rep_u[i]);
                neg_v.push(cand);
            }
        }
        let neg_u = Rc::new(neg_u);
        let neg_v = Rc::new(neg_v);

        let mut g = Graph::new();
        let x1 = g.leaf(params.get(layers.x1).clone());
        let x2 = g.leaf(params.get(layers.x2).clone());
        let w1 = g.leaf(params.get(layers.w1).clone());
        let w2 = g.leaf(params.get(layers.w2).clone());
        let z1 = forward(&mut g, &a1, x1, w1, w2, cfg.activation);
        let z2 = forward(&mut g, &a2, x2, w1, w2, cfg.activation);

        let pu = g.gather_rows(z1, Rc::clone(&rep_u));
        let pv = g.gather_rows(z2, Rc::clone(&rep_v));
        let nu = g.gather_rows(z1, neg_u);
        let nv = g.gather_rows(z2, neg_v);
        let pos_dist = g.row_l1_diff(pu, pv);
        let neg_dist = g.row_l1_diff(nu, nv);
        let loss = g.margin_ranking_loss(pos_dist, neg_dist, cfg.margin);
        let mut loss_value = g.value(loss)[(0, 0)];
        if ceaff_faultinject::nan_loss(epoch) {
            loss_value = f32::NAN;
        }

        let mut grads: Vec<(ceaff_tensor::ParamId, &Matrix)> = Vec::with_capacity(4);
        let healthy = loss_value.is_finite() && {
            g.backward(loss);
            if cfg.train_input {
                if let Some(gx) = g.grad(x1) {
                    grads.push((layers.x1, gx));
                }
                if let Some(gx) = g.grad(x2) {
                    grads.push((layers.x2, gx));
                }
            }
            if let Some(gw) = g.grad(w1) {
                grads.push((layers.w1, gw));
            }
            if let Some(gw) = g.grad(w2) {
                grads.push((layers.w2, gw));
            }
            grads.iter().all(|(_, m)| m.all_finite())
        };
        if budget.interrupt_reason().is_some() {
            // A cancel or deadline fired while this epoch's kernels ran:
            // abandoned chunks leave partially-written loss/gradient
            // buffers (which look finite), so nothing from this epoch may
            // touch the parameters, loss curve, or recovery bookkeeping.
            // The top-of-loop check turns the stop into a degradation.
            drop(grads);
            continue;
        }
        if !healthy {
            // Non-finite loss or gradient: roll back to the last good
            // boundary, halve the learning rate, and replay — bounded by
            // MAX_NUMERIC_RETRIES before the typed divergence error.
            drop(grads);
            retries += 1;
            telemetry.counter_add("gcn", "numeric_recovery", 1);
            if retries > MAX_NUMERIC_RETRIES {
                return Err(CeaffError::NumericDivergence {
                    stage: "gcn".into(),
                    epoch,
                    retries: retries - 1,
                });
            }
            restore_state(
                &snap,
                &mut params,
                &layers,
                &mut *opt,
                &mut rng,
                &mut loss_curve,
                &mut pool_u,
                &mut pool_v,
                &mut best,
            )?;
            let halved = opt.learning_rate() * 0.5;
            opt.set_learning_rate(halved);
            // Re-capture so a second rollback to this boundary keeps the
            // decayed learning rate instead of undoing it.
            snap = capture_state(
                snap.next_epoch,
                retries,
                &params,
                &layers,
                &*opt,
                &rng,
                &loss_curve,
                &pool_u,
                &pool_v,
                &best,
            );
            epoch = snap.next_epoch;
            continue;
        }
        loss_curve.push(loss_value);
        telemetry.gauge("gcn", "epoch_loss", Some(epoch as u64), loss_value as f64);
        if telemetry.is_enabled() {
            // Global gradient L2 norm across every trained parameter —
            // only computed when someone is listening.
            let sq: f64 = grads
                .iter()
                .map(|(_, m)| {
                    m.as_slice()
                        .iter()
                        .map(|&v| (v as f64) * (v as f64))
                        .sum::<f64>()
                })
                .sum();
            telemetry.gauge("gcn", "grad_norm", Some(epoch as u64), sq.sqrt());
        }
        opt.step(&mut params, &grads);

        if cfg.tie_seed_inputs && cfg.train_input {
            tie_seeds(&mut params, &layers, seeds);
        }
        if epoch + 1 == cfg.epochs || (epoch + 1).is_multiple_of(cfg.validate_every.max(1)) {
            validate(&params, &mut best);
        }
        epoch += 1;
        if epoch.is_multiple_of(snap_interval) || epoch == cfg.epochs {
            snap = capture_state(
                epoch,
                retries,
                &params,
                &layers,
                &*opt,
                &rng,
                &loss_curve,
                &pool_u,
                &pool_v,
                &best,
            );
            if disk_interval.is_some() {
                if let Some(ck) = checkpointer {
                    ck.save(
                        checkpoint::TRAIN_FILE,
                        &checkpoint::encode_train_state(&snap),
                    )?;
                    telemetry.counter_add("checkpoint", "train_saved", 1);
                }
            }
        }
    }

    if let Some(reason) = stopped {
        budget.record_degradation(
            telemetry,
            "gcn",
            reason,
            epoch as u64,
            (cfg.epochs - epoch) as f64 / cfg.epochs.max(1) as f64,
        );
    } else {
        telemetry.progress("gcn", cfg.epochs as u64, cfg.epochs as u64);
    }
    let (z_source, z_target) = match best {
        Some((_, z1, z2)) => (z1, z2),
        None => final_forward(&params, &layers, &a1, &a2, cfg.activation),
    };
    Ok(GcnEncoder {
        z_source,
        z_target,
        loss_curve,
    })
}

/// Anchors scored per [`Matrix::matmul_transpose`] call in
/// [`validation_hits1`] and [`nearest_pools`]: the score block is
/// `SCORE_CHUNK × n`, so their extra memory stays O(n) however many seeds
/// there are.
const SCORE_CHUNK: usize = ceaff_tensor::kernels::ROW_BLOCK;

/// Cosine scores of the `sources` rows of `queries` against every row of
/// `keys` (both already row-normalised), one [`SCORE_CHUNK`] of sources at
/// a time: `visit(i, row)` sees source `i`'s scores. Each cell is bitwise
/// [`ceaff_tensor::dot`] of the two rows.
fn for_each_score_row(
    queries: &Matrix,
    sources: &[usize],
    keys: &Matrix,
    mut visit: impl FnMut(usize, &[f32]),
) {
    for (c, chunk) in sources.chunks(SCORE_CHUNK).enumerate() {
        let scores = queries.gather_rows(chunk).matmul_transpose(keys);
        for i in 0..chunk.len() {
            visit(c * SCORE_CHUNK + i, scores.row(i));
        }
    }
}

/// Hits@1 of held-out pairs: each validation source must rank its true
/// counterpart first among *all* target entities under cosine similarity.
fn validation_hits1(
    z1: &Matrix,
    z2: &Matrix,
    val: &[(ceaff_graph::EntityId, ceaff_graph::EntityId)],
) -> f64 {
    let sources: Vec<usize> = val.iter().map(|&(u, _)| u.index()).collect();
    let mut hits = 0usize;
    for_each_score_row(
        &z1.l2_normalized_rows(),
        &sources,
        &z2.l2_normalized_rows(),
        |i, row| {
            let v = val[i].1.index();
            let truth = row[v];
            if row.iter().enumerate().all(|(j, &s)| j == v || s < truth) {
                hits += 1;
            }
        },
    );
    hits as f64 / val.len().max(1) as f64
}

/// For each anchor entity, the `k` nearest other entities of its own KG
/// under cosine similarity — the hard-negative candidate pools.
fn nearest_pools(z: &Matrix, anchors: &[usize], k: usize) -> Vec<Vec<u32>> {
    let normed = z.l2_normalized_rows();
    let mut pools = Vec::with_capacity(anchors.len());
    for_each_score_row(&normed, anchors, &normed, |i, row| {
        let a = anchors[i];
        let mut scored: Vec<(f32, u32)> = row
            .iter()
            .enumerate()
            .filter(|&(e, _)| e != a)
            .map(|(e, &s)| (s, e as u32))
            .collect();
        let k = k.min(scored.len());
        if k == 0 {
            pools.push(Vec::new());
            return;
        }
        scored.select_nth_unstable_by(k - 1, |x, y| {
            y.0.partial_cmp(&x.0).expect("cosines are finite")
        });
        scored.truncate(k);
        pools.push(scored.into_iter().map(|(_, e)| e).collect());
    });
    pools
}

/// Average the input-feature rows of every seed pair across the two KGs.
fn tie_seeds(
    params: &mut ParamSet,
    layers: &Layers,
    seeds: &[(ceaff_graph::EntityId, ceaff_graph::EntityId)],
) {
    // Collect the averaged rows first to keep the borrow checker happy.
    let dim = params.get(layers.x1).cols();
    let mut avg = vec![0.0f32; dim];
    for &(u, v) in seeds {
        {
            let x1 = params.get(layers.x1);
            let x2 = params.get(layers.x2);
            for ((a, &p), &q) in avg.iter_mut().zip(x1.row(u.index())).zip(x2.row(v.index())) {
                *a = 0.5 * (p + q);
            }
        }
        params
            .get_mut(layers.x1)
            .row_mut(u.index())
            .copy_from_slice(&avg);
        params
            .get_mut(layers.x2)
            .row_mut(v.index())
            .copy_from_slice(&avg);
    }
}

fn final_forward(
    params: &ParamSet,
    layers: &Layers,
    a1: &Rc<ceaff_graph::CsrMatrix>,
    a2: &Rc<ceaff_graph::CsrMatrix>,
    activation: Activation,
) -> (Matrix, Matrix) {
    let mut g = Graph::new();
    let x1 = g.leaf(params.get(layers.x1).clone());
    let x2 = g.leaf(params.get(layers.x2).clone());
    let w1 = g.leaf(params.get(layers.w1).clone());
    let w2 = g.leaf(params.get(layers.w2).clone());
    let z1 = forward(&mut g, a1, x1, w1, w2, activation);
    let z2 = forward(&mut g, a2, x2, w1, w2, activation);
    (g.value(z1).clone(), g.value(z2).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_datagen::{GenConfig, NameChannel};

    fn small_dataset() -> ceaff_datagen::GeneratedDataset {
        ceaff_datagen::generate(&GenConfig {
            aligned_entities: 150,
            extra_frac: 0.0,
            avg_degree: 8.0,
            overlap: 0.85,
            channel: NameChannel::Identical { typo_rate: 0.0 },
            vocab_size: 500,
            ..GenConfig::default()
        })
    }

    fn small_cfg() -> GcnConfig {
        GcnConfig {
            dim: 32,
            epochs: 60,
            ..GcnConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ds = small_dataset();
        let enc = train(&ds.pair, &small_cfg());
        let first = enc.loss_curve[0];
        let last = *enc.loss_curve.last().unwrap();
        assert!(
            last < first * 0.5,
            "loss should at least halve: {first} -> {last}"
        );
    }

    #[test]
    fn embeddings_have_expected_shapes() {
        let ds = small_dataset();
        let enc = train(&ds.pair, &small_cfg());
        assert_eq!(enc.z_source.shape(), (ds.pair.source.num_entities(), 32));
        assert_eq!(enc.z_target.shape(), (ds.pair.target.num_entities(), 32));
    }

    #[test]
    fn aligned_test_pairs_beat_random_pairs_structurally() {
        let ds = small_dataset();
        let enc = train(&ds.pair, &small_cfg());
        let tests = ds.pair.test_pairs();
        let mut aligned = 0.0f64;
        let mut random = 0.0f64;
        let k = tests.len().min(60);
        for i in 0..k {
            let (u, v) = tests[i];
            let (_, v2) = tests[(i + 11) % k];
            aligned +=
                ceaff_sim::cosine(enc.z_source.row(u.index()), enc.z_target.row(v.index())) as f64;
            random +=
                ceaff_sim::cosine(enc.z_source.row(u.index()), enc.z_target.row(v2.index())) as f64;
        }
        assert!(
            aligned > random + 0.05 * k as f64,
            "aligned mean {} vs random mean {}",
            aligned / k as f64,
            random / k as f64
        );
    }

    #[test]
    fn no_seeds_still_produces_embeddings() {
        let mut ds = small_dataset();
        // Rebuild the pair with a 0% seed split.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        ds.pair = ceaff_graph::KgPair::new(
            ds.pair.source.clone(),
            ds.pair.target.clone(),
            ds.pair.alignment.clone(),
            0.0,
            &mut rng,
        );
        let enc = train(&ds.pair, &small_cfg());
        assert!(enc.loss_curve.is_empty());
        assert_eq!(enc.z_source.rows(), ds.pair.source.num_entities());
    }

    #[test]
    fn paper_literal_configuration_runs() {
        // The strictly-literal variant of §IV-A: random trainable inputs,
        // Xavier weights, ReLU, uniform negatives, no early stopping.
        let ds = small_dataset();
        let cfg = GcnConfig {
            dim: 16,
            epochs: 20,
            tie_seed_inputs: false,
            identity_weights: false,
            activation: Activation::Relu,
            hard_negative_pool: 0,
            validation_fraction: 0.0,
            optimizer: OptimKind::Sgd { lr: 0.5 },
            ..GcnConfig::default()
        };
        let enc = train(&ds.pair, &cfg);
        assert_eq!(enc.loss_curve.len(), 20);
        assert_eq!(enc.z_source.rows(), ds.pair.source.num_entities());
        // Loss must decrease under the literal setting too.
        assert!(enc.loss_curve.last().unwrap() < enc.loss_curve.first().unwrap());
    }

    #[test]
    fn early_stopping_never_hurts_structural_quality() {
        // With validation the returned embeddings are at least as good on
        // the held-out criterion as the final epoch's.
        let ds = small_dataset();
        let with_val = train(
            &ds.pair,
            &GcnConfig {
                dim: 16,
                epochs: 60,
                validation_fraction: 0.1,
                ..GcnConfig::default()
            },
        );
        let without_val = train(
            &ds.pair,
            &GcnConfig {
                dim: 16,
                epochs: 60,
                validation_fraction: 0.0,
                ..GcnConfig::default()
            },
        );
        // Compare test-pair separation (diagnostic, loose).
        let sep = |enc: &GcnEncoder| -> f64 {
            let tests = ds.pair.test_pairs();
            let k = tests.len().min(40);
            (0..k)
                .map(|i| {
                    let (u, v) = tests[i];
                    ceaff_sim::cosine(enc.z_source.row(u.index()), enc.z_target.row(v.index()))
                        as f64
                })
                .sum::<f64>()
                / k as f64
        };
        assert!(
            sep(&with_val) >= sep(&without_val) - 0.15,
            "early stopping should not collapse separation: {} vs {}",
            sep(&with_val),
            sep(&without_val)
        );
    }

    #[test]
    fn parameter_counts_match_the_papers_complexity_paragraph() {
        let cfg = GcnConfig {
            dim: 300,
            ..GcnConfig::default()
        };
        // The paper's claim: 2 x ds x ds with ds = 300.
        assert_eq!(cfg.num_weight_parameters(), 2 * 300 * 300);
        // The literal variant optimises exactly that many.
        let literal = GcnConfig {
            train_input: false,
            ..cfg
        };
        assert_eq!(literal.num_trainable_parameters(1000, 1200), 2 * 300 * 300);
        // The default (GCN-Align-style) variant also trains the inputs.
        assert_eq!(
            cfg.num_trainable_parameters(1000, 1200),
            2 * 300 * 300 + 2200 * 300
        );
    }

    /// A deterministic `rows × cols` embedding with no zero rows.
    fn scoring_embedding(rows: usize, cols: usize) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| ((i * 7919 + 13) % 1009) as f32 / 504.5 - 1.0 + 1e-3)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn chunked_scoring_matches_per_pair_dot() {
        // More anchors than one score chunk, and a ragged last chunk.
        let (n, d) = (300, 12);
        let z1 = scoring_embedding(n, d);
        let z2 = scoring_embedding(n + 7, d);
        let anchors: Vec<usize> = (0..3 * SCORE_CHUNK + 5).map(|i| (i * 37) % n).collect();

        let normed = z1.l2_normalized_rows();
        let expected: Vec<Vec<u32>> = anchors
            .iter()
            .map(|&a| {
                let mut scored: Vec<(f32, u32)> = (0..n)
                    .filter(|&e| e != a)
                    .map(|e| (ceaff_tensor::dot(normed.row(a), normed.row(e)), e as u32))
                    .collect();
                scored.select_nth_unstable_by(9, |x, y| y.0.partial_cmp(&x.0).unwrap());
                scored.truncate(10);
                scored.into_iter().map(|(_, e)| e).collect()
            })
            .collect();
        assert_eq!(nearest_pools(&z1, &anchors, 10), expected);

        let val: Vec<(ceaff_graph::EntityId, ceaff_graph::EntityId)> = anchors
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let v = if i % 3 == 0 { a } else { (a * 11) % (n + 7) };
                (
                    ceaff_graph::EntityId::new(a as u32),
                    ceaff_graph::EntityId::new(v as u32),
                )
            })
            .collect();
        let (n1, n2) = (z1.l2_normalized_rows(), z2.l2_normalized_rows());
        let hits = val
            .iter()
            .filter(|&&(u, v)| {
                let row = n1.row(u.index());
                let truth = ceaff_tensor::dot(row, n2.row(v.index()));
                (0..n2.rows())
                    .filter(|&j| j != v.index())
                    .all(|j| ceaff_tensor::dot(row, n2.row(j)) < truth)
            })
            .count();
        let score = validation_hits1(&z1, &z2, &val);
        assert!(hits > 0);
        assert_eq!(score.to_bits(), (hits as f64 / val.len() as f64).to_bits());
    }

    #[test]
    fn scoring_memory_stays_chunk_sized() {
        // Many more anchors than one chunk: a single anchors × n score
        // matrix would be 1.2 MB, far past the bound asserted below.
        let (n, d, anchors) = (600, 16, 500);
        let z = scoring_embedding(n, d);
        let anchor_ids: Vec<usize> = (0..anchors).collect();
        let val: Vec<(ceaff_graph::EntityId, ceaff_graph::EntityId)> = (0..anchors as u32)
            .map(|i| (ceaff_graph::EntityId::new(i), ceaff_graph::EntityId::new(i)))
            .collect();
        let f32s = std::mem::size_of::<f32>();
        // Normalised copies (and the kernel's packed copy of them), plus
        // one gathered chunk and one chunk of scores.
        let bound = (3 * n * d + SCORE_CHUNK * (d + n)) * f32s;
        assert!(bound < anchors * n * f32s / 2);

        let _limit = ceaff_tensor::install_mem_limit(usize::MAX);
        let base = ceaff_tensor::mem_live_bytes();
        let _ = nearest_pools(&z, &anchor_ids, 10);
        let pools_peak = ceaff_tensor::mem_peak_bytes() - base;
        assert!(
            pools_peak <= bound,
            "nearest_pools peaked at {pools_peak} B > {bound} B"
        );

        let _limit = ceaff_tensor::install_mem_limit(usize::MAX);
        let _ = validation_hits1(&z, &z, &val);
        let val_peak = ceaff_tensor::mem_peak_bytes() - base;
        assert!(
            val_peak <= bound,
            "validation_hits1 peaked at {val_peak} B > {bound} B"
        );
    }

    #[test]
    fn sgd_variant_also_trains() {
        let ds = small_dataset();
        let cfg = GcnConfig {
            dim: 32,
            epochs: 60,
            optimizer: OptimKind::Sgd { lr: 0.5 },
            ..GcnConfig::default()
        };
        let enc = train(&ds.pair, &cfg);
        let first = enc.loss_curve[0];
        let last = *enc.loss_curve.last().unwrap();
        assert!(last < first, "SGD should make progress: {first} -> {last}");
    }
}
