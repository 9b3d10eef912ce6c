//! Incremental alignment over evolving KGs (ROADMAP item 4): warm
//! pipeline state that absorbs a [`KgDelta`] by recomputing only the
//! dirty region of each feature store, then re-running the global stages.
//!
//! # The parity contract
//!
//! Replaying any edit stream through [`DeltaState::apply`] leaves the
//! state **bitwise-identical** to a from-scratch run on the final pair, at
//! any thread count. The design that makes this provable rather than
//! approximate:
//!
//! * **Stores are patched, global stages are re-run.** The cached
//!   artifacts are the *raw* feature stores (pre-CSLS, pre-normalisation).
//!   CSLS, min-max normalisation, adaptive fusion and collective matching
//!   are global — every cell depends on row/column extremes — so they are
//!   re-run in full through the very same decision body the batch
//!   pipeline uses ([`try_run_with_features`]). Parity therefore
//!   reduces to one local statement: *patched store ≡ fresh store*.
//! * **Every dirty cell is recomputed by the same scalar function the
//!   bulk kernel evaluates.** The repo's kernels are written so each
//!   output cell reduces exactly like [`ceaff_tensor::dot`]
//!   ([`Matrix::matmul_transpose`] documents this), each row normalises
//!   as `v / √(row·row)`, and string / name-embedding cells are pure
//!   per-name functions — so copying a clean cell and recomputing a dirty
//!   one are bitwise-indistinguishable from recomputing everything.
//! * **Ids move through monotone remaps read off the delta.** Edits
//!   address entities by name and only insert or remove them, so kept
//!   entities keep their relative order. The delta's entity ops, with the
//!   positions its inverse records, give each graph's old↔new id map; the
//!   test-split maps follow from those without touching a name.
//!   Recomputing a cell that did not actually change is harmless (same
//!   bits).
//!
//! # What is (and is not) incremental
//!
//! String and semantic rows depend only on entity names, so a test row or
//! column is dirty only if its entity is new to the split. Under blocking
//! a kept row is rebuilt only when its candidate list changed, decided
//! exactly: it stored a removed target, or an added target qualifies for
//! it (found through a warm source-side index) and its recomputed
//! candidate list differs from its stored one. The structural feature
//! must use the training-free propagation encoder
//! ([`StructuralMode::Propagation`]); its dirty region is the `layers`-hop
//! neighbourhood of the endpoints of the delta's added and removed
//! triples and of its added entities. Recomputed whole-KG rows wait in
//! side buffers and are written into the cached matrices in place at
//! commit, so an edit allocates in proportion to what it touches.
//!
//! The trained GCN couples all entities through shared weights — there is
//! no dirty region smaller than the whole KG — so [`DeltaState::new`]
//! rejects it with [`CeaffError::Delta`]. The matcher is likewise re-run
//! in full each delta: warm-starting deferred acceptance from the
//! previous matching is unsound (a single changed preference can cascade
//! arbitrarily). With the bookkeeping proportional to the edit, that
//! re-run and the other global stages are a large share of what an edit
//! costs.

use std::collections::{BTreeSet, HashMap};

use ceaff_embed::{embed_name, WordEmbedder};
use ceaff_graph::{DeltaOp, EntityId, KgDelta, KgPair, KnowledgeGraph, Side};
use ceaff_sim::{
    levenshtein_ratio, BlockingConfig, SimStore, SimilarityMatrix, SparseTopK, TargetIndex,
};
use ceaff_telemetry::Telemetry;
use ceaff_tensor::{dot, Matrix};

use crate::budget::ExecBudget;
use crate::checkpoint::{config_fingerprint, crc32};
use crate::error::CeaffError;
use crate::features::{embedding_score, name_score, Feature};
use crate::matching::Matching;
use crate::pipeline::{
    fuse_and_match_active, select_active, try_run_with_features, CandidateStrategy, CeaffConfig,
    CeaffOutput, EaInput, FeatureSet, PropagationLayers, RunOptions, StructuralMode,
};
use crate::propagation;

/// Rows per parallel work item when patching stores.
const PATCH_GRAIN: usize = 8;

/// A patched sparse row (`None` = kept verbatim) plus the recompute work
/// it cost, in row units (cell repairs count fractionally).
type PatchedRow = (Option<Vec<(u32, f32)>>, f64);

/// What one applied delta changed in the alignment decision, reported in
/// stable entity *names* (ids shift across edits). Sorted by source name.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentDiff {
    /// 1-based index of this delta in the stream (state starts at step 0).
    pub step: usize,
    /// Chained fingerprint after this delta: `crc32(prev_fp_le ‖
    /// canonical-JSON(delta))`, seeded by the config fingerprint. Two
    /// states agree on (config, edit history) iff fingerprints match.
    pub fingerprint: u32,
    /// Accuracy on the updated test split.
    pub accuracy: f64,
    /// Matched pairs in the updated alignment.
    pub matched: usize,
    /// `(source, target)` pairs present now but not before.
    pub added: Vec<(String, String)>,
    /// `(source, target)` pairs present before but not now.
    pub removed: Vec<(String, String)>,
    /// `(source, old_target, new_target)` for re-assigned sources.
    pub changed: Vec<(String, String, String)>,
    /// Largest recompute work any feature store paid, as a fraction of
    /// its rows — the knob the delta pipeline's speed-up lives or dies
    /// by. Cell-granular repairs (a kept sparse row rescoring only its
    /// stale stored cells) count fractionally, at `cells / k` rows.
    pub recompute_fraction: f64,
}

impl AlignmentDiff {
    /// True when the delta left the alignment decision untouched.
    pub fn is_quiet(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }
}

/// Warm pipeline state for one evolving alignment task.
///
/// Built once from a full run ([`DeltaState::new`]), then advanced edit
/// batch by edit batch with [`DeltaState::apply`]. On any error the state
/// is left exactly as it was (deltas are atomic end to end); a failure
/// past the graph edit only drops the derived blocking indexes, which the
/// next apply rebuilds.
pub struct DeltaState {
    cfg: CeaffConfig,
    pair: KgPair,
    features: FeatureSet,
    /// All propagation layers `[H₀…H_L]` per graph — the structural
    /// patcher's cache. Empty when the structural feature is off.
    prop_source: Vec<Matrix>,
    prop_target: Vec<Matrix>,
    output: CeaffOutput,
    fingerprint: u32,
    step: usize,
    /// The handle the state was built with; every apply records on a
    /// fresh child of it.
    telemetry: Telemetry,
    /// Blocking indexes over the current test split (blocked mode only),
    /// built on the first apply and patched in place after that.
    blocking: Option<WarmIndexes>,
}

impl DeltaState {
    /// Run the pipeline from scratch and retain everything the delta
    /// patcher needs. Rejects configurations that cannot be updated
    /// incrementally (structural feature in [`StructuralMode::Trained`]).
    pub fn new(input: &EaInput<'_>, cfg: &CeaffConfig) -> Result<Self, CeaffError> {
        cfg.validate()?;
        if cfg.use_structural && matches!(cfg.structural, StructuralMode::Trained) {
            return Err(CeaffError::Delta(
                "the trained-GCN structural mode cannot be updated incrementally \
                 (every epoch couples all entities through shared weights); \
                 configure StructuralMode::Propagation or disable the structural feature"
                    .into(),
            ));
        }
        // The batch pipeline's own feature body, keeping the propagation
        // layers it computed: the structural patcher's cache.
        let mut layers = PropagationLayers::default();
        let features =
            FeatureSet::compute_stages(input, cfg, &RunOptions::default(), Some(&mut layers))?;
        let output = try_run_with_features(input.pair, &features, cfg, &input.telemetry)?;
        let (prop_source, prop_target) = layers;
        let state = Self::from_parts(
            cfg.clone(),
            input.pair.clone(),
            features,
            prop_source,
            prop_target,
            output,
            config_fingerprint(cfg)?,
            0,
        )
        .with_telemetry(input.telemetry.clone());
        Ok(state)
    }

    /// Apply one edit batch: patch the dirty region of every feature
    /// store, re-run fusion and matching, and report what changed.
    ///
    /// The embedders must be the same ones the state was built with (the
    /// semantic patcher embeds newly-added names through them).
    pub fn apply(
        &mut self,
        delta: &KgDelta,
        source_embedder: &dyn WordEmbedder,
        target_embedder: &dyn WordEmbedder,
    ) -> Result<AlignmentDiff, CeaffError> {
        self.apply_budgeted(
            delta,
            source_embedder,
            target_embedder,
            RunOptions::default().budget,
        )
    }

    /// [`DeltaState::apply`] under an execution budget: the fusion and
    /// matching re-run goes through the batch pipeline's decision body
    /// under `budget`, so a tight decision budget degrades the matcher
    /// exactly as it would in a batch run. Store patching itself is not
    /// metered (it is the part deltas make cheap).
    ///
    /// The apply runs on a fresh child of the state's telemetry. Its
    /// spans — `delta.graph`, `delta.split`, `delta.blocking`,
    /// `delta.string`, `delta.semantic`, `delta.structural`, the
    /// decision's `fusion` and `matcher`, then `delta.diff` — and, under
    /// blocking, the `delta/base_dirty_rows` counter drain into this
    /// apply's [`CeaffOutput::trace`].
    pub fn apply_budgeted(
        &mut self,
        delta: &KgDelta,
        source_embedder: &dyn WordEmbedder,
        target_embedder: &dyn WordEmbedder,
        budget: &ExecBudget,
    ) -> Result<AlignmentDiff, CeaffError> {
        let cfg = &self.cfg;
        cfg.validate()?;
        let telemetry = self.telemetry.child();

        let span = telemetry.span("delta.graph");
        let applied = delta
            .apply(&self.pair)
            .map_err(|e| CeaffError::Delta(e.to_string()))?;
        let new_pair = applied.pair;
        let remap_s = IdRemap::replay(&self.pair.source, delta, &applied.inverse, Side::Source);
        let remap_t = IdRemap::replay(&self.pair.target, delta, &applied.inverse, Side::Target);
        let fingerprint = chain_fingerprint(self.fingerprint, delta)?;
        span.finish();

        let span = telemetry.span("delta.split");
        let maps = SplitMaps::build(&self.pair, &new_pair, &remap_s, &remap_t);
        span.finish();
        let new_tests = new_pair.test_pairs();
        let n_tests = new_tests.len();

        // One blocking context shared by every sparse store, mirroring the
        // single `block_candidates` call of the batch pipeline. The warm
        // indexes leave `self` here and come back only at commit.
        let blocked = match &cfg.candidates {
            CandidateStrategy::Dense => None,
            CandidateStrategy::Blocked { k, blocking } => {
                let _span = telemetry.span("delta.blocking");
                let mut warm = self
                    .blocking
                    .take()
                    .unwrap_or_else(|| WarmIndexes::build(&self.pair, blocking));
                warm.patch(&maps, &new_pair);
                let stored = stored_structure(&self.features).expect("blocked stores are sparse");
                let rows = base_dirty_rows(&warm, &maps, stored, &new_pair, *k);
                telemetry.counter_add("delta", "base_dirty_rows", rows.len() as u64);
                Some((warm, BlockedCtx { k: *k, rows }))
            }
        };
        let ctx = blocked.as_ref().map(|(_, ctx)| ctx);

        let mut recompute_fraction = 0.0f64;
        let mut note = |work_rows: f64| {
            if n_tests > 0 {
                recompute_fraction = recompute_fraction.max(work_rows / n_tests as f64);
            }
        };
        let src = |i: usize| new_tests[i].0.index();
        let tgt = |j: usize| new_tests[j].1.index();

        // ---- string: cells are pure in the two names --------------------
        let string = self.features.string.as_ref().map(|old_f| {
            let _span = telemetry.span("delta.string");
            let cell = |i: usize, j: usize| {
                levenshtein_ratio(
                    entity_name(&new_pair.source, new_tests[i].0),
                    entity_name(&new_pair.target, new_tests[j].1),
                )
            };
            match old_f.test_store() {
                SimStore::Dense(old_m) => {
                    note(count_dirty(&maps.new_row_old) as f64);
                    SimStore::Dense(patch_dense(
                        old_m,
                        &maps.new_row_old,
                        &maps.new_col_old,
                        cell,
                    ))
                }
                SimStore::Sparse(old_s) => {
                    let ctx = ctx.expect("sparse store implies blocking");
                    note(ctx.rows.len() as f64);
                    SimStore::Sparse(patch_sparse(old_s, &maps, ctx, |i, j| cell(i, j as usize)))
                }
            }
        });

        // ---- semantic: rows are pure in the name, given the embedder ----
        let semantic = self.features.semantic.as_ref().map(|old_f| {
            let _span = telemetry.span("delta.semantic");
            let (old_ns, old_nt) = (old_f.source_embeddings(), old_f.target_embeddings());
            let fresh_s = embed_added(&new_pair.source, &remap_s, old_ns.cols(), source_embedder);
            let fresh_t = embed_added(&new_pair.target, &remap_t, old_nt.cols(), target_embedder);
            let ns = PendingMatrix::new(old_ns, &remap_s, &fresh_s);
            let nt = PendingMatrix::new(old_nt, &remap_t, &fresh_t);
            let store = match old_f.test_store() {
                SimStore::Dense(old_m) => {
                    note(count_dirty(&maps.new_row_old) as f64);
                    // `cosine_similarity_matrix` re-normalises the
                    // already-unit gathered rows; replicate that
                    // double normalisation bit-for-bit.
                    SimStore::Dense(patch_dense(
                        old_m,
                        &maps.new_row_old,
                        &maps.new_col_old,
                        |i, j| dot(&unit(ns.row(src(i))), &unit(nt.row(tgt(j)))),
                    ))
                }
                SimStore::Sparse(old_s) => {
                    let ctx = ctx.expect("sparse store implies blocking");
                    note(ctx.rows.len() as f64);
                    // The blocked kernel scores plain dots on the
                    // normalised matrices — no re-normalisation here.
                    SimStore::Sparse(patch_sparse(old_s, &maps, ctx, |i, j| {
                        dot(ns.row(src(i)), nt.row(tgt(j as usize)))
                    }))
                }
            };
            (fresh_s, fresh_t, store)
        });

        // ---- structural: dirty = layers-hop neighbourhood of the edit ---
        let structural = self.features.structural.as_ref().map(|old_f| {
            let _span = telemetry.span("delta.structural");
            let base_s = structural_base(delta, Side::Source, &new_pair.source, &remap_s);
            let base_t = structural_base(delta, Side::Target, &new_pair.target, &remap_t);
            let layers_s = patch_propagation(&new_pair.source, &self.prop_source, &remap_s, base_s);
            let layers_t = patch_propagation(&new_pair.target, &self.prop_target, &remap_t, base_t);
            // The feature's embeddings are the final layers normalised
            // once more, exactly as `from_encoder_scoring` does in bulk.
            let fresh_zs = layers_s.last().expect("at least layer 0").normalized();
            let fresh_zt = layers_t.last().expect("at least layer 0").normalized();
            let zs = PendingMatrix::new(old_f.source_embeddings(), &remap_s, &fresh_zs);
            let zt = PendingMatrix::new(old_f.target_embeddings(), &remap_t, &fresh_zt);
            let store = match old_f.test_store() {
                SimStore::Dense(old_m) => {
                    let clean_row: Vec<Option<usize>> = (0..n_tests)
                        .map(|i| maps.new_row_old[i].filter(|_| !fresh_zs.contains(src(i))))
                        .collect();
                    let clean_col: Vec<Option<usize>> = (0..n_tests)
                        .map(|j| maps.new_col_old[j].filter(|_| !fresh_zt.contains(tgt(j))))
                        .collect();
                    note(count_dirty(&clean_row) as f64);
                    SimStore::Dense(patch_dense(old_m, &clean_row, &clean_col, |i, j| {
                        dot(&unit(zs.row(src(i))), &unit(zt.row(tgt(j))))
                    }))
                }
                SimStore::Sparse(old_s) => {
                    let ctx = ctx.expect("sparse store implies blocking");
                    let score = |i: usize, j: u32| dot(zs.row(src(i)), zt.row(tgt(j as usize)));
                    let mut rebuilt = score_dirty_rows(&maps, ctx, score);
                    let stale_col: Vec<bool> =
                        (0..n_tests).map(|j| fresh_zt.contains(tgt(j))).collect();
                    let repaired = repair_stale_cells(
                        old_s,
                        &maps,
                        ctx,
                        &mut rebuilt,
                        |i| fresh_zs.contains(src(i)),
                        &stale_col,
                        score,
                    );
                    note(ctx.rows.len() as f64 + repaired);
                    SimStore::Sparse(assemble(old_s, &maps, rebuilt))
                }
            };
            (layers_s, layers_t, fresh_zs, fresh_zt, store)
        });

        // Global stages re-run in full through the batch pipeline's
        // decision body, over the patched stores. The uncommitted rows are
        // read through views, which only the LR weighting consults (it
        // scores seed pairs outside the stores).
        let mut output = {
            let structural_view = self
                .features
                .structural
                .as_ref()
                .zip(structural.as_ref())
                .map(
                    |(old_f, (_, _, fresh_zs, fresh_zt, store))| PendingFeature {
                        name: "structural",
                        store,
                        pairs: PairScore::Rows(
                            PendingMatrix::new(old_f.source_embeddings(), &remap_s, fresh_zs),
                            PendingMatrix::new(old_f.target_embeddings(), &remap_t, fresh_zt),
                        ),
                    },
                );
            let semantic_view = self.features.semantic.as_ref().zip(semantic.as_ref()).map(
                |(old_f, (fresh_s, fresh_t, store))| PendingFeature {
                    name: "semantic",
                    store,
                    pairs: PairScore::Rows(
                        PendingMatrix::new(old_f.source_embeddings(), &remap_s, fresh_s),
                        PendingMatrix::new(old_f.target_embeddings(), &remap_t, fresh_t),
                    ),
                },
            );
            let string_view = string.as_ref().map(|store| PendingFeature {
                name: "string",
                store,
                pairs: PairScore::Names(&new_pair),
            });
            let active = select_active(
                structural_view.as_ref().map(|f| f as &dyn Feature),
                semantic_view.as_ref().map(|f| f as &dyn Feature),
                string_view.as_ref().map(|f| f as &dyn Feature),
                &[],
                cfg,
            );
            fuse_and_match_active(&new_pair, &active, 0, cfg, &telemetry, budget)?
        };

        let span = telemetry.span("delta.diff");
        let (added, removed, changed) = diff_matchings(
            &self.output.matching,
            &output.matching,
            &maps,
            &self.pair,
            &new_pair,
        );
        span.finish();
        let tail = telemetry.take_trace();
        output.trace.stages.extend(tail.stages);
        output.trace.events.extend(tail.events);

        // Commit — every fallible step is behind us. Recomputed rows go
        // into the cached matrices in place; nothing n×dim is copied.
        self.blocking = blocked.map(|(warm, _)| warm);
        if let (Some(f), Some(store)) = (self.features.string.as_mut(), string) {
            let (names_s, names_t, test) = f.parts_mut();
            remap_names(names_s, &remap_s, &new_pair.source);
            remap_names(names_t, &remap_t, &new_pair.target);
            *test = store;
        }
        if let (Some(f), Some((fresh_s, fresh_t, store))) =
            (self.features.semantic.as_mut(), semantic)
        {
            let (ns, nt, test) = f.parts_mut();
            fresh_s.commit(ns, &remap_s);
            fresh_t.commit(nt, &remap_t);
            *test = store;
        }
        if let (Some(f), Some((layers_s, layers_t, fresh_zs, fresh_zt, store))) =
            (self.features.structural.as_mut(), structural)
        {
            for (m, fresh) in self.prop_source.iter_mut().zip(&layers_s) {
                fresh.commit(m, &remap_s);
            }
            for (m, fresh) in self.prop_target.iter_mut().zip(&layers_t) {
                fresh.commit(m, &remap_t);
            }
            let (zs, zt, test) = f.parts_mut();
            fresh_zs.commit(zs, &remap_s);
            fresh_zt.commit(zt, &remap_t);
            *test = store;
        }
        self.pair = new_pair;
        self.step += 1;
        self.fingerprint = fingerprint;
        let diff = AlignmentDiff {
            step: self.step,
            fingerprint,
            accuracy: output.accuracy,
            matched: output.matching.len(),
            added,
            removed,
            changed,
            recompute_fraction,
        };
        self.output = output;
        Ok(diff)
    }

    /// Record every later apply on fresh children of `telemetry` — for a
    /// state decoded from a snapshot, which starts with telemetry
    /// disabled, so it reports like one built by [`DeltaState::new`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The most recent pipeline output (full [`CeaffOutput`], exactly what
    /// a from-scratch run on the current pair would produce).
    pub fn output(&self) -> &CeaffOutput {
        &self.output
    }

    /// The current (post-deltas) pair.
    pub fn pair(&self) -> &KgPair {
        &self.pair
    }

    /// The configuration the state was built with.
    pub fn config(&self) -> &CeaffConfig {
        &self.cfg
    }

    /// Chained (config, edit history) fingerprint — see
    /// [`AlignmentDiff::fingerprint`].
    pub fn fingerprint(&self) -> u32 {
        self.fingerprint
    }

    /// Number of deltas applied so far.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The cached feature set (the snapshot codec's view).
    pub(crate) fn features(&self) -> &FeatureSet {
        &self.features
    }

    /// The cached propagation layers per graph (empty when the
    /// structural feature is off).
    pub(crate) fn prop_layers(&self) -> (&[Matrix], &[Matrix]) {
        (&self.prop_source, &self.prop_target)
    }

    /// Reassemble a state from snapshot-decoded parts (the durability
    /// layer's constructor — see [`crate::snapshot`]). The caller passes
    /// back exactly what [`crate::snapshot::encode_delta_state`]
    /// captured; nothing is recomputed, so a decoded state is bitwise
    /// the state that was encoded. The derived blocking indexes are
    /// rebuilt on the first apply, and telemetry starts disabled (see
    /// [`DeltaState::with_telemetry`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: CeaffConfig,
        pair: KgPair,
        features: FeatureSet,
        prop_source: Vec<Matrix>,
        prop_target: Vec<Matrix>,
        output: CeaffOutput,
        fingerprint: u32,
        step: usize,
    ) -> Self {
        Self {
            cfg,
            pair,
            features,
            prop_source,
            prop_target,
            output,
            fingerprint,
            step,
            telemetry: Telemetry::disabled(),
            blocking: None,
        }
    }
}

/// `crc32(prev_le ‖ canonical-JSON(delta))` — see
/// [`AlignmentDiff::fingerprint`].
fn chain_fingerprint(prev: u32, delta: &KgDelta) -> Result<u32, CeaffError> {
    let delta_json = serde_json::to_string(delta)
        .map_err(|e| CeaffError::Delta(format!("delta not serializable: {e}")))?;
    let mut bytes = prev.to_le_bytes().to_vec();
    bytes.extend_from_slice(delta_json.as_bytes());
    Ok(crc32(&bytes))
}

fn entity_name(kg: &KnowledgeGraph, e: EntityId) -> &str {
    kg.entity_name(e).expect("interned")
}

/// How one graph's entity ids moved under a delta. Entity ops only insert
/// and remove, so the map is monotone: kept entities keep their order.
struct IdRemap {
    /// Per new id: the old id of the same entity, `None` if added.
    old_of_new: Vec<Option<u32>>,
    /// Per old id: its new id, `None` if removed.
    new_of_old: Vec<Option<u32>>,
}

impl IdRemap {
    /// Replay `side`'s entity ops over `old`'s id space. An added
    /// entity's position is its op's `at` (default: the end); a removed
    /// one's is the `at` its inverse recorded, so no name is looked up.
    /// An entity removed and re-added in one delta counts as added.
    fn replay(old: &KnowledgeGraph, delta: &KgDelta, inverse: &KgDelta, side: Side) -> Self {
        let n_old = old.num_entities();
        let mut old_of_new: Vec<Option<u32>> = (0..n_old as u32).map(Some).collect();
        // `inverse` lists the ops' inverses in reverse application order.
        for (op, inv) in delta.ops.iter().zip(inverse.ops.iter().rev()) {
            match (op, inv) {
                (DeltaOp::AddEntity { side: s, at, .. }, _) if *s == side => {
                    let pos = at.map_or(old_of_new.len(), |p| p as usize);
                    old_of_new.insert(pos, None);
                }
                (DeltaOp::RemoveEntity { side: s, .. }, DeltaOp::AddEntity { at: Some(p), .. })
                    if *s == side =>
                {
                    old_of_new.remove(*p as usize);
                }
                _ => {}
            }
        }
        let mut new_of_old = vec![None; n_old];
        for (n, o) in old_of_new.iter().enumerate() {
            if let Some(o) = o {
                new_of_old[*o as usize] = Some(n as u32);
            }
        }
        Self {
            old_of_new,
            new_of_old,
        }
    }

    /// New ids of the entities the delta added, ascending.
    fn added(&self) -> Vec<usize> {
        (0..self.old_of_new.len())
            .filter(|&i| self.old_of_new[i].is_none())
            .collect()
    }
}

/// Old↔new test-split index maps. A test row is its source entity and a
/// column its target entity, each matched across the edit through the
/// graph's [`IdRemap`]; a link removed and re-added for a kept entity
/// therefore keeps its row. Kept rows and columns normally keep their
/// relative order (which candidate-row tie order relies on); a split that
/// reorders columns makes [`base_dirty_rows`] compare every row.
struct SplitMaps {
    /// Per old row: its new index, `None` if dropped.
    old_to_new_row: Vec<Option<usize>>,
    /// Per old column: its new index, `None` if dropped.
    old_to_new_col: Vec<Option<u32>>,
    /// Per new row: the old row of the same source entity, `None` if new.
    new_row_old: Vec<Option<usize>>,
    /// Per new column: the old column of the same target entity.
    new_col_old: Vec<Option<usize>>,
}

impl SplitMaps {
    fn build(old: &KgPair, new: &KgPair, remap_s: &IdRemap, remap_t: &IdRemap) -> Self {
        let (old_tests, new_tests) = (old.test_pairs(), new.test_pairs());
        let (old_to_new_row, new_row_old) = Self::side(
            old_tests.iter().map(|t| t.0),
            new_tests.iter().map(|t| t.0),
            remap_s,
        );
        let (old_to_new_col, new_col_old) = Self::side(
            old_tests.iter().map(|t| t.1),
            new_tests.iter().map(|t| t.1),
            remap_t,
        );
        Self {
            old_to_new_row,
            old_to_new_col: old_to_new_col.iter().map(|c| c.map(|c| c as u32)).collect(),
            new_row_old,
            new_col_old,
        }
    }

    /// `(old → new, new → old)` positions of one side of the split.
    #[allow(clippy::type_complexity)]
    fn side(
        old_ids: impl Iterator<Item = EntityId>,
        new_ids: impl ExactSizeIterator<Item = EntityId>,
        remap: &IdRemap,
    ) -> (Vec<Option<usize>>, Vec<Option<usize>>) {
        let mut new_old = vec![None; new_ids.len()];
        let mut position = vec![None; remap.old_of_new.len()];
        for (i, e) in new_ids.enumerate() {
            position[e.index()] = Some(i);
        }
        let old_new: Vec<Option<usize>> = old_ids
            .enumerate()
            .map(|(o, e)| {
                let n = remap.new_of_old[e.index()].and_then(|n| position[n as usize]);
                if let Some(n) = n {
                    new_old[n] = Some(o);
                }
                n
            })
            .collect();
        (old_new, new_old)
    }
}

/// Rows marked `None` (i.e. to recompute) in a clean-row map.
fn count_dirty(clean: &[Option<usize>]) -> usize {
    clean.iter().filter(|c| c.is_none()).count()
}

/// A row L2-normalised exactly like [`Matrix::l2_normalize_rows`] does.
fn unit(row: &[f32]) -> Vec<f32> {
    let mut v = row.to_vec();
    propagation::normalize_row(&mut v);
    v
}

/// The test split's (source, target) names, in split order.
fn test_names(pair: &KgPair) -> (Vec<&str>, Vec<&str>) {
    pair.test_pairs()
        .iter()
        .map(|&(u, v)| (entity_name(&pair.source, u), entity_name(&pair.target, v)))
        .unzip()
}

/// The blocking indexes a [`DeltaState`] keeps warm across edits: target
/// names → test columns (for candidate rows) and source names → test rows
/// (for the rows an added target qualifies for).
struct WarmIndexes {
    targets: TargetIndex,
    sources: TargetIndex,
}

impl WarmIndexes {
    fn build(pair: &KgPair, blocking: &BlockingConfig) -> Self {
        let (sources, targets) = test_names(pair);
        Self {
            targets: TargetIndex::build(&targets, blocking),
            sources: TargetIndex::build(&sources, blocking),
        }
    }

    /// Patch both indexes to `new`'s split in place.
    fn patch(&mut self, maps: &SplitMaps, new: &KgPair) {
        let tests = new.test_pairs();
        let row_remap: Vec<Option<u32>> = maps
            .old_to_new_row
            .iter()
            .map(|r| r.map(|r| r as u32))
            .collect();
        let added_rows: Vec<(u32, &str)> = added_positions(&maps.new_row_old)
            .map(|i| (i as u32, entity_name(&new.source, tests[i].0)))
            .collect();
        self.sources.patch(&row_remap, &added_rows, tests.len());
        let added_cols: Vec<(u32, &str)> = added_positions(&maps.new_col_old)
            .map(|j| (j as u32, entity_name(&new.target, tests[j].1)))
            .collect();
        self.targets
            .patch(&maps.old_to_new_col, &added_cols, tests.len());
    }
}

/// New positions without an old counterpart.
fn added_positions(new_old: &[Option<usize>]) -> impl Iterator<Item = usize> + '_ {
    (0..new_old.len()).filter(|&i| new_old[i].is_none())
}

/// The first sparse store of a feature set — under blocking every feature
/// stores exactly the blocked candidate structure.
fn stored_structure(features: &FeatureSet) -> Option<&SparseTopK> {
    let stores = [
        features.structural.as_ref().map(|f| f.test_store()),
        features.semantic.as_ref().map(|f| f.test_store()),
        features.string.as_ref().map(|f| f.test_store()),
    ];
    stores.into_iter().flatten().find_map(|s| match s {
        SimStore::Sparse(s) => Some(s),
        SimStore::Dense(_) => None,
    })
}

/// Blocking context shared by every sparse-store patch of one delta.
struct BlockedCtx {
    k: usize,
    /// The base-dirty new rows, ascending, each with its fresh candidate
    /// columns: computed once, scored by every sparse feature.
    rows: Vec<(usize, Vec<u32>)>,
}

impl BlockedCtx {
    fn is_dirty(&self, i: usize) -> bool {
        self.rows.binary_search_by_key(&i, |r| r.0).is_ok()
    }
}

/// The rows whose candidate list the edit changed, exactly, with their
/// fresh candidate columns. A new row is dirty. A kept row is dirty when
/// it stored a removed column (its list lost an entry), or when an added
/// target qualifies for it and its fresh `candidate_row` differs from its
/// stored columns renumbered. Nothing else can change a kept row's list:
/// shared-key counts are pure in the names, a removed target it did not
/// store ranked below all of its stored ones, and monotone renumbering
/// keeps the tie order. If the columns did change order, every kept row
/// is compared instead.
fn base_dirty_rows(
    warm: &WarmIndexes,
    maps: &SplitMaps,
    stored: &SparseTopK,
    new: &KgPair,
    k: usize,
) -> Vec<(usize, Vec<u32>)> {
    let tests = new.test_pairs();
    // Whether the kept columns keep their relative order.
    let cols_in_order = maps.old_to_new_col.iter().flatten().is_sorted();
    let fresh = |i: usize| {
        warm.targets
            .candidate_row(entity_name(&new.source, tests[i].0), k)
    };
    let dropped_cols = maps.old_to_new_col.iter().any(Option::is_none);
    let mut dirty = vec![false; tests.len()];
    for (i, old) in maps.new_row_old.iter().enumerate() {
        dirty[i] = match old {
            None => true,
            Some(oi) => {
                dropped_cols
                    && stored
                        .row_entries(*oi)
                        .0
                        .iter()
                        .any(|&c| maps.old_to_new_col[c as usize].is_none())
            }
        };
    }
    let mut check: BTreeSet<usize> = BTreeSet::new();
    if cols_in_order {
        for j in added_positions(&maps.new_col_old) {
            let name = entity_name(&new.target, tests[j].1);
            check.extend(
                warm.sources
                    .qualifying(name)
                    .into_iter()
                    .map(|i| i as usize),
            );
        }
    } else {
        check.extend(0..tests.len());
    }
    let check: Vec<usize> = check.into_iter().filter(|&i| !dirty[i]).collect();
    let changed: Vec<Option<Vec<u32>>> = ceaff_parallel::par_map(check.len(), PATCH_GRAIN, |x| {
        let i = check[x];
        let oi = maps.new_row_old[i].expect("new rows are dirty already");
        let mut kept: Vec<u32> = stored
            .row_entries(oi)
            .0
            .iter()
            .map(|&c| maps.old_to_new_col[c as usize].expect("dropped columns are dirty already"))
            .collect();
        kept.sort_unstable();
        let row = fresh(i);
        (row != kept).then_some(row)
    });
    let marked: Vec<usize> = (0..tests.len()).filter(|&i| dirty[i]).collect();
    let mut rows: Vec<(usize, Vec<u32>)> =
        ceaff_parallel::par_map(marked.len(), PATCH_GRAIN, |x| (marked[x], fresh(marked[x])));
    rows.extend(
        check
            .into_iter()
            .zip(changed)
            .filter_map(|(i, r)| r.map(|r| (i, r))),
    );
    rows.sort_unstable_by_key(|r| r.0);
    rows
}

/// Patch a dense store: copy `(clean_row, clean_col)` cells from `old`,
/// recompute the rest with `cell` — which must be the scalar form of the
/// bulk kernel that built `old`.
fn patch_dense(
    old: &SimilarityMatrix,
    clean_row: &[Option<usize>],
    clean_col: &[Option<usize>],
    cell: impl Fn(usize, usize) -> f32 + Sync,
) -> SimilarityMatrix {
    let (rows, cols) = (clean_row.len(), clean_col.len());
    let m = propagation::matrix_from_par_rows(rows, cols, |i| {
        let mut out = vec![0.0f32; cols];
        match clean_row[i] {
            Some(oi) => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = match clean_col[j] {
                        Some(oj) => old.get(oi, oj),
                        None => cell(i, j),
                    };
                }
            }
            None => {
                for (j, o) in out.iter_mut().enumerate() {
                    *o = cell(i, j);
                }
            }
        }
        out
    });
    SimilarityMatrix::new(m)
}

/// Patch a sparse top-k store: score the base-dirty rows' fresh candidate
/// columns (the same `candidate_row` + score path
/// [`SparseTopK::from_candidates`] takes), remap everything else.
fn patch_sparse(
    old: &SparseTopK,
    maps: &SplitMaps,
    ctx: &BlockedCtx,
    score: impl Fn(usize, u32) -> f32 + Sync,
) -> SparseTopK {
    assemble(old, maps, score_dirty_rows(maps, ctx, score))
}

/// Per new row: the base-dirty rows scored over their fresh candidate
/// columns, `None` elsewhere.
fn score_dirty_rows(
    maps: &SplitMaps,
    ctx: &BlockedCtx,
    score: impl Fn(usize, u32) -> f32 + Sync,
) -> Vec<Option<Vec<(u32, f32)>>> {
    let scored: Vec<Vec<(u32, f32)>> = ceaff_parallel::par_map(ctx.rows.len(), PATCH_GRAIN, |x| {
        let (i, cols) = &ctx.rows[x];
        cols.iter().map(|&j| (j, score(*i, j))).collect()
    });
    let mut rebuilt = vec![None; maps.new_row_old.len()];
    for ((i, _), row) in ctx.rows.iter().zip(scored) {
        rebuilt[*i] = Some(row);
    }
    rebuilt
}

/// Rescore the stale cells of kept rows whose candidate list is clean,
/// returning the work in row units (`cells / k` per row). Such a row
/// keeps its exact column structure (counts and, under the monotone
/// remap, tie order are unchanged), so only its stale cell *values* are
/// rescored: every cell when `stale_row(i)`, otherwise the cells in
/// columns with `stale_col` set. That turns the `layers`-hop
/// neighbourhood of an edit from `k` whole-row rebuilds per touched
/// target into a handful of single-cell dots.
fn repair_stale_cells(
    old: &SparseTopK,
    maps: &SplitMaps,
    ctx: &BlockedCtx,
    rebuilt: &mut [Option<Vec<(u32, f32)>>],
    stale_row: impl Fn(usize) -> bool + Sync,
    stale_col: &[bool],
    score: impl Fn(usize, u32) -> f32 + Sync,
) -> f64 {
    let repaired: Vec<PatchedRow> = ceaff_parallel::par_map(rebuilt.len(), PATCH_GRAIN, |i| {
        if ctx.is_dirty(i) {
            return (None, 0.0);
        }
        let oi = maps.new_row_old[i].expect("kept rows are not dirty");
        let whole_row = stale_row(i);
        let (cols, vals) = old.row_entries(oi);
        let remap =
            |c: u32| maps.old_to_new_col[c as usize].expect("clean rows keep their columns");
        let stale = |c: u32| whole_row || stale_col[remap(c) as usize];
        let n_stale = cols.iter().filter(|&&c| stale(c)).count();
        if n_stale == 0 {
            return (None, 0.0);
        }
        let row = cols
            .iter()
            .zip(vals)
            .map(|(&c, &v)| (remap(c), if stale(c) { score(i, remap(c)) } else { v }))
            .collect();
        (Some(row), (n_stale as f64 / ctx.k as f64).min(1.0))
    });
    let mut work = 0.0;
    for (slot, (row, w)) in rebuilt.iter_mut().zip(repaired) {
        if row.is_some() {
            *slot = row;
            work += w;
        }
    }
    work
}

/// The patched store: each rebuilt row replaces its kept original (whose
/// map entry is dropped), every other kept row is remapped.
fn assemble(
    old: &SparseTopK,
    maps: &SplitMaps,
    rebuilt: Vec<Option<Vec<(u32, f32)>>>,
) -> SparseTopK {
    let row_map: Vec<Option<usize>> = maps
        .old_to_new_row
        .iter()
        .map(|m| (*m).filter(|&i| rebuilt[i].is_none()))
        .collect();
    old.patched(rebuilt.len(), &row_map, &maps.old_to_new_col, &rebuilt)
}

/// Rows one edit recomputed for a whole-KG matrix, keyed by new entity id
/// (ascending): a side buffer until [`FreshRows::commit`] writes it into
/// the cached matrix.
struct FreshRows {
    ids: Vec<usize>,
    data: Vec<f32>,
    dim: usize,
}

impl FreshRows {
    fn new(ids: Vec<usize>, dim: usize, rows: Vec<Vec<f32>>) -> Self {
        let mut data = Vec::with_capacity(ids.len() * dim);
        for row in &rows {
            data.extend_from_slice(row);
        }
        Self { ids, data, dim }
    }

    /// Compute the rows of `ids` across the pool.
    fn compute(ids: Vec<usize>, dim: usize, row: impl Fn(usize) -> Vec<f32> + Sync) -> Self {
        let rows = ceaff_parallel::par_map(ids.len(), PATCH_GRAIN, |x| row(ids[x]));
        Self::new(ids, dim, rows)
    }

    fn get(&self, id: usize) -> Option<&[f32]> {
        let x = self.ids.binary_search(&id).ok()?;
        Some(&self.data[x * self.dim..(x + 1) * self.dim])
    }

    fn contains(&self, id: usize) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// The same rows L2-normalised once more.
    fn normalized(&self) -> Self {
        let rows = (0..self.ids.len())
            .map(|x| unit(&self.data[x * self.dim..(x + 1) * self.dim]))
            .collect();
        Self::new(self.ids.clone(), self.dim, rows)
    }

    /// Write into `m` in place: renumber its rows through `remap`, then
    /// overwrite the recomputed ones (which cover every added entity).
    fn commit(&self, m: &mut Matrix, remap: &IdRemap) {
        m.remap_rows(&remap.old_of_new);
        for (x, &id) in self.ids.iter().enumerate() {
            m.row_mut(id)
                .copy_from_slice(&self.data[x * self.dim..(x + 1) * self.dim]);
        }
    }
}

/// A whole-KG matrix as it reads after the edit, before commit: fresh rows
/// from the side buffer, every other row from the cached matrix through
/// the id remap.
#[derive(Clone, Copy)]
struct PendingMatrix<'a> {
    cached: &'a Matrix,
    old_of_new: &'a [Option<u32>],
    fresh: &'a FreshRows,
}

impl<'a> PendingMatrix<'a> {
    fn new(cached: &'a Matrix, remap: &'a IdRemap, fresh: &'a FreshRows) -> Self {
        Self {
            cached,
            old_of_new: &remap.old_of_new,
            fresh,
        }
    }

    fn row(&self, id: usize) -> &'a [f32] {
        match self.fresh.get(id) {
            Some(row) => row,
            None => {
                let old = self.old_of_new[id].expect("fresh rows cover every added entity");
                self.cached.row(old as usize)
            }
        }
    }
}

/// A patched feature before commit, as the decision body sees it.
struct PendingFeature<'a> {
    name: &'static str,
    store: &'a SimStore,
    pairs: PairScore<'a>,
}

/// How a [`PendingFeature`] scores an arbitrary pair — the same function
/// the committed feature's [`Feature::score`] evaluates.
enum PairScore<'a> {
    /// Dot product of two unit embedding rows.
    Rows(PendingMatrix<'a>, PendingMatrix<'a>),
    /// Levenshtein ratio of the two names.
    Names(&'a KgPair),
}

impl Feature for PendingFeature<'_> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn test_store(&self) -> &SimStore {
        self.store
    }

    fn score(&self, u: EntityId, v: EntityId) -> f32 {
        match &self.pairs {
            PairScore::Rows(s, t) => embedding_score(s.row(u.index()), t.row(v.index())),
            PairScore::Names(pair) => {
                name_score(entity_name(&pair.source, u), entity_name(&pair.target, v))
            }
        }
    }
}

/// Name-embedding rows of the entities the delta added, through the same
/// scalar path `name_embedding_matrix` + `l2_normalize_rows` take
/// (fully-OOV names stay zero rows). Kept names keep their row: embedding
/// is pure in the name.
fn embed_added(
    kg: &KnowledgeGraph,
    remap: &IdRemap,
    dim: usize,
    embedder: &dyn WordEmbedder,
) -> FreshRows {
    let ids = remap.added();
    // Sequential: embedders are `?Sync` trait objects, and only the few
    // names new to the graph embed at all.
    let rows = ids
        .iter()
        .map(|&i| {
            let name = entity_name(kg, EntityId::new(i as u32));
            let mut row = embed_name(embedder, name).unwrap_or_else(|| vec![0.0; dim]);
            propagation::normalize_row(&mut row);
            row
        })
        .collect();
    FreshRows::new(ids, dim, rows)
}

/// Rename the per-entity name list of a committed string feature.
fn remap_names(names: &mut Vec<String>, remap: &IdRemap, kg: &KnowledgeGraph) {
    let mut old = std::mem::take(names);
    *names = remap
        .old_of_new
        .iter()
        .enumerate()
        .map(|(i, o)| match o {
            Some(o) => std::mem::take(&mut old[*o as usize]),
            None => entity_name(kg, EntityId::new(i as u32)).to_owned(),
        })
        .collect();
}

/// The structural base set of one graph, read off the delta: the
/// endpoints of its added and removed triples plus the entities it added.
/// Only those entities can have a changed neighbour list or degree
/// (removing an entity requires it to have no triples left).
fn structural_base(
    delta: &KgDelta,
    side: Side,
    kg: &KnowledgeGraph,
    remap: &IdRemap,
) -> BTreeSet<usize> {
    let mut base: BTreeSet<usize> = remap.added().into_iter().collect();
    for op in &delta.ops {
        if let DeltaOp::AddTriple {
            side: s,
            head,
            tail,
            ..
        }
        | DeltaOp::RemoveTriple {
            side: s,
            head,
            tail,
            ..
        } = op
        {
            if *s == side {
                // An endpoint removed later in the same delta is gone.
                base.extend(
                    [head, tail]
                        .iter()
                        .filter_map(|n| kg.entity_id(n))
                        .map(|e| e.index()),
                );
            }
        }
    }
    base
}

/// Recompute one graph's propagation rows the edit reaches, per layer.
///
/// Layer 0 recomputes only the added entities (seeds are pure in the
/// name). With `S₀ = base`, layer `l ≥ 1` recomputes `Sₗ = Sₗ₋₁ ∪
/// N(Sₗ₋₁)` over the *new* graph, through the very `seed_row` /
/// `propagate_row` functions the bulk encoder runs, reading the previous
/// layer through its pending view — so a patched layer is
/// bitwise-identical to a fresh one. Neighbour lists are fetched only for
/// the reached entities and their neighbours (whose degrees the rows
/// need).
fn patch_propagation(
    kg: &KnowledgeGraph,
    old_layers: &[Matrix],
    remap: &IdRemap,
    base: BTreeSet<usize>,
) -> Vec<FreshRows> {
    let dim = old_layers[0].cols();
    let mut neighbors: HashMap<usize, Vec<EntityId>> = HashMap::new();
    let fetch = |neighbors: &mut HashMap<usize, Vec<EntityId>>, ids: Vec<usize>| {
        for i in ids {
            neighbors
                .entry(i)
                .or_insert_with(|| kg.neighbors(EntityId::new(i as u32)));
        }
    };
    let reached = |neighbors: &HashMap<usize, Vec<EntityId>>, ids: &BTreeSet<usize>| {
        ids.iter()
            .flat_map(|i| neighbors[i].iter().map(|e| e.index()))
            .collect::<Vec<usize>>()
    };
    let mut layers = vec![FreshRows::compute(remap.added(), dim, |i| {
        propagation::seed_row(entity_name(kg, EntityId::new(i as u32)), dim)
    })];
    let mut reach = base;
    for l in 1..old_layers.len() {
        fetch(&mut neighbors, reach.iter().copied().collect());
        let grown = reached(&neighbors, &reach);
        reach.extend(grown);
        // Every reached row needs its own list and its neighbours' degrees.
        fetch(&mut neighbors, reach.iter().copied().collect());
        let outer = reached(&neighbors, &reach);
        fetch(&mut neighbors, outer);
        let prev = PendingMatrix::new(&old_layers[l - 1], remap, &layers[l - 1]);
        let ids: Vec<usize> = reach.iter().copied().collect();
        let fresh = FreshRows::compute(ids, dim, |i| {
            propagation::propagate_row(|j| prev.row(j), i, &neighbors[&i], |j| neighbors[&j].len())
        });
        layers.push(fresh);
    }
    layers
}

/// Added / removed / re-assigned pairs between the old and new matchings.
/// Pairs are matched by id through the split maps; names are resolved
/// only for pairs that changed, and each list is sorted by source name.
/// A source whose row was dropped and re-created under the same name (an
/// entity removed and re-added in one delta) is matched by name, so the
/// diff is exactly the name-keyed one.
#[allow(clippy::type_complexity)]
fn diff_matchings(
    old: &Matching,
    new: &Matching,
    maps: &SplitMaps,
    old_pair: &KgPair,
    new_pair: &KgPair,
) -> (
    Vec<(String, String)>,
    Vec<(String, String)>,
    Vec<(String, String, String)>,
) {
    let (old_tests, new_tests) = (old_pair.test_pairs(), new_pair.test_pairs());
    let src_old = |i: usize| entity_name(&old_pair.source, old_tests[i].0).to_owned();
    let tgt_old = |j: usize| entity_name(&old_pair.target, old_tests[j].1).to_owned();
    let src_new = |i: usize| entity_name(&new_pair.source, new_tests[i].0).to_owned();
    let tgt_new = |j: usize| entity_name(&new_pair.target, new_tests[j].1).to_owned();

    // Per new row: the old column its (kept) source was matched to.
    let mut before: Vec<Option<usize>> = vec![None; new_tests.len()];
    let mut removed = Vec::new();
    for &(oi, oj) in old.pairs() {
        match maps.old_to_new_row[oi] {
            Some(i) => before[i] = Some(oj),
            None => removed.push((src_old(oi), tgt_old(oj))),
        }
    }
    let mut added = Vec::new();
    let mut changed = Vec::new();
    for &(i, j) in new.pairs() {
        match before[i].take() {
            None => added.push((src_new(i), tgt_new(j))),
            Some(oj) if maps.old_to_new_col[oj] != Some(j as u32) => {
                let (was, now) = (tgt_old(oj), tgt_new(j));
                if was != now {
                    changed.push((src_new(i), was, now));
                }
            }
            Some(_) => {}
        }
    }
    // Kept sources matched before but not now.
    for (i, oj) in before.into_iter().enumerate() {
        if let Some(oj) = oj {
            removed.push((src_new(i), tgt_old(oj)));
        }
    }
    if !added.is_empty() && !removed.is_empty() {
        let mut dropped: HashMap<String, String> = removed.drain(..).collect();
        added.retain(|(s, now)| match dropped.remove(s) {
            None => true,
            Some(was) => {
                if was != *now {
                    changed.push((s.clone(), was, now.clone()));
                }
                false
            }
        });
        removed = dropped.into_iter().collect();
    }
    added.sort_unstable();
    removed.sort_unstable();
    changed.sort_unstable();
    (added, removed, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dataset() -> ceaff_datagen::GeneratedDataset {
        ceaff_datagen::generate(&ceaff_datagen::GenConfig {
            aligned_entities: 60,
            channel: ceaff_datagen::NameChannel::Identical { typo_rate: 0.05 },
            ..ceaff_datagen::GenConfig::default()
        })
    }

    fn cfg(blocked: bool) -> CeaffConfig {
        let mut c = CeaffConfig::builder()
            .gcn(crate::gcn::GcnConfig {
                dim: 16,
                ..crate::gcn::GcnConfig::default()
            })
            .embed_dim(32)
            .build()
            .expect("valid config")
            .with_propagation(2);
        if blocked {
            c = c.with_blocking(8);
        }
        c
    }

    fn edit_delta(pair: &KgPair) -> KgDelta {
        // Add a source entity, wire it into the graph near a test entity,
        // and remove one existing triple — touches structure and split.
        let (u, _) = pair.test_pairs()[0];
        let anchor = pair.source.entity_name(u).expect("interned").to_owned();
        let t = pair.source.triples()[0];
        let (h, r, tl) = (
            pair.source
                .entity_name(t.head)
                .expect("interned")
                .to_owned(),
            pair.source
                .relation_name(t.relation)
                .expect("interned")
                .to_owned(),
            pair.source
                .entity_name(t.tail)
                .expect("interned")
                .to_owned(),
        );
        KgDelta::new(vec![
            DeltaOp::AddEntity {
                side: Side::Source,
                name: "delta_fresh_entity".into(),
                at: None,
            },
            DeltaOp::AddTriple {
                side: Side::Source,
                head: "delta_fresh_entity".into(),
                relation: r.clone(),
                tail: anchor,
                at: None,
            },
            DeltaOp::RemoveTriple {
                side: Side::Source,
                head: h,
                relation: r,
                tail: tl,
                at: None,
            },
        ])
    }

    /// Incremental apply ≡ from-scratch on the edited pair, bitwise.
    fn assert_parity(blocked: bool) {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(blocked);
        let mut state =
            DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm state");
        let delta = edit_delta(&ds.pair);
        let diff = state.apply(&delta, &src, &tgt).expect("delta applies");
        assert!(diff.recompute_fraction < 1.0, "nothing stayed clean");

        let edited = delta.apply(&ds.pair).expect("delta valid").pair;
        let fresh_features = FeatureSet::compute(&EaInput::new(&edited, &src, &tgt), &cfg);
        let fresh = try_run_with_features(&edited, &fresh_features, &cfg, &Telemetry::disabled())
            .expect("fresh run");

        assert_eq!(state.output().matching.pairs(), fresh.matching.pairs());
        assert_eq!(
            state.output().accuracy.to_bits(),
            fresh.accuracy.to_bits(),
            "accuracy must be bitwise-identical"
        );
        match (&state.output().fused, &fresh.fused) {
            (SimStore::Dense(a), SimStore::Dense(b)) => {
                let (am, bm) = (a.as_matrix().as_slice(), b.as_matrix().as_slice());
                assert_eq!(am.len(), bm.len());
                for (x, y) in am.iter().zip(bm) {
                    assert_eq!(x.to_bits(), y.to_bits(), "fused store diverged");
                }
            }
            (SimStore::Sparse(a), SimStore::Sparse(b)) => assert_eq!(a, b),
            _ => panic!("store kinds diverged"),
        }
    }

    #[test]
    fn single_delta_parity_dense() {
        assert_parity(false);
    }

    #[test]
    fn single_delta_parity_blocked() {
        assert_parity(true);
    }

    #[test]
    fn trained_structural_mode_is_rejected() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = CeaffConfig::builder().embed_dim(32).build().expect("valid");
        let err = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg)
            .err()
            .expect("trained mode must be rejected");
        match err {
            CeaffError::Delta(msg) => assert!(msg.contains("StructuralMode::Propagation"), "{msg}"),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn fingerprint_chains_deterministically_and_steps_advance() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(false);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let mut a = DeltaState::new(&input, &cfg).expect("state a");
        let mut b = DeltaState::new(&input, &cfg).expect("state b");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.step(), 0);
        let delta = edit_delta(&ds.pair);
        let da = a.apply(&delta, &src, &tgt).expect("a applies");
        let db = b.apply(&delta, &src, &tgt).expect("b applies");
        assert_eq!(da.fingerprint, db.fingerprint);
        assert_ne!(da.fingerprint, config_fingerprint(&cfg).expect("fp"));
        assert_eq!(a.step(), 1);
        assert_eq!(da.step, 1);
    }

    #[test]
    fn rejected_delta_leaves_state_untouched() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(false);
        let mut state =
            DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm state");
        let fp = state.fingerprint();
        let bad = KgDelta::new(vec![DeltaOp::RemoveEntity {
            side: Side::Source,
            name: "no_such_entity_anywhere".into(),
        }]);
        let err = state.apply(&bad, &src, &tgt).expect_err("must reject");
        assert!(matches!(err, CeaffError::Delta(_)), "{err:?}");
        assert_eq!(state.fingerprint(), fp);
        assert_eq!(state.step(), 0);
        assert_eq!(state.pair(), &ds.pair);
    }

    #[test]
    fn quiet_delta_reports_no_alignment_changes() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(false);
        let mut state =
            DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm state");
        // An isolated entity far from the test split changes no feature row.
        let delta = KgDelta::new(vec![DeltaOp::AddEntity {
            side: Side::Target,
            name: "isolated_new_entity".into(),
            at: None,
        }]);
        let diff = state.apply(&delta, &src, &tgt).expect("applies");
        assert!(diff.is_quiet(), "{diff:?}");
        assert_eq!(diff.recompute_fraction, 0.0);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn store_bits(s: &SimStore) -> (Vec<u32>, Vec<u32>) {
        match s {
            SimStore::Dense(m) => (Vec::new(), bits(m.as_matrix())),
            SimStore::Sparse(s) => {
                let (mut cols, mut vals) = (Vec::new(), Vec::new());
                for i in 0..s.sources() {
                    let (c, v) = s.row_entries(i);
                    cols.push(u32::MAX);
                    cols.extend_from_slice(c);
                    vals.extend(v.iter().map(|x| x.to_bits()));
                }
                (cols, vals)
            }
        }
    }

    /// Everything the state caches — propagation layers, embeddings,
    /// names, stores and the decision — equals a state built from
    /// scratch on its current pair, bit for bit.
    fn assert_state_is_fresh(state: &DeltaState, src: &dyn WordEmbedder, tgt: &dyn WordEmbedder) {
        let fresh =
            DeltaState::new(&EaInput::new(state.pair(), src, tgt), state.config()).expect("fresh");
        for (a, b) in [
            (&state.prop_source, &fresh.prop_source),
            (&state.prop_target, &fresh.prop_target),
        ] {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.shape(), y.shape(), "propagation layer shape");
                assert!(bits(x) == bits(y), "propagation layer diverged");
            }
        }
        let (f, g) = (&state.features, &fresh.features);
        if let (Some(a), Some(b)) = (&f.structural, &g.structural) {
            assert!(bits(a.source_embeddings()) == bits(b.source_embeddings()));
            assert!(bits(a.target_embeddings()) == bits(b.target_embeddings()));
            assert!(store_bits(a.test_store()) == store_bits(b.test_store()));
        }
        if let (Some(a), Some(b)) = (&f.semantic, &g.semantic) {
            assert!(bits(a.source_embeddings()) == bits(b.source_embeddings()));
            assert!(bits(a.target_embeddings()) == bits(b.target_embeddings()));
            assert!(store_bits(a.test_store()) == store_bits(b.test_store()));
        }
        if let (Some(a), Some(b)) = (&f.string, &g.string) {
            let pairs = state.pair().test_pairs();
            for &(u, v) in pairs.iter().take(5) {
                assert_eq!(a.score(u, v).to_bits(), b.score(u, v).to_bits());
            }
            assert!(store_bits(a.test_store()) == store_bits(b.test_store()));
        }
        assert_eq!(state.output.matching.pairs(), fresh.output.matching.pairs());
        assert_eq!(
            state.output.accuracy.to_bits(),
            fresh.output.accuracy.to_bits()
        );
        assert!(store_bits(&state.output.fused) == store_bits(&fresh.output.fused));
    }

    #[test]
    fn entities_inserted_and_removed_mid_graph_keep_parity() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        for blocked in [false, true] {
            let mut state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg(blocked))
                .expect("warm state");
            let (u, _) = ds.pair.test_pairs()[1];
            let anchor = entity_name(&ds.pair.source, u).to_owned();
            let rel = ds
                .pair
                .source
                .relation_name(ds.pair.source.triples()[0].relation);
            let rel = rel.expect("interned").to_owned();
            // Insert before every existing id (all rows shift up), wire
            // it in, and add-then-drop a transient entity in one delta.
            let insert = KgDelta::new(vec![
                DeltaOp::AddEntity {
                    side: Side::Source,
                    name: "mid_graph".into(),
                    at: Some(0),
                },
                DeltaOp::AddTriple {
                    side: Side::Source,
                    head: "mid_graph".into(),
                    relation: rel.clone(),
                    tail: anchor.clone(),
                    at: None,
                },
                DeltaOp::AddEntity {
                    side: Side::Target,
                    name: "transient".into(),
                    at: Some(3),
                },
                DeltaOp::RemoveEntity {
                    side: Side::Target,
                    name: "transient".into(),
                },
            ]);
            state.apply(&insert, &src, &tgt).expect("insert applies");
            assert_state_is_fresh(&state, &src, &tgt);
            // Unwire and remove it again (all rows shift back down).
            let remove = KgDelta::new(vec![
                DeltaOp::RemoveTriple {
                    side: Side::Source,
                    head: "mid_graph".into(),
                    relation: rel,
                    tail: anchor,
                    at: None,
                },
                DeltaOp::RemoveEntity {
                    side: Side::Source,
                    name: "mid_graph".into(),
                },
            ]);
            state.apply(&remove, &src, &tgt).expect("removal applies");
            assert_state_is_fresh(&state, &src, &tgt);
            assert_eq!(state.pair(), &ds.pair);
        }
    }

    #[test]
    fn a_link_moving_in_the_split_keeps_parity() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let mut state =
            DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg(true)).expect("warm state");
        // Move the first test link to the end of the split: kept rows and
        // columns change order, so the warm indexes re-sort their postings
        // and every row's candidate list is compared.
        let (u, v) = ds.pair.test_pairs()[0];
        let (s, t) = (
            entity_name(&ds.pair.source, u).to_owned(),
            entity_name(&ds.pair.target, v).to_owned(),
        );
        let relink = KgDelta::new(vec![
            DeltaOp::RemoveLink {
                source: s.clone(),
                target: t.clone(),
            },
            DeltaOp::AddLink {
                source: s,
                target: t,
                split: None,
                alignment_at: None,
                split_at: None,
            },
        ]);
        for _ in 0..2 {
            state.apply(&relink, &src, &tgt).expect("relink applies");
            assert_state_is_fresh(&state, &src, &tgt);
            let warm = state.blocking.as_ref().expect("warm indexes");
            let CandidateStrategy::Blocked { blocking, .. } = &state.cfg.candidates else {
                unreachable!("blocked config")
            };
            let rebuilt = WarmIndexes::build(&state.pair, blocking);
            assert!(warm.targets == rebuilt.targets && warm.sources == rebuilt.sources);
        }
    }

    /// A matching as `source name → target name`.
    fn named(m: &Matching, pair: &KgPair) -> std::collections::BTreeMap<String, String> {
        let (s, t) = test_names(pair);
        m.pairs()
            .iter()
            .map(|&(i, j)| (s[i].to_owned(), t[j].to_owned()))
            .collect()
    }

    #[test]
    fn diffs_equal_a_name_keyed_reference() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let mut state =
            DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg(true)).expect("warm state");
        // Remove a linked source entity and re-create it under the same
        // name in one delta: its row is new by id but the same by name.
        let (u, v) = ds.pair.test_pairs()[2];
        let (s, t) = (
            entity_name(&ds.pair.source, u).to_owned(),
            entity_name(&ds.pair.target, v).to_owned(),
        );
        let mut ops = vec![DeltaOp::RemoveLink {
            source: s.clone(),
            target: t.clone(),
        }];
        for tr in ds
            .pair
            .source
            .triples()
            .iter()
            .filter(|tr| tr.head == u || tr.tail == u)
        {
            ops.push(DeltaOp::RemoveTriple {
                side: Side::Source,
                head: entity_name(&ds.pair.source, tr.head).to_owned(),
                relation: ds
                    .pair
                    .source
                    .relation_name(tr.relation)
                    .expect("interned")
                    .to_owned(),
                tail: entity_name(&ds.pair.source, tr.tail).to_owned(),
                at: None,
            });
        }
        ops.push(DeltaOp::RemoveEntity {
            side: Side::Source,
            name: s.clone(),
        });
        ops.push(DeltaOp::AddEntity {
            side: Side::Source,
            name: s.clone(),
            at: None,
        });
        ops.push(DeltaOp::AddLink {
            source: s,
            target: t,
            split: None,
            alignment_at: None,
            split_at: None,
        });
        // Then a stream of ordinary edits on top.
        let recreate = KgDelta::new(ops);
        let recreated = recreate.apply(&ds.pair).expect("valid delta").pair;
        let stream = ceaff_datagen::evolve(
            &recreated,
            &ceaff_datagen::EvolveConfig {
                steps: 8,
                seed: 3,
                ..Default::default()
            },
        );
        let deltas = std::iter::once(recreate).chain(stream.into_iter().map(|td| td.delta));
        for delta in deltas {
            let before = named(&state.output.matching, &state.pair);
            let diff = state.apply(&delta, &src, &tgt).expect("delta applies");
            let after = named(&state.output.matching, &state.pair);
            let mut added = Vec::new();
            let mut changed = Vec::new();
            for (s, t) in &after {
                match before.get(s) {
                    None => added.push((s.clone(), t.clone())),
                    Some(was) if was != t => changed.push((s.clone(), was.clone(), t.clone())),
                    Some(_) => {}
                }
            }
            let removed: Vec<(String, String)> = before
                .iter()
                .filter(|(s, _)| !after.contains_key(*s))
                .map(|(s, t)| (s.clone(), t.clone()))
                .collect();
            assert_eq!(diff.added, added);
            assert_eq!(diff.removed, removed);
            assert_eq!(diff.changed, changed);
            assert_state_is_fresh(&state, &src, &tgt);
        }
    }

    /// The exact base-dirty count after `new` replaces the state's pair,
    /// by brute force over names: new rows, plus kept rows whose fresh
    /// candidate list differs from their stored columns renumbered (a
    /// stored column whose target left the split never matches).
    fn brute_force_dirty(state: &DeltaState, new: &KgPair, k: usize, b: &BlockingConfig) -> u64 {
        let (src_old, tgt_old) = test_names(&state.pair);
        let (src_new, tgt_new) = test_names(new);
        let index = TargetIndex::build(&tgt_new, b);
        let row_of: HashMap<&str, usize> =
            src_old.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        let col_of: HashMap<&str, u32> = tgt_new
            .iter()
            .enumerate()
            .map(|(j, t)| (*t, j as u32))
            .collect();
        let stored = stored_structure(&state.features).expect("sparse stores");
        let dirty = (0..src_new.len()).filter(|&i| {
            let Some(&oi) = row_of.get(src_new[i]) else {
                return true;
            };
            let renumbered: Option<Vec<u32>> = stored
                .row_entries(oi)
                .0
                .iter()
                .map(|&c| col_of.get(tgt_old[c as usize]).copied())
                .collect();
            renumbered.is_none_or(|mut kept| {
                kept.sort_unstable();
                kept != index.candidate_row(src_new[i], k)
            })
        });
        dirty.count() as u64
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Along random edit streams, both warm indexes equal a rebuild
        /// over the edited names, and the base-dirty set is exact: its
        /// size equals the brute-force count, and — since every cached
        /// store equals a fresh build, no row whose candidate list
        /// changed was left out — so it holds exactly those rows.
        #[test]
        fn warm_indexes_and_base_dirty_rows_are_exact(seed in 0u64..1_000_000) {
            let ds = ceaff_datagen::Preset::SrprsEnFr.generate(0.1);
            let (src, tgt) = (ds.source_embedder(32), ds.target_embedder(32));
            let (k, blocking) = (8, BlockingConfig::default());
            let cfg = cfg(true);
            let mut state =
                DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm state");
            let stream = ceaff_datagen::evolve(
                &ds.pair,
                &ceaff_datagen::EvolveConfig { steps: 12, seed, ..Default::default() },
            );
            for td in &stream {
                let next = td.delta.apply(&state.pair).expect("stream replays").pair;
                let expected = brute_force_dirty(&state, &next, k, &blocking);
                state.apply(&td.delta, &src, &tgt).expect("delta applies");
                let warm = state.blocking.as_ref().expect("warm indexes");
                let rebuilt = WarmIndexes::build(&next, &blocking);
                prop_assert!(warm.targets == rebuilt.targets, "target index diverged");
                prop_assert!(warm.sources == rebuilt.sources, "source index diverged");
                prop_assert_eq!(
                    state.output().trace.counter("delta", "base_dirty_rows"),
                    Some(expected)
                );
                assert_state_is_fresh(&state, &src, &tgt);
            }
        }
    }
}
