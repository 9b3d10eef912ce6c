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
//! * **Dirty sets over-approximate by names, never ids.** Edits address
//!   entities by name; ids shift under insertion/removal. Every map here
//!   is keyed by entity name, and recomputing a cell that did not actually
//!   change is harmless (same bits).
//!
//! # What is (and is not) incremental
//!
//! String and semantic rows depend only on entity names, so a test row or
//! column is dirty only if its entity is new to the split. The structural
//! feature must use the training-free propagation encoder
//! ([`StructuralMode::Propagation`]); its dirty region is the bounded
//! neighbourhood reachable from edited triples within `layers` hops,
//! tracked per propagation layer. The trained GCN couples all entities
//! through shared weights — there is no dirty region smaller than the
//! whole KG — so [`DeltaState::new`] rejects it with
//! [`CeaffError::Delta`]. The matcher is likewise re-run in full each
//! delta: warm-starting deferred acceptance from the previous matching is
//! unsound (a single changed preference can cascade arbitrarily), and the
//! matcher is cheap next to feature generation.

use std::collections::{BTreeMap, HashSet};

use ceaff_embed::{embed_name, WordEmbedder};
use ceaff_graph::{KgDelta, KgPair, KnowledgeGraph};
use ceaff_sim::{
    keys_of, levenshtein_ratio, BlockingConfig, SimStore, SimilarityMatrix, SparseTopK, TargetIndex,
};
use ceaff_telemetry::Telemetry;
use ceaff_tensor::{dot, Matrix};

use crate::budget::ExecBudget;
use crate::checkpoint::{config_fingerprint, crc32};
use crate::error::CeaffError;
use crate::features::{Feature, SemanticFeature, StringFeature, StructuralFeature};
use crate::matching::Matching;
use crate::pipeline::{
    fuse_and_match, try_run_with_features, CandidateStrategy, CeaffConfig, CeaffOutput, EaInput,
    FeatureSet, PropagationLayers, RunOptions, StructuralMode,
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
/// is left exactly as it was (deltas are atomic end to end).
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
        Ok(Self {
            cfg: cfg.clone(),
            pair: input.pair.clone(),
            features,
            prop_source,
            prop_target,
            output,
            fingerprint: config_fingerprint(cfg)?,
            step: 0,
        })
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
    pub fn apply_budgeted(
        &mut self,
        delta: &KgDelta,
        source_embedder: &dyn WordEmbedder,
        target_embedder: &dyn WordEmbedder,
        budget: &ExecBudget,
    ) -> Result<AlignmentDiff, CeaffError> {
        let cfg = self.cfg.clone();
        let applied = delta
            .apply(&self.pair)
            .map_err(|e| CeaffError::Delta(e.to_string()))?;
        let new_pair = applied.pair;

        let old_tests = test_names(&self.pair);
        let new_tests = test_names(&new_pair);
        let maps = SplitMaps::build(&old_tests, &new_tests);
        let new_src_ids = new_pair.test_sources();
        let new_tgt_ids = new_pair.test_targets();

        // One blocking context shared by every sparse store, mirroring the
        // single `block_candidates` call of the batch pipeline.
        let blocked = match &cfg.candidates {
            CandidateStrategy::Dense => None,
            CandidateStrategy::Blocked { k, blocking } => {
                let tgt_names: Vec<&str> = new_tests.iter().map(|(_, t)| t.as_str()).collect();
                Some(BlockedCtx {
                    k: *k,
                    index: TargetIndex::build(&tgt_names, blocking),
                    base_dirty: blocked_dirty_base(&old_tests, &new_tests, &maps, blocking),
                })
            }
        };

        let mut recompute_fraction = 0.0f64;
        let n_tests = new_tests.len();
        let mut note = |work_rows: f64| {
            if n_tests > 0 {
                recompute_fraction = recompute_fraction.max(work_rows / n_tests as f64);
            }
        };

        // ---- string: cells are pure in the two names --------------------
        let string = match &self.features.string {
            None => None,
            Some(old_f) => {
                let store = match old_f.test_store() {
                    SimStore::Dense(old_m) => {
                        note(count_dirty(&maps.new_row_old) as f64);
                        SimStore::Dense(patch_dense(
                            old_m,
                            &maps.new_row_old,
                            &maps.new_col_old,
                            |i, j| levenshtein_ratio(&new_tests[i].0, &new_tests[j].1),
                        ))
                    }
                    SimStore::Sparse(old_s) => {
                        let b = blocked.as_ref().expect("sparse store implies blocking");
                        note(b.base_dirty.iter().filter(|&&d| d).count() as f64);
                        SimStore::Sparse(patch_sparse(
                            old_s,
                            &new_tests,
                            &maps,
                            b,
                            &b.base_dirty,
                            |i, j| levenshtein_ratio(&new_tests[i].0, &new_tests[j as usize].1),
                        ))
                    }
                };
                Some(StringFeature::from_store(&new_pair, store))
            }
        };

        // ---- semantic: rows are pure in the name, given the embedder ----
        let semantic = match &self.features.semantic {
            None => None,
            Some(old_f) => {
                let ns = patch_embeddings(
                    &self.pair.source,
                    &new_pair.source,
                    old_f.source_embeddings(),
                    source_embedder,
                );
                let nt = patch_embeddings(
                    &self.pair.target,
                    &new_pair.target,
                    old_f.target_embeddings(),
                    target_embedder,
                );
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
                            |i, j| {
                                let a = unit(ns.row(new_src_ids[i].index()));
                                let b = unit(nt.row(new_tgt_ids[j].index()));
                                dot(&a, &b)
                            },
                        ))
                    }
                    SimStore::Sparse(old_s) => {
                        let b = blocked.as_ref().expect("sparse store implies blocking");
                        note(b.base_dirty.iter().filter(|&&d| d).count() as f64);
                        // The blocked kernel scores plain dots on the
                        // normalised matrices — no re-normalisation here.
                        SimStore::Sparse(patch_sparse(
                            old_s,
                            &new_tests,
                            &maps,
                            b,
                            &b.base_dirty,
                            |i, j| {
                                dot(
                                    ns.row(new_src_ids[i].index()),
                                    nt.row(new_tgt_ids[j as usize].index()),
                                )
                            },
                        ))
                    }
                };
                Some(SemanticFeature::from_store_parts(ns, nt, store))
            }
        };

        // ---- structural: dirty = layers-hop neighbourhood of the edit ---
        let prop_patch = self.features.structural.as_ref().map(|_| {
            (
                patch_propagation(&self.pair.source, &new_pair.source, &self.prop_source),
                patch_propagation(&self.pair.target, &new_pair.target, &self.prop_target),
            )
        });
        let structural = match (&self.features.structural, &prop_patch) {
            (Some(old_f), Some(((layers_s, dirty_s), (layers_t, dirty_t)))) => {
                let mut zs = layers_s.last().expect("at least layer 0").clone();
                let mut zt = layers_t.last().expect("at least layer 0").clone();
                zs.l2_normalize_rows();
                zt.l2_normalize_rows();
                let store = match old_f.test_store() {
                    SimStore::Dense(old_m) => {
                        let clean_row: Vec<Option<usize>> = (0..n_tests)
                            .map(|i| {
                                maps.new_row_old[i]
                                    .filter(|_| !dirty_s.contains(&new_src_ids[i].index()))
                            })
                            .collect();
                        let clean_col: Vec<Option<usize>> = (0..n_tests)
                            .map(|j| {
                                maps.new_col_old[j]
                                    .filter(|_| !dirty_t.contains(&new_tgt_ids[j].index()))
                            })
                            .collect();
                        note(count_dirty(&clean_row) as f64);
                        SimStore::Dense(patch_dense(old_m, &clean_row, &clean_col, |i, j| {
                            let a = unit(zs.row(new_src_ids[i].index()));
                            let b = unit(zt.row(new_tgt_ids[j].index()));
                            dot(&a, &b)
                        }))
                    }
                    SimStore::Sparse(old_s) => {
                        let b = blocked.as_ref().expect("sparse store implies blocking");
                        // Only blocking-dirty rows need a candidate-set
                        // rebuild. A kept row whose candidate set is clean
                        // but whose source moved, or which stores a column
                        // whose target moved, keeps its exact column
                        // structure (counts and — under the monotone remap
                        // — tie order are unchanged); only the stale cell
                        // *values* are rescored. That turns the `layers`-hop
                        // neighbourhood of an edit from `k` whole-row
                        // rebuilds per touched target into a handful of
                        // single-cell dots.
                        let score = |i: usize, j: u32| {
                            dot(
                                zs.row(new_src_ids[i].index()),
                                zt.row(new_tgt_ids[j as usize].index()),
                            )
                        };
                        let dirty_tgt_col: Vec<bool> = (0..n_tests)
                            .map(|j| dirty_t.contains(&new_tgt_ids[j].index()))
                            .collect();
                        let patched: Vec<PatchedRow> =
                            ceaff_parallel::par_map(n_tests, PATCH_GRAIN, |i| {
                                if b.base_dirty[i] {
                                    let row: Vec<(u32, f32)> = b
                                        .index
                                        .candidate_row(&new_tests[i].0, b.k)
                                        .into_iter()
                                        .map(|j| (j, score(i, j)))
                                        .collect();
                                    return (Some(row), 1.0);
                                }
                                let src_dirty = dirty_s.contains(&new_src_ids[i].index());
                                let oi = maps.new_row_old[i].expect("blocking-clean row is kept");
                                let mut stale = 0usize;
                                let row: Vec<(u32, f32)> = old_s
                                    .row_vec(oi)
                                    .into_iter()
                                    .map(|(c, v)| {
                                        let cn = maps.old_to_new_col[c as usize]
                                            .expect("blocking-clean row keeps its stored columns");
                                        if src_dirty || dirty_tgt_col[cn as usize] {
                                            stale += 1;
                                            (cn, score(i, cn))
                                        } else {
                                            (cn, v)
                                        }
                                    })
                                    .collect();
                                if stale > 0 {
                                    (Some(row), (stale as f64 / b.k as f64).min(1.0))
                                } else {
                                    (None, 0.0)
                                }
                            });
                        note(patched.iter().map(|(_, w)| w).sum());
                        let rebuilt: Vec<Option<Vec<(u32, f32)>>> =
                            patched.into_iter().map(|(r, _)| r).collect();
                        let row_map: Vec<Option<usize>> = maps
                            .old_to_new_row
                            .iter()
                            .map(|m| (*m).filter(|&new_i| rebuilt[new_i].is_none()))
                            .collect();
                        SimStore::Sparse(old_s.patched(
                            n_tests,
                            &row_map,
                            &maps.old_to_new_col,
                            &rebuilt,
                        ))
                    }
                };
                Some(StructuralFeature::from_store_parts(
                    zs,
                    zt,
                    store,
                    Vec::new(),
                ))
            }
            _ => None,
        };

        let features = FeatureSet {
            structural,
            semantic,
            string,
            extra: Vec::new(),
        };

        // Global stages re-run in full — identical to the batch pipeline.
        let telemetry = Telemetry::disabled();
        let output = fuse_and_match(&new_pair, &features, &cfg, &telemetry, budget)?;

        let (added, removed, changed) = diff_matchings(
            &named_matching(&self.output.matching, &old_tests),
            &named_matching(&output.matching, &new_tests),
        );

        let delta_json = serde_json::to_string(delta)
            .map_err(|e| CeaffError::Delta(format!("delta not serializable: {e}")))?;
        let mut bytes = self.fingerprint.to_le_bytes().to_vec();
        bytes.extend_from_slice(delta_json.as_bytes());
        let fingerprint = crc32(&bytes);

        // Commit — nothing above mutated `self`, so any `?` early-return
        // left the warm state untouched.
        if let Some(((ls, _), (lt, _))) = prop_patch {
            self.prop_source = ls;
            self.prop_target = lt;
        }
        self.pair = new_pair;
        self.features = features;
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
    /// the state that was encoded.
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
        }
    }
}

/// Blocking context shared by every sparse-store patch of one delta.
struct BlockedCtx {
    k: usize,
    index: TargetIndex,
    /// Per new test row: dirty for *every* feature — the row is new, or
    /// shares a blocking key with an added/removed target (its candidate
    /// set may have changed).
    base_dirty: Vec<bool>,
}

/// The test split as stable names, in split order.
fn test_names(pair: &KgPair) -> Vec<(String, String)> {
    pair.test_pairs()
        .iter()
        .map(|&(u, v)| {
            (
                pair.source.entity_name(u).expect("interned").to_owned(),
                pair.target.entity_name(v).expect("interned").to_owned(),
            )
        })
        .collect()
}

/// Old↔new test-split index maps, keyed by entity name. Source names are
/// unique across the split (the alignment is one-to-one), as are target
/// names, so the maps are well-defined; edits only insert or remove rows,
/// so kept entries preserve relative order (which keeps
/// [`SparseTopK::patched`]'s monotone-column contract).
struct SplitMaps {
    /// Per old row: its new index, `None` if dropped.
    old_to_new_row: Vec<Option<usize>>,
    /// Per old column: its new index, `None` if dropped.
    old_to_new_col: Vec<Option<u32>>,
    /// Per new row: the old row with the same source name, `None` if new.
    new_row_old: Vec<Option<usize>>,
    /// Per new column: the old column with the same target name.
    new_col_old: Vec<Option<usize>>,
}

impl SplitMaps {
    fn build(old: &[(String, String)], new: &[(String, String)]) -> Self {
        let index_by = |tests: &[(String, String)], tgt: bool| -> BTreeMap<String, usize> {
            tests
                .iter()
                .enumerate()
                .map(|(i, (s, t))| (if tgt { t.clone() } else { s.clone() }, i))
                .collect()
        };
        let (old_src, old_tgt) = (index_by(old, false), index_by(old, true));
        let (new_src, new_tgt) = (index_by(new, false), index_by(new, true));
        Self {
            old_to_new_row: old.iter().map(|(s, _)| new_src.get(s).copied()).collect(),
            old_to_new_col: old
                .iter()
                .map(|(_, t)| new_tgt.get(t).copied().map(|i| i as u32))
                .collect(),
            new_row_old: new.iter().map(|(s, _)| old_src.get(s).copied()).collect(),
            new_col_old: new.iter().map(|(_, t)| old_tgt.get(t).copied()).collect(),
        }
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

/// Patch a sparse top-k store: rebuild dirty rows through the *new*
/// target index (the same `candidate_row` + score path
/// [`SparseTopK::from_candidates`] takes), remap everything else.
fn patch_sparse(
    old: &SparseTopK,
    new_tests: &[(String, String)],
    maps: &SplitMaps,
    b: &BlockedCtx,
    dirty_rows: &[bool],
    score: impl Fn(usize, u32) -> f32 + Sync,
) -> SparseTopK {
    let rebuilt: Vec<Option<Vec<(u32, f32)>>> =
        ceaff_parallel::par_map(new_tests.len(), PATCH_GRAIN, |i| {
            dirty_rows[i].then(|| {
                b.index
                    .candidate_row(&new_tests[i].0, b.k)
                    .into_iter()
                    .map(|j| (j, score(i, j)))
                    .collect()
            })
        });
    // Suppress kept-row reuse for dirty kept rows by dropping their map
    // entry — `patched` takes the rebuilt row instead.
    let row_map: Vec<Option<usize>> = maps
        .old_to_new_row
        .iter()
        .map(|m| (*m).filter(|&new_i| !dirty_rows[new_i]))
        .collect();
    old.patched(new_tests.len(), &row_map, &maps.old_to_new_col, &rebuilt)
}

/// Per new test row: dirty for every sparse feature — new source name, or
/// an added/removed target name *qualifies as a candidate* for the row.
///
/// A target with fewer than `min_shared_keys` weighted shared keys never
/// appears in `candidate_row`'s shared-count map above the filter, so it
/// can affect neither membership nor ranking of the row's candidate list;
/// kept targets keep their counts and (under the monotone column remap)
/// their tie-break order. The shared count here is computed exactly as
/// `candidate_row` accumulates it: Σ over keys of
/// `source_multiplicity · target_multiplicity`.
fn blocked_dirty_base(
    old_tests: &[(String, String)],
    new_tests: &[(String, String)],
    maps: &SplitMaps,
    blocking: &BlockingConfig,
) -> Vec<bool> {
    let key_counts = |name: &str| -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for k in keys_of(name, blocking) {
            *m.entry(k).or_insert(0) += 1;
        }
        m
    };
    let mut changed: Vec<BTreeMap<String, usize>> = Vec::new();
    for (j, kept) in maps.new_col_old.iter().enumerate() {
        if kept.is_none() {
            changed.push(key_counts(&new_tests[j].1));
        }
    }
    for (j, kept) in maps.old_to_new_col.iter().enumerate() {
        if kept.is_none() {
            changed.push(key_counts(&old_tests[j].1));
        }
    }
    new_tests
        .iter()
        .enumerate()
        .map(|(i, (s, _))| {
            if maps.new_row_old[i].is_none() {
                return true;
            }
            if changed.is_empty() {
                return false;
            }
            let src = key_counts(s);
            changed.iter().any(|tgt| {
                let shared: usize = src
                    .iter()
                    .map(|(k, sm)| sm * tgt.get(k).copied().unwrap_or(0))
                    .sum();
                shared >= blocking.min_shared_keys
            })
        })
        .collect()
}

/// Patch a full-KG name-embedding matrix: kept names copy their old row
/// (embedding is pure in the name), new names embed + L2-normalise through
/// the same scalar path `name_embedding_matrix` + `l2_normalize_rows`
/// take (fully-OOV names stay zero rows).
fn patch_embeddings(
    old_kg: &KnowledgeGraph,
    new_kg: &KnowledgeGraph,
    old_m: &Matrix,
    embedder: &dyn WordEmbedder,
) -> Matrix {
    let dim = old_m.cols();
    let names: Vec<&str> = new_kg
        .entity_ids()
        .map(|e| new_kg.entity_name(e).expect("interned"))
        .collect();
    // Sequential: embedders are `?Sync` trait objects, and only the few
    // names new to the graph embed at all.
    let mut m = Matrix::zeros(names.len(), dim);
    for (i, name) in names.iter().enumerate() {
        match old_kg.entity_id(name) {
            Some(o) => m.row_mut(i).copy_from_slice(old_m.row(o.index())),
            None => {
                let mut row = embed_name(embedder, name).unwrap_or_else(|| vec![0.0; dim]);
                propagation::normalize_row(&mut row);
                m.row_mut(i).copy_from_slice(&row);
            }
        }
    }
    m
}

/// Patch one graph's propagation layers. Returns the new `[H₀…H_L]` and
/// the set of new-graph entity indices whose **final-layer** row was
/// recomputed (the structural dirty set for store patching).
///
/// Dirty tracking is by name: `base` = entities new to the graph plus
/// kept entities whose sorted neighbour-*name* list changed (covers
/// degree changes too, since the list length changes). `S₁ = base ∪
/// N(base)`, `Sₗ = Sₗ₋₁ ∪ N(Sₗ₋₁)` over the *new* graph; layer `l`
/// recomputes exactly the rows in `Sₗ` (layer 0 only the new entities —
/// seeds are pure in the name). Rows are recomputed through the very
/// `seed_row` / `propagate_row` functions the bulk encoder runs, so a
/// patched layer is bitwise-identical to a fresh one.
fn patch_propagation(
    old_kg: &KnowledgeGraph,
    new_kg: &KnowledgeGraph,
    old_layers: &[Matrix],
) -> (Vec<Matrix>, HashSet<usize>) {
    let dim = old_layers[0].cols();
    let n = new_kg.num_entities();
    let neigh = propagation::neighbor_lists(new_kg);
    let degrees: Vec<usize> = neigh.iter().map(Vec::len).collect();
    let names: Vec<&str> = new_kg
        .entity_ids()
        .map(|e| new_kg.entity_name(e).expect("interned"))
        .collect();
    let old_row: Vec<Option<usize>> = names
        .iter()
        .map(|nm| old_kg.entity_id(nm).map(|e| e.index()))
        .collect();

    let mut base: HashSet<usize> = HashSet::new();
    for i in 0..n {
        match old_row[i] {
            None => {
                base.insert(i);
            }
            Some(o) => {
                let mut new_nb: Vec<&str> = neigh[i].iter().map(|&e| names[e.index()]).collect();
                new_nb.sort_unstable();
                let mut old_nb: Vec<&str> = old_kg
                    .neighbors(ceaff_graph::EntityId::new(o as u32))
                    .iter()
                    .map(|&e| old_kg.entity_name(e).expect("interned"))
                    .collect();
                old_nb.sort_unstable();
                if new_nb != old_nb {
                    base.insert(i);
                }
            }
        }
    }

    let expand = |s: &HashSet<usize>| -> HashSet<usize> {
        let mut out = s.clone();
        for &i in s {
            for &e in &neigh[i] {
                out.insert(e.index());
            }
        }
        out
    };

    let h0 = propagation::matrix_from_par_rows(n, dim, |i| match old_row[i] {
        Some(o) => old_layers[0].row(o).to_vec(),
        None => propagation::seed_row(names[i], dim),
    });
    let mut layers = vec![h0];
    let mut dirty = expand(&base);
    for l in 1..old_layers.len() {
        if l > 1 {
            dirty = expand(&dirty);
        }
        let d = &dirty;
        let prev = &layers[l - 1];
        let next = propagation::matrix_from_par_rows(n, dim, |i| {
            if d.contains(&i) {
                propagation::propagate_row(prev, i, &neigh[i], &degrees)
            } else {
                old_layers[l]
                    .row(old_row[i].expect("clean rows are kept entities"))
                    .to_vec()
            }
        });
        layers.push(next);
    }
    (layers, dirty)
}

/// A matching as `source name → target name` (sorted map for stable diff
/// order).
fn named_matching(m: &Matching, tests: &[(String, String)]) -> BTreeMap<String, String> {
    m.pairs()
        .iter()
        .map(|&(i, j)| (tests[i].0.clone(), tests[j].1.clone()))
        .collect()
}

/// Added / removed / re-assigned pairs between two named matchings.
#[allow(clippy::type_complexity)]
fn diff_matchings(
    old: &BTreeMap<String, String>,
    new: &BTreeMap<String, String>,
) -> (
    Vec<(String, String)>,
    Vec<(String, String)>,
    Vec<(String, String, String)>,
) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut changed = Vec::new();
    for (s, t) in new {
        match old.get(s) {
            None => added.push((s.clone(), t.clone())),
            Some(ot) if ot != t => changed.push((s.clone(), ot.clone(), t.clone())),
            Some(_) => {}
        }
    }
    for (s, t) in old {
        if !new.contains_key(s) {
            removed.push((s.clone(), t.clone()));
        }
    }
    (added, removed, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_graph::{DeltaOp, Side};

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
}
