//! Warm-state snapshots of a [`DeltaState`] (the durability layer's
//! payload format — ROADMAP item 3's warm restart applied to the
//! incremental serving path).
//!
//! A snapshot captures everything [`DeltaState`] caches — the evolved
//! pair, the raw feature stores, the propagation layers, the last
//! pipeline output, and the chained fingerprint — in the same
//! little-endian fixed-width codec the checkpoint artifacts use (each
//! feature is the very block its stage artifact holds, see
//! [`crate::checkpoint`]), so every `f32`/`f64` round-trips bitwise and
//! a decoded state is *indistinguishable* from the state that was
//! encoded. No feature or decision is
//! recomputed on decode: that is what makes a warm restart cheap (no
//! feature extraction, no fusion) and provable (bit-identical answers).
//!
//! Integrity discipline mirrors [`crate::checkpoint`]:
//!
//! * a magic + version header fails loudly on a foreign or future file,
//! * the configuration is pinned by its fingerprint (CRC32 of its JSON) — the
//!   caller rebuilds [`CeaffConfig`] from its own flags and decode
//!   *verifies* it matches the one the snapshot was taken under,
//! * every read is bounds-checked, every store and matched pair is
//!   checked against the pair's test split, and bytes after the last
//!   field are rejected, so truncated, bit-flipped or crafted payloads
//!   fail with a typed [`CeaffError::Checkpoint`], never a panic — the
//!   outer file framing (CRC32, atomic rename) is the WAL layer's job.
//!
//! Wall-clock telemetry ([`RunTrace`]) is deliberately *not* captured:
//! it is the one non-deterministic field of a [`CeaffOutput`], and a
//! restored state reports a fresh (empty) trace instead of replaying
//! stale timings.

use ceaff_graph::{Alignment, EntityId, KgPair, KnowledgeGraph, RelationId, SeedSplit, Triple};
use ceaff_telemetry::{RunTrace, Telemetry};
use ceaff_tensor::Matrix;

use crate::checkpoint::{
    check_rows, config_fingerprint, get_store, put_store, ByteReader, ByteWriter, FeatureCodec,
};
use crate::delta::{DeltaFeatures, DeltaState, WarmIndexes};
use crate::error::CeaffError;
use crate::eval::RankingMetrics;
use crate::fusion::FusionReport;
use crate::matching::Matching;
use crate::pipeline::{CeaffConfig, CeaffOutput, FeatureSet};

/// `b"CSNP"` — CEAFF warm-state snapshot.
const MAGIC: u32 = u32::from_le_bytes(*b"CSNP");
/// Layout version; bumped on any change so old readers fail loudly.
const VERSION: u32 = 1;

fn snap_err(reason: impl Into<String>) -> CeaffError {
    CeaffError::Checkpoint {
        file: "warm-snapshot".into(),
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

fn put_links(w: &mut ByteWriter, links: &[(EntityId, EntityId)]) {
    w.usize(links.len());
    for &(u, v) in links {
        w.u32(u.0);
        w.u32(v.0);
    }
}

fn put_graph(w: &mut ByteWriter, g: &KnowledgeGraph) {
    w.usize(g.num_entities());
    for id in g.entity_ids() {
        w.str(g.entity_name(id).expect("dense ids"));
    }
    w.usize(g.num_relations());
    for id in g.relation_ids() {
        w.str(g.relation_name(id).expect("dense ids"));
    }
    w.usize(g.num_triples());
    for t in g.triples() {
        w.u32(t.head.0);
        w.u32(t.relation.0);
        w.u32(t.tail.0);
    }
}

/// Binary pair codec. Names in intern order plus triples in insertion
/// order are the graph's whole identity: rebuilding through
/// `add_entity`/`add_relation`/`add_triple` regenerates the per-entity
/// edge indexes exactly (they are kept in the built-from-scratch layout
/// even under deltas), so the decoded pair is `==` the encoded one
/// without shipping the derived indexes. This path used to round-trip
/// the pair through JSON, which dominated warm-restart latency at
/// scale 1 (~1.1 s of `Value`-tree allocation vs ~20 ms here).
fn put_pair(w: &mut ByteWriter, pair: &KgPair) {
    put_graph(w, &pair.source);
    put_graph(w, &pair.target);
    put_links(w, pair.alignment.pairs());
    put_links(w, pair.split.seed());
    put_links(w, pair.split.test());
}

fn put_fusion_report(w: &mut ByteWriter, report: &FusionReport) {
    w.f32s(&report.weights);
    w.usize(report.candidates_per_feature.len());
    for &c in &report.candidates_per_feature {
        w.usize(c);
    }
    w.usize(report.retained_per_feature.len());
    for &r in &report.retained_per_feature {
        w.usize(r);
    }
    w.u8(report.fallback_equal as u8);
}

/// Serialize a [`DeltaState`] into a self-describing snapshot payload.
///
/// Fails (typed) if the state carries `extra` features: those are
/// arbitrary trait objects the codec cannot round-trip, and the serving
/// path — the only producer of snapshots — never sets them.
pub fn encode_delta_state(state: &DeltaState) -> Result<Vec<u8>, CeaffError> {
    let features = &state.parts.features;
    if !features.extra.is_empty() {
        return Err(snap_err(
            "states with extra (plugin) features cannot be snapshotted",
        ));
    }
    let mut w = ByteWriter::new();
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u32(config_fingerprint(state.config())?);
    w.u32(state.fingerprint());
    w.u64(state.step() as u64);

    put_pair(&mut w, state.pair());

    for layers in [&state.parts.prop_source, &state.parts.prop_target] {
        w.usize(layers.len());
        for m in layers {
            w.matrix(m);
        }
    }

    // Each enabled feature is the block of its stage artifact.
    w.opt(features.structural.as_ref(), |w, f| f.put(w));
    w.opt(features.semantic.as_ref(), |w, f| f.put(w));
    w.opt(features.string.as_ref(), |w, f| f.put(w));

    let output = state.output();
    put_store(&mut w, &output.fused);
    w.usize(output.matching.pairs().len());
    for &(i, j) in output.matching.pairs() {
        w.usize(i);
        w.usize(j);
    }
    w.f64(output.accuracy);
    w.f64(output.ranking.hits1);
    w.f64(output.ranking.hits10);
    w.f64(output.ranking.mrr);
    w.opt(output.textual_fusion.as_ref(), put_fusion_report);
    w.opt(output.final_fusion.as_ref(), put_fusion_report);
    w.opt(output.flat_weights.as_ref(), |w, ws| w.f32s(ws));
    Ok(w.into_bytes())
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

fn get_links(r: &mut ByteReader<'_>) -> Result<Vec<(EntityId, EntityId)>, String> {
    let n = r.usize()?;
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let u = EntityId::new(r.u32()?);
        let v = EntityId::new(r.u32()?);
        links.push((u, v));
    }
    Ok(links)
}

fn get_graph(r: &mut ByteReader<'_>) -> Result<KnowledgeGraph, String> {
    let mut g = KnowledgeGraph::new();
    let n_entities = r.usize()?;
    for i in 0..n_entities {
        let id = g.add_entity(&r.str()?);
        if id.index() != i {
            return Err(format!("duplicate entity name at interned id {i}"));
        }
    }
    let n_relations = r.usize()?;
    for i in 0..n_relations {
        let id = g.add_relation(&r.str()?);
        if id.index() != i {
            return Err(format!("duplicate relation name at interned id {i}"));
        }
    }
    let n_triples = r.usize()?;
    for _ in 0..n_triples {
        let head = EntityId::new(r.u32()?);
        let relation = RelationId::new(r.u32()?);
        let tail = EntityId::new(r.u32()?);
        g.add_triple(Triple::new(head, relation, tail))
            .map_err(|e| format!("cannot rebuild triple: {e}"))?;
    }
    Ok(g)
}

fn get_pair(r: &mut ByteReader<'_>) -> Result<KgPair, String> {
    let source = get_graph(r)?;
    let target = get_graph(r)?;
    let alignment =
        Alignment::new(get_links(r)?).map_err(|e| format!("cannot rebuild alignment: {e}"))?;
    let seed = get_links(r)?;
    let test = get_links(r)?;
    Ok(KgPair {
        source,
        target,
        alignment,
        split: SeedSplit::from_parts(seed, test),
    })
}

fn get_fusion_report(r: &mut ByteReader<'_>) -> Result<FusionReport, String> {
    let weights = r.f32s()?;
    let n = r.usize()?;
    let candidates_per_feature = (0..n).map(|_| r.usize()).collect::<Result<_, _>>()?;
    let n = r.usize()?;
    let retained_per_feature = (0..n).map(|_| r.usize()).collect::<Result<_, _>>()?;
    let fallback_equal = r.u8()? != 0;
    Ok(FusionReport {
        weights,
        candidates_per_feature,
        retained_per_feature,
        fallback_equal,
    })
}

/// The propagation layer stacks `[H₀…H_L]` must hold one row per entity
/// of their graph in every layer, be equally deep, and share one width —
/// that of the structural embeddings, whose rows the structural patcher
/// recomputes from the last layer. A structural feature needs a layer.
fn check_layers(
    prop_source: &[Matrix],
    prop_target: &[Matrix],
    pair: &KgPair,
    features: &FeatureSet,
) -> Result<(), String> {
    if prop_source.len() != prop_target.len() {
        return Err(format!(
            "propagation stacks differ in depth: source {}, target {}",
            prop_source.len(),
            prop_target.len()
        ));
    }
    let structural = features.structural.as_ref();
    if structural.is_some() && prop_source.is_empty() {
        return Err("structural feature without propagation layers".into());
    }
    let width = structural.map(|f| f.source_embeddings().cols());
    let width = width.or(prop_source.first().map(Matrix::cols));
    for (side, stack, entities) in [
        ("source", prop_source, pair.source.num_entities()),
        ("target", prop_target, pair.target.num_entities()),
    ] {
        for m in stack {
            check_rows("propagation layer", side, m, entities)?;
            if Some(m.cols()) != width {
                return Err(format!(
                    "propagation layer width {} does not match width {}",
                    m.cols(),
                    width.unwrap_or(0)
                ));
            }
        }
    }
    Ok(())
}

/// Reassemble a [`DeltaState`] from a snapshot payload: its parts (the
/// warm blocking indexes rebuilt) and its decision, telemetry disabled.
///
/// `cfg` is the configuration the caller is serving under (rebuilt from
/// its own flags); decode verifies it fingerprints to the configuration
/// the snapshot was taken with and fails typed otherwise — restoring
/// warm state under a different configuration would silently change
/// every answer.
pub fn decode_delta_state(bytes: &[u8], cfg: &CeaffConfig) -> Result<DeltaState, CeaffError> {
    decode_inner(bytes, cfg).map_err(snap_err)
}

fn decode_inner(bytes: &[u8], cfg: &CeaffConfig) -> Result<DeltaState, String> {
    let mut r = ByteReader::new(bytes);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(format!("bad magic {magic:#010x} (not a snapshot)"));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(format!(
            "snapshot layout version {version} (this build reads {VERSION})"
        ));
    }
    let saved_cfg_crc = r.u32()?;
    let live_cfg_crc = config_fingerprint(cfg).map_err(|e| e.to_string())?;
    if saved_cfg_crc != live_cfg_crc {
        return Err(format!(
            "snapshot was taken under a different configuration \
             (saved crc {saved_cfg_crc:#010x}, serving under {live_cfg_crc:#010x})"
        ));
    }
    let fingerprint = r.u32()?;
    let step = usize::try_from(r.u64()?).map_err(|_| "step exceeds address space".to_owned())?;

    let pair = get_pair(&mut r)?;

    let mut prop = [Vec::new(), Vec::new()];
    for layers in &mut prop {
        let n = r.usize()?;
        for _ in 0..n {
            layers.push(r.matrix()?);
        }
    }
    let [prop_source, prop_target] = prop;

    let features = FeatureSet {
        structural: r.opt(|r| FeatureCodec::get(r, &pair))?,
        semantic: r.opt(|r| FeatureCodec::get(r, &pair))?,
        string: r.opt(|r| FeatureCodec::get(r, &pair))?,
        extra: Vec::new(),
    };
    check_layers(&prop_source, &prop_target, &pair, &features)?;

    let fused = get_store(&mut r, &pair)?;
    let n = r.usize()?;
    let mut pairs = Vec::with_capacity(n.min(bytes.len() / 16));
    let tests = pair.test_pairs().len();
    for _ in 0..n {
        let (i, j) = (r.usize()?, r.usize()?);
        if i >= tests || j >= tests {
            // The next apply indexes the split maps with these.
            return Err(format!("matched pair ({i}, {j}) outside the test split"));
        }
        pairs.push((i, j));
    }
    let matching = Matching::from_pairs(pairs);
    let accuracy = r.f64()?;
    let ranking = RankingMetrics {
        hits1: r.f64()?,
        hits10: r.f64()?,
        mrr: r.f64()?,
    };
    let output = CeaffOutput {
        fused,
        matching,
        accuracy,
        ranking,
        textual_fusion: r.opt(get_fusion_report)?,
        final_fusion: r.opt(get_fusion_report)?,
        flat_weights: r.opt(|r| r.f32s())?,
        trace: RunTrace::default(),
    };
    r.finish()?;

    Ok(DeltaState {
        parts: DeltaFeatures {
            cfg: cfg.clone(),
            blocking: WarmIndexes::build(cfg, &pair),
            pair,
            features,
            prop_source,
            prop_target,
            fingerprint,
            step,
        },
        output,
        telemetry: Telemetry::disabled(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Feature;
    use crate::gcn::GcnConfig;
    use crate::pipeline::EaInput;
    use ceaff_graph::{DeltaOp, KgDelta, Side};
    use ceaff_sim::SimStore;

    fn dataset() -> ceaff_datagen::GeneratedDataset {
        ceaff_datagen::generate(&ceaff_datagen::GenConfig {
            aligned_entities: 60,
            channel: ceaff_datagen::NameChannel::Identical { typo_rate: 0.05 },
            ..ceaff_datagen::GenConfig::default()
        })
    }

    fn cfg(blocked: bool) -> CeaffConfig {
        let mut c = CeaffConfig::builder()
            .gcn(GcnConfig {
                dim: 16,
                ..GcnConfig::default()
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

    fn assert_states_bitwise_equal(a: &DeltaState, b: &DeltaState) {
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.step(), b.step());
        assert_eq!(a.pair(), b.pair());
        assert_eq!(a.output().matching.pairs(), b.output().matching.pairs());
        assert_eq!(a.output().accuracy.to_bits(), b.output().accuracy.to_bits());
        match (&a.output().fused, &b.output().fused) {
            (SimStore::Dense(x), SimStore::Dense(y)) => {
                let (xs, ys) = (x.as_matrix().as_slice(), y.as_matrix().as_slice());
                assert_eq!(xs.len(), ys.len());
                for (p, q) in xs.iter().zip(ys) {
                    assert_eq!(p.to_bits(), q.to_bits(), "fused store diverged");
                }
            }
            (SimStore::Sparse(x), SimStore::Sparse(y)) => assert_eq!(x, y),
            _ => panic!("store kinds diverged"),
        }
        // The strongest check: re-encoding the decoded state reproduces
        // the exact byte stream, so *every* captured field round-tripped.
        assert_eq!(
            encode_delta_state(a).unwrap(),
            encode_delta_state(b).unwrap(),
            "re-encoded snapshots must be byte-identical"
        );
    }

    fn roundtrip(blocked: bool) {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(blocked);
        let mut state =
            DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm state");
        // Advance one step so fingerprint/step are non-trivial.
        let (u, _) = ds.pair.test_pairs()[0];
        let anchor = ds.pair.source.entity_name(u).expect("interned").to_owned();
        let rel = ds.pair.source.triples()[0].relation;
        let rel = ds
            .pair
            .source
            .relation_name(rel)
            .expect("interned")
            .to_owned();
        let delta = KgDelta::new(vec![
            DeltaOp::AddEntity {
                side: Side::Source,
                name: "snap_fresh".into(),
                at: None,
            },
            DeltaOp::AddTriple {
                side: Side::Source,
                head: "snap_fresh".into(),
                relation: rel,
                tail: anchor,
                at: None,
            },
        ]);
        state.apply(&delta, &src, &tgt).expect("delta applies");

        let bytes = encode_delta_state(&state).expect("encode");
        let restored = decode_delta_state(&bytes, &cfg).expect("decode");
        assert_states_bitwise_equal(&state, &restored);

        // A restored state must keep evolving exactly like the original.
        let delta2 = KgDelta::new(vec![DeltaOp::AddEntity {
            side: Side::Target,
            name: "snap_fresh_2".into(),
            at: None,
        }]);
        let mut live = state;
        let mut warm = restored;
        live.apply(&delta2, &src, &tgt).expect("live applies");
        warm.apply(&delta2, &src, &tgt).expect("warm applies");
        assert_states_bitwise_equal(&live, &warm);
    }

    #[test]
    fn snapshot_roundtrip_is_bitwise_dense() {
        roundtrip(false);
    }

    #[test]
    fn snapshot_roundtrip_is_bitwise_blocked() {
        roundtrip(true);
    }

    /// FNV-1a over a snapshot payload.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn snapshot_bytes_are_pinned_across_commits() {
        // Cross-commit pin of the snapshot layout: WAL directories written
        // by an older build must keep warm-restarting, so the bytes of a
        // fixed state may not move. Recorded before the feature codec was
        // shared with the checkpoint stage artifacts.
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        for (blocked, want) in [
            (false, 0xcffd_39c5_cdac_7d30_u64),
            (true, 0x5170_16ea_4ffe_dae8),
        ] {
            let state =
                DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg(blocked)).unwrap();
            let bytes = encode_delta_state(&state).unwrap();
            let got = fnv1a(&bytes);
            assert_eq!(
                got,
                want,
                "snapshot bytes moved (blocked: {blocked}, {} bytes): {got:#018x}",
                bytes.len()
            );
        }
    }

    #[test]
    fn decode_rejects_a_different_configuration() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg(false)).unwrap();
        let bytes = encode_delta_state(&state).unwrap();
        let err = decode_delta_state(&bytes, &cfg(true))
            .map(|_| ())
            .expect_err("config mismatch must be rejected");
        match err {
            CeaffError::Checkpoint { reason, .. } => {
                assert!(reason.contains("different configuration"), "{reason}")
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn every_corrupt_byte_fails_typed_never_panics() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let cfg = cfg(true);
        let state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).unwrap();
        let bytes = encode_delta_state(&state).unwrap();
        // Truncations at a spread of prefixes: typed error or — never — a
        // panic. (Bit flips may legitimately decode if they land in f32
        // payload bytes; the outer file CRC catches those. Truncation
        // must always be caught structurally.)
        for cut in [0, 3, 7, 11, bytes.len() / 2, bytes.len() - 1] {
            let res = decode_delta_state(&bytes[..cut], &cfg);
            assert!(res.is_err(), "truncation at {cut} must fail");
        }
        // A flipped header/magic byte is always structural.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode_delta_state(&bad, &cfg).is_err());
        // So are bytes after the last field.
        let mut long = bytes.clone();
        long.push(0);
        expect_typed(decode_delta_state(&long, &cfg), "trailing");
        // Crafted stores in place of the structural one — the first store
        // of the payload — fail typed instead of panicking the store
        // constructors.
        let (features, mut w) = (&state.parts.features, ByteWriter::new());
        put_store(&mut w, features.structural.as_ref().unwrap().test_store());
        let store = w.into_bytes();
        let at = bytes
            .windows(store.len())
            .position(|win| win == store.as_slice())
            .expect("the structural store is in the payload");
        let n = ds.pair.test_pairs().len();
        for (want, crafted) in crate::checkpoint::tests::hostile_stores(n) {
            let spliced = [&bytes[..at], &crafted, &bytes[at + store.len()..]].concat();
            expect_typed(decode_delta_state(&spliced, &cfg), want);
        }
        // Mis-shaped embedding matrices and propagation layers: one row
        // per entity and one shared width are required (a 1-row semantic
        // matrix used to decode, then panic the next apply).
        let enc = |m: &Matrix| {
            let mut w = ByteWriter::new();
            w.matrix(m);
            w.into_bytes()
        };
        let splice = |from: &Matrix, to: &Matrix| {
            let (old, new) = (enc(from), enc(to));
            let at = bytes
                .windows(old.len())
                .position(|win| win == old.as_slice())
                .expect("the matrix is in the payload");
            [&bytes[..at], &new, &bytes[at + old.len()..]].concat()
        };
        let first_row = |m: &Matrix| Matrix::from_vec(1, m.cols(), m.row(0).to_vec());
        let wider = |m: &Matrix| Matrix::zeros(m.rows(), m.cols() + 1);
        let semantic = features.semantic.as_ref().unwrap();
        let (ns, nt) = (semantic.source_embeddings(), semantic.target_embeddings());
        let (layers_s, layers_t) = (&state.parts.prop_source, &state.parts.prop_target);
        for (want, from, to) in [
            ("semantic source matrix has 1 rows", ns, first_row(ns)),
            ("semantic embedding widths differ", nt, wider(nt)),
            (
                "propagation layer source matrix has 1 rows",
                &layers_s[0],
                first_row(&layers_s[0]),
            ),
            ("propagation layer width", &layers_t[0], wider(&layers_t[0])),
        ] {
            expect_typed(decode_delta_state(&splice(from, &to), &cfg), want);
        }
        // So does a matched pair outside the test split.
        let matching = state.output().matching.pairs();
        let (i, j) = matching[0];
        let needle = [matching.len(), i, j]
            .map(|v| (v as u64).to_le_bytes())
            .concat();
        let at = bytes
            .windows(needle.len())
            .position(|win| win == needle.as_slice())
            .expect("the matching is in the payload");
        let mut far = bytes.clone();
        far[at + 8..at + 16].copy_from_slice(&(n as u64).to_le_bytes());
        expect_typed(decode_delta_state(&far, &cfg), "outside the test split");
    }

    fn expect_typed(res: Result<DeltaState, CeaffError>, want: &str) {
        let err = res.err().expect("a crafted payload must be rejected");
        let typed = matches!(&err, CeaffError::Checkpoint { reason, .. } if reason.contains(want));
        assert!(typed, "expected a typed {want:?} error, got {err}");
    }
}
