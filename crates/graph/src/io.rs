//! OpenEA-style tab-separated I/O.
//!
//! The de-facto interchange format of EA benchmarks (DBP15K, SRPRS, OpenEA)
//! is a directory of TSV files: `triples_1` / `triples_2` with one
//! `head \t relation \t tail` fact per line, and a `links` file with one
//! `source \t target` gold pair per line. This module reads and writes that
//! format through generic readers/writers (testable in memory) with
//! path-based conveniences.

use crate::error::GraphError;
use crate::kg::KnowledgeGraph;
use crate::pair::{Alignment, KgPair};
use rand::Rng;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// How loaders treat malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Any malformed line (wrong arity, invalid UTF-8, unknown link
    /// entity) is an immediate [`GraphError::Malformed`] — the historical
    /// behaviour and the default.
    #[default]
    Strict,
    /// Malformed lines are skipped and counted; real-world benchmark dumps
    /// routinely contain a handful of mangled rows, and dying on line
    /// 900k of a million-line file wastes the other 999 999.
    Lossy,
}

/// Per-file skipped-line counts of a lossy load (empty after a strict
/// one). The CLI surfaces these through telemetry counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// `(file label, skipped lines)`, one entry per file that lost lines.
    pub skipped: Vec<(String, usize)>,
}

impl LoadReport {
    /// Total skipped lines across all files.
    pub fn total_skipped(&self) -> usize {
        self.skipped.iter().map(|(_, n)| n).sum()
    }

    fn record(&mut self, file: &str, n: usize) {
        if n > 0 {
            self.skipped.push((file.to_owned(), n));
        }
    }
}

/// Iterate lines as raw bytes so invalid UTF-8 reaches the caller as a
/// *line-level* decision instead of a stream-killing `io::Error` (which is
/// what `BufRead::lines` produces). Handles a missing trailing newline and
/// strips `\r\n`.
fn for_each_raw_line<R: BufRead>(
    mut reader: R,
    mut f: impl FnMut(usize, &[u8]) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let mut buf = Vec::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        f(lineno, &buf)?;
    }
}

/// Decode one line, honouring the mode: `Ok(None)` means "skip it".
fn decode_line<'a>(
    raw: &'a [u8],
    lineno: usize,
    mode: LoadMode,
    skipped: &mut usize,
) -> Result<Option<&'a str>, GraphError> {
    match std::str::from_utf8(raw) {
        Ok(s) => Ok(Some(s)),
        Err(_) => match mode {
            LoadMode::Strict => Err(GraphError::Malformed {
                line: lineno,
                reason: "invalid UTF-8".into(),
            }),
            LoadMode::Lossy => {
                *skipped += 1;
                Ok(None)
            }
        },
    }
}

/// Parse a KG from `head \t relation \t tail` lines. Blank lines and lines
/// starting with `#` are skipped.
pub fn read_triples<R: BufRead>(reader: R) -> Result<KnowledgeGraph, GraphError> {
    let mut kg = KnowledgeGraph::new();
    read_triples_into(reader, &mut kg, LoadMode::Strict)?;
    Ok(kg)
}

/// [`read_triples`] with an explicit [`LoadMode`]; returns the parsed KG
/// together with the number of skipped lines (always 0 under
/// [`LoadMode::Strict`]).
pub fn read_triples_with<R: BufRead>(
    reader: R,
    mode: LoadMode,
) -> Result<(KnowledgeGraph, usize), GraphError> {
    let mut kg = KnowledgeGraph::new();
    let skipped = read_triples_into(reader, &mut kg, mode)?;
    Ok((kg, skipped))
}

/// Parse triples into an existing graph (whose entities may be
/// pre-interned from an entity list), returning the skipped-line count.
fn read_triples_into<R: BufRead>(
    reader: R,
    kg: &mut KnowledgeGraph,
    mode: LoadMode,
) -> Result<usize, GraphError> {
    let mut skipped = 0usize;
    for_each_raw_line(reader, |lineno, raw| {
        let Some(line) = decode_line(raw, lineno, mode, &mut skipped)? else {
            return Ok(());
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(());
        }
        let mut fields = trimmed.split('\t');
        match (fields.next(), fields.next(), fields.next()) {
            (Some(h), Some(r), Some(t)) if fields.next().is_none() => {
                kg.add_fact(h, r, t);
                Ok(())
            }
            _ => match mode {
                LoadMode::Strict => Err(GraphError::Malformed {
                    line: lineno,
                    reason: "expected exactly 3 tab-separated fields".into(),
                }),
                LoadMode::Lossy => {
                    skipped += 1;
                    Ok(())
                }
            },
        }
    })?;
    Ok(skipped)
}

/// Serialise a KG as `head \t relation \t tail` lines.
///
/// A triple referencing an id absent from the interner (impossible through
/// the public [`KnowledgeGraph`] API, but reachable from hand-assembled
/// data) is a typed [`GraphError::UnknownEntity`] /
/// [`GraphError::UnknownRelation`] instead of a panic.
pub fn write_triples<W: Write>(kg: &KnowledgeGraph, mut writer: W) -> Result<(), GraphError> {
    for t in kg.triples() {
        let h = kg
            .entity_name(t.head)
            .ok_or(GraphError::UnknownEntity(t.head.0))?;
        let r = kg
            .relation_name(t.relation)
            .ok_or(GraphError::UnknownRelation(t.relation.0))?;
        let ta = kg
            .entity_name(t.tail)
            .ok_or(GraphError::UnknownEntity(t.tail.0))?;
        writeln!(writer, "{h}\t{r}\t{ta}")?;
    }
    Ok(())
}

/// Parse gold links `source \t target` against two already-loaded KGs.
///
/// Every referenced name must exist in the corresponding KG.
pub fn read_links<R: BufRead>(
    reader: R,
    source: &KnowledgeGraph,
    target: &KnowledgeGraph,
) -> Result<Alignment, GraphError> {
    read_links_with(reader, source, target, LoadMode::Strict).map(|(a, _)| a)
}

/// [`read_links`] with an explicit [`LoadMode`]: lossy loads skip (and
/// count) lines with wrong arity, invalid UTF-8, or entity names unknown
/// to the corresponding KG.
pub fn read_links_with<R: BufRead>(
    reader: R,
    source: &KnowledgeGraph,
    target: &KnowledgeGraph,
    mode: LoadMode,
) -> Result<(Alignment, usize), GraphError> {
    let mut pairs = Vec::new();
    let mut skipped = 0usize;
    for_each_raw_line(reader, |lineno, raw| {
        let Some(line) = decode_line(raw, lineno, mode, &mut skipped)? else {
            return Ok(());
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(());
        }
        let mut fields = trimmed.split('\t');
        let (s, t) = match (fields.next(), fields.next()) {
            (Some(s), Some(t)) if fields.next().is_none() => (s, t),
            _ => {
                return match mode {
                    LoadMode::Strict => Err(GraphError::Malformed {
                        line: lineno,
                        reason: "expected exactly 2 tab-separated fields".into(),
                    }),
                    LoadMode::Lossy => {
                        skipped += 1;
                        Ok(())
                    }
                }
            }
        };
        let (u, v) = match (source.entity_id(s), target.entity_id(t)) {
            (Some(u), Some(v)) => (u, v),
            (u, _) => {
                return match mode {
                    LoadMode::Strict => {
                        let (side, name) = if u.is_none() {
                            ("source", s)
                        } else {
                            ("target", t)
                        };
                        Err(GraphError::Malformed {
                            line: lineno,
                            reason: format!("unknown {side} entity '{name}'"),
                        })
                    }
                    LoadMode::Lossy => {
                        skipped += 1;
                        Ok(())
                    }
                }
            }
        };
        pairs.push((u, v));
        Ok(())
    })?;
    Ok((Alignment::new(pairs)?, skipped))
}

/// Serialise gold links as `source \t target` lines.
pub fn write_links<W: Write>(
    alignment: &Alignment,
    source: &KnowledgeGraph,
    target: &KnowledgeGraph,
    mut writer: W,
) -> Result<(), GraphError> {
    for &(u, v) in alignment.pairs() {
        let s = source
            .entity_name(u)
            .ok_or(GraphError::UnknownEntity(u.0))?;
        let t = target
            .entity_name(v)
            .ok_or(GraphError::UnknownEntity(v.0))?;
        writeln!(writer, "{s}\t{t}")?;
    }
    Ok(())
}

/// Pre-intern entity names from an `entities_*` file (one name per line),
/// preserving isolated entities — sparse real-life KGs contain aligned
/// entities with no triples, which a triples-only file cannot represent.
fn preload_entities<R: BufRead>(reader: R, kg: &mut KnowledgeGraph) -> Result<(), GraphError> {
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('#') {
            kg.add_entity(trimmed);
        }
    }
    Ok(())
}

/// Open a dataset file, routing through the fault-injection I/O hook so a
/// harness can force loader failures without touching the filesystem.
fn open_input(path: &Path) -> Result<BufReader<File>, GraphError> {
    if let Some(e) = ceaff_faultinject::io_error(path) {
        return Err(GraphError::Io(e));
    }
    Ok(BufReader::new(File::open(path)?))
}

/// Load a full alignment problem from a benchmark directory containing
/// `triples_1`, `triples_2` and `links` (plus optional `entities_1` /
/// `entities_2` listing all entity names, which preserves isolated
/// entities and id order), splitting seeds with `seed_fraction` (the paper
/// uses 0.3). Strict: any malformed line aborts the load.
pub fn load_pair_from_dir<P: AsRef<Path>, R: Rng>(
    dir: P,
    seed_fraction: f64,
    rng: &mut R,
) -> Result<KgPair, GraphError> {
    load_pair_from_dir_with(dir, seed_fraction, rng, LoadMode::Strict).map(|(pair, _)| pair)
}

/// [`load_pair_from_dir`] with an explicit [`LoadMode`]. The returned
/// [`LoadReport`] carries per-file skipped-line counts (empty under
/// [`LoadMode::Strict`]).
pub fn load_pair_from_dir_with<P: AsRef<Path>, R: Rng>(
    dir: P,
    seed_fraction: f64,
    rng: &mut R,
    mode: LoadMode,
) -> Result<(KgPair, LoadReport), GraphError> {
    let dir = dir.as_ref();
    let mut report = LoadReport::default();
    let load_side = |triples: &str,
                     entities: &str,
                     report: &mut LoadReport|
     -> Result<KnowledgeGraph, GraphError> {
        let mut kg = KnowledgeGraph::new();
        let entity_file = dir.join(entities);
        if entity_file.exists() {
            preload_entities(open_input(&entity_file)?, &mut kg)?;
        }
        let skipped = read_triples_into(open_input(&dir.join(triples))?, &mut kg, mode)?;
        report.record(triples, skipped);
        Ok(kg)
    };
    let source = load_side("triples_1", "entities_1", &mut report)?;
    let target = load_side("triples_2", "entities_2", &mut report)?;
    let (alignment, skipped) =
        read_links_with(open_input(&dir.join("links"))?, &source, &target, mode)?;
    report.record("links", skipped);
    Ok((
        KgPair::new(source, target, alignment, seed_fraction, rng),
        report,
    ))
}

/// Write a full alignment problem into a benchmark directory in the
/// `triples_1` / `triples_2` / `links` layout, plus `entities_1` /
/// `entities_2` files so isolated entities and id order survive a round
/// trip.
pub fn save_pair_to_dir<P: AsRef<Path>>(pair: &KgPair, dir: P) -> Result<(), GraphError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for (kg, triples, entities) in [
        (&pair.source, "triples_1", "entities_1"),
        (&pair.target, "triples_2", "entities_2"),
    ] {
        write_triples(kg, BufWriter::new(File::create(dir.join(triples))?))?;
        let mut w = BufWriter::new(File::create(dir.join(entities))?);
        for (_, name) in kg.entities().iter() {
            writeln!(w, "{name}")?;
        }
    }
    write_links(
        &pair.alignment,
        &pair.source,
        &pair.target,
        BufWriter::new(File::create(dir.join("links"))?),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_triples_parses_and_skips_comments() {
        let input = "# comment\nParis\tcapitalOf\tFrance\n\nLyon\tlocatedIn\tFrance\n";
        let kg = read_triples(Cursor::new(input)).unwrap();
        assert_eq!(kg.num_triples(), 2);
        assert_eq!(kg.num_entities(), 3);
        assert_eq!(kg.num_relations(), 2);
        assert!(kg.entity_id("Paris").is_some());
    }

    #[test]
    fn read_triples_rejects_wrong_arity() {
        let err = read_triples(Cursor::new("a\tb\n")).unwrap_err();
        assert!(matches!(err, GraphError::Malformed { line: 1, .. }));
        let err = read_triples(Cursor::new("a\tb\tc\td\n")).unwrap_err();
        assert!(matches!(err, GraphError::Malformed { line: 1, .. }));
    }

    #[test]
    fn triples_roundtrip() {
        let input = "Paris\tcapitalOf\tFrance\nLyon\tlocatedIn\tFrance\n";
        let kg = read_triples(Cursor::new(input)).unwrap();
        let mut out = Vec::new();
        write_triples(&kg, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), input);
    }

    #[test]
    fn links_roundtrip_and_validation() {
        let kg1 = read_triples(Cursor::new("Paris\tr\tFrance\n")).unwrap();
        let kg2 = read_triples(Cursor::new("Paris@fr\tr\tFrance@fr\n")).unwrap();
        let a = read_links(
            Cursor::new("Paris\tParis@fr\nFrance\tFrance@fr\n"),
            &kg1,
            &kg2,
        )
        .unwrap();
        assert_eq!(a.len(), 2);
        let mut out = Vec::new();
        write_links(&a, &kg1, &kg2, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "Paris\tParis@fr\nFrance\tFrance@fr\n"
        );

        let err = read_links(Cursor::new("Ghost\tParis@fr\n"), &kg1, &kg2).unwrap_err();
        assert!(matches!(err, GraphError::Malformed { .. }));
    }

    #[test]
    fn lossy_triples_skip_and_count_malformed_lines() {
        // Wrong arity (1 line), invalid UTF-8 (1 line), wrong arity again.
        let mut input = b"a\tr\tb\nbroken line\n".to_vec();
        input.extend_from_slice(b"bad\xff\xfeutf8\tr\tx\n");
        input.extend_from_slice(b"c\tr\td\ne\tf\tg\th\n");
        let (kg, skipped) = read_triples_with(Cursor::new(input), LoadMode::Lossy).unwrap();
        assert_eq!(skipped, 3);
        assert_eq!(kg.num_triples(), 2);
    }

    #[test]
    fn strict_rejects_invalid_utf8_with_line_number() {
        let mut input = b"a\tr\tb\n".to_vec();
        input.extend_from_slice(b"bad\xff\xfe\tr\tx\n");
        let err = read_triples(Cursor::new(input)).unwrap_err();
        match err {
            GraphError::Malformed { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("UTF-8"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn lossy_links_skip_unknown_entities_with_counts() {
        let kg1 = read_triples(Cursor::new("a\tr\tb\n")).unwrap();
        let kg2 = read_triples(Cursor::new("a2\tr\tb2\n")).unwrap();
        let input = "a\ta2\nGhost\ta2\nb\tPhantom\nb\tb2\nonly-one-field\n";
        let (align, skipped) =
            read_links_with(Cursor::new(input), &kg1, &kg2, LoadMode::Lossy).unwrap();
        assert_eq!(align.len(), 2);
        assert_eq!(skipped, 3);
    }

    #[test]
    fn strict_mode_reports_zero_skips() {
        let (kg, skipped) = read_triples_with(Cursor::new("a\tr\tb\n"), LoadMode::Strict).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(kg.num_triples(), 1);
    }

    #[test]
    fn missing_trailing_newline_still_parses_last_line() {
        let kg = read_triples(Cursor::new("a\tr\tb\nc\tr\td")).unwrap();
        assert_eq!(kg.num_triples(), 2);
        // CRLF endings are stripped too.
        let kg = read_triples(Cursor::new("a\tr\tb\r\nc\tr\td\r\n")).unwrap();
        assert_eq!(kg.num_triples(), 2);
    }

    #[test]
    fn write_triples_returns_typed_error_for_uninterned_ids() {
        // A triple referencing an id the interner never saw cannot be
        // built through the public API, but deserialization trusts its
        // input — mutate the serialized form to fabricate one.
        let mut kg = KnowledgeGraph::new();
        kg.add_fact("a", "r", "b");
        let json = serde_json::to_string(&kg).unwrap();
        let broken = json.replace("\"tail\":1", "\"tail\":9");
        assert_ne!(json, broken, "expected to find the tail id to corrupt");
        let kg: KnowledgeGraph = serde_json::from_str(&broken).unwrap();
        let err = write_triples(&kg, Vec::new()).unwrap_err();
        assert!(matches!(err, GraphError::UnknownEntity(9)), "{err:?}");
    }

    #[test]
    fn lossy_dir_load_reports_per_file_skips() {
        use rand::SeedableRng;
        let dir = std::env::temp_dir().join(format!("ceaff-io-lossy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("triples_1"), "a\tr\tb\nmangled\nb\tr\tc\n").unwrap();
        std::fs::write(dir.join("triples_2"), "a2\tr\tb2\nb2\tr\tc2\n").unwrap();
        std::fs::write(dir.join("links"), "a\ta2\nGhost\tb2\nb\tb2\nc\tc2\n").unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);

        // Strict load dies on the mangled triple line.
        assert!(load_pair_from_dir(&dir, 0.3, &mut rng).is_err());

        let (pair, report) = load_pair_from_dir_with(&dir, 0.3, &mut rng, LoadMode::Lossy).unwrap();
        assert_eq!(pair.alignment.len(), 3);
        assert_eq!(report.total_skipped(), 2);
        assert_eq!(
            report.skipped,
            vec![("triples_1".to_owned(), 1), ("links".to_owned(), 1)]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_io_error_surfaces_from_the_loader() {
        use rand::SeedableRng;
        let dir = std::env::temp_dir().join(format!("ceaff-io-fi-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("triples_1"), "a\tr\tb\n").unwrap();
        std::fs::write(dir.join("triples_2"), "a2\tr\tb2\n").unwrap();
        std::fs::write(dir.join("links"), "a\ta2\n").unwrap();
        // Thread-local: a process-wide plan would also fail the `triples_2`
        // reads of tests running concurrently (e.g. `dir_roundtrip`).
        let _scope = ceaff_faultinject::FaultPlan {
            io_error_substring: Some("triples_2".into()),
            ..ceaff_faultinject::FaultPlan::default()
        }
        .activate_local();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let err = load_pair_from_dir(&dir, 0.3, &mut rng).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_roundtrip() {
        use rand::SeedableRng;
        let dir = std::env::temp_dir().join(format!("ceaff-io-test-{}", std::process::id()));
        let kg1 = read_triples(Cursor::new("a\tr\tb\nb\tr\tc\n")).unwrap();
        let kg2 = read_triples(Cursor::new("a2\tr\tb2\nb2\tr\tc2\n")).unwrap();
        let align = read_links(Cursor::new("a\ta2\nb\tb2\nc\tc2\n"), &kg1, &kg2).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let pair = KgPair::new(kg1, kg2, align, 0.3, &mut rng);
        save_pair_to_dir(&pair, &dir).unwrap();
        let loaded = load_pair_from_dir(&dir, 0.3, &mut rng).unwrap();
        assert_eq!(loaded.source.num_triples(), 2);
        assert_eq!(loaded.target.num_triples(), 2);
        assert_eq!(loaded.alignment.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
