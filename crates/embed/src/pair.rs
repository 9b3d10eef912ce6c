//! The name embedders of an alignment over a benchmark directory, built
//! in one place so that `ceaff align` and `ceaff serve` embed the same
//! names to the same bits.

use crate::lexicon::{BilingualLexicon, LexiconEmbedder};
use crate::name::WordEmbedder;
use crate::subword::SubwordEmbedder;
use std::path::{Path, PathBuf};

/// Seed of the subword embedder a directory alignment embeds names with.
pub const SUBWORD_SEED: u64 = 0x736f7572;

/// Why a lexicon file could not be loaded.
#[derive(Debug)]
pub enum LexiconError {
    /// The file could not be opened.
    Open {
        /// The lexicon file.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not made of `foreign<TAB>pivot` lines.
    Parse {
        /// The lexicon file.
        path: PathBuf,
        /// The read or format error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for LexiconError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Open { path, source } => {
                write!(f, "cannot open lexicon {}: {source}", path.display())
            }
            Self::Parse { path, source } => write!(f, "bad lexicon {}: {source}", path.display()),
        }
    }
}

impl std::error::Error for LexiconError {}

/// The source and target name embedders of a directory alignment. The
/// source side is a subword embedder. The target side is the same
/// embedder routed through a bilingual lexicon when one was loaded
/// (cross-lingual), or the subword embedder itself (mono-lingual).
#[derive(Debug, Clone)]
pub struct PairEmbedders {
    source: SubwordEmbedder,
    lexicon: Option<LexiconEmbedder>,
}

impl PairEmbedders {
    /// The `lexicon.tsv` a benchmark directory ships, if it has one.
    pub fn lexicon_in(dir: &Path) -> Option<PathBuf> {
        let path = dir.join("lexicon.tsv");
        path.exists().then_some(path)
    }

    /// Embedders of dimension `dim`, the target side routed through the
    /// lexicon file at `lexicon` when one is given.
    pub fn load(dim: usize, lexicon: Option<&Path>) -> Result<Self, LexiconError> {
        let source = SubwordEmbedder::new(dim, SUBWORD_SEED);
        let lexicon = match lexicon {
            None => None,
            Some(path) => {
                let file = std::fs::File::open(path).map_err(|source| LexiconError::Open {
                    path: path.to_owned(),
                    source,
                })?;
                let lex = BilingualLexicon::from_tsv_reader(std::io::BufReader::new(file))
                    .map_err(|source| LexiconError::Parse {
                        path: path.to_owned(),
                        source,
                    })?;
                Some(LexiconEmbedder::new(source.clone(), lex, 0.0))
            }
        };
        Ok(Self { source, lexicon })
    }

    /// The source-side embedder.
    pub fn source(&self) -> &SubwordEmbedder {
        &self.source
    }

    /// The target-side embedder.
    pub fn target(&self) -> &dyn WordEmbedder {
        match &self.lexicon {
            Some(l) => l,
            None => &self.source,
        }
    }

    /// The loaded lexicon, if the target side routes through one.
    pub fn lexicon(&self) -> Option<&BilingualLexicon> {
        self.lexicon.as_ref().map(LexiconEmbedder::lexicon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory holding `lexicon.tsv` with `contents`, if any.
    fn dir_with(case: &str, contents: Option<&str>) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ceaff_embed_{case}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test dir");
        if let Some(text) = contents {
            std::fs::write(dir.join("lexicon.tsv"), text).expect("write lexicon");
        }
        dir
    }

    #[test]
    fn a_present_lexicon_routes_the_target_side() {
        let dir = dir_with("present", Some("# foreign\tpivot\nchat\tcat\nchien\tdog\n"));
        let path = PairEmbedders::lexicon_in(&dir).expect("lexicon found");
        let e = PairEmbedders::load(16, Some(&path)).expect("lexicon loads");
        assert_eq!(e.lexicon().map(BilingualLexicon::len), Some(2));
        assert_eq!(e.target().embed_word("chat"), e.source().embed_word("cat"));
        assert_eq!(e.target().embed_word("cat"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_absent_lexicon_leaves_both_sides_subword() {
        let dir = dir_with("absent", None);
        assert_eq!(PairEmbedders::lexicon_in(&dir), None);
        let e = PairEmbedders::load(16, None).expect("no lexicon to load");
        assert!(e.lexicon().is_none());
        assert_eq!(e.target().embed_word("chat"), e.source().embed_word("chat"));
        assert_eq!(
            e.source().embed_word("chat"),
            SubwordEmbedder::new(16, SUBWORD_SEED).embed_word("chat")
        );
        let missing = dir.join("lexicon.tsv");
        let err = PairEmbedders::load(16, Some(&missing)).unwrap_err();
        assert!(matches!(err, LexiconError::Open { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_malformed_lexicon_is_a_typed_error_naming_the_file() {
        let dir = dir_with("malformed", Some("chat\tcat\nun deux trois\n"));
        let path = PairEmbedders::lexicon_in(&dir).expect("lexicon found");
        let err = PairEmbedders::load(16, Some(&path)).unwrap_err();
        assert!(matches!(err, LexiconError::Parse { .. }), "{err}");
        let msg = err.to_string();
        assert!(
            msg.starts_with(&format!("bad lexicon {}: ", path.display())),
            "{msg}"
        );
        assert!(msg.contains("line 2"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
