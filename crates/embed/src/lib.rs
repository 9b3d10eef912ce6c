#![warn(missing_docs)]

//! # ceaff-embed
//!
//! Word-embedding substrate for CEAFF's semantic feature (§IV-B of the
//! paper): a deterministic hashed-subword embedder standing in for fastText
//! ([`SubwordEmbedder`]), a synthetic bilingual lexicon standing in for
//! MUSE multilingual embeddings ([`BilingualLexicon`], [`LexiconEmbedder`]),
//! averaged entity-name embeddings ([`name`]), and the pair of them a
//! benchmark directory's alignment embeds names with ([`PairEmbedders`]).
//!
//! Both substitutions are documented in the workspace DESIGN.md: the
//! properties the pipeline relies on (subword surface similarity, shared
//! cross-lingual space, imperfect OOV coverage) are preserved; the trained
//! corpora are not required.

pub mod lexicon;
pub mod name;
pub mod pair;
pub mod subword;

pub use lexicon::{BilingualLexicon, LexiconEmbedder};
pub use name::{embed_name, name_embedding_matrix, tokenize, WordEmbedder};
pub use pair::{LexiconError, PairEmbedders, SUBWORD_SEED};
pub use subword::SubwordEmbedder;
