//! Error type of the Result-based pipeline API.

use std::fmt;

/// Everything that can go wrong before a pipeline run produces an output.
///
/// Returned by [`crate::pipeline::run`] and every entry point that
/// delegates to it ([`crate::pipeline::try_run`],
/// [`crate::pipeline::try_run_with_features`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CeaffError {
    /// The configuration enables no feature that the feature set actually
    /// contains — there is nothing to fuse or match.
    EmptyFeatureSet,
    /// Two active feature matrices disagree about the test-split shape, so
    /// they cannot be fused cell-wise.
    ShapeMismatch {
        /// Name of the offending feature.
        feature: String,
        /// Shape `(sources, targets)` of the first active feature.
        expected: (usize, usize),
        /// Shape of the offending feature.
        found: (usize, usize),
    },
    /// A configuration field holds a value the pipeline cannot run with
    /// (see [`crate::pipeline::CeaffConfig::validate`]).
    InvalidConfig(String),
    /// A checkpoint artifact could not be written, read, or verified
    /// (I/O failure, checksum mismatch, truncated file, or a manifest
    /// that does not match the run's configuration). Nothing partial is
    /// loaded when this is returned.
    Checkpoint {
        /// The artifact (file name within the run directory, or the
        /// directory itself for manifest-level failures).
        file: String,
        /// What went wrong.
        reason: String,
    },
    /// GCN training produced a non-finite loss or gradient and the
    /// bounded rollback-and-halve-the-learning-rate retries ran out.
    NumericDivergence {
        /// Pipeline stage that diverged (currently always `"gcn"`).
        stage: String,
        /// Epoch at which the last non-finite value appeared.
        epoch: usize,
        /// Recovery attempts performed before giving up.
        retries: usize,
    },
    /// A [`crate::delta::DeltaState`] refused or failed to apply a KG
    /// delta: the edit stream is invalid against the current pair
    /// (surfacing the underlying
    /// [`GraphError`](ceaff_graph::GraphError)), or the configuration
    /// cannot be updated incrementally (e.g. the trained-GCN structural
    /// mode). The warm state is left exactly as it was.
    Delta(String),
    /// The run's live tensor footprint crossed the memory budget
    /// installed via [`crate::budget::ExecBudget::with_max_mem_bytes`].
    /// Returned instead of letting the allocator OOM-abort; no partial
    /// result accompanies it because the over-budget stage's output is
    /// untrustworthy.
    BudgetExceeded {
        /// Stage whose boundary check observed the overrun.
        stage: String,
        /// Installed limit in bytes.
        limit_bytes: usize,
        /// High-water mark of live tensor bytes inside the budgeted
        /// scope.
        peak_bytes: usize,
    },
}

impl fmt::Display for CeaffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CeaffError::EmptyFeatureSet => {
                write!(f, "configuration enables no computed feature")
            }
            CeaffError::ShapeMismatch {
                feature,
                expected,
                found,
            } => write!(
                f,
                "feature '{feature}' has shape {}x{} but {}x{} was expected",
                found.0, found.1, expected.0, expected.1
            ),
            CeaffError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CeaffError::Checkpoint { file, reason } => {
                write!(f, "checkpoint failure in '{file}': {reason}")
            }
            CeaffError::NumericDivergence {
                stage,
                epoch,
                retries,
            } => write!(
                f,
                "stage '{stage}' diverged numerically at epoch {epoch} \
                 after {retries} recovery attempts"
            ),
            CeaffError::Delta(msg) => write!(f, "delta not applied: {msg}"),
            CeaffError::BudgetExceeded {
                stage,
                limit_bytes,
                peak_bytes,
            } => write!(
                f,
                "memory budget exceeded in stage '{stage}': \
                 peak {peak_bytes} bytes over the {limit_bytes}-byte limit"
            ),
        }
    }
}

impl std::error::Error for CeaffError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CeaffError::EmptyFeatureSet.to_string(),
            "configuration enables no computed feature"
        );
        let e = CeaffError::ShapeMismatch {
            feature: "string".into(),
            expected: (10, 10),
            found: (10, 12),
        };
        assert_eq!(
            e.to_string(),
            "feature 'string' has shape 10x12 but 10x10 was expected"
        );
        assert_eq!(
            CeaffError::InvalidConfig("gcn.dim must be positive".into()).to_string(),
            "invalid configuration: gcn.dim must be positive"
        );
        assert_eq!(
            CeaffError::Checkpoint {
                file: "gcn_train.ckpt".into(),
                reason: "crc32 mismatch".into(),
            }
            .to_string(),
            "checkpoint failure in 'gcn_train.ckpt': crc32 mismatch"
        );
        let e = CeaffError::NumericDivergence {
            stage: "gcn".into(),
            epoch: 42,
            retries: 3,
        };
        assert!(e.to_string().contains("epoch 42"));
        assert!(e.to_string().contains("3 recovery attempts"));
        assert_eq!(
            CeaffError::Delta("delta op 3 rejected: unknown entity".into()).to_string(),
            "delta not applied: delta op 3 rejected: unknown entity"
        );
        let e = CeaffError::BudgetExceeded {
            stage: "features".into(),
            limit_bytes: 1 << 20,
            peak_bytes: 3 << 20,
        };
        let msg = e.to_string();
        assert!(msg.contains("memory budget exceeded"), "{msg}");
        assert!(msg.contains("features"), "{msg}");
        assert!(msg.contains(&(1usize << 20).to_string()), "{msg}");
    }

    #[test]
    fn is_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&CeaffError::EmptyFeatureSet);
    }
}
