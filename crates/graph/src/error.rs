//! Error type shared across the graph substrate.

use std::fmt;

/// Errors produced while constructing or loading knowledge graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An entity id referenced by a triple or alignment is out of range.
    UnknownEntity(u32),
    /// A relation id referenced by a triple is out of range.
    UnknownRelation(u32),
    /// A parsed line did not have the expected number of tab-separated fields.
    Malformed {
        /// 1-based line number in the input.
        line: usize,
        /// Description of what was wrong.
        reason: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An alignment references entities inconsistently (e.g. duplicate
    /// source entity mapped to two targets).
    InvalidAlignment(String),
    /// Dimension mismatch when assembling sparse matrices.
    Dimension {
        /// What was expected.
        expected: usize,
        /// What was provided.
        got: usize,
    },
    /// A sparse-matrix entry is NaN or infinite. The products over
    /// [`crate::CsrMatrix`] rely on finite stored values.
    NonFinite {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The value itself.
        value: f32,
    },
    /// A delta operation failed validation against the current `KgPair`.
    /// Nothing is mutated when this is returned — application is atomic.
    DeltaRejected {
        /// 0-based index of the offending operation within the delta.
        op: usize,
        /// Why the operation cannot be applied.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownEntity(id) => write!(f, "unknown entity id {id}"),
            GraphError::UnknownRelation(id) => write!(f, "unknown relation id {id}"),
            GraphError::Malformed { line, reason } => {
                write!(f, "malformed input at line {line}: {reason}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::InvalidAlignment(msg) => write!(f, "invalid alignment: {msg}"),
            GraphError::Dimension { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            GraphError::NonFinite { row, col, value } => {
                write!(f, "non-finite matrix entry {value} at ({row}, {col})")
            }
            GraphError::DeltaRejected { op, reason } => {
                write!(f, "delta op {op} rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = GraphError::UnknownEntity(7);
        assert!(e.to_string().contains('7'));
        let e = GraphError::Malformed {
            line: 3,
            reason: "expected 3 fields".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = GraphError::Dimension {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
    }

    #[test]
    fn io_error_is_wrapped_with_source() {
        use std::error::Error as _;
        let inner = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = GraphError::from(inner);
        assert!(e.source().is_some());
    }
}
