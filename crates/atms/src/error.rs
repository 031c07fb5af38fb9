use std::fmt;

/// Errors produced by the truth-maintenance engines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AtmsError {
    /// A node id did not belong to this ATMS instance.
    UnknownNode {
        /// The out-of-range node index.
        index: usize,
    },
    /// A justification referenced its own consequent among its antecedents.
    SelfJustification {
        /// The offending node index.
        index: usize,
    },
}

impl fmt::Display for AtmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtmsError::UnknownNode { index } => write!(f, "unknown node index {index}"),
            AtmsError::SelfJustification { index } => {
                write!(f, "node {index} cannot justify itself")
            }
        }
    }
}

impl std::error::Error for AtmsError {}
