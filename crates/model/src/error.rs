//! Error type shared by model construction and validation.

use std::fmt;

use crate::ids::{FlowId, ProcessId, SegmentId};

/// Errors raised while building or combining model entities.
///
/// Structural-constraint violations discovered by the full validation pass
/// are reported as [`crate::validate::Diagnostic`]s instead; `ModelError`
/// covers hard errors that make an object unrepresentable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ModelError {
    /// A flow references a process id that does not exist in the application.
    UnknownProcess(ProcessId),
    /// An allocation references a segment id outside the platform.
    UnknownSegment(SegmentId),
    /// A flow carries zero data items.
    EmptyFlow {
        /// The flow's source process.
        src: ProcessId,
        /// The flow's destination process.
        dst: ProcessId,
    },
    /// A flow connects a process to itself.
    SelfFlow(ProcessId),
    /// Two processes in one application share a name.
    DuplicateProcessName(String),
    /// The platform has no segments.
    NoSegments,
    /// A ring topology needs at least three segments.
    RingTooSmall(usize),
    /// The platform package size is zero.
    ZeroPackageSize,
    /// A process in the application has not been assigned to any segment.
    Unplaced(ProcessId),
    /// A stochastic annotation on a flow is unusable (empty choice,
    /// inverted range, items distribution able to produce zero, …).
    InvalidNoise {
        /// The annotated flow.
        flow: FlowId,
        /// What is wrong with the distribution.
        reason: String,
    },
    /// The dataflow graph has a cycle; the process is the lowest-numbered
    /// one that never became ready (on a cycle or downstream of one).
    Cycle(ProcessId),
    /// The application/platform pair failed full validation.
    Invalid {
        /// Number of error-severity diagnostics produced.
        errors: usize,
        /// First error message, for context.
        first: String,
        /// Stable `V0xx` code of the first failed constraint.
        first_code: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            ModelError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            ModelError::EmptyFlow { src, dst } => {
                write!(f, "flow {src} -> {dst} carries zero data items")
            }
            ModelError::SelfFlow(p) => write!(f, "flow from {p} to itself"),
            ModelError::DuplicateProcessName(n) => {
                write!(f, "duplicate process name {n:?}")
            }
            ModelError::NoSegments => write!(f, "platform has no segments"),
            ModelError::RingTooSmall(n) => {
                write!(f, "a ring topology needs at least 3 segments, got {n}")
            }
            ModelError::ZeroPackageSize => write!(f, "package size must be non-zero"),
            ModelError::Unplaced(p) => write!(f, "process {p} is not placed on any segment"),
            ModelError::InvalidNoise { flow, reason } => {
                write!(f, "invalid distribution on flow {flow}: {reason}")
            }
            ModelError::Cycle(p) => {
                write!(f, "the dataflow graph has a cycle: {p} never becomes ready")
            }
            ModelError::Invalid { errors, first, .. } => {
                write!(
                    f,
                    "model failed validation with {errors} error(s); first: {first}"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            ModelError::UnknownProcess(ProcessId(3)).to_string(),
            "unknown process P3"
        );
        assert_eq!(
            ModelError::SelfFlow(ProcessId(1)).to_string(),
            "flow from P1 to itself"
        );
        assert!(ModelError::Invalid {
            errors: 2,
            first: "boom".into(),
            first_code: "V001",
        }
        .to_string()
        .contains("2 error(s)"));
    }
}
