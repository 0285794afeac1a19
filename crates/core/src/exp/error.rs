//! Errors of the experiment facade.

use std::fmt;

/// Anything that can go wrong building or executing a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpError {
    /// A key names nothing in its family: a registry key (scheduler,
    /// estimator, acceleration manager, admission, recovery or
    /// arbitration policy), an event-queue backend or a paper preset.
    UnknownKey {
        /// The family's noun, as printed (`"scheduler"`, `"preset"`, …).
        kind: &'static str,
        /// The unknown key.
        key: String,
        /// Every known key, in the family's order.
        known: Vec<String>,
    },
    /// The scenario is internally inconsistent (e.g. budget > cores).
    InvalidSpec(String),
    /// A serialized spec failed to parse.
    Parse(String),
    /// The results store could not be read, validated, or written.
    Store(String),
    /// The controlling terminal or standard output could not be driven:
    /// no `/dev/tty`, a failed `stty`, or a failed write.
    Terminal(String),
    /// The workload's task graph could not be built — a missing,
    /// malformed, or digest-mismatched TDG file behind an
    /// `Inline`/`File` workload.
    Workload(String),
    /// Work did not finish: injected faults removed the capacity (or shed
    /// the work) that a run's remaining tasks need, or a watched grid was
    /// still incomplete when its timeout ran out. Unlike a deadlock panic
    /// this is a *clean* outcome — a dying machine terminates and reports
    /// instead of hanging.
    Stalled(String),
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpError::UnknownKey { kind, key, known } => {
                write!(f, "unknown {kind} `{key}` (known: {})", known.join(", "))
            }
            ExpError::InvalidSpec(msg) => write!(f, "invalid scenario: {msg}"),
            ExpError::Parse(msg) => write!(f, "spec parse error: {msg}"),
            ExpError::Store(msg) => write!(f, "results store: {msg}"),
            ExpError::Terminal(msg) => write!(f, "terminal: {msg}"),
            ExpError::Workload(msg) => write!(f, "workload: {msg}"),
            ExpError::Stalled(msg) => write!(f, "stalled: {msg}"),
        }
    }
}

impl std::error::Error for ExpError {}
