//! Errors of the experiment facade.

use std::fmt;

/// Anything that can go wrong building or executing a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpError {
    /// The scheduler key is not registered. Carries the known keys.
    UnknownScheduler {
        /// The unresolvable key.
        key: String,
        /// The keys the registry knows.
        known: Vec<String>,
    },
    /// The estimator key is not registered. Carries the known keys.
    UnknownEstimator {
        /// The unresolvable key.
        key: String,
        /// The keys the registry knows.
        known: Vec<String>,
    },
    /// The acceleration-manager key is not registered. Carries the known
    /// keys.
    UnknownAccel {
        /// The unresolvable key.
        key: String,
        /// The keys the registry knows.
        known: Vec<String>,
    },
    /// The admission-policy key is not registered. Carries the known
    /// keys.
    UnknownAdmission {
        /// The unresolvable key.
        key: String,
        /// The keys the registry knows.
        known: Vec<String>,
    },
    /// The recovery-policy key is not registered. Carries the known
    /// keys.
    UnknownRecovery {
        /// The unresolvable key.
        key: String,
        /// The keys the registry knows.
        known: Vec<String>,
    },
    /// The legacy event-queue key is neither `heap` nor `calendar-wheel`.
    /// Carries the known keys.
    UnknownEventQueue {
        /// The unknown key.
        key: String,
        /// The legacy keys.
        known: Vec<String>,
    },
    /// The arbitration-policy key is not registered. Carries the known
    /// keys.
    UnknownArbitration {
        /// The unresolvable key.
        key: String,
        /// The keys the registry knows.
        known: Vec<String>,
    },
    /// No paper preset of that name exists.
    UnknownPreset(String),
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
            ExpError::UnknownScheduler { key, known } => {
                write!(f, "unknown scheduler `{key}` (known: {})", known.join(", "))
            }
            ExpError::UnknownEstimator { key, known } => {
                write!(f, "unknown estimator `{key}` (known: {})", known.join(", "))
            }
            ExpError::UnknownAccel { key, known } => {
                write!(
                    f,
                    "unknown acceleration manager `{key}` (known: {})",
                    known.join(", ")
                )
            }
            ExpError::UnknownAdmission { key, known } => {
                write!(
                    f,
                    "unknown admission policy `{key}` (known: {})",
                    known.join(", ")
                )
            }
            ExpError::UnknownRecovery { key, known } => {
                write!(
                    f,
                    "unknown recovery policy `{key}` (known: {})",
                    known.join(", ")
                )
            }
            ExpError::UnknownEventQueue { key, known } => {
                write!(
                    f,
                    "unknown event-queue backend `{key}` (known: {})",
                    known.join(", ")
                )
            }
            ExpError::UnknownArbitration { key, known } => {
                write!(
                    f,
                    "unknown arbitration policy `{key}` (known: {})",
                    known.join(", ")
                )
            }
            ExpError::UnknownPreset(name) => {
                write!(
                    f,
                    "unknown preset `{name}` (known: {})",
                    super::spec::PAPER_PRESETS.join(", ")
                )
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
