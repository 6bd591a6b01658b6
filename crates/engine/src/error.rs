//! Structured simulation errors.
//!
//! The simulator's run loops report failures as [`SimError`] values instead
//! of panicking: a wedged cell in a multi-hour parameter sweep must surface
//! as data (which cell, what happened, what the machine looked like), not as
//! a dead process. Hand-rolled — the workspace is offline, so no `thiserror`.

use crate::clock::Cycle;

/// A structured, recoverable simulation failure.
///
/// Every variant carries enough context to diagnose the cell without
/// re-running it; `Display` renders a stable one-word class name first
/// (`deadlock:`, `cycle budget exceeded:`, …) so shell gates can grep for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Forward progress stopped: a single operation's completion jumped
    /// further than the watchdog's progress window, meaning some resource
    /// (bank, NoC response, credit counter) will never free.
    Deadlock {
        /// Cycle at which the stall was detected.
        cycle: Cycle,
        /// Machine-state dump at detection time (queue depths, outstanding
        /// VPU lines, MESI directory summary, NoC/DRAM occupancy).
        diagnostic: String,
    },
    /// The configured cycle budget was exceeded — the cell runs, but for
    /// longer than the experiment is willing to wait.
    CycleBudgetExceeded {
        /// The configured budget.
        budget: Cycle,
        /// The cycle count when the budget check tripped.
        cycle: Cycle,
        /// Machine-state dump at detection time.
        diagnostic: String,
    },
    /// A model invariant was violated (coherence audit, credit-leak check).
    /// Always a simulator bug or an injected fault, never a workload problem.
    InvariantViolation {
        /// Cycle at which the audit ran.
        cycle: Cycle,
        /// Which invariant failed and how.
        what: String,
    },
    /// Malformed external input: a flag, a baseline JSON, a cache directory,
    /// or a cell the configured topology cannot run.
    /// Carries the file path / flag name and the parse position.
    BadInput {
        /// What was malformed and where.
        what: String,
    },
    /// A panic captured at an isolation boundary (`catch_unwind` in the
    /// sweep runner): the panic message, so the grid can keep going while
    /// still reporting what died.
    Panic {
        /// The panic payload, if it was a string.
        what: String,
    },
    /// A failure reported by a remote `sweepd` server (or the transport to
    /// it): the server-side error rendered as text, since the original
    /// structured value does not cross the wire.
    Remote {
        /// The remote failure, as the server reported it.
        what: String,
    },
    /// A `sweepd` server could not be reached, or the connection to it was
    /// lost mid-request: connect refused, socket timeout, stream closed.
    /// Always transient — the request is idempotent (server-side dedup), so
    /// clients retry it with backoff.
    Unavailable {
        /// What failed at the transport layer.
        what: String,
    },
    /// A `sweepd` server refused new work because its bounded job queue is
    /// full. Transient by design: backpressure instead of unbounded
    /// acceptance — retry with backoff, or spread the grid across servers.
    Overloaded {
        /// The server's rejection message (queue depth and limit).
        what: String,
    },
    /// A `sweepd` server is draining for shutdown and rejects new sweeps
    /// while in-flight cells complete. Transient from the fleet's point of
    /// view (another instance, or this one after restart, will serve it).
    Draining {
        /// The server's rejection message.
        what: String,
    },
    /// The cell ran past its wall-clock deadline (the service-level guard
    /// for runaway cells that *do* make forward progress, where the
    /// deterministic cycle budget has not been configured tight enough).
    /// Host-speed dependent, so deadline failures are never cached.
    DeadlineExceeded {
        /// The configured limit in milliseconds.
        limit_ms: u64,
        /// Machine-state dump at detection time.
        diagnostic: String,
    },
}

impl SimError {
    /// Stable one-word class name (`deadlock`, `invariant-violation`, …) for
    /// logs and shell gates.
    pub fn class(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::CycleBudgetExceeded { .. } => "cycle-budget-exceeded",
            SimError::InvariantViolation { .. } => "invariant-violation",
            SimError::BadInput { .. } => "bad-input",
            SimError::Panic { .. } => "panic",
            SimError::Remote { .. } => "remote",
            SimError::Unavailable { .. } => "unavailable",
            SimError::Overloaded { .. } => "overloaded",
            SimError::Draining { .. } => "draining",
            SimError::DeadlineExceeded { .. } => "deadline-exceeded",
        }
    }

    /// Whether a retry of the same request can reasonably succeed: transport
    /// loss, backpressure, and shutdown drains are transient; everything
    /// else (bad input, a simulator fault, a server-side rejection) is not.
    /// `sweepd` requests are idempotent (server-side exactly-once dedup), so
    /// retrying a transient failure can never duplicate work.
    pub fn transient(&self) -> bool {
        matches!(
            self,
            SimError::Unavailable { .. } | SimError::Overloaded { .. } | SimError::Draining { .. }
        )
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle, diagnostic } => {
                write!(f, "Deadlock at cycle {cycle}: no forward progress\n{diagnostic}")
            }
            SimError::CycleBudgetExceeded { budget, cycle, diagnostic } => {
                write!(
                    f,
                    "CycleBudgetExceeded: cycle {cycle} past budget {budget}\n{diagnostic}"
                )
            }
            SimError::InvariantViolation { cycle, what } => {
                write!(f, "InvariantViolation at cycle {cycle}: {what}")
            }
            SimError::BadInput { what } => write!(f, "BadInput: {what}"),
            SimError::Panic { what } => write!(f, "Panic: {what}"),
            SimError::Remote { what } => write!(f, "Remote: {what}"),
            SimError::Unavailable { what } => write!(f, "Unavailable: {what}"),
            SimError::Overloaded { what } => write!(f, "Overloaded: {what}"),
            SimError::Draining { what } => write!(f, "Draining: {what}"),
            SimError::DeadlineExceeded { limit_ms, diagnostic } => {
                write!(f, "DeadlineExceeded: cell ran past the {limit_ms} ms wall deadline\n{diagnostic}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_leads_with_greppable_class() {
        let e = SimError::Deadlock { cycle: 42, diagnostic: "vpu queue 16/16".into() };
        let s = e.to_string();
        assert!(s.starts_with("Deadlock at cycle 42"), "{s}");
        assert!(s.contains("vpu queue 16/16"), "diagnostic must be embedded: {s}");
        assert_eq!(e.class(), "deadlock");
    }

    #[test]
    fn errors_are_comparable_and_cloneable() {
        let a = SimError::BadInput { what: "x".into() };
        assert_eq!(a.clone(), a);
        assert_ne!(a, SimError::Panic { what: "x".into() });
    }

    #[test]
    fn all_classes_are_distinct() {
        let all = [
            SimError::Deadlock { cycle: 0, diagnostic: String::new() }.class(),
            SimError::CycleBudgetExceeded { budget: 0, cycle: 0, diagnostic: String::new() }
                .class(),
            SimError::InvariantViolation { cycle: 0, what: String::new() }.class(),
            SimError::BadInput { what: String::new() }.class(),
            SimError::Panic { what: String::new() }.class(),
            SimError::Remote { what: String::new() }.class(),
            SimError::Unavailable { what: String::new() }.class(),
            SimError::Overloaded { what: String::new() }.class(),
            SimError::Draining { what: String::new() }.class(),
            SimError::DeadlineExceeded { limit_ms: 0, diagnostic: String::new() }.class(),
        ];
        let mut dedup = all.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn only_service_level_failures_are_transient() {
        assert!(SimError::Unavailable { what: String::new() }.transient());
        assert!(SimError::Overloaded { what: String::new() }.transient());
        assert!(SimError::Draining { what: String::new() }.transient());
        assert!(!SimError::Remote { what: String::new() }.transient());
        assert!(!SimError::BadInput { what: String::new() }.transient());
        assert!(!SimError::Panic { what: String::new() }.transient());
        assert!(
            !SimError::DeadlineExceeded { limit_ms: 1, diagnostic: String::new() }.transient(),
            "a cell that blew its deadline once will blow it again — do not retry"
        );
    }
}
