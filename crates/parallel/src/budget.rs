//! Budgets and cooperative cancellation for anytime advisor runs.
//!
//! PARINDA is interactive: every long-running advisor path must be able
//! to stop at an iteration boundary and return its best-so-far answer.
//! Two primitives carry that contract through the stack:
//!
//! * [`CancelToken`] — a shared flag the console (or a Ctrl-C handler)
//!   flips; workers and advisor loops poll it cooperatively.
//! * [`Budget`] — a wall-clock deadline on a **monotonic clock**
//!   ([`std::time::Instant`]), an optional cap on *rounds* (iteration
//!   counts — deterministic, scheduling-independent), and a cancel
//!   token, checked together at iteration boundaries.
//!
//! A run that stops early reports how far it got via [`BudgetReport`],
//! and the fallible parallel sweep returns [`Partial`] — always a
//! **contiguous prefix** of the input, so the *shape* of a degraded
//! result never depends on thread scheduling.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, cheaply cloneable and shareable
/// across threads. Cancellation is level-triggered: once [`cancel`]ed,
/// every holder observes it until [`reset`].
///
/// [`cancel`]: CancelToken::cancel
/// [`reset`]: CancelToken::reset
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Safe to call from any thread, including a
    /// signal handler's notify thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Clear the flag (re-arm the token for the next operation).
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// A resource budget for one advisor run: wall-clock deadline, optional
/// round cap, cancel token. Checked *cooperatively* at iteration
/// boundaries — nothing is preempted, so a run always stops at a
/// consistent state and can return best-so-far.
///
/// The deadline uses [`Instant`] (monotonic), so system clock jumps
/// never extend or cut a budget. The round cap exists so tests can
/// express a deadline deterministically: "stop after 3 rounds" behaves
/// identically at any thread count and machine speed, where "stop after
/// 1 ms" does not.
#[derive(Debug, Clone)]
pub struct Budget {
    started: Instant,
    deadline: Option<Instant>,
    max_rounds: Option<usize>,
    cancel: CancelToken,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// No limits: never interrupted (unless a cancel token is attached
    /// and fired), so a run under it evaluates everything.
    pub fn unlimited() -> Self {
        Budget {
            started: Instant::now(),
            deadline: None,
            max_rounds: None,
            cancel: CancelToken::new(),
        }
    }

    /// A wall-clock budget of `ms` milliseconds, starting now.
    pub fn deadline_ms(ms: u64) -> Self {
        let now = Instant::now();
        Budget {
            started: now,
            deadline: Some(now + Duration::from_millis(ms)),
            max_rounds: None,
            cancel: CancelToken::new(),
        }
    }

    /// A deterministic budget of at most `n` rounds (no wall-clock
    /// component).
    pub fn rounds(n: usize) -> Self {
        Budget {
            started: Instant::now(),
            deadline: None,
            max_rounds: Some(n),
            cancel: CancelToken::new(),
        }
    }

    /// Attach a cancel token (shared with the console / Ctrl-C handler).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Add a round cap to an existing budget.
    pub fn with_rounds(mut self, n: usize) -> Self {
        self.max_rounds = Some(n);
        self
    }

    /// Is any limit configured? (`false` means only an attached cancel
    /// token can interrupt the run.)
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_rounds.is_some()
    }

    /// The round cap, if one is set.
    pub fn max_rounds(&self) -> Option<usize> {
        self.max_rounds
    }

    /// The wall-clock deadline, if one is set (for handing to
    /// sub-solvers with their own limit structs).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached cancel token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Should work stop *now*? True once cancelled or past the deadline.
    /// This is the check workers poll between chunk claims; it is cheap
    /// (one relaxed atomic load, one `Instant::now` when a deadline is
    /// set).
    pub fn interrupted(&self) -> bool {
        if self.cancel.is_cancelled() {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Should the loop stop before starting round `rounds_done` (0-based
    /// count of rounds already completed)? Combines [`interrupted`] with
    /// the round cap.
    ///
    /// [`interrupted`]: Budget::interrupted
    pub fn exceeded(&self, rounds_done: usize) -> bool {
        if let Some(max) = self.max_rounds {
            if rounds_done >= max {
                return true;
            }
        }
        self.interrupted()
    }

    /// Wall-clock time since the budget was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Snapshot a report for a run that used this budget.
    pub fn report(&self, rounds_completed: usize, candidates_skipped: usize) -> BudgetReport {
        BudgetReport { elapsed: self.elapsed(), rounds_completed, candidates_skipped }
    }
}

/// How far a budgeted run got before its limit hit. Attached to degraded
/// recommendations so the DBA can see *why* the answer is partial and
/// how much was left on the table.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetReport {
    /// Wall-clock time the run consumed.
    pub elapsed: Duration,
    /// Iteration rounds fully completed before stopping.
    pub rounds_completed: usize,
    /// Candidates (queries, index candidates, merge candidates) that
    /// were never evaluated because the budget ran out.
    pub candidates_skipped: usize,
}

impl std::fmt::Display for BudgetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget exhausted after {:.1} ms: {} round{} completed, {} candidate{} skipped",
            self.elapsed.as_secs_f64() * 1e3,
            self.rounds_completed,
            if self.rounds_completed == 1 { "" } else { "s" },
            self.candidates_skipped,
            if self.candidates_skipped == 1 { "" } else { "s" },
        )
    }
}

/// The result of a budgeted parallel map: the results for a
/// **contiguous prefix** of the input, plus a count of inputs that were
/// skipped when the budget interrupted the sweep.
///
/// The prefix guarantee is what keeps degraded results *valid*: callers
/// know exactly which inputs `done` covers (`0..done.len()`), never a
/// scattered subset chosen by thread timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partial<R> {
    /// Results for inputs `0..done.len()`, in input order.
    pub done: Vec<R>,
    /// Inputs `done.len()..n` that were not evaluated (or whose results
    /// were discarded to preserve the prefix guarantee).
    pub skipped: usize,
}

impl<R> Partial<R> {
    /// Did the sweep cover every input?
    pub fn is_complete(&self) -> bool {
        self.skipped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_roundtrip() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.cancel();
        assert!(t.is_cancelled());
        t.reset();
        assert!(!t2.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.is_limited());
        assert!(!b.interrupted());
        assert!(!b.exceeded(usize::MAX - 1));
    }

    #[test]
    fn round_cap_is_exact() {
        let b = Budget::rounds(3);
        assert!(!b.exceeded(0));
        assert!(!b.exceeded(2));
        assert!(b.exceeded(3));
        assert!(b.exceeded(4));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::deadline_ms(0);
        assert!(b.interrupted());
        assert!(b.exceeded(0));
    }

    #[test]
    fn cancel_interrupts_any_budget() {
        let b = Budget::unlimited().with_cancel(CancelToken::new());
        assert!(!b.interrupted());
        b.cancel_token().cancel();
        assert!(b.interrupted());
        assert!(b.exceeded(0));
    }

    #[test]
    fn report_display_mentions_counts() {
        let b = Budget::rounds(1);
        let r = b.report(1, 7);
        let s = r.to_string();
        assert!(s.contains("1 round completed"), "{s}");
        assert!(s.contains("7 candidates skipped"), "{s}");
    }
}
