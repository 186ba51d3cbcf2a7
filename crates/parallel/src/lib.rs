//! # parinda-parallel
//!
//! A small std-only execution engine for PARINDA's embarrassingly
//! parallel what-if evaluation loops: INUM cache population, the ILP
//! benefit matrix, and AutoPart's per-round candidate sweep are all
//! independent per query/configuration, so they fan out over a scoped
//! thread pool here.
//!
//! Design rules that keep parallel results **bit-identical** to
//! sequential execution at any thread count:
//!
//! * workers only compute *pure* per-item values — all side effects
//!   (memo merges, reductions, error selection) happen on the caller's
//!   thread, in input order;
//! * [`par_map`] / [`par_map_indexed`] return results ordered by input
//!   index regardless of completion order, so a caller that reduces them
//!   in input order rounds exactly like the sequential loop.
//!
//! Work distribution is dynamic: workers claim chunks of indexes from a
//! shared atomic cursor, so skewed item costs (one huge query among
//! thirty) don't serialize the sweep. One chunk engine runs every map;
//! an unlimited [`Budget`] is the unbudgeted case.
//!
//! ## Panic containment
//!
//! PARINDA is an interactive tool: a panic inside one what-if evaluation
//! must never tear down the DBA's session. Every item runs under
//! [`std::panic::catch_unwind`], and [`par_try_map_budgeted_traced`]
//! surfaces a worker panic to the caller as a [`WorkerPanic`] **error**
//! instead of unwinding. The error is deterministic: all items are
//! evaluated regardless of failures, and the panic at the **lowest input
//! index** is reported, so the same workload yields the same error at any
//! thread count. [`par_map`] / [`par_map_indexed`] keep their infallible
//! signatures by re-raising the (equally deterministic) [`WorkerPanic`]
//! as a panic on the *caller's* thread, where an interactive frontend's
//! `catch_unwind` backstop can contain it.
//!
//! ## Budgets and cancellation
//!
//! Every fallible sweep is *anytime*: [`par_try_map_budgeted_traced`]
//! takes a [`Budget`] (wall-clock deadline on a monotonic clock,
//! optional round cap, [`CancelToken`]) that workers poll **between
//! chunk claims**, and returns a [`Partial`] covering a contiguous prefix
//! of the input. Degraded results keep a deterministic shape: which
//! inputs were evaluated is always `0..done.len()`, never a
//! scheduling-dependent subset.

#![deny(missing_docs)]

mod budget;

pub use budget::{Budget, BudgetReport, CancelToken, Partial};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the auto-detected thread count.
pub const THREADS_ENV: &str = "PARINDA_THREADS";

/// Thread-count policy for the evaluation engine.
///
/// `Parallelism` is resolved at construction: `auto()` consults the
/// `PARINDA_THREADS` environment variable and then the machine's
/// available parallelism, so a constructed value is a plain count and
/// two equal values always behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Auto-detect: `PARINDA_THREADS` if set and valid, otherwise the
    /// machine's available parallelism, otherwise 1.
    pub fn auto() -> Self {
        if let Some(n) = env_threads() {
            return Parallelism::fixed(n);
        }
        let n = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Parallelism::fixed(n)
    }

    /// Exactly `n` threads (clamped to at least 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism { threads: NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero") }
    }

    /// Single-threaded execution.
    pub fn sequential() -> Self {
        Parallelism::fixed(1)
    }

    /// The resolved thread count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Does this policy run everything on the calling thread?
    pub fn is_sequential(&self) -> bool {
        self.threads.get() == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// The `PARINDA_THREADS` override, if set to a positive integer.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV).ok()?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// How many indexes a worker claims per grab: enough to amortize the
/// atomic increment on microsecond-scale items, small enough to balance
/// skewed workloads.
fn chunk_size(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).max(1)
}

/// A worker panic caught at the parallel boundary.
///
/// Deterministic by construction: every item is evaluated even after a
/// failure, and the panic with the **lowest input index** is the one
/// reported, so equal inputs produce an equal `WorkerPanic` at any
/// thread count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkerPanic {
    /// Input index of the item whose evaluation panicked.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// kept verbatim; anything else becomes a fixed placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallel worker panicked at item {}: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a caught panic payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one item under `catch_unwind`, rendering any panic to text
/// immediately so no payload crosses a thread boundary.
fn run_item<R, F: Fn(usize) -> R>(f: &F, i: usize) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if parinda_failpoint::should_fail("parallel::item") {
            panic!("failpoint parallel::item: injected error");
        }
        f(i)
    }))
    .map_err(|p| panic_message(&*p))
}

/// Collect an in-order stream of per-item results into a
/// contiguous-prefix [`Partial`] of an `n`-item sweep, or the
/// [`WorkerPanic`] of the lowest-index item that panicked.
fn collect_prefix<R>(
    n: usize,
    prefix: impl Iterator<Item = Result<R, String>>,
) -> Result<Partial<R>, WorkerPanic> {
    let mut done = Vec::with_capacity(n);
    let mut first_panic: Option<WorkerPanic> = None;
    let mut evaluated = 0usize;
    for (i, r) in prefix.enumerate() {
        match r {
            Ok(r) => done.push(r),
            Err(message) => {
                if first_panic.is_none() {
                    first_panic = Some(WorkerPanic { index: i, message });
                }
            }
        }
        evaluated = i + 1;
    }
    match first_panic {
        None => Ok(Partial { done, skipped: n - evaluated }),
        Some(p) => Err(p),
    }
}

/// The chunk engine behind every map: evaluate `f` over `0..n` on the
/// pool under `budget`, returning the results for a **contiguous
/// prefix** of the input plus a skipped count.
///
/// Workers poll `budget.interrupted()` between chunk claims (and the
/// sequential path polls between items), so a deadline or a
/// [`CancelToken`] stops the sweep at the next iteration boundary. To
/// keep the degraded result's shape deterministic, completed items
/// beyond the longest contiguous prefix are discarded: `done` always
/// covers exactly inputs `0..done.len()`. A panic never unwinds through
/// this call and never aborts sibling items; the panic at the lowest
/// index inside the prefix is reported, and panics beyond the prefix are
/// discarded with their results. An unlimited budget evaluates every
/// item, so the outcome is identical at any thread count.
fn run_chunks<R, F>(
    par: Parallelism,
    n: usize,
    budget: &Budget,
    f: &F,
) -> Result<Partial<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = par.threads().min(n.max(1));
    if threads <= 1 {
        let items = (0..n).map_while(|i| (!budget.interrupted()).then(|| run_item(f, i)));
        return collect_prefix(n, items);
    }

    let chunk = chunk_size(n, threads);
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, Result<R, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, Result<R, String>)> = Vec::new();
                    while !budget.interrupted() {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            out.push((i, run_item(f, i)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    // Reassemble in input order — determinism does not depend on which
    // worker computed what — and stop at the first gap: everything after
    // it was computed out of order past an interrupted chunk.
    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none());
        slots[i] = Some(r);
    }
    collect_prefix(n, slots.into_iter().map_while(|slot| slot))
}

/// Map `f` over `0..n` on the pool, returning results in index order.
///
/// `f` must be pure (or internally synchronized); it may run on any
/// worker in any order, but the output vector is always `[f(0), f(1),
/// …, f(n-1)]`. A panic in `f` is contained at the worker, every item is
/// still evaluated, and the panic of the **lowest** panicking index is
/// re-raised as a [`WorkerPanic`] message **on the caller's thread**, so
/// a frontend `catch_unwind` sees the same failure at any thread count
/// and the scoped pool always shuts down cleanly first.
pub fn par_map_indexed<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match run_chunks(par, n, &Budget::unlimited(), &f) {
        Ok(partial) => partial.done,
        Err(p) => panic!("{p}"),
    }
}

/// Map `f` over a slice on the pool, preserving input order.
pub fn par_map<'a, T, R, F>(par: Parallelism, items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    par_map_indexed(par, items.len(), |i| f(&items[i]))
}

/// The fallible sweep: map `f` over `0..n` on the pool under a
/// [`Budget`] (see [`Partial`] for the contiguous-prefix contract), with
/// a worker panic surfaced as the deterministic lowest-index
/// [`WorkerPanic`] **error** instead of an unwind. An unlimited budget
/// evaluates every item (`skipped == 0`).
///
/// One span at `path` covers the sweep, and a surfaced [`WorkerPanic`]
/// bumps the `worker_panics_recovered` counter. Span hand-off across
/// workers needs no thread-local state: spans are identified by stable
/// paths, and the `Trace` handle is `Sync`, so a worker closure that
/// wants sub-spans simply captures `&Trace` and records under a child
/// path (`"<path>/…"`) — the sink aggregates the same totals the
/// sequential run would. Tracing never perturbs results. What a skipped
/// item *means* (a query, a candidate) is context the caller has, so
/// skip counters stay at the call sites.
pub fn par_try_map_budgeted_traced<R, F>(
    par: Parallelism,
    n: usize,
    budget: &Budget,
    trace: &parinda_trace::Trace,
    path: &'static str,
    f: F,
) -> Result<Partial<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let _span = trace.span(path);
    let out = run_chunks(par, n, budget, &f);
    if out.is_err() {
        trace.count(parinda_trace::Counter::WorkerPanicsRecovered, 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parinda_trace::Trace;
    use std::sync::atomic::AtomicU64;

    /// The fallible sweep without a trace.
    fn try_map<R: Send>(
        threads: usize,
        n: usize,
        budget: &Budget,
        f: impl Fn(usize) -> R + Sync,
    ) -> Result<Partial<R>, WorkerPanic> {
        par_try_map_budgeted_traced(
            Parallelism::fixed(threads),
            n,
            budget,
            &Trace::disabled(),
            "sweep",
            f,
        )
    }

    /// Silence the default panic hook while `body` provokes worker panics.
    fn quietly(body: impl FnOnce()) {
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        body();
        std::panic::set_hook(quiet);
    }

    #[test]
    fn results_in_input_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_indexed(Parallelism::fixed(threads), 1000, |i| i * i);
            assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_over_slice() {
        let items: Vec<String> = (0..64).map(|i| format!("q{i}")).collect();
        let out = par_map(Parallelism::fixed(4), &items, |s| s.len());
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = par_map_indexed(Parallelism::fixed(8), 0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(Parallelism::fixed(8), 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_index_computed_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = par_map_indexed(Parallelism::fixed(7), 333, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 333);
        assert_eq!(out.len(), 333);
    }

    #[test]
    fn fixed_clamps_to_one() {
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert!(Parallelism::fixed(0).is_sequential());
        assert!(!Parallelism::fixed(2).is_sequential());
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Parallelism::auto().threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(Parallelism::fixed(4), 100, |i| {
                if i == 57 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    /// A panicking item surfaces as an error, not an unwind, and the
    /// error is identical at every thread count (lowest index wins).
    #[test]
    fn try_map_contains_panics_deterministically() {
        quietly(|| {
            let expected = Err(WorkerPanic { index: 31, message: "boom at 31".into() });
            for threads in [1, 2, 3, 8, 64] {
                let r = try_map(threads, 200, &Budget::unlimited(), |i| {
                    if i == 31 || i == 163 {
                        panic!("boom at {i}");
                    }
                    i * 2
                });
                assert_eq!(r, expected, "threads={threads}");
            }
        });
    }

    #[test]
    fn try_map_ok_matches_par_map() {
        let ok = try_map(4, 100, &Budget::unlimited(), |i| i + 1).unwrap();
        assert_eq!(ok.done, par_map_indexed(Parallelism::fixed(4), 100, |i| i + 1));
    }

    /// An unlimited budget makes the sweep complete: every item done,
    /// none skipped, at any thread count.
    #[test]
    fn budgeted_map_unlimited_is_complete() {
        for threads in [1, 2, 8] {
            let partial = try_map(threads, 500, &Budget::unlimited(), |i| i * 3).unwrap();
            assert!(partial.is_complete(), "threads={threads}");
            assert_eq!(partial.done, (0..500).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    /// A pre-cancelled budget stops the sweep before any work: the
    /// degenerate-but-valid empty prefix.
    #[test]
    fn budgeted_map_cancelled_before_start() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2, 8] {
            let budget = Budget::unlimited().with_cancel(token.clone());
            let partial = try_map(threads, 100, &budget, |i| i).unwrap();
            assert_eq!(partial.done.len(), 0, "threads={threads}");
            assert_eq!(partial.skipped, 100, "threads={threads}");
        }
    }

    /// An expired deadline mid-sweep yields a contiguous prefix: the
    /// done results are exactly `f(0..done.len())`.
    #[test]
    fn budgeted_map_partial_is_contiguous_prefix() {
        let hits = AtomicU64::new(0);
        let token = CancelToken::new();
        let tok = token.clone();
        // Cancel after ~40 items have been evaluated (any thread).
        let budget = Budget::unlimited().with_cancel(token.clone());
        let partial = try_map(4, 10_000, &budget, move |i| {
            if hits.fetch_add(1, Ordering::Relaxed) == 40 {
                tok.cancel();
            }
            i * 2
        })
        .unwrap();
        assert!(partial.skipped > 0, "cancellation should have skipped the tail");
        assert_eq!(partial.done.len() + partial.skipped, 10_000);
        assert_eq!(partial.done, (0..partial.done.len()).map(|i| i * 2).collect::<Vec<_>>());
    }

    /// A panic inside the prefix of a budgeted sweep surfaces as the
    /// same deterministic WorkerPanic at any thread count.
    #[test]
    fn budgeted_map_reports_prefix_panic() {
        quietly(|| {
            for threads in [1, 2, 8] {
                let r = try_map(threads, 50, &Budget::unlimited(), |i| {
                    if i == 11 {
                        panic!("boom at {i}");
                    }
                    i
                });
                assert_eq!(
                    r,
                    Err(WorkerPanic { index: 11, message: "boom at 11".into() }),
                    "threads={threads}"
                );
            }
        });
    }

    /// A recording trace returns exactly what a disabled one does and
    /// records one span per sweep, at any thread count.
    #[test]
    fn traced_maps_match_untraced_and_record_spans() {
        let trace = Trace::recording();
        for threads in [1, 2, 8] {
            let partial = par_try_map_budgeted_traced(
                Parallelism::fixed(threads),
                100,
                &Budget::unlimited(),
                &trace,
                "sweep",
                |i| i * 2,
            )
            .unwrap();
            assert!(partial.is_complete(), "threads={threads}");
            assert_eq!(partial.done, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
        assert_eq!(trace.snapshot().spans["sweep"].count, 3);
    }

    /// A disabled trace changes nothing and records nothing.
    #[test]
    fn traced_maps_with_disabled_trace_are_transparent() {
        let trace = Trace::disabled();
        let out = par_try_map_budgeted_traced(
            Parallelism::fixed(3),
            50,
            &Budget::unlimited(),
            &trace,
            "sweep",
            |i| i + 1,
        )
        .unwrap();
        assert_eq!(out.done, (1..=50).collect::<Vec<_>>());
        assert!(trace.snapshot().spans.is_empty());
    }

    /// A contained worker panic bumps the recovery counter while the
    /// error stays identical to the untraced sweep.
    #[test]
    fn traced_map_counts_recovered_panics() {
        quietly(|| {
            let trace = Trace::recording();
            let r = par_try_map_budgeted_traced(
                Parallelism::fixed(4),
                20,
                &Budget::unlimited(),
                &trace,
                "sweep",
                |i| {
                    if i == 5 {
                        panic!("boom at {i}");
                    }
                    i
                },
            );
            assert_eq!(r, Err(WorkerPanic { index: 5, message: "boom at 5".into() }));
            assert_eq!(trace.snapshot().counter(parinda_trace::Counter::WorkerPanicsRecovered), 1);
        });
    }

    /// Non-string panic payloads are rendered to a fixed placeholder, so
    /// the error stays comparable and `Send`.
    #[test]
    fn non_string_payloads_render_fixed_text() {
        quietly(|| {
            let r = try_map(2, 4, &Budget::unlimited(), |i| {
                if i == 2 {
                    std::panic::panic_any(42_u64);
                }
                i
            });
            assert_eq!(
                r,
                Err(WorkerPanic { index: 2, message: "non-string panic payload".into() })
            );
        });
    }
}
