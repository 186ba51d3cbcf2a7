//! Trace-layer regression suite: observability must be *write-only* for
//! the pipeline. Recording on or off, any thread count — every advisor
//! answer stays bit-identical, the span tree keeps the same shape, and
//! the JSON export obeys the documented `parinda-trace/v1` schema.

use parinda::{
    AutoPartConfig, Counter, Parallelism, Parinda, SelectionMethod, Trace,
};
use parinda_workload::{sdss_catalog, sdss_workload, synthesize_stats, SdssScale};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn session(threads: usize, trace: Trace) -> Parinda {
    let (mut cat, tables) = sdss_catalog(SdssScale::paper());
    synthesize_stats(&mut cat, &tables);
    let mut s = Parinda::new(cat);
    s.set_parallelism(Parallelism::fixed(threads));
    s.set_trace(trace);
    s
}

/// Fingerprint of an advisor run: everything the user can observe, with
/// costs at bit precision.
fn advise_fingerprint(s: &Parinda, wl: &[parinda::Select]) -> (Vec<String>, Vec<(u64, u64)>) {
    let sugg = s.suggest_indexes(wl, 2_u64 << 30, SelectionMethod::Ilp).expect("advise");
    (
        sugg.indexes.iter().map(|i| format!("{}/{}", i.table, i.name)).collect(),
        sugg.report
            .per_query
            .iter()
            .map(|q| (q.cost_before.to_bits(), q.cost_after.to_bits()))
            .collect(),
    )
}

/// Recording must never perturb results: the ILP selection, per-query
/// costs, and workload cost are bit-identical with tracing off, with a
/// no-op recorder path (disabled), and with a live recording sink.
#[test]
fn recording_never_changes_advisor_results() {
    let wl = sdss_workload();
    let off = session(2, Trace::disabled());
    let on = session(2, Trace::recording());
    assert_eq!(advise_fingerprint(&off, &wl), advise_fingerprint(&on, &wl));
    assert_eq!(
        off.workload_cost(&wl).unwrap().to_bits(),
        on.workload_cost(&wl).unwrap().to_bits(),
        "workload cost must be bit-identical with tracing on"
    );
    // the recording run actually recorded something
    let report = on.trace().snapshot();
    assert!(report.counter(Counter::OptimizerInvocations) > 0);
    assert!(!report.spans.is_empty());
}

/// The span tree's *shape* — paths and visit counts — is a contract:
/// scheduling may reorder work but never change what phases ran or how
/// often. Timings differ run to run; shape may not.
#[test]
fn span_tree_shape_identical_at_any_thread_count() {
    let wl = sdss_workload();
    let mut reference: Option<Vec<(String, u64)>> = None;
    for threads in THREAD_COUNTS {
        let trace = Trace::recording();
        let s = session(threads, trace.clone());
        s.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).expect("ilp");
        s.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Greedy).expect("greedy");
        s.suggest_partitions(&wl, AutoPartConfig::default()).expect("autopart");
        s.explain_sql_breakdown("SELECT objid FROM photoobj WHERE ra > 100", None)
            .expect("explain");
        let shape = trace.snapshot().shape();
        assert!(
            shape.iter().any(|(p, _)| p == "inum_build/populate"),
            "nested spans recorded: {shape:?}"
        );
        match &reference {
            None => reference = Some(shape),
            Some(r) => {
                assert_eq!(r, &shape, "span tree shape differs at {threads} threads")
            }
        }
    }
}

/// Deterministic counters — everything except the cache hit/miss split,
/// which can legitimately vary when two threads race to fill the same
/// memo slot — are identical at any thread count; hits+misses is itself
/// deterministic. AutoPart's planner calls are among them: its memo is
/// frozen per round, so the calls it makes do not depend on scheduling.
#[test]
fn deterministic_counters_identical_at_any_thread_count() {
    let wl = sdss_workload();
    let mut reference: Option<Vec<(&'static str, u64)>> = None;
    for threads in THREAD_COUNTS {
        let trace = Trace::recording();
        let s = session(threads, trace.clone());
        s.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).expect("ilp");
        s.suggest_partitions(&wl, AutoPartConfig::default()).expect("autopart");
        let r = trace.snapshot();
        let stable: Vec<(&'static str, u64)> = Counter::ALL
            .iter()
            .filter(|c| !matches!(c, Counter::InumCacheHits | Counter::InumCacheMisses))
            .map(|&c| (c.name(), r.counter(c)))
            .chain([(
                "inum_cache_accesses",
                r.counter(Counter::InumCacheHits) + r.counter(Counter::InumCacheMisses),
            )])
            .collect();
        match &reference {
            None => reference = Some(stable),
            Some(prev) => {
                assert_eq!(prev, &stable, "counters differ at {threads} threads")
            }
        }
    }
}

/// `--trace-json` schema contract (`parinda-trace/v1`), as documented in
/// EXPERIMENTS.md: a `schema` tag, a `spans` object of
/// `{count, total_ns}` entries, and a `counters` object listing every
/// counter including zeros.
#[test]
fn trace_json_obeys_documented_schema() {
    let wl = sdss_workload();
    let trace = Trace::recording();
    let s = session(1, trace.clone());
    s.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).expect("ilp");
    let json = trace.snapshot().to_json();

    assert!(json.starts_with("{\n"), "top-level object");
    assert!(json.trim_end().ends_with('}'), "closed object");
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces:\n{json}"
    );
    assert!(json.contains("\"schema\": \"parinda-trace/v1\""), "{json}");
    assert!(json.contains("\"spans\": {"), "{json}");
    assert!(json.contains("\"counters\": {"), "{json}");
    // every counter appears exactly once, zeros included
    for c in Counter::ALL {
        assert_eq!(
            json.matches(&format!("\"{}\":", c.name())).count(),
            1,
            "counter {} missing or duplicated in:\n{json}",
            c.name()
        );
    }
    // every span entry carries both fields
    assert_eq!(
        json.matches("\"count\":").count(),
        json.matches("\"total_ns\":").count(),
        "span entries are {{count, total_ns}} pairs:\n{json}"
    );
    assert!(json.contains("\"inum_build\""), "inum phase exported: {json}");
}

/// The streaming verbs record their own phases (`epoch_advance`,
/// `drift_check`, `inum_delta`) and counters, and like everything else
/// in the pipeline both are identical at any thread count.
#[test]
fn streaming_counters_and_spans_are_recorded() {
    use parinda::{Console, ConsoleReply};
    let mut reference: Option<(Vec<(String, u64)>, Vec<(&'static str, u64)>)> = None;
    for threads in THREAD_COUNTS {
        let trace = Trace::recording();
        let mut c = Console::with_session(session(threads, Trace::disabled()));
        c.set_trace(trace.clone());
        c.run_line(&format!("threads {threads}"));
        for line in [
            "advise auto on",
            "advise budget 64",
            "feed SELECT objid FROM photoobj WHERE ra > 100",
            "feed SELECT objid FROM photoobj WHERE ra > 150",
            "feed SELECT objid FROM photoobj WHERE dec < 5",
            "epoch", // first epoch: drift maximal by convention, advises fresh
            "feed SELECT objid FROM photoobj WHERE dec < 30",
            "feed SELECT ra FROM photoobj WHERE objid = 1",
            "feed SELECT ra FROM photoobj WHERE objid = 2",
            "epoch", // drifted: re-advises through apply_delta
        ] {
            match c.run_line(line) {
                ConsoleReply::Output(_) => {}
                other => panic!("`{line}` failed: {other:?}"),
            }
        }
        let r = trace.snapshot();
        assert_eq!(r.counter(Counter::StreamStatementsFed), 6);
        assert_eq!(r.counter(Counter::EpochsAdvanced), 2);
        assert_eq!(r.counter(Counter::DriftEvents), 2);
        assert!(
            r.counter(Counter::InumDeltaReused) > 0,
            "the second advise must reuse surviving templates"
        );
        assert!(
            r.counter(Counter::InumDeltaRebuilt) > 0,
            "the second advise must rebuild the arrived template"
        );
        let shape = r.shape();
        for phase in ["epoch_advance", "drift_check", "inum_delta"] {
            assert!(
                shape.iter().any(|(p, _)| p == phase || p.starts_with(&format!("{phase}/"))),
                "phase {phase} missing from span tree: {shape:?}"
            );
        }
        let stable: Vec<(&'static str, u64)> = Counter::ALL
            .iter()
            .filter(|c| !matches!(c, Counter::InumCacheHits | Counter::InumCacheMisses))
            .map(|&c| (c.name(), r.counter(c)))
            .collect();
        match &reference {
            None => reference = Some((shape, stable)),
            Some(prev) => assert_eq!(
                prev,
                &(shape, stable),
                "streaming spans/counters differ at {threads} threads"
            ),
        }
    }
}

/// The disabled trace is inert end to end: no spans, no counters, and
/// `snapshot()` returns the canonical empty report (all counters zero).
#[test]
fn disabled_trace_records_nothing() {
    let wl = sdss_workload();
    let s = session(2, Trace::disabled());
    s.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).expect("ilp");
    let r = s.trace().snapshot();
    assert!(r.spans.is_empty());
    for c in Counter::ALL {
        assert_eq!(r.counter(c), 0, "{} leaked through a disabled trace", c.name());
    }
}
