//! Determinism suite for the parallel evaluation engine: every advisor
//! answer — workload costs, ILP index selections, AutoPart designs — must
//! be **bit-identical** for any thread count. Runs on both schemas (SDSS
//! and retail) so nothing SDSS-specific can mask a race.

use parinda::{AutoPartConfig, Budget, Parallelism, Parinda, SelectionMethod, Trace};
use parinda_advisor::{generate_candidates, CandidateLimits};
use parinda_inum::{Configuration, InumModel, InumOptions};
use parinda_optimizer::CostParams;
use parinda_workload::{
    retail_catalog, retail_load, retail_workload, sdss_catalog, sdss_workload, synthesize_stats,
    SdssScale,
};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn sdss_session() -> Parinda {
    let (mut cat, tables) = sdss_catalog(SdssScale::paper());
    synthesize_stats(&mut cat, &tables);
    Parinda::new(cat)
}

fn retail_session() -> Parinda {
    let (mut cat, tables) = retail_catalog(2_000);
    let mut db = parinda::Database::new();
    retail_load(&mut cat, &mut db, &tables, 3);
    Parinda::with_database(cat, db)
}

/// Exact float equality (the guarantee is bit-level, not epsilon-level).
fn assert_bits_eq(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} != {b}");
}

fn check_workload_costs(mk: fn() -> Parinda, workload: &[parinda::Select], schema: &str) {
    let session = mk();
    let params = CostParams::default();
    let weights = vec![1.0; workload.len()];
    let build = |threads: usize| {
        InumModel::build_weighted_traced(
            session.catalog(),
            workload,
            &weights,
            params.clone(),
            InumOptions::default(),
            Parallelism::fixed(threads),
            &Budget::unlimited(),
            Trace::disabled(),
        )
        .unwrap()
    };
    let baseline = build(1);
    let cands = generate_candidates(&baseline.queries().to_vec(), CandidateLimits::default());

    let mut base = baseline;
    let ids: Vec<_> = cands.iter().map(|c| base.register_candidate(c.clone())).collect();
    let empty_cost = base.workload_cost(&Configuration::empty());
    let full_cost = base.workload_cost(&Configuration::from_ids(ids.iter().copied()));

    for threads in THREAD_COUNTS {
        let mut m = build(threads);
        let ids: Vec<_> = cands.iter().map(|c| m.register_candidate(c.clone())).collect();
        assert_bits_eq(
            m.workload_cost(&Configuration::empty()),
            empty_cost,
            &format!("{schema} empty-config cost, {threads} threads"),
        );
        assert_bits_eq(
            m.workload_cost(&Configuration::from_ids(ids)),
            full_cost,
            &format!("{schema} full-config cost, {threads} threads"),
        );
    }
}

fn check_index_suggestions(mk: fn() -> Parinda, workload: &[parinda::Select], schema: &str) {
    for method in [SelectionMethod::Ilp, SelectionMethod::Greedy] {
        let mut reference = None;
        for threads in THREAD_COUNTS {
            let mut session = mk();
            session.set_parallelism(Parallelism::fixed(threads));
            let budget = 2_u64 << 30;
            let sugg = session.suggest_indexes(workload, budget, method).unwrap();
            let fingerprint: Vec<(String, String, Vec<String>, u64)> = sugg
                .indexes
                .iter()
                .map(|i| (i.name.clone(), i.table.clone(), i.columns.clone(), i.size_bytes))
                .collect();
            let costs: Vec<(u64, u64)> = sugg
                .report
                .per_query
                .iter()
                .map(|q| (q.cost_before.to_bits(), q.cost_after.to_bits()))
                .collect();
            match &reference {
                None => reference = Some((fingerprint, costs)),
                Some((rf, rc)) => {
                    assert_eq!(
                        rf, &fingerprint,
                        "{schema} {method:?} selection differs at {threads} threads"
                    );
                    assert_eq!(
                        rc, &costs,
                        "{schema} {method:?} per-query costs differ at {threads} threads"
                    );
                }
            }
        }
    }
}

fn check_partition_suggestions(mk: fn() -> Parinda, workload: &[parinda::Select], schema: &str) {
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let mut session = mk();
        session.set_parallelism(Parallelism::fixed(threads));
        let sugg = session.suggest_partitions(workload, AutoPartConfig::default()).unwrap();
        let fingerprint: Vec<(String, String, Vec<String>)> = sugg
            .partitions
            .iter()
            .map(|p| (p.name.clone(), p.table.clone(), p.columns.clone()))
            .collect();
        let costs: Vec<(u64, u64)> = sugg
            .report
            .per_query
            .iter()
            .map(|q| (q.cost_before.to_bits(), q.cost_after.to_bits()))
            .collect();
        let rewritten: Vec<String> = sugg.rewritten.iter().map(|s| s.to_string()).collect();
        match &reference {
            None => reference = Some((fingerprint, costs, rewritten, sugg.iterations)),
            Some((rf, rc, rw, ri)) => {
                assert_eq!(rf, &fingerprint, "{schema} design differs at {threads} threads");
                assert_eq!(rc, &costs, "{schema} partition costs differ at {threads} threads");
                assert_eq!(rw, &rewritten, "{schema} rewrites differ at {threads} threads");
                assert_eq!(*ri, sugg.iterations, "{schema} iterations differ at {threads} threads");
            }
        }
    }
}

/// A panicking parallel worker must not unwind the process, and must
/// surface as the **same** [`parinda::ParindaError`] at every thread
/// count: the fallible sweep evaluates all items and reports the
/// lowest-indexed panic regardless of scheduling.
#[test]
fn worker_panic_yields_identical_error_at_any_thread_count() {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut reference: Option<parinda::ParindaError> = None;
    for threads in THREAD_COUNTS {
        let panicked = parinda_parallel::par_try_map_budgeted_traced(
            Parallelism::fixed(threads),
            64,
            &Budget::unlimited(),
            &Trace::disabled(),
            "sweep",
            |i| {
                if i % 17 == 5 {
                    panic!("injected worker failure at item {i}");
                }
                i * 2
            },
        )
        .expect_err("workers 5, 22, 39, 56 panic");
        let err: parinda::ParindaError = panicked.into();
        match &reference {
            None => reference = Some(err),
            Some(r) => assert_eq!(r, &err, "error differs at {threads} threads"),
        }
    }

    std::panic::set_hook(quiet);
    let err = reference.expect("at least one thread count ran");
    assert_eq!(err.kind(), "internal");
    assert!(
        err.to_string().contains("item 5"),
        "lowest-indexed panic wins deterministically: {err}"
    );
}

/// Same guarantee one layer up: the INUM model build — the hot parallel
/// path every advisor runs on — reports a worker panic as a typed error,
/// identically at every thread count, with the session still usable.
#[test]
fn session_survives_worker_panic_via_guard() {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = parinda::guard::<f64>(|| panic!("invariant breach deep in an advisor"));
    std::panic::set_hook(quiet);
    assert_eq!(
        r,
        Err(parinda::ParindaError::Internal(
            "invariant breach deep in an advisor".into()
        ))
    );
}

/// A *round-capped* budget is scheduling-independent by construction
/// (checked only at round boundaries, never against the clock), so an
/// interrupted run must return the **same** degraded best-so-far design
/// at any thread count.
#[test]
fn round_capped_ilp_degrades_identically_at_any_thread_count() {
    let workload = sdss_workload();
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let mut session = sdss_session();
        session.set_parallelism(Parallelism::fixed(threads));
        session.set_budget_rounds(Some(3));
        let sugg = session
            .suggest_indexes(&workload, 2_u64 << 30, SelectionMethod::Ilp)
            .expect("budgeted advise must not error");
        assert!(sugg.degraded, "3 rounds cannot cover the SDSS search");
        assert!(!sugg.proven_optimal);
        let report = sugg.budget.clone().expect("degraded run carries a budget report");
        let fingerprint: Vec<(String, String, Vec<String>, u64)> = sugg
            .indexes
            .iter()
            .map(|i| (i.name.clone(), i.table.clone(), i.columns.clone(), i.size_bytes))
            .collect();
        let costs: Vec<(u64, u64)> = sugg
            .report
            .per_query
            .iter()
            .map(|q| (q.cost_before.to_bits(), q.cost_after.to_bits()))
            .collect();
        let accounting = (report.rounds_completed, report.candidates_skipped);
        match &reference {
            None => reference = Some((fingerprint, costs, accounting)),
            Some((rf, rc, ra)) => {
                assert_eq!(rf, &fingerprint, "degraded selection differs at {threads} threads");
                assert_eq!(rc, &costs, "degraded costs differ at {threads} threads");
                assert_eq!(*ra, accounting, "budget accounting differs at {threads} threads");
            }
        }
    }
}

/// Same guarantee for AutoPart: one improvement round, identical
/// degraded design everywhere.
#[test]
fn round_capped_autopart_degrades_identically_at_any_thread_count() {
    let workload = sdss_workload();
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let mut session = sdss_session();
        session.set_parallelism(Parallelism::fixed(threads));
        session.set_budget_rounds(Some(1));
        let sugg = session
            .suggest_partitions(&workload, AutoPartConfig::default())
            .expect("budgeted partitioning must not error");
        assert!(sugg.degraded, "one round cannot finish AutoPart on SDSS");
        let fingerprint: Vec<(String, String, Vec<String>)> = sugg
            .partitions
            .iter()
            .map(|p| (p.name.clone(), p.table.clone(), p.columns.clone()))
            .collect();
        let rewritten: Vec<String> = sugg.rewritten.iter().map(|s| s.to_string()).collect();
        match &reference {
            None => reference = Some((fingerprint, rewritten, sugg.iterations)),
            Some((rf, rw, ri)) => {
                assert_eq!(rf, &fingerprint, "degraded design differs at {threads} threads");
                assert_eq!(rw, &rewritten, "degraded rewrites differ at {threads} threads");
                assert_eq!(*ri, sugg.iterations, "iterations differ at {threads} threads");
            }
        }
    }
}

/// The observability layer is write-only: with a live recording trace
/// attached, the ILP selection and its bit-exact per-query costs are
/// still identical at every thread count (and identical to the
/// untraced reference the other tests pin).
#[test]
fn index_suggestions_identical_with_tracing_on() {
    let workload = sdss_workload();
    let mut reference = None;
    for threads in THREAD_COUNTS {
        let mut session = sdss_session();
        session.set_parallelism(Parallelism::fixed(threads));
        session.set_trace(parinda::Trace::recording());
        let sugg = session.suggest_indexes(&workload, 2_u64 << 30, SelectionMethod::Ilp).unwrap();
        let fingerprint: Vec<(String, String, Vec<String>, u64)> = sugg
            .indexes
            .iter()
            .map(|i| (i.name.clone(), i.table.clone(), i.columns.clone(), i.size_bytes))
            .collect();
        let costs: Vec<(u64, u64)> = sugg
            .report
            .per_query
            .iter()
            .map(|q| (q.cost_before.to_bits(), q.cost_after.to_bits()))
            .collect();
        // the trace actually recorded this run
        assert!(session.trace().snapshot().counter(parinda::Counter::OptimizerInvocations) > 0);
        match &reference {
            None => reference = Some((fingerprint, costs)),
            Some((rf, rc)) => {
                assert_eq!(rf, &fingerprint, "traced selection differs at {threads} threads");
                assert_eq!(rc, &costs, "traced costs differ at {threads} threads");
            }
        }
    }
}

/// The sparse benefit matrix is a storage layout, not a semantics
/// change: the CSR path and the dense reference path
/// (`IlpOptions::dense_reference`) must select the **same indexes with
/// bit-identical per-query costs**, on both schemas, at every thread
/// count. One reference pins all twelve runs (2 layouts × 3 thread
/// counts × 2 schemas checked per schema), so this also re-proves
/// thread determinism of the sparse path.
fn check_sparse_dense_agreement(mk: fn() -> Parinda, workload: &[parinda::Select], schema: &str) {
    let mut reference = None;
    for threads in THREAD_COUNTS {
        for dense in [false, true] {
            let mut session = mk();
            session.set_parallelism(Parallelism::fixed(threads));
            let options = parinda::IlpOptions { dense_reference: dense, ..Default::default() };
            let sugg = session
                .suggest_indexes_with(workload, 2_u64 << 30, SelectionMethod::Ilp, &options)
                .unwrap();
            let fingerprint: Vec<(String, String, Vec<String>, u64)> = sugg
                .indexes
                .iter()
                .map(|i| (i.name.clone(), i.table.clone(), i.columns.clone(), i.size_bytes))
                .collect();
            let costs: Vec<(u64, u64)> = sugg
                .report
                .per_query
                .iter()
                .map(|q| (q.cost_before.to_bits(), q.cost_after.to_bits()))
                .collect();
            match &reference {
                None => reference = Some((fingerprint, costs)),
                Some((rf, rc)) => {
                    assert_eq!(
                        rf, &fingerprint,
                        "{schema} selection differs (dense={dense}, {threads} threads)"
                    );
                    assert_eq!(
                        rc, &costs,
                        "{schema} per-query costs differ (dense={dense}, {threads} threads)"
                    );
                }
            }
        }
    }
}

#[test]
fn sdss_sparse_and_dense_ilp_agree_bit_identically() {
    check_sparse_dense_agreement(sdss_session, &sdss_workload(), "sdss");
}

#[test]
fn retail_sparse_and_dense_ilp_agree_bit_identically() {
    check_sparse_dense_agreement(retail_session, &retail_workload(), "retail");
}

#[test]
fn sdss_workload_cost_bit_identical() {
    check_workload_costs(sdss_session, &sdss_workload(), "sdss");
}

#[test]
fn retail_workload_cost_bit_identical() {
    check_workload_costs(retail_session, &retail_workload(), "retail");
}

#[test]
fn sdss_index_suggestions_identical() {
    check_index_suggestions(sdss_session, &sdss_workload(), "sdss");
}

#[test]
fn retail_index_suggestions_identical() {
    check_index_suggestions(retail_session, &retail_workload(), "retail");
}

#[test]
fn sdss_partition_suggestions_identical() {
    check_partition_suggestions(sdss_session, &sdss_workload(), "sdss");
}

#[test]
fn retail_partition_suggestions_identical() {
    check_partition_suggestions(retail_session, &retail_workload(), "retail");
}
