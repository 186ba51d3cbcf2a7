//! Library forms of the experiment-harness entries that other code pins
//! down: E1 and E3 as renderable reports with a *deterministic mode*
//! (timing cells become `-` placeholders, advisors run sequentially) so
//! the golden tests can diff them byte-for-byte, and the E3/E4 JSON
//! artifact (`BENCH_e3_e4.json`, schema documented in EXPERIMENTS.md)
//! that embeds the `parinda-trace/v1` run profile.
//!
//! The `experiments` binary delegates its `e1`/`e3` subcommands here so
//! the printed tables and the golden-pinned tables can never drift.

use std::fmt::Write as _;
use std::time::Instant;

use parinda::{
    AutoPartConfig, Design, IlpOptions, Parallelism, SelectionMethod, Trace, WhatIfIndex,
    WhatIfPartition,
};
use parinda_catalog::MetadataProvider;
use parinda_inum::{CandidateIndex, Configuration, InumModel, InumOptions};
use parinda_optimizer::CostParams;
use parinda_parallel::Budget;

use crate::{paper_session, workload, Table};

/// Render a duration cell, or the deterministic placeholder.
fn time_cell(deterministic: bool, d: std::time::Duration) -> String {
    if deterministic {
        "-".into()
    } else {
        format!("{d:.2?}")
    }
}

/// Render a microseconds cell, or the deterministic placeholder.
fn us_cell(deterministic: bool, us: f64) -> String {
    if deterministic {
        "-".into()
    } else {
        format!("{us:.2} µs")
    }
}

/// The experiment banner, shared with the binary.
pub fn banner(id: &str, claim: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n=========================================================================="
    );
    let _ = writeln!(out, "{id}");
    let _ = writeln!(out, "paper claim: {claim}");
    let _ = writeln!(
        out,
        "=========================================================================="
    );
    out
}

fn star(degraded: bool) -> &'static str {
    if degraded {
        "*"
    } else {
        ""
    }
}

/// E1, estimated section — "speedups ranging from 2x to 10x" (§1).
/// Advisor output is deterministic at any thread count, so this table
/// contains no timings and is golden-stable as is. In deterministic
/// mode the sessions are pinned to one thread anyway, for belt and
/// braces.
pub fn e1_report(deterministic: bool) -> String {
    let mut out = banner("E1  workload speedup from suggested design features", "2x to 10x");
    let mut session = paper_session();
    if deterministic {
        session.set_parallelism(Parallelism::fixed(1));
    }
    let wl = workload();
    let base_bytes = session.catalog().total_size_bytes();
    let mut t = Table::new(&["budget (frac of db)", "indexes", "partitions", "est. speedup"]);
    let mut any_degraded = false;
    for frac in [0.05f64, 0.1, 0.2, 0.4] {
        let budget = (base_bytes as f64 * frac) as u64;
        let idx = session.suggest_indexes(&wl, budget, SelectionMethod::Ilp).expect("advisor");
        let parts =
            session.suggest_partitions(&wl, AutoPartConfig::default()).expect("autopart");
        let mut design = Design::new();
        for p in &parts.partitions {
            let cols: Vec<&str> = p.columns.iter().map(|s| s.as_str()).collect();
            design = design.with_partition(WhatIfPartition::new(&p.name, &p.table, &cols));
        }
        for i in &idx.indexes {
            let cols: Vec<&str> = i.columns.iter().map(|s| s.as_str()).collect();
            design = design.with_index(WhatIfIndex::new(&i.name, &i.table, &cols));
        }
        let (report, _) = session.evaluate_design(&wl, &design).expect("evaluation");
        any_degraded |= idx.degraded || parts.degraded;
        t.row(&[
            format!("{:.0}%", frac * 100.0),
            format!("{}{}", idx.indexes.len(), star(idx.degraded)),
            format!("{}{}", parts.partitions.len(), star(parts.degraded)),
            format!("{:.2}x", report.speedup()),
        ]);
    }
    let _ = writeln!(
        out,
        "\nestimated (optimizer cost, paper-scale statistics):\n{}",
        t.render()
    );
    if any_degraded {
        let _ = writeln!(
            out,
            "  * budget-degraded: best-so-far under the advisor budget, not the full search"
        );
    }
    out
}

/// Measurements behind E3: cache-build time and per-estimate times for
/// the INUM cached model vs full re-optimization, plus the counter
/// totals the traced run recorded.
pub struct E3Run {
    pub build: std::time::Duration,
    pub per_cached_us: f64,
    pub per_full_us: f64,
    pub n_cached: usize,
    pub n_full: usize,
    /// The `parinda-trace/v1` report for the whole run (sequential, so
    /// every counter in it is deterministic).
    pub report: parinda::TraceReport,
}

/// Run E3's measurement loop once, with tracing on.
pub fn e3_run() -> E3Run {
    let session = paper_session();
    let wl = workload();
    let trace = Trace::recording();

    let t0 = Instant::now();
    let mut model = {
        let _s = trace.span("inum_build");
        InumModel::build_weighted_traced(
            session.catalog(),
            &wl,
            &vec![1.0; wl.len()],
            CostParams::default(),
            InumOptions::default(),
            Parallelism::fixed(1),
            &Budget::unlimited(),
            trace.clone(),
        )
        .expect("inum build")
    };
    let build = t0.elapsed();

    let photo = session.catalog().table_by_name("photoobj").unwrap().id;
    let spec = session.catalog().table_by_name("specobj").unwrap().id;
    let cands: Vec<_> = [
        (photo, vec![0]),
        (photo, vec![14]),
        (photo, vec![9]),
        (photo, vec![27]),
        (spec, vec![1]),
        (spec, vec![5]),
    ]
    .into_iter()
    .map(|(t, c)| model.register_candidate(CandidateIndex::new(t, c)))
    .collect();
    let configs: Vec<Configuration> = (0..64u32)
        .map(|mask| {
            Configuration::from_ids(
                cands
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &id)| id),
            )
        })
        .collect();
    for cfg in &configs {
        model.workload_cost(cfg); // warm memoization
    }

    const N_CACHED: usize = 100_000;
    let t0 = Instant::now();
    let mut guard = 0.0f64;
    for i in 0..N_CACHED {
        let cfg = &configs[i % configs.len()];
        guard += model.cost(i % wl.len(), cfg);
    }
    let cached = t0.elapsed();
    assert!(guard.is_finite());

    const N_FULL: usize = 200;
    let t0 = Instant::now();
    for i in 0..N_FULL {
        let cfg = &configs[i % configs.len()];
        model.exact_cost(i % wl.len(), cfg);
    }
    let full = t0.elapsed();

    E3Run {
        build,
        per_cached_us: cached.as_secs_f64() / N_CACHED as f64 * 1e6,
        per_full_us: full.as_secs_f64() / N_FULL as f64 * 1e6,
        n_cached: N_CACHED,
        n_full: N_FULL,
        report: trace.snapshot(),
    }
}

/// E3 — INUM estimates "costs of millions of physical designs in the
/// order of minutes instead of days" (§3.4). In deterministic mode every
/// timing-derived cell renders `-`; the pipeline counters (optimizer
/// invocations, cache hits/misses) are scheduling-independent under the
/// sequential run and stay pinned.
pub fn e3_report(deterministic: bool) -> String {
    let mut out = banner(
        "E3  INUM cached cost model vs full re-optimization",
        "millions of estimations in minutes instead of days",
    );
    let run = e3_run();
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["cache build (30 queries)".into(), time_cell(deterministic, run.build)]);
    t.row(&["per-estimate, INUM cached".into(), us_cell(deterministic, run.per_cached_us)]);
    t.row(&["per-estimate, full optimizer".into(), us_cell(deterministic, run.per_full_us)]);
    t.row(&[
        "speedup per estimate".into(),
        if deterministic {
            "-".into()
        } else {
            format!("{:.0}x", run.per_full_us / run.per_cached_us)
        },
    ]);
    t.row(&[
        "1M estimations, INUM".into(),
        if deterministic { "-".into() } else { format!("{:.1} s", run.per_cached_us) },
    ]);
    t.row(&[
        "1M estimations, full optimizer".into(),
        if deterministic { "-".into() } else { format!("{:.1} min", run.per_full_us / 60.0) },
    ]);
    let _ = writeln!(out, "\n{}", t.render());

    use parinda::Counter;
    let mut c = Table::new(&["pipeline counter", "total"]);
    for counter in [
        Counter::OptimizerInvocations,
        Counter::InumCacheHits,
        Counter::InumCacheMisses,
    ] {
        c.row(&[counter.name().into(), run.report.counter(counter).to_string()]);
    }
    let _ = writeln!(out, "traced counters (sequential run, deterministic):\n{}", c.render());
    out
}

/// One E4 measurement row: ILP vs greedy at a storage budget.
pub struct E4Row {
    pub budget_mb: u64,
    pub ilp_seconds: f64,
    pub greedy_seconds: f64,
    pub ilp_indexes: usize,
    pub greedy_indexes: usize,
    pub proven_optimal: bool,
}

/// Run the E4 budget sweep with tracing on; returns the rows and the
/// aggregated trace report.
pub fn e4_run() -> (Vec<E4Row>, parinda::TraceReport) {
    let mut session = paper_session();
    session.set_parallelism(Parallelism::fixed(1));
    let trace = Trace::recording();
    session.set_trace(trace.clone());
    let wl = workload();
    let mut rows = Vec::new();
    for mb in [400u64, 1200, 2120] {
        let budget = mb << 20;
        let t0 = Instant::now();
        let ilp = session.suggest_indexes(&wl, budget, SelectionMethod::Ilp).expect("ilp");
        let ilp_seconds = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let greedy =
            session.suggest_indexes(&wl, budget, SelectionMethod::Greedy).expect("greedy");
        let greedy_seconds = t0.elapsed().as_secs_f64();
        rows.push(E4Row {
            budget_mb: mb,
            ilp_seconds,
            greedy_seconds,
            ilp_indexes: ilp.indexes.len(),
            greedy_indexes: greedy.indexes.len(),
            proven_optimal: ilp.proven_optimal,
        });
    }
    (rows, trace.snapshot())
}

/// Minimal JSON string escaper (mirrors the one in `parinda-trace`).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Measurements behind E10: the 100k-statement scaling path — template
/// clustering, weighted INUM over the templates, the sparse benefit
/// matrix, and the warm-started branch-and-bound — end to end on one
/// core, plus a warm-start-off rerun for the node-count comparison.
pub struct E10Run {
    /// Raw statements in the generated stream.
    pub statements: usize,
    /// Templates surviving clustering.
    pub templates: usize,
    /// Statements that folded into an already-seen template.
    pub templates_merged: u64,
    /// `statements / templates`.
    pub compression_ratio: f64,
    /// Wall-clock of the whole advised run (cluster + INUM + ILP), one
    /// core.
    pub advise_seconds: f64,
    /// Materialized benefit-matrix nonzeros.
    pub matrix_nnz: u64,
    /// `templates × scored candidates` — what the dense matrix held.
    pub dense_cells: u64,
    /// Branch-and-bound nodes with the greedy incumbent seeded.
    pub solver_nodes_warm: u64,
    /// Branch-and-bound nodes with warm start disabled.
    pub solver_nodes_cold: u64,
    /// Nodes pruned against the incumbent in the warm run.
    pub pruned_by_incumbent: u64,
    /// Suggested indexes (identical in both runs — warm start never
    /// changes the design).
    pub indexes: usize,
    pub proven_optimal: bool,
    /// The `parinda-trace/v1` report of the warm (primary) run.
    pub report: parinda::TraceReport,
}

/// Run E10 once: a 100k-statement SDSS stream (seed 42), advised at
/// paper scale on one core, with and without the solver warm start.
pub fn e10_run() -> E10Run {
    e10_run_sized(100_000)
}

/// [`e10_run`] at an explicit stream size (the smoke tests use a smaller
/// stream; the artifact uses the full 100k).
pub fn e10_run_sized(statements: usize) -> E10Run {
    use parinda::Counter;
    let stream = parinda_workload::generate_sdss_stream(statements, 42);
    let mut session = paper_session();
    session.set_parallelism(Parallelism::fixed(1));
    let budget_bytes = session.catalog().total_size_bytes() / 5;

    let warm_trace = Trace::recording();
    session.set_trace(warm_trace.clone());
    let t0 = Instant::now();
    let (warm, compressed) = session
        .suggest_indexes_compressed(
            &stream,
            budget_bytes,
            SelectionMethod::Ilp,
            &IlpOptions::default(),
        )
        .expect("e10 advise (warm)");
    let advise_seconds = t0.elapsed().as_secs_f64();
    let warm_report = warm_trace.snapshot();

    let cold_trace = Trace::recording();
    session.set_trace(cold_trace.clone());
    let (cold, _) = session
        .suggest_indexes_compressed(
            &stream,
            budget_bytes,
            SelectionMethod::Ilp,
            &IlpOptions { warm_start: false, ..Default::default() },
        )
        .expect("e10 advise (cold)");
    let cold_report = cold_trace.snapshot();

    // The warm start only changes the work to prove the optimum, never
    // the optimum itself.
    let names = |s: &parinda::IndexSuggestion| -> Vec<String> {
        s.indexes.iter().map(|i| i.name.clone()).collect()
    };
    assert_eq!(names(&warm), names(&cold), "warm start changed the selected design");

    E10Run {
        statements,
        templates: compressed.len(),
        templates_merged: warm_report.counter(Counter::TemplatesMerged),
        compression_ratio: compressed.compression_ratio(),
        advise_seconds,
        matrix_nnz: warm_report.counter(Counter::MatrixNnz),
        dense_cells: compressed.len() as u64
            * warm_report.counter(Counter::CandidatesEvaluated),
        solver_nodes_warm: warm_report.counter(Counter::SolverNodes),
        solver_nodes_cold: cold_report.counter(Counter::SolverNodes),
        pruned_by_incumbent: warm_report.counter(Counter::BnbPrunedByIncumbent),
        indexes: warm.indexes.len(),
        proven_optimal: warm.proven_optimal,
        report: warm_report,
    }
}

/// E10 — scale: 100k statements advised within an interactive budget on
/// one core. In deterministic mode the timing cell renders `-`; every
/// other cell is a deterministic count.
pub fn e10_report(deterministic: bool) -> String {
    let mut out = banner(
        "E10  100k-statement workload: clustering + sparse ILP + warm start",
        "(scaling addition: interactive advising at production workload sizes)",
    );
    let run = e10_run();
    let mut t = Table::new(&["metric", "value"]);
    t.row(&["statements".into(), run.statements.to_string()]);
    t.row(&[
        "templates after clustering".into(),
        format!("{} ({:.0}x compression)", run.templates, run.compression_ratio),
    ]);
    t.row(&["benefit matrix nnz / dense".into(), {
        let pct = run.matrix_nnz as f64 / run.dense_cells.max(1) as f64 * 100.0;
        format!("{} / {} ({pct:.1}%)", run.matrix_nnz, run.dense_cells)
    }]);
    t.row(&[
        "B&B nodes warm / cold".into(),
        format!("{} / {}", run.solver_nodes_warm, run.solver_nodes_cold),
    ]);
    t.row(&["nodes pruned by incumbent".into(), run.pruned_by_incumbent.to_string()]);
    t.row(&["suggested indexes".into(), run.indexes.to_string()]);
    t.row(&[
        "proven optimal".into(),
        if run.proven_optimal { "yes".into() } else { "no".into() },
    ]);
    t.row(&[
        "end-to-end advise (1 core)".into(),
        if deterministic { "-".into() } else { format!("{:.2} s", run.advise_seconds) },
    ]);
    let _ = writeln!(out, "\n{}", t.render());
    out
}

/// Build the `BENCH_e3_e4.json` artifact: E3 + E4 timings, the
/// deterministic counter totals, and the embedded `parinda-trace/v1`
/// profile of the whole measurement run. Schema: `parinda-bench/e3e4/v1`
/// (documented in EXPERIMENTS.md).
pub fn e3_e4_json() -> String {
    let e3 = e3_run();
    let (e4_rows, e4_report) = e4_run();
    let mut combined = e3.report.clone();
    combined.merge(&e4_report);

    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"parinda-bench/e3e4/v1\",\n");
    let _ = write!(
        out,
        "  \"e3\": {{\n    \"build_seconds\": {:.6},\n    \"per_estimate_inum_us\": {:.4},\n    \"per_estimate_full_us\": {:.4},\n    \"cached_estimates\": {},\n    \"full_optimizations\": {}\n  }},\n",
        e3.build.as_secs_f64(),
        e3.per_cached_us,
        e3.per_full_us,
        e3.n_cached,
        e3.n_full
    );
    out.push_str("  \"e4\": [\n");
    for (i, r) in e4_rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"budget_mb\": {}, \"ilp_seconds\": {:.6}, \"greedy_seconds\": {:.6}, \"ilp_indexes\": {}, \"greedy_indexes\": {}, \"proven_optimal\": {}}}{}\n",
            r.budget_mb,
            r.ilp_seconds,
            r.greedy_seconds,
            r.ilp_indexes,
            r.greedy_indexes,
            r.proven_optimal,
            if i + 1 < e4_rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": {\n");
    let n = combined.counters.len();
    for (i, (name, v)) in combined.counters.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {}{}\n",
            json_escape(name),
            v,
            if i + 1 < n { "," } else { "" }
        );
    }
    out.push_str("  },\n");
    // embed the full profile, indented under "trace"
    let profile = combined.to_json();
    let indented: String = profile
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 0 { format!("  \"trace\": {l}\n") } else { format!("  {l}\n") })
        .collect();
    out.push_str(indented.trim_end_matches('\n'));
    out.push_str("\n}\n");
    out
}

/// Build the `BENCH_e10.json` artifact: the 100k-statement scaling run
/// with the counter totals and the embedded `parinda-trace/v1` profile.
/// Schema: `parinda-bench/e10/v1` (documented in EXPERIMENTS.md).
pub fn e10_json() -> String {
    let r = e10_run();
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"parinda-bench/e10/v1\",\n");
    let _ = write!(
        out,
        "  \"statements\": {},\n  \"templates\": {},\n  \"templates_merged\": {},\n  \"compression_ratio\": {:.4},\n  \"advise_seconds\": {:.6},\n  \"matrix_nnz\": {},\n  \"dense_cells\": {},\n  \"nnz_fraction\": {:.6},\n  \"solver_nodes_warm\": {},\n  \"solver_nodes_cold\": {},\n  \"bnb_pruned_by_incumbent\": {},\n  \"indexes\": {},\n  \"proven_optimal\": {},\n",
        r.statements,
        r.templates,
        r.templates_merged,
        r.compression_ratio,
        r.advise_seconds,
        r.matrix_nnz,
        r.dense_cells,
        r.matrix_nnz as f64 / r.dense_cells.max(1) as f64,
        r.solver_nodes_warm,
        r.solver_nodes_cold,
        r.pruned_by_incumbent,
        r.indexes,
        r.proven_optimal,
    );
    out.push_str("  \"counters\": {\n");
    let n = r.report.counters.len();
    for (i, (name, v)) in r.report.counters.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {}{}\n",
            json_escape(name),
            v,
            if i + 1 < n { "," } else { "" }
        );
    }
    out.push_str("  },\n");
    let profile = r.report.to_json();
    let indented: String = profile
        .lines()
        .enumerate()
        .map(|(i, l)| if i == 0 { format!("  \"trace\": {l}\n") } else { format!("  {l}\n") })
        .collect();
    out.push_str(indented.trim_end_matches('\n'));
    out.push_str("\n}\n");
    out
}

/// One machine-readable experiment artifact.
pub struct JsonBench {
    /// Subcommand name (`experiments json <name>`).
    pub name: &'static str,
    /// Default artifact filename.
    pub artifact: &'static str,
    /// Generator producing the artifact's JSON text.
    pub generate: fn() -> String,
}

/// Every experiment with a machine-readable artifact. The binary's
/// `json` subcommand walks this registry — a new bench slots in here
/// without another special case.
pub const JSON_BENCHES: &[JsonBench] = &[
    JsonBench { name: "e3e4", artifact: "BENCH_e3_e4.json", generate: e3_e4_json },
    JsonBench { name: "e10", artifact: "BENCH_e10.json", generate: e10_json },
];
