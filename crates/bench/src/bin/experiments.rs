//! Experiment harness: regenerates every quantitative artifact of the
//! paper (DESIGN.md experiment index E1–E7). Each experiment prints the
//! paper's claim next to the measured/simulated result.
//!
//! ```text
//! cargo run --release -p parinda-bench --bin experiments -- all
//! cargo run --release -p parinda-bench --bin experiments -- e3
//! ```

use std::time::Instant;

use parinda::{verify_whatif_index, AutoPartConfig, SelectionMethod, WhatIfIndex};
use parinda_bench::experiments;
use parinda_bench::{execute_workload, laptop_session, paper_session, workload, Table};
use parinda_catalog::MetadataProvider;
use parinda_inum::{CandidateIndex, Configuration, InumModel};
use parinda_optimizer::CostParams;
use parinda_whatif::{simulate_index, HypotheticalCatalog};
use parinda_workload::generate_queries;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match arg.as_str() {
        "e1" => e1_workload_speedup(),
        "e2" => e2_whatif_vs_materialize(),
        "e3" => e3_inum_speedup(),
        "e4" => e4_ilp_vs_greedy(),
        "e5" => e5_size_accuracy(),
        "e6" => e6_autopart(),
        "e7" => e7_interactive(),
        "e8" => e8_parallel_scaling(),
        "e10" => e10_scaling(),
        "a1" => a1_inum_ablation(),
        "json" => {
            // Registry-driven: every machine-readable artifact lives in
            // experiments::JSON_BENCHES; `json` / `json all` emits them
            // all, `json <name> [path]` emits one.
            let which = std::env::args().nth(2).unwrap_or_else(|| "all".into());
            let selected: Vec<&experiments::JsonBench> = if which == "all" {
                experiments::JSON_BENCHES.iter().collect()
            } else if let Some(b) = experiments::JSON_BENCHES.iter().find(|b| b.name == which) {
                vec![b]
            } else {
                let names: Vec<&str> =
                    experiments::JSON_BENCHES.iter().map(|b| b.name).collect();
                eprintln!("unknown json bench `{which}`; use {}, or all", names.join(", "));
                std::process::exit(1);
            };
            let path_override = std::env::args().nth(3);
            for b in &selected {
                let path = match (&path_override, selected.len()) {
                    (Some(p), 1) => p.clone(),
                    _ => b.artifact.to_string(),
                };
                std::fs::write(&path, (b.generate)()).expect("write json artifact");
                println!("wrote {path}");
            }
        }
        "all" => {
            e1_workload_speedup();
            e2_whatif_vs_materialize();
            e3_inum_speedup();
            e4_ilp_vs_greedy();
            e5_size_accuracy();
            e6_autopart();
            e7_interactive();
            e8_parallel_scaling();
            e10_scaling();
            a1_inum_ablation();
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; use e1..e8, e10, a1, json [name|all] [path], or all"
            );
            std::process::exit(1);
        }
    }
}

fn banner(id: &str, claim: &str) {
    println!("\n==========================================================================");
    println!("{id}");
    println!("paper claim: {claim}");
    println!("==========================================================================");
}

/// Budget-degraded advisor cells are starred so a run under an advisor
/// budget cannot be mistaken for the exhaustive search result.
fn star(degraded: bool) -> &'static str {
    if degraded {
        "*"
    } else {
        ""
    }
}

/// Print the footnote explaining starred cells, if any row had one.
fn degraded_footnote(any: bool) {
    if any {
        println!("  * budget-degraded: best-so-far under the advisor budget, not the full search");
    }
}

/// E1 — "Using these techniques on analytical queries, we achieve speedups
/// ranging from 2x to 10x" (§1). Suggested partitions + indexes, estimated
/// at paper scale and *measured by execution* at laptop scale.
fn e1_workload_speedup() {
    // --- estimated, paper scale, per budget (shared with the golden
    // tests via the library; banner included) ---
    print!("{}", experiments::e1_report(false));

    // --- measured, laptop scale ---
    let (mut session, _) = laptop_session(20_000, 1);
    let wl = workload();
    let before = {
        let t0 = Instant::now();
        let rows = execute_workload(&session, &wl);
        (t0.elapsed(), rows)
    };
    let parts = session
        .suggest_partitions(&wl, AutoPartConfig::default())
        .expect("autopart");
    session.materialize_partitions(&parts).expect("partition build");
    let budget = session.catalog().total_size_bytes() / 5;
    let idx = session.suggest_indexes(&wl, budget, SelectionMethod::Ilp).expect("advisor");
    session.materialize_indexes(&idx).expect("index build");
    // execute the rewritten workload (queries now target fragments where
    // beneficial) against the new design
    let after = {
        let t0 = Instant::now();
        let rows = execute_workload(&session, &parts.rewritten);
        (t0.elapsed(), rows)
    };
    println!("measured (real execution, 20k-row laptop instance):");
    println!("  before: {:?} ({} rows)", before.0, before.1);
    println!("  after:  {:?} ({} rows)", after.0, after.1);
    println!(
        "  measured speedup: {:.2}x   [paper: 2x-10x]",
        before.0.as_secs_f64() / after.0.as_secs_f64()
    );
}

/// E2 — what-if simulation is "orders of magnitude faster" than building
/// the features (§1, §3.2).
fn e2_whatif_vs_materialize() {
    banner(
        "E2  what-if simulation vs physically building design features",
        "simulation is orders of magnitude faster",
    );
    let mut t = Table::new(&["# indexes", "simulate", "build", "ratio"]);
    for n in [1usize, 4, 16] {
        let (mut session, _) = laptop_session(20_000, 2);
        let photo = session.catalog().table_by_name("photoobj").unwrap().clone();
        // n distinct single-column indexes over photometric columns
        let cols: Vec<String> = photo
            .columns
            .iter()
            .skip(30)
            .take(n)
            .map(|c| c.name.clone())
            .collect();

        let t0 = Instant::now();
        let mut overlay = HypotheticalCatalog::new(session.catalog());
        for c in &cols {
            simulate_index(&mut overlay, &WhatIfIndex::new(format!("w_{c}"), "photoobj", &[c]))
                .expect("simulation");
        }
        let sim = t0.elapsed();
        drop(overlay);

        let t0 = Instant::now();
        for c in &cols {
            let id = session
                .catalog_mut()
                .create_index(&format!("b_{c}"), "photoobj", &[c])
                .expect("create");
            let (cat, db) = session.catalog_db_mut();
            db.build_index(cat, id);
        }
        let build = t0.elapsed();

        t.row(&[
            n.to_string(),
            format!("{sim:?}"),
            format!("{build:?}"),
            format!("{:.0}x", build.as_secs_f64() / sim.as_secs_f64().max(1e-9)),
        ]);
    }
    println!("\n{}", t.render());
}

/// E3 — INUM estimates "costs of millions of physical designs in the order
/// of minutes instead of days" (§3.4).
fn e3_inum_speedup() {
    print!("{}", experiments::e3_report(false));
}

/// E4 — "Typically ILP outperforms the greedy algorithms on workloads
/// containing a large number of queries" (§3.4).
///
/// Two baselines: the classic single-pass greedy ("greedy heuristic" of
/// the commercial tools — benefits computed once, interactions ignored)
/// and a stronger adaptive greedy that re-evaluates marginal benefits.
/// The ILP beats the classic greedy by ~10% at tight budgets and edges
/// out even the adaptive one at budget boundaries, while additionally
/// *proving* optimality.
fn e4_ilp_vs_greedy() {
    banner(
        "E4  ILP vs greedy index selection",
        "ILP outperforms greedy on large workloads",
    );
    use parinda_advisor::{
        generate_candidates, select_indexes_greedy, select_indexes_greedy_static,
        select_indexes_ilp_with, CandidateLimits, IlpOptions, SolverConstraints,
    };
    use parinda_parallel::Budget;
    let session = paper_session();
    let wl = workload();
    let cands = {
        let m = InumModel::build(session.catalog(), &wl, CostParams::default()).unwrap();
        generate_candidates(m.queries(), CandidateLimits::default())
    };

    // (a) budget sweep on the 30-query SDSS workload
    let mut t = Table::new(&[
        "budget",
        "ilp cost",
        "greedy(adaptive)",
        "greedy(classic)",
        "ilp vs adaptive",
        "ilp vs classic",
    ]);
    for mb in [400u64, 800, 1200, 1800, 2120] {
        let budget = mb * 1024 * 1024;
        let mut m1 = InumModel::build(session.catalog(), &wl, CostParams::default()).unwrap();
        let ilp = select_indexes_ilp_with(&mut m1, &cands, budget, &IlpOptions::default());
        let mut m2 = InumModel::build(session.catalog(), &wl, CostParams::default()).unwrap();
        let ga = select_indexes_greedy(
            &mut m2,
            &cands,
            budget,
            &Budget::unlimited(),
            &SolverConstraints::none(),
        );
        let mut m3 = InumModel::build(session.catalog(), &wl, CostParams::default()).unwrap();
        let gc = select_indexes_greedy_static(&mut m3, &cands, budget);
        let gap = |g: f64| (g - ilp.cost_after) / g * 100.0;
        t.row(&[
            format!("{mb} MB"),
            format!("{:.0}", ilp.cost_after),
            format!("{:.0}", ga.cost_after),
            format!("{:.0}", gc.cost_after),
            format!("+{:.2}%", gap(ga.cost_after)),
            format!("+{:.2}%", gap(gc.cost_after)),
        ]);
    }
    println!("\nquality, SDSS-30 (lower cost is better; +x% = greedy worse than ILP):");
    println!("{}", t.render());

    // (b) workload-size sweep: selection runtime
    let mut t = Table::new(&["queries", "ilp time", "greedy time", "ilp proven optimal"]);
    let mut any_degraded = false;
    for n in [5usize, 15, 30, 60, 120] {
        let wl = generate_queries(n, 42);
        let budget = session.catalog().total_size_bytes() / 10;
        let t0 = Instant::now();
        let sel = session.suggest_indexes(&wl, budget, SelectionMethod::Ilp).expect("ilp");
        let ilp_t = t0.elapsed();
        let t0 = Instant::now();
        session
            .suggest_indexes(&wl, budget, SelectionMethod::Greedy)
            .expect("greedy");
        let greedy_t = t0.elapsed();
        any_degraded |= sel.degraded;
        t.row(&[
            n.to_string(),
            format!("{ilp_t:.2?}"),
            format!("{greedy_t:.2?}"),
            format!("{}{}", if sel.proven_optimal { "yes" } else { "no" }, star(sel.degraded)),
        ]);
    }
    println!("search runtime, generated workloads:");
    println!("{}", t.render());
    degraded_footnote(any_degraded);
}

/// E5 — Equation 1 accuracy: estimated vs measured index leaf pages.
fn e5_size_accuracy() {
    banner(
        "E5  Equation-1 index sizing vs built B-trees",
        "o=24, B=8192, leaf pages only; accurate enough for relative sizes",
    );
    let (mut session, _) = laptop_session(30_000, 3);
    let shapes: Vec<(&str, Vec<&str>)> = vec![
        ("photoobj", vec!["objid"]),
        ("photoobj", vec!["ra"]),
        ("photoobj", vec!["type"]),
        ("photoobj", vec!["run", "camcol", "field"]),
        ("photoobj", vec!["type", "modelmag_r"]),
        ("specobj", vec!["bestobjid"]),
        ("specobj", vec!["z"]),
        ("neighbors", vec!["objid", "distance"]),
    ];
    let mut t = Table::new(&["index", "estimated pages", "measured pages", "error"]);
    for (i, (table, cols)) in shapes.iter().enumerate() {
        let mut overlay = HypotheticalCatalog::new(session.catalog());
        let def = WhatIfIndex::new(format!("w{i}"), *table, cols);
        let id = simulate_index(&mut overlay, &def).expect("simulate");
        let est = overlay.hypo_index(id).unwrap().pages;
        drop(overlay);

        let rid = session
            .catalog_mut()
            .create_index(&format!("m{i}"), table, cols)
            .expect("create");
        let (cat, db) = session.catalog_db_mut();
        db.build_index(cat, rid);
        let measured = session.catalog().index(rid).unwrap().pages;
        let err = (est as f64 - measured as f64) / measured as f64 * 100.0;
        t.row(&[
            format!("{table}({})", cols.join(",")),
            est.to_string(),
            measured.to_string(),
            format!("{err:+.1}%"),
        ]);
    }
    println!("\n{}", t.render());
}

/// E6 — AutoPart improves workload cost under replication constraints and
/// converges (§3.3).
fn e6_autopart() {
    banner(
        "E6  AutoPart partition suggestion vs replication budget",
        "optimal partitions under DBA space constraints; queries rewritten",
    );
    let session = paper_session();
    let wl = workload();
    let base = session.catalog().total_size_bytes();
    let mut t = Table::new(&["replication budget", "fragments", "iterations", "est. speedup", "rewritten queries"]);
    let mut any_degraded = false;
    for frac in [0.0f64, 0.1, 0.25, 0.5] {
        let cfg = AutoPartConfig {
            replication_limit_bytes: (base as f64 * frac) as i64,
            ..Default::default()
        };
        let sugg = session.suggest_partitions(&wl, cfg).expect("autopart");
        let rewritten = wl
            .iter()
            .zip(&sugg.rewritten)
            .filter(|(a, b)| a != b)
            .count();
        any_degraded |= sugg.degraded;
        t.row(&[
            format!("{:.0}%", frac * 100.0),
            format!("{}{}", sugg.partitions.len(), star(sugg.degraded)),
            format!("{}{}", sugg.iterations, star(sugg.degraded)),
            format!("{:.2}x", sugg.report.speedup()),
            format!("{rewritten}/30"),
        ]);
    }
    println!("\n{}", t.render());
    degraded_footnote(any_degraded);
}

/// E7 — scenario 1 verification: what-if estimates vs materialized reality.
fn e7_interactive() {
    banner(
        "E7  interactive what-if accuracy verification",
        "what-if plan matches the materialized plan; simulation verified",
    );
    let (mut session, _) = laptop_session(20_000, 4);
    let probes = [
        ("SELECT ra, dec FROM photoobj WHERE objid = 777", ("photoobj", vec!["objid"])),
        (
            "SELECT objid FROM photoobj WHERE ra BETWEEN 10.0 AND 10.4",
            ("photoobj", vec!["ra"]),
        ),
        (
            "SELECT specobjid FROM specobj WHERE z BETWEEN 0.1 AND 0.11",
            ("specobj", vec!["z"]),
        ),
    ];
    let mut t = Table::new(&[
        "query",
        "what-if cost",
        "real cost",
        "same plan",
        "size error",
    ]);
    for (i, (sql, (table, cols))) in probes.iter().enumerate() {
        let sel = parinda::parse_select(sql).unwrap();
        let def = WhatIfIndex::new(format!("w{i}"), *table, cols);
        let v = verify_whatif_index(&mut session, &sel, &def).expect("verify");
        t.row(&[
            format!("Q{}", i + 1),
            format!("{:.2}", v.whatif_cost),
            format!("{:.2}", v.materialized_cost),
            if v.same_access_path { "yes".into() } else { "NO".into() },
            format!("{:.1}%", v.size_error() * 100.0),
        ]);
    }
    println!("\n{}", t.render());
}

/// E8 — parallel evaluation-engine scaling: the three hot paths (INUM
/// cache build, ILP advising, AutoPart) at 1/2/4/8 threads, with the
/// advisor output checked byte-identical to the single-thread run first.
fn e8_parallel_scaling() {
    banner(
        "E8  parallel evaluation-engine scaling",
        "(engineering addition: identical designs, lower wall-clock on multicore)",
    );
    use parinda::{Budget, Parallelism, Trace};
    use parinda_inum::InumOptions;

    let wl = workload();
    let threads = [1usize, 2, 4, 8];
    println!(
        "machine reports {} available thread(s); PARINDA_THREADS overrides\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );

    // Correctness gate before any timing: same design at every count.
    let reference: Vec<String> = {
        let mut s = paper_session();
        s.set_parallelism(Parallelism::fixed(1));
        let sugg = s.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).unwrap();
        sugg.indexes.iter().map(|i| i.name.clone()).collect()
    };

    let mut t = Table::new(&["threads", "inum build", "ilp advising", "autopart", "identical"]);
    let mut base_times: Option<(f64, f64, f64)> = None;
    for &n in &threads {
        let par = Parallelism::fixed(n);
        let mut session = paper_session();
        session.set_parallelism(par);

        let t0 = Instant::now();
        let reps = 5;
        for _ in 0..reps {
            InumModel::build_weighted_traced(
                session.catalog(),
                &wl,
                &vec![1.0; wl.len()],
                CostParams::default(),
                InumOptions::default(),
                par,
                &Budget::unlimited(),
                Trace::disabled(),
            )
            .unwrap();
        }
        let build = t0.elapsed().as_secs_f64() / reps as f64;

        let t0 = Instant::now();
        let sugg = session.suggest_indexes(&wl, 2_u64 << 30, SelectionMethod::Ilp).unwrap();
        let ilp = t0.elapsed().as_secs_f64();
        let names: Vec<String> = sugg.indexes.iter().map(|i| i.name.clone()).collect();

        let t0 = Instant::now();
        session.suggest_partitions(&wl, AutoPartConfig::default()).unwrap();
        let autopart = t0.elapsed().as_secs_f64();

        let (b0, i0, a0) = *base_times.get_or_insert((build, ilp, autopart));
        t.row(&[
            format!("{n}"),
            format!("{:.1} ms ({:.2}x)", build * 1e3, b0 / build),
            format!("{:.1} ms ({:.2}x)", ilp * 1e3, i0 / ilp),
            format!("{:.2} s ({:.2}x)", autopart, a0 / autopart),
            if names == reference { "yes".into() } else { "NO".into() },
        ]);
        assert_eq!(names, reference, "parallel advising changed the design");
    }
    println!("\n{}", t.render());
}

/// E10 — 100k-statement scaling: template clustering + sparse benefit
/// matrix + warm-started branch-and-bound, end to end on one core.
fn e10_scaling() {
    print!("{}", experiments::e10_report(false));
}

/// A1 — ablation: how much of INUM's accuracy comes from caching multiple
/// interesting-order cases and the nested-loop on/off pair (§3.2/§3.4)?
/// A one-case cache is faster to build but over-estimates configuration
/// costs whenever the optimal plan shape changes with the configuration.
fn a1_inum_ablation() {
    banner(
        "A1  ablation: INUM cache richness vs estimate accuracy",
        "(design-choice ablation; no direct paper table)",
    );
    use parinda::{Budget, Parallelism, Trace};
    use parinda_inum::InumOptions;
    let session = paper_session();
    let wl = workload();
    let photo = session.catalog().table_by_name("photoobj").unwrap().id;
    let spec = session.catalog().table_by_name("specobj").unwrap().id;

    let variants: [(&str, InumOptions); 3] = [
        ("full cache (orders × NL pair)", InumOptions::default()),
        (
            "no NL pair",
            InumOptions { join_scenario_pairs: false, ..Default::default() },
        ),
        (
            "single case (no orders, no pair)",
            InumOptions { max_cases_per_query: 1, join_scenario_pairs: false },
        ),
    ];

    let mut t = Table::new(&["variant", "build time", "mean err", "worst err"]);
    for (name, opts) in variants {
        let t0 = Instant::now();
        let mut model = InumModel::build_weighted_traced(
            session.catalog(),
            &wl,
            &vec![1.0; wl.len()],
            CostParams::default(),
            opts,
            Parallelism::auto(),
            &Budget::unlimited(),
            Trace::disabled(),
        )
        .unwrap();
        let build = t0.elapsed();

        let cands: Vec<_> = [
            (photo, vec![0usize]),
            (photo, vec![14]),
            (photo, vec![9]),
            (spec, vec![1]),
            (spec, vec![5]),
        ]
        .into_iter()
        .map(|(tb, cols)| model.register_candidate(CandidateIndex::new(tb, cols)))
        .collect();

        let mut worst = 1.0f64;
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for mask in 0..32u32 {
            let cfg = Configuration::from_ids(
                cands
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &id)| id),
            );
            for qi in 0..wl.len() {
                let est = model.cost(qi, &cfg);
                let exact = model.exact_cost(qi, &cfg);
                if exact > 0.0 && est.is_finite() {
                    let ratio = (est / exact).max(exact / est);
                    worst = worst.max(ratio);
                    sum += ratio;
                    count += 1;
                }
            }
        }
        t.row(&[
            name.to_string(),
            format!("{build:.2?}"),
            format!("{:.3}x", sum / count as f64),
            format!("{worst:.2}x"),
        ]);
    }
    println!("\n{}", t.render());
}
