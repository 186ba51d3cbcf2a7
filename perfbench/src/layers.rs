//! The traced run (`--trace 1`): the benchmark calls each layer's public
//! functions itself, on the workload's own inputs, and times every call.
//! Nothing inside the program is instrumented beyond its existing
//! `parinda-trace` counters, which are read to count work and
//! cross-checked against the benchmark's own counts.
//!
//! Every workload walks every layer, so each per-layer metric exists on
//! each workload: the layer a workload stresses does heavy work there,
//! the others do a little (AutoPart is capped at a few rounds outside
//! `dba-autopart`; the WAL replays whatever the session would journal).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use parinda::{
    AutoPartConfig, Catalog, Console, ConsoleReply, Counter, Design, IlpOptions, Parinda, Select,
    SelectionMethod, SharedEngine, Trace, TraceReport,
};
use parinda_advisor::{generate_candidates, select_indexes_ilp_with, CandidateLimits};
use parinda_inum::{Configuration, InumModel, InumOptions};
use parinda_optimizer::{bind, plan_query, CostParams, PlannerFlags};
use parinda_parallel::{Budget, Parallelism};
use parinda_stream::StreamAccumulator;
use parinda_wal::{DataDir, Record};
use parinda_workload::{compress_workload_traced, Workload, WorkloadEntry};

use crate::daemon::{self, Client};
use crate::library::{self, fresh_session};
use crate::stats::{ms, us, Rng, Samples};
use crate::{Args, Report, Workload as Which, ADVISOR_THREADS};

/// AutoPart rounds outside `dba-autopart`, where the layer is light.
const LIGHT_AUTOPART_ROUNDS: usize = 2;
/// Snapshot cadence of the WAL replay: the daemon's shipped policy.
const SNAPSHOT_EVERY: u64 = 256;
/// Console `feed` calls timed per walk.
const CONSOLE_FEEDS: usize = 5_000;
/// Read requests timed over the wire and in-process per walk.
const SERVER_READS: usize = 400;
/// INUM configurations costed per walk.
const INUM_CONFIGS: usize = 64;

/// One workload's inputs to the layer walk.
struct Inputs {
    catalog: fn() -> Catalog,
    /// Raw statements, in arrival order.
    statements: Vec<String>,
    /// What-if designs (seeded).
    designs: Vec<Design>,
    /// Full AutoPart (`None`) or a round cap.
    autopart_rounds: Option<usize>,
    budget_pct: u64,
    /// Console lines that set the session up (journaled when durable).
    console_setup: Vec<String>,
    /// Read lines for the console/server comparison.
    console_reads: Vec<String>,
    /// What a durable daemon journals for this session.
    journal: Vec<String>,
    epoch_every: usize,
}

/// Per-layer values of one walk.
type Walk = BTreeMap<&'static str, f64>;

fn span(r: &TraceReport, path: &str) -> (u64, f64) {
    r.spans
        .get(path)
        .map(|s| (s.count, s.total_ns as f64 / 1e6))
        .unwrap_or((0, 0.0))
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// A named mismatch between the program's counters and the benchmark's
/// own count: printed once per run, never failed on.
fn gap(report: &mut Report, name: &str, program: u64, bench: u64, why: &str) {
    let line =
        format!("known gap {name}: program counts {program}, benchmark counts {bench} ({why})");
    if program != bench && !report.lines.contains(&line) {
        report.note(line);
    }
}

/// Console lines staging the first design.
fn whatif_lines(designs: &[Design]) -> Vec<String> {
    let d = &designs[0];
    let mut out: Vec<String> = d
        .indexes
        .iter()
        .map(|i| {
            format!(
                "whatif index {} {} {}",
                i.name,
                i.table,
                i.columns.join(",")
            )
        })
        .collect();
    out.extend(d.partitions.iter().map(|p| {
        format!(
            "whatif partition {} {} {}",
            p.name,
            p.table,
            p.columns.join(",")
        )
    }));
    out
}

fn inputs(args: &Args, dir: &Path) -> Inputs {
    match args.workload {
        Which::TextIngest | Which::DbaSession | Which::DbaAutopart => {
            let cat = library::paper_catalog();
            let (statements, autopart_rounds, budget_pct) = if args.workload == Which::TextIngest {
                let seed = library::stream_seed(args.seed, 0);
                let stream =
                    parinda_workload::generate_sdss_stream(library::STREAM_STATEMENTS, seed);
                let st: Vec<String> = stream.entries.iter().map(|e| e.query.to_string()).collect();
                (st, Some(LIGHT_AUTOPART_ROUNDS), library::INGEST_BUDGET_PCT)
            } else {
                let st = parinda_workload::sdss_workload_sql()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let rounds = (args.workload == Which::DbaSession).then_some(LIGHT_AUTOPART_ROUNDS);
                (st, rounds, 20)
            };
            let parsed: Vec<Select> = statements
                .iter()
                .map(|s| parinda_sql::parse_select(s).expect("generated SQL parses"))
                .collect();
            let compressed = parinda_workload::compress_workload(&as_workload(parsed));
            let templates = compressed.queries();
            let file = dir.join("templates.sql");
            let text: String = templates.iter().map(|q| format!("{q};\n")).collect();
            std::fs::write(&file, text).expect("the run directory is writable");
            let designs = library::draw_designs(args.seed, &cat, &templates, 16);
            let mut console_setup = vec![format!("workload file {}", file.display())];
            console_setup.extend(whatif_lines(&designs));
            let console_reads = templates
                .iter()
                .flat_map(|q| [format!("explain {q}"), "eval".to_string()])
                .collect();
            Inputs {
                catalog: library::paper_catalog,
                statements,
                designs,
                autopart_rounds,
                budget_pct,
                journal: console_setup.clone(),
                console_setup,
                console_reads,
                epoch_every: daemon::EPOCH_EVERY,
            }
        }
        Which::DaemonEphemeral | Which::DaemonDurable => {
            let t = daemon::traffic(args.seed, dir);
            let (setup, reads) = daemon::dba_lines(&t);
            let cat = drift_catalog();
            let parsed: Vec<Select> = t
                .dba_statements
                .iter()
                .map(|s| parinda_sql::parse_select(s).expect("drift SQL parses"))
                .collect();
            let designs = library::draw_designs(args.seed, &cat, &parsed, 16);
            let mut journal = daemon::stream_lines(&t);
            journal.extend(setup.iter().cloned());
            Inputs {
                catalog: drift_catalog,
                statements: t.statements,
                designs,
                autopart_rounds: Some(LIGHT_AUTOPART_ROUNDS),
                budget_pct: 20,
                console_setup: setup,
                console_reads: reads,
                journal,
                epoch_every: daemon::EPOCH_EVERY,
            }
        }
    }
}

fn drift_catalog() -> Catalog {
    daemon::engine().catalog().clone()
}

fn as_workload(queries: Vec<Select>) -> Workload {
    Workload {
        entries: queries
            .into_iter()
            .map(|query| WorkloadEntry { query, weight: 1.0 })
            .collect(),
    }
}

/// Time `f` `n` times untraced and `n` times traced, alternating; returns
/// the traced median over the untraced one, minus one.
fn overhead(n: usize, mut f: impl FnMut(Trace)) -> f64 {
    let mut off = Samples::new();
    let mut on = Samples::new();
    for i in 0..2 * n {
        // alternate which side runs first, so warm-up favours neither
        let traced = (i % 2 == 0) == (i / 2 % 2 == 0);
        let t0 = Instant::now();
        f(if traced {
            Trace::recording()
        } else {
            Trace::disabled()
        });
        if traced {
            on.push(ms(t0))
        } else {
            off.push(ms(t0))
        }
    }
    on.median() / off.median() - 1.0
}

fn console_over(session: Parinda, setup: &[String], report: &mut Report) -> Console {
    let mut c = Console::with_session(session);
    for line in setup {
        let ok = matches!(c.run_line(line), ConsoleReply::Output(_));
        report.check(ok, || format!("console: {line}"));
    }
    c
}

/// One walk over every layer.
fn walk(args: &Args, inp: &Inputs, dir: &Path, report: &mut Report) -> Walk {
    let mut m = Walk::new();

    // catalog
    let t0 = Instant::now();
    let cat = (inp.catalog)();
    m.insert("catalog.build_ms", ms(t0));
    let par = Parallelism::fixed(ADVISOR_THREADS);
    let params = CostParams::default();
    let flags = PlannerFlags::default();

    // sql
    let t0 = Instant::now();
    let mut parsed = Vec::with_capacity(inp.statements.len());
    for s in &inp.statements {
        match parinda_sql::parse_select(s) {
            Ok(q) => parsed.push(q),
            Err(e) => report.check(false, || format!("parse: {e}")),
        }
    }
    let parse_ms = ms(t0);
    m.insert("sql.parse_us", parse_ms * 1e3 / inp.statements.len() as f64);

    // workload
    let trace = Trace::recording();
    let t0 = Instant::now();
    let compressed = compress_workload_traced(&as_workload(parsed), &trace);
    let cluster_ms = ms(t0);
    let merged = trace.snapshot().counter(Counter::TemplatesMerged);
    gap(
        report,
        "statements_clustered",
        merged + compressed.len() as u64,
        inp.statements.len() as u64,
        "templates_merged + templates vs statements parsed",
    );
    let templates = compressed.queries();
    let weights = compressed.weights();
    m.insert("workload.cluster_ms", cluster_ms);
    m.insert("workload.templates", compressed.len() as f64);
    m.insert("workload.compression_ratio", compressed.compression_ratio());

    // optimizer: the benchmark's own plan calls, then the same calls
    // through a traced session, whose counter should agree
    let t0 = Instant::now();
    for q in &templates {
        let planned = bind(q, &cat)
            .map_err(|e| e.to_string())
            .and_then(|b| plan_query(&b, &cat, &params, &flags).map_err(|e| e.to_string()));
        if let Err(e) = planned {
            report.check(false, || format!("plan: {e}"));
        }
    }
    m.insert("optimizer.plan_us", us(t0) / templates.len() as f64);
    let mut session = fresh_session(&cat);
    session.set_trace(Trace::recording());
    let ok = session.workload_cost(&templates).is_ok();
    report.check(ok, || "workload cost".into());
    gap(
        report,
        "optimizer_invocations_workload_cost",
        session
            .trace()
            .snapshot()
            .counter(Counter::OptimizerInvocations),
        templates.len() as u64,
        "plan calls of Parinda::workload_cost",
    );
    session.set_trace(Trace::disabled());

    // whatif, directly and through the session (core overhead: the
    // median over designs of each design's session-minus-direct time)
    let mut direct = Samples::new();
    let mut core_overhead = Samples::new();
    for (i, d) in inp.designs.iter().take(16).enumerate() {
        let t0 = Instant::now();
        let planned = d.apply(&cat).map(|overlay| {
            templates
                .iter()
                .filter(|q| {
                    bind(q, &overlay)
                        .is_ok_and(|b| plan_query(&b, &overlay, &params, &flags).is_ok())
                })
                .count()
        });
        direct.push(ms(t0));
        report.check(planned.is_ok_and(|n| n == templates.len()), || {
            "planning on the what-if overlay".into()
        });
        // alternate which call runs first, so warm-up favours neither
        let mut calls = [None, None];
        let mut took = [0.0; 2];
        for k in [i % 2, 1 - i % 2] {
            let t0 = Instant::now();
            calls[k] = Some(if k == 0 {
                parinda::interactive::evaluate_design(&cat, &params, &flags, &templates, d)
            } else {
                session.evaluate_design(&templates, d)
            });
            took[k] = us(t0);
        }
        core_overhead.push(took[1] - took[0]);
        let same = match calls {
            [Some(Ok((a, _))), Some(Ok((b, _)))] => {
                a.total_after().to_bits() == b.total_after().to_bits()
            }
            _ => false,
        };
        report.check(same, || {
            "session what-if differs from the direct call".into()
        });
    }
    m.insert("whatif.evaluate_ms", direct.median());
    m.insert("core.overhead_us", core_overhead.median());

    // inum
    let trace = Trace::recording();
    let t0 = Instant::now();
    let built = InumModel::build_weighted_traced(
        &cat,
        &templates,
        &weights,
        params.clone(),
        InumOptions::default(),
        par,
        &Budget::unlimited(),
        trace.clone(),
    );
    m.insert("inum.build_ms", ms(t0));
    let mut model = match built {
        Ok(model) => model,
        Err(e) => {
            report.check(false, || format!("inum build: {e}"));
            return m;
        }
    };
    let cands = generate_candidates(model.queries(), CandidateLimits::default());
    let ids: Vec<_> = cands
        .iter()
        .map(|c| model.register_candidate(c.clone()))
        .collect();
    let mut rng = Rng::new(args.seed);
    let configs: Vec<Configuration> = (0..INUM_CONFIGS)
        .map(|_| Configuration::from_ids((0..1 + rng.below(4)).map(|_| ids[rng.below(ids.len())])))
        .collect();
    let nq = model.queries().len();
    let t0 = Instant::now();
    let mut total = 0.0;
    for c in &configs {
        for qi in 0..nq {
            total += model.cost(qi, c);
        }
    }
    m.insert("inum.cost_us", us(t0) / (configs.len() * nq) as f64);
    let t0 = Instant::now();
    for c in configs.iter().take(4) {
        for qi in 0..nq {
            total += model.exact_cost(qi, c);
        }
    }
    std::hint::black_box(total);
    m.insert("inum.exact_cost_us", us(t0) / (4 * nq) as f64);
    let r = trace.snapshot();
    m.insert(
        "inum.cache_hit_ratio",
        ratio(
            r.counter(Counter::InumCacheHits),
            r.counter(Counter::InumCacheMisses),
        ),
    );

    // advisor + solver (ILP)
    let budget = cat.total_size_bytes() * inp.budget_pct / 100;
    let before = trace.snapshot();
    let t0 = Instant::now();
    let sel = select_indexes_ilp_with(&mut model, &cands, budget, &IlpOptions::default());
    let ilp_ms = ms(t0);
    m.insert("advisor.ilp_ms", ilp_ms);
    let path_ms = parse_ms + cluster_ms + m["inum.build_ms"] + ilp_ms;
    m.insert("sql.parse_share", parse_ms / path_ms);
    report.check(sel.proven_optimal, || "ILP not proven optimal".into());
    let after = trace.snapshot();
    let delta = |c: Counter| (after.counter(c) - before.counter(c)) as f64;
    m.insert("advisor.candidates", cands.len() as f64);
    m.insert("advisor.matrix_nnz", delta(Counter::MatrixNnz));
    m.insert("solver.bnb_nodes", delta(Counter::SolverNodes));
    m.insert(
        "solver.pruned_by_incumbent",
        delta(Counter::BnbPrunedByIncumbent),
    );
    drop(model);

    // advisor (AutoPart)
    let trace = Trace::recording();
    let config = AutoPartConfig {
        replication_limit_bytes: (cat.total_size_bytes() * library::AUTOPART_REPLICATION_PCT / 100)
            as i64,
        ..Default::default()
    };
    let ap_budget = match inp.autopart_rounds {
        Some(n) => Budget::rounds(n),
        None => Budget::unlimited(),
    };
    let ok = parinda_advisor::suggest_partitions_traced(
        &cat, &templates, config, par, &ap_budget, &trace,
    )
    .is_ok();
    report.check(ok, || "AutoPart".into());
    let r = trace.snapshot();
    let (rounds, round_ms) = span(&r, "autopart_rounds/round");
    m.insert("advisor.autopart_rounds", rounds as f64);
    m.insert("advisor.autopart_round_ms", round_ms / rounds.max(1) as f64);
    gap(report, "optimizer_invocations", r.counter(Counter::OptimizerInvocations), templates.len() as u64,
        "AutoPart plans every template for its baseline and many rewrites per round; the counter sees none of it");

    // stream
    let mut acc = StreamAccumulator::new();
    let mut feed = Samples::new();
    let mut epoch = Samples::new();
    let quiet = Trace::disabled();
    for (i, s) in inp.statements.iter().enumerate() {
        let t0 = Instant::now();
        let ok = acc.feed(s).is_ok();
        feed.push(us(t0));
        if !ok {
            report.check(false, || "stream feed".into());
        }
        if (i + 1) % inp.epoch_every == 0 || i + 1 == inp.statements.len() {
            let t0 = Instant::now();
            let ok = acc.advance_epoch(&quiet).is_ok();
            epoch.push(ms(t0));
            report.check(ok, || "stream epoch".into());
        }
    }
    m.insert("stream.feed_us", feed.mean());
    m.insert("stream.epoch_ms", epoch.mean());
    m.insert("stream.templates", acc.templates().len() as f64);

    // console
    let mut console = console_over(fresh_session(&cat), &inp.console_setup, report);
    let trace = Trace::recording();
    console.set_trace(trace.clone());
    let n = inp.statements.len().min(CONSOLE_FEEDS);
    let t0 = Instant::now();
    for s in &inp.statements[..n] {
        let ok = matches!(
            console.run_line(&format!("feed {s}")),
            ConsoleReply::Output(_)
        );
        if !ok {
            report.check(false, || "console feed".into());
        }
    }
    m.insert("console.feed_us", us(t0) / n as f64);
    gap(
        report,
        "stream_statements_fed",
        trace.snapshot().counter(Counter::StreamStatementsFed),
        n as u64,
        "console feeds sent vs the stream counter",
    );
    let mut eval = Samples::new();
    for _ in 0..8 {
        let t0 = Instant::now();
        let ok = matches!(console.run_line("eval"), ConsoleReply::Output(_));
        eval.push(ms(t0));
        report.check(ok, || "console eval".into());
    }
    m.insert("console.eval_ms", eval.median());

    server_layer(inp, &cat, &mut m, report);
    wal_layer(inp, &dir.join("wal-replay"), &mut m, report);
    m
}

/// Wire latency of the workload's read lines against the same lines run
/// on an in-process console: each line runs once on each side, in
/// alternating order, and `server.overhead_us` is the median of the
/// per-line differences. Counts come from `server stats`.
fn server_layer(inp: &Inputs, cat: &Catalog, m: &mut Walk, report: &mut Report) {
    let engine = SharedEngine::from_session(fresh_session(cat));
    let mut console = console_over(engine.session(), &inp.console_setup, report);
    let server = parinda_server::Server::bind(
        engine,
        "127.0.0.1:0",
        parinda_server::ServerOptions::default(),
    )
    .and_then(|s| s.spawn());
    let handle = match server {
        Ok(h) => h,
        Err(e) => {
            report.check(false, || format!("bind: {e}"));
            return;
        }
    };
    let mut local = |line: &str, report: &mut Report| {
        let t0 = Instant::now();
        let ok = matches!(console.run_line(line), ConsoleReply::Output(_));
        let took = us(t0);
        report.check(ok, || format!("console: {line}"));
        took
    };
    let mut diffs = Samples::new();
    let mut stats = String::new();
    let result = (|| -> std::io::Result<()> {
        let mut c = Client::connect(handle.addr())?;
        let mut wire = |line: &str, report: &mut Report| -> std::io::Result<f64> {
            let t0 = Instant::now();
            let (ok, _) = c.send(line)?;
            let took = us(t0);
            report.check(ok, || format!("wire: {line}"));
            Ok(took)
        };
        for line in &inp.console_setup {
            wire(line, report)?;
        }
        // one untimed pass warms both sides' caches
        for line in &inp.console_reads {
            local(line, report);
            wire(line, report)?;
        }
        for (i, line) in inp
            .console_reads
            .iter()
            .cycle()
            .take(SERVER_READS)
            .enumerate()
        {
            let (w, l) = if i % 2 == 0 {
                let l = local(line, report);
                (wire(line, report)?, l)
            } else {
                let w = wire(line, report)?;
                (w, local(line, report))
            };
            diffs.push(w - l);
        }
        stats = c.send("server stats")?.1;
        Ok(())
    })();
    report.check(result.is_ok(), || format!("server probe: {result:?}"));
    handle.shutdown().ok();
    m.insert("server.overhead_us", diffs.median());
    let sent = (inp.console_setup.len() + inp.console_reads.len() + SERVER_READS + 1) as u64;
    let requests = daemon::stat(&stats, "requests").unwrap_or(0);
    gap(
        report,
        "server_requests",
        requests,
        sent,
        "requests the daemon counted vs requests sent",
    );
    m.insert("server.requests", requests as f64);
    m.insert(
        "server.request_errors",
        daemon::stat(&stats, "request_errors").unwrap_or(0) as f64,
    );
    m.insert(
        "server.plan_cache_hit_ratio",
        ratio(
            daemon::stat(&stats, "inum_plan_cache_hits").unwrap_or(0),
            daemon::stat(&stats, "inum_plan_cache_misses").unwrap_or(0),
        ),
    );
}

/// Replay the session's journal through the WAL with the daemon's
/// policy: fsync per record, a snapshot every 256 records and one at the
/// end; then recover the directory.
fn wal_layer(inp: &Inputs, dir: &PathBuf, m: &mut Walk, report: &mut Report) {
    std::fs::remove_dir_all(dir).ok();
    let result = (|| -> std::io::Result<()> {
        let data = DataDir::open(dir)?;
        let wal = data.open_wal(&data.recover()?)?;
        let boot = daemon::bootstrap();
        let mut append = Samples::new();
        let mut sync = Samples::new();
        let mut snap = Samples::new();
        let mut snap_bytes = 0u64;
        let mut appended = 0u64;
        let mut journal: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut write =
            |rec: Record, append: &mut Samples, sync: &mut Samples| -> std::io::Result<()> {
                let t0 = Instant::now();
                let a = wal.append(&rec)?;
                append.push(us(t0));
                appended += a.bytes;
                let t0 = Instant::now();
                wal.sync(a.lsn)?;
                sync.push(us(t0));
                Ok(())
            };
        write(Record::Bootstrap(boot.clone()), &mut append, &mut sync)?;
        write(Record::Open(1), &mut append, &mut sync)?;
        journal.insert(1, Vec::new());
        let lines = inp.journal.len();
        for (i, line) in inp.journal.iter().enumerate() {
            write(
                Record::Cmd {
                    session: 1,
                    line: line.clone(),
                },
                &mut append,
                &mut sync,
            )?;
            journal.entry(1).or_default().push(line.clone());
            if wal.since_snapshot() >= SNAPSHOT_EVERY || i + 1 == lines {
                let t0 = Instant::now();
                wal.snapshot(&boot, 2, &journal)?;
                snap.push(ms(t0));
                snap_bytes = std::fs::metadata(dir.join("snapshot.v1"))
                    .map(|x| x.len())
                    .unwrap_or(0);
            }
        }
        m.insert("wal.append_us", append.mean());
        m.insert("wal.sync_us", sync.mean());
        m.insert("wal.snapshot_ms", snap.mean());
        m.insert("wal.snapshot_bytes", snap_bytes as f64);
        m.insert("wal.snapshots", snap.len() as f64);
        let t0 = Instant::now();
        let rec = data.recover()?;
        m.insert("wal.recover_ms", ms(t0));
        let restored = rec.sessions.get(&1).map(|v| v.len()).unwrap_or(0);
        report.check(restored == lines, || {
            format!("WAL recovery restored {restored} of {lines} lines")
        });
        let wal_file = std::fs::metadata(dir.join("wal.log"))
            .map(|x| x.len())
            .unwrap_or(0);
        gap(
            report,
            "wal_bytes_on_disk",
            appended,
            wal_file + snap_bytes,
            "bytes appended vs log tail + snapshot left on disk after compaction",
        );
        Ok(())
    })();
    report.check(result.is_ok(), || format!("WAL replay: {result:?}"));
    std::fs::remove_dir_all(dir).ok();
}

/// The workload's end-to-end operation with and without a recording
/// trace: the relative slowdown of the traced runs, and the last traced
/// run's report (the counts only the program can see).
fn trace_overhead(args: &Args, inp: &Inputs, report: &mut Report) -> (f64, TraceReport) {
    let mut traced = TraceReport::default();
    let mut keep = |trace: &Trace| {
        if trace.is_enabled() {
            traced = trace.snapshot();
        }
    };
    let o = match args.workload {
        Which::TextIngest => {
            let cat = library::paper_catalog();
            let text: String = inp.statements.iter().map(|s| format!("{s};\n")).collect();
            let budget = cat.total_size_bytes() * library::INGEST_BUDGET_PCT / 100;
            overhead(3, |trace| {
                let mut s = fresh_session(&cat);
                s.set_trace(trace.clone());
                let ok = parinda_workload::parse_workload(&text)
                    .map_err(parinda::ParindaError::from)
                    .and_then(|wl| {
                        s.suggest_indexes_compressed(
                            &wl,
                            budget,
                            SelectionMethod::Ilp,
                            &IlpOptions::default(),
                        )
                    })
                    .is_ok();
                report.check(ok, || "text->design".into());
                keep(&trace);
            })
        }
        Which::DbaSession => {
            let cat = library::paper_catalog();
            let text = library::sdss_text();
            overhead(3, |trace| {
                let mut s = fresh_session(&cat);
                s.set_trace(trace.clone());
                let ok = library::ilp_sweep(&s, &text, |_| ()).is_ok();
                report.check(ok, || "ILP sweep".into());
                keep(&trace);
            })
        }
        Which::DbaAutopart => {
            let cat = library::paper_catalog();
            let text = library::sdss_text();
            overhead(2, |trace| {
                let mut s = fresh_session(&cat);
                s.set_trace(trace.clone());
                let ok = library::autopart(&s, &text).is_ok();
                report.check(ok, || "AutoPart".into());
                keep(&trace);
            })
        }
        Which::DaemonEphemeral | Which::DaemonDurable => {
            let cat = drift_catalog();
            let lines = &inp.journal;
            overhead(3, |trace| {
                let mut c = Console::with_session(fresh_session(&cat));
                c.set_trace(trace.clone());
                let ok = lines
                    .iter()
                    .all(|l| matches!(c.run_line(l), ConsoleReply::Output(_)));
                report.check(ok, || "console stream replay".into());
                keep(&trace);
            })
        }
    };
    (o, traced)
}

pub fn run(args: &Args, dir: &Path, report: &mut Report) {
    let inp = inputs(args, dir);
    let start = Instant::now();
    let (overhead, traced) = trace_overhead(args, &inp, report);
    let (rounds, _) = span(&traced, "autopart_rounds/round");
    report.note(format!(
        "traced end-to-end pass: optimizer_invocations {}, AutoPart rounds {rounds}, shared plan cache {} hits / {} misses",
        traced.counter(Counter::OptimizerInvocations),
        traced.counter(Counter::SharedPlanHits),
        traced.counter(Counter::SharedPlanMisses),
    ));

    // The daemon workloads also run one real round: its `server stats`
    // give the server counts, and the durable one's data dir the bytes.
    let mut daemon_stats = None;
    if matches!(args.workload, Which::DaemonEphemeral | Which::DaemonDurable) {
        let t = daemon::traffic(args.seed, dir);
        let durable = args.workload == Which::DaemonDurable;
        let data = dir.join("data");
        match daemon::run_round(&t, durable.then_some(data.as_path()), report) {
            Ok(r) => {
                if durable {
                    let wal_bytes = daemon::stat(&r.stats, "wal_bytes").unwrap_or(0);
                    gap(report, "daemon_wal_bytes_on_disk", wal_bytes, r.on_disk_wal + r.on_disk_snapshot,
                        "server stats wal_bytes counts every append; the log is cut at each snapshot");
                }
                gap(
                    report,
                    "daemon_requests",
                    daemon::stat(&r.stats, "requests").unwrap_or(0),
                    r.requests_sent,
                    "requests counted after shutdown vs requests sent",
                );
                daemon_stats = Some(r.stats);
            }
            Err(e) => report.check(false, || format!("daemon round: {e}")),
        }
    }

    let mut walks: Vec<Walk> = Vec::new();
    while walks.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        walks.push(walk(args, &inp, dir, report));
    }
    let mut keys: Vec<&'static str> = walks.iter().flat_map(|w| w.keys().copied()).collect();
    keys.sort();
    keys.dedup();
    for k in keys {
        let mut s = Samples::new();
        walks
            .iter()
            .filter_map(|w| w.get(k))
            .for_each(|&v| s.push(v));
        report.metric(k, s.median());
    }
    report.note(format!("{} layer walks", walks.len()));
    if let Some(stats) = daemon_stats {
        let get = |k: &str| daemon::stat(&stats, k).unwrap_or(0);
        report.metric("server.requests", get("requests") as f64);
        report.metric("server.request_errors", get("request_errors") as f64);
        report.metric(
            "server.plan_cache_hit_ratio",
            ratio(get("inum_plan_cache_hits"), get("inum_plan_cache_misses")),
        );
    }
    report.metric("trace.overhead_frac", overhead);
    report.metric(
        "optimizer.invocations",
        traced.counter(Counter::OptimizerInvocations) as f64,
    );
    report.metric(
        "inum.shared_plan_hit_ratio",
        ratio(
            traced.counter(Counter::SharedPlanHits),
            traced.counter(Counter::SharedPlanMisses),
        ),
    );
}
