//! The three library workloads: `text-ingest` (a 100k-statement log as
//! text in, index design out), `dba-session` (the paper's what-if and
//! ILP budget-sweep scenarios on the SDSS-30 workload) and
//! `dba-autopart` (its AutoPart scenario on the same workload).

use std::time::Instant;

use parinda::{
    AutoPartConfig, Catalog, Design, IlpOptions, Parallelism, Parinda, Select, SelectionMethod,
    WhatIfIndex, WhatIfPartition,
};
use parinda_advisor::{generate_candidates, CandidateLimits};
use parinda_catalog::MetadataProvider;
use parinda_workload::{sdss_catalog, sdss_workload_sql, synthesize_stats, SdssScale};

use crate::stats::{ms, Pace, Probed, Rng, Samples};
use crate::{Args, Report, ADVISOR_THREADS};

/// Statements in each `text-ingest` log.
pub const STREAM_STATEMENTS: usize = 100_000;
/// Logs per `text-ingest` run, each from its own seed derived from the
/// run's seed: a design's quality depends on which literal instance
/// represents each template, so one log per run would make
/// `design_speedup_x` swing with the seed (its median over six logs
/// still moved by 0.06 of itself between seeds).
const STREAMS: u64 = 12;
/// The `text-ingest` design's storage budget: this share of the database.
pub const INGEST_BUDGET_PCT: u64 = 20;
/// `dba-session`'s ILP budget sweep (E1's budgets), % of the database.
pub const SWEEP_PCT: [u64; 4] = [5, 10, 20, 40];
/// AutoPart's replication limit, % of the database.
pub const AUTOPART_REPLICATION_PCT: u64 = 10;
/// What-if reads after each `text-ingest` pass.
const READS_PER_PASS: usize = 200;
/// Seeded what-if designs per run: the p99 read is set by
/// the costliest few designs, so the pool is large enough that which
/// ones the seed draws moves it little (with 1024, `text-ingest`'s p99
/// still moved by 0.1 of itself between seeds).
const DESIGNS: usize = 4_096;
/// Reads needed so the p99 has at least ten samples beyond it.
pub const MIN_READS: usize = 1_200;
/// Set-ups timed per iteration; `setup_s` is the median of all of them.
const SETUPS: usize = 32;

/// The paper-scale SDSS catalog with synthesized statistics.
pub fn paper_catalog() -> Catalog {
    let (mut cat, tables) = sdss_catalog(SdssScale::paper());
    synthesize_stats(&mut cat, &tables);
    cat
}

/// A fresh session over `cat` with the fixed advisor thread count.
pub fn fresh_session(cat: &Catalog) -> Parinda {
    let mut s = Parinda::new(cat.clone());
    s.set_parallelism(Parallelism::fixed(ADVISOR_THREADS));
    s
}

/// Set-up timings: each iteration builds the catalog and opens its
/// session several times and keeps the last, so `setup_s` is a median
/// over samples spread through the run, not only its cold start. Each
/// is corrected to the reference host speed by its probes.
#[derive(Default)]
pub struct Setup {
    timings: Probed,
    ms: Samples,
    raw_ms: Samples,
}

impl Setup {
    pub fn fresh(&mut self) -> (Catalog, Parinda) {
        for _ in 1..SETUPS {
            self.timings.time(|| fresh_session(&paper_catalog()));
        }
        let (cat, s) = self.timings.time(|| {
            let cat = paper_catalog();
            let s = fresh_session(&cat);
            (cat, s)
        });
        self.timings.drain(&mut self.ms, &mut self.raw_ms);
        (cat, s)
    }

    pub fn report(&self, report: &mut Report) {
        report.timing("setup (catalog + session)", "ms", &self.ms);
        report.timing("setup, wall as measured", "ms", &self.raw_ms);
        report.metric("setup_s", self.ms.median() / 1e3);
    }
}

/// The SDSS-30 workload as a workload file.
pub fn sdss_text() -> String {
    sdss_workload_sql()
        .iter()
        .map(|s| format!("{s};\n"))
        .collect()
}

/// A seeded pool of what-if designs over `queries`: 1–4 indexes drawn
/// from the advisor's candidates, and a vertical partition in one of four.
pub fn draw_designs(seed: u64, cat: &Catalog, queries: &[Select], n: usize) -> Vec<Design> {
    let bound: Vec<_> = queries
        .iter()
        .filter_map(|q| parinda_optimizer::bind(q, cat).ok())
        .collect();
    let cands = generate_candidates(&bound, CandidateLimits::default());
    let named: Vec<(String, Vec<String>)> = cands
        .iter()
        .filter_map(|c| {
            let t = cat.table(c.table)?;
            let cols = c
                .columns
                .iter()
                .map(|&i| t.columns[i].name.clone())
                .collect();
            Some((t.name.clone(), cols))
        })
        .collect();
    assert!(!named.is_empty(), "the workload yields index candidates");
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|k| {
            let mut d = Design::new();
            for j in 0..1 + rng.below(4) {
                let (table, cols) = &named[rng.below(named.len())];
                let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
                d = d.with_index(WhatIfIndex::new(format!("wi{k}_{j}"), table, &cols));
            }
            // a partition in one design of four: designs with one cost
            // several times more to evaluate (rewrites), and an even mix
            // would put the median read between the two kinds
            if rng.below(4) == 0 {
                let (table, cols) = &named[rng.below(named.len())];
                let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
                d = d.with_partition(WhatIfPartition::new(format!("wp{k}"), table, &cols));
            }
            d
        })
        .collect()
}

/// Evaluates what-if designs and checks that every evaluation of a
/// design returns the totals its first evaluation did.
pub struct Reads {
    designs: Vec<Design>,
    first: Vec<Option<(u64, u64)>>,
    next: usize,
    timings: Probed,
    /// Corrected to the reference host speed.
    pub samples: Samples,
    /// Wall times as measured.
    pub raw: Samples,
}

impl Reads {
    pub fn new(designs: Vec<Design>) -> Reads {
        let first = vec![None; designs.len()];
        Reads {
            designs,
            first,
            next: 0,
            timings: Probed::default(),
            samples: Samples::new(),
            raw: Samples::new(),
        }
    }

    /// `n` reads, each of the next design in the pool.
    pub fn batch(&mut self, n: usize, s: &Parinda, workload: &[Select], report: &mut Report) {
        for _ in 0..n {
            let k = self.next % self.designs.len();
            self.next += 1;
            let r = self
                .timings
                .time(|| s.evaluate_design(workload, &self.designs[k]));
            let ok = match r {
                Ok((rep, _)) if rep.per_query.len() == workload.len() => {
                    let totals = (rep.total_before().to_bits(), rep.total_after().to_bits());
                    *self.first[k].get_or_insert(totals) == totals
                }
                _ => false,
            };
            report.check(ok, || {
                format!("what-if design {k} evaluation failed or changed")
            });
        }
        self.timings.drain(&mut self.samples, &mut self.raw);
    }
}

fn index_names(s: &parinda::IndexSuggestion) -> Vec<String> {
    s.indexes.iter().map(|i| i.name.clone()).collect()
}

/// The seed of the `k`-th log of a run.
pub fn stream_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(STREAMS).wrapping_add(k)
}

/// A workload as workload-file text.
fn render(w: &parinda_workload::Workload) -> String {
    w.entries
        .iter()
        .map(|e| format!("{};\n", e.query))
        .collect()
}

/// One `text-ingest` log: the design advised from its pre-parsed
/// statements, and that design's speedup.
struct Log {
    reference: Vec<String>,
    speedup: f64,
}

/// `text-ingest`: render seeded SDSS streams as workload files, then
/// time `parse_workload` → `suggest_indexes_compressed` (ILP) on a fresh
/// paper-scale session, interleaved with what-if reads on the first log's
/// templates (one pool of designs for the run, as on `dba-session`, so
/// the p99 read does not hang on a few designs). Only one log's text is
/// held at a time: each is generated and rendered for one pass,
/// outside the timed region, so `peak_rss_mb`
/// is set by the program's parse and cluster, not by the benchmark's
/// inputs. Each text→design time is corrected by the mean of the pace
/// factors either side of it; reads and set-ups by their probes.
pub fn text_ingest(args: &Args, report: &mut Report) {
    let mut pace = Pace::new();
    let mut setup = Setup::default();
    let (cat, _) = setup.fresh();
    let budget = cat.total_size_bytes() * INGEST_BUDGET_PCT / 100;
    let advise = |s: &Parinda, w: &parinda_workload::Workload| {
        s.suggest_indexes_compressed(w, budget, SelectionMethod::Ilp, &IlpOptions::default())
    };
    let mut logs: Vec<Log> = Vec::new();
    // the first log's templates and the reads on them
    let mut reads: Option<(Vec<Select>, Reads)> = None;
    let mut text_len = 0;
    let mut rss_inputs = 0.0;

    let mut design = Samples::new();
    let mut design_raw = Samples::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds
        || i < STREAMS as usize
        || i * READS_PER_PASS < MIN_READS
    {
        let k = i % STREAMS as usize;
        let stream = parinda_workload::generate_sdss_stream(
            STREAM_STATEMENTS,
            stream_seed(args.seed, k as u64),
        );
        if k == logs.len() {
            // first visit: the reference design from the same stream
            let (reference, compressed) =
                advise(&fresh_session(&cat), &stream).expect("the pre-parsed stream advises");
            reads.get_or_insert_with(|| {
                let templates = compressed.queries();
                let designs = draw_designs(args.seed, &cat, &templates, DESIGNS);
                (templates, Reads::new(designs))
            });
            logs.push(Log {
                reference: index_names(&reference),
                speedup: reference.report.speedup(),
            });
        }
        let text = render(&stream);
        drop(stream);
        text_len = text.len();
        if i == 0 {
            rss_inputs = crate::stats::peak_rss_mb();
        }
        let log = &logs[k];
        i += 1;
        pace.tick();
        let (_, s) = setup.fresh();
        let t0 = Instant::now();
        let out = parinda_workload::parse_workload(&text)
            .map_err(parinda::ParindaError::from)
            .and_then(|wl| advise(&s, &wl));
        let t = t0.elapsed().as_secs_f64();
        let before = pace.correct(t);
        pace.tick();
        design.push((before + pace.correct(t)) / 2.0);
        design_raw.push(t);
        let ok = match &out {
            Ok((sug, _)) => {
                sug.proven_optimal && !sug.degraded && index_names(sug) == log.reference
            }
            Err(_) => false,
        };
        drop(out);
        report.check(ok, || {
            "text->design differs from the pre-parsed stream's design".into()
        });
        let (templates, reads) = reads.as_mut().expect("drawn on the first pass");
        reads.batch(READS_PER_PASS, &s, templates, report);
    }
    // each log's design is checked equal to its reference on every
    // pass, so its speedup is the reference's; the median over logs
    // weighs every log once, however often the run visited it
    let mut speedup = Samples::new();
    logs.iter().for_each(|l| speedup.push(l.speedup));
    let (templates, reads) = reads.expect("at least one pass");
    report.note(format!(
        "text-ingest: {} logs of {STREAM_STATEMENTS} statements ({text_len} bytes of text each) -> {} templates",
        logs.len(),
        templates.len(),
    ));
    report.note(pace.summary());
    setup.report(report);
    report.timing("text->design", "s", &design);
    report.timing("text->design, wall as measured", "s", &design_raw);
    report.note(format!(
        "  per-iteration text->design (s): {}",
        design.list(3)
    ));
    report.timing("what-if read", "ms", &reads.samples);
    report.timing("what-if read, wall as measured", "ms", &reads.raw);
    report.note(format!(
        "  peak RSS before the first timed pass: {rss_inputs:.1} MB (generating, advising and rendering one log)"
    ));
    report.metric("text_to_design_s", design.median());
    report.metric("design_speedup_x", speedup.median());
    report.metric("read_ms_p50", reads.samples.median());
    report.metric("read_ms_p99", reads.samples.pct(99.0));
}

/// What one DBA round advised, as one what-if design, and what every
/// iteration of the workload must reproduce.
pub struct Advice {
    pub workload: Vec<Select>,
    pub design: Design,
    pub signature: Vec<String>,
    /// Every solver run was proven optimal (ILP) and none was degraded.
    pub sound: bool,
}

/// `dba-session`'s round on a fresh session: parse the SDSS-30 text and
/// run the ILP at each swept budget, passing each one's wall time in ms
/// to `ilp_ms`. The advised design is the 20% one.
pub fn ilp_sweep(
    s: &Parinda,
    text: &str,
    mut ilp_ms: impl FnMut(f64),
) -> Result<Advice, parinda::ParindaError> {
    let workload = parinda_workload::parse_workload(text)?.queries();
    let total = s.catalog().total_size_bytes();
    let mut design = Design::new();
    let mut signature = Vec::new();
    let mut sound = true;
    for pct in SWEEP_PCT {
        let t0 = Instant::now();
        let sug = s.suggest_indexes(&workload, total * pct / 100, SelectionMethod::Ilp)?;
        ilp_ms(ms(t0));
        sound &= sug.proven_optimal && !sug.degraded;
        signature.push(format!("{pct}%: {}", index_names(&sug).join(" ")));
        if pct == 20 {
            for i in &sug.indexes {
                let cols: Vec<&str> = i.columns.iter().map(String::as_str).collect();
                design = design.with_index(WhatIfIndex::new(&i.name, &i.table, &cols));
            }
        }
    }
    Ok(Advice {
        workload,
        design,
        signature,
        sound,
    })
}

/// `dba-autopart`'s round on a fresh session: parse the SDSS-30 text and
/// run AutoPart at 10% replication.
pub fn autopart(s: &Parinda, text: &str) -> Result<Advice, parinda::ParindaError> {
    let workload = parinda_workload::parse_workload(text)?.queries();
    let config = AutoPartConfig {
        replication_limit_bytes: (s.catalog().total_size_bytes() * AUTOPART_REPLICATION_PCT / 100)
            as i64,
        ..Default::default()
    };
    let sug = s.suggest_partitions(&workload, config)?;
    let mut design = Design::new();
    for p in &sug.partitions {
        let cols: Vec<&str> = p.columns.iter().map(String::as_str).collect();
        design = design.with_partition(WhatIfPartition::new(&p.name, &p.table, &cols));
    }
    Ok(Advice {
        workload,
        design,
        signature: sug
            .partitions
            .iter()
            .map(|p| format!("{}({})", p.table, p.columns.join(",")))
            .collect(),
        sound: !sug.degraded,
    })
}

/// A DBA workload: each iteration opens a fresh session, turns the
/// SDSS-30 text into a design with `round` (timed as
/// `text_to_design_s`, corrected by the mean of the pace factors
/// either side of it), checks it against the first iteration's, then
/// runs `reads_per_round` seeded what-if reads.
fn dba(
    args: &Args,
    report: &mut Report,
    reads_per_round: usize,
    mut round: impl FnMut(&Parinda, &str, &Pace) -> Result<Advice, parinda::ParindaError>,
) {
    let mut pace = Pace::new();
    let mut setup = Setup::default();
    let (cat, _) = setup.fresh();
    let text = sdss_text();
    let workload = parinda_workload::parse_workload(&text)
        .expect("SDSS-30 parses")
        .queries();
    let designs = draw_designs(args.seed, &cat, &workload, DESIGNS);
    let mut reads = Reads::new(designs);
    let mut design = Samples::new();
    let mut design_raw = Samples::new();
    let mut speedup = Samples::new();
    let mut signature = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds
        || design.len() < 3
        || reads.samples.len() < MIN_READS
    {
        pace.tick();
        let (_, s) = setup.fresh();
        let t0 = Instant::now();
        let advice = round(&s, &text, &pace);
        let t = t0.elapsed().as_secs_f64();
        let before = pace.correct(t);
        pace.tick();
        design.push((before + pace.correct(t)) / 2.0);
        design_raw.push(t);
        match advice {
            Ok(a) => {
                report.check(a.sound, || {
                    "an advisor run is degraded or not proven optimal".into()
                });
                let same = *signature.get_or_insert_with(|| a.signature.clone()) == a.signature;
                report.check(same, || {
                    "the advised design differs from the first iteration's".into()
                });
                match s.evaluate_design(&a.workload, &a.design) {
                    Ok((rep, _)) => speedup.push(rep.speedup()),
                    Err(e) => report.check(false, || format!("advised design evaluation: {e}")),
                }
            }
            Err(e) => report.check(false, || format!("advice round: {e}")),
        }
        reads.batch(reads_per_round, &s, &workload, report);
    }
    report.note(pace.summary());
    setup.report(report);
    report.timing("text->design (one advice round)", "s", &design);
    report.timing("text->design, wall as measured", "s", &design_raw);
    report.note(format!(
        "  per-iteration advice rounds (s): {}",
        design.list(3)
    ));
    report.timing("whatif_eval_ms (what-if read)", "ms", &reads.samples);
    report.timing("what-if read, wall as measured", "ms", &reads.raw);
    report.metric("text_to_design_s", design.median());
    report.metric("design_speedup_x", speedup.median());
    report.metric("read_ms_p50", reads.samples.median());
    report.metric("read_ms_p99", reads.samples.pct(99.0));
}

/// `dba-session`: the ILP budget sweep, beside what-if reads.
pub fn dba_session(args: &Args, report: &mut Report) {
    let mut ilp_ms = Samples::new();
    dba(args, report, 400, |s, text, pace| {
        ilp_sweep(s, text, |t| ilp_ms.push(pace.correct(t)))
    });
    report.timing("index_advice_ms (one ILP budget)", "ms", &ilp_ms);
}

/// `dba-autopart`: AutoPart, beside the same what-if reads as
/// `dba-session` (with every design partitioned, the p99 read sat in the
/// far tail of the costliest rewrites and moved with the seed).
pub fn dba_autopart(args: &Args, report: &mut Report) {
    dba(args, report, 400, |s, text, _| autopart(s, text));
}
