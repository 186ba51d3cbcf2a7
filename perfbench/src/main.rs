//! PARINDA benchmark: workloads driven through the public API
//! (`parinda::Parinda`, `parinda::Console`) and the wire protocol
//! (`parinda_server::Server`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <text-ingest|dba-session|dba-autopart|daemon-ephemeral|daemon-durable> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it times the benchmark's own calls into each
//! layer and reports the per-layer metrics. Human-readable lines come
//! first; the last line of standard output is one JSON object.

mod daemon;
mod layers;
mod library;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Advisor worker threads, fixed for every session and the daemon's
/// engine (at most `nproc`; one thread keeps runs steady on a shared
/// two-core machine).
pub const ADVISOR_THREADS: usize = 1;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("design_speedup_x", "x"),
    ("text_to_design_s", "s"),
    ("read_ms_p50", "ms"),
    ("read_ms_p99", "ms"),
];

/// Per-layer metrics of the traced run: (name, unit, the end-to-end
/// metric the layer should move).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("catalog.build_ms", "ms", "setup_s"),
    ("sql.parse_us", "us", "text_to_design_s"),
    ("sql.parse_share", "ratio", "text_to_design_s"),
    ("workload.cluster_ms", "ms", "text_to_design_s"),
    ("workload.templates", "count", "text_to_design_s"),
    ("workload.compression_ratio", "ratio", "text_to_design_s"),
    ("optimizer.plan_us", "us", "read_ms_p50, text_to_design_s"),
    (
        "optimizer.invocations",
        "count",
        "read_ms_p50, text_to_design_s",
    ),
    ("whatif.evaluate_ms", "ms", "read_ms_p50"),
    ("inum.build_ms", "ms", "text_to_design_s (dba-session)"),
    ("inum.cost_us", "us", "text_to_design_s (dba-session)"),
    ("inum.exact_cost_us", "us", "text_to_design_s (dba-session)"),
    (
        "inum.cache_hit_ratio",
        "ratio",
        "text_to_design_s (dba-session)",
    ),
    (
        "inum.shared_plan_hit_ratio",
        "ratio",
        "text_to_design_s (dba-session)",
    ),
    (
        "advisor.candidates",
        "count",
        "text_to_design_s (dba-session), design_speedup_x",
    ),
    ("advisor.ilp_ms", "ms", "text_to_design_s (dba-session)"),
    (
        "advisor.matrix_nnz",
        "count",
        "text_to_design_s (dba-session)",
    ),
    (
        "solver.bnb_nodes",
        "count",
        "text_to_design_s (dba-session)",
    ),
    (
        "solver.pruned_by_incumbent",
        "count",
        "text_to_design_s (dba-session)",
    ),
    (
        "advisor.autopart_rounds",
        "count",
        "text_to_design_s (dba-autopart)",
    ),
    (
        "advisor.autopart_round_ms",
        "ms",
        "text_to_design_s (dba-autopart)",
    ),
    ("stream.feed_us", "us", "text_to_design_s (daemon-*)"),
    ("stream.epoch_ms", "ms", "text_to_design_s (daemon-*)"),
    ("stream.templates", "count", "text_to_design_s (daemon-*)"),
    (
        "wal.append_us",
        "us",
        "text_to_design_s, read_ms_p99 (daemon-durable)",
    ),
    (
        "wal.sync_us",
        "us",
        "text_to_design_s, read_ms_p99 (daemon-durable)",
    ),
    ("wal.snapshot_ms", "ms", "text_to_design_s (daemon-durable)"),
    (
        "wal.snapshot_bytes",
        "B",
        "text_to_design_s (daemon-durable)",
    ),
    (
        "wal.snapshots",
        "count",
        "text_to_design_s (daemon-durable)",
    ),
    ("wal.recover_ms", "ms", "setup_s (daemon-durable restart)"),
    ("core.overhead_us", "us", "every end-to-end metric"),
    ("console.feed_us", "us", "text_to_design_s (daemon-*)"),
    ("console.eval_ms", "ms", "read_ms_p50"),
    (
        "server.overhead_us",
        "us",
        "read_ms_p50, text_to_design_s (daemon-*)",
    ),
    ("server.requests", "count", "read_ms_p50 (daemon-*)"),
    ("server.request_errors", "count", "read_ms_p50 (daemon-*)"),
    (
        "server.plan_cache_hit_ratio",
        "ratio",
        "read_ms_p50, text_to_design_s",
    ),
    ("trace.overhead_frac", "ratio", "every end-to-end metric"),
    ("failed_ops_frac", "ratio", "every end-to-end metric"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// Count one checked operation; a failed check is reported by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.lines.push(format!("FAILED: {}", what()));
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A human-readable line printed before the JSON result.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Record a timing's median (and optionally a tail percentile) with
    /// its sample count.
    pub fn timing(&mut self, label: &str, unit: &str, s: &stats::Samples) {
        let mut line = format!("  {label}: p50 {:.4} {unit}", s.median());
        if s.beyond(99.0) >= 10 {
            let _ = write!(line, ", p99 {:.4} {unit}", s.pct(99.0));
        } else if s.beyond(90.0) >= 10 {
            let _ = write!(line, ", p90 {:.4} {unit}", s.pct(90.0));
        }
        let _ = write!(line, " (n={})", s.len());
        self.lines.push(line);
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    TextIngest,
    DbaSession,
    DbaAutopart,
    DaemonEphemeral,
    DaemonDurable,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: parinda-perfbench --workload <text-ingest|dba-session|dba-autopart|daemon-ephemeral|daemon-durable> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "text-ingest" => Workload::TextIngest,
                    "dba-session" => Workload::DbaSession,
                    "dba-autopart" => Workload::DbaAutopart,
                    "daemon-ephemeral" => Workload::DaemonEphemeral,
                    "daemon-durable" => Workload::DaemonDurable,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed".to_string())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The filesystem type holding `path` (longest matching mount point).
fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, fs)| fs).unwrap_or_else(|| "unknown".into())
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn environment(args: &Args, data_dir: &std::path::Path) -> Vec<String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let daemon = matches!(
        args.workload,
        Workload::DaemonEphemeral | Workload::DaemonDurable
    );
    let durable = args.workload == Workload::DaemonDurable;
    vec![
        format!("workload {:?} seed {} seconds {} trace {}", args.workload, args.seed, args.seconds, args.trace as u8),
        format!(
            "env: nproc {nproc}, advisor threads {ADVISOR_THREADS}, client threads {}, connections {}, loop closed (zero think time)",
            if daemon { 2 } else { 1 },
            if daemon { 2 } else { 0 },
        ),
        format!("env: rustc {}, commit {}", env!("PERFBENCH_RUSTC"), git_commit()),
        format!(
            "env: data dir {} on {}, flush policy {}",
            data_dir.display(),
            filesystem_of(data_dir),
            if durable {
                "fsync per journaled command, snapshot every 256 records"
            } else {
                "none (no durability)"
            }
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch space for workload files and data dirs, inside the
    // working directory and removed at exit.
    let data_dir = std::path::PathBuf::from(format!(".perfbench-run/{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data_dir) {
        eprintln!("cannot create {}: {e}", data_dir.display());
        return ExitCode::from(2);
    }
    for line in environment(&args, &data_dir) {
        println!("{line}");
    }
    let mut report = Report::default();
    match (args.workload, args.trace) {
        (Workload::TextIngest, false) => library::text_ingest(&args, &mut report),
        (Workload::DbaSession, false) => library::dba_session(&args, &mut report),
        (Workload::DbaAutopart, false) => library::dba_autopart(&args, &mut report),
        (Workload::DaemonEphemeral | Workload::DaemonDurable, false) => {
            daemon::run(&args, &data_dir, &mut report)
        }
        (_, true) => layers::run(&args, &data_dir, &mut report),
    }
    std::fs::remove_dir_all(&data_dir).ok();
    std::fs::remove_dir(".perfbench-run").ok();

    let wanted: Vec<(&str, &str, &str)> = if args.trace {
        let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("failed_ops_frac", failed_frac);
        PER_LAYER.to_vec()
    } else {
        report.metric("peak_rss_mb", stats::peak_rss_mb());
        END_TO_END.iter().map(|&(n, u)| (n, u, "")).collect()
    };
    for line in &report.lines {
        println!("{line}");
    }
    let mut json = String::from("{");
    let _ = write!(
        json,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed
    );
    let mut missing = Vec::new();
    for (i, (name, unit, moves)) in wanted.iter().enumerate() {
        let value = match report.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                missing.push(*name);
                continue;
            }
        };
        if moves.is_empty() {
            println!("metric {name} = {value} {unit}");
        } else {
            println!("metric {name} = {value} {unit}  (moves {moves})");
        }
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    json.push_str("}}");
    if !missing.is_empty() {
        eprintln!("benchmark bug: no value for {}", missing.join(", "));
        return ExitCode::from(3);
    }
    println!("{json}");
    ExitCode::SUCCESS
}
