//! The two daemon workloads: an in-process `parinda_server::Server`
//! over the drift schema, driven over TCP by two tenants on two
//! connections — a stream tenant that feeds statements and closes an
//! epoch every 500 feeds, and a DBA tenant reading (`explain`, `eval`)
//! beside it. `daemon-durable` runs the same traffic on a durable data
//! dir, then restarts the daemon and re-attaches the stream session.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use parinda::{Parallelism, SharedEngine};
use parinda_bench::{drift_scenario, DRIFT_DDL};
use parinda_server::{Durability, Server, ServerHandle, ServerOptions};

use crate::stats::{ms, us, Pace, Samples};
use crate::{Args, Report, Workload, ADVISOR_THREADS};

/// Statements per drift phase (three phases per round).
pub const FEEDS_PER_PHASE: usize = 5_000;
/// The stream tenant closes an epoch after this many feeds.
pub const EPOCH_EVERY: usize = 500;
/// Daemon start-ups timed per run besides the rounds' own.
const SETUPS: usize = 15;
/// Statements per phase in the DBA tenant's workload file.
const DBA_STATEMENTS_PER_PHASE: usize = 12;
/// Statements per phase the DBA tenant explains. The median read is an
/// `explain`, whose cost depends on the statement's template: with the
/// workload file's twelve a phase, which templates the seed drew moved
/// the median read by about 10% between seeds.
const EXPLAINS_PER_PHASE: usize = 64;

/// One connection speaking the framed wire protocol.
pub struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        let mut c = Client {
            r: BufReader::new(w.try_clone()?),
            w,
        };
        let (ok, _) = c.frame()?;
        if !ok {
            return Err(io::Error::other("the daemon refused the connection"));
        }
        Ok(c)
    }

    /// Send one request line; returns (reply is an `ok` frame, payload).
    pub fn send(&mut self, line: &str) -> io::Result<(bool, String)> {
        self.w.write_all(format!("{line}\n").as_bytes())?;
        self.frame()
    }

    fn frame(&mut self) -> io::Result<(bool, String)> {
        let mut header = String::new();
        self.r.read_line(&mut header)?;
        let n: usize = header
            .trim_end()
            .rsplit(' ')
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad frame header `{}`", header.trim_end())))?;
        let mut payload = vec![0u8; n];
        self.r.read_exact(&mut payload)?;
        Ok((
            header.starts_with("ok "),
            String::from_utf8_lossy(&payload).into_owned(),
        ))
    }
}

/// The daemon's engine, with the fixed advisor thread count.
pub fn engine() -> SharedEngine {
    SharedEngine::from_ddl(DRIFT_DDL)
        .expect("the drift schema parses")
        .with_default_parallelism(Parallelism::fixed(ADVISOR_THREADS))
}

/// The bootstrap spec a durable daemon records for the drift schema.
pub fn bootstrap() -> String {
    format!("ddl\n{DRIFT_DDL}")
}

/// Bind and spawn a daemon: ephemeral, or durable on `dir` with the
/// shipped flush policy (`Durability::open`'s defaults).
pub fn start(dir: Option<&Path>) -> io::Result<ServerHandle> {
    let server = match dir {
        None => Server::bind(engine(), "127.0.0.1:0", ServerOptions::default())?,
        Some(dir) => {
            let dur = Durability::open(dir, &bootstrap())?;
            Server::bind_durable(engine(), "127.0.0.1:0", ServerOptions::default(), dur)?
        }
    };
    server.spawn()
}

/// `key value` lookup in a `server stats` report.
pub fn stat(stats: &str, key: &str) -> Option<u64> {
    stats.lines().find_map(|l| {
        let (k, v) = l.split_once(' ')?;
        (k == key).then(|| v.trim().parse().ok()).flatten()
    })
}

/// The "total: A -> B" line of a rendered benefit report, as A / B.
fn report_speedup(reply: &str) -> Option<f64> {
    let line = reply.lines().rev().find(|l| l.starts_with("total: "))?;
    let mut nums = line["total: ".len()..].split_whitespace();
    let before: f64 = nums.next()?.parse().ok()?;
    nums.next()?; // "->"
    let after: f64 = nums.next()?.parse().ok()?;
    (after > 0.0).then(|| before / after)
}

/// The inputs of one round, drawn from the seed outside any timing.
pub struct Traffic {
    pub statements: Vec<String>,
    pub dba_file: PathBuf,
    pub dba_statements: Vec<String>,
    pub explains: Vec<String>,
}

pub fn traffic(seed: u64, dir: &Path) -> Traffic {
    let phases = drift_scenario(seed, FEEDS_PER_PHASE);
    let dba_statements: Vec<String> = phases
        .iter()
        .flat_map(|p| p.statements.iter().take(DBA_STATEMENTS_PER_PHASE).cloned())
        .collect();
    let explains = phases
        .iter()
        .flat_map(|p| p.statements.iter().take(EXPLAINS_PER_PHASE).cloned())
        .collect();
    let dba_file = dir.join("dba-workload.sql");
    let text: String = dba_statements.iter().map(|s| format!("{s};\n")).collect();
    std::fs::write(&dba_file, text).expect("the run directory is writable");
    let statements = phases.into_iter().flat_map(|p| p.statements).collect();
    Traffic {
        statements,
        dba_file,
        dba_statements,
        explains,
    }
}

/// The DBA tenant's fixed setup lines and read rotation.
pub fn dba_lines(t: &Traffic) -> (Vec<String>, Vec<String>) {
    let setup = vec![
        format!("workload file {}", t.dba_file.display()),
        "whatif index wi_orders_custkey orders o_custkey".to_string(),
    ];
    // Three `explain`s per `eval`: the two kinds differ in cost several
    // times over, and a 1:1 mix would put the median in the gap between
    // them, where it jumps with the slightest shift.
    let mut rotation = Vec::new();
    for (i, s) in t.explains.iter().enumerate() {
        rotation.push(format!("explain {s}"));
        if i % 3 == 2 {
            rotation.push("eval".to_string());
        }
    }
    (setup, rotation)
}

/// The stream tenant's lines: `advise auto on`, then the feeds with an
/// `epoch` after every `EPOCH_EVERY` feeds and after the last one.
pub fn stream_lines(t: &Traffic) -> Vec<String> {
    let mut lines = vec!["advise auto on".to_string()];
    for (i, s) in t.statements.iter().enumerate() {
        lines.push(format!("feed {s}"));
        if (i + 1) % EPOCH_EVERY == 0 || i + 1 == t.statements.len() {
            lines.push("epoch".into());
        }
    }
    lines
}

/// Everything one round measured.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub feed_us: Samples,
    pub epoch_ms: Samples,
    /// Statements in → re-advised design out: from the first feed after
    /// the previous epoch to the reply of an epoch that re-advised.
    pub windows_s: Samples,
    pub read_ms: Samples,
    pub speedup: Option<f64>,
    pub stream_s: f64,
    pub feeds: u64,
    pub requests_sent: u64,
    pub stats: String,
    pub restart_s: f64,
    pub disk_bytes: u64,
    pub on_disk_wal: u64,
    pub on_disk_snapshot: u64,
}

fn dir_bytes(dir: &Path, name: &str) -> u64 {
    std::fs::metadata(dir.join(name))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Run one round of the daemon workload; `dir` makes it durable.
pub fn run_round(t: &Traffic, dir: Option<&Path>, report: &mut Report) -> io::Result<Round> {
    let mut round = Round::default();
    if let Some(d) = dir {
        std::fs::remove_dir_all(d).ok();
    }
    let t0 = Instant::now();
    let handle = start(dir)?;
    round.setup_s = t0.elapsed().as_secs_f64();
    let addr = handle.addr();
    let stream_lines = stream_lines(t);
    let (dba_setup, rotation) = dba_lines(t);
    let done = AtomicBool::new(false);
    let go = AtomicBool::new(false);

    struct StreamOut {
        feed_us: Samples,
        epoch_ms: Samples,
        windows_s: Samples,
        speedup: Option<f64>,
        stream_s: f64,
        feeds: u64,
        sent: u64,
        bad: Vec<String>,
        drift: String,
    }
    struct DbaOut {
        read_ms: Samples,
        sent: u64,
        bad: Vec<String>,
        stats: String,
    }

    let (s_out, d_out) = std::thread::scope(|scope| {
        let stream = scope.spawn(|| -> io::Result<StreamOut> {
            let mut c = Client::connect(addr)?;
            let mut out = StreamOut {
                feed_us: Samples::new(),
                epoch_ms: Samples::new(),
                windows_s: Samples::new(),
                speedup: None,
                stream_s: 0.0,
                feeds: 0,
                sent: 0,
                bad: Vec::new(),
                drift: String::new(),
            };
            // The first journaled command makes this durable session 1.
            let (ok, _) = c.send(&stream_lines[0])?;
            out.sent += 1;
            if !ok {
                out.bad.push("advise auto on".into());
            }
            go.store(true, Ordering::SeqCst);
            let start = Instant::now();
            let mut window = Instant::now();
            for line in &stream_lines[1..] {
                let t0 = Instant::now();
                let (ok, reply) = c.send(line)?;
                out.sent += 1;
                if !ok {
                    out.bad.push(format!("{line}: {}", reply.trim()));
                }
                if line == "epoch" {
                    out.epoch_ms.push(ms(t0));
                    if reply.contains("re-advising") {
                        out.windows_s.push(window.elapsed().as_secs_f64());
                        out.speedup = report_speedup(&reply).or(out.speedup);
                    }
                    window = Instant::now();
                } else {
                    out.feed_us.push(us(t0));
                    out.feeds += ok as u64;
                }
            }
            out.stream_s = start.elapsed().as_secs_f64();
            let (ok, drift) = c.send("drift")?;
            out.sent += 1;
            if !ok {
                out.bad.push("drift".into());
            }
            out.drift = drift;
            done.store(true, Ordering::SeqCst);
            // No `quit`: an abruptly closed durable session stays
            // restorable for `server attach`.
            Ok(out)
        });
        let dba = scope.spawn(|| -> io::Result<DbaOut> {
            let mut c = Client::connect(addr)?;
            let mut out = DbaOut {
                read_ms: Samples::new(),
                sent: 0,
                bad: Vec::new(),
                stats: String::new(),
            };
            while !go.load(Ordering::SeqCst) && !done.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            for line in &dba_setup {
                let (ok, reply) = c.send(line)?;
                out.sent += 1;
                if !ok {
                    out.bad.push(format!("{line}: {}", reply.trim()));
                }
            }
            let mut k = 0;
            while !done.load(Ordering::SeqCst) {
                let line = &rotation[k % rotation.len()];
                k += 1;
                let t0 = Instant::now();
                let (ok, reply) = c.send(line)?;
                out.read_ms.push(ms(t0));
                out.sent += 1;
                if !ok {
                    out.bad.push(format!("{line}: {}", reply.trim()));
                }
            }
            let (ok, stats) = c.send("server stats")?;
            out.sent += 1;
            if !ok {
                out.bad.push("server stats".into());
            }
            out.stats = stats;
            Ok(out)
        });
        let s = stream
            .join()
            .map_err(|_| io::Error::other("stream tenant panicked"));
        // Unblock the DBA tenant if the stream tenant failed early.
        done.store(true, Ordering::SeqCst);
        let d = dba
            .join()
            .map_err(|_| io::Error::other("DBA tenant panicked"));
        (s, d)
    });
    let s_out = s_out??;
    let d_out = d_out??;
    let stats_after = handle.shutdown()?;

    for bad in s_out.bad.iter().chain(&d_out.bad) {
        report.check(false, || format!("non-ok reply to {bad}"));
    }
    let replies = s_out.sent + d_out.sent;
    report.attempted += replies - (s_out.bad.len() + d_out.bad.len()) as u64;
    round.requests_sent = replies;
    let requests = stat(&d_out.stats, "requests");
    report.check(requests == Some(replies), || {
        format!("server stats requests {requests:?}, the tenants sent {replies}")
    });
    let errors = stat(&d_out.stats, "request_errors");
    report.check(errors == Some(0), || {
        format!("server stats request_errors {errors:?}")
    });
    // One record for the bootstrap, one `open` per tenant session, one
    // per journaled line: every stream line but the read-only `drift`,
    // plus the DBA tenant's two setup lines.
    let journaled = stream_lines.len() as u64 + dba_setup.len() as u64;
    let expect_wal = if dir.is_some() { 1 + 2 + journaled } else { 0 };
    let wal = stat(&d_out.stats, "wal_records");
    report.check(wal == Some(expect_wal), || {
        format!("server stats wal_records {wal:?}, expected {expect_wal}")
    });
    round.stats = stats_after;

    if let Some(d) = dir {
        round.on_disk_wal = dir_bytes(d, "wal.log");
        round.on_disk_snapshot = dir_bytes(d, "snapshot.v1");
        round.disk_bytes = round.on_disk_wal + round.on_disk_snapshot;
        let t0 = Instant::now();
        let handle = start(Some(d))?;
        round.restart_s = t0.elapsed().as_secs_f64();
        let mut c = Client::connect(handle.addr())?;
        let (ok, reply) = c.send("server attach 1")?;
        report.check(ok, || format!("server attach 1: {}", reply.trim()));
        let (ok, drift) = c.send("drift")?;
        report.check(ok && drift == s_out.drift, || {
            format!(
                "drift after restart `{}` differs from before `{}`",
                drift.trim(),
                s_out.drift.trim()
            )
        });
        drop(c);
        handle.shutdown()?;
        std::fs::remove_dir_all(d).ok();
    }

    round.feed_us = s_out.feed_us;
    round.epoch_ms = s_out.epoch_ms;
    round.windows_s = s_out.windows_s;
    round.speedup = s_out.speedup;
    round.stream_s = s_out.stream_s;
    round.feeds = s_out.feeds;
    round.read_ms = d_out.read_ms;
    Ok(round)
}

/// `daemon-ephemeral` / `daemon-durable`: repeat identical rounds (a
/// fresh daemon each) until the time is up; report medians over rounds.
/// The pace ticks before each round, with no daemon running, and the
/// round's timings are corrected by its factor.
pub fn run(args: &Args, data_dir: &Path, report: &mut Report) {
    let durable = args.workload == Workload::DaemonDurable;
    let t = traffic(args.seed, data_dir);
    let dir = data_dir.join("data");
    let mut pace = Pace::new();
    let mut setup = Samples::new();
    for i in 0..SETUPS {
        let fresh = durable.then(|| data_dir.join(format!("setup-{i}")));
        let t0 = Instant::now();
        match start(fresh.as_deref()) {
            Ok(h) => {
                setup.push(pace.correct(t0.elapsed().as_secs_f64()));
                report.check(h.shutdown().is_ok(), || "daemon shutdown".into());
            }
            Err(e) => report.check(false, || format!("daemon start: {e}")),
        }
        if let Some(d) = fresh {
            std::fs::remove_dir_all(d).ok();
        }
    }
    let mut windows = Samples::new();
    // sized up front so the benchmark's own buffers add no run-length
    // dependent reallocation peaks to `peak_rss_mb`
    let mut reads = Samples::with_capacity(1 << 18);
    let mut reads_raw = Samples::with_capacity(1 << 18);
    let mut feed_p50 = Samples::new();
    let mut feed_p99 = Samples::new();
    let mut round_reads = Samples::new();
    let mut round_windows = Samples::new();
    let mut epochs = Samples::new();
    let mut speedup = Samples::new();
    let mut rate = Samples::new();
    let mut restart = Samples::new();
    let mut disk = Samples::new();
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed().as_secs_f64() < args.seconds
        || rounds < 4
        || reads.len() < crate::library::MIN_READS
    {
        rounds += 1;
        pace.tick();
        let r = match run_round(&t, durable.then_some(dir.as_path()), report) {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("round {rounds}: {e}"));
                if rounds >= 4 {
                    break;
                }
                continue;
            }
        };
        if rounds == 1 {
            // warm-up: the process's first round also pays its one-time
            // costs (heap growth, first connections); not recorded
            continue;
        }
        let (windows_s, read_ms, feed_us) = (
            pace.correct_all(&r.windows_s),
            pace.correct_all(&r.read_ms),
            pace.correct_all(&r.feed_us),
        );
        setup.push(pace.correct(r.setup_s));
        windows.extend(&windows_s);
        reads.extend(&read_ms);
        reads_raw.extend(&r.read_ms);
        feed_p50.push(feed_us.median());
        feed_p99.push(feed_us.pct(99.0));
        round_reads.push(read_ms.median());
        round_windows.push(windows_s.median());
        epochs.extend(&pace.correct_all(&r.epoch_ms));
        if let Some(s) = r.speedup {
            speedup.push(s);
        }
        rate.push(r.feeds as f64 / pace.correct(r.stream_s));
        if durable {
            restart.push(pace.correct(r.restart_s));
            disk.push(r.disk_bytes as f64 / r.feeds.max(1) as f64);
        }
    }
    report.note(format!(
        "{rounds} rounds (the first a warm-up) of {} feeds (epoch every {EPOCH_EVERY}) beside a DBA tenant",
        t.statements.len()
    ));
    report.note(pace.summary());
    report.timing("setup (engine + bind)", "s", &setup);
    report.timing("text_to_design (feeds + re-advising epoch)", "s", &windows);
    report.timing("read (explain / eval)", "ms", &reads);
    report.timing("read, wall as measured", "ms", &reads_raw);
    report.note(format!(
        "  feed_us: p50 {:.2} us, p99 {:.2} us (medians over rounds of {} feeds)",
        feed_p50.median(),
        feed_p99.median(),
        t.statements.len()
    ));
    report.note(format!(
        "  per-round text_to_design medians (s): {}",
        round_windows.list(4)
    ));
    report.note(format!(
        "  per-round read medians (ms): {}",
        round_reads.list(4)
    ));
    report.timing("epoch_ms", "ms", &epochs);
    report.note(format!(
        "  feeds_per_s: {:.1} 1/s (median of {} rounds)",
        rate.median(),
        rate.len()
    ));
    if durable {
        report.timing("restart_s (reopen + recover + bind)", "s", &restart);
        report.note(format!("  disk_bytes_per_feed: {:.1} B", disk.median()));
    }
    report.metric("setup_s", setup.median());
    report.metric("text_to_design_s", windows.median());
    report.metric("design_speedup_x", speedup.median());
    report.metric("read_ms_p50", reads.median());
    report.metric("read_ms_p99", reads.pct(99.0));
}
