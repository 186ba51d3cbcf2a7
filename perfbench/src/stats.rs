//! Sample sets, the seeded generator, and process measurements shared by
//! every workload.

use std::time::Instant;

/// Timing samples of one kind, in the unit the caller chose.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    /// The samples in order, `digits` decimals each.
    pub fn list(&self, digits: usize) -> String {
        self.0
            .iter()
            .map(|v| format!("{v:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile, `p` in [0, 100] (0 is the minimum);
    /// 0.0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// Samples strictly beyond the `p` percentile: a percentile is only
    /// reported when at least ten samples lie past it.
    pub fn beyond(&self, p: f64) -> usize {
        let cut = self.pct(p);
        self.0.iter().filter(|&&v| v > cut).count()
    }
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// SplitMix64: the benchmark's own entropy for the inputs it draws
/// (what-if designs); the program's generators take the same seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0000_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference kernel's time, in ms, on the host speed the corrected
/// timings are quoted at (about its median on a two-core shared VM).
pub const REFERENCE_MS: f64 = 35.0;
/// Repetitions of `kernel` in one pace tick.
const KERNEL_REPS: u64 = 36;

/// The reference kernel: fixed integer work of the kinds the program
/// does most (allocation, sorting, hashing, string formatting), on
/// benchmark-owned data. None of the program's code runs in it, so a
/// change to the program cannot change its time. (A variant that kept
/// its buffers across ticks tracked the host's slowdowns worse: it
/// missed those that hit allocation and memory but not arithmetic.)
fn kernel(seed: u64) -> u64 {
    let mut x = seed;
    let mut v: Vec<u64> = (0..20_000)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 11
        })
        .collect();
    v.sort_unstable();
    let mut m = std::collections::HashMap::new();
    for (i, a) in v.iter().enumerate().step_by(3) {
        *m.entry(a % 5_000).or_insert(0u64) += i as u64;
    }
    let s: String = v.iter().take(2_000).map(|a| format!("{a},")).collect();
    m.values().sum::<u64>() ^ s.len() as u64
}

/// One timed unit of work: `KERNEL_REPS` kernel runs.
fn run_kernel() {
    std::hint::black_box((0..KERNEL_REPS).fold(0, |acc, n| acc ^ kernel(n)));
}

/// Host-speed correction. The benchmark shares a host whose speed
/// moves by 10–45% over tens of seconds with other tenants' load, and
/// a run's wall times move with it. Each `tick` times the reference
/// kernel; every timing taken until the next tick is multiplied by
/// `REFERENCE_MS / kernel time`, so it reads as it would on a host that
/// runs the kernel in `REFERENCE_MS`. A program that gets slower reads
/// slower by the same share; a host that gets slower does not. Timings
/// of about a millisecond use `Probed` instead.
pub struct Pace {
    factor: f64,
    factors: Samples,
}

impl Pace {
    /// A pace already ticked once, after an untimed run of the kernel
    /// (a cold first run pays page faults and cache misses).
    pub fn new() -> Pace {
        run_kernel();
        let mut p = Pace {
            factor: 1.0,
            factors: Samples::new(),
        };
        p.tick();
        p
    }

    /// Time the reference kernel and set the factor for the timings
    /// that follow.
    pub fn tick(&mut self) {
        let t0 = Instant::now();
        run_kernel();
        self.factor = REFERENCE_MS / ms(t0);
        self.factors.push(self.factor);
    }

    /// `raw` (any time unit) corrected to the reference host speed.
    pub fn correct(&self, raw: f64) -> f64 {
        raw * self.factor
    }

    /// Every sample of `raw` corrected.
    pub fn correct_all(&self, raw: &Samples) -> Samples {
        Samples(raw.0.iter().map(|&v| self.correct(v)).collect())
    }

    /// One line: how far the host's speed moved during the run.
    pub fn summary(&self) -> String {
        format!(
            "host-speed factor (reference kernel {REFERENCE_MS} ms / its time): p50 {:.3}, min {:.3}, max {:.3} (n={}); timings are wall times times the factor of their tick",
            self.factors.median(),
            self.factors.pct(0.0),
            self.factors.pct(100.0),
            self.factors.len()
        )
    }
}

/// Probes either side of a short timing's own whose median sets its
/// correction.
const PROBE_WINDOW: usize = 2;

/// Host-speed correction for timings of about a millisecond (what-if
/// reads), where bursts of host load a few tens of milliseconds long
/// set the p99: in one `dba-autopart` run the slowest 1% of reads came
/// in bursts of consecutive reads, and the kernel run after each of
/// them took 1.4–1.9 times its median. Each timing is followed by one
/// kernel run, its probe; `drain` multiplies each timing by
/// `REFERENCE_MS / KERNEL_REPS` over the median of the probes within
/// `PROBE_WINDOW` of its own.
#[derive(Default)]
pub struct Probed {
    raw: Vec<f64>,
    probes: Vec<f64>,
}

impl Probed {
    /// Time `f` in ms, then probe.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.raw.push(ms(t0));
        let t1 = Instant::now();
        std::hint::black_box(kernel(0));
        self.probes.push(ms(t1));
        out
    }

    /// Move the timings so far, corrected, to `corrected`, and as
    /// measured to `raw`. Called at the end of each batch of timings,
    /// so no window reaches across the work between batches.
    pub fn drain(&mut self, corrected: &mut Samples, raw: &mut Samples) {
        let per_run = REFERENCE_MS / KERNEL_REPS as f64;
        for (i, &t) in self.raw.iter().enumerate() {
            let lo = i.saturating_sub(PROBE_WINDOW);
            let hi = (i + PROBE_WINDOW + 1).min(self.probes.len());
            let window = Samples(self.probes[lo..hi].to_vec());
            corrected.push(t * per_run / window.median());
            raw.push(t);
        }
        self.raw.clear();
        self.probes.clear();
    }
}

/// The process's high-water resident set in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
