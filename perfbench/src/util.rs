//! Shared plumbing: the host clock, output checks, metric collection,
//! summary statistics, and the JSON the binary prints.

use coherence::RunReport;
use obs::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Host nanoseconds since the process first asked. Monotonic, so an
/// end read after a start never reads lower; the interval helpers still
/// check, because a wrong pairing of reads is exactly the bug they exist
/// to catch.
pub fn host_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A deterministic 64-bit mix (SplitMix64 finaliser), used to derive
/// per-rep machine seeds from the benchmark seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a stream of words: the determinism digests.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of every simulated (protocol-observable or exact engine-work)
/// quantity of a run. Two runs of one seed must agree on it.
pub fn stats_digest(r: &coherence::RunReport) -> u64 {
    let s = &r.stats;
    let mut h = Fnv::new();
    h.word(r.end_time);
    for &t in &r.core_end {
        h.word(t);
    }
    for (_, n) in s.msgs() {
        h.word(n);
    }
    for (_, n) in s.ops() {
        h.word(n);
    }
    for v in [
        s.tx_commits,
        s.tx_aborts(),
        s.tripped_writers,
        s.stalls,
        s.events,
        s.hops_intra,
        s.hops_cross,
    ] {
        h.word(v);
    }
    h.0
}

/// Output checks. Every check counts as attempted; a failing one is
/// counted and its first few messages are kept for the report.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    /// Folds a batch of interval checks made inside simulated or native
    /// threads: `bad` of the `total` intervals ended before they started.
    pub fn intervals(&mut self, what: &str, total: u64, bad: u64) {
        self.attempted += total;
        self.failed += bad;
        if bad > 0 && self.errors.len() < 16 {
            self.errors.push(format!(
                "{what}: {bad} of {total} intervals end before they start"
            ));
        }
    }

    /// A checked host-time interval in nanoseconds: `None` (and a failed
    /// check) when `end` precedes `start`, never a silent 0.
    pub fn host_interval(&mut self, what: &str, start: u64, end: u64) -> Option<u64> {
        let d = end.checked_sub(start);
        self.check(d.is_some(), || {
            format!("{what}: end {end} before start {start}")
        });
        d
    }
}

/// Per-thread interval accounting for code running inside a backend,
/// where a `Checks` cannot be shared. Keeps each good interval, exactly
/// (simulated percentiles must not be quantised to histogram buckets,
/// or seeds stop telling them apart) and in a histogram; counts bad ones.
#[derive(Debug, Default, Clone)]
pub struct Lat {
    pub samples: Vec<u64>,
    pub hist: Histogram,
    pub sum: u64,
    pub total: u64,
    pub bad: u64,
}

impl Lat {
    #[inline]
    pub fn record(&mut self, start: u64, end: u64) {
        self.total += 1;
        match end.checked_sub(start) {
            Some(d) => {
                self.samples.push(d);
                self.hist.record(d);
                self.sum += d;
            }
            None => self.bad += 1,
        }
    }

    pub fn merge(&mut self, o: &Lat) {
        self.samples.extend_from_slice(&o.samples);
        self.hist.merge(&o.hist);
        self.sum += o.sum;
        self.total += o.total;
        self.bad += o.bad;
    }

    /// Exact nearest-rank percentile of the kept samples (0 when empty).
    pub fn percentile(&mut self, q: f64) -> u64 {
        percentile(&mut self.samples, q)
    }
}

/// Exact nearest-rank percentile; sorts `v` in place. 0 when empty.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a sample (mean of the middle pair for even sizes); 0 for
/// an empty sample.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `a / b`, 0 when `b` is 0 (a layer the workload does not exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process, MiB, from `VmHWM`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metric values of one run, by group, each with its unit.
#[derive(Default)]
pub struct Metrics {
    /// End-to-end metrics every workload reports.
    pub e2e: BTreeMap<String, (f64, &'static str)>,
    /// End-to-end metrics only some workloads have.
    pub extra: BTreeMap<String, (f64, &'static str)>,
    /// Per-layer metrics (traced runs).
    pub layer: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn e2e(&mut self, name: &str, v: f64, unit: &'static str) {
        self.e2e.insert(name.to_string(), (v, unit));
    }

    pub fn extra(&mut self, name: &str, v: f64, unit: &'static str) {
        self.extra.insert(name.to_string(), (v, unit));
    }

    pub fn layer(&mut self, name: &str, v: f64, unit: &'static str) {
        self.layer.insert(name.to_string(), (v, unit));
    }
}

/// JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; a non-finite value is a bug in the metric arithmetic,
/// rendered as `null` so the reader rejects it rather than a guess.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn jgroup(g: &BTreeMap<String, (f64, &'static str)>) -> String {
    let items: Vec<String> = g
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                jstr(k),
                jnum(*v),
                jstr(u)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Exact simulator counts summed over a run's simulated reps.
#[derive(Default)]
pub struct Agg {
    pub events: u64,
    pub msgs: u64,
    pub getm: u64,
    pub inv: u64,
    pub fwd: u64,
    pub stalls: u64,
    pub cross: u64,
    pub commits: u64,
    pub aborts: u64,
    pub tripped: u64,
    pub atomics: u64,
    pub stack_bytes: u64,
    pub units: u64,
}

impl Agg {
    /// Adds one run that did `units` of the workload's unit of work.
    pub fn add(&mut self, r: &RunReport, units: u64) {
        let s = &r.stats;
        self.events += s.events;
        self.msgs += s.msgs().map(|(_, n)| n).sum::<u64>();
        self.getm += s.msg("GetM");
        self.inv += s.msg("Inv");
        self.fwd += s.msg("Fwd-GetS") + s.msg("Fwd-GetM");
        self.stalls += s.stalls;
        self.cross += s.hops_cross;
        self.commits += s.tx_commits;
        self.aborts += s.tx_aborts();
        self.tripped += s.tripped_writers;
        self.atomics += s.op("cas") + s.op("faa") + s.op("swap");
        self.stack_bytes = self.stack_bytes.max(s.stack_bytes_total);
        self.units += units;
    }

    /// Emits the coherence and HTM counts per unit of work.
    pub fn emit(&self, m: &mut Metrics) {
        let per = |n: u64| ratio(n as f64, self.units as f64);
        m.layer("coherence.events_per_op", per(self.events), "count");
        m.layer("coherence.msgs_per_op", per(self.msgs), "count");
        m.layer("coherence.getm_per_op", per(self.getm), "count");
        m.layer("coherence.inv_per_op", per(self.inv), "count");
        m.layer("coherence.fwd_per_op", per(self.fwd), "count");
        m.layer("coherence.stalls_per_op", per(self.stalls), "count");
        m.layer("coherence.cross_hops_per_op", per(self.cross), "count");
        m.layer(
            "coherence.stack_mib",
            self.stack_bytes as f64 / (1 << 20) as f64,
            "MiB",
        );
        m.layer(
            "htm.commit_ratio",
            ratio(self.commits as f64, (self.commits + self.aborts) as f64),
            "ratio",
        );
        m.layer("htm.aborts_per_op", per(self.aborts), "count");
        m.layer("htm.tripped_per_kop", per(self.tripped) * 1e3, "count");
    }
}
