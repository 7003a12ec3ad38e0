//! Shared pieces of the three workloads: the seeded stream generator,
//! latency statistics, the in-memory span recorder, the serving adapter,
//! and the brute-force answer checks.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use emsim::{EmError, IoReport, Retrier};
use interval::Interval;
use topk_core::{BatchKey, TopKAnswer, TopKIndex};

/// Search span of every generated interval set: starts in `[0, SPAN)`.
pub const SPAN: f64 = 1.0e6;

/// Block size in words for every meter (the paper's `B`).
pub const B: usize = 64;

/// The `k` menu of the read-only stream.
pub const K_MENU: [usize; 4] = [1, 10, 100, 1000];

/// Knuth's MMIX LCG with the high half folded into the low bits: the one
/// source of op mixes, `k` draws and sample picks, so a seed fixes them.
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    /// Seed the stream.
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// Next raw draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 ^ (self.0 >> 33)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// One metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked answer matched brute force.
    pub correct: bool,
    /// Operations issued in the timed phase.
    pub attempted: u64,
    /// Operations that errored or answered wrongly.
    pub failed: u64,
    /// End-to-end metrics (always filled).
    pub end_to_end: Metrics,
    /// Per-layer metrics (filled by traced runs only).
    pub per_layer: Metrics,
}

/// How a workload is asked to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer spans and probes on.
    pub trace: bool,
    /// Shrunken sizes for the repeatability tests.
    pub small: bool,
    /// Directory for file-backed stores and the written trace.
    pub data_dir: std::path::PathBuf,
}

impl RunConfig {
    /// `full` at benchmark scale, `small` under the tests.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.small {
            small
        } else {
            full
        }
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let i = ((p * sorted_ns.len() as f64) as usize).min(sorted_ns.len() - 1);
    sorted_ns[i] as f64 / 1e3
}

/// Median of a small set of durations, in seconds.
pub fn median_s(mut v: Vec<Duration>) -> f64 {
    v.sort();
    v[v.len() / 2].as_secs_f64()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of reads and writes: the paper's I/O count.
pub fn ios(r: &IoReport) -> u64 {
    r.reads + r.writes
}

/// The timed phase shared by every workload: whole passes (a fixed,
/// deterministic unit of work) until `seconds` have elapsed. Counts from
/// the first pass are the exact metrics.
pub struct Timed {
    /// Wall time of the whole phase.
    pub elapsed: Duration,
    /// Operations over all passes.
    pub ops: u64,
    /// Per pass: throughput (ops/s), p50 and p99 latency (µs).
    pub passes: Vec<[f64; 3]>,
}

/// Set-ups per run after the untimed warm-up one. Each round builds a
/// fresh instance and measures it for its share of the timed phase; the
/// figures are medians over every round's passes, so one unlucky memory
/// layout moves them less.
pub const ROUNDS: usize = 3;

/// Run `pass` (which appends one latency per op, in ns, and returns its
/// op count) until at least `seconds` have passed.
pub fn timed(seconds: f64, mut pass: impl FnMut(&mut Vec<u64>) -> u64) -> Timed {
    let mut lat_ns = Vec::new();
    let mut ops = 0;
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        lat_ns.clear();
        let t = Instant::now();
        let n = pass(&mut lat_ns);
        let rate = n as f64 / t.elapsed().as_secs_f64();
        lat_ns.sort_unstable();
        passes.push([
            rate,
            percentile_us(&lat_ns, 0.50),
            percentile_us(&lat_ns, 0.99),
        ]);
        ops += n;
    }
    Timed {
        elapsed: t0.elapsed(),
        ops,
        passes,
    }
}

/// One round's share of the timed phase. A traced run spends its first
/// half untraced and its second half traced (`measure(seconds, traced)`),
/// so both halves see the same instance.
pub fn round(
    cfg: &RunConfig,
    plain: &mut Vec<Timed>,
    traced: &mut Vec<Timed>,
    mut measure: impl FnMut(f64, bool) -> Timed,
) {
    let seconds = cfg.seconds / ROUNDS as f64;
    if cfg.trace {
        plain.push(measure(seconds / 2.0, false));
        traced.push(measure(seconds / 2.0, true));
    } else {
        plain.push(measure(seconds, false));
    }
}

/// Every round's passes as one timed phase.
pub fn merge(parts: Vec<Timed>) -> Timed {
    let mut all = Timed {
        elapsed: Duration::ZERO,
        ops: 0,
        passes: Vec::new(),
    };
    for p in parts {
        all.elapsed += p.elapsed;
        all.ops += p.ops;
        all.passes.extend(p.passes);
    }
    all
}

/// Whether every pass repeats the first pass's counts.
#[derive(Debug)]
pub struct Repeats<T> {
    /// The first pass's counts.
    pub first: Option<T>,
    /// No pass differed from the first so far.
    pub steady: bool,
}

impl<T: PartialEq> Repeats<T> {
    /// Nothing seen yet.
    pub fn new() -> Self {
        Repeats {
            first: None,
            steady: true,
        }
    }

    /// Record one pass's counts.
    pub fn see(&mut self, t: T) {
        match &self.first {
            None => self.first = Some(t),
            Some(f) => self.steady &= *f == t,
        }
    }
}

impl<T: PartialEq> Default for Repeats<T> {
    fn default() -> Self {
        Repeats::new()
    }
}

impl Timed {
    /// The throughput and latency end-to-end metrics: each the median over
    /// passes, so a burst of host contention moves it less.
    pub fn fill(&self, m: &mut Metrics) {
        let median = |i: usize| {
            let mut v: Vec<f64> = self.passes.iter().map(|p| p[i]).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        m.insert("ops_per_s", (median(0), "1/s"));
        m.insert("op_p50_us", (median(1), "us"));
        m.insert("op_p99_us", (median(2), "us"));
    }

    /// Mean latency per op, µs (the tracing-overhead base).
    pub fn mean_us(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e6 / self.ops.max(1) as f64
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// The op (request) this span belongs to.
    pub op: u64,
}

/// In-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

/// Spans kept per run; aggregates are computed from the kept ones.
const SPAN_CAP: usize = 4_000_000;

/// Spans written to the trace file (≈ 100 bytes each).
const SPAN_FILE_CAP: usize = 200_000;

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Record an already-timed span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, dur: Duration) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                op,
            });
        }
    }

    /// Append another recorder's spans (their times stay relative to
    /// their own recorder's start).
    pub fn extend(&mut self, other: Spans) {
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// `(count, mean µs)` of the spans named `name`.
    pub fn mean_us(&self, name: &str) -> (u64, f64) {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
        (
            n,
            if n == 0 {
                0.0
            } else {
                total as f64 / n as f64 / 1e3
            },
        )
    }

    /// Total seconds in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Write the first [`SPAN_FILE_CAP`] spans as Chrome trace events (one
    /// line each); the aggregates cover every span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        let kept = &self.spans[..self.spans.len().min(SPAN_FILE_CAP)];
        for (i, s) in kept.iter().enumerate() {
            let sep = if i + 1 == kept.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// A stabbing point as a service query: `f64` has no `BatchKey`, so the
/// benchmark orders batches by the point's order-preserving bit image.
#[derive(Clone, Copy, Debug)]
pub struct StabQ(pub f64);

impl BatchKey for StabQ {
    fn batch_key(&self) -> u64 {
        let bits = self.0.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
}

/// Any interval top-k index, served under [`StabQ`] keys. The fallible
/// path delegates, so reductions keep their own degradation ladders.
pub struct Served<I>(pub Arc<I>);

impl<I: TopKIndex<Interval, f64>> TopKIndex<Interval, StabQ> for Served<I> {
    fn query_topk(&self, q: &StabQ, k: usize, out: &mut Vec<Interval>) {
        self.0.query_topk(&q.0, k, out);
    }
    fn space_blocks(&self) -> u64 {
        self.0.space_blocks()
    }
    fn try_query_topk(
        &self,
        q: &StabQ,
        k: usize,
        retrier: &Retrier,
    ) -> Result<TopKAnswer<Interval>, EmError> {
        self.0.try_query_topk(&q.0, k, retrier)
    }
}

/// The exact answer's weights, heaviest first.
pub fn brute_weights(items: &[Interval], q: f64, k: usize) -> Vec<u64> {
    topk_core::brute::top_k(items, |iv| iv.stabs(q), k)
        .iter()
        .map(|iv| iv.weight)
        .collect()
}

/// Weights of a reported answer, heaviest first.
pub fn sorted_weights(out: &[Interval]) -> Vec<u64> {
    let mut w: Vec<u64> = out.iter().map(|iv| iv.weight).collect();
    w.sort_unstable_by(|a, b| b.cmp(a));
    w
}

/// Whether every reported item is in the exact answer and stabbed by `q`.
pub fn is_subset(out: &[Interval], exact: &[u64], q: f64) -> bool {
    out.iter()
        .all(|iv| iv.stabs(q) && exact.binary_search_by(|w| iv.weight.cmp(w)).is_ok())
}

/// How many of a seeded sample of `count` queries `index` answers
/// differently from brute force over `items`.
pub fn wrong_answers<I: TopKIndex<Interval, f64>>(
    index: &I,
    items: &[Interval],
    queries: &[(f64, usize)],
    seed: u64,
    count: usize,
) -> u64 {
    let mut got = Vec::new();
    sample_indices(seed, queries.len(), count)
        .into_iter()
        .filter(|&i| {
            let (q, k) = queries[i];
            got.clear();
            index.query_topk(&q, k, &mut got);
            sorted_weights(&got) != brute_weights(items, q, k)
        })
        .count() as u64
}

/// Seeded sample of `count` indices in `[0, n)`.
pub fn sample_indices(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = Lcg::new(seed ^ 0x5A4D_504C_4553);
    (0..count.min(n))
        .map(|_| rng.below(n as u64) as usize)
        .collect()
}

/// `k` drawn from [`K_MENU`].
pub fn draw_k(rng: &mut Lcg) -> usize {
    K_MENU[rng.below(K_MENU.len() as u64) as usize]
}
