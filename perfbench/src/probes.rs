//! Per-layer metrics of the traced run. A workload sets the metrics of
//! the layers its timed phase drives; [`fill`] then measures every layer
//! still missing with a small standalone probe over the workload's own
//! items (at most [`PROBE_N`] of them), so each traced run reports the
//! same metric set.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use emsim::codec::BlockCodec;
use emsim::{
    with_codec, BlockArray, BlockDevice, BlockId, CostModel, DeltaVByte, DeviceCounts, EmConfig,
    FaultPlan, FileDevice, IoReport, MemDevice, PoolPolicy,
};
use interval::{
    DynStabbing, DynStabbingBuilder, DynStabbingMaxBuilder, Interval, PstStab, SegStabBuilder,
    StabMaxBuilder, TopKStabbingWorstCase,
};
use topk_core::{DynamicIndex, ExpectedTopK, PrioritizedIndex, Theorem2Params, TopKIndex};

use crate::common::{Lcg, Metrics, RunConfig, Spans, Timed, B, SPAN};
use crate::serving;
use crate::stab_read;

/// Items a standalone probe builds over.
pub const PROBE_N: usize = 1 << 16;

/// The per-layer metric set under construction.
pub struct Layers {
    m: Metrics,
    trace_dir: std::path::PathBuf,
    seed: u64,
}

impl Layers {
    /// Start from the traced and untraced halves of the timed phase: their
    /// difference is the tracing overhead.
    pub fn new(cfg: &RunConfig, traced: &Timed, plain: &Timed) -> Self {
        let mut m = Metrics::new();
        let overhead = (traced.mean_us() / plain.mean_us() - 1.0) * 100.0;
        m.insert("trace.overhead_pct", (overhead, "%"));
        let mut e2e = Metrics::new();
        traced.fill(&mut e2e);
        eprintln!(
            "traced half: ops_per_s={:.1} op_p50_us={:.3} op_p99_us={:.3} ({} ops); \
             untraced half: ops_per_s={:.1}; tracing overhead {overhead:.2} %",
            e2e["ops_per_s"].0,
            e2e["op_p50_us"].0,
            e2e["op_p99_us"].0,
            traced.ops,
            plain.ops as f64 / plain.elapsed.as_secs_f64(),
        );
        Layers {
            m,
            trace_dir: cfg.data_dir.clone(),
            seed: cfg.seed,
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.m.insert(name, (value, unit));
    }

    /// Whether a metric is set.
    pub fn has(&self, name: &str) -> bool {
        self.m.contains_key(name)
    }

    /// Pool traffic per op from an `IoReport` delta.
    pub fn pool(&mut self, r: &IoReport, ops: u64) {
        let ops = ops.max(1) as f64;
        self.set("pool.reads_per_op", r.reads as f64 / ops, "count");
        self.set("pool.hits_per_op", r.pool_hits as f64 / ops, "count");
        self.set("pool.misses_per_op", r.pool_misses as f64 / ops, "count");
        self.set("pool.hit_rate", r.hit_rate(), "ratio");
    }

    /// Device traffic of one set-up.
    pub fn device_setup(&mut self, d: &DeviceCounts) {
        self.set("device.mirror_writes", d.pwrites as f64, "count");
        self.set("device.write_bytes", d.bytes_written as f64, "B");
    }

    /// Write the recorded spans next to the other run outputs.
    pub fn write_spans(&self, spans: &Spans, workload: &str) {
        let path = self
            .trace_dir
            .join(format!("trace-{workload}-{}.json", self.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    /// The finished metric set.
    pub fn into_metrics(self) -> Metrics {
        self.m
    }
}

/// Measure every layer the workload's timed phase left unset.
pub fn fill<I>(
    layers: &mut Layers,
    cfg: &RunConfig,
    items: &[Interval],
    frames: usize,
    model: &CostModel,
    index: &Arc<I>,
    file_device: bool,
) where
    I: TopKIndex<Interval, f64> + Send + Sync + 'static,
{
    let sample = &items[..items.len().min(PROBE_N)];
    let queries = stab_read::stream(cfg.seed ^ 0x9B, 2000);
    if !layers.has("theorem1.query_us") {
        let m = CostModel::new(EmConfig::new(B));
        let t1 = TopKStabbingWorstCase::build(&m, sample.to_vec(), cfg.seed);
        let pst = PstStab::build(&m, sample.to_vec());
        let r = compare(&t1, &pst, &queries);
        layers.set("theorem1.query_us", r.topk_us, "us");
        layers.set("theorem1.overhead_x", r.overhead_x(), "x");
    }
    if !layers.has("theorem2.query_us") {
        let m = CostModel::new(EmConfig::new(B));
        let t2 = ExpectedTopK::build(
            &m,
            SegStabBuilder,
            StabMaxBuilder,
            sample.to_vec(),
            params(cfg.seed),
        );
        let us = time_queries(&t2, &queries);
        layers.set("theorem2.query_us", us, "us");
    }
    if !layers.has("theorem2.insert_us") {
        update_probe(layers, sample, cfg.seed);
    }
    dyn_insert_probe(layers, sample, cfg.seed);
    touch_probe(layers, frames);
    select_probe(layers, sample);
    device_probe(layers, cfg, file_device);
    codec_probe(layers, sample);
    if !layers.has("persist.write_s") {
        persist_probe(layers, cfg, sample);
    }
    if !layers.has("service.batch_us") {
        let reqs = serving::stream(cfg.seed, 4096);
        let conf = serving::closed_config(serving::budget(cfg.small));
        let mut spans = Spans::default();
        let mut lat = Vec::new();
        let pass = serving::closed_pass(
            index,
            model,
            &reqs,
            &conf,
            &mut lat,
            Some(&mut spans),
            false,
        );
        let (_, batch_us) = spans.mean_us("service.batch");
        serving::service_layers(layers, &pass.report, batch_us);
    }
    serving::open_loop(layers, index, model, cfg.seed);
}

/// Theorem 2 parameters under a run seed.
pub fn params(seed: u64) -> Theorem2Params {
    Theorem2Params {
        seed,
        ..Theorem2Params::default()
    }
}

/// Mean µs of `query_topk` over the probe queries.
pub fn time_queries<I: TopKIndex<Interval, f64>>(index: &I, queries: &[(f64, usize)]) -> f64 {
    let mut out = Vec::new();
    let t = Instant::now();
    for &(q, k) in queries {
        out.clear();
        index.query_topk(&q, k, &mut out);
        black_box(&out);
    }
    t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
}

/// A top-k index against its prioritized structure at the answer's
/// k-th weight.
pub struct Compare {
    /// Mean top-k query, µs.
    pub topk_us: f64,
    /// Mean prioritized query at τ, µs.
    pub pri_us: f64,
    /// Mean items the prioritized query reported.
    pub reported: f64,
}

impl Compare {
    /// The reduction's time over the ideal prioritized query.
    pub fn overhead_x(&self) -> f64 {
        self.topk_us / self.pri_us.max(1e-9)
    }

    /// Set the `pri.*` metrics.
    pub fn set_pri(&self, layers: &mut Layers) {
        layers.set("pri.query_us_at_tau", self.pri_us, "us");
        layers.set("pri.reported_per_query", self.reported, "count");
    }
}

/// Time each query as top-k on `index`, then as one prioritized query
/// with τ = the answer's k-th weight (0 when fewer than k qualify).
pub fn compare<I, P>(index: &I, pri: &P, queries: &[(f64, usize)]) -> Compare
where
    I: TopKIndex<Interval, f64>,
    P: PrioritizedIndex<Interval, f64>,
{
    let (mut t_topk, mut t_pri, mut reported) = (0u128, 0u128, 0usize);
    let mut got = Vec::new();
    let mut out = Vec::new();
    for &(q, k) in queries {
        got.clear();
        let t = Instant::now();
        index.query_topk(&q, k, &mut got);
        t_topk += t.elapsed().as_nanos();
        let tau = if got.len() == k {
            got.iter().map(|iv| iv.weight).min().unwrap_or(0)
        } else {
            0
        };
        out.clear();
        let t = Instant::now();
        pri.query(&q, tau, &mut out);
        t_pri += t.elapsed().as_nanos();
        reported += out.len();
        black_box((&got, &out));
    }
    let s = queries.len().max(1) as f64;
    Compare {
        topk_us: t_topk as f64 / s / 1e3,
        pri_us: t_pri as f64 / s / 1e3,
        reported: reported as f64 / s,
    }
}

/// A fresh interval with a weight no generator hands out (`base + i`).
pub fn fresh_interval(rng: &mut Lcg, weight: u64, max_len: f64) -> Interval {
    let lo = rng.unit() * SPAN;
    Interval::new(lo, lo + rng.unit() * max_len, weight)
}

/// Whether an update rebuilt Theorem 2: a plain insert or delete moves
/// each sample by at most one element, a rebuild resamples them all.
pub fn rebuilt(before: &[usize], after: &[usize]) -> bool {
    before.len() != after.len() || before.iter().zip(after).any(|(&a, &b)| a.abs_diff(b) > 1)
}

/// Dynamic Theorem 2 on a small sample: inserts until one rebuild, then
/// deletes.
fn update_probe(layers: &mut Layers, sample: &[Interval], seed: u64) {
    let base = &sample[..sample.len().min(1 << 13)];
    let m = CostModel::new(EmConfig::new(B));
    let mut t2 = ExpectedTopK::build(
        &m,
        DynStabbingBuilder,
        DynStabbingMaxBuilder,
        base.to_vec(),
        params(seed),
    );
    let mut rng = Lcg::new(seed ^ 0xD1);
    let (mut ins_ns, mut ins_n, mut rebuild_s, mut rebuilds) = (0u128, 0u64, 0.0, 0u64);
    let mut w = u64::MAX / 2;
    while rebuilds == 0 && ins_n < 4 * base.len() as u64 {
        w += 1;
        let iv = fresh_interval(&mut rng, w, SPAN / 1000.0);
        let before = t2.sample_sizes();
        let t = Instant::now();
        t2.insert(iv);
        let d = t.elapsed();
        if rebuilt(&before, &t2.sample_sizes()) {
            rebuilds += 1;
            rebuild_s += d.as_secs_f64();
        } else {
            ins_ns += d.as_nanos();
            ins_n += 1;
        }
    }
    let t = Instant::now();
    let dels = 2000u64.min(ins_n);
    for i in 0..dels {
        t2.delete(u64::MAX / 2 + 1 + i);
    }
    let del_us = t.elapsed().as_secs_f64() * 1e6 / dels.max(1) as f64;
    layers.set(
        "theorem2.insert_us",
        ins_ns as f64 / ins_n.max(1) as f64 / 1e3,
        "us",
    );
    layers.set("theorem2.delete_us", del_us, "us");
    layers.set("theorem2.rebuilds", rebuilds as f64, "count");
    layers.set(
        "theorem2.rebuild_s",
        rebuild_s / rebuilds.max(1) as f64,
        "s",
    );
}

/// `DynStabbing` alone: inserts into a structure built on the sample.
fn dyn_insert_probe(layers: &mut Layers, sample: &[Interval], seed: u64) {
    let m = CostModel::new(EmConfig::new(B));
    let mut d = DynStabbing::build(&m, sample.to_vec());
    let mut rng = Lcg::new(seed ^ 0xD2);
    let count = 20_000u64;
    let t = Instant::now();
    for i in 0..count {
        d.insert(fresh_interval(&mut rng, u64::MAX / 2 + i, SPAN / 1000.0));
    }
    layers.set(
        "dyn.insert_us",
        t.elapsed().as_secs_f64() * 1e6 / count as f64,
        "us",
    );
}

/// `CostModel::touch` on a standalone meter with the workload's pool size:
/// a resident working set (hits) and a cyclic one a frame too large (LRU
/// misses every time).
fn touch_probe(layers: &mut Layers, frames: usize) {
    let frames = frames.max(1) as u64;
    let touches = 1_000_000u64;
    let m = CostModel::new(EmConfig::with_memory(B, frames as usize));
    for b in 0..frames {
        m.touch(0, b);
    }
    let t = Instant::now();
    for i in 0..touches {
        m.touch(0, i % frames);
    }
    let hit = t.elapsed().as_nanos() as f64 / touches as f64;
    let t = Instant::now();
    for i in 0..touches {
        m.touch(1, i % (frames + 1));
    }
    let miss = t.elapsed().as_nanos() as f64 / touches as f64;
    layers.set("pool.touch_hit_ns", hit, "ns");
    layers.set("pool.touch_miss_ns", miss, "ns");
}

/// `top_k_by_weight` on the active kernel backend at the candidate size
/// the workload's prioritized queries report.
fn select_probe(layers: &mut Layers, sample: &[Interval]) {
    let size = layers
        .m
        .get("pri.reported_per_query")
        .map_or(1024, |&(v, _)| v as usize)
        .clamp(64, sample.len().max(64));
    let cand: Vec<Interval> = sample.iter().take(size).copied().collect();
    let m = CostModel::new(EmConfig::new(B));
    let reps = (4_000_000 / cand.len().max(1)).max(1);
    let t = Instant::now();
    for r in 0..reps {
        let k = 1 + r % cand.len().max(1);
        black_box(emsim::select::top_k_by_weight(
            &m,
            &cand,
            k.min(1000),
            |iv| iv.weight,
        ));
    }
    let per = t.elapsed().as_nanos() as f64 / (reps * cand.len()).max(1) as f64;
    layers.set("select.ns_per_elem", per, "ns");
}

/// Raw block writes and one sync on the workload's device class.
fn device_probe(layers: &mut Layers, cfg: &RunConfig, file_device: bool) {
    let dir = cfg
        .data_dir
        .join(format!("probe-device-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dev: Box<dyn BlockDevice> = if file_device {
        Box::new(FileDevice::open(&dir).expect("probe device opens"))
    } else {
        Box::new(MemDevice::new())
    };
    let payload = vec![0xA5u8; B * 8];
    let writes = 20_000u64;
    let t = Instant::now();
    for b in 0..writes {
        dev.write(
            BlockId {
                ns: 1,
                array: 1,
                block: b,
            },
            &payload,
        )
        .expect("probe write");
    }
    let write_ns = t.elapsed().as_nanos() as f64 / writes as f64;
    let t = Instant::now();
    dev.sync().expect("probe sync");
    let sync_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(dev);
    let _ = std::fs::remove_dir_all(&dir);
    layers.set("device.write_ns", write_ns, "ns");
    if !layers.has("device.sync_ms") {
        layers.set("device.sync_ms", sync_ms, "ms");
    }
}

/// Fixed-point scale of persisted endpoints.
pub const FIXED: f64 = 1024.0;

/// The persisted row of an interval: weight, then both endpoints in
/// fixed point (exact for endpoints on the [`FIXED`] grid).
pub fn row(iv: &Interval) -> (u64, (u64, u64)) {
    (iv.weight, ((iv.lo * FIXED) as u64, (iv.hi * FIXED) as u64))
}

/// The interval a persisted row stores.
pub fn unrow(&(w, (lo, hi)): &(u64, (u64, u64))) -> Interval {
    Interval::new(lo as f64 / FIXED, hi as f64 / FIXED, w)
}

/// `DeltaVByte` over the sample's rows, one block image at a time.
fn codec_probe(layers: &mut Layers, sample: &[Interval]) {
    let mut raw = Vec::with_capacity(sample.len() * 24);
    for iv in sample {
        let (w, (lo, hi)) = row(iv);
        for x in [w, lo, hi] {
            raw.extend_from_slice(&x.to_le_bytes());
        }
    }
    let block = B * 8;
    let codec = DeltaVByte;
    let reps = 8;
    let t = Instant::now();
    let mut encoded = Vec::new();
    for _ in 0..reps {
        encoded = raw
            .chunks(block)
            .map(|c| codec.encode(c))
            .collect::<Vec<_>>();
    }
    let enc_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..reps {
        for c in &encoded {
            black_box(codec.decode(c).expect("codec round trip"));
        }
    }
    let dec_s = t.elapsed().as_secs_f64();
    let mb = (raw.len() * reps) as f64 / 1e6;
    let enc_bytes: usize = encoded.iter().map(Vec::len).sum();
    layers.set("codec.encode_mb_s", mb / enc_s, "MB/s");
    layers.set("codec.decode_mb_s", mb / dec_s, "MB/s");
    layers.set(
        "codec.ratio",
        raw.len() as f64 / enc_bytes.max(1) as f64,
        "x",
    );
}

/// Persist the sample's rows on a file device, then reopen and load them.
fn persist_probe(layers: &mut Layers, cfg: &RunConfig, sample: &[Interval]) {
    let dir = cfg
        .data_dir
        .join(format!("probe-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rows: Vec<(u64, (u64, u64))> = sample.iter().map(row).collect();
    let t = Instant::now();
    {
        let m = file_meter(&dir, 0);
        with_codec(&DeltaVByte, || BlockArray::new_named(&m, "rows", rows)).expect("persist rows");
        m.device().sync().expect("sync rows");
    }
    layers.set("persist.write_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    {
        let m = file_meter(&dir, 0);
        let arr = BlockArray::<(u64, (u64, u64))>::open_named(&m, "rows").expect("reopen rows");
        black_box(arr.len());
    }
    layers.set("persist.reopen_s", t.elapsed().as_secs_f64(), "s");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A meter over a file device in `dir` (opening it runs recovery).
pub fn file_meter(dir: &std::path::Path, frames: usize) -> CostModel {
    let dev = FileDevice::open(dir).expect("file device opens");
    CostModel::with_device(
        EmConfig::with_memory(B, frames),
        FaultPlan::none(),
        PoolPolicy::default(),
        Arc::new(dev),
    )
}
