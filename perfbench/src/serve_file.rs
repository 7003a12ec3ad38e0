//! `serve_file`: the rows persist to a `FileDevice` under `DeltaVByte`,
//! the store is synced, reopened (recovery) and loaded, and static
//! Theorem 2 is built on the file-backed meter with a pool that holds the
//! whole index. A Zipf-keyed four-tenant stream with a whale tenant is
//! then served closed-loop through `TopKService::serve_closed`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use emsim::{with_codec, BlockArray, CostModel, DeltaVByte, DeviceCounts, EmConfig};
use interval::{Interval, SegStab, SegStabBuilder, StabMaxBuilder};
use serve::Rung;
use topk_core::{ExpectedTopK, TopKAnswer, TopKIndex};

use crate::common::{
    brute_weights, ios, is_subset, median_s, merge, round, sample_indices, sorted_weights, timed,
    Outcome, Repeats, RunConfig, Spans, B, ROUNDS, SPAN,
};
use crate::probes::{self, file_meter, params, row, unrow, Layers, FIXED};
use crate::serving;

type StaticTopK = ExpectedTopK<Interval, f64, SegStabBuilder, StabMaxBuilder>;

/// A pool larger than any index this workload builds: every block stays
/// resident once read.
const ALL_FRAMES: usize = 1 << 21;

/// Frames of the standalone `touch` probe (the real pool's size would
/// make the probe's set-up dominate).
const PROBE_FRAMES: usize = 1 << 16;

/// Phase times and device traffic of one set-up.
#[derive(Clone, Copy, Debug, Default)]
struct SetupCost {
    total: Duration,
    persist: Duration,
    reopen: Duration,
    sync: Duration,
    device: DeviceCounts,
}

/// Persist → sync → reopen → load → build. Returns the index, its meter,
/// the loaded items, and what each phase cost.
fn setup(
    dir: &std::path::Path,
    items: &[Interval],
    seed: u64,
) -> (StaticTopK, CostModel, Vec<Interval>, SetupCost) {
    let _ = std::fs::remove_dir_all(dir);
    let rows: Vec<(u64, (u64, u64))> = items.iter().map(row).collect();
    let mut c = SetupCost::default();
    let t0 = Instant::now();
    let written = {
        let m = file_meter(dir, 0);
        with_codec(&DeltaVByte, || BlockArray::new_named(&m, "rows", rows)).expect("persist rows");
        m.device().sync().expect("sync rows");
        m.physical()
    };
    c.persist = t0.elapsed();
    let t = Instant::now();
    let model = file_meter(dir, ALL_FRAMES);
    let loaded = BlockArray::<(u64, (u64, u64))>::open_named(&model, "rows").expect("reopen rows");
    let mut data = Vec::with_capacity(loaded.len());
    loaded.scan(|r| data.push(unrow(r)));
    drop(loaded);
    c.reopen = t.elapsed();
    let index = ExpectedTopK::build(
        &model,
        SegStabBuilder,
        StabMaxBuilder,
        data.clone(),
        params(seed),
    );
    let t = Instant::now();
    model.device().sync().expect("sync index mirror");
    c.sync = t.elapsed();
    c.total = t0.elapsed();
    let after = model.physical();
    c.device = DeviceCounts {
        preads: written.preads + after.preads,
        pwrites: written.pwrites + after.pwrites,
        syncs: written.syncs + after.syncs,
        bytes_read: written.bytes_read + after.bytes_read,
        bytes_written: written.bytes_written + after.bytes_written,
    };
    (index, model, data, c)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let n = cfg.size(1 << 18, 1 << 12);
    // Endpoints snapped to the fixed-point grid the rows persist in.
    let items: Vec<Interval> = workloads::intervals::uniform(n, SPAN, SPAN / 250.0, cfg.seed)
        .iter()
        .map(|iv| {
            let snap = |x: f64| (x * FIXED).floor() / FIXED;
            Interval::new(snap(iv.lo), snap(iv.hi), iv.weight)
        })
        .collect();
    let dir = cfg
        .data_dir
        .join(format!("serve_file-store-{}", std::process::id()));
    let reqs = serving::stream(cfg.seed, cfg.size(16384, 512));
    let conf = serving::closed_config(serving::budget(cfg.small));
    let unlimited = serving::closed_config(u64::MAX);

    // The first set-up in a process is slower; it is not counted.
    drop(setup(&dir, &items, cfg.seed));
    let mut costs = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counts = Repeats::new();
    let mut first: Option<serving::Pass> = None;
    let mut spans = Spans::default();
    let mut last = None;
    for _ in 0..ROUNDS {
        drop(last.take());
        let (index, model, loaded, cost) = setup(&dir, &items, cfg.seed);
        costs.push(cost);
        let index = Arc::new(index);
        // Serving runs on the pool's hit path: one untimed pass without a
        // budget reads every block the stream needs from the file device.
        serving::closed_pass(
            &index,
            &model,
            &reqs,
            &unlimited,
            &mut Vec::new(),
            None,
            false,
        );
        round(cfg, &mut plain, &mut traced, |seconds, traced| {
            timed(seconds, |lat| {
                let spans = traced.then_some(&mut spans);
                let keep = first.is_none();
                let p = serving::closed_pass(&index, &model, &reqs, &conf, lat, spans, keep);
                counts.see((p.io, p.report.full, serving::not_full(&p.report)));
                first.get_or_insert(p);
                reqs.len() as u64
            })
        });
        last = Some((index, model, loaded));
    }
    let (index, model, loaded) = last.expect("at least one round");
    let first = first.expect("at least one pass");
    let cost = costs[costs.len() - 1];

    let mut out = Outcome::default();
    let (plain, traced) = (merge(plain), merge(traced));
    plain.fill(&mut out.end_to_end);
    let m = &mut out.end_to_end;
    m.insert(
        "setup_s",
        (median_s(costs.iter().map(|c| c.total).collect()), "s"),
    );
    m.insert(
        "space_blocks_per_kitem",
        (index.space_blocks() as f64 * 1000.0 / n as f64, "count"),
    );
    let attempted = first.report.requests as f64;
    m.insert("op_ios", (ios(&first.io) as f64 / attempted, "count"));
    m.insert(
        "full_answer_frac",
        (first.report.full as f64 / attempted, "ratio"),
    );
    out.attempted = plain.ops + traced.ops;

    // Correctness gate: the store round-trips, every sampled Full reply is
    // exact, and every sampled degraded reply is a subset of the exact
    // answer.
    let mut wrong = u64::from(loaded != items);
    for i in sample_indices(cfg.seed, reqs.len(), cfg.size(400, 128)) {
        let (req, reply) = (&reqs[i], &first.replies[i]);
        let q = req.query.0;
        let exact = brute_weights(&items, q, req.k);
        let ok = match (&reply.answer, reply.rung) {
            (TopKAnswer::Exact(got), Rung::Full) => sorted_weights(got) == exact,
            (TopKAnswer::Exact(_), _) => false,
            (TopKAnswer::Degraded { items: got, .. }, _) => is_subset(got, &exact, q),
        };
        wrong += u64::from(!ok);
    }
    if !counts.steady {
        eprintln!("serve_file: passes charged different I/O or shed counts");
    }
    out.failed = wrong + first.report.faults;
    out.correct = wrong == 0 && counts.steady;

    if cfg.trace {
        let mut layers = Layers::new(cfg, &traced, &plain);
        let (_, batch_us) = spans.mean_us("service.batch");
        serving::service_layers(&mut layers, &first.report, batch_us);
        layers.pool(&first.io, first.report.requests);
        layers.device_setup(&cost.device);
        layers.set("device.sync_ms", cost.sync.as_secs_f64() * 1e3, "ms");
        layers.set("persist.write_s", cost.persist.as_secs_f64(), "s");
        layers.set("persist.reopen_s", cost.reopen.as_secs_f64(), "s");
        let pri = SegStab::build(&CostModel::new(EmConfig::new(B)), items.clone());
        let queries: Vec<(f64, usize)> = reqs.iter().map(|r| (r.query.0, r.k)).take(2000).collect();
        let r = probes::compare(index.as_ref(), &pri, &queries);
        layers.set("theorem2.query_us", r.topk_us, "us");
        r.set_pri(&mut layers);
        drop(pri);
        probes::fill(&mut layers, cfg, &items, PROBE_FRAMES, &model, &index, true);
        layers.write_spans(&spans, "serve_file");
        out.per_layer = layers.into_metrics();
    }
    drop((index, model));
    let _ = std::fs::remove_dir_all(&dir);
    out
}
