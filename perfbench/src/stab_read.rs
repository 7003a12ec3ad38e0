//! `stab_read`: Theorem 1 (`TopKStabbingWorstCase`) over ~2^20 short
//! uniform intervals on the default in-memory device, behind an LRU pool
//! far smaller than the index. Read-only, one closed-loop client.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use emsim::{CostModel, EmConfig, IoReport};
use interval::{PstStab, TopKStabbingWorstCase};
use topk_core::TopKIndex;

use crate::common::{
    draw_k, ios, median_s, merge, round, sample_indices, timed, wrong_answers, Lcg, Outcome,
    Repeats, RunConfig, Spans, B, ROUNDS, SPAN,
};
use crate::probes::{self, Layers};

/// The read-only stream: stabbing points and their `k`s.
pub fn stream(seed: u64, count: usize) -> Vec<(f64, usize)> {
    let points = workloads::intervals::stab_queries(count, SPAN, seed ^ 0x51);
    let mut rng = Lcg::new(seed ^ 0x52);
    points.into_iter().map(|q| (q, draw_k(&mut rng))).collect()
}

/// One pass over the stream from a cold pool; returns its I/O.
fn pass(
    model: &CostModel,
    index: &TopKStabbingWorstCase,
    queries: &[(f64, usize)],
    lat: &mut Vec<u64>,
    mut spans: Option<&mut Spans>,
) -> IoReport {
    model.clear_pool();
    let before = model.report();
    let mut out = Vec::with_capacity(1024);
    for (i, &(q, k)) in queries.iter().enumerate() {
        out.clear();
        let t = Instant::now();
        index.query_topk(&q, k, &mut out);
        let d = t.elapsed();
        black_box(&out);
        lat.push(d.as_nanos() as u64);
        if let Some(s) = spans.as_deref_mut() {
            s.record("theorem1.query", i as u64, t, d);
        }
    }
    model.report().since(&before)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let n = cfg.size(1 << 20, 1 << 13);
    let frames = cfg.size(4096, 64);
    let items = workloads::intervals::uniform(n, SPAN, SPAN / 1000.0, cfg.seed);
    let queries = stream(cfg.seed, cfg.size(8192, 256));
    let build = || {
        let model = CostModel::new(EmConfig::with_memory(B, frames));
        let data = items.clone();
        let t = Instant::now();
        let index = TopKStabbingWorstCase::build(&model, data, cfg.seed);
        (model, index, t.elapsed())
    };

    // The first build in a process is slower; it is not counted.
    drop(build());
    let mut setup = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut counts = Repeats::new();
    let mut spans = Spans::default();
    let mut last = None;
    for _ in 0..ROUNDS {
        drop(last.take());
        let (model, index, took) = build();
        setup.push(took);
        // Every pass starts from a cold pool, so every pass charges the
        // same I/O.
        round(cfg, &mut plain, &mut traced, |seconds, traced| {
            timed(seconds, |lat| {
                let spans = traced.then_some(&mut spans);
                counts.see(pass(&model, &index, &queries, lat, spans));
                queries.len() as u64
            })
        });
        last = Some((model, index));
    }
    let (model, index) = last.expect("at least one round");
    let device = model.physical();
    let first = counts.first.expect("at least one pass");

    let mut out = Outcome::default();
    let (plain, traced) = (merge(plain), merge(traced));
    plain.fill(&mut out.end_to_end);
    let m = &mut out.end_to_end;
    m.insert("setup_s", (median_s(setup), "s"));
    m.insert(
        "space_blocks_per_kitem",
        (index.space_blocks() as f64 * 1000.0 / n as f64, "count"),
    );
    m.insert(
        "op_ios",
        (ios(&first) as f64 / queries.len() as f64, "count"),
    );
    m.insert("full_answer_frac", (1.0, "ratio"));
    out.attempted = plain.ops + traced.ops;

    // Correctness gate, outside the timed phase.
    let wrong = wrong_answers(&index, &items, &queries, cfg.seed, cfg.size(200, 64));
    if !counts.steady {
        eprintln!("stab_read: passes charged different I/O counts");
    }
    out.failed = wrong;
    out.correct = wrong == 0 && counts.steady;

    if cfg.trace {
        let mut layers = Layers::new(cfg, &traced, &plain);
        let (_, q_us) = spans.mean_us("theorem1.query");
        layers.set("theorem1.query_us", q_us, "us");
        let pst = PstStab::build(&CostModel::new(EmConfig::new(B)), items.clone());
        let sample: Vec<(f64, usize)> = sample_indices(cfg.seed ^ 0x7A, queries.len(), 2000)
            .into_iter()
            .map(|i| queries[i])
            .collect();
        let r = probes::compare(&index, &pst, &sample);
        layers.set("theorem1.overhead_x", r.overhead_x(), "x");
        r.set_pri(&mut layers);
        drop(pst);
        layers.pool(&first, queries.len() as u64);
        layers.device_setup(&device);
        let index = Arc::new(index);
        probes::fill(&mut layers, cfg, &items, frames, &model, &index, false);
        layers.write_spans(&spans, "stab_read");
        out.per_layer = layers.into_metrics();
    }
    out
}
