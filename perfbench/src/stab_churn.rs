//! `stab_churn`: dynamic Theorem 2 (`ExpectedTopK` over `DynStabbing`)
//! under an interleaved insert / delete / query stream that grows the set
//! until a global 2× rebuild, then shrinks it until the next one. One
//! pass is one such cycle, so every timed phase holds whole rebuilds and
//! the amortized update cost shows in the end-to-end figures.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use emsim::{CostModel, EmConfig, IoReport};
use interval::{DynStabbing, DynStabbingBuilder, DynStabbingMaxBuilder, Interval};
use topk_core::{DynamicIndex, ExpectedTopK, TopKIndex};

use crate::common::{
    draw_k, ios, median_s, merge, round, timed, wrong_answers, Lcg, Outcome, Repeats, RunConfig,
    Spans, ROUNDS, SPAN,
};
use crate::probes::{self, fresh_interval, params, rebuilt, Layers};

type DynTopK = ExpectedTopK<Interval, f64, DynStabbingBuilder, DynStabbingMaxBuilder>;

/// Builds timed per round (the last one is measured).
const BUILDS_PER_ROUND: usize = 3;

/// Longest interval, as a share of the span (≈ 500 intervals stab a point).
const MAX_LEN: f64 = SPAN * 16.0 / 1000.0;

/// Op mix per 20 draws: `(inserts, deletes)`, the rest are queries.
const GROW: (u64, u64) = (15, 3);
const SHRINK: (u64, u64) = (3, 15);

/// The index runs without a pool; the standalone `touch` probe uses this
/// many frames.
const UNPOOLED_PROBE_FRAMES: usize = 1024;

/// The live set beside the index, for deletes and the final check.
struct Live {
    items: Vec<Interval>,
    pos: HashMap<u64, usize>,
}

impl Live {
    fn new(items: &[Interval]) -> Self {
        let pos = items
            .iter()
            .enumerate()
            .map(|(i, iv)| (iv.weight, i))
            .collect();
        Live {
            items: items.to_vec(),
            pos,
        }
    }

    fn insert(&mut self, iv: Interval) {
        self.pos.insert(iv.weight, self.items.len());
        self.items.push(iv);
    }

    fn remove_at(&mut self, i: usize) -> Interval {
        let iv = self.items.swap_remove(i);
        self.pos.remove(&iv.weight);
        if i < self.items.len() {
            self.pos.insert(self.items[i].weight, i);
        }
        iv
    }
}

/// Counts of one cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Cycle {
    ops: u64,
    io: IoReport,
    rebuilds: u64,
}

struct Churn {
    model: CostModel,
    index: DynTopK,
    live: Live,
    rng: Lcg,
    next_weight: u64,
    spans: Spans,
    traced: bool,
    ops_before: u64,
}

impl Churn {
    /// One grow-then-shrink cycle: ends at the op that triggers the second
    /// rebuild.
    fn cycle(&mut self, lat: &mut Vec<u64>, max_ops: u64) -> Cycle {
        let before = self.model.report();
        let mut c = Cycle::default();
        let mut out = Vec::with_capacity(1024);
        while c.rebuilds < 2 && c.ops < max_ops {
            let (ins, del) = if c.rebuilds == 0 { GROW } else { SHRINK };
            let r = self.rng.below(20);
            let op = self.ops_before + c.ops;
            if r < ins + del {
                let sizes = self.index.sample_sizes();
                let t = Instant::now();
                let name = if r < ins {
                    let iv = fresh_interval(&mut self.rng, self.next_weight, MAX_LEN);
                    self.next_weight += 1;
                    self.index.insert(iv);
                    self.live.insert(iv);
                    "theorem2.insert"
                } else {
                    let i = self.rng.below(self.live.items.len() as u64) as usize;
                    let w = self.live.remove_at(i).weight;
                    assert!(self.index.delete(w), "deleting a live weight");
                    "theorem2.delete"
                };
                let d = t.elapsed();
                lat.push(d.as_nanos() as u64);
                let name = if rebuilt(&sizes, &self.index.sample_sizes()) {
                    c.rebuilds += 1;
                    "theorem2.rebuild"
                } else {
                    name
                };
                if self.traced {
                    self.spans.record(name, op, t, d);
                }
            } else {
                let q = self.rng.unit() * SPAN;
                let k = draw_k(&mut self.rng);
                out.clear();
                let t = Instant::now();
                self.index.query_topk(&q, k, &mut out);
                let d = t.elapsed();
                black_box(&out);
                lat.push(d.as_nanos() as u64);
                if self.traced {
                    self.spans.record("theorem2.query", op, t, d);
                }
            }
            c.ops += 1;
        }
        self.ops_before += c.ops;
        c.io = self.model.report().since(&before);
        c
    }
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let n0 = cfg.size(1 << 15, 1 << 13);
    // Small runs use small blocks so the sample ladder is not empty.
    let b = cfg.size(64, 8);
    let items = workloads::intervals::uniform(n0, SPAN, MAX_LEN, cfg.seed);
    let build = || {
        let model = CostModel::new(EmConfig::new(b));
        let data = items.clone();
        let t = Instant::now();
        let index: DynTopK = ExpectedTopK::build(
            &model,
            DynStabbingBuilder,
            DynStabbingMaxBuilder,
            data,
            params(cfg.seed),
        );
        let took = t.elapsed();
        let space = index.space_blocks() as f64 * 1000.0 / n0 as f64;
        let churn = Churn {
            model,
            index,
            live: Live::new(&items),
            rng: Lcg::new(cfg.seed ^ 0xC4),
            next_weight: n0 as u64 + 1,
            spans: Spans::default(),
            traced: false,
            ops_before: 0,
        };
        (churn, took, space)
    };

    // The first build in a process is slower; it is not counted.
    drop(build());
    let max_ops = 40 * n0 as u64;
    let mut setup = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Every round replays the same stream, so its first cycle repeats.
    let mut firsts = Repeats::new();
    let mut cycles = Vec::new();
    let mut spans = Spans::default();
    let mut last = None;
    let mut space = 0.0;
    for _ in 0..ROUNDS {
        drop(last.take());
        // A build takes ≈ 0.1 s, so each round times several.
        let (mut churn, took, built_space) = build();
        setup.push(took);
        for _ in 1..BUILDS_PER_ROUND {
            let (again, took, _) = build();
            setup.push(took);
            churn = again;
        }
        space = built_space;
        let start = cycles.len();
        round(cfg, &mut plain, &mut traced, |seconds, traced| {
            churn.traced = traced;
            timed(seconds, |lat| {
                let c = churn.cycle(lat, max_ops);
                cycles.push(c);
                c.ops
            })
        });
        firsts.see(cycles[start]);
        spans.extend(std::mem::take(&mut churn.spans));
        last = Some(churn);
    }
    let churn = last.expect("at least one round");
    let device = churn.model.physical();
    let first = firsts.first.expect("at least one cycle");
    let rebuilds: u64 = cycles.iter().map(|c| c.rebuilds).sum();

    let mut out = Outcome::default();
    let (plain, traced) = (merge(plain), merge(traced));
    plain.fill(&mut out.end_to_end);
    let m = &mut out.end_to_end;
    m.insert("setup_s", (median_s(setup), "s"));
    m.insert("space_blocks_per_kitem", (space, "count"));
    m.insert(
        "op_ios",
        (ios(&first.io) as f64 / first.ops as f64, "count"),
    );
    m.insert("full_answer_frac", (1.0, "ratio"));
    out.attempted = plain.ops + traced.ops;
    eprintln!(
        "stab_churn: {} cycles, {rebuilds} rebuilds, {} live items at the end",
        cycles.len(),
        churn.live.items.len()
    );

    // Correctness gate against the live set after the last op.
    let queries = crate::stab_read::stream(cfg.seed ^ 0xC5, 2000);
    let wrong = wrong_answers(
        &churn.index,
        &churn.live.items,
        &queries,
        cfg.seed,
        cfg.size(200, 64),
    );
    let whole = cycles.iter().all(|c| c.rebuilds == 2);
    if !whole {
        eprintln!("stab_churn: a cycle ended without its two rebuilds");
    }
    if !firsts.steady {
        eprintln!("stab_churn: rounds charged different I/O in their first cycle");
    }
    out.failed = wrong;
    out.correct = wrong == 0 && whole && firsts.steady;

    if cfg.trace {
        let mut layers = Layers::new(cfg, &traced, &plain);
        for (span, metric) in [
            ("theorem2.query", "theorem2.query_us"),
            ("theorem2.insert", "theorem2.insert_us"),
            ("theorem2.delete", "theorem2.delete_us"),
        ] {
            layers.set(metric, spans.mean_us(span).1, "us");
        }
        let (count, _) = spans.mean_us("theorem2.rebuild");
        layers.set("theorem2.rebuilds", count as f64, "count");
        layers.set(
            "theorem2.rebuild_s",
            spans.total_s("theorem2.rebuild") / count.max(1) as f64,
            "s",
        );
        let pri = DynStabbing::build(&CostModel::new(EmConfig::new(b)), churn.live.items.clone());
        let r = probes::compare(&churn.index, &pri, &queries);
        r.set_pri(&mut layers);
        drop(pri);
        let pool = cycles.iter().fold(IoReport::default(), |a, c| a + c.io);
        layers.pool(&pool, cycles.iter().map(|c| c.ops).sum());
        layers.device_setup(&device);
        layers.write_spans(&spans, "stab_churn");
        let Churn {
            model, index, live, ..
        } = churn;
        let index = Arc::new(index);
        probes::fill(
            &mut layers,
            cfg,
            &live.items,
            UNPOOLED_PROBE_FRAMES,
            &model,
            &index,
            false,
        );
        out.per_layer = layers.into_metrics();
    }
    out
}
