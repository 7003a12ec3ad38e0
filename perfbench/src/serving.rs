//! The serving layer as the benchmark drives it: the Zipf-keyed,
//! four-tenant request stream, closed-loop group-commit passes through
//! `TopKService::serve_closed`, and the open-loop phase through
//! `Server::spawn` that only the traced run measures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use emsim::{CostModel, IoReport};
use interval::Interval;
use serve::{QueryRequest, ServeConfig, ServeReply, ServeReport, Server, TopKService};
use topk_core::TopKIndex;

use crate::common::{percentile_us, Lcg, Served, Spans, StabQ, SPAN};
use crate::probes::Layers;

/// Tenant mix: tenant 0 is the whale with 60 % of the stream.
const TENANTS: [(u32, u64); 4] = [(0, 9), (1, 2), (2, 2), (3, 2)];

/// `k` menu of served requests.
const SERVE_K: [usize; 3] = [1, 10, 100];

/// Distinct hot stabbing points the Zipf keys draw from.
const HOT_POINTS: usize = 4096;

/// Group-commit batch: below the default `shed_depth` (128), so only the
/// tenant budget sheds.
pub const BATCH: usize = 32;

/// The Zipf-keyed request stream: points drawn log-uniformly over a
/// seeded list of hot points (density ∝ 1/rank), tenants by weight.
pub fn stream(seed: u64, count: usize) -> Vec<QueryRequest<StabQ>> {
    let points = workloads::intervals::stab_queries(HOT_POINTS, SPAN, seed ^ 0x5E);
    let mut rng = Lcg::new(seed ^ 0x5F);
    let total: u64 = TENANTS.iter().map(|&(_, w)| w).sum();
    (0..count)
        .map(|_| {
            let mut pick = rng.below(total);
            let tenant = TENANTS
                .iter()
                .find(|&&(_, w)| {
                    let hit = pick < w;
                    pick = pick.saturating_sub(w);
                    hit
                })
                .map_or(0, |&(t, _)| t);
            let rank = (rng.unit() * (HOT_POINTS as f64).ln()).exp() as usize;
            let k = SERVE_K[rng.below(SERVE_K.len() as u64) as usize];
            QueryRequest {
                tenant,
                query: StabQ(points[rank.min(HOT_POINTS) - 1]),
                k,
            }
        })
        .collect()
}

/// Per-tenant I/O budget per epoch of the closed-loop passes.
pub fn budget(small: bool) -> u64 {
    if small {
        400
    } else {
        8000
    }
}

/// Serving config of the closed-loop passes: defaults plus a per-tenant
/// I/O budget that sheds part of the whale's traffic.
pub fn closed_config(budget: u64) -> ServeConfig {
    ServeConfig::default()
        .with_batch_max(BATCH)
        .with_tenant_budget(budget)
}

/// What one closed-loop pass produced.
pub struct Pass {
    /// The service's counters for the pass.
    pub report: ServeReport,
    /// Index I/O charged during the pass.
    pub io: IoReport,
    /// Every reply, in request order (kept on request).
    pub replies: Vec<ServeReply<Interval>>,
}

/// One pass over `reqs` through a fresh service, so every pass over a
/// warm pool makes the same admission decisions and charges the same I/O.
pub fn closed_pass<I>(
    index: &Arc<I>,
    model: &CostModel,
    reqs: &[QueryRequest<StabQ>],
    cfg: &ServeConfig,
    lat: &mut Vec<u64>,
    mut spans: Option<&mut Spans>,
    keep: bool,
) -> Pass
where
    I: TopKIndex<Interval, f64> + Send + Sync,
{
    let svc = TopKService::new(Served(Arc::clone(index)), model.clone(), cfg.clone());
    let before = model.report();
    let mut replies = Vec::new();
    for (b, chunk) in reqs.chunks(cfg.batch_max).enumerate() {
        let t = Instant::now();
        let out = svc.serve_closed(chunk);
        let d = t.elapsed();
        // Closed loop: every request of the batch waits for the batch.
        lat.extend(std::iter::repeat_n(d.as_nanos() as u64, chunk.len()));
        if let Some(s) = spans.as_deref_mut() {
            s.record("service.batch", b as u64, t, d);
        }
        if keep {
            replies.extend(out);
        }
    }
    Pass {
        report: svc.report(),
        io: model.report().since(&before),
        replies,
    }
}

/// Requests not answered at full fidelity: coarse, shed, or faulted.
pub fn not_full(r: &ServeReport) -> u64 {
    r.coarse + r.shed
}

/// The `service.*` per-layer metrics from a traced pass.
pub fn service_layers(layers: &mut Layers, report: &ServeReport, batch_us: f64) {
    layers.set("service.batch_us", batch_us, "us");
    layers.set("service.full", report.full as f64, "count");
    layers.set("service.coarse", report.coarse as f64, "count");
    layers.set("service.shed", report.shed as f64, "count");
    layers.set(
        "service.failed_frac",
        not_full(report) as f64 / report.requests.max(1) as f64,
        "ratio",
    );
}

/// Offered rates of the open-loop phase, req/s, with their metric tags.
const RATES: [(f64, [&str; 3]); 2] = [
    (
        1000.0,
        [
            "server.p50_us.r1000",
            "server.p99_us.r1000",
            "server.degraded_frac.r1000",
        ],
    ),
    (
        4000.0,
        [
            "server.p50_us.r4000",
            "server.p99_us.r4000",
            "server.degraded_frac.r4000",
        ],
    ),
];

/// Seconds offered at each rate.
const OPEN_SECONDS: f64 = 1.0;

/// Open loop through `Server::spawn` at fixed offered rates. Latency is
/// timed from each request's due time, so a late generator counts.
pub fn open_loop<I>(layers: &mut Layers, index: &Arc<I>, model: &CostModel, seed: u64)
where
    I: TopKIndex<Interval, f64> + Send + Sync + 'static,
{
    let mut late_max = Duration::ZERO;
    for (rate, [p50, p99, degraded]) in RATES {
        let reqs = stream(seed ^ rate as u64, (rate * OPEN_SECONDS) as usize);
        let svc = TopKService::new(
            Served(Arc::clone(index)),
            model.clone(),
            ServeConfig::default(),
        );
        let server = Server::spawn(Arc::new(svc));
        let handle = server.handle();
        let t0 = Instant::now();
        let mut tickets = Vec::with_capacity(reqs.len());
        for (i, req) in reqs.into_iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let late = Instant::now().saturating_duration_since(due);
            late_max = late_max.max(late);
            tickets.push((late, handle.submit(req)));
        }
        drop(handle);
        let mut lat = Vec::with_capacity(tickets.len());
        let mut degraded_n = 0u64;
        for (late, ticket) in tickets {
            let (reply, d) = ticket.wait();
            lat.push((late + d).as_nanos() as u64);
            degraded_n += u64::from(reply.is_degraded());
        }
        server.shutdown();
        lat.sort_unstable();
        layers.set(p50, percentile_us(&lat, 0.50), "us");
        layers.set(p99, percentile_us(&lat, 0.99), "us");
        layers.set(
            degraded,
            degraded_n as f64 / lat.len().max(1) as f64,
            "ratio",
        );
    }
    layers.set("server.gen_late_max_ms", late_max.as_secs_f64() * 1e3, "ms");
}
