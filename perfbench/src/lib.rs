//! The repository's benchmark: three workloads that each load different
//! layers of the top-k stack, their end-to-end metrics, and the traced
//! run's per-layer metrics. See `perfbench/README.md`.

pub mod common;
pub mod probes;
pub mod serve_file;
pub mod serving;
pub mod stab_churn;
pub mod stab_read;

pub use common::{Outcome, RunConfig};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["stab_read", "stab_churn", "serve_file"];

/// Run one workload by name.
pub fn run(workload: &str, cfg: &RunConfig) -> Option<Outcome> {
    match workload {
        "stab_read" => Some(stab_read::run(cfg)),
        "stab_churn" => Some(stab_churn::run(cfg)),
        "serve_file" => Some(serve_file::run(cfg)),
        _ => None,
    }
}

/// The result line: one JSON object, metrics sorted by name.
pub fn result_json(out: &Outcome, metrics: &common::Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// A finite number in full precision (`null` otherwise, which the
/// caller's checks reject).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
