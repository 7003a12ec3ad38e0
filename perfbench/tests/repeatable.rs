//! The count metrics must repeat exactly for one seed, whatever the
//! timing: the benchmark compares them across commits as exact values.
//! Every workload also has to pass its own correctness gate, and print
//! exactly the metrics `BENCHMARK.json` names.

use std::collections::BTreeSet;
use std::path::PathBuf;

use perfbench::{run, Outcome, RunConfig, WORKLOADS};

/// Metrics that are counts of a fixed, seeded unit of work.
const EXACT: [&str; 3] = ["op_ios", "full_answer_frac", "space_blocks_per_kitem"];

/// Run a small-scale workload in its own temporary directory.
fn small_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let data_dir: PathBuf = std::env::temp_dir().join(format!(
        "perfbench-test-{workload}-{seed}-{trace}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&data_dir).expect("test data dir");
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        small: true,
        data_dir: data_dir.clone(),
    };
    let out = run(workload, &cfg).expect("known workload");
    std::fs::remove_dir_all(&data_dir).expect("remove test data dir");
    out
}

/// The metric names of one list in `BENCHMARK.json`.
fn spec_names(list: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
    let start = spec.find(&format!("\"{list}\"")).expect("list present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn count_metrics_repeat_exactly_for_one_seed() {
    for workload in WORKLOADS {
        // Different run lengths: the counts must not depend on how many
        // passes fit in the timed phase.
        let a = small_run(workload, 7, 0.05, false);
        let b = small_run(workload, 7, 0.4, false);
        assert!(
            a.correct && b.correct,
            "{workload}: correctness gate failed"
        );
        assert_eq!(a.failed, 0, "{workload}: failed ops");
        for name in EXACT {
            let (x, y) = (a.end_to_end[name].0, b.end_to_end[name].0);
            assert!(x > 0.0, "{workload}: {name} is zero");
            assert_eq!(x.to_bits(), y.to_bits(), "{workload}: {name} {x} vs {y}");
        }
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let a = small_run("stab_read", 1, 0.05, false);
    let b = small_run("stab_read", 2, 0.05, false);
    assert_ne!(a.end_to_end["op_ios"].0, b.end_to_end["op_ios"].0);
}

#[test]
fn every_workload_prints_the_named_metrics() {
    let mut end_to_end = spec_names("end_to_end");
    // Added by the binary, which owns the process.
    assert!(end_to_end.remove("peak_rss_mb"));
    let per_layer = spec_names("per_layer");
    for workload in WORKLOADS {
        let out = small_run(workload, 3, 0.2, true);
        assert!(out.correct, "{workload}: correctness gate failed");
        let got: BTreeSet<String> = out.end_to_end.keys().map(ToString::to_string).collect();
        assert_eq!(got, end_to_end, "{workload}: end-to-end metrics");
        let got: BTreeSet<String> = out.per_layer.keys().map(ToString::to_string).collect();
        assert_eq!(got, per_layer, "{workload}: per-layer metrics");
        for (name, (value, _)) in out.end_to_end.iter().chain(&out.per_layer) {
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        if workload == "stab_churn" {
            assert!(
                out.per_layer["theorem2.rebuilds"].0 >= 1.0,
                "no rebuild while traced"
            );
        }
    }
}
