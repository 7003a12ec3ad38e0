//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its result as the last line of stdout.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(workload), Some(seed), Some(seconds)) =
        (get("--workload"), get("--seed"), get("--seconds"))
    else {
        eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> [--trace 0|1] [--data-dir <dir>]");
        return ExitCode::from(2);
    };
    let (Ok(seed), Ok(seconds)) = (seed.parse::<u64>(), seconds.parse::<f64>()) else {
        eprintln!("--seed must be an integer and --seconds a number");
        return ExitCode::from(2);
    };
    let trace = get("--trace").as_deref() == Some("1");
    let data_dir =
        std::path::PathBuf::from(get("--data-dir").unwrap_or_else(|| ".perfbench-data".into()));
    if let Err(e) = std::fs::create_dir_all(&data_dir) {
        eprintln!("cannot create {}: {e}", data_dir.display());
        return ExitCode::from(2);
    }
    let cfg = perfbench::RunConfig {
        seed,
        seconds,
        trace,
        small: false,
        data_dir,
    };
    let Some(out) = perfbench::run(&workload, &cfg) else {
        eprintln!(
            "unknown workload {workload:?}; expected one of {:?}",
            perfbench::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let mut metrics = if trace {
        out.per_layer.clone()
    } else {
        out.end_to_end.clone()
    };
    if !trace {
        metrics.insert("peak_rss_mb", (perfbench::common::peak_rss_mb(), "MB"));
    }
    for (name, (value, unit)) in &metrics {
        eprintln!("{name:>28} {value:>16.4} {unit}");
    }
    println!("{}", perfbench::result_json(&out, &metrics));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
