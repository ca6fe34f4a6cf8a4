//! `imageproof-perfbench`: runs one benchmark workload against the public
//! API of the ImageProof crates and prints its metrics.
//!
//! ```text
//! imageproof-perfbench --workload <inv-mixed|shard-rpc> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with
//! observability off; with `--trace 1` it measures the per-layer metrics.
//! Accounting and percentile lines go first; the last line of standard
//! output is the JSON result (see `report.rs`). Exit code 0 means a result
//! was printed; `correct` in it says whether every check passed.

mod calib;
mod mono;
mod report;
mod rng;
mod setup;
mod sharded;
mod stats;
mod workload;

use imageproof_obs::Stopwatch;
use workload::{Outcome, RunConfig};

fn usage() -> String {
    format!(
        "usage: imageproof-perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        report::WORKLOADS.join("|")
    )
}

fn parse_args(process_start: Stopwatch) -> Result<(String, RunConfig), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((
        workload,
        RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            process_start,
        },
    ))
}

fn run(workload: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match workload {
        "inv-mixed" => mono::run(cfg),
        "shard-rpc" => sharded::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let process_start = Stopwatch::start();
    let (workload, cfg) = match parse_args(process_start) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        cfg.seed, cfg.seconds, cfg.trace as u8
    );
    let outcome = match run(&workload, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("run aborted: {e}");
            std::process::exit(1);
        }
    };
    for line in &outcome.notes {
        println!("{line}");
    }
    let phases = [
        ("setup", outcome.setup),
        ("queries", outcome.queries),
        ("writes", outcome.writes),
        ("probes", outcome.probes),
    ];
    for (name, p) in phases {
        println!(
            "{name}: attempted {} succeeded {} failed {}",
            p.attempted,
            p.succeeded(),
            p.failed
        );
    }
    let attempted: u64 = phases.iter().map(|(_, p)| p.attempted).sum();
    let failed: u64 = phases.iter().map(|(_, p)| p.failed).sum();
    let catalogue = if cfg.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let metrics: Vec<(&str, f64)> = catalogue
        .iter()
        .map(|&(name, _)| (name, outcome.metrics.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    match report::result_line(failed == 0, attempted, failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("cannot report: {e}");
            std::process::exit(1);
        }
    }
}
