//! Served-engine benchmark for the Data-CASE engine.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ycsb-b-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run repeats whole trials (spawn, load,
//! transaction phase, erasures, shutdown, correctness gate) for
//! `--seconds` and prints the end-to-end metrics. With `--trace 1` it
//! replays one trial's request stream at three entry points — the wire,
//! an in-process engine handle, and one frontend per shard — and prints
//! the per-layer metrics. The last line of standard output is the
//! result as one JSON object; the process exits non-zero if any output
//! was wrong. See `perfbench/README.md` for the workloads and metrics.

mod gate;
mod outcome;
mod report;
mod served;
mod stats;
mod trace;
mod wire;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Report;
use workload::Workload;

/// Trials a measuring run makes at least after the warm-up, however
/// long they take.
const MIN_TRIALS: usize = 3;
/// Leading trials that warm the process (allocator, page cache, lazily
/// built tables) and are checked and counted but left out of the
/// timings.
const WARMUP_TRIALS: usize = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Run the untraced trials for `seconds` and report the end-to-end
/// metrics.
pub fn measure(workload: Workload, quick: bool, seed: u64, seconds: u64) -> Report {
    let sizes = workload.sizes(quick);
    let streams = workload::streams(workload, &sizes, seed);
    let mut report = Report::new(workload, seed);
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut trials = Vec::new();
    while trials.len() < WARMUP_TRIALS + MIN_TRIALS || started.elapsed() < budget {
        let mut trial = served::trial(workload, &sizes, &streams, false);
        // Replies are checked in every trial; the end-of-run gate, whose
        // chain and checker passes cost about as much as a trial, runs on
        // the last one.
        let last = trials.len() + 1 >= WARMUP_TRIALS + MIN_TRIALS && started.elapsed() >= budget;
        if last {
            gate::check(
                workload,
                &sizes,
                quick,
                &streams,
                &mut trial.frontends,
                &mut trial.breaches,
            );
        }
        trial.frontends.clear();
        trials.push(trial);
        if trials.len() == 1 {
            // Later trials reuse (and fragment) what the allocator kept,
            // so the first trial's peak is the one comparable across runs.
            report.peak_rss_mb = report::peak_rss_mb();
        }
    }
    report.end_to_end(&trials, WARMUP_TRIALS);
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        trace::run(args.workload, false, args.seed)
    } else {
        measure(args.workload, false, args.seed, args.seconds)
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names `BENCHMARK.json` lists under `section`.
    fn declared(section: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn names(report: &Report) -> Vec<String> {
        report.metrics.iter().map(|m| m.name.to_string()).collect()
    }

    #[test]
    fn quick_runs_of_every_workload_pass_the_gate() {
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        for w in workload::ALL {
            let report = measure(w, true, 5, 0);
            assert!(report.correct(), "{}: {:?}", w.name(), report.breaches);
            assert_eq!(report.failed, 0, "{}", w.name());
            assert_eq!(names(&report), end_to_end, "{}", w.name());
            for m in &report.metrics {
                assert!(m.value > 0.0, "{}: {} is {}", w.name(), m.name, m.value);
            }
            let traced = trace::run(w, true, 5);
            assert!(traced.correct(), "{}: {:?}", w.name(), traced.breaches);
            assert_eq!(names(&traced), per_layer, "{}", w.name());
            assert!(traced.get("wire.bytes_per_op").is_some_and(|b| b > 0.0));
            assert!(traced
                .get("frontend.sim_ms_per_batch")
                .is_some_and(|s| s > 0.0));
        }
    }
}
