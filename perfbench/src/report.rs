//! Collecting and printing a run's metrics, provenance and verdict.

use crate::served::Trial;
use crate::stats;
use crate::workload::Workload;

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Sample count and percentile notes for the human-readable table.
    pub note: String,
}

/// A run's result.
#[derive(Debug)]
pub struct Report {
    workload: Workload,
    seed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Requests sent, erasures included.
    pub attempted: u64,
    /// Requests that failed (see [`crate::outcome`]).
    pub failed: u64,
    /// Correctness breaches; any one fails the run.
    pub breaches: Vec<String>,
    /// Operation counts for the provenance line.
    pub counts: Vec<(&'static str, u64)>,
    /// Peak resident set through the first trial, MiB.
    pub peak_rss_mb: f64,
    notes: Vec<String>,
}

impl Report {
    /// An empty report for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Report {
        Report {
            workload,
            seed,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            breaches: Vec::new(),
            counts: Vec::new(),
            peak_rss_mb: 0.0,
            notes: Vec::new(),
        }
    }

    /// Record a metric.
    pub fn push(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.breaches.is_empty()
    }

    /// Fold the untraced trials into the end-to-end metrics. The first
    /// `warmup` trials count towards the requests and the checks but
    /// not the timings.
    pub fn end_to_end(&mut self, all: &[Trial], warmup: usize) {
        for t in all {
            self.attempted += t.tally.attempted;
            self.failed += t.tally.failed;
            self.breaches.extend(t.breaches.iter().cloned());
        }
        let measured = &all[warmup.min(all.len())..];
        let steal: Vec<f64> = measured.iter().map(|t| t.steal_share).collect();
        let keep = stats::quiet(&steal);
        for (i, t) in measured.iter().enumerate() {
            let b = stats::summarise(&t.batch_ms, 99.0);
            let e = stats::summarise(&t.erase_ms, 99.0);
            self.note(format!(
                "trial {i}: setup {:.3} s, {:.2} kops/s over {:.3} s, batch p50 {:.3} p{} {:.3} ms, erase p50 {:.3} p{} {:.3} ms, steal {:.3}{}",
                t.setup.as_secs_f64(),
                t.kops(),
                t.phase.as_secs_f64(),
                b.p50,
                b.tail_at,
                b.tail,
                e.p50,
                e.tail_at,
                e.tail,
                t.steal_share,
                if keep[i] { "" } else { " (not timed)" }
            ));
        }
        let trials: Vec<&Trial> = measured
            .iter()
            .zip(&keep)
            .filter_map(|(t, &k)| k.then_some(t))
            .collect();
        let setups: Vec<f64> = trials.iter().map(|t| t.setup.as_secs_f64()).collect();
        let kops: Vec<f64> = trials.iter().map(|t| t.kops()).collect();
        let batches: Vec<&[f64]> = trials.iter().map(|t| t.batch_ms.as_slice()).collect();
        let erases: Vec<&[f64]> = trials.iter().map(|t| t.erase_ms.as_slice()).collect();
        let n = trials.len();
        self.push(
            "setup_s",
            stats::median(&setups),
            "s",
            format!("median of {n} set-ups"),
        );
        self.push(
            "throughput_kops",
            stats::median(&kops),
            "kops/s",
            format!("median of {n} trials"),
        );
        let p50 = stats::blocked(&batches, 50.0);
        self.push("batch_p50_ms", p50.value, "ms", blocked_note(&p50));
        let tail = stats::blocked(&batches, 99.0);
        self.push("batch_p99_ms", tail.value, "ms", blocked_note(&tail));
        let e50 = stats::blocked(&erases, 50.0);
        self.push("erase_p50_ms", e50.value, "ms", blocked_note(&e50));
        // Too few erasures fit in a run for their p99 to repeat within a
        // bound (see README.md), so it is printed but not a result.
        let e99 = stats::blocked(&erases, 99.0);
        self.note(format!("erase {:.4} ms, {}", e99.value, blocked_note(&e99)));
        self.push(
            "peak_rss_mb",
            self.peak_rss_mb,
            "MiB",
            "VmHWM through the first trial",
        );
        self.counts = vec![
            ("warmup_trials", (all.len() - measured.len()) as u64),
            ("stolen_trials", (measured.len() - n) as u64),
            ("trials", n as u64),
            ("requests_attempted", self.attempted),
            (
                "closed_loop_completed",
                all.iter().map(|t| t.completed).sum(),
            ),
            ("batches", p50.n as u64),
            ("erasures", e50.n as u64),
        ];
        let late = all.iter().map(|t| t.late_ms_max).fold(0.0, f64::max);
        self.note(format!("erasure generator ran at most {late:.3} ms late"));
    }

    /// Add a free-text note to the human-readable output.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Print the table, the provenance line and, last, the result JSON.
    pub fn print(&self) {
        println!("workload {} seed {}", self.workload.name(), self.seed);
        for note in &self.notes {
            println!("  {note}");
        }
        for m in &self.metrics {
            println!(
                "  {:<40} {:>14.4} {:<7} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for breach in &self.breaches {
            println!("BREACH: {breach}");
        }
        println!("provenance: {}", self.provenance());
        println!("{}", self.result_json());
    }

    fn provenance(&self) -> String {
        let features: Vec<String> = datacase_crypto::backend::cpu_features()
            .into_iter()
            .map(|(name, on)| format!("\"{name}\":{on}"))
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"git_rev\":\"{}\",\"nproc\":{},\"cpu_features\":{{{}}},\"crypto_backend_auto\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"counts\":{{{}}}}}",
            git_rev(),
            std::thread::available_parallelism().map_or(0, usize::from),
            features.join(","),
            datacase_crypto::CryptoBackend::Auto.resolve().label(),
            self.workload.name(),
            self.seed,
            counts.join(",")
        )
    }

    /// The one-line JSON result.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// How a blocked percentile was taken, for the human-readable table.
fn blocked_note(b: &stats::Blocked) -> String {
    format!(
        "p{} of each of {} blocks of trials, median; n={}",
        b.at, b.blocks, b.n
    )
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// a non-finite value (a ratio over nothing) is written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The machine's CPU time so far as (stolen, total) ticks, from the
/// aggregate line of `/proc/stat` (`None` where it is absent). Steal is
/// time a virtual CPU was ready to run while the hypervisor ran someone
/// else; on bare metal it stays 0.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let counted = fields.get(..8)?;
    Some((counted[7], counted.iter().sum()))
}

/// Stolen share of the CPU time between two [`cpu_ticks`] readings (0
/// when either is missing or no tick passed).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// The process's peak resident set, in MiB (0 where /proc is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory without running git; "unknown" outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(Workload::YcsbBHot, 1);
        r.push("latency_ms", 1.25, "ms", "");
        r.attempted = 10;
        r.failed = 1;
        assert_eq!(
            r.result_json(),
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        r.breaches.push("x".into());
        assert!(r.result_json().starts_with("{\"correct\":false"));
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
