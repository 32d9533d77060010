//! `forkbench --workload <storm|snapshot> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Generates the workload's inputs from the seed once, repeats the
//! workload for about `--seconds` of host time (at least [`MIN_REPS`]
//! times) and prints one JSON line: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of
//! traced repetitions (alternated with untraced ones, whose host time
//! gives the tracing overhead) plus the traced battery.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use forkbench::report::{end_to_end, json, outcome, per_layer, sim_digest};
use forkbench::traced::battery;
use forkbench::{Rep, Workload};

/// Fewest repetitions per run, so medians have something to work with.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
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
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("forkbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (w, seed) = (args.workload, args.seed);
    // Inputs depend on the seed alone: generate them once, outside every
    // timed repetition and outside set-up.
    let inputs = w.inputs(seed);
    let end = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // Another repetition runs only while at least half of it fits before
    // `end` (judged by the last one), so a run measures as close to
    // `--seconds` as whole repetitions allow.
    let mut last = Duration::ZERO;
    while plain.len() < MIN_REPS || end.saturating_duration_since(Instant::now()) > last / 2 {
        let t = Instant::now();
        let rep = inputs.run(false);
        eprintln!(
            "rep {}: host_s {:.4} setup_s {:.4}",
            plain.len(),
            rep.host_s,
            rep.setup_s
        );
        plain.push(rep);
        if args.trace {
            traced.push(inputs.run(true));
        }
        last = t.elapsed();
    }

    let (mut attempted, mut failed) = outcome(&plain);
    let mut metrics = if args.trace {
        let b = battery(seed, &w.heaps(seed));
        let (a, f) = outcome(&traced);
        // Tracing is host-side only: the simulation must not change.
        let perturbed = traced
            .iter()
            .filter(|r| sim_digest(r) != sim_digest(&plain[0]))
            .count() as u64;
        attempted += a + b.checked + traced.len() as u64;
        failed += f + b.failed + perturbed;
        per_layer(&plain, &traced, &b)
    } else {
        end_to_end(&plain, peak_rss_mb())
    };
    let mut broken = 0;
    for m in metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        m.value = 0.0;
        broken += 1;
    }
    println!("{}", json(attempted, failed + broken, &metrics));
    ExitCode::SUCCESS
}
