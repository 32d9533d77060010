//! Turns repetitions into named metrics and the result line.
//!
//! Simulated metrics come from the first repetition (every repetition of
//! one seed is the same simulation); host metrics are medians over the
//! repetitions.

use ufork_sim::OpCounters;

use crate::probe::{Joined, MachineRun};
use crate::stats::{median, percentile};
use crate::traced::{Battery, PHASES};
use crate::{Rep, STRATS};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metric list under construction.
#[derive(Default)]
struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The strategies the end-to-end metrics name.
const E2E: [&str; 3] = ["copa", "pipelined", "full"];

fn machine<'a>(rep: &'a Rep, name: &str) -> &'a MachineRun {
    rep.machines
        .iter()
        .find(|m| m.strat.name == name)
        .expect("every strategy runs")
}

fn col(m: &MachineRun, f: impl Fn(&Joined) -> f64) -> Vec<f64> {
    m.forks.iter().map(f).collect()
}

fn pooled(rep: &Rep, f: impl Fn(&Joined) -> f64 + Copy) -> Vec<f64> {
    rep.machines.iter().flat_map(|m| col(m, f)).collect()
}

fn total(rep: &Rep) -> OpCounters {
    let mut c = OpCounters::default();
    for m in &rep.machines {
        c.merge(&m.counters);
    }
    c
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// `(attempted, failed)` over repetitions.
pub fn outcome(reps: &[Rep]) -> (u64, u64) {
    reps.iter()
        .flat_map(|r| &r.machines)
        .fold((0, 0), |(a, f), m| (a + m.attempted, f + m.failed))
}

/// The end-to-end metrics of untraced repetitions.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    let rep = &reps[0];
    let mut out = Out::default();
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        for s in E2E {
            let v = percentile(&col(machine(rep, s), |j| j.start), q);
            out.put(format!("start_{tag}_sim_us.{s}"), v / 1e3, "us");
        }
    }
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        for s in ["copa", "pipelined"] {
            let v = percentile(&col(machine(rep, s), |j| j.settle), q);
            out.put(format!("settle_{tag}_sim_us.{s}"), v / 1e3, "us");
        }
    }
    let copa = machine(rep, "copa");
    out.put("sim_mem_peak_mb.copa", copa.mem_peak_mb, "MB");
    out.put(
        "requests_per_sim_s",
        copa.requests as f64 / (copa.sim_span_ns / 1e9),
        "1/s",
    );
    let host: Vec<f64> = reps.iter().map(|r| r.host_s).collect();
    out.put("host_s", median(&host), "s");
    out.put("peak_rss_mb", peak_rss_mb, "MB");
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    out.put("setup_s", median(&setup), "s");
    let (attempted, failed) = outcome(reps);
    out.put("ok_share", share(attempted - failed, attempted), "share");
    out.0
}

/// The per-layer metrics of a traced run: `traced` repetitions (host
/// split on), the untraced repetitions they alternated with, and the
/// traced battery.
pub fn per_layer(untraced: &[Rep], traced: &[Rep], battery: &Battery) -> Vec<Metric> {
    let rep = &traced[0];
    let c = total(rep);
    let mut out = Out::default();
    let host_median = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());

    // exec: scheduling and waiting.
    for s in E2E {
        let m = machine(rep, s);
        out.put(
            format!("exec.arrival_lag_p99_sim_us.{s}"),
            percentile(&col(m, |j| j.lag), 0.99) / 1e3,
            "us",
        );
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            let v = percentile(&col(m, |j| j.child_wait), q);
            out.put(format!("exec.child_wait_{tag}_sim_us.{s}"), v / 1e3, "us");
        }
    }
    out.put("exec.ctx_switches", c.ctx_switches as f64, "count");
    out.put(
        "exec.step_host_s",
        host_median(&|r| r.machines.iter().map(|m| m.host.step_s).sum()),
        "s",
    );

    // core: fork service, fault tails, pipelined copy, journal.
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        for s in &STRATS {
            let v = percentile(&col(machine(rep, s.name), |j| j.service), q);
            out.put(
                format!("core.fork_service_{tag}_sim_us.{}", s.name),
                v / 1e3,
                "us",
            );
        }
    }
    for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
        for s in &STRATS {
            let v = percentile(&col(machine(rep, s.name), |j| j.settle - j.start), q);
            out.put(
                format!("core.settle_tail_{tag}_sim_us.{}", s.name),
                v / 1e3,
                "us",
            );
        }
    }
    for s in &STRATS {
        let sc = &machine(rep, s.name).counters;
        for (name, v) in [
            ("cap_load_faults", sc.cap_load_faults),
            ("coa_faults", sc.coa_faults),
            ("cow_faults", sc.cow_faults),
        ] {
            out.put(format!("core.{name}.{}", s.name), v as f64, "count");
        }
    }
    let piped = machine(rep, "pipelined");
    out.put(
        "core.copy_done_p99_sim_us.pipelined",
        percentile(&piped.copy_done, 0.99) / 1e3,
        "us",
    );
    let pc = &piped.counters;
    out.put(
        "core.pipeline_chunks_jumped",
        pc.pipeline_chunks_jumped as f64,
        "count",
    );
    out.put(
        "core.pipeline_jump_share",
        share(pc.pipeline_chunks_jumped, pc.fork_chunks),
        "share",
    );
    out.put("core.fork_chunks.pipelined", pc.fork_chunks as f64, "count");
    out.put("core.forks.pipelined", pc.forks as f64, "count");
    out.put("core.journal_ops", c.journal_ops as f64, "count");
    out.put("core.fork_rollbacks", c.fork_rollbacks as f64, "count");
    out.put("core.forks_degraded", c.forks_degraded as f64, "count");
    out.put(
        "core.fork_unattributed_sim_us",
        pooled(rep, |j| j.unattributed).iter().sum::<f64>() / 1e3,
        "us",
    );
    let fork_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| {
            r.machines
                .iter()
                .flat_map(|m| m.host.fork_us.iter().copied())
        })
        .collect();
    out.put("core.fork_host_us_p50", percentile(&fork_us, 0.5), "us");
    out.put("core.fork_host_us_p99", percentile(&fork_us, 0.99), "us");
    out.put(
        "core.exit_host_s",
        host_median(&|r| r.machines.iter().map(|m| m.host.exit_s).sum()),
        "s",
    );
    out.put(
        "core.access_host_s",
        host_median(&|r| r.machines.iter().map(|m| m.host.access_s).sum()),
        "s",
    );

    // mem, vmem, cheri: work counts, from the machines whose end-to-end
    // metrics they explain (mem and vmem: CoPA's memory peak and start;
    // cheri: CoPA's settle and the full copy's start).
    let leaked: u64 = rep.machines.iter().map(|m| m.leaked).sum();
    out.put("mem.frames_leaked", leaked as f64, "count");
    let cc = &machine(rep, "copa").counters;
    for (name, v) in [
        ("mem.pages_copied", cc.pages_copied),
        ("mem.pages_copied_eager", cc.pages_copied_eager),
        ("mem.frames_recycled", cc.frames_recycled),
        ("mem.zeroing_skipped", cc.zeroing_skipped),
        ("mem.magazine_hits", cc.magazine_hits),
        ("mem.frames_deduped", cc.frames_deduped),
        ("vmem.ptes_written", cc.ptes_written),
        ("vmem.region_lookups", cc.region_lookups),
    ] {
        out.put(format!("{name}.copa"), v as f64, "count");
    }
    for s in ["copa", "full"] {
        let sc = &machine(rep, s).counters;
        for (name, v) in [
            ("caps_relocated", sc.caps_relocated),
            ("granules_scanned", sc.granules_scanned),
            ("granules_skipped", sc.granules_skipped),
            ("tag_words_loaded", sc.tag_words_loaded),
        ] {
            out.put(format!("cheri.{name}.{s}"), v as f64, "count");
        }
        out.put(
            format!("cheri.scan_skip_share.{s}"),
            share(
                sc.granules_skipped,
                sc.granules_scanned + sc.granules_skipped,
            ),
            "share",
        );
    }

    // trace: phase self times of the battery, host time, overhead.
    for p in PHASES.iter().chain(&["other"]) {
        let name = p.trim_matches(|c| c == '(' || c == ')').replace('/', ".");
        let v = battery.self_us.get(p).copied().unwrap_or(0.0);
        out.put(format!("trace.{name}.self_sim_us"), v, "us");
    }
    out.put("trace.host_us.fork", battery.fork_host_us, "us");
    out.put("trace.host_us.pass", battery.pass_host_us, "us");
    out.put("trace.host_us.drain", battery.drain_host_us, "us");
    out.put("trace.ops_checked", battery.checked as f64, "count");
    let plain = median(&untraced.iter().map(|r| r.host_s).collect::<Vec<_>>());
    let with = median(&traced.iter().map(|r| r.host_s).collect::<Vec<_>>());
    out.put("trace.overhead_share", with / plain - 1.0, "share");
    out.0
}

/// A fingerprint of everything simulated in a repetition: tracing must
/// leave it unchanged.
pub fn sim_digest(rep: &Rep) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for m in &rep.machines {
        for j in &m.forks {
            for v in [j.start, j.settle, j.lag, j.service, j.child_wait] {
                mix(v.to_bits());
            }
        }
        mix(m.sim_span_ns.to_bits());
        mix(m.counters.pages_copied);
        mix(m.counters.ctx_switches);
    }
    h
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
