//! Measurement plumbing shared by the workloads: the recorder the
//! benchmark's programs write into, and the runner that takes one
//! `Machine` through its set-up and measured phases.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use ufork_abi::Pid;
use ufork_exec::{Machine, MemOs};
use ufork_mem::PAGE_SIZE;
use ufork_sim::OpCounters;

use crate::Strat;

/// One fork as the benchmark's programs saw it (simulated ns).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ForkSample {
    /// When the fork was due (open loop) — equal to `request` where the
    /// workload has no schedule.
    pub due: f64,
    /// `Env::now()` in the step that returned `StepOutcome::Fork`.
    pub request: f64,
    /// The child's pid (0 until the parent resumes).
    pub child: u32,
    /// `Env::now()` at the child's first step.
    pub first_step: f64,
    /// `Env::now()` at the end of the child's pass over its memory.
    pub settled: f64,
    /// The child's pass finished and every check in it passed.
    pub ok: bool,
}

/// What the programs of one machine recorded.
#[derive(Debug, Default)]
pub(crate) struct Log {
    /// Forks in request order.
    pub forks: Vec<ForkSample>,
    /// Processes that finished their set-up (population) step.
    pub ready: u32,
    /// Client requests served (storm: child passes, snapshot: SETs).
    pub requests: u64,
    /// Operations that failed outside a fork sample (e.g. a SET).
    pub failures: u64,
    /// Host seconds inside the programs' `Env` load/store calls (traced
    /// runs only).
    pub access_host_s: f64,
}

/// Shared handle to a [`Log`]; cloned into every forked program.
#[derive(Clone, Debug, Default)]
pub(crate) struct Rec {
    log: Rc<RefCell<Log>>,
    /// Time `Env` accesses on the host clock.
    traced: bool,
}

impl Rec {
    /// A recorder; `traced` turns on host timing of `Env` accesses.
    pub fn new(traced: bool) -> Rec {
        Rec {
            log: Rc::default(),
            traced,
        }
    }

    /// Mutable access to the log.
    pub fn log(&self) -> RefMut<'_, Log> {
        self.log.borrow_mut()
    }

    /// Records a fork request; returns the sample index the child uses.
    pub fn request(&self, due: f64, now: f64) -> usize {
        let mut l = self.log();
        l.forks.push(ForkSample {
            due,
            request: now,
            ..ForkSample::default()
        });
        l.forks.len() - 1
    }

    /// Runs `f`, adding its host time to `access_host_s` when traced.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.log().access_host_s += t.elapsed().as_secs_f64();
        r
    }
}

/// One fork, joined with the machine's `ForkEvent` (simulated ns).
#[derive(Clone, Copy, Debug)]
pub struct Joined {
    /// Due (or request) → child's first step.
    pub start: f64,
    /// Due (or request) → end of the child's pass.
    pub settle: f64,
    /// Request − due: how late the generator ran, including the work it
    /// did for the request before forking.
    pub lag: f64,
    /// `ForkEvent.latency_ns`: the fork call's kernel service time.
    pub service: f64,
    /// (`ForkEvent.at` − request) − `latency_ns`: time inside the fork
    /// step that the fork log does not attribute.
    pub unattributed: f64,
    /// Child's first step − `ForkEvent.at`: run-queue and BKL wait.
    pub child_wait: f64,
}

/// Host time split of a traced measured phase.
#[derive(Clone, Debug, Default)]
pub struct HostSplit {
    /// Host seconds inside `Machine::step`.
    pub step_s: f64,
    /// Host µs of each step that appended a `ForkEvent`.
    pub fork_us: Vec<f64>,
    /// Host seconds of the steps that appended an `ExitEvent`.
    pub exit_s: f64,
    /// Host seconds inside the programs' `Env` accesses.
    pub access_s: f64,
}

/// One machine's measured phase.
#[derive(Clone, Debug)]
pub struct MachineRun {
    /// Strategy the machine ran.
    pub strat: Strat,
    /// Forks whose child reported back, joined with the fork log.
    pub forks: Vec<Joined>,
    /// Pipelined forks: commit → copy complete (simulated ns).
    pub copy_done: Vec<f64>,
    /// Counters of the measured phase.
    pub counters: OpCounters,
    /// Host seconds of machine construction and population.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Simulated frame peak of the measured phase minus the frames in use
    /// at its start, in MiB.
    pub mem_peak_mb: f64,
    /// Simulated length of the measured phase (ns).
    pub sim_span_ns: f64,
    /// Client requests served in the measured phase.
    pub requests: u64,
    /// Operations attempted and failed (verification included).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Frames still allocated after every process exited.
    pub leaked: u64,
    /// Host split (all zero unless traced).
    pub host: HostSplit,
}

/// Builds a machine with `build`, steps it until `ready` processes have
/// finished their population step (the set-up phase), then runs it to
/// completion (the measured phase). `finish` verifies the outputs,
/// releases what outlives the processes, and returns `(attempted,
/// failed)` for the workload's own operations.
pub(crate) fn run_machine<O: MemOs>(
    strat: Strat,
    traced: bool,
    ready: u32,
    build: impl FnOnce(&Rec) -> Machine<O>,
    finish: impl FnOnce(&mut Machine<O>, &Log) -> (u64, u64),
) -> MachineRun {
    let rec = Rec::new(traced);
    let t0 = Instant::now();
    let mut m = build(&rec);
    while rec.log().ready < ready {
        assert!(m.step(), "machine went idle before its set-up finished");
    }
    let setup_s = t0.elapsed().as_secs_f64();

    rec.log().access_host_s = 0.0;
    let frames0 = u64::from(m.os.allocated_frames());
    let c0 = *m.counters();
    let sim0 = m.now();
    let mut host = HostSplit::default();
    let t1 = Instant::now();
    if traced {
        loop {
            let (nf, ne) = (m.fork_log().len(), m.exit_log().len());
            let t = Instant::now();
            let more = m.step();
            let dt = t.elapsed().as_secs_f64();
            host.step_s += dt;
            if m.fork_log().len() > nf {
                host.fork_us.push(dt * 1e6);
            }
            if m.exit_log().len() > ne {
                host.exit_s += dt;
            }
            if !more {
                break;
            }
        }
    } else {
        while m.step() {}
    }
    let host_s = t1.elapsed().as_secs_f64();

    let log = rec.log();
    host.access_s = log.access_host_s;
    let events: HashMap<u32, _> = m.fork_log().iter().map(|e| (e.child.0, *e)).collect();
    let codes: HashMap<u32, i32> = m.exit_log().iter().map(|e| (e.pid.0, e.code)).collect();
    let mut forks = Vec::new();
    let mut bad = 0;
    for s in &log.forks {
        let exited_ok = codes.get(&s.child) == Some(&0);
        let Some(ev) = events.get(&s.child).filter(|_| s.ok && exited_ok) else {
            bad += 1;
            continue;
        };
        forks.push(Joined {
            start: s.first_step - s.due,
            settle: s.settled - s.due,
            lag: s.request - s.due,
            service: ev.latency_ns,
            unattributed: (ev.at - s.request) - ev.latency_ns,
            child_wait: s.first_step - ev.at,
        });
    }
    let (attempted, failed) = finish(&mut m, &log);
    let leaked = u64::from(m.os.allocated_frames());
    let peak = u64::from(m.os.peak_frames()).saturating_sub(frames0);
    MachineRun {
        strat,
        forks,
        copy_done: m
            .pipeline_log()
            .iter()
            .map(|e| e.done_at - e.committed_at)
            .collect(),
        counters: m.counters().since(&c0),
        setup_s,
        host_s,
        mem_peak_mb: (peak * PAGE_SIZE) as f64 / (1u64 << 20) as f64,
        sim_span_ns: m.now() - sim0,
        requests: log.requests,
        attempted: attempted + log.forks.len() as u64,
        failed: failed + bad + log.failures + u64::from(leaked > 0),
        leaked,
        host,
    }
}

/// True when `pid` exited with code 0.
pub(crate) fn exited_ok<O: MemOs>(m: &Machine<O>, pid: Pid) -> bool {
    m.exit_code(pid) == Some(0)
}
