//! `storm`: an open-loop Poisson fork storm from several zygotes.
//!
//! Every zygote owns a heap of its own size and capability density
//! (classes on both sides of `CHUNK_PAGES`, pointer-free to
//! pointer-dense) and forks on its own Poisson schedule, fixed in
//! advance. A zygote parses each invocation (a seeded amount of CPU
//! work) and forks; a fork that is due while the zygote is still busy is
//! issued late, and every fork is timed from its due time. Each child makes a seeded
//! working-set pass over the heap it inherited (loads, capability loads,
//! stores), checking every byte and every relocated capability, then
//! sleeps and exits. Hundreds of children are alive at once.

use std::any::Any;
use std::rc::Rc;

use ufork_abi::{BlockingCall, Env, ForkResult, Pid, Program, Resume, StepOutcome};
use ufork_exec::{Machine, MachineConfig};

use crate::heap::{Heap, Prog};
use crate::probe::{exited_ok, run_machine, MachineRun, Rec};
use crate::{ufork_os, Rng, Strat, STRATS};

/// Heap classes `(pages, one capability per N granules (0 = none))`, one
/// zygote each, every one taking an equal share of the arrivals. Each is
/// a heap the repository already forks elsewhere:
///
/// * 16 pages, one capability per page: the parent of the fork-pressure
///   storm (`pressure_storm_run`, `crates/bench/src/experiments.rs`);
/// * 32 pages (= `CHUNK_PAGES`), pointer-free: the hello-world image's
///   128 KiB heap (`ImageSpec::hello_world`, Fig. 8);
/// * 40 pages, one capability per 32 bytes: the multi-chunk heap of
///   `crates/core/tests/fork_props.rs` with the fork-scaling sweep's
///   cap-dense fill (`scaling_fork`, 128 capabilities a page);
/// * 64 pages, pointer-free: the dirty-scope trace heap
///   (`crates/bench/src/trace_exp.rs`);
/// * 96 pages, one capability per page: the three-chunk heap of
///   `crates/core/tests/fork_props.rs` with the fork-scaling sweep's
///   cap-sparse fill.
///
/// The seed jitters every size by ±5 % and every density by ±10 %.
const CLASSES: [(f64, f64); 5] = [
    (16.0, 256.0),
    (32.0, 0.0),
    (40.0, 2.0),
    (64.0, 0.0),
    (96.0, 256.0),
];
/// Simulated cores. A synthetic choice: with eight, a child rarely waits
/// for a core, so start tails come from the fork path and from zygotes
/// running late.
const CORES: usize = 8;
/// Mean forks per storm (all zygotes together): the paper-scale storm of
/// `StormConfig` (`crates/workloads/src/storm.rs`).
pub const FORKS: f64 = 10_000.0;
/// Offered fork rate, all zygotes together (forks per simulated ns): the
/// μFork FaaS throughput on one worker core, 1 662 functions/s
/// (EXPERIMENTS.md, Fig. 6).
const RATE: f64 = 1662e-9;
/// Simulated time the first arrival may be due (population ends first).
const EPOCH_NS: f64 = 20e6;
/// Mean CPU operations a zygote spends parsing an invocation:
/// `RingSvcConfig`'s default per-request parse work. The seed draws each
/// invocation's work uniformly from half to one and a half times this.
const PARSE_OPS: u64 = 2000;
/// Mean child lifetime after its pass (simulated ns), half fixed and half
/// an exponential draw. A synthetic choice: at [`RATE`] it keeps about
/// 250 children alive at once, while a full-copy machine stays within a
/// few hundred MiB of host memory.
const SERVICE_NS: f64 = 150e6;

/// One zygote's inputs.
#[derive(Clone, Debug)]
pub(crate) struct ZygoteSpec {
    /// Its heap.
    pub(crate) heap: Heap,
    /// Its invocations: due time (simulated ns) and the CPU operations
    /// the zygote spends parsing the request before it forks.
    pub(crate) arrivals: Vec<(f64, u64)>,
}

/// The inputs of a storm of about `forks` forks, all drawn from the seed.
pub(crate) fn zygotes(seed: u64, forks: f64) -> Vec<ZygoteSpec> {
    let window = forks / RATE;
    CLASSES
        .iter()
        .enumerate()
        .map(|(i, &(pages, every))| {
            let mut r = Rng::new(seed, 100 + i as u64);
            let gap = CLASSES.len() as f64 / RATE;
            let mut arrivals = Vec::new();
            let mut t = r.exp(gap);
            while t < window {
                arrivals.push((EPOCH_NS + t, r.range(PARSE_OPS / 2, PARSE_OPS * 3 / 2)));
                t += r.exp(gap);
            }
            let heap = Heap {
                key: r.next_u64(),
                pages: r.jitter(pages, 0.05).round().max(1.0) as u64,
                cap_every: if every == 0.0 {
                    0
                } else {
                    r.jitter(every, 0.1).round().max(1.0) as u64
                },
            };
            ZygoteSpec { heap, arrivals }
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Arrival,
    Wait,
    Service,
}

/// A storm zygote; its forked clones become one-shot children.
#[derive(Clone)]
struct Zygote {
    spec: Rc<ZygoteSpec>,
    rec: Rec,
    seed: u64,
    next: usize,
    outstanding: u64,
    phase: Phase,
    /// This process's sample (children) / the pending fork's (parent).
    sample: usize,
}

impl Zygote {
    /// Sleeps until the next arrival is due, forks at once if it is
    /// already late, or starts reaping once every fork is issued.
    fn next_arrival(&mut self, env: &mut dyn Env) -> StepOutcome {
        let Some(&(due, parse)) = self.spec.arrivals.get(self.next) else {
            return self.reap();
        };
        let now = env.now();
        if now < due {
            self.phase = Phase::Arrival;
            return StepOutcome::Block(BlockingCall::Sleep { ns: due - now });
        }
        env.cpu_ops(parse);
        self.sample = self.rec.request(due, env.now());
        StepOutcome::Fork
    }

    fn reap(&mut self) -> StepOutcome {
        if self.outstanding == 0 {
            return StepOutcome::Exit(0);
        }
        self.phase = Phase::Wait;
        StepOutcome::Block(BlockingCall::Wait)
    }
}

impl Program for Zygote {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => {
                let mut mem = Prog {
                    env,
                    rec: &self.rec,
                };
                if self.spec.heap.populate(&mut mem).is_err() {
                    return StepOutcome::Exit(1);
                }
                self.rec.log().ready += 1;
                self.next_arrival(env)
            }
            Resume::Forked(ForkResult::Parent(pid)) => {
                self.rec.log().forks[self.sample].child = pid.0;
                self.outstanding += 1;
                self.next += 1;
                self.next_arrival(env)
            }
            Resume::Forked(ForkResult::Child) => {
                let first = env.now();
                let mut r = Rng::new(self.seed ^ self.spec.heap.key, self.sample as u64);
                let mut mem = Prog {
                    env,
                    rec: &self.rec,
                };
                let ok = self.spec.heap.pass(&mut mem, &mut r).unwrap_or(false);
                let settled = env.now();
                {
                    let mut l = self.rec.log();
                    l.requests += 1;
                    let s = &mut l.forks[self.sample];
                    (s.first_step, s.settled, s.ok) = (first, settled, ok);
                }
                self.phase = Phase::Service;
                StepOutcome::Block(BlockingCall::Sleep {
                    ns: SERVICE_NS * 0.5 + r.exp(SERVICE_NS * 0.5),
                })
            }
            Resume::Ret(r) => match (self.phase, r) {
                (Phase::Service, Ok(_)) => StepOutcome::Exit(0),
                (Phase::Arrival, Ok(_)) => self.next_arrival(env),
                (Phase::Wait, Ok(_)) => {
                    self.outstanding -= 1;
                    self.reap()
                }
                // A failed fork: its sample never gets a child and counts
                // as failed; the storm moves on to the next arrival.
                (Phase::Arrival, Err(_)) => {
                    self.next += 1;
                    self.next_arrival(env)
                }
                _ => StepOutcome::Exit(2),
            },
        }
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A storm's inputs: every zygote's heap and schedule.
pub struct Inputs {
    seed: u64,
    specs: Vec<Rc<ZygoteSpec>>,
}

impl Inputs {
    /// The inputs of a storm of about `forks` forks for `seed`.
    pub fn new(seed: u64, forks: f64) -> Inputs {
        Inputs {
            seed,
            specs: zygotes(seed, forks).into_iter().map(Rc::new).collect(),
        }
    }

    /// Runs the storm on every strategy's machine.
    pub fn run(&self, traced: bool) -> Vec<MachineRun> {
        STRATS
            .iter()
            .map(|s| run_one(s, &self.specs, self.seed, traced))
            .collect()
    }
}

fn run_one(s: &Strat, specs: &[Rc<ZygoteSpec>], seed: u64, traced: bool) -> MachineRun {
    run_machine(
        *s,
        traced,
        specs.len() as u32,
        |rec| {
            let mut m = Machine::new(
                ufork_os(s, 2048),
                MachineConfig {
                    cores: CORES,
                    ..MachineConfig::default()
                },
            );
            for spec in specs {
                let z = Zygote {
                    spec: spec.clone(),
                    rec: rec.clone(),
                    seed,
                    next: 0,
                    outstanding: 0,
                    phase: Phase::Arrival,
                    sample: 0,
                };
                m.spawn(&spec.heap.image(), Box::new(z))
                    .expect("spawn zygote");
            }
            m
        },
        |m, _| {
            // Each zygote reaps all its children and exits 0.
            let failed = (1..=specs.len() as u32)
                .filter(|p| !exited_ok(m, Pid(*p)))
                .count() as u64;
            (specs.len() as u64, failed)
        },
    )
}
