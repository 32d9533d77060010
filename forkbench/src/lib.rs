//! End-to-end and per-layer benchmark of the μFork simulator.
//!
//! Two workloads drive the simulator only through its public API
//! (`Machine`, `MemOs`, `Env` and the Redis building blocks of
//! `ufork-workloads`):
//!
//! * [`storm`] — an open-loop Poisson fork storm from several zygotes of
//!   mixed heap sizes and capability densities;
//! * [`snapshot`] — a Redis-style BGSAVE train (one outstanding save).
//!
//! Each workload runs one `Machine` per copy strategy in [`STRATS`].
//! The benchmark's own programs record `Env::now()` at each fork request,
//! at the child's first step and at the end of the child's pass over its
//! inherited memory; [`probe`] joins those samples with the machine's
//! fork log, and [`report`] turns them into the metrics that `main`
//! prints.

pub mod heap;
pub mod probe;
pub mod report;
pub mod snapshot;
pub mod stats;
pub mod storm;
pub mod traced;

use ufork::{UforkConfig, UforkOs, WalkMode};
use ufork_abi::CopyStrategy;

use crate::heap::Heap;
use crate::probe::MachineRun;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// [`storm`].
    Storm,
    /// [`snapshot`].
    Snapshot,
}

/// One repetition of a workload: every strategy's machine, plus set-up.
#[derive(Debug)]
pub struct Rep {
    /// One run per strategy, in [`STRATS`] order.
    pub machines: Vec<MachineRun>,
    /// Host seconds of machine construction and population.
    pub setup_s: f64,
    /// Host seconds of the measured phases.
    pub host_s: f64,
}

impl Rep {
    /// A repetition from its machine runs.
    pub fn new(machines: Vec<MachineRun>) -> Rep {
        Rep {
            setup_s: machines.iter().map(|m| m.setup_s).sum(),
            host_s: machines.iter().map(|m| m.host_s).sum(),
            machines,
        }
    }
}

/// A workload's inputs for one seed. They depend on the seed alone, so
/// they are generated once per process, before any timed repetition.
pub enum Inputs {
    /// [`storm::Inputs`].
    Storm(storm::Inputs),
    /// [`snapshot::Inputs`].
    Snapshot(snapshot::Inputs),
}

impl Inputs {
    /// Runs one repetition.
    pub fn run(&self, traced: bool) -> Rep {
        Rep::new(match self {
            Inputs::Storm(i) => i.run(traced),
            Inputs::Snapshot(i) => i.run(traced),
        })
    }
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "storm" => Some(Workload::Storm),
            "snapshot" => Some(Workload::Snapshot),
            _ => None,
        }
    }

    /// Generates the inputs for `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        match self {
            Workload::Storm => Inputs::Storm(storm::Inputs::new(seed, storm::FORKS)),
            Workload::Snapshot => Inputs::Snapshot(snapshot::Inputs::new(seed)),
        }
    }

    /// The heap classes of the traced battery, shaped like the workload's.
    pub fn heaps(self, seed: u64) -> Vec<Heap> {
        match self {
            Workload::Storm => storm::zygotes(seed, storm::FORKS)
                .into_iter()
                .map(|z| z.heap)
                .collect(),
            Workload::Snapshot => vec![snapshot::heap(seed)],
        }
    }
}

/// One copy strategy under test: a `CopyStrategy` plus the fork walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Strat {
    /// Metric suffix (`copa`, `coa`, `pipelined`, `full`).
    pub name: &'static str,
    /// Memory duplication strategy.
    pub strategy: CopyStrategy,
    /// Fork walk.
    pub walk: WalkMode,
}

/// The strategies every workload runs, each on its own `Machine`. CoA is
/// measured (its work counts in `host_s`) but only reported per layer.
pub const STRATS: [Strat; 4] = [
    Strat {
        name: "copa",
        strategy: CopyStrategy::CoPA,
        walk: WalkMode::Serial,
    },
    Strat {
        name: "coa",
        strategy: CopyStrategy::CoA,
        walk: WalkMode::Serial,
    },
    Strat {
        name: "pipelined",
        strategy: CopyStrategy::Full,
        walk: WalkMode::Pipelined,
    },
    Strat {
        name: "full",
        strategy: CopyStrategy::Full,
        walk: WalkMode::Serial,
    },
];

/// A μFork backend for `s` with `phys_mib` MiB of simulated memory
/// (frames are allocated lazily, so a large size costs nothing).
pub(crate) fn ufork_os(s: &Strat, phys_mib: u32) -> UforkOs {
    UforkOs::new(UforkConfig {
        phys_mib,
        strategy: s.strategy,
        walk: s.walk,
        ..UforkConfig::default()
    })
}

/// SplitMix64: the benchmark's only source of randomness. Every input is
/// drawn from it, seeded by `--seed`.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A stream for `seed`, split by `stream` so independent inputs do
    /// not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `x` scaled by a uniform factor in `[1 - j, 1 + j]`.
    pub fn jitter(&mut self, x: f64, j: f64) -> f64 {
        x * (1.0 - j + 2.0 * j * self.unit())
    }

    /// Exponential draw with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// The 64-bit word a benchmark heap holds at byte offset `off` before any
/// fork: a hash of the heap's `key` and the offset, so every child can
/// verify what it inherited without a host-side copy.
pub(crate) fn fill_word(key: u64, off: u64) -> u64 {
    let mut z = key ^ off.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z ^ (z >> 29)
}
