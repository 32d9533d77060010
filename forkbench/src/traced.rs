//! The traced battery: direct `MemOs` forks and child passes on traced
//! contexts, one per strategy and heap class plus a `Parallel(2)` fork,
//! giving each trace phase's self time.
//!
//! Every fork, pass and pipelined drain runs on a fresh `Ctx::traced`, so
//! the trace's ordered charge accumulator must equal the context's
//! `kernel_ns` bit for bit, and the phase self times (phases tile, never
//! nest) must add up to it within f64 re-association. A battery entry
//! that breaks either, fails its pass checks or leaks a frame counts as a
//! failed operation.

use std::collections::BTreeMap;
use std::time::Instant;

use ufork::WalkMode;
use ufork_abi::{CopyStrategy, Pid};
use ufork_exec::{Ctx, MemOs};
use ufork_sim::{DEFAULT_TRACE_CAPACITY, UNATTRIBUTED};

use crate::heap::{Direct, Heap};
use crate::{ufork_os, Rng, Strat, STRATS};

/// Trace phases reported by name: those the battery charges time to.
/// Any other phase (e.g. the zero-cost `fork/region` and `fork/commit`)
/// is summed into `trace.other.self_sim_us`.
pub const PHASES: [&str; 17] = [
    "fork/fixed",
    "fork/admission",
    "fork/walk/pte",
    "fork/walk/copy",
    "fork/walk/reloc",
    "fork/walk/cow_arm",
    "fork/walk/par",
    "fork/regs",
    "fork/pipeline/stage",
    "fork/pipeline/pte",
    "fork/pipeline/copy",
    "fork/pipeline/reloc",
    "fault/entry",
    "fault/copy",
    "fault/reloc",
    "fault/pte",
    UNATTRIBUTED,
];

/// The eager walk on two lanes (host threads), traced run only.
const PAR2: Strat = Strat {
    name: "par2",
    strategy: CopyStrategy::Full,
    walk: WalkMode::Parallel(2),
};

/// What the battery measured.
#[derive(Debug, Default)]
pub struct Battery {
    /// Self time per phase name (simulated µs), summed over the battery.
    pub self_us: BTreeMap<&'static str, f64>,
    /// Host µs inside `MemOs::fork`.
    pub fork_host_us: f64,
    /// Host µs of the child passes.
    pub pass_host_us: f64,
    /// Host µs of the pipelined drains.
    pub drain_host_us: f64,
    /// Traced operations (fork, pass and drain contexts) checked.
    pub checked: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Battery {
    /// Folds one traced context in: checks the exactness contract and
    /// adds its phase self times.
    fn fold(&mut self, ctx: &Ctx) {
        self.checked += 1;
        let t = &ctx.trace;
        let exact = ctx.kernel_ns.to_bits() == t.charged_total().to_bits();
        let tiled = (t.phase_sum() - ctx.kernel_ns).abs() <= 1e-9 * ctx.kernel_ns;
        self.failed += u64::from(!(exact && tiled));
        for p in t.phases() {
            let name = PHASES
                .iter()
                .find(|n| **n == p.name)
                .copied()
                .unwrap_or("other");
            *self.self_us.entry(name).or_default() += p.total_ns / 1e3;
        }
    }

    /// Forks `heap` under `s` on a fresh backend, then runs the child's
    /// pass and (pipelined) drains the copy window, each on its own
    /// traced context.
    fn run(&mut self, s: &Strat, heap: &Heap, r: &mut Rng) {
        let mut os = ufork_os(s, 1024);
        let (parent, child) = (Pid(1), Pid(2));
        let mut ctx = Ctx::new();
        let built = os.spawn(&mut ctx, parent, &heap.image()).and_then(|()| {
            heap.populate(&mut Direct {
                os: &mut os,
                ctx: &mut ctx,
                pid: parent,
            })
        });
        if built.is_err() {
            self.failed += 1;
            return;
        }

        let mut fctx = Ctx::traced(DEFAULT_TRACE_CAPACITY);
        let t = Instant::now();
        let forked = os.fork(&mut fctx, parent, child);
        self.fork_host_us += t.elapsed().as_secs_f64() * 1e6;
        self.fold(&fctx);
        if forked.is_err() {
            self.failed += 1;
            return;
        }

        let mut pctx = Ctx::traced(DEFAULT_TRACE_CAPACITY);
        let t = Instant::now();
        let passed = heap.pass(
            &mut Direct {
                os: &mut os,
                ctx: &mut pctx,
                pid: child,
            },
            r,
        );
        self.pass_host_us += t.elapsed().as_secs_f64() * 1e6;
        self.fold(&pctx);
        self.failed += u64::from(passed != Ok(true));

        if s.walk == WalkMode::Pipelined {
            let mut dctx = Ctx::traced(DEFAULT_TRACE_CAPACITY);
            let t = Instant::now();
            let drained = os.pipeline_drain(&mut dctx, child);
            self.drain_host_us += t.elapsed().as_secs_f64() * 1e6;
            self.fold(&dctx);
            self.failed += u64::from(drained.is_err());
        }

        os.destroy(&mut ctx, child);
        os.destroy(&mut ctx, parent);
        self.failed += u64::from(os.allocated_frames() > 0);
    }
}

/// Runs the battery over `heaps`: every strategy of [`STRATS`] on every
/// heap, plus a `Parallel(2)` fork of the largest.
pub fn battery(seed: u64, heaps: &[Heap]) -> Battery {
    let mut b = Battery::default();
    let mut r = Rng::new(seed, 400);
    for heap in heaps {
        for s in &STRATS {
            b.run(s, heap, &mut r);
        }
    }
    if let Some(big) = heaps.iter().max_by_key(|h| h.pages) {
        b.run(&PAR2, big, &mut r);
    }
    b
}
