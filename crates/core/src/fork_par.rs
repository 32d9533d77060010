//! The lanes executor of the fork plan: multi-worker page copy and
//! relocation.
//!
//! Morello is an 8-core SoC, but the paper's fork runs the copy/relocate
//! sweep on one core. This module models (and actually executes, with
//! host threads) a multicore fork engine for [`WalkMode::Parallel`]:
//!
//! 1. **Serial prologue** — the shared plan walk (`crate::plan`) stages
//!    shm, clean and lazy pages as every executor does, and allocates
//!    each eager page's destination frame on the spot from the sharded
//!    physical allocator ([`ufork_mem::PhysMem::alloc_frame_in`], home
//!    shard = chunk's lane). Allocating serially keeps the global
//!    `alloc_attempts` order — and therefore fault injection — identical
//!    across worker counts. Destination frames are granted
//!    [`ufork_mem::ZeroPolicy::Uninit`]: a Full-copy destination is
//!    entirely overwritten, so recycled frames skip the zeroing scrub
//!    (the deferred-zeroing win; fresh frames are zeroed by construction).
//! 2. **Parallel chunks** — the eager pages are partitioned into
//!    fixed-size chunks of [`CHUNK_PAGES`]; chunk *i* is processed by
//!    lane `i % workers` on a scoped host thread. Each worker copies the
//!    source frame into the *detached* destination frame and relocates
//!    its capabilities via [`relocate_frame_in`] with a memo-free
//!    [`crate::FrozenIndex`] region lookup. Workers return per-chunk
//!    simulated costs and statistics; they never touch shared mutable
//!    state.
//! 3. **Merge** — destination frames are reattached and per-chunk costs
//!    are folded into [`LaneClocks`] *in chunk-index order* (never host
//!    completion order); the elapsed parallel time (max over lanes) is
//!    charged to the kernel clock before the plan's shared epilogue.
//!
//! Simulated elapsed fork time = serial prologue + max-over-lanes(chunk
//! costs) + epilogue. Because lane assignment, allocation order, and cost
//! folding are all pure functions of the page list and worker count, the
//! same heap + same worker count reproduce bit-identical simulated
//! nanoseconds regardless of host scheduling.
//!
//! Every destination allocation is journaled, so a mid-prologue failure
//! rolls back like any other: eagerly allocated destinations go back to
//! the recycled pools. The parallel phase itself is infallible by
//! construction: all allocation happens in the prologue.

use std::cell::Cell;

use ufork_abi::{Errno, SysResult};
use ufork_cheri::Capability;
use ufork_exec::Ctx;
use ufork_mem::{Frame, Pfn, ZeroPolicy};
use ufork_sim::{LaneClocks, OpCounters};
use ufork_vmem::Region;

use crate::journal::JournalOp;
use crate::kernel::UforkOs;
use crate::reloc::{reloc_cost, relocate_frame_in, ScanMode};

/// How the fork plan's eager pages are executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WalkMode {
    /// Inline: each eager page is copied and relocated as the walk
    /// reaches it, on one lane.
    #[default]
    Serial,
    /// Lanes: eager pages are copied by the given number of workers
    /// (clamped to ≥ 1) with deterministic lane clocks.
    Parallel(usize),
    /// Deferred, two-phase pipelined fork: the walk stages every
    /// would-be-eager page on the shared parent frame (CoA-style
    /// protection, parent CoW-armed) and the fork **commits with the
    /// child runnable** at lazy-strategy latency. The remaining copies
    /// then stream behind the child in [`CHUNK_PAGES`]-page chunks
    /// (`crate::pipeline`), each a journaled transaction of its own; a
    /// child fault on an uncopied page jumps the copy queue and resolves
    /// its chunk inline.
    Pipelined,
}

/// Pages per parallel chunk. Small enough to balance lanes on modest
/// heaps, large enough that per-chunk overhead stays negligible.
pub const CHUNK_PAGES: usize = 32;

/// One eager page's work item: source frame and destination frame
/// (owned while detached from `PhysMem`).
pub(crate) struct EagerPage {
    src: Pfn,
    dst: Pfn,
    frame: Frame,
}

/// A worker's result for one chunk.
#[derive(Default)]
struct ChunkOut {
    cost: f64,
    counters: OpCounters,
}

impl UforkOs {
    /// Prologue step for one eager page: allocates its destination from
    /// the home shard of the lane its chunk will run on.
    pub(crate) fn alloc_lane_frame(
        &mut self,
        ctx: &mut Ctx,
        src: Pfn,
        workers: usize,
        eager: &mut Vec<EagerPage>,
    ) -> SysResult<Pfn> {
        let home = (eager.len() / CHUNK_PAGES) % workers;
        let grant = self
            .pm
            .alloc_frame_in(home, ZeroPolicy::Uninit)
            .map_err(|_| Errno::NoMem)?;
        self.journal
            .record(JournalOp::FrameAlloc(grant.pfn))
            .map_err(|_| Errno::NoMem)?;
        if grant.recycled {
            ctx.counters.frames_recycled += 1;
            ctx.instant("alloc/recycle");
        }
        if grant.zeroing_skipped {
            ctx.counters.zeroing_skipped += 1;
            ctx.instant("alloc/zero_skip");
        }
        if grant.stolen {
            ctx.counters.alloc_steals += 1;
            ctx.instant("alloc/steal");
        }
        eager.push(EagerPage {
            src,
            dst: grant.pfn,
            frame: Frame::detached(),
        });
        Ok(grant.pfn)
    }

    /// Copies and relocates the prologue's eager pages on `workers` host
    /// threads and charges the elapsed parallel time.
    pub(crate) fn run_lanes(
        &mut self,
        ctx: &mut Ctx,
        c_region: Region,
        c_root: &Capability,
        workers: usize,
        mut eager: Vec<EagerPage>,
    ) -> SysResult<()> {
        let validates = self.isolation.validates_syscalls();
        let n_chunks = eager.len().div_ceil(CHUNK_PAGES);
        // Detach every destination frame so workers own them outright
        // while `PhysMem` is only shared for reading source frames.
        // Detachment failing means the prologue's allocation vanished — a
        // kernel bug, surfaced as a typed error (after reattaching, so
        // the caller's rollback sees consistent state) rather than a
        // panic on a syscall path.
        for i in 0..eager.len() {
            match self.pm.detach_frame(eager[i].dst) {
                Ok(f) => eager[i].frame = f,
                Err(_) => {
                    debug_assert!(false, "destination allocated in the prologue");
                    for page in eager[..i].iter_mut() {
                        let f = std::mem::replace(&mut page.frame, Frame::detached());
                        let _ = self.pm.attach_frame(page.dst, f);
                    }
                    return Err(Errno::Fault);
                }
            }
        }

        let mut results: Vec<(usize, ChunkOut)> = Vec::with_capacity(n_chunks);
        let mut worker_err: Option<Errno> = None;
        {
            let pm = &self.pm;
            let cost = &self.cost;
            let frozen = self.region_index.frozen();
            let c_root = *c_root;

            // Deterministic distribution: chunk i → lane i % workers.
            let mut lane_work: Vec<Vec<(usize, &mut [EagerPage])>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (i, chunk) in eager.chunks_mut(CHUNK_PAGES).enumerate() {
                lane_work[i % workers].push((i, chunk));
            }

            std::thread::scope(|s| {
                let handles: Vec<_> = lane_work
                    .into_iter()
                    .map(|work| {
                        s.spawn(move || -> SysResult<Vec<(usize, ChunkOut)>> {
                            let mut out: Vec<(usize, ChunkOut)> = Vec::with_capacity(work.len());
                            for (idx, chunk) in work {
                                let mut co = ChunkOut::default();
                                let lookups = Cell::new(0u64);
                                let source_of = |addr: u64| {
                                    lookups.set(lookups.get() + 1);
                                    frozen.lookup(addr)
                                };
                                for page in chunk.iter_mut() {
                                    // The parent's mapping holds a ref, so
                                    // the source frame must exist; a miss is
                                    // a kernel bug surfaced as a typed error.
                                    let Ok(src) = pm.frame(page.src) else {
                                        return Err(Errno::Fault);
                                    };
                                    page.frame.copy_from(src);
                                    let stats = relocate_frame_in(
                                        &mut page.frame,
                                        c_region,
                                        &c_root,
                                        &source_of,
                                        ScanMode::TagSummary,
                                    );
                                    co.cost += cost.page_alloc
                                        + cost.page_copy
                                        + reloc_cost(cost, &stats)
                                        + cost.pte_write
                                        + if validates {
                                            cost.page_scan() + cost.tocttou_fixed
                                        } else {
                                            0.0
                                        };
                                    stats.count(&mut co.counters);
                                }
                                co.counters.region_lookups = lookups.get();
                                out.push((idx, co));
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                for h in handles {
                    match h.join().expect("fork worker panicked") {
                        Ok(out) => results.extend(out),
                        Err(e) => worker_err = Some(e),
                    }
                }
            });
        }

        // Reattach before anything else — on a worker error too, so the
        // caller's rollback finds every destination frame in place.
        let n_eager = eager.len() as u64;
        for page in eager.drain(..) {
            if self.pm.attach_frame(page.dst, page.frame).is_err() {
                debug_assert!(false, "slot still holds the placeholder");
            }
        }
        if let Some(e) = worker_err {
            return Err(e);
        }

        // Fold chunk costs into lane clocks in chunk-index order, never
        // host completion order: simulated time must be a pure function
        // of the inputs.
        results.sort_by_key(|(i, _)| *i);
        ctx.phase("fork/walk/par");
        // Lane timelines start where the main (kernel) clock stands when
        // the parallel section is entered; each chunk's span begins at its
        // lane's simulated clock and runs for the chunk's cost. Both are
        // pure functions of chunk order and worker count — host
        // scheduling cannot perturb the trace.
        let par_base = ctx.kernel_ns;
        let mut lanes = LaneClocks::new(workers);
        for (i, co) in &results {
            ctx.lane_span(
                "fork/chunk",
                (*i % workers) as u32,
                par_base + lanes.lane(*i),
                co.cost,
            );
            lanes.charge(*i, co.cost);
            ctx.counters.merge(&co.counters);
        }
        ctx.kernel(lanes.elapsed());
        ctx.counters.fork_chunks += n_chunks as u64;
        ctx.counters.pages_copied += n_eager;
        ctx.counters.pages_copied_eager += n_eager;
        Ok(())
    }
}
