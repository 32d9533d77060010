//! The μFork fork transaction (paper §3.5).
//!
//! 1. **Plan and admission** — classify the parent's pages once into a
//!    [`crate::plan::ForkPlan`], then pre-flight its frame demand against
//!    the allocator's reservation ledger; under
//!    `FallbackPolicy::Degrade` the kernel downgrades `Full → CoA → CoPA`
//!    until the demand fits instead of failing.
//! 2. **Parent state duplication** — reserve a contiguous child region
//!    and run the plan: the child maps the parent's physical pages, the
//!    GOT and the in-use allocator metadata are proactively copied and
//!    relocated, and the configured copy strategy is armed on everything
//!    else.
//! 3. **Post-copy phase** — mint the child's root capability, relocate
//!    the register file, and hand the child to the scheduler (done by
//!    the executive).
//!
//! Every side effect is recorded in the transactional [`crate::journal`]:
//! a failure at any point — frame exhaustion, refcount overflow, injected
//! journal abort — rolls the kernel back to its exact pre-fork state
//! ([`UforkOs::rollback_fork`]). On memory exhaustion the kernel then
//! runs a bounded reclaim-then-retry loop (drain the recycled pools'
//! deferred-zero queues, charge a deterministic simulated backoff,
//! re-attempt the fork) before surfacing `NoMem`.

use ufork_abi::{CopyStrategy, Errno, Pid, SysResult};
use ufork_cheri::{Capability, Perms};
use ufork_exec::Ctx;
use ufork_mem::{content_hash, FrameDedupIndex, Pfn, PhysMem, PAGE_SIZE};
use ufork_sim::CostModel;
use ufork_vmem::{PageTable, Pte, PteFlags, Region, VirtAddr, Vpn};

use crate::journal::{FallbackPolicy, JournalOp};
use crate::kernel::{UProc, UforkOs};
use crate::plan::{ForkPlan, PageClass};
use crate::reloc::{reloc_cost, relocate_frame, ScanMode};

/// How much of the parent's address space a fork walks through the copy
/// machinery.
///
/// Under [`DirtySince`](CopyScope::DirtySince) only pages written since
/// the parent's last generation stamp are copied (or CoW/CoA-armed per
/// strategy); clean pages are shared outright — refcount bump plus CoW
/// protect, no frame allocation, no tag scan — making repeat forks from
/// a mostly-unchanged heap O(dirty) instead of O(heap). The child is
/// byte-identical either way: both arms reference the parent's
/// fork-time frames, the scope only decides *when* the private copy
/// materializes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyScope {
    /// Walk every mapped page (the classic fork; always sound).
    Everything,
    /// Copy only pages dirtied since parent generation `gen` (its PTEs'
    /// soft-dirty bit, or a generation mismatch from a remap). Sound
    /// only while `gen` is the parent's current stamp cursor;
    /// [`UforkOs::fork_scoped`] silently widens anything else to
    /// `Everything`.
    DirtySince(u32),
}

impl CopyScope {
    /// Is this page inside the copy scope (i.e. must it go through the
    /// full copy/arm machinery rather than the clean-share arm)?
    pub(crate) fn page_dirty(self, pte: &Pte) -> bool {
        match self {
            CopyScope::Everything => true,
            // A generation mismatch is conservatively dirty: remaps
            // reset the stamp, and an unstamped page has no history.
            CopyScope::DirtySince(gen) => pte.flags.contains(PteFlags::DIRTY) || pte.gen != gen,
        }
    }
}

/// Bounded reclaim-then-retry attempts after a rolled-back fork (and
/// after a rolled-back pipelined background chunk, which reuses the same
/// loop in `crate::pipeline`).
pub(crate) const MAX_FORK_RETRIES: u32 = 2;

/// Outcome classification for one fork attempt. `Retryable` failures
/// are memory exhaustion the reclaim loop may cure; `Fatal` ones (region
/// exhaustion, integrity faults, injected journal aborts) are not.
pub(crate) enum ForkFail {
    Retryable(Errno),
    Fatal(Errno),
}

impl UforkOs {
    /// Reads a `u64` from a μprocess' memory, kernel-side (no faults: the
    /// parent's own pages are always readable by the kernel).
    fn kread_u64(&self, va: u64) -> SysResult<u64> {
        let v = VirtAddr(va);
        let pte = self.pt.lookup(v.vpn()).ok_or(Errno::Fault)?;
        let mut b = [0u8; 8];
        self.pm
            .read(pte.pfn, v.page_offset(), &mut b)
            .map_err(|_| Errno::Fault)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Forks `parent` into `child`: one transactional attempt, plus a
    /// bounded reclaim-then-retry loop when an attempt rolls back on
    /// memory exhaustion.
    pub(crate) fn fork_uproc(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        child: Pid,
        scope: CopyScope,
    ) -> SysResult<()> {
        self.retry_after_reclaim(ctx, |os, ctx| os.fork_attempt(ctx, parent, child, scope))
    }

    /// Runs `attempt` until it succeeds, fails fatally, or has been
    /// retried [`MAX_FORK_RETRIES`] times after a reclaim pass. Shared by
    /// fork and the pipelined background chunks; the retry schedule is a
    /// pure function of the failure sequence.
    pub(crate) fn retry_after_reclaim(
        &mut self,
        ctx: &mut Ctx,
        mut attempt: impl FnMut(&mut UforkOs, &mut Ctx) -> Result<(), ForkFail>,
    ) -> SysResult<()> {
        let mut retries = 0;
        loop {
            match attempt(self, ctx) {
                Ok(()) => return Ok(()),
                Err(ForkFail::Fatal(e)) => return Err(e),
                Err(ForkFail::Retryable(e)) => {
                    if retries >= MAX_FORK_RETRIES {
                        return Err(e);
                    }
                    retries += 1;
                    self.reclaim_backoff(ctx, "fork/reclaim");
                }
            }
        }
    }

    /// One inline reclaim pass under `phase`: drains the recycled pools'
    /// deferred-zero queues (the one reclaim the simulation models) and
    /// charges a deterministic backoff.
    pub(crate) fn reclaim_backoff(&mut self, ctx: &mut Ctx, phase: &'static str) {
        ctx.phase(phase);
        let scrubbed = self.pm.reclaim_pass();
        let backoff = self.cost.reclaim_backoff + self.cost.zero_page * scrubbed as f64;
        ctx.kernel(backoff);
        ctx.counters.reclaim_inline += 1;
        ctx.counters.fork_backoff_ns += backoff as u64;
    }

    /// One transactional fork attempt. On `Err` the journal has been
    /// rolled back: the kernel is exactly as before the attempt.
    fn fork_attempt(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        child: Pid,
        scope: CopyScope,
    ) -> Result<(), ForkFail> {
        debug_assert_eq!(self.journal.len(), 0, "journal must be empty between forks");
        // Fixed path: task struct, PID allocation, fd duplication hooks,
        // thread creation, scheduler insertion (paper §3.5 step 2).
        ctx.phase("fork/fixed");
        ctx.kernel(self.cost.fork_fixed_ufork);

        let (p_region, layout, p_regs, p_shm_next, p_mmap_next) = {
            let p = self.proc(parent).map_err(ForkFail::Fatal)?;
            (
                p.region,
                p.layout.clone(),
                p.regs.clone(),
                p.shm_next,
                p.mmap_next,
            )
        };

        // How much allocator metadata is live (eagerly copied, §3.5).
        let meta_header = p_region.base.0 + layout.heap_meta.0;
        let blocks_used = self.kread_u64(meta_header + 16).map_err(ForkFail::Fatal)?;
        let meta_used_bytes = 64 + blocks_used * crate::layout::BLOCK_DESC_BYTES;

        // The one classification pass over the parent's pages.
        let plan = self.plan_fork(p_region, &layout, meta_used_bytes, scope);

        // Admission control: pre-flight the frame demand and book the
        // reservation (possibly degrading the strategy) before any
        // side effect that would need unwinding.
        let strategy = self.admit_fork(ctx, &plan)?;

        // Reserve the child's contiguous region.
        ctx.phase("fork/region");
        let c_region = match self.regions.alloc(layout.region_len()) {
            Ok(r) => r,
            Err(_) => {
                // Region exhaustion is not curable by frame reclaim.
                self.rollback_fork(ctx);
                let _ = self.journal.take_injected();
                return Err(ForkFail::Fatal(Errno::NoMem));
            }
        };
        if self
            .journal
            .record(JournalOp::RegionAlloc(c_region))
            .is_err()
        {
            return Err(self.abort_fork(ctx, Errno::NoMem));
        }
        let c_root = Capability::new_root(c_region.base.0, layout.region_len(), Perms::data());
        debug_assert!(!c_root.perms().contains(Perms::SYSTEM));

        let deferred = match self.run_plan(ctx, &plan, c_region, &c_root, strategy, scope) {
            Ok(deferred) => deferred,
            Err(e) => return Err(self.abort_fork(ctx, e)),
        };

        // Stamp the parent's PTEs with the next fork generation (and
        // clear the soft-dirty bits) so the *next* fork can run
        // `DirtySince` against this one's snapshot. Runs after the
        // walk's protection sweep so the journaled pre-stamp state is
        // the post-arm state reverse-order rollback expects.
        if let Err(e) = self.stamp_dirty_generation(ctx, parent, &plan) {
            return Err(self.abort_fork(ctx, e));
        }

        // Relocate the register file (paper §3.5 step 2: "any absolute
        // memory references contained in registers are relocated").
        ctx.phase("fork/regs");
        let mut c_regs = p_regs;
        for slot in c_regs.iter_mut() {
            if let Some(cap) = slot {
                if cap.confined_to(c_region.base.0, c_region.len) {
                    continue;
                }
                if let Some(src) = self.region_index.lookup(cap.base()) {
                    let delta = c_region.base.0 as i64 - src.base.0 as i64;
                    match cap.rebase(delta, &c_root) {
                        Ok(new_cap) => {
                            *slot = Some(new_cap);
                            ctx.counters.caps_relocated += 1;
                        }
                        Err(_) => *slot = None,
                    }
                } else if cap.perms().contains(Perms::EXECUTE) {
                    // PCC-style register: rebase code caps by region offset.
                    let delta = c_region.base.0 as i64 - p_region.base.0 as i64;
                    if let Some(addr) = cap.addr().checked_add_signed(delta) {
                        let code_root =
                            Capability::new_root(c_region.base.0, layout.text.1, Perms::code());
                        *slot = code_root.with_addr(addr).ok();
                    }
                }
                ctx.kernel(self.cost.cap_relocate);
            }
        }
        ctx.counters.region_lookups += self.region_index.take_lookups();

        ctx.phase("fork/commit");
        self.procs.insert(
            child,
            UProc {
                region: c_region,
                layout,
                root: c_root,
                regs: c_regs,
                shm_next: p_shm_next,
                mmap_next: p_mmap_next,
                had_children: false,
                dirty_gen: 0,
                dirty_tracked: false,
            },
        );
        if self.journal.record(JournalOp::ProcInsert(child)).is_err() {
            return Err(self.abort_fork(ctx, Errno::NoMem));
        }
        self.region_index.insert(c_region);
        if self
            .journal
            .record(JournalOp::IndexInsert(c_region))
            .is_err()
        {
            return Err(self.abort_fork(ctx, Errno::NoMem));
        }
        if let Some(p) = self.procs.get_mut(&parent) {
            p.had_children = true;
        }
        self.commit_fork(ctx, child, c_region, c_root, deferred);
        Ok(())
    }

    /// Rolls back the in-flight fork (or pipelined background chunk) and
    /// classifies the failure: injected journal aborts and non-memory
    /// faults are fatal; `NoMem` is retryable (the reclaim loop may cure
    /// it).
    pub(crate) fn abort_fork(&mut self, ctx: &mut Ctx, e: Errno) -> ForkFail {
        self.rollback_fork(ctx);
        if self.journal.take_injected() {
            ForkFail::Fatal(e)
        } else if e == Errno::NoMem {
            ForkFail::Retryable(e)
        } else {
            ForkFail::Fatal(e)
        }
    }

    /// Commits the in-flight fork: the journal is cleared and the
    /// admission reservation handed back (the walk's allocations have
    /// long consumed the promised frames).
    ///
    /// A pipelined fork commits with `deferred` pages still uncopied. So
    /// admission stays sound across the background window, the
    /// reservation is *not* fully released: one promised frame per
    /// deferred page stays booked in the ledger, carried by the child's
    /// [`crate::pipeline::PipelineState`] and released chunk by chunk as
    /// the background copies consume it.
    fn commit_fork(
        &mut self,
        ctx: &mut Ctx,
        child: Pid,
        c_region: Region,
        c_root: Capability,
        deferred: Vec<(Vpn, PteFlags)>,
    ) {
        let (ops, reserved) = self.journal.commit();
        ctx.counters.journal_ops += ops;
        if deferred.is_empty() {
            self.pm.release(reserved);
            return;
        }
        let behind = deferred.len() as u64;
        let hold = behind.min(reserved);
        self.pm.release(reserved - hold);
        ctx.counters.pipeline_bytes_behind += behind * PAGE_SIZE;
        ctx.instant("fork/pipeline/commit");
        self.pipelines.insert(
            child,
            crate::pipeline::PipelineState::new(c_region, c_root, deferred, hold),
        );
    }

    /// Applies the journal's inverses in reverse record order, returning
    /// the kernel to its exact pre-fork state: child frames freed,
    /// shared refcounts restored, staged PTEs unmapped, parent COW
    /// arming reverted, region and process-table entries removed, the
    /// admission reservation released.
    pub(crate) fn rollback_fork(&mut self, ctx: &mut Ctx) {
        ctx.phase("fork/rollback");
        let ops = self.journal.take_ops();
        ctx.counters.journal_ops += ops.len() as u64;
        ctx.counters.fork_rollbacks += 1;
        let mut ns = 0.0;
        for op in ops.into_iter().rev() {
            match op {
                JournalOp::ReserveFrames(n) => self.pm.release(n),
                JournalOp::RegionAlloc(r) => {
                    let _ = self.regions.free(r);
                }
                // Frame references are owned by these two records;
                // `PteMap` below therefore unmaps without dec_ref.
                JournalOp::FrameAlloc(pfn) | JournalOp::RefInc(pfn) => {
                    let _ = self.pm.dec_ref(pfn);
                }
                JournalOp::PteMap(vpn) => {
                    self.pt.unmap(vpn);
                    ns += self.cost.pte_write;
                }
                JournalOp::CowArm(vpn) => {
                    // Only recorded for PTEs not already armed, so
                    // clearing restores the exact pre-fork flags.
                    if let Some(p) = self.pt.lookup_mut(vpn) {
                        p.flags = p.flags.without(PteFlags::COW);
                    }
                    ns += self.cost.pte_protect;
                }
                JournalOp::IndexInsert(r) => {
                    self.region_index.remove(r);
                }
                JournalOp::ProcInsert(pid) => {
                    self.procs.remove(&pid);
                }
                JournalOp::PteRemap { vpn, old } => {
                    // Restore the exact pre-rewrite PTE — including its
                    // generation stamp, which `map` would reset. A no-op
                    // when the rewrite never applied (record-then-apply).
                    self.pt.extend_sorted([(vpn, old)]);
                    ns += self.cost.pte_write;
                }
                JournalOp::RefDec(pfn) => {
                    // Re-take the fork-time shared reference the chunk
                    // dropped. The frame cannot have been freed: the
                    // chunk only decrements refcounts it observed ≥ 2,
                    // so another mapping still holds the frame.
                    let _ = self.pm.inc_ref(pfn);
                }
                JournalOp::DirtyStamp {
                    vpn,
                    old_gen,
                    was_dirty,
                    had_cow,
                } => {
                    // Rewrite the exact pre-stamp generation state.
                    // Idempotent when the stamp never applied
                    // (record-then-apply): every restored value is then
                    // already in place.
                    if let Some(p) = self.pt.lookup_mut(vpn) {
                        p.gen = old_gen;
                        p.flags = if was_dirty {
                            p.flags.with(PteFlags::DIRTY)
                        } else {
                            p.flags.without(PteFlags::DIRTY)
                        };
                        if !had_cow {
                            p.flags = p.flags.without(PteFlags::COW);
                        }
                    }
                    ns += self.cost.pte_protect;
                }
                JournalOp::DirtyTrack {
                    pid,
                    old_gen,
                    old_tracked,
                } => {
                    if let Some(p) = self.procs.get_mut(&pid) {
                        p.dirty_gen = old_gen;
                        p.dirty_tracked = old_tracked;
                    }
                }
                JournalOp::FrameScrub(pfn) => {
                    // Drop the frame back off the magazine; the zeroed
                    // content stays (safe either way — an unscrubbed
                    // flag only means the next grant re-zeroes).
                    let _ = self.pm.unscrub_frame(pfn);
                }
            }
        }
        ctx.kernel(ns);
    }

    /// Admission control (tentpole of the robustness layer): estimate
    /// the fork's frame demand, book it in the allocator's reservation
    /// ledger, and — under [`FallbackPolicy::Degrade`] — downgrade the
    /// strategy `Full → CoA → CoPA` until the demand fits.
    fn admit_fork(&mut self, ctx: &mut Ctx, plan: &ForkPlan) -> Result<CopyStrategy, ForkFail> {
        if self.fallback == FallbackPolicy::Disabled {
            return Ok(self.strategy);
        }
        ctx.phase("fork/admission");
        ctx.kernel(self.cost.admission_check);
        let requested = self.strategy;
        let (private, eager) = (plan.private, plan.eager);
        let demand = Self::immediate_demand(requested, private, eager);
        if self.pm.reserve(demand).is_ok() {
            if self
                .journal
                .record(JournalOp::ReserveFrames(demand))
                .is_err()
            {
                return Err(self.abort_fork(ctx, Errno::NoMem));
            }
            return Ok(requested);
        }
        if self.fallback == FallbackPolicy::Strict {
            // Nothing staged yet: no rollback needed, and frame reclaim
            // cannot conjure capacity, so the failure is final.
            return Err(ForkFail::Fatal(Errno::NoMem));
        }
        // Degrade ladder. The cheaper strategies' immediate demand is
        // their eager pages plus a near-term lazy-copy estimate: CoA
        // faults on *any* child access (assume half the lazy pages copy
        // soon), CoPA only on writes and tagged loads — the tag-summary
        // bitmaps (PR 2) bound that by the capability-dense page count.
        let cap_dense = plan.cap_dense(&self.pm);
        ctx.kernel(self.cost.tags_load * 4.0 * private as f64);
        let lazy = private - eager;
        let ladder = [
            (CopyStrategy::CoA, eager + lazy / 2),
            (CopyStrategy::CoPA, eager + cap_dense.min(lazy)),
        ];
        for (cand, est) in ladder {
            if Self::degrade_rank(cand) <= Self::degrade_rank(requested) {
                continue;
            }
            if self.pm.reserve(est).is_ok() {
                if self.journal.record(JournalOp::ReserveFrames(est)).is_err() {
                    return Err(self.abort_fork(ctx, Errno::NoMem));
                }
                ctx.counters.forks_degraded += 1;
                ctx.instant("fork/degrade");
                return Ok(cand);
            }
        }
        Err(ForkFail::Fatal(Errno::NoMem))
    }

    /// Position in the degradation ladder (higher = cheaper at fork).
    fn degrade_rank(s: CopyStrategy) -> u8 {
        match s {
            CopyStrategy::Full => 0,
            CopyStrategy::CoA => 1,
            CopyStrategy::CoPA => 2,
        }
    }

    /// Frames a fork must allocate up front: every private page under
    /// `Full`, only the eagerly-copied pages under the lazy strategies.
    fn immediate_demand(strategy: CopyStrategy, private: u64, eager: u64) -> u64 {
        match strategy {
            CopyStrategy::Full => private,
            CopyStrategy::CoA | CopyStrategy::CoPA => eager,
        }
    }

    /// Stamps every non-shm parent PTE with the next fork generation:
    /// generation field overwritten, soft-dirty bit cleared (each dirty
    /// bit set since the last fork is cleared exactly once, here),
    /// writable pages (re-)armed CoW so the *first* post-fork write
    /// faults and sets the bit again. Skipped unless dirty tracking is
    /// on. Fully journaled: an abort mid-sweep restores every PTE's
    /// exact pre-stamp state and the parent's cursor.
    fn stamp_dirty_generation(
        &mut self,
        ctx: &mut Ctx,
        parent: Pid,
        plan: &ForkPlan,
    ) -> SysResult<()> {
        if !self.track_dirty {
            return Ok(());
        }
        ctx.phase("fork/dirty_scan");
        let (old_gen, old_tracked) = {
            let p = self.proc(parent)?;
            (p.dirty_gen, p.dirty_tracked)
        };
        // Generation 0 means "never stamped" (fresh maps land there and
        // must read as dirty), so the cursor skips it on wrap.
        let new_gen = match old_gen.wrapping_add(1) {
            0 => 1,
            g => g,
        };
        let mut stamped: Vec<Vpn> = Vec::new();
        // Shm frames are shared read-write by design; arming them CoW
        // would privatize a write. The walk only added COW to the other
        // pages, so the journal reads their post-arm state back.
        for page in plan.pages.iter().filter(|p| p.class != PageClass::Shm) {
            let pte = self.pt.lookup(page.vpn).ok_or(Errno::Fault)?;
            self.journal
                .record(JournalOp::DirtyStamp {
                    vpn: page.vpn,
                    old_gen: pte.gen,
                    was_dirty: pte.flags.contains(PteFlags::DIRTY),
                    had_cow: pte.flags.contains(PteFlags::COW),
                })
                .map_err(|_| Errno::NoMem)?;
            stamped.push(page.vpn);
        }
        self.journal
            .record(JournalOp::DirtyTrack {
                pid: parent,
                old_gen,
                old_tracked,
            })
            .map_err(|_| Errno::NoMem)?;
        let n = self.pt.stamp_many(stamped, new_gen);
        ctx.kernel(self.cost.pte_protect * n as f64);
        if let Some(p) = self.procs.get_mut(&parent) {
            p.dirty_gen = new_gen;
            p.dirty_tracked = true;
        }
        Ok(())
    }
}

/// Outcome of a cross-child dedup probe for one eager-copy source page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DedupProbe {
    /// Dedup disabled, or the source frame holds tags (per-child
    /// relocation makes tagged copies never byte-identical).
    Skip,
    /// A validated identical frame exists: share it instead of copying.
    Hit(Pfn),
    /// No (valid) candidate; the caller should copy and then register
    /// the fresh frame under this content hash.
    Miss(u64),
}

/// Probes the cross-child frame-dedup index for a frame identical to
/// `src`. A hit is validated against live state before it is trusted:
/// the canonical frame must still be allocated, its canonical mapping
/// must still point at it write-protected (so the content cannot have
/// drifted since insert), it must still be untagged, and a full content
/// comparison must match — the hash is only an index key, never an
/// equality proof. Stale entries are evicted on sight, which is what
/// lets inserts skip the journal entirely.
pub(crate) fn dedup_probe(
    pm: &PhysMem,
    pt: &PageTable,
    dedup: &mut FrameDedupIndex,
    cost: &CostModel,
    ctx: &mut Ctx,
    src: Pfn,
) -> DedupProbe {
    let Ok(frame) = pm.frame(src) else {
        return DedupProbe::Skip;
    };
    if frame.cap_count() > 0 {
        return DedupProbe::Skip;
    }
    let hash = content_hash(frame);
    ctx.kernel(cost.page_hash);
    ctx.counters.dedup_hash_probes += 1;
    let Some(entry) = dedup.get(hash) else {
        return DedupProbe::Miss(hash);
    };
    let canonical_stable = pm.refcount(entry.pfn).is_ok()
        && pt.lookup(Vpn(entry.vpn)).is_some_and(|c| {
            c.pfn == entry.pfn
                && (c.flags.contains(PteFlags::COW) || !c.flags.contains(PteFlags::WRITE))
        })
        && pm.frame(entry.pfn).is_ok_and(|c| c.cap_count() == 0);
    if canonical_stable {
        ctx.kernel(cost.page_hash);
        ctx.counters.dedup_hash_probes += 1;
        let identical = pm.frame(entry.pfn).is_ok_and(|c| c.data() == frame.data());
        if identical {
            return DedupProbe::Hit(entry.pfn);
        }
    }
    dedup.evict(hash);
    DedupProbe::Miss(hash)
}

/// Allocates one `ZeroPolicy::Zeroed` frame on the fork/fault hot path,
/// charging the grant-time scrub of a recycled dirty frame to `ctx` —
/// unless the background reclaim daemon already pre-zeroed it (a
/// clean-frame magazine hit: counted, but free). Fresh frames are clean
/// by construction and charge nothing, preserving the cold-start cost
/// profile exactly.
pub(crate) fn alloc_zeroed_charged(
    pm: &mut PhysMem,
    cost: &CostModel,
    ctx: &mut Ctx,
) -> Result<Pfn, ufork_mem::MemError> {
    let g = pm.alloc_frame_grant()?;
    if g.prezeroed {
        ctx.counters.magazine_hits += 1;
    } else if g.recycled {
        ctx.kernel(cost.zero_page);
    }
    Ok(g.pfn)
}

impl UforkOs {
    /// Relocates the capabilities of a freshly copied (or adopted) frame
    /// into `region` and charges the scan (paper §4.2); shared by the
    /// inline fork executor, pipelined chunks and fault resolution.
    pub(crate) fn relocate_charged(
        &mut self,
        ctx: &mut Ctx,
        pfn: Pfn,
        region: Region,
        root: &Capability,
    ) {
        let index = &self.region_index;
        let stats = relocate_frame(
            &mut self.pm,
            pfn,
            region,
            root,
            &|addr| index.lookup(addr),
            ScanMode::TagSummary,
        );
        ctx.counters.region_lookups += index.take_lookups();
        ctx.kernel(reloc_cost(&self.cost, &stats));
        stats.count(&mut ctx.counters);
    }
}
