//! The fork plan: one classification pass over the parent's pages, run
//! by one of three executors (paper §3.5, strategies §3.8).
//!
//! [`UforkOs::plan_fork`] streams the parent's mapped range off the page
//! table once and gives every page its segment offset, final flags and a
//! strategy-independent [`PageClass`]. Admission reads the plan's demand
//! counts, the dirty stamp reuses its page list, and
//! [`UforkOs::run_plan`] executes it. The arms that copy nothing — shm
//! share, clean share, the CoA/CoPA lazy arm and the parent CoW-arm list
//! — are shared; what happens to an eager page depends on the
//! [`WalkMode`]:
//!
//! * **inline** (`Serial`) — probe the dedup index, else copy and
//!   relocate the page on the spot;
//! * **lanes** (`Parallel(n)`) — allocate the destination from the lane's
//!   home shard now, copy and relocate on scoped worker threads once the
//!   stream ends ([`crate::fork_par`]);
//! * **deferred** (`Pipelined`) — stage the page CoA-style on the shared
//!   parent frame and copy it behind the commit ([`crate::pipeline`]).
//!
//! All three end in one epilogue: the staged child PTEs land in one
//! [`ufork_vmem::PageTable::extend_sorted`] batch and the parent's CoW
//! arming in one [`ufork_vmem::PageTable::protect_many`] pass. Every side
//! effect is journaled; on `Err` the caller rolls the fork back.

use ufork_abi::{CopyStrategy, Errno, SysResult};
use ufork_cheri::Capability;
use ufork_exec::Ctx;
use ufork_mem::{Pfn, PhysMem, PAGE_SIZE};
use ufork_vmem::{Pte, PteFlags, Region, VirtAddr, Vpn};

use crate::fork::{alloc_zeroed_charged, dedup_probe, CopyScope, DedupProbe};
use crate::fork_par::{EagerPage, WalkMode};
use crate::journal::JournalOp;
use crate::kernel::UforkOs;
use crate::layout::Segment;

/// What a fork does with one parent page, whatever the strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PageClass {
    /// Shared memory: the child maps the same frame with full perms.
    Shm,
    /// Outside a [`CopyScope::DirtySince`] scope: shared outright.
    Clean,
    /// GOT or live allocator metadata: copied eagerly under every
    /// strategy (paper §3.5).
    MetaEager,
    /// Any other page: copied eagerly under `Full`, lazily otherwise.
    Private,
}

/// One mapped parent page.
pub(crate) struct PlanPage {
    pub(crate) vpn: Vpn,
    pub(crate) pte: Pte,
    /// Offset in the region; the child page sits at the same offset.
    pub(crate) off: u64,
    /// The segment's final flags.
    pub(crate) flags: PteFlags,
    pub(crate) class: PageClass,
}

/// The parent's mapped pages in ascending order, classified once.
pub(crate) struct ForkPlan {
    pub(crate) pages: Vec<PlanPage>,
    /// Pages inside the copy scope (`MetaEager` + `Private`).
    pub(crate) private: u64,
    /// `MetaEager` pages.
    pub(crate) eager: u64,
}

impl ForkPlan {
    /// Private pages holding at least one tagged granule (a tag-summary
    /// read per page, so admission asks only when it degrades).
    pub(crate) fn cap_dense(&self, pm: &PhysMem) -> u64 {
        self.pages
            .iter()
            .filter(|p| matches!(p.class, PageClass::MetaEager | PageClass::Private))
            .filter(|p| pm.frame(p.pte.pfn).is_ok_and(|f| f.cap_count() > 0))
            .count() as u64
    }
}

/// What the walk does with an eager page.
enum Executor {
    Inline,
    Lanes {
        workers: usize,
        pages: Vec<EagerPage>,
    },
    Deferred(Vec<(Vpn, PteFlags)>),
}

/// Child flags of a page shared lazily: fully inaccessible under CoA;
/// readable under CoPA, with writes and capability loads faulting.
fn lazy_flags(strategy: CopyStrategy, final_flags: PteFlags) -> PteFlags {
    if strategy == CopyStrategy::CoA {
        return PteFlags::empty().with(PteFlags::COA);
    }
    let mut f = PteFlags::READ.with(PteFlags::LC_FAULT).with(PteFlags::COW);
    if final_flags.contains(PteFlags::EXEC) {
        f = f.with(PteFlags::EXEC);
    }
    if final_flags.contains(PteFlags::WRITE) {
        f = f.with(PteFlags::WRITE); // COW checked first
    }
    f
}

impl UforkOs {
    /// Classifies every mapped page of the parent's region.
    pub(crate) fn plan_fork(
        &self,
        p_region: Region,
        layout: &crate::ProcLayout,
        meta_used_bytes: u64,
        scope: CopyScope,
    ) -> ForkPlan {
        let start = p_region.base.vpn();
        let end = Vpn(p_region.top().0.div_ceil(PAGE_SIZE));
        let mut plan = ForkPlan {
            pages: Vec::new(),
            private: 0,
            eager: 0,
        };
        for (vpn, pte) in self.pt.range(start, end) {
            let off = vpn.base().0 - p_region.base.0;
            let seg = layout.segment_of(off);
            let class = if seg == Segment::Shm {
                PageClass::Shm
            } else if !scope.page_dirty(&pte) {
                PageClass::Clean
            } else if self.eager_fork_copies
                && match seg {
                    Segment::Got => true,
                    Segment::HeapMeta => off - layout.heap_meta.0 < meta_used_bytes,
                    _ => false,
                }
            {
                plan.eager += 1;
                PageClass::MetaEager
            } else {
                PageClass::Private
            };
            if matches!(class, PageClass::MetaEager | PageClass::Private) {
                plan.private += 1;
            }
            plan.pages.push(PlanPage {
                vpn,
                pte,
                off,
                flags: Self::seg_flags(seg),
                class,
            });
        }
        plan
    }

    /// Runs `plan` into the child region, recording every side effect in
    /// the journal. On `Err` nothing has been cleaned up yet — the caller
    /// rolls the journal back.
    ///
    /// Returns the pages whose copies were *deferred* behind the commit:
    /// empty except under [`WalkMode::Pipelined`]. Under
    /// [`CopyScope::DirtySince`] it holds only dirty pages, so the
    /// background window drains in O(dirty) too.
    pub(crate) fn run_plan(
        &mut self,
        ctx: &mut Ctx,
        plan: &ForkPlan,
        c_region: Region,
        c_root: &Capability,
        strategy: CopyStrategy,
        scope: CopyScope,
    ) -> SysResult<Vec<(Vpn, PteFlags)>> {
        let mut exec = match self.walk {
            WalkMode::Serial => Executor::Inline,
            WalkMode::Parallel(n) => Executor::Lanes {
                workers: n.max(1),
                pages: Vec::new(),
            },
            WalkMode::Pipelined => Executor::Deferred(Vec::new()),
        };
        // Staged child PTEs in ascending page order, inserted in one
        // batch on success only.
        let mut child_batch: Vec<(Vpn, Pte)> = Vec::new();
        // Parent pages to flip to COW in one protection sweep at the end.
        let mut cow_arm: Vec<Vpn> = Vec::new();

        for page in &plan.pages {
            ctx.phase("fork/walk/pte");
            let pfn = page.pte.pfn;
            let c_vpn = VirtAddr(c_region.base.0 + page.off).vpn();
            match page.class {
                PageClass::Shm => {
                    // Shared mappings stay shared: same frames, full perms.
                    self.share_frame(pfn)?;
                    child_batch.push((c_vpn, Pte::new(pfn, page.flags)));
                    ctx.kernel(self.cost.pte_copy);
                    continue;
                }
                PageClass::Clean => {
                    // Clean since the parent's last stamp: a refcount bump
                    // and one staged PTE, no frame allocation, no tag
                    // scan. Clean pages still hold the *parent's*
                    // capabilities, so direct capability loads stay
                    // fenced (CoPA-style), or all access under CoA.
                    self.share_frame(pfn)?;
                    child_batch.push((c_vpn, Pte::new(pfn, lazy_flags(strategy, page.flags))));
                    ctx.kernel(self.cost.pte_copy);
                    ctx.counters.pages_shared_clean += 1;
                }
                PageClass::MetaEager | PageClass::Private => {
                    if scope != CopyScope::Everything {
                        ctx.counters.pages_dirty_copied += 1;
                    }
                    let eager =
                        strategy == CopyStrategy::Full || page.class == PageClass::MetaEager;
                    let lazy = match &mut exec {
                        _ if !eager => strategy,
                        Executor::Inline => {
                            let pte = self.copy_inline(ctx, page, c_vpn, c_region, c_root)?;
                            child_batch.push((c_vpn, pte));
                            continue;
                        }
                        Executor::Lanes { workers, pages } => {
                            let dst = self.alloc_lane_frame(ctx, pfn, *workers, pages)?;
                            child_batch.push((c_vpn, Pte::new(dst, page.flags)));
                            continue;
                        }
                        Executor::Deferred(deferred) => {
                            // Stage, don't copy: the child maps the shared
                            // frame CoA-style (any access faults and jumps
                            // the copy queue), the parent is CoW-armed so
                            // its writes cannot perturb the snapshot, and
                            // the copy runs as a background chunk.
                            ctx.phase("fork/pipeline/stage");
                            deferred.push((c_vpn, page.flags));
                            CopyStrategy::CoA
                        }
                    };
                    self.share_frame(pfn)?;
                    child_batch.push((c_vpn, Pte::new(pfn, lazy_flags(lazy, page.flags))));
                    if lazy == CopyStrategy::CoA {
                        ctx.kernel(self.cost.pte_copy + self.cost.coa_pte_extra);
                    } else {
                        ctx.kernel(self.cost.pte_copy);
                    }
                }
            }
            // The parent's writable pages become copy-on-write.
            if page.flags.contains(PteFlags::WRITE) && !page.pte.flags.contains(PteFlags::COW) {
                cow_arm.push(page.vpn);
            }
        }

        let deferred = match exec {
            Executor::Inline => Vec::new(),
            Executor::Lanes { workers, pages } => {
                self.run_lanes(ctx, c_region, c_root, workers, pages)?;
                Vec::new()
            }
            Executor::Deferred(deferred) => deferred,
        };

        // Record-then-apply (see `crate::journal`): if recording aborts
        // part-way, the rollback's unmap of never-inserted VPNs is a
        // no-op.
        for (vpn, _) in &child_batch {
            self.journal
                .record(JournalOp::PteMap(*vpn))
                .map_err(|_| Errno::NoMem)?;
        }
        ctx.counters.ptes_written += self.pt.extend_sorted(child_batch);
        ctx.phase("fork/walk/cow_arm");
        for &vpn in &cow_arm {
            self.journal
                .record(JournalOp::CowArm(vpn))
                .map_err(|_| Errno::NoMem)?;
        }
        let armed = self.pt.protect_many(cow_arm, PteFlags::COW);
        ctx.kernel(self.cost.pte_protect * armed as f64);
        Ok(deferred)
    }

    /// Takes a journaled extra reference on `pfn` for a child mapping.
    pub(crate) fn share_frame(&mut self, pfn: Pfn) -> SysResult<()> {
        self.pm.inc_ref(pfn).map_err(|_| Errno::Fault)?;
        self.journal
            .record(JournalOp::RefInc(pfn))
            .map_err(|_| Errno::NoMem)
    }

    /// Inline executor: the child's final PTE for an eager page, either a
    /// sibling's identical frame from the dedup index or a fresh
    /// relocated copy.
    fn copy_inline(
        &mut self,
        ctx: &mut Ctx,
        page: &PlanPage,
        c_vpn: Vpn,
        c_region: Region,
        c_root: &Capability,
    ) -> SysResult<Pte> {
        // Cross-child dedup: untagged source frames only — relocation is
        // a no-op on them, so the copy equals the source and the hash key
        // is exact.
        let probe = if self.dedup_frames {
            ctx.phase("fork/dedup");
            dedup_probe(
                &self.pm,
                &self.pt,
                &mut self.dedup,
                &self.cost,
                ctx,
                page.pte.pfn,
            )
        } else {
            DedupProbe::Skip
        };
        if let DedupProbe::Hit(shared) = probe {
            self.share_frame(shared)?;
            // CoW-protected: the canonical content must stay stable
            // under every sharer's writes.
            ctx.kernel(self.cost.pte_write);
            ctx.counters.frames_deduped += 1;
            return Ok(Pte::new(shared, page.flags.with(PteFlags::COW)));
        }
        // The fresh frame is journaled before the copy: on a copy failure
        // the caller's rollback owns that reference.
        ctx.phase("fork/walk/copy");
        let new = alloc_zeroed_charged(&mut self.pm, &self.cost, ctx).map_err(|_| Errno::NoMem)?;
        self.journal
            .record(JournalOp::FrameAlloc(new))
            .map_err(|_| Errno::NoMem)?;
        if self.pm.copy_frame(page.pte.pfn, new).is_err() {
            return Err(Errno::Fault);
        }
        ctx.kernel(self.cost.page_alloc + self.cost.page_copy);
        ctx.counters.pages_copied += 1;
        ctx.phase("fork/walk/reloc");
        self.relocate_charged(ctx, new, c_region, c_root);
        ctx.phase("fork/walk/pte");
        let mut flags = page.flags;
        if let DedupProbe::Miss(hash) = probe {
            // Register the fresh copy as the canonical frame for this
            // content, CoW-armed so it stays byte-stable while indexed.
            // No journal op: a rolled-back fork leaves a stale entry that
            // self-invalidates on the next probe.
            self.dedup.insert(hash, new, c_vpn.0);
            flags = flags.with(PteFlags::COW);
        }
        ctx.kernel(self.cost.pte_write);
        if self.isolation.validates_syscalls() {
            // Adversarial deployments re-verify every relocated
            // capability against the child's bounds before the page
            // becomes visible (the fork-latency component of
            // TOCTTOU/validation, ~2.6% in the paper).
            ctx.kernel(self.cost.page_scan() + self.cost.tocttou_fixed);
        }
        ctx.counters.pages_copied_eager += 1;
        Ok(Pte::new(new, flags))
    }
}
