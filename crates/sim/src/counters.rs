//! Operation counters for mechanism-level assertions.

use std::fmt;

/// Declares [`OpCounters`] from one table: each counter is one `pub u64`
/// field with its doc comment, and the field-wise `merge` and `since` are
/// generated from the same list. The grouped `Display` below is written by
/// hand, so a new counter is one table line plus its `Display` slot.
macro_rules! op_counters {
    (
        $(#[$meta:meta])*
        pub struct OpCounters {
            $( $(#[$doc:meta])* pub $field:ident: u64, )*
        }
    ) => {
        $(#[$meta])*
        pub struct OpCounters {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl OpCounters {
            /// Adds `other` into `self` field-wise (merging a step's counters
            /// into the machine totals).
            pub fn merge(&mut self, other: &OpCounters) {
                $( self.$field += other.$field; )*
            }

            /// Difference `self - earlier`, for measuring a window of activity.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `earlier` exceeds `self` anywhere
            /// (counters are monotonic).
            pub fn since(&self, earlier: &OpCounters) -> OpCounters {
                OpCounters {
                    $( $field: self.$field - earlier.$field, )*
                }
            }

            /// Every counter set to `scale` times its 1-based position in
            /// the table, so each field holds a distinct value.
            #[cfg(test)]
            fn numbered(scale: u64) -> OpCounters {
                let mut position = 0;
                OpCounters {
                    $( $field: { position += 1; position * scale }, )*
                }
            }
        }
    };
}

op_counters! {
    /// Counts of primitive operations performed by a simulated kernel.
    ///
    /// Where the paper argues about *mechanism* ("CoPA copies only pages the
    /// child loads capabilities from"), tests assert on these counters rather
    /// than on simulated time, which makes them robust to cost-model
    /// recalibration.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct OpCounters {
        /// Pages copied (for any reason).
        pub pages_copied: u64,
        /// Pages copied eagerly during fork (GOT, allocator metadata, full-copy
        /// strategy).
        pub pages_copied_eager: u64,
        /// Copy-on-write faults resolved.
        pub cow_faults: u64,
        /// Copy-on-access faults resolved.
        pub coa_faults: u64,
        /// Capability-load (CoPA) faults resolved.
        pub cap_load_faults: u64,
        /// User accesses that exhausted the transparent-fault retry budget
        /// without resolving (a kernel invariant breach; should stay 0).
        pub fault_retries_exhausted: u64,
        /// Fault resolutions that reclaimed the frame in place (refcount was
        /// already 1, so no copy was needed).
        pub pages_reclaimed: u64,
        /// Capabilities relocated into a child region.
        pub caps_relocated: u64,
        /// Granules scanned for tags (inspected individually).
        pub granules_scanned: u64,
        /// Granules the tag-summary fast path skipped without inspection
        /// (their tag bit was clear in a bulk tag read).
        pub granules_skipped: u64,
        /// Bulk tag-summary words loaded (`CLoadTags`-style, 64 granules
        /// per word).
        pub tag_words_loaded: u64,
        /// Source-region lookups performed while relocating capabilities.
        pub region_lookups: u64,
        /// PTEs copied or created.
        pub ptes_written: u64,
        /// System calls executed.
        pub syscalls: u64,
        /// Trap-based kernel entries (monolithic baseline).
        pub traps: u64,
        /// Sealed-capability kernel entries (μFork).
        pub sealed_entries: u64,
        /// Context switches performed.
        pub ctx_switches: u64,
        /// forks completed.
        pub forks: u64,
        /// execs completed.
        pub execs: u64,
        /// Isolation violations detected (and refused).
        pub isolation_violations: u64,
        /// Bytes copied for TOCTTOU protection.
        pub tocttou_bytes: u64,
        /// Fixed-size chunks processed by the parallel fork walk.
        pub fork_chunks: u64,
        /// Frame allocations satisfied by stealing from another shard's pool.
        pub alloc_steals: u64,
        /// Frame allocations satisfied from the recycled-frame pool.
        pub frames_recycled: u64,
        /// Recycled-frame allocations that skipped the zeroing scrub because
        /// the caller overwrites the whole frame (deferred-zeroing win).
        pub zeroing_skipped: u64,
        /// Forks admitted with a cheaper strategy than requested (admission
        /// control downgraded Full→CoA→CoPA under memory pressure).
        pub forks_degraded: u64,
        /// Fork transactions rolled back through the journal (failure or
        /// injected fault at some journal op).
        pub fork_rollbacks: u64,
        /// Side-effect operations recorded in fork journals.
        pub journal_ops: u64,
        /// Reclaim passes run inline on a hot path by the NoMem retry loop
        /// (recycled pools scrubbed / deferred-zero queues drained while a
        /// fork or fault waits).
        pub reclaim_inline: u64,
        /// Reclaim batches run by the background reclaim daemon (scheduled
        /// off the hot path, driven by the pressure watermarks).
        pub reclaim_background: u64,
        /// Frames the background daemon scrubbed into the clean-frame
        /// magazines.
        pub frames_prezeroed: u64,
        /// `Zeroed`-policy allocations served pre-scrubbed from a clean-frame
        /// magazine (no inline zeroing charged).
        pub magazine_hits: u64,
        /// μprocesses killed by the OOM last resort so a fork under memory
        /// exhaustion could be admitted.
        pub oom_kills: u64,
        /// Simulated nanoseconds spent in reclaim backoff between fork
        /// retries (whole ns; the f64 charge is truncated when accumulated).
        pub fork_backoff_ns: u64,
        /// Background-copy chunks resolved inline by a child fault jumping
        /// the pipelined fork's copy queue (demand priority).
        pub pipeline_chunks_jumped: u64,
        /// Cumulative bytes a pipelined fork committed with the copy still
        /// outstanding (deferred pages × page size, summed over forks).
        pub pipeline_bytes_behind: u64,
        /// Pages a dirty-scoped fork classified as dirty and routed through
        /// the full copy/CoW machinery (`CopyScope::DirtySince` only).
        pub pages_dirty_copied: u64,
        /// Pages a dirty-scoped fork shared as clean: refcount bump plus CoW
        /// protect, no frame allocation, no tag scan.
        pub pages_shared_clean: u64,
        /// Eagerly-copied pages satisfied from the cross-child frame-dedup
        /// index instead of a fresh private frame.
        pub frames_deduped: u64,
        /// Dedup index work: content hashes computed plus memcmp
        /// verifications of probe hits.
        pub dedup_hash_probes: u64,
        /// Messages pushed through shared-memory descriptor rings.
        pub ring_msgs: u64,
        /// Ring endpoint capabilities carried across a fork (sealed caps
        /// relocated by the register walk, registry ends duplicated).
        pub ring_caps_relocated: u64,
        /// Push attempts that found the ring full (producer stalled).
        pub ring_full_stalls: u64,
    }
}

impl OpCounters {
    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = OpCounters::default();
    }
}

impl fmt::Display for OpCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pages copied: {} (eager {}, reclaimed {}), faults: cow {} / coa {} / capload {} \
             (retries exhausted {})",
            self.pages_copied,
            self.pages_copied_eager,
            self.pages_reclaimed,
            self.cow_faults,
            self.coa_faults,
            self.cap_load_faults,
            self.fault_retries_exhausted
        )?;
        writeln!(
            f,
            "caps relocated: {}, granules scanned: {} (skipped {}, tag words {}), \
             region lookups: {}, ptes written: {}",
            self.caps_relocated,
            self.granules_scanned,
            self.granules_skipped,
            self.tag_words_loaded,
            self.region_lookups,
            self.ptes_written
        )?;
        writeln!(
            f,
            "syscalls: {} (traps {}, sealed {}), ctx switches: {}, forks: {}, violations: {}",
            self.syscalls,
            self.traps,
            self.sealed_entries,
            self.ctx_switches,
            self.forks,
            self.isolation_violations
        )?;
        writeln!(
            f,
            "fork chunks: {}, alloc steals: {}, frames recycled: {} (zeroing skipped {})",
            self.fork_chunks, self.alloc_steals, self.frames_recycled, self.zeroing_skipped
        )?;
        writeln!(
            f,
            "journal ops: {}, rollbacks: {}, forks degraded: {}, reclaim passes: {} inline / \
             {} background, backoff: {} ns",
            self.journal_ops,
            self.fork_rollbacks,
            self.forks_degraded,
            self.reclaim_inline,
            self.reclaim_background,
            self.fork_backoff_ns
        )?;
        writeln!(
            f,
            "survival: frames prezeroed {}, magazine hits {}, oom kills {}",
            self.frames_prezeroed, self.magazine_hits, self.oom_kills
        )?;
        writeln!(
            f,
            "pipeline: chunks jumped {}, bytes behind {}",
            self.pipeline_chunks_jumped, self.pipeline_bytes_behind
        )?;
        writeln!(
            f,
            "dirty scope: dirty copied {}, shared clean {}; dedup: frames {}, probes {}",
            self.pages_dirty_copied,
            self.pages_shared_clean,
            self.frames_deduped,
            self.dedup_hash_probes
        )?;
        write!(
            f,
            "rings: msgs {}, caps relocated {}, full stalls {}",
            self.ring_msgs, self.ring_caps_relocated, self.ring_full_stalls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counter_merges_subtracts_and_displays() {
        let one = OpCounters::numbered(1);
        let mut total = OpCounters::default();
        total.merge(&one);
        total.merge(&one);
        assert_eq!(total, OpCounters::numbered(2));
        assert_eq!(total.since(&one), one);
        assert_eq!(
            one.to_string(),
            "pages copied: 1 (eager 2, reclaimed 7), faults: cow 3 / coa 4 / capload 5 \
             (retries exhausted 6)\n\
             caps relocated: 8, granules scanned: 9 (skipped 10, tag words 11), \
             region lookups: 12, ptes written: 13\n\
             syscalls: 14 (traps 15, sealed 16), ctx switches: 17, forks: 18, violations: 20\n\
             fork chunks: 22, alloc steals: 23, frames recycled: 24 (zeroing skipped 25)\n\
             journal ops: 28, rollbacks: 27, forks degraded: 26, reclaim passes: 29 inline / \
             30 background, backoff: 34 ns\n\
             survival: frames prezeroed 31, magazine hits 32, oom kills 33\n\
             pipeline: chunks jumped 35, bytes behind 36\n\
             dirty scope: dirty copied 37, shared clean 38; dedup: frames 39, probes 40\n\
             rings: msgs 41, caps relocated 42, full stalls 43"
        );
        total.reset();
        assert_eq!(total, OpCounters::default());
    }
}
