//! Golden simulated-cost test for the fork walk.
//!
//! Every fork schedule (serial, one lane, four lanes, pipelined plus a
//! drained background window) under every copy strategy is run on two
//! heaps: a 9-page heap that mixes untagged and capability-bearing pages
//! plus a shared-memory page, and a capability-dense heap larger than two
//! parallel chunks. Extra cases cover a dirty-tracked refork
//! (`CopyScope::DirtySince`), a dedup sibling pair, admission degrade,
//! a demand jump into the pipelined window, and the reclaim-then-retry
//! loops of fork, pipelined chunk and fault.
//!
//! For each case the test pins the bits of the simulated kernel time, the
//! fork context's `OpCounters` display and a digest of the child's memory
//! and registers (read back through the user access path, whose fault
//! cost is pinned too). The expected report is `tests/fork_golden.txt`.
//! `kernel_ns` is an f64 sum, so a refactor that reorders a single charge
//! shows up here even where the bench gate's 15 % tolerance would not.

use std::fmt::Write as _;

use ufork_repro::abi::{CopyStrategy, ImageSpec, Pid};
use ufork_repro::cheri::Capability;
use ufork_repro::exec::{Ctx, MemOs};
use ufork_repro::mem::PAGE_SIZE;
use ufork_repro::ufork::{CopyScope, FallbackPolicy, UforkConfig, UforkOs, WalkMode, CHUNK_PAGES};

const PARENT: Pid = Pid(1);
const CHILD: Pid = Pid(2);
const SIBLING: Pid = Pid(3);
const FILLER: Pid = Pid(9);
/// Register holding the parent's heap array.
const ARR_REG: usize = 4;
/// Register holding the parent's shared-memory mapping.
const SHM_REG: usize = 5;

#[derive(Clone, Copy, Debug)]
enum Heap {
    /// Nine pages: every third page untagged data (dedup-able), the rest
    /// a few capabilities into the array plus data.
    Small,
    /// More than two parallel chunks, a capability every 32 bytes.
    Dense,
}

impl Heap {
    fn pages(self) -> u64 {
        match self {
            Heap::Small => 9,
            Heap::Dense => 2 * CHUNK_PAGES as u64 + 8,
        }
    }
}

const WALKS: [(&str, WalkMode); 4] = [
    ("serial", WalkMode::Serial),
    ("par1", WalkMode::Parallel(1)),
    ("par4", WalkMode::Parallel(4)),
    ("pipelined", WalkMode::Pipelined),
];

const STRATEGIES: [CopyStrategy; 3] = [CopyStrategy::Full, CopyStrategy::CoA, CopyStrategy::CoPA];

fn config(strategy: CopyStrategy, walk: WalkMode) -> UforkConfig {
    UforkConfig {
        phys_mib: 16,
        strategy,
        walk,
        ..UforkConfig::default()
    }
}

fn slot(arr: &Capability, off: u64) -> Capability {
    arr.with_addr(arr.base() + off).unwrap()
}

/// Boots a kernel and populates the parent's heap, a shm page and its
/// registers.
fn boot(cfg: UforkConfig, heap: Heap) -> UforkOs {
    let pages = heap.pages();
    let mut os = UforkOs::new(cfg);
    let mut ctx = Ctx::new();
    let image = ImageSpec {
        name: "golden".into(),
        text_bytes: 48 * 1024,
        data_bytes: 16 * 1024,
        heap_bytes: pages * PAGE_SIZE + 64 * 1024,
        stack_bytes: 64 * 1024,
        got_slots: 64,
    };
    os.spawn(&mut ctx, PARENT, &image).unwrap();
    let arr = os.malloc(&mut ctx, PARENT, pages * PAGE_SIZE).unwrap();
    match heap {
        Heap::Small => {
            for p in 0..pages {
                let page = p * PAGE_SIZE;
                for i in 0..8u64 {
                    let v = (p << 32) | (i * 0x0101_0101);
                    os.store(
                        &mut ctx,
                        PARENT,
                        &slot(&arr, page + i * 512),
                        &v.to_le_bytes(),
                    )
                    .unwrap();
                }
                if p % 3 != 0 {
                    for i in 0..4u64 {
                        let target = slot(&arr, ((p + i) % pages) * PAGE_SIZE + i * 64);
                        os.store_cap(&mut ctx, PARENT, &slot(&arr, page + 256 + i * 512), &target)
                            .unwrap();
                    }
                }
            }
        }
        Heap::Dense => {
            let mut off = 0;
            while off < pages * PAGE_SIZE {
                let s = slot(&arr, off);
                os.store_cap(&mut ctx, PARENT, &s, &s).unwrap();
                off += 32;
            }
        }
    }
    let shm = os
        .shm_open(&mut ctx, PARENT, "golden-shm", PAGE_SIZE)
        .unwrap();
    os.store(&mut ctx, PARENT, &shm, b"shared-page-payload")
        .unwrap();
    os.set_reg(PARENT, ARR_REG, arr).unwrap();
    os.set_reg(PARENT, SHM_REG, shm).unwrap();
    os
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix_bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(w));
        }
    }
}

/// Reads back `pid`'s registers, heap array (granule by granule, tagged
/// or not) and shm page through the user access path. Returns the digest
/// and the context the reads charged (fault resolution included).
fn memory_digest(os: &mut UforkOs, pid: Pid) -> (u64, Ctx) {
    let mut ctx = Ctx::new();
    let mut d = Digest::new();
    for i in 0..32 {
        match os.reg(pid, i) {
            Ok(c) => {
                d.mix(c.base());
                d.mix(c.len());
                d.mix_bytes(&c.to_bytes());
            }
            Err(_) => d.mix(u64::MAX),
        }
    }
    let arr = os.reg(pid, ARR_REG).unwrap();
    let mut off = 0;
    while off < arr.len() {
        let at = slot(&arr, off);
        match os.load_cap(&mut ctx, pid, &at).unwrap() {
            Some(c) => {
                d.mix(1);
                d.mix(c.base());
                d.mix(c.len());
                d.mix_bytes(&c.to_bytes());
            }
            None => {
                let mut b = [0u8; 16];
                os.load(&mut ctx, pid, &at, &mut b).unwrap();
                d.mix(0);
                d.mix_bytes(&b);
            }
        }
        off += 16;
    }
    let shm = os.reg(pid, SHM_REG).unwrap();
    let mut b = [0u8; 64];
    os.load(&mut ctx, pid, &shm, &mut b).unwrap();
    d.mix_bytes(&b);
    assert_eq!(os.audit_isolation(pid), 0, "isolation audit of {pid:?}");
    (d.0, ctx)
}

/// One case's report: the fork context's commit and drained kernel time
/// and counters, the read-back digest, and the read-back's kernel time
/// and counters (the latter hashed).
fn record(report: &mut String, name: &str, fork_ns: f64, ctx: &Ctx, (digest, read): (u64, Ctx)) {
    let mut read_counters = Digest::new();
    read_counters.mix_bytes(read.counters.to_string().as_bytes());
    writeln!(
        report,
        "== {name}\nfork_ns={:#018x} total_ns={:#018x} digest={digest:#018x}\n\
         read_ns={:#018x} read_counters={:#018x}\n{}",
        fork_ns.to_bits(),
        ctx.kernel_ns.to_bits(),
        read.kernel_ns.to_bits(),
        read_counters.0,
        ctx.counters
    )
    .unwrap();
}

/// Forks `child` off `parent` (with an explicit scope if given), drains
/// any pipelined window on the same context and records the case.
fn fork_case(
    report: &mut String,
    name: &str,
    os: &mut UforkOs,
    parent: Pid,
    child: Pid,
    scope: Option<CopyScope>,
) {
    let mut ctx = Ctx::new();
    match scope {
        Some(scope) => os.fork_scoped(&mut ctx, parent, child, scope),
        None => os.fork(&mut ctx, parent, child),
    }
    .unwrap();
    let fork_ns = ctx.kernel_ns;
    os.pipeline_drain(&mut ctx, child).unwrap();
    let digest = memory_digest(os, child);
    record(report, name, fork_ns, &ctx, digest);
}

fn golden_report() -> String {
    let mut report = String::new();

    // The schedule × strategy matrix on both heaps.
    for heap in [Heap::Small, Heap::Dense] {
        for (walk_name, walk) in WALKS {
            for strategy in STRATEGIES {
                let mut os = boot(config(strategy, walk), heap);
                let name = format!("{heap:?}/{walk_name}/{strategy:?}");
                fork_case(&mut report, &name, &mut os, PARENT, CHILD, None);
                assert_eq!(os.audit_kernel(), (0, 0), "{name}: kernel audit");
            }
        }
    }

    // Dirty-tracked refork: the second fork copies only the pages the
    // parent wrote since the first, and shares the rest clean.
    for (walk_name, walk) in WALKS {
        for strategy in STRATEGIES {
            let mut os = boot(
                UforkConfig {
                    track_dirty: true,
                    ..config(strategy, walk)
                },
                Heap::Dense,
            );
            let mut ctx = Ctx::new();
            os.fork(&mut ctx, PARENT, CHILD).unwrap();
            os.pipeline_drain(&mut ctx, CHILD).unwrap();
            let arr = os.reg(PARENT, ARR_REG).unwrap();
            for p in (0..Heap::Dense.pages()).step_by(3) {
                os.store(
                    &mut ctx,
                    PARENT,
                    &slot(&arr, p * PAGE_SIZE + 8),
                    &p.to_le_bytes(),
                )
                .unwrap();
            }
            let gen = os.fork_generation(PARENT).unwrap();
            let name = format!("refork/{walk_name}/{strategy:?}");
            fork_case(
                &mut report,
                &name,
                &mut os,
                PARENT,
                SIBLING,
                Some(CopyScope::DirtySince(gen)),
            );
        }
    }

    // Dedup sibling pair: the second child shares the first one's copies
    // of the untagged pages.
    for (walk_name, walk) in WALKS {
        let mut os = boot(
            UforkConfig {
                dedup_frames: true,
                ..config(CopyStrategy::Full, walk)
            },
            Heap::Small,
        );
        for child in [CHILD, SIBLING] {
            let name = format!("dedup/{walk_name}/{child:?}");
            fork_case(&mut report, &name, &mut os, PARENT, child, None);
        }
    }

    // Admission degrade: a filler process leaves too few frames for a
    // Full fork but enough for CoA; it exits before the child is read.
    for (walk_name, walk) in WALKS {
        let mut os = boot(
            UforkConfig {
                phys_mib: 1,
                fallback: FallbackPolicy::Degrade,
                ..config(CopyStrategy::Full, walk)
            },
            Heap::Small,
        );
        let mut ctx = Ctx::new();
        let free = u64::from(256 - os.allocated_frames());
        let filler = ImageSpec {
            name: "filler".into(),
            text_bytes: 0,
            data_bytes: 0,
            heap_bytes: (free - 48) * PAGE_SIZE,
            stack_bytes: 0,
            got_slots: 0,
        };
        os.spawn(&mut ctx, FILLER, &filler).unwrap();
        let mut ctx = Ctx::new();
        os.fork(&mut ctx, PARENT, CHILD).unwrap();
        assert_eq!(ctx.counters.forks_degraded, 1, "{walk_name}: fork degraded");
        let fork_ns = ctx.kernel_ns;
        os.pipeline_drain(&mut ctx, CHILD).unwrap();
        os.destroy(&mut Ctx::new(), FILLER);
        let digest = memory_digest(&mut os, CHILD);
        record(
            &mut report,
            &format!("degrade/{walk_name}"),
            fork_ns,
            &ctx,
            digest,
        );
    }

    // Demand priority: the child reads its heap before the background
    // window drains, so every chunk it touches jumps the queue.
    {
        let mut os = boot(config(CopyStrategy::Full, WalkMode::Pipelined), Heap::Dense);
        let mut ctx = Ctx::new();
        os.fork(&mut ctx, PARENT, CHILD).unwrap();
        let fork_ns = ctx.kernel_ns;
        let digest = memory_digest(&mut os, CHILD);
        os.pipeline_drain(&mut ctx, CHILD).unwrap();
        record(&mut report, "jump/pipelined", fork_ns, &ctx, digest);
    }

    // Reclaim-then-retry: an allocation fails mid-walk (fork), mid-chunk
    // (pipelined background copy) and mid-fault (CoA child access).
    for (walk_name, walk) in WALKS {
        let mut os = boot(config(CopyStrategy::Full, walk), Heap::Small);
        let at = os.frame_alloc_attempts() + 5;
        os.inject_frame_alloc_failure(at);
        let name = format!("retry/{walk_name}");
        fork_case(&mut report, &name, &mut os, PARENT, CHILD, None);
    }
    {
        let mut os = boot(config(CopyStrategy::CoA, WalkMode::Serial), Heap::Small);
        let mut ctx = Ctx::new();
        os.fork(&mut ctx, PARENT, CHILD).unwrap();
        let fork_ns = ctx.kernel_ns;
        let at = os.frame_alloc_attempts() + 3;
        os.inject_frame_alloc_failure(at);
        let digest = memory_digest(&mut os, CHILD);
        assert_eq!(digest.1.counters.reclaim_inline, 1, "fault reclaimed once");
        record(&mut report, "retry/fault", fork_ns, &ctx, digest);
    }

    report
}

#[test]
fn fork_costs_match_golden_report() {
    let expected = include_str!("fork_golden.txt");
    let actual = golden_report();
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        let context = |s: &str| {
            s.lines()
                .skip(first.saturating_sub(2))
                .take(5)
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "fork golden report diverged at line {}:\n--- expected\n{}\n--- actual\n{}\n\
             --- full actual report\n{actual}",
            first + 1,
            context(expected),
            context(&actual),
        );
    }
}
