//! The benchmark heap: a block of pages whose contents every child can
//! verify without a host-side copy, and the working-set pass over it.
//!
//! Word `w` of the heap holds `fill_word(key, 8 * w)`, except in
//! capability granules (one per `cap_every` granules), which hold a
//! capability to a seeded heap offset. The last granule of every page is
//! scratch space for the pass's stores. The same code populates and
//! walks the heap through a program's `Env` (in a `Machine`) and through
//! direct `MemOs` calls on a traced `Ctx` (see [`crate::traced`]).

use ufork_abi::{Capability, Env, ImageSpec, Pid, SysResult};
use ufork_exec::{Ctx, MemOs};
use ufork_mem::PAGE_SIZE;

use crate::probe::Rec;
use crate::{fill_word, Rng};

// The pass's shape is a synthetic choice (no configuration in the
// repository or figure in the paper gives one): it mixes the loads,
// capability loads and stores the storm's specification asks for, and
// touches enough of the heap that the copy-on-access strategies fault.

/// Share of the heap's pages a pass touches.
const WORKING_SET: f64 = 0.5;
/// One store per this many touched pages.
const STORE_EVERY: u64 = 4;
/// Bytes a data load reads (one cache line).
const LOAD_BYTES: usize = 64;
/// Register holding the heap capability (relocated by fork).
const HEAP_REG: usize = 4;
/// Granules per page.
const GRANULES: u64 = PAGE_SIZE / 16;

/// Memory operations of one process, as the heap code needs them.
pub(crate) trait Mem {
    /// Loads bytes at the cursor.
    fn load(&mut self, cap: &Capability, buf: &mut [u8]) -> SysResult<()>;
    /// Loads a capability (`None` when the tag is clear).
    fn load_cap(&mut self, cap: &Capability) -> SysResult<Option<Capability>>;
    /// Stores bytes at the cursor.
    fn store(&mut self, cap: &Capability, data: &[u8]) -> SysResult<()>;
    /// Stores a capability at the cursor.
    fn store_cap(&mut self, cap: &Capability, value: &Capability) -> SysResult<()>;
    /// Allocates from the process heap.
    fn malloc(&mut self, len: u64) -> SysResult<Capability>;
    /// Reads a capability register.
    fn reg(&self, idx: usize) -> SysResult<Capability>;
    /// Writes a capability register.
    fn set_reg(&mut self, idx: usize, cap: Capability) -> SysResult<()>;
}

/// A program's view through `Env`; loads and stores are host-timed when
/// the recorder is traced.
pub(crate) struct Prog<'a> {
    /// The program's environment.
    pub(crate) env: &'a mut dyn Env,
    /// The machine's recorder.
    pub(crate) rec: &'a Rec,
}

impl Mem for Prog<'_> {
    fn load(&mut self, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        self.rec.timed(|| self.env.load(cap, buf))
    }
    fn load_cap(&mut self, cap: &Capability) -> SysResult<Option<Capability>> {
        self.rec.timed(|| self.env.load_cap(cap))
    }
    fn store(&mut self, cap: &Capability, data: &[u8]) -> SysResult<()> {
        self.rec.timed(|| self.env.store(cap, data))
    }
    fn store_cap(&mut self, cap: &Capability, value: &Capability) -> SysResult<()> {
        self.rec.timed(|| self.env.store_cap(cap, value))
    }
    fn malloc(&mut self, len: u64) -> SysResult<Capability> {
        self.env.malloc(len)
    }
    fn reg(&self, idx: usize) -> SysResult<Capability> {
        self.env.reg(idx)
    }
    fn set_reg(&mut self, idx: usize, cap: Capability) -> SysResult<()> {
        self.env.set_reg(idx, cap)
    }
}

/// The kernel's view: direct `MemOs` calls for `pid`, charged to `ctx`.
pub(crate) struct Direct<'a, O: MemOs> {
    /// The backend.
    pub(crate) os: &'a mut O,
    /// The accounting context (traced or not).
    pub(crate) ctx: &'a mut Ctx,
    /// The process.
    pub(crate) pid: Pid,
}

impl<O: MemOs> Mem for Direct<'_, O> {
    fn load(&mut self, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        self.os.load(self.ctx, self.pid, cap, buf)
    }
    fn load_cap(&mut self, cap: &Capability) -> SysResult<Option<Capability>> {
        self.os.load_cap(self.ctx, self.pid, cap)
    }
    fn store(&mut self, cap: &Capability, data: &[u8]) -> SysResult<()> {
        self.os.store(self.ctx, self.pid, cap, data)
    }
    fn store_cap(&mut self, cap: &Capability, value: &Capability) -> SysResult<()> {
        self.os.store_cap(self.ctx, self.pid, cap, value)
    }
    fn malloc(&mut self, len: u64) -> SysResult<Capability> {
        self.os.malloc(self.ctx, self.pid, len)
    }
    fn reg(&self, idx: usize) -> SysResult<Capability> {
        self.os.reg(self.pid, idx)
    }
    fn set_reg(&mut self, idx: usize, cap: Capability) -> SysResult<()> {
        self.os.set_reg(self.pid, idx, cap)
    }
}

/// A heap's shape and contents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Heap {
    /// Fill key of the contents.
    pub key: u64,
    /// Pages.
    pub pages: u64,
    /// One capability per `cap_every` granules (0 = pointer-free).
    pub cap_every: u64,
}

impl Heap {
    fn is_cap(&self, granule: u64) -> bool {
        self.cap_every > 0
            && granule.is_multiple_of(self.cap_every)
            && granule % GRANULES != GRANULES - 1
    }

    /// Heap offset the capability in `granule` points at.
    fn target(&self, granule: u64) -> u64 {
        (fill_word(self.key, granule) % (self.pages * GRANULES)) * 16
    }

    /// A small program image around the heap.
    pub(crate) fn image(&self) -> ImageSpec {
        ImageSpec {
            name: format!("heap-{}", self.pages),
            text_bytes: 16 << 10,
            data_bytes: 8 << 10,
            heap_bytes: self.pages * PAGE_SIZE + (64 << 10),
            stack_bytes: 16 << 10,
            got_slots: 32,
        }
    }

    /// Allocates and fills the heap, parking its capability in a register
    /// so fork relocates it.
    pub(crate) fn populate(&self, mem: &mut impl Mem) -> SysResult<()> {
        let heap = mem.malloc(self.pages * PAGE_SIZE)?;
        mem.set_reg(HEAP_REG, heap)?;
        let mut page = vec![0u8; PAGE_SIZE as usize];
        for p in 0..self.pages {
            for (w, chunk) in page.chunks_mut(8).enumerate() {
                let off = p * PAGE_SIZE + w as u64 * 8;
                chunk.copy_from_slice(&fill_word(self.key, off).to_le_bytes());
            }
            mem.store(&at(&heap, p * PAGE_SIZE), &page)?;
            for g in p * GRANULES..(p + 1) * GRANULES {
                if self.is_cap(g) {
                    mem.store_cap(&at(&heap, g * 16), &at(&heap, self.target(g)))?;
                }
            }
        }
        Ok(())
    }

    /// A child's working-set pass over the heap it inherited: data loads,
    /// capability loads and stores on seeded pages. Returns whether every
    /// byte matched and every loaded capability was relocated into the
    /// child's own heap and region.
    pub(crate) fn pass(&self, mem: &mut impl Mem, r: &mut Rng) -> SysResult<bool> {
        let heap = mem.reg(HEAP_REG)?;
        let root = mem.reg(0)?;
        let mut ok =
            heap.confined_to(root.base(), root.len()) && heap.len() >= self.pages * PAGE_SIZE;
        let touched = ((self.pages as f64 * WORKING_SET).ceil() as u64).max(1);
        let windows = (PAGE_SIZE - 16) / LOAD_BYTES as u64;
        let mut buf = [0u8; LOAD_BYTES];
        for i in 0..touched {
            let p = r.range(0, self.pages - 1);
            // Data: a window below the scratch granule.
            let off = p * PAGE_SIZE + r.range(0, windows - 1) * LOAD_BYTES as u64;
            mem.load(&at(&heap, off), &mut buf)?;
            for (w, chunk) in buf.chunks(8).enumerate() {
                let o = off + w as u64 * 8;
                if !self.is_cap(o / 16) {
                    ok &= chunk == fill_word(self.key, o).to_le_bytes();
                }
            }
            // Pointers: the first capability of the page, if any.
            if let Some(g) = (p * GRANULES..(p + 1) * GRANULES).find(|g| self.is_cap(*g)) {
                let c = mem.load_cap(&at(&heap, g * 16))?;
                ok &= c.is_some_and(|c| {
                    c.addr() == heap.base() + self.target(g)
                        && c.base() == heap.base()
                        && c.top() == heap.top()
                        && c.confined_to(root.base(), root.len())
                });
            }
            // A store to the page's scratch word, read back.
            if i % STORE_EVERY == 0 {
                let cell = at(&heap, (p + 1) * PAGE_SIZE - 8);
                let v = r.next_u64().to_le_bytes();
                mem.store(&cell, &v)?;
                let mut back = [0u8; 8];
                mem.load(&cell, &mut back)?;
                ok &= back == v;
            }
        }
        Ok(ok)
    }
}

/// A cursor at `cap.base() + off`.
fn at(cap: &Capability, off: u64) -> Capability {
    cap.with_addr(cap.base() + off)
        .expect("offset inside the heap")
}
