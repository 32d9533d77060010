//! Machine-level IPC semantics against a mock backend whose shm objects
//! are *genuinely shared* between processes (unlike `machine_mock`'s
//! per-process flat buffers): pipe wake/EOF/EPIPE paths, bounded-pipe
//! backpressure, and the shared-memory ring fabric across fork — all on
//! both scheduler engines, bit-identically.

use std::collections::BTreeMap;

use ufork_abi::{
    BlockingCall, Capability, Env, Errno, Fd, ForkResult, ImageSpec, IsolationLevel, Pid, Program,
    ProgramBox, Resume, StepOutcome, SysResult, RING_EOF,
};
use ufork_cheri::Perms;
use ufork_exec::{Ctx, Machine, MachineConfig, MemOs, SchedEngine};
use ufork_mem::MemStats;
use ufork_sim::CostModel;

const MOCK_LEN: u64 = 128 * 1024;
/// Shm windows live in their own address range so loads/stores route to
/// the shared object rather than the caller's private buffer.
const SHM_BASE: u64 = 1 << 32;
const SHM_STRIDE: u64 = 1 << 20;

/// Flat per-process memory plus named, refcount-free shared objects:
/// just enough of a backend for pipes and rings to be exercised for
/// real (a ring pushed by one process must be visible to another).
struct IpcOs {
    cost: CostModel,
    procs: BTreeMap<Pid, (Vec<u8>, Vec<Option<Capability>>)>,
    shm: Vec<Vec<u8>>,
    shm_names: Vec<String>,
}

impl IpcOs {
    fn new() -> IpcOs {
        IpcOs {
            cost: CostModel::morello(),
            procs: BTreeMap::new(),
            shm: Vec::new(),
            shm_names: Vec::new(),
        }
    }
}

impl MemOs for IpcOs {
    fn cost(&self) -> &CostModel {
        &self.cost
    }
    fn spawn(&mut self, _ctx: &mut Ctx, pid: Pid, _image: &ImageSpec) -> SysResult<()> {
        let mut regs = vec![None; 16];
        regs[0] = Some(Capability::new_root(
            u64::from(pid.0) << 20,
            MOCK_LEN,
            Perms::data(),
        ));
        self.procs.insert(pid, (vec![0; MOCK_LEN as usize], regs));
        Ok(())
    }
    fn fork(&mut self, ctx: &mut Ctx, parent: Pid, child: Pid) -> SysResult<()> {
        ctx.kernel(self.cost.fork_fixed_ufork);
        // Registers are copied wholesale — this is the mock's stand-in
        // for the register relocation walk, so sealed ring endpoints in
        // high registers survive into the child.
        let (mem, mut regs) = self.procs.get(&parent).ok_or(Errno::Inval)?.clone();
        regs[0] = Some(Capability::new_root(
            u64::from(child.0) << 20,
            MOCK_LEN,
            Perms::data(),
        ));
        self.procs.insert(child, (mem, regs));
        Ok(())
    }
    fn destroy(&mut self, _ctx: &mut Ctx, pid: Pid) {
        self.procs.remove(&pid);
    }
    fn load(&mut self, _c: &mut Ctx, pid: Pid, cap: &Capability, buf: &mut [u8]) -> SysResult<()> {
        if cap.addr() >= SHM_BASE {
            let idx = ((cap.addr() - SHM_BASE) / SHM_STRIDE) as usize;
            let off = ((cap.addr() - SHM_BASE) % SHM_STRIDE) as usize;
            let obj = self.shm.get(idx).ok_or(Errno::Fault)?;
            buf.copy_from_slice(&obj[off..off + buf.len()]);
            return Ok(());
        }
        let (mem, _) = self.procs.get(&pid).ok_or(Errno::Inval)?;
        let off = (cap.addr() & 0xf_ffff) as usize;
        buf.copy_from_slice(&mem[off..off + buf.len()]);
        Ok(())
    }
    fn store(&mut self, _c: &mut Ctx, pid: Pid, cap: &Capability, data: &[u8]) -> SysResult<()> {
        if cap.addr() >= SHM_BASE {
            let idx = ((cap.addr() - SHM_BASE) / SHM_STRIDE) as usize;
            let off = ((cap.addr() - SHM_BASE) % SHM_STRIDE) as usize;
            let obj = self.shm.get_mut(idx).ok_or(Errno::Fault)?;
            obj[off..off + data.len()].copy_from_slice(data);
            return Ok(());
        }
        let (mem, _) = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        let off = (cap.addr() & 0xf_ffff) as usize;
        mem[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }
    fn load_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
    ) -> SysResult<Option<Capability>> {
        Ok(None)
    }
    fn store_cap(
        &mut self,
        _c: &mut Ctx,
        _p: Pid,
        _cap: &Capability,
        _v: &Capability,
    ) -> SysResult<()> {
        Ok(())
    }
    fn malloc(&mut self, _c: &mut Ctx, pid: Pid, _len: u64) -> SysResult<Capability> {
        Ok(Capability::new_root(
            u64::from(pid.0) << 20,
            4096,
            Perms::data(),
        ))
    }
    fn mfree(&mut self, _c: &mut Ctx, _p: Pid, _cap: &Capability) -> SysResult<()> {
        Ok(())
    }
    fn reg(&self, pid: Pid, idx: usize) -> SysResult<Capability> {
        self.procs
            .get(&pid)
            .and_then(|(_, r)| r.get(idx).copied().flatten())
            .ok_or(Errno::Inval)
    }
    fn set_reg(&mut self, pid: Pid, idx: usize, cap: Capability) -> SysResult<()> {
        let (_, regs) = self.procs.get_mut(&pid).ok_or(Errno::Inval)?;
        *regs.get_mut(idx).ok_or(Errno::Inval)? = Some(cap);
        Ok(())
    }
    fn shm_open(&mut self, _c: &mut Ctx, _pid: Pid, name: &str, len: u64) -> SysResult<Capability> {
        let idx = match self.shm_names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.shm_names.push(name.to_string());
                self.shm.push(vec![0; len as usize]);
                self.shm_names.len() - 1
            }
        };
        Ok(Capability::new_root(
            SHM_BASE + idx as u64 * SHM_STRIDE,
            len,
            Perms::data(),
        ))
    }
    fn mmap_anon(&mut self, _c: &mut Ctx, pid: Pid, len: u64) -> SysResult<Capability> {
        Ok(Capability::new_root(
            u64::from(pid.0) << 20,
            len,
            Perms::data(),
        ))
    }
    fn syscall_entry_cost(&self) -> f64 {
        100.0
    }
    fn syscall_is_trap(&self) -> bool {
        false
    }
    fn ctx_switch_cost(&self, _f: Pid, _t: Pid) -> f64 {
        1000.0
    }
    fn big_kernel_lock(&self) -> bool {
        false
    }
    fn isolation(&self) -> IsolationLevel {
        IsolationLevel::Fault
    }
    fn copyio_cost_per_byte(&self) -> f64 {
        0.0
    }
    fn mem_stats(&self, _pid: Pid) -> MemStats {
        MemStats::default()
    }
    fn allocated_frames(&self) -> u32 {
        self.procs.len() as u32 * 16
    }
    fn peak_frames(&self) -> u32 {
        self.allocated_frames()
    }
    fn audit_isolation(&self, _pid: Pid) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// Pipe wake semantics.
// ---------------------------------------------------------------------------

/// Parks on an empty pipe; records whether the read returned EOF.
#[derive(Clone)]
struct EofReader {
    rfd: Fd,
    got_eof: bool,
}
impl Program for EofReader {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => StepOutcome::Block(BlockingCall::Read {
                fd: self.rfd,
                buf: env.reg(0).unwrap(),
                len: 4,
            }),
            Resume::Ret(Ok(0)) => {
                self.got_eof = true;
                StepOutcome::Exit(0)
            }
            _ => StepOutcome::Exit(1),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Spawns two readers on one pipe, lets them park, closes the write end,
/// and joins both. Completing at all proves BOTH readers were woken by
/// the single hangup — the regression this pins is `pipe_drop_end`
/// waking at most one.
#[derive(Clone)]
struct TwoReaderMain {
    phase: u8,
    wfd: Option<Fd>,
    tids: Vec<u64>,
}
impl Program for TwoReaderMain {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                let (r, w) = env.sys_pipe().expect("pipe");
                self.wfd = Some(w);
                self.phase = 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(EofReader {
                        rfd: r,
                        got_eof: false,
                    })),
                })
            }
            1 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tids.push(tid);
                let rfd = Fd(self.wfd.unwrap().0 - 1);
                self.phase = 2;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(EofReader {
                        rfd,
                        got_eof: false,
                    })),
                })
            }
            2 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tids.push(tid);
                self.phase = 3;
                // Let both readers run and park on the empty pipe.
                StepOutcome::Block(BlockingCall::Sleep { ns: 1e6 })
            }
            3 => {
                env.sys_close(self.wfd.unwrap()).expect("close write end");
                self.phase = 4;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tids[0] })
            }
            4 => {
                self.phase = 5;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tids[1] })
            }
            _ => match input {
                Resume::Ret(Ok(0)) => StepOutcome::Exit(0),
                _ => StepOutcome::Exit(1),
            },
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn closing_last_write_end_wakes_every_blocked_reader() {
    for engine in [SchedEngine::Lockstep, SchedEngine::EventDriven] {
        let mut m = Machine::new(
            IpcOs::new(),
            MachineConfig {
                cores: 2,
                engine,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(
                &ImageSpec::hello_world(),
                Box::new(TwoReaderMain {
                    phase: 0,
                    wfd: None,
                    tids: Vec::new(),
                }),
            )
            .unwrap();
        m.run();
        assert_eq!(
            m.exit_code(pid),
            Some(0),
            "{engine:?}: join of both readers"
        );
        for tid in [1u32, 2] {
            let r = m.thread_program::<EofReader>(pid, tid).unwrap();
            assert!(r.got_eof, "{engine:?}: reader {tid} saw EOF");
        }
    }
}

/// Sleeps, then drains a large chunk so a blocked writer can proceed —
/// with a blocking read, or with `sys_read_nonblock` when `nonblock`.
#[derive(Clone)]
struct DrainReader {
    rfd: Fd,
    phase: u8,
    read_at: Option<f64>,
    nonblock: bool,
}
impl Program for DrainReader {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                self.phase = 1;
                StepOutcome::Block(BlockingCall::Sleep { ns: 2e6 })
            }
            1 if self.nonblock => {
                let buf = env.reg(0).unwrap();
                match env.sys_read_nonblock(self.rfd, &buf, 48_000) {
                    Ok(n) if n > 0 => {
                        self.read_at = Some(env.now());
                        StepOutcome::Exit(0)
                    }
                    _ => StepOutcome::Exit(1),
                }
            }
            1 => {
                self.phase = 2;
                StepOutcome::Block(BlockingCall::Read {
                    fd: self.rfd,
                    buf: env.reg(0).unwrap(),
                    len: 48_000,
                })
            }
            _ => match input {
                Resume::Ret(Ok(n)) if n > 0 => {
                    self.read_at = Some(env.now());
                    StepOutcome::Exit(0)
                }
                _ => StepOutcome::Exit(1),
            },
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Fills the pipe past capacity: the second write must block until the
/// reader drains, then complete in full (all-or-nothing semantics).
#[derive(Clone)]
struct BackpressureWriter {
    phase: u8,
    wfd: Option<Fd>,
    tid: u64,
    wrote_at: Option<f64>,
    /// The reader drains with `sys_read_nonblock` instead of a blocking
    /// read.
    nonblock_drain: bool,
}
impl Program for BackpressureWriter {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                let (r, w) = env.sys_pipe().expect("pipe");
                self.wfd = Some(w);
                self.phase = 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(DrainReader {
                        rfd: r,
                        phase: 0,
                        read_at: None,
                        nonblock: self.nonblock_drain,
                    })),
                })
            }
            1 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tid = tid;
                let buf = env.reg(0).unwrap();
                // First 48 KB fit the 64 KB pipe synchronously...
                assert_eq!(env.sys_write(self.wfd.unwrap(), &buf, 48_000), Ok(48_000));
                // ...and the same write again must report EAGAIN.
                assert_eq!(
                    env.sys_write(self.wfd.unwrap(), &buf, 48_000),
                    Err(Errno::Again)
                );
                self.phase = 2;
                StepOutcome::Block(BlockingCall::Write {
                    fd: self.wfd.unwrap(),
                    buf,
                    len: 48_000,
                })
            }
            2 => {
                let Resume::Ret(Ok(48_000)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.wrote_at = Some(env.now());
                env.sys_close(self.wfd.unwrap()).unwrap();
                self.phase = 3;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tid })
            }
            _ => StepOutcome::Exit(0),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn blocked_writer_wakes_when_reader_drains() {
    for engine in [SchedEngine::Lockstep, SchedEngine::EventDriven] {
        let mut m = Machine::new(
            IpcOs::new(),
            MachineConfig {
                cores: 2,
                engine,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(
                &ImageSpec::hello_world(),
                Box::new(BackpressureWriter {
                    phase: 0,
                    wfd: None,
                    tid: 0,
                    wrote_at: None,
                    nonblock_drain: false,
                }),
            )
            .unwrap();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0), "{engine:?}");
        let w = m.program::<BackpressureWriter>(pid).unwrap();
        let r = m.thread_program::<DrainReader>(pid, 1).unwrap();
        let (wrote, read) = (w.wrote_at.unwrap(), r.read_at.unwrap());
        assert!(
            wrote >= 2e6 && wrote >= read,
            "{engine:?}: write completed at {wrote}, after the drain at {read}"
        );
    }
}

/// Regression: a non-blocking read that drains a full pipe must wake the
/// writer parked on it, exactly as a blocking read does. Without the
/// `PipeDrained` wake the writer stays parked on the pipe forever and
/// the process never exits, on either engine.
#[test]
fn nonblocking_drain_wakes_blocked_writer() {
    let run = |engine| {
        let mut m = Machine::new(
            IpcOs::new(),
            MachineConfig {
                cores: 2,
                engine,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(
                &ImageSpec::hello_world(),
                Box::new(BackpressureWriter {
                    phase: 0,
                    wfd: None,
                    tid: 0,
                    wrote_at: None,
                    nonblock_drain: true,
                }),
            )
            .unwrap();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0), "{engine:?}: writer never woke");
        let w = m.program::<BackpressureWriter>(pid).unwrap();
        let r = m.thread_program::<DrainReader>(pid, 1).unwrap();
        let (wrote, read) = (w.wrote_at.unwrap(), r.read_at.unwrap());
        assert!(
            wrote >= read,
            "{engine:?}: write completed at {wrote}, before the drain at {read}"
        );
        (
            wrote.to_bits(),
            read.to_bits(),
            m.now().to_bits(),
            *m.counters(),
        )
    };
    assert_eq!(run(SchedEngine::Lockstep), run(SchedEngine::EventDriven));
}

/// Closes the read end out from under a blocked writer.
#[derive(Clone)]
struct ReadEndCloser {
    rfd: Fd,
    phase: u8,
}
impl Program for ReadEndCloser {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        if self.phase == 0 {
            self.phase = 1;
            return StepOutcome::Block(BlockingCall::Sleep { ns: 1e6 });
        }
        env.sys_close(self.rfd).expect("close read end");
        StepOutcome::Exit(0)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A writer blocked on a full pipe must fail with EPIPE (`BadFd`), not
/// hang, when the last read end closes.
#[derive(Clone)]
struct EpipeWriter {
    phase: u8,
    wfd: Option<Fd>,
    tid: u64,
}
impl Program for EpipeWriter {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match self.phase {
            0 => {
                let (r, w) = env.sys_pipe().expect("pipe");
                self.wfd = Some(w);
                self.phase = 1;
                StepOutcome::Block(BlockingCall::SpawnThread {
                    program: ProgramBox(Box::new(ReadEndCloser { rfd: r, phase: 0 })),
                })
            }
            1 => {
                let Resume::Ret(Ok(tid)) = input else {
                    return StepOutcome::Exit(1);
                };
                self.tid = tid;
                let buf = env.reg(0).unwrap();
                // Fill the pipe to capacity so the next write parks.
                assert_eq!(
                    env.sys_write(self.wfd.unwrap(), &buf, 64 * 1024),
                    Ok(65_536)
                );
                self.phase = 2;
                StepOutcome::Block(BlockingCall::Write {
                    fd: self.wfd.unwrap(),
                    buf,
                    len: 8,
                })
            }
            2 => {
                let Resume::Ret(Err(Errno::BadFd)) = input else {
                    return StepOutcome::Exit(1);
                };
                env.sys_close(self.wfd.unwrap()).unwrap();
                self.phase = 3;
                StepOutcome::Block(BlockingCall::JoinThread { tid: self.tid })
            }
            _ => StepOutcome::Exit(0),
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn blocked_writer_gets_epipe_when_last_reader_closes() {
    for engine in [SchedEngine::Lockstep, SchedEngine::EventDriven] {
        let mut m = Machine::new(
            IpcOs::new(),
            MachineConfig {
                cores: 2,
                engine,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(
                &ImageSpec::hello_world(),
                Box::new(EpipeWriter {
                    phase: 0,
                    wfd: None,
                    tid: 0,
                }),
            )
            .unwrap();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0), "{engine:?}");
    }
}

// ---------------------------------------------------------------------------
// Shared-memory rings across fork.
// ---------------------------------------------------------------------------

const MSGS: u32 = 5;

/// Opens both ends of a tiny ring, parks the sealed endpoints in high
/// registers, forks; the parent pushes [`MSGS`] messages (stalling on
/// the 2-slot ring while the child dawdles), the child pops until EOF
/// and exits with the count.
#[derive(Clone)]
struct RingPair {
    phase: u8,
    pf: Option<Fd>,
    cf: Option<Fd>,
    is_child: bool,
    pushed: u32,
    popped: u32,
}
impl RingPair {
    fn push(&self, env: &mut dyn Env) -> StepOutcome {
        StepOutcome::Block(BlockingCall::RingPush {
            fd: self.pf.unwrap(),
            ring: env.reg(12).unwrap(),
            buf: env.reg(0).unwrap(),
            len: 8,
        })
    }
    fn pop(&self, env: &mut dyn Env) -> StepOutcome {
        StepOutcome::Block(BlockingCall::RingPop {
            fd: self.cf.unwrap(),
            ring: env.reg(13).unwrap(),
            buf: env.reg(0).unwrap(),
        })
    }
}
impl Program for RingPair {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => {
                let (pf, pcap) = env.sys_ring_open("pair", 2, 8, true).expect("prod end");
                let (cf, ccap) = env.sys_ring_open("pair", 2, 8, false).expect("cons end");
                assert!(pcap.is_sealed() && ccap.is_sealed());
                env.set_reg(12, pcap).unwrap();
                env.set_reg(13, ccap).unwrap();
                self.pf = Some(pf);
                self.cf = Some(cf);
                StepOutcome::Fork
            }
            Resume::Forked(ForkResult::Child) => {
                self.is_child = true;
                env.sys_close(self.pf.unwrap()).unwrap();
                self.phase = 10;
                // Dawdle so the parent hits the 2-slot ring's Full path.
                StepOutcome::Block(BlockingCall::Sleep { ns: 5e6 })
            }
            Resume::Forked(ForkResult::Parent(_)) => {
                env.sys_close(self.cf.unwrap()).unwrap();
                self.phase = 2;
                self.push(env)
            }
            Resume::Ret(r) => {
                if self.is_child {
                    match (self.phase, r) {
                        (10, _) => {
                            self.phase = 11;
                            self.pop(env)
                        }
                        (11, Ok(8)) => {
                            self.popped += 1;
                            self.pop(env)
                        }
                        (11, Ok(0)) => {
                            env.sys_close(self.cf.unwrap()).unwrap();
                            StepOutcome::Exit(self.popped as i32)
                        }
                        _ => StepOutcome::Exit(-1),
                    }
                } else {
                    match (self.phase, r) {
                        (2, Ok(8)) => {
                            self.pushed += 1;
                            if self.pushed < MSGS {
                                self.push(env)
                            } else {
                                env.sys_close(self.pf.unwrap()).unwrap();
                                self.phase = 3;
                                StepOutcome::Block(BlockingCall::Wait)
                            }
                        }
                        (3, Ok(_)) => StepOutcome::Exit(0),
                        _ => StepOutcome::Exit(-1),
                    }
                }
            }
        }
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn ring_endpoints_survive_fork_and_deliver_eof() {
    let run = |engine: SchedEngine| {
        let mut m = Machine::new(
            IpcOs::new(),
            MachineConfig {
                cores: 2,
                engine,
                ..MachineConfig::default()
            },
        );
        let pid = m
            .spawn(
                &ImageSpec::hello_world(),
                Box::new(RingPair {
                    phase: 0,
                    pf: None,
                    cf: None,
                    is_child: false,
                    pushed: 0,
                    popped: 0,
                }),
            )
            .unwrap();
        m.run();
        assert_eq!(m.exit_code(pid), Some(0), "{engine:?}: parent");
        let child = m.fork_log()[0].child;
        assert_eq!(
            m.exit_code(child),
            Some(MSGS as i32),
            "{engine:?}: child popped all messages then saw EOF"
        );
        let c = m.counters();
        assert_eq!(c.ring_msgs, u64::from(MSGS), "{engine:?}");
        // Both ring fds were duplicated across the fork.
        assert_eq!(c.ring_caps_relocated, 2, "{engine:?}");
        assert!(
            c.ring_full_stalls >= 1,
            "{engine:?}: the sleeping child must have forced a Full stall"
        );
        (m.now(), *m.counters())
    };
    let (now_l, ctr_l) = run(SchedEngine::Lockstep);
    let (now_e, ctr_e) = run(SchedEngine::EventDriven);
    assert_eq!(now_l.to_bits(), now_e.to_bits(), "engines agree");
    assert_eq!(ctr_l, ctr_e);
}

/// Non-blocking ring ops in a single process: empty → 0, full → EAGAIN,
/// drained-with-producers → 0, drained-without-producers → EOF sentinel.
#[derive(Clone)]
struct TryOps;
impl Program for TryOps {
    fn resume(&mut self, env: &mut dyn Env, _input: Resume) -> StepOutcome {
        let (pf, pcap) = env.sys_ring_open("try", 2, 4, true).unwrap();
        let (cf, ccap) = env.sys_ring_open("try", 2, 4, false).unwrap();
        let buf = env.reg(0).unwrap();
        // Empty, producers alive: no data, no EOF.
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(0));
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 4), Ok(4));
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 4), Ok(4));
        // Two slots occupied: the ring is full.
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 4), Err(Errno::Again));
        // Geometry is enforced per message.
        assert_eq!(env.sys_ring_try_push(pf, &pcap, &buf, 3), Err(Errno::Inval));
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(4));
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(4));
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(0));
        // Last producer end gone: drained ring now reports EOF.
        env.sys_close(pf).unwrap();
        assert_eq!(env.sys_ring_try_pop(cf, &ccap, &buf), Ok(RING_EOF));
        env.sys_close(cf).unwrap();
        StepOutcome::Exit(0)
    }
    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[test]
fn try_ops_report_full_empty_and_eof() {
    let mut m = Machine::new(IpcOs::new(), MachineConfig::default());
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(TryOps))
        .unwrap();
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    assert_eq!(m.counters().ring_full_stalls, 1);
}
