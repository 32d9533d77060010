//! `snapshot`: a Redis-style BGSAVE train with one outstanding save.
//!
//! Set-up builds a 10 MB `Dict` of 100 values (bucket array, 64-byte
//! entries and key/value objects, all linked by capabilities). The
//! measured phase then runs `ROUNDS` rounds of: seeded SETs, a fork,
//! `rdb_save` in the child, more seeded SETs in the parent while the
//! child saves (parent-side copy-on-write), and the reap. The loop is
//! closed: the next round starts when the previous save is reaped. Every
//! dump is parsed and compared with the database as it was at fork time,
//! and must be bit-identical across the strategies.

use std::any::Any;
use std::rc::Rc;

use ufork_abi::{
    BlockingCall, Env, ForkResult, ImageSpec, Pid, Program, Resume, StepOutcome, SysResult,
};
use ufork_exec::{Machine, MachineConfig};
use ufork_mem::PAGE_SIZE;
use ufork_workloads::redis::{rdb_parse, rdb_save, Dict, RedisConfig};

use crate::heap::Heap;
use crate::probe::{exited_ok, run_machine, MachineRun, Rec};
use crate::{fill_word, ufork_os, Rng, STRATS};

/// Keys in the database, and their mean value size (bytes): the 10 MB
/// point of the paper's Redis sweep, 100 values of 100 KB
/// (`RedisConfig::sized(100, 100_000)`; EXPERIMENTS.md, Figs. 3–5).
const ENTRIES: u64 = 100;
/// Mean value size (bytes); the seed jitters every value by ±10 % so
/// that it reaches the database size and with it every simulated metric.
const VAL_BYTES: f64 = 100_000.0;
/// Save rounds per run (one fork each): the repository's snapshot train
/// (`TRAIN_SNAPSHOTS`, `crates/bench/src/snapshot.rs`).
pub const ROUNDS: usize = 5;
/// Keys SET before each fork and again while each save runs: the
/// snapshot train's write-heavy mix, 5 % of the database between
/// snapshots (`TRAIN_WRITE_RATE`).
const SETS: u64 = ENTRIES * 5 / 100;
/// Simulated cores: the parent and the saving child run side by side,
/// so the parent's SETs overlap the save (a synthetic choice; the Redis
/// figures fork from one core and never write during the save).
const CORES: usize = 2;
/// Register holding the dict handle (relocated by fork).
const DICT_REG: usize = 4;

/// The snapshot train's inputs.
#[derive(Debug)]
pub(crate) struct Plan {
    /// Fill key of the value bytes.
    pub(crate) key: u64,
    /// Value size of each key.
    pub(crate) vlen: Vec<u64>,
    /// Per round: keys SET before the fork, and while the child saves.
    pub(crate) rounds: Vec<(Vec<u64>, Vec<u64>)>,
}

impl Plan {
    /// The plan for `seed`.
    pub(crate) fn new(seed: u64) -> Plan {
        let mut r = Rng::new(seed, 200);
        let vlen = (0..ENTRIES)
            .map(|_| r.jitter(VAL_BYTES, 0.1).round() as u64)
            .collect();
        let sets =
            |r: &mut Rng| -> Vec<u64> { (0..SETS).map(|_| r.range(0, ENTRIES - 1)).collect() };
        let rounds = (0..ROUNDS).map(|_| (sets(&mut r), sets(&mut r))).collect();
        Plan {
            key: r.next_u64(),
            vlen,
            rounds,
        }
    }

    /// Key bytes of entry `i`.
    pub(crate) fn key_bytes(i: u64) -> Vec<u8> {
        format!("key:{i:06}").into_bytes()
    }

    /// Value of entry `i` after its `version`-th write (0 = initial).
    pub(crate) fn value(&self, i: u64, version: u64) -> Vec<u8> {
        let n = self.vlen[i as usize];
        let k = fill_word(self.key, i << 20 | version);
        (0..n.div_ceil(8))
            .flat_map(|w| fill_word(k, w).to_le_bytes())
            .take(n as usize)
            .collect()
    }

    /// The database image, sized as the repository's Redis sizes its
    /// static heap (`RedisConfig::heap_bytes`) for the largest value.
    pub(crate) fn image(&self) -> ImageSpec {
        let largest = self.vlen.iter().copied().max().unwrap_or(0);
        let heap = RedisConfig::sized(ENTRIES, largest).heap_bytes();
        ImageSpec::with_heap("redis", heap.next_multiple_of(PAGE_SIZE))
    }

    /// Per round, the version of every key at fork time: the database
    /// each round's dump must hold.
    pub(crate) fn versions_at_forks(&self) -> Vec<Vec<u64>> {
        let mut version = vec![0u64; ENTRIES as usize];
        let mut out = Vec::new();
        for (pre, during) in &self.rounds {
            pre.iter().for_each(|&k| version[k as usize] += 1);
            out.push(version.clone());
            during.iter().for_each(|&k| version[k as usize] += 1);
        }
        out
    }

    /// True when `dump` parses, its checksum holds and it holds exactly
    /// the database at `version`.
    pub(crate) fn dump_ok(&self, dump: &[u8], version: &[u64]) -> bool {
        rdb_parse(dump).is_some_and(|(mut got, sum_ok)| {
            got.sort();
            sum_ok
                && got.len() == version.len()
                && got.iter().zip(0u64..).all(|((k, v), i)| {
                    *k == Plan::key_bytes(i) && *v == self.value(i, version[i as usize])
                })
        })
    }
}

/// A 128-bit fingerprint of a dump (two FNV-1a streams over its 64-bit
/// words) plus its length: equal fingerprints stand for bit-identical
/// dumps without keeping every strategy's dumps in memory.
fn fingerprint(data: &[u8]) -> (u64, u64, usize) {
    let (mut a, mut b) = (0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64);
    for w in data.chunks(8) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        let x = u64::from_le_bytes(word);
        a = (a ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        b = (b ^ x).wrapping_mul(0x0000_0100_0000_0233);
    }
    (a, b, data.len())
}

/// Dump path of round `k`.
pub(crate) fn dump_path(k: usize) -> String {
    format!("dump{k:02}.rdb")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// SETs before the fork.
    Pre,
    /// SETs while the child saves.
    During,
    /// Reaping the saving child.
    Wait,
}

/// The Redis server; its forked clones save and exit.
#[derive(Clone)]
struct Server {
    plan: Rc<Plan>,
    rec: Rec,
    /// Writes so far per key (the parent's view of the database).
    version: Vec<u64>,
    round: usize,
    /// Next SET of the current phase's list.
    pos: usize,
    phase: Phase,
    sample: usize,
}

impl Server {
    fn populate(&mut self, env: &mut dyn Env) -> SysResult<()> {
        let dict = Dict::create(env, (ENTRIES * 2).next_power_of_two())?;
        for i in 0..ENTRIES {
            dict.insert(env, &Plan::key_bytes(i), &self.plan.value(i, 0))?;
        }
        env.set_reg(DICT_REG, dict.handle())
    }

    /// Runs the next SET of the current phase (one per scheduler step, as
    /// an event loop serves one command per turn); returns false once the
    /// list is done.
    fn set(&mut self, env: &mut dyn Env) -> bool {
        let plan = self.plan.clone();
        let (pre, during) = &plan.rounds[self.round];
        let keys = match self.phase {
            Phase::Pre => pre,
            Phase::During | Phase::Wait => during,
        };
        let Some(&k) = keys.get(self.pos) else {
            return false;
        };
        self.pos += 1;
        self.version[k as usize] += 1;
        let val = plan.value(k, self.version[k as usize]);
        let r = env.reg(DICT_REG).map(Dict::from_handle).and_then(|d| {
            self.rec
                .timed(|| d.update_in_place(env, &Plan::key_bytes(k), &val))
        });
        let mut l = self.rec.log();
        match r {
            Ok(()) => l.requests += 1,
            Err(_) => l.failures += 1,
        }
        true
    }

    /// Next step of the parent: a SET, then the fork or the reap.
    fn advance(&mut self, env: &mut dyn Env) -> StepOutcome {
        if self.set(env) {
            return StepOutcome::Block(BlockingCall::Yield);
        }
        match self.phase {
            Phase::Pre => {
                let now = env.now();
                self.sample = self.rec.request(now, now);
                StepOutcome::Fork
            }
            Phase::During | Phase::Wait => {
                self.phase = Phase::Wait;
                StepOutcome::Block(BlockingCall::Wait)
            }
        }
    }
}

impl Program for Server {
    fn resume(&mut self, env: &mut dyn Env, input: Resume) -> StepOutcome {
        match input {
            Resume::Start => {
                if self.populate(env).is_err() {
                    return StepOutcome::Exit(1);
                }
                self.rec.log().ready += 1;
                self.phase = Phase::Pre;
                self.advance(env)
            }
            Resume::Forked(ForkResult::Parent(pid)) => {
                self.rec.log().forks[self.sample].child = pid.0;
                (self.phase, self.pos) = (Phase::During, 0);
                self.advance(env)
            }
            Resume::Forked(ForkResult::Child) => {
                let first = env.now();
                let saved = env
                    .reg(DICT_REG)
                    .and_then(|h| rdb_save(env, &Dict::from_handle(h), &dump_path(self.round)));
                let settled = env.now();
                let s = &mut self.rec.log().forks[self.sample];
                (s.first_step, s.settled, s.ok) = (first, settled, saved.is_ok());
                StepOutcome::Exit(if saved.is_ok() { 0 } else { 1 })
            }
            Resume::Ret(Ok(_)) if self.phase == Phase::Wait => {
                self.round += 1;
                if self.round == self.plan.rounds.len() {
                    return StepOutcome::Exit(0);
                }
                (self.phase, self.pos) = (Phase::Pre, 0);
                self.advance(env)
            }
            Resume::Ret(Ok(_)) => self.advance(env),
            Resume::Ret(Err(_)) => StepOutcome::Exit(2),
        }
    }

    fn clone_box(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Checks every round's dump: against the model when there is no
/// `reference` yet, else for bit-identity with the reference. Returns the
/// dumps' fingerprints and the number of rounds whose dump is wrong.
fn check_dumps<O: ufork_exec::MemOs>(
    m: &Machine<O>,
    plan: &Plan,
    versions: &[Vec<u64>],
    reference: Option<&[(u64, u64, usize)]>,
) -> (Vec<(u64, u64, usize)>, u64) {
    let mut bad = 0;
    let mut prints = Vec::new();
    for (k, version) in versions.iter().enumerate() {
        let data = m.vfs().file_contents(&dump_path(k)).unwrap_or_default();
        let print = fingerprint(data);
        let ok = match reference {
            Some(r) => r.get(k) == Some(&print),
            None => plan.dump_ok(data, version),
        };
        bad += u64::from(!ok);
        prints.push(print);
    }
    (prints, bad)
}

/// A synthetic heap shaped like the database: its size, and one
/// capability per granule share the dict's links take (traced battery).
pub(crate) fn heap(seed: u64) -> Heap {
    let plan = Plan::new(seed);
    let vals: u64 = plan.vlen.iter().sum();
    // Per key: a 64-byte entry, a key object and a bucket slot.
    let bytes = vals + ENTRIES * (64 + 16 + 32);
    let pages = bytes.div_ceil(PAGE_SIZE);
    Heap {
        key: plan.key,
        pages,
        // Three links per entry plus the bucket heads.
        cap_every: pages * (PAGE_SIZE / 16) / (ENTRIES * 4),
    }
}

/// The snapshot train's inputs: the plan, and per round the database
/// each dump must hold.
pub struct Inputs {
    plan: Rc<Plan>,
    versions: Vec<Vec<u64>>,
}

impl Inputs {
    /// The inputs for `seed`.
    pub fn new(seed: u64) -> Inputs {
        let plan = Plan::new(seed);
        let versions = plan.versions_at_forks();
        Inputs {
            plan: Rc::new(plan),
            versions,
        }
    }

    /// Runs the snapshot train on every strategy's machine.
    pub fn run(&self, traced: bool) -> Vec<MachineRun> {
        let Inputs { plan, versions } = self;
        let mut reference = None;
        STRATS
            .iter()
            .map(|s| {
                run_machine(
                    *s,
                    traced,
                    1,
                    |rec| {
                        let mut m = Machine::new(
                            ufork_os(s, 2048),
                            MachineConfig {
                                cores: CORES,
                                ..MachineConfig::default()
                            },
                        );
                        let server = Server {
                            plan: plan.clone(),
                            rec: rec.clone(),
                            version: vec![0; ENTRIES as usize],
                            round: 0,
                            pos: 0,
                            phase: Phase::Pre,
                            sample: 0,
                        };
                        m.spawn(&plan.image(), Box::new(server))
                            .expect("spawn redis");
                        m
                    },
                    |m, log| {
                        let (prints, bad) = check_dumps(m, plan, versions, reference.as_deref());
                        reference.get_or_insert(prints);
                        let server_bad = !exited_ok(m, Pid(1));
                        // Dumps, the server's exit and every SET.
                        let attempted = versions.len() as u64 + 1 + log.requests + log.failures;
                        (attempted, bad + u64::from(server_bad))
                    },
                )
            })
            .collect()
    }
}
