//! Ablation studies of μFork's design choices (beyond the paper's own
//! CoPA/CoA/full-copy comparison, which lives in the Figure 4/5 sweep).

use ufork::{UforkConfig, UforkOs};
use ufork_abi::{CopyStrategy, ImageSpec, IsolationLevel};
use ufork_exec::{Machine, MachineConfig};
use ufork_workloads::hello::HelloWorld;
use ufork_workloads::redis::{RedisConfig, RedisServer};
use ufork_workloads::shell::{Command, Shell};
use ufork_workloads::ubench::Context1;

/// One ablation row: a label and named measurements.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// `(metric name, value, unit)` triples.
    pub metrics: Vec<(String, f64, &'static str)>,
}

fn ufork_machine(cfg: UforkConfig) -> Machine<UforkOs> {
    Machine::new(UforkOs::new(cfg), MachineConfig::default())
}

/// A1 — `fork` vs `fork + exec`: what does state duplication cost over
/// plain program start (the vfork+exec pattern older SASOSes support)?
pub fn ablation_fork_vs_exec() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    // Plain fork.
    let mut m = ufork_machine(UforkConfig {
        phys_mib: 128,
        ..UforkConfig::default()
    });
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(HelloWorld::forking()))
        .expect("spawn");
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    rows.push(AblationRow {
        label: "fork (state duplicated)".into(),
        metrics: vec![("latency".into(), m.fork_log()[0].latency_ns / 1e3, "µs")],
    });
    // fork + exec.
    let mut m = ufork_machine(UforkConfig {
        phys_mib: 128,
        ..UforkConfig::default()
    });
    let cmd = Command {
        output: "ablate.out".into(),
        ops: 0,
        code: 0,
    };
    let pid = m
        .spawn(&ImageSpec::hello_world(), Box::new(Shell::new(vec![cmd])))
        .expect("spawn");
    m.run();
    assert_eq!(m.exit_code(pid), Some(0));
    // fork latency + the exec that replaces the child image; approximate
    // the combined cost as child start-to-first-instruction.
    let f = m.fork_log()[0];
    let child_first_exit = m
        .exit_log()
        .iter()
        .find(|e| e.pid == f.child)
        .expect("command exited");
    rows.push(AblationRow {
        label: "fork + exec (image replaced)".into(),
        metrics: vec![
            ("fork latency".into(), f.latency_ns / 1e3, "µs"),
            (
                "fork→command exit".into(),
                (child_first_exit.at - f.at) / 1e3,
                "µs",
            ),
        ],
    });
    rows
}

/// A2 — isolation-level sweep: what does each protection layer cost on
/// fork latency and on a syscall-heavy IPC loop?
pub fn ablation_isolation_sweep() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for iso in [
        IsolationLevel::None,
        IsolationLevel::Fault,
        IsolationLevel::Full,
    ] {
        let mut m = ufork_machine(UforkConfig {
            phys_mib: 256,
            isolation: iso,
            ..UforkConfig::default()
        });
        let rcfg = RedisConfig::sized(100, 100_000); // 10 MB
        let img = ImageSpec::with_heap("redis", rcfg.heap_bytes());
        let pid = m
            .spawn(&img, Box::new(RedisServer::new(rcfg)))
            .expect("spawn");
        m.run();
        assert_eq!(m.exit_code(pid), Some(0));
        let fork_us = m.fork_log()[0].latency_ns / 1e3;
        let save_ms = {
            let p = m.program::<RedisServer>(pid).expect("state");
            (p.bgsave_finished - p.bgsave_started) / 1e6
        };

        let mut m2 = ufork_machine(UforkConfig {
            phys_mib: 64,
            isolation: iso,
            ..UforkConfig::default()
        });
        let pid2 = m2
            .spawn(&ImageSpec::hello_world(), Box::new(Context1::new(10_000)))
            .expect("spawn");
        m2.run();
        assert_eq!(m2.exit_code(pid2), Some(0));

        rows.push(AblationRow {
            label: format!("{iso:?}"),
            metrics: vec![
                ("Redis 10MB fork".into(), fork_us, "µs"),
                ("Redis 10MB save".into(), save_ms, "ms"),
                ("Context1 5k RTs".into(), m2.now() / 1e6, "ms"),
            ],
        });
    }
    rows
}

/// A3 — eager vs lazy proactive copies: the paper copies GOT + allocator
/// metadata at fork; under CoPA they could equally be left to fault.
pub fn ablation_eager_vs_lazy() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for eager in [true, false] {
        let mut m = ufork_machine(UforkConfig {
            phys_mib: 256,
            strategy: CopyStrategy::CoPA,
            eager_fork_copies: eager,
            ..UforkConfig::default()
        });
        let rcfg = RedisConfig::sized(100, 100_000);
        let img = ImageSpec::with_heap("redis", rcfg.heap_bytes());
        let pid = m
            .spawn(&img, Box::new(RedisServer::new(rcfg)))
            .expect("spawn");
        m.run();
        assert_eq!(m.exit_code(pid), Some(0));
        let p = m.program::<RedisServer>(pid).expect("state");
        rows.push(AblationRow {
            label: if eager {
                "eager GOT+metadata copy (paper §3.5)".into()
            } else {
                "lazy (CoPA faults on first use)".into()
            },
            metrics: vec![
                (
                    "fork latency".into(),
                    m.fork_log()[0].latency_ns / 1e3,
                    "µs",
                ),
                (
                    "save time".into(),
                    (p.bgsave_finished - p.bgsave_started) / 1e6,
                    "ms",
                ),
                (
                    "post-fork faults".into(),
                    (m.counters().cap_load_faults
                        + m.counters().cow_faults
                        + m.counters().coa_faults) as f64,
                    "",
                ),
            ],
        });
    }
    rows
}

/// A4 — ASLR: randomized region bases cost nothing at fork time (the
/// relocation delta is computed per fork anyway) — a free mitigation.
pub fn ablation_aslr() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for seed in [None, Some(7u64), Some(99u64)] {
        let mut m = ufork_machine(UforkConfig {
            phys_mib: 128,
            aslr_seed: seed,
            ..UforkConfig::default()
        });
        let pid = m
            .spawn(&ImageSpec::hello_world(), Box::new(HelloWorld::forking()))
            .expect("spawn");
        m.run();
        assert_eq!(m.exit_code(pid), Some(0));
        let label = match seed {
            None => "ASLR off".to_string(),
            Some(s) => format!("ASLR seed {s}"),
        };
        rows.push(AblationRow {
            label,
            metrics: vec![("hello fork".into(), m.fork_log()[0].latency_ns / 1e3, "µs")],
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_vs_exec_rows() {
        let rows = ablation_fork_vs_exec();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].metrics[0].1 > 0.0);
    }

    #[test]
    fn isolation_sweep_orders_costs() {
        let rows = ablation_isolation_sweep();
        assert_eq!(rows.len(), 3);
        // Full ≥ Fault on the syscall-heavy loop.
        let ctx1 = |r: &AblationRow| r.metrics[2].1;
        assert!(ctx1(&rows[2]) >= ctx1(&rows[1]));
    }

    #[test]
    fn lazy_copies_trade_fork_latency_for_faults() {
        let rows = ablation_eager_vs_lazy();
        let (eager, lazy) = (&rows[0], &rows[1]);
        // Lazy fork is faster...
        assert!(lazy.metrics[0].1 <= eager.metrics[0].1);
        // ...but takes more faults afterwards (the copies still happen,
        // just on demand).
        assert!(lazy.metrics[2].1 > eager.metrics[2].1);
    }

    #[test]
    fn aslr_is_free() {
        let rows = ablation_aslr();
        let base = rows[0].metrics[0].1;
        for r in &rows[1..] {
            let diff = (r.metrics[0].1 - base).abs() / base;
            assert!(diff < 0.02, "ASLR must not change fork latency: {diff}");
        }
    }
}
