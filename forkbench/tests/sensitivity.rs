//! Sensitivity tests: the benchmark's metrics move when their inputs do,
//! its tails are real, and its outputs verify.
//!
//! Run with `cargo test --release --manifest-path forkbench/Cargo.toml`
//! (debug builds work but are slow). The storm runs at a reduced size.

use forkbench::report::{end_to_end, outcome, Metric};
use forkbench::traced::battery;
use forkbench::{snapshot, storm, Rep, Workload};

/// Storm size for tests: p99 still has 15 samples beyond it.
const FORKS: f64 = 1500.0;

fn storm_rep(seed: u64) -> Rep {
    Rep::new(storm::Inputs::new(seed, FORKS).run(false))
}

fn snapshot_rep(seed: u64) -> Rep {
    Rep::new(snapshot::Inputs::new(seed).run(false))
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// The simulated end-to-end metrics (host, set-up and ok_share excluded).
fn simulated(rep: &Rep) -> Vec<Metric> {
    let host = ["host_s", "peak_rss_mb", "setup_s", "ok_share"];
    end_to_end(std::slice::from_ref(rep), 1.0)
        .into_iter()
        .filter(|m| !host.contains(&m.name.as_str()))
        .collect()
}

fn assert_verified(rep: &Rep) {
    let (attempted, failed) = outcome(std::slice::from_ref(rep));
    assert!(attempted > 0);
    assert_eq!(failed, 0, "{failed} of {attempted} operations failed");
    assert!(rep.machines.iter().all(|m| m.leaked == 0), "leaked frames");
}

fn assert_seed_moves_everything(a: &Rep, b: &Rep) {
    let (a, b) = (simulated(a), simulated(b));
    assert_eq!(a.len(), 12);
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(
            x.value.to_bits(),
            y.value.to_bits(),
            "{} did not move with the seed",
            x.name
        );
    }
}

#[test]
fn storm_tails_are_real_and_seeds_move_every_metric() {
    let a = storm_rep(1);
    assert_verified(&a);
    let m = end_to_end(std::slice::from_ref(&a), 1.0);
    for s in ["copa", "pipelined", "full"] {
        let (p50, p99) = (
            value(&m, &format!("start_p50_sim_us.{s}")),
            value(&m, &format!("start_p99_sim_us.{s}")),
        );
        assert!(p99 > p50, "{s}: start p99 {p99} is not above p50 {p50}");
    }
    // Some heaps span more than one CHUNK_PAGES chunk: the pipelined
    // walk copies more chunks than it forks.
    let piped = a
        .machines
        .iter()
        .find(|m| m.strat.name == "pipelined")
        .expect("pipelined machine");
    assert!(piped.counters.fork_chunks > piped.counters.forks);

    assert_seed_moves_everything(&a, &storm_rep(2));
}

#[test]
fn snapshot_trades_fork_latency_for_save_time() {
    let a = snapshot_rep(1);
    assert_verified(&a);
    let m = end_to_end(std::slice::from_ref(&a), 1.0);
    assert!(value(&m, "start_p50_sim_us.copa") < value(&m, "start_p50_sim_us.full"));
    let tail = |name: &str| -> Vec<f64> {
        let machine = a
            .machines
            .iter()
            .find(|m| m.strat.name == name)
            .expect("every strategy runs");
        assert_eq!(machine.forks.len(), snapshot::ROUNDS);
        machine.forks.iter().map(|f| f.settle - f.start).collect()
    };
    // Every save takes simulated time after the child's first step.
    for s in ["copa", "coa", "pipelined", "full"] {
        assert!(
            tail(s).iter().all(|t| *t > 0.0),
            "{s}: settle not after start"
        );
    }
    // CoPA pays its copy in capability-load faults during the save; the
    // full copy paid it before the child started.
    for (copa, full) in tail("copa").iter().zip(tail("full")) {
        assert!(
            *copa > full,
            "copa save tail {copa} not above full's {full}"
        );
    }
    assert_seed_moves_everything(&a, &snapshot_rep(2));
}

#[test]
fn tracing_leaves_the_simulation_unchanged() {
    use forkbench::report::sim_digest;
    let inputs = storm::Inputs::new(3, 300.0);
    let (plain, traced) = (Rep::new(inputs.run(false)), Rep::new(inputs.run(true)));
    assert_eq!(sim_digest(&plain), sim_digest(&traced));
    assert!(traced.machines.iter().all(|m| !m.host.fork_us.is_empty()));
}

#[test]
fn traced_battery_is_exact_and_leak_free() {
    let b = battery(5, &Workload::Snapshot.heaps(5));
    // Four strategies plus Parallel(2): fork and pass each, and the
    // pipelined drain.
    assert_eq!(b.checked, 11);
    assert_eq!(b.failed, 0);
    assert!(b.self_us.values().sum::<f64>() > 0.0);
}
