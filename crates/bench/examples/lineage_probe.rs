//! Direct timing probe for the lineage fork (no setup subtraction).
use std::time::Instant;
use ufork::{UforkConfig, UforkOs};
use ufork_abi::{CopyStrategy, ImageSpec, Pid};
use ufork_exec::{Ctx, MemOs};

fn forking_os() -> (UforkOs, Pid) {
    let cfg = UforkConfig {
        phys_mib: 128,
        strategy: CopyStrategy::Full,
        ..UforkConfig::default()
    };
    let mut os = UforkOs::new(cfg);
    let mut ctx = Ctx::new();
    os.spawn(&mut ctx, Pid(1), &ImageSpec::hello_world())
        .unwrap();
    for i in 1..12 {
        os.fork(&mut ctx, Pid(i), Pid(i + 1)).unwrap();
        os.destroy(&mut ctx, Pid(i));
    }
    (os, Pid(12))
}

fn main() {
    let reps = 400;
    let mut setup_ns = 0u128;
    let mut fork_ns: Vec<u64> = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let (mut os, parent) = forking_os();
        setup_ns += t0.elapsed().as_nanos();
        let mut ctx = Ctx::new();
        let t = Instant::now();
        os.fork(&mut ctx, parent, Pid(parent.0 + 1)).unwrap();
        fork_ns.push(t.elapsed().as_nanos() as u64);
    }
    fork_ns.sort_unstable();
    println!(
        "lineage fork direct: median {} ns, p10 {} ns, p90 {} ns | setup avg {} ns",
        fork_ns[reps / 2],
        fork_ns[reps / 10],
        fork_ns[reps * 9 / 10],
        setup_ns as u64 / reps as u64
    );
}
