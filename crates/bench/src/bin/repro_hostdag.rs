//! Host-task-interleaved DAG benchmark: a randomized wide fan-out launch
//! graph whose rounds interleave host tasks with independent kernels.
//!
//! The host tasks ride the hazard DAG as ordinary single-group nodes, so
//! every independent kernel overlaps them — the shape on which running
//! host tasks as graph nodes (instead of draining the graph around each
//! one) was measured in docs/history/BENCH_pr9.json.
//!
//! The printed table — per-buffer checksums, per-kernel cycle totals —
//! is deterministic and bit-identical across thread counts and engines;
//! only the `repro_wall_time_seconds:` line varies. scripts/ci.sh diffs
//! the tables across those axes.

use sycl_mlir_bench::{device_from_args, hostdag, quick_flag, HostDag, HOSTDAG_BUFS};
use sycl_mlir_core::FlowKind;
use sycl_mlir_runtime::exec::{compile_program, run};

fn main() {
    sycl_mlir_bench::handle_help_flag(
        "repro_hostdag",
        "host-task-interleaved DAG: host tasks as launch-graph nodes",
    );
    let quick = quick_flag();
    let device = device_from_args();
    let HostDag {
        module,
        mut rt,
        q,
        bufs,
        n,
        rounds,
    } = hostdag(quick);
    let host_functions = module.funcs_in(module.top()).len();
    let mut program = match compile_program(FlowKind::SyclMlir, module) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: compilation failed: {e}");
            std::process::exit(1);
        }
    };

    // Config goes to stderr: stdout must be bit-identical across the
    // engine/thread axes so CI can diff it.
    eprintln!("{device}");
    let start = std::time::Instant::now();
    let report = match run(&mut program, &mut rt, &q, &device) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let wall = start.elapsed().as_secs_f64();

    println!("== host-task DAG ({rounds} rounds x (1 host + 3 kernels), {HOSTDAG_BUFS} buffers, n={n}) ==");
    println!("buffer  checksum");
    for (bi, &buf) in bufs.iter().enumerate() {
        // An order-sensitive fold over the exact bits: any scheduling
        // divergence (a host task run out of hazard order, a lost
        // kernel) changes it.
        let sum = rt
            .read_f32(buf)
            .iter()
            .fold(0u64, |acc, x| acc.rotate_left(7) ^ u64::from(x.to_bits()));
        println!("{bi:>6}  {sum:#018x}");
    }
    let host_rows = report
        .kernel_runs
        .iter()
        .filter(|k| k.stats.work_groups == 0)
        .count();
    println!(
        "kernel runs: {} (host rows: {host_rows})",
        report.kernel_runs.len()
    );
    // The sparse hazard-table edge set: linear in the command groups. A
    // regression back to one edge per direct hazard shows here (and in
    // the CI diff) as a count an order of magnitude larger.
    println!(
        "hazard edges: {} over {} command groups",
        q.dependencies().len(),
        q.groups.len()
    );
    // One host function per distinct command group: every kernel here
    // reads one of the BUFS buffers through the same geometry, so at most
    // BUFS functions whatever the round count (host tasks emit none). A
    // regression back to one function per submission reads F = G.
    println!(
        "host functions: {host_functions} for {} command groups",
        q.groups.iter().filter(|cg| cg.host.is_none()).count()
    );
    println!("total measured cycles: {:.1}", report.measured_cycles());
    println!("repro_wall_time_seconds: {wall:.3}");
}
