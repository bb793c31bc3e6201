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

use sycl_mlir_bench::{device_from_args, quick_flag};
use sycl_mlir_core::FlowKind;
use sycl_mlir_dialects::{arith, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_runtime::exec::{compile_program, run};
use sycl_mlir_runtime::hostgen::generate_host_ir;
use sycl_mlir_runtime::{HostOp, Queue, SyclRuntime};
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

/// Buffers the rounds rotate over (the fan-out width of the DAG).
const BUFS: usize = 8;

/// A tiny deterministic xorshift so the graph is "random" but identical
/// on every run and machine.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn main() {
    sycl_mlir_bench::handle_help_flag(
        "repro_hostdag",
        "host-task-interleaved DAG: host tasks as launch-graph nodes",
    );
    let quick = quick_flag();
    let device = device_from_args();
    // Problem size: element count per buffer, inner-loop trip count of
    // the kernel, and interleaved rounds — many rounds of modest kernels,
    // so scheduling overhead per command group is what shows.
    let (n, trips, rounds): (i64, i64, usize) = if quick { (256, 8, 40) } else { (512, 16, 300) };

    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    // `churn`: an iterated multiply-add per element.
    let sig = KernelSig::new("churn", 1, true).accessor(f32t, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let zero = arith::constant_index(b, 0);
        let one = arith::constant_index(b, 1);
        let end = arith::constant_index(b, trips);
        let lp = scf::build_for(b, zero, end, one, &[v], |inner, _iv, iters| {
            let f32t = inner.ctx().f32_type();
            let c0 = arith::constant_float(inner, 1.0001, f32t.clone());
            let c1 = arith::constant_float(inner, 0.001, f32t);
            let t = arith::mulf(inner, iters[0], c0);
            vec![arith::addf(inner, t, c1)]
        });
        let out = b.module().op_result(lp, 0);
        sdev::store_via_id(b, out, args[0], &[gid]);
    });

    let mut rt = SyclRuntime::new();
    let bufs: Vec<_> = (0..BUFS)
        .map(|bi| {
            rt.buffer_f32(
                (0..n)
                    .map(|i| 0.5 + (i + bi as i64) as f32 * 0.01)
                    .collect(),
                &[n],
            )
        })
        .collect();

    // Each round: one host task on a rotating buffer plus three kernels
    // on *other* buffers — independent of the host task, so they overlap
    // it.
    let mut rng = XorShift(0x9E3779B97F4A7C15);
    let mut q = Queue::new();
    for r in 0..rounds {
        let hb = r % BUFS;
        let op = match rng.below(3) {
            0 => HostOp::Scale {
                buffer: bufs[hb],
                factor: 1.25,
            },
            1 => HostOp::Shift {
                buffer: bufs[hb],
                delta: 0.125,
            },
            _ => HostOp::AddInto {
                dst: bufs[hb],
                src: bufs[(hb + 1) % BUFS],
            },
        };
        q.submit(|h| h.host_task(op));
        for k in 0..3 {
            let kb_idx = (hb + 2 + k + rng.below(3)) % BUFS;
            q.submit(|h| {
                h.accessor(bufs[kb_idx], AccessMode::ReadWrite);
                h.parallel_for_nd("churn", &[n], &[64]);
            });
        }
    }
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();
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

    println!("== host-task DAG ({rounds} rounds x (1 host + 3 kernels), {BUFS} buffers, n={n}) ==");
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
