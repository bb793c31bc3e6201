//! Execution-limit smoke test: an adversarial kernel that would spin
//! (effectively) forever must trip a structured limit error — op budget
//! or deadline, chosen by the usual flags — under the selected engine,
//! and the device must stay fully usable afterwards. Exits 0 when both
//! hold, 1 otherwise.

use sycl_mlir_bench::device_from_args;
use sycl_mlir_core::FlowKind;
use sycl_mlir_dialects::{arith, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_runtime::exec::{compile_program, run};
use sycl_mlir_runtime::hostgen::generate_host_ir;
use sycl_mlir_runtime::{Queue, SyclRuntime};
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

const N: i64 = 64;

fn main() {
    sycl_mlir_bench::handle_help_flag(
        "repro_limits",
        "execution-limit smoke test: a wedged kernel must fail, not hang",
    );
    let mut device = device_from_args();
    if device.limits.max_ops.is_none() && device.limits.deadline_ms.is_none() {
        // Standalone default: small enough to trip the spinner quickly,
        // generous enough that the well-behaved kernel never notices.
        println!("no --max-ops / --deadline-ms given; defaulting to --max-ops=2000000");
        device = device.max_ops(2_000_000);
    }

    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();

    // `spin`: every work-item iterates a ~10^18-trip loop — unbounded for
    // all practical purposes. Without limits this launch never returns.
    let sig = KernelSig::new("spin", 1, true).accessor(f32t.clone(), 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let zero = arith::constant_index(b, 0);
        let one = arith::constant_index(b, 1);
        let huge = arith::constant_index(b, 1 << 60);
        let lp = scf::build_for(b, zero, huge, one, &[v], |inner, _iv, iters| {
            let f32t = inner.ctx().f32_type();
            let c = arith::constant_float(inner, 1.0000001, f32t);
            vec![arith::mulf(inner, iters[0], c)]
        });
        let out = b.module().op_result(lp, 0);
        sdev::store_via_id(b, out, args[0], &[gid]);
    });

    // `scale`: the well-behaved kernel proving the device survives.
    let sig = KernelSig::new("scale", 1, true).accessor(f32t, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let f32t = b.ctx().f32_type();
        let two = arith::constant_float(b, 2.0, f32t);
        let d = arith::mulf(b, v, two);
        sdev::store_via_id(b, d, args[0], &[gid]);
    });

    let mut rt = SyclRuntime::new();
    let buf_a = rt.buffer_f32(vec![1.0; N as usize], &[N]);
    let buf_b = rt.buffer_f32(vec![3.0; N as usize], &[N]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(buf_a, AccessMode::ReadWrite);
        h.parallel_for_nd("spin", &[N], &[16]);
    });
    q.submit(|h| {
        h.accessor(buf_b, AccessMode::ReadWrite);
        h.parallel_for_nd("scale", &[N], &[16]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();
    let mut program = match compile_program(FlowKind::SyclMlir, module) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: compilation failed: {e}");
            std::process::exit(1);
        }
    };

    println!("{device}");
    match run(&mut program, &mut rt, &q, &device) {
        Ok(_) => {
            eprintln!("error: the adversarial kernel completed — no limit tripped");
            std::process::exit(1);
        }
        Err(e) => match e.limit_kind() {
            Some(kind) => println!("limit tripped as expected: {e} (kind: {})", kind.name()),
            None => {
                eprintln!("error: expected a limit trip, got: {e}");
                std::process::exit(1);
            }
        },
    }

    // The same device (and its warm plan cache) must accept and correctly
    // run a subsequent launch.
    let mut q2 = Queue::new();
    q2.submit(|h| {
        h.accessor(buf_b, AccessMode::ReadWrite);
        h.parallel_for_nd("scale", &[N], &[16]);
    });
    match run(&mut program, &mut rt, &q2, &device) {
        Ok(_) => {
            let out = rt.read_f32(buf_b);
            if out.iter().any(|&x| x != 6.0) {
                eprintln!(
                    "error: post-limit launch produced wrong data: {:?}",
                    &out[..4]
                );
                std::process::exit(1);
            }
            println!("device usable after the trip: follow-up kernel ran correctly");
        }
        Err(e) => {
            eprintln!("error: device unusable after the limit trip: {e}");
            std::process::exit(1);
        }
    }
}
