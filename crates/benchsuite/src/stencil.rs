//! The stencil workloads from the oneAPI samples repository (§VIII):
//! 1D heat transfer (buffer and USM variants), iso2dfd and jacobi.
//! None of the paper's device optimizations apply here; the paper reports
//! 0.86x–1.0x for SYCL-MLIR, and AdaptiveCpp fails validation on all but
//! iso2dfd.

use crate::util::*;
use crate::{App, Category, ValidateFn, WorkloadSpec};
use sycl_mlir_dialects::{arith, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_runtime::{hostgen::generate_host_ir, Queue, SyclRuntime};
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

/// The four stencil workloads. Sizes: the paper recommends 100 points ×
/// 1,000 steps for heat transfer, 1,000² × 2,000 for iso2dfd; we keep the
/// spatial sizes and scale the step counts.
pub fn workloads() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "1D HeatTransfer (buffer)",
            category: Category::Stencil,
            paper_size: 100,
            scaled_size: 100,
            acpp_fails: true, // §VIII: ACpp fails all stencils except iso2dfd
            in_figure: true,
            build: |n| heat_transfer(n, false),
        },
        WorkloadSpec {
            name: "1D HeatTransfer (USM)",
            category: Category::Stencil,
            paper_size: 100,
            scaled_size: 100,
            acpp_fails: true,
            in_figure: true,
            build: |n| heat_transfer(n, true),
        },
        WorkloadSpec {
            name: "iso2dfd",
            category: Category::Stencil,
            paper_size: 1000,
            scaled_size: 64,
            acpp_fails: false, // ACpp runs it (1.5x in the paper)
            in_figure: true,
            build: iso2dfd,
        },
        WorkloadSpec {
            name: "jacobi",
            category: Category::Stencil,
            paper_size: 256,
            scaled_size: 64,
            acpp_fails: true,
            in_figure: true,
            build: jacobi,
        },
    ]
}

/// One explicit Euler step of 1-d heat diffusion:
/// `out[i] = in[i] + k*(in[i-1] - 2 in[i] + in[i+1])` with clamped borders.
fn heat_transfer(n: i64, usm: bool) -> App {
    const STEPS: i64 = 50;
    const K: f64 = 0.25;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("heat_step", 1, false)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::item_get_id(b, item, 0);
        let nn = sdev::item_get_range(b, item, 0);
        let one = arith::constant_index(b, 1);
        let zero = arith::constant_index(b, 0);
        let hi = arith::subi(b, nn, one);
        let ge = arith::cmpi(b, "sgt", i, zero);
        let lt = arith::cmpi(b, "slt", i, hi);
        let interior = b.build_value("arith.andi", &[ge, lt], b.ctx().i1_type(), vec![]);
        let cur = sdev::load_via_id(b, args[0], &[i]);
        scf::build_if(
            b,
            interior,
            &[],
            |inner| {
                let one2 = arith::constant_index(inner, 1);
                let im1 = arith::subi(inner, i, one2);
                let ip1 = arith::addi(inner, i, one2);
                let left = sdev::load_via_id(inner, args[0], &[im1]);
                let right = sdev::load_via_id(inner, args[0], &[ip1]);
                let f32t = inner.ctx().f32_type();
                let two = arith::constant_float(inner, 2.0, f32t.clone());
                let twice = arith::mulf(inner, two, cur);
                let lap0 = arith::addf(inner, left, right);
                let lap = arith::subf(inner, lap0, twice);
                let kc = arith::constant_float(inner, K, f32t);
                let dk = arith::mulf(inner, kc, lap);
                let next = arith::addf(inner, cur, dk);
                sdev::store_via_id(inner, next, args[1], &[i]);
                vec![]
            },
            |inner| {
                sdev::store_via_id(inner, cur, args[1], &[i]);
                vec![]
            },
        );
    });

    let mut rng_ = rng(51);
    let mut rt = SyclRuntime::new();
    let init = rand_f32(&mut rng_, n as usize);
    let mut q = Queue::new();
    if usm {
        // USM: user-managed pointers, opaque to host analysis (§II-A).
        let a = rt.usm_alloc_f32(init.clone());
        let b = rt.usm_alloc_f32(vec![0.0; n as usize]);
        for step in 0..STEPS {
            let (src, dst) = if step % 2 == 0 { (a, b) } else { (b, a) };
            q.submit(|h| {
                h.usm(src, n).usm(dst, n);
                h.parallel_for("heat_step", &[n]);
            });
        }
    } else {
        let a = rt.buffer_f32(init.clone(), &[n]);
        let b = rt.buffer_f32(vec![0.0; n as usize], &[n]);
        for step in 0..STEPS {
            let (src, dst) = if step % 2 == 0 { (a, b) } else { (b, a) };
            q.submit(|h| {
                h.accessor(src, AccessMode::Read)
                    .accessor(dst, AccessMode::Write);
                h.parallel_for("heat_step", &[n]);
            });
        }
    }
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    // After an even number of steps the result lives in buffer/usm 0.
    let last = (STEPS % 2) as usize;
    let validate: ValidateFn = Box::new(move |rt| {
        // Host reference.
        let mut cur = init.clone();
        for _ in 0..STEPS {
            let mut next = cur.clone();
            for i in 1..(n - 1) as usize {
                next[i] = cur[i] + K as f32 * (cur[i - 1] - 2.0 * cur[i] + cur[i + 1]);
            }
            cur = next;
        }
        let (name, got) = if usm {
            ("heat-usm", rt.usm_read_f32(usm_id(last)))
        } else {
            ("heat-buffer", rt.read_f32(buf_id(last)))
        };
        check_f32(name, got, &cur, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn usm_id(i: usize) -> sycl_mlir_runtime::UsmId {
    sycl_mlir_runtime::UsmId(i)
}

fn buf_id(i: usize) -> sycl_mlir_runtime::BufferId {
    sycl_mlir_runtime::BufferId(i)
}

/// iso2dfd: second-order wave propagation in an isotropic medium.
/// `next = 2*cur - prev + vel*(laplacian(cur))`.
fn iso2dfd(n: i64) -> App {
    const ITERS: i64 = 20;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("iso2dfd", 2, true)
        .accessor(f.clone(), 2, AccessMode::Read) // cur
        .accessor(f.clone(), 2, AccessMode::ReadWrite) // prev/next
        .accessor(f, 2, AccessMode::Read); // velocity
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let one = arith::constant_index(b, 1);
        let nn = sdev::global_range(b, item, 0);
        let hi = arith::subi(b, nn, one);
        let zero = arith::constant_index(b, 0);
        let c0 = arith::cmpi(b, "sgt", i, zero);
        let c1 = arith::cmpi(b, "slt", i, hi);
        let c2 = arith::cmpi(b, "sgt", j, zero);
        let c3 = arith::cmpi(b, "slt", j, hi);
        let c01 = b.build_value("arith.andi", &[c0, c1], b.ctx().i1_type(), vec![]);
        let c23 = b.build_value("arith.andi", &[c2, c3], b.ctx().i1_type(), vec![]);
        let interior = b.build_value("arith.andi", &[c01, c23], b.ctx().i1_type(), vec![]);
        scf::build_if(
            b,
            interior,
            &[],
            |inner| {
                let one2 = arith::constant_index(inner, 1);
                let im1 = arith::subi(inner, i, one2);
                let ip1 = arith::addi(inner, i, one2);
                let jm1 = arith::subi(inner, j, one2);
                let jp1 = arith::addi(inner, j, one2);
                let c = sdev::load_via_id(inner, args[0], &[i, j]);
                let up = sdev::load_via_id(inner, args[0], &[im1, j]);
                let down = sdev::load_via_id(inner, args[0], &[ip1, j]);
                let left = sdev::load_via_id(inner, args[0], &[i, jm1]);
                let right = sdev::load_via_id(inner, args[0], &[i, jp1]);
                let f32t = inner.ctx().f32_type();
                let four = arith::constant_float(inner, 4.0, f32t);
                let sum0 = arith::addf(inner, up, down);
                let sum1 = arith::addf(inner, left, right);
                let sum = arith::addf(inner, sum0, sum1);
                let cc = arith::mulf(inner, four, c);
                let lap = arith::subf(inner, sum, cc);
                let vel = sdev::load_via_id(inner, args[2], &[i, j]);
                let vlap = arith::mulf(inner, vel, lap);
                let prev = sdev::load_via_id(inner, args[1], &[i, j]);
                let two = arith::constant_float(inner, 2.0, inner.ctx().f32_type());
                let twoc = arith::mulf(inner, two, c);
                let t0 = arith::subf(inner, twoc, prev);
                let next = arith::addf(inner, t0, vlap);
                sdev::store_via_id(inner, next, args[1], &[i, j]);
                vec![]
            },
            |_| vec![],
        );
    });

    let mut rng_ = rng(52);
    let mut rt = SyclRuntime::new();
    let len = (n * n) as usize;
    // Both wavefields are updated in place: the reference starts from
    // copies.
    let av = rand_f32(&mut rng_, len);
    let a = rt.buffer_f32(av.clone(), &[n, n]);
    let bv = rand_f32(&mut rng_, len);
    let b = rt.buffer_f32(bv.clone(), &[n, n]);
    let velv: Vec<f32> = (rand_f32(&mut rng_, len).iter())
        .map(|v| v.abs() * 0.1)
        .collect();
    let vel = rt.buffer_f32(velv.clone(), &[n, n]);
    let mut q = Queue::new();
    for step in 0..ITERS {
        let (cur, prev) = if step % 2 == 0 { (a, b) } else { (b, a) };
        q.submit(|h| {
            h.accessor(cur, AccessMode::Read)
                .accessor(prev, AccessMode::ReadWrite)
                .accessor(vel, AccessMode::Read);
            h.parallel_for_nd("iso2dfd", &[n, n], &[16, 16]);
        });
    }
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    // The final write went into the buffer playing `prev` on the last
    // step.
    let last_written = if (ITERS - 1) % 2 == 0 { b } else { a };
    let validate: ValidateFn = Box::new(move |rt| {
        // Host reference.
        let nn = n as usize;
        let mut cur = av.clone();
        let mut prev = bv.clone();
        for _ in 0..ITERS {
            let mut next = prev.clone();
            for i in 1..nn - 1 {
                for j in 1..nn - 1 {
                    let lap = cur[(i - 1) * nn + j]
                        + cur[(i + 1) * nn + j]
                        + cur[i * nn + j - 1]
                        + cur[i * nn + j + 1]
                        - 4.0 * cur[i * nn + j];
                    next[i * nn + j] =
                        2.0 * cur[i * nn + j] - prev[i * nn + j] + velv[i * nn + j] * lap;
                }
            }
            prev = cur;
            cur = next;
        }
        // After the loop `cur` is the last-written wavefield.
        check_f32("iso2dfd", rt.read_f32(last_written), &cur, 5e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

/// Jacobi iteration for a diagonally dominant system; the *prepare for next
/// iteration* step (L1 norm) runs on the host, as the paper adapted it
/// because SYCL reductions are unsupported (§VIII).
fn jacobi(n: i64) -> App {
    const ITERS: i64 = 10;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("jacobi_step", 1, true)
        .accessor(f.clone(), 2, AccessMode::Read) // A
        .accessor(f.clone(), 1, AccessMode::Read) // b
        .accessor(f.clone(), 1, AccessMode::Read) // x
        .accessor(f, 1, AccessMode::Write); // x_next
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        let f32t = b.ctx().f32_type();
        let zf = arith::constant_float(b, 0.0, f32t);
        let sum_loop = scf::build_for(b, zero, nn, one, &[zf], |inner, jv, iters| {
            let not_diag = arith::cmpi(inner, "ne", jv, i);
            let a = sdev::load_via_id(inner, args[0], &[i, jv]);
            let x = sdev::load_via_id(inner, args[2], &[jv]);
            let prod = arith::mulf(inner, a, x);
            let zero_f = arith::constant_float(inner, 0.0, inner.ctx().f32_type());
            let contrib = arith::select(inner, not_diag, prod, zero_f);
            let acc = arith::addf(inner, iters[0], contrib);
            vec![acc]
        });
        let sum = b.module().op_result(sum_loop, 0);
        let bv = sdev::load_via_id(b, args[1], &[i]);
        let diag = sdev::load_via_id(b, args[0], &[i, i]);
        let num = arith::subf(b, bv, sum);
        let xn = arith::divf(b, num, diag);
        sdev::store_via_id(b, xn, args[3], &[i]);
    });

    let mut rng_ = rng(53);
    let mut rt = SyclRuntime::new();
    let nn = n as usize;
    // Diagonally dominant A.
    let mut a_data = rand_f32(&mut rng_, nn * nn);
    for i in 0..nn {
        a_data[i * nn + i] = n as f32 + 1.0;
    }
    let b_data = rand_f32(&mut rng_, nn);
    let a = rt.buffer_f32(a_data.clone(), &[n, n]);
    let bb = rt.buffer_f32(b_data.clone(), &[n]);
    let x0 = rt.buffer_f32(vec![0.0; nn], &[n]);
    let x1 = rt.buffer_f32(vec![0.0; nn], &[n]);
    let mut q = Queue::new();
    for step in 0..ITERS {
        let (xin, xout) = if step % 2 == 0 { (x0, x1) } else { (x1, x0) };
        q.submit(|h| {
            h.accessor(a, AccessMode::Read)
                .accessor(bb, AccessMode::Read)
                .accessor(xin, AccessMode::Read)
                .accessor(xout, AccessMode::Write);
            h.parallel_for_nd("jacobi_step", &[n], &[16]);
        });
        // The "prepare for next iteration" L1-norm/error step runs on the
        // host in the paper's adapted version; our host does it during
        // validation instead of on-device.
    }
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let final_buf = if ITERS % 2 == 0 { x0 } else { x1 };
    let validate: ValidateFn = Box::new(move |rt| {
        // Host reference.
        let mut x = vec![0.0_f32; nn];
        for _ in 0..ITERS {
            let mut xn = vec![0.0_f32; nn];
            for i in 0..nn {
                let mut sum = 0.0_f32;
                for j in 0..nn {
                    if j != i {
                        sum += a_data[i * nn + j] * x[j];
                    }
                }
                xn[i] = (b_data[i] - sum) / a_data[i * nn + i];
            }
            x = xn;
        }
        check_f32("jacobi", rt.read_f32(final_buf), &x, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}
