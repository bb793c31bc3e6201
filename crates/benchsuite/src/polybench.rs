//! The `polybench` category of SYCL-Bench (Fig. 3 of the paper): linear
//! algebra and stencil cores. These are the workloads where the paper's
//! device optimizations fire: array reduction in Correlation/Covariance
//! (5 and 4 opportunities), loop internalization in 2mm/3mm/GEMM/SYR2K/SYRK
//! (2 refs in GEMM, 4 in SYR2K), and the divergent-region skip in
//! Gramschmidt (§VIII).

use crate::util::*;
use crate::{App, Category, ValidateFn, WorkloadSpec};
use sycl_mlir_dialects::{affine, arith, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_runtime::{hostgen::generate_host_ir, Queue, SyclRuntime};
use sycl_mlir_sim::Dtype::F32;
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

/// All Fig. 3 workloads in figure order, plus 3D Convolution (sized in
/// §VIII's text but not plotted).
pub fn workloads() -> Vec<WorkloadSpec> {
    fn spec(name: &'static str, paper: i64, scaled: i64, build: fn(i64) -> App) -> WorkloadSpec {
        WorkloadSpec {
            name,
            category: Category::Polybench,
            paper_size: paper,
            scaled_size: scaled,
            acpp_fails: false,
            in_figure: true,
            build,
        }
    }
    let mut v = vec![
        spec("2D Convolution", 4096, 128, conv2d),
        spec("2mm", 1024, 48, mm2),
        spec("3mm", 1024, 48, mm3),
        spec("Atax", 4096, 128, atax),
        spec("Bicg", 16_384, 128, bicg),
        spec("Correlation", 1024, 48, correlation),
        spec("Covariance", 1024, 48, covariance),
        spec("FDTD2D", 1024, 48, fdtd2d),
        spec("GEMM", 1024, 48, gemm),
        spec("GESUMMV", 16_384, 128, gesummv),
        spec("Gramschmidt", 1024, 48, gramschmidt),
        spec("MVT", 16_384, 128, mvt),
        spec("SYR2K", 1024, 48, syr2k),
        spec("SYRK", 1024, 48, syrk),
    ];
    v.push(WorkloadSpec {
        name: "3D Convolution",
        category: Category::Polybench,
        paper_size: 1024,
        scaled_size: 32,
        acpp_fails: false,
        in_figure: false, // sized in §VIII's text, absent from Fig. 3
        build: conv3d,
    });
    v
}

const WG: i64 = 16;

/// Sequential (k-ordered) matmul accumulation matching the device order,
/// for f32 tolerance-free comparison.
fn host_matmul_seq(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0.0_f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0_f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Build a GEMM-style kernel `C[i][j] += A[i][k] * B[k][j]` (accessor
/// accumulation, Listing 6) under `name`.
fn add_matmul_kernel(kb: &mut KernelModuleBuilder, name: &str, n: i64) {
    let ctx = kb.module().ctx().clone();
    let f = ctx.f32_type();
    let sig = KernelSig::new(name, 2, true)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f, 2, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        affine::build_affine_for(b, zero, nn, one, &[], |inner, k, _| {
            let a = sdev::load_via_id(inner, args[0], &[i, k]);
            let bb = sdev::load_via_id(inner, args[1], &[k, j]);
            let prod = arith::mulf(inner, a, bb);
            let c = sdev::load_via_id(inner, args[2], &[i, j]);
            let sum = arith::addf(inner, c, prod);
            sdev::store_via_id(inner, sum, args[2], &[i, j]);
            vec![]
        });
    });
}

// ----------------------------------------------------------------------
// GEMM
// ----------------------------------------------------------------------

fn gemm(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    add_matmul_kernel(&mut kb, "gemm", n);

    let mut rng_ = rng(31);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let b = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let c = rt.buffer_zeroed(F32, &[n, n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(b, AccessMode::Read)
            .accessor(c, AccessMode::ReadWrite);
        h.parallel_for_nd("gemm", &[n, n], &[WG, WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let want = host_matmul_seq(&rt.initial_f32(a), &rt.initial_f32(b), n as usize);
        check_f32("gemm", rt.read_f32(c), &want, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// 2mm / 3mm: chains of matmuls.
// ----------------------------------------------------------------------

fn mm_chain(n: i64, chains: usize) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    add_matmul_kernel(&mut kb, "mm", n);

    let mut rng_ = rng(32 + chains as u64);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    // The right-hand factors, in chain order.
    let mut factors = vec![seeded_rand(&mut rt, &mut rng_, F32, &[n, n])];
    let mut rhs = factors[0];
    let mut q = Queue::new();
    let mut lhs = a;
    for step in 0..chains {
        let out = rt.buffer_zeroed(F32, &[n, n]);
        q.submit(|h| {
            h.accessor(lhs, AccessMode::Read)
                .accessor(rhs, AccessMode::Read)
                .accessor(out, AccessMode::ReadWrite);
            h.parallel_for_nd("mm", &[n, n], &[WG, WG]);
        });
        // Next multiplication: previous result times a fresh matrix.
        lhs = out;
        if step + 1 < chains {
            rhs = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
            factors.push(rhs);
        }
    }
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let last = lhs;
    let validate: ValidateFn = Box::new(move |rt| {
        // Host reference for the whole chain.
        let want = (factors.iter()).fold(rt.initial_f32(a), |cur, &m| {
            host_matmul_seq(&cur, &rt.initial_f32(m), n as usize)
        });
        check_f32("mm-chain", rt.read_f32(last), &want, 5e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn mm2(n: i64) -> App {
    mm_chain(n, 2)
}

fn mm3(n: i64) -> App {
    mm_chain(n, 3)
}

// ----------------------------------------------------------------------
// SYRK / SYR2K: symmetric rank-k updates (the 2- and 4-ref
// internalization cases of §VIII).
// ----------------------------------------------------------------------

fn syrk_like(n: i64, two: bool) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let name = if two { "syr2k" } else { "syrk" };
    let mut sig = KernelSig::new(name, 2, true).accessor(f.clone(), 2, AccessMode::Read);
    if two {
        sig = sig.accessor(f.clone(), 2, AccessMode::Read);
    }
    sig = sig.accessor(f, 2, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        let c_acc = if two { args[2] } else { args[1] };
        affine::build_affine_for(b, zero, nn, one, &[], |inner, k, _| {
            // A[i][k] * A[j][k] (+ B[i][k]*A[j][k] + A[i][k]*B[j][k] for
            // syr2k — 4 distinct loads, all temporally reused).
            let a_ik = sdev::load_via_id(inner, args[0], &[i, k]);
            let a_jk = sdev::load_via_id(inner, args[0], &[j, k]);
            let update = if two {
                let b_ik = sdev::load_via_id(inner, args[1], &[i, k]);
                let b_jk = sdev::load_via_id(inner, args[1], &[j, k]);
                let t1 = arith::mulf(inner, a_ik, b_jk);
                let t2 = arith::mulf(inner, b_ik, a_jk);
                arith::addf(inner, t1, t2)
            } else {
                arith::mulf(inner, a_ik, a_jk)
            };
            let c = sdev::load_via_id(inner, c_acc, &[i, j]);
            let sum = arith::addf(inner, c, update);
            sdev::store_via_id(inner, sum, c_acc, &[i, j]);
            vec![]
        });
    });

    let mut rng_ = rng(if two { 34 } else { 33 });
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let b = two.then(|| seeded_rand(&mut rt, &mut rng_, F32, &[n, n]));
    let c = rt.buffer_zeroed(F32, &[n, n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read);
        if let Some(b) = b {
            h.accessor(b, AccessMode::Read);
        }
        h.accessor(c, AccessMode::ReadWrite);
        h.parallel_for_nd(name, &[n, n], &[WG, WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let nn = n as usize;
        let av = rt.initial_f32(a);
        let bv = b.map(|b| rt.initial_f32(b));
        let want: Vec<f32> = (0..nn)
            .flat_map(|i| {
                let av = &av;
                let bv = &bv;
                (0..nn).map(move |j| {
                    let mut acc = 0.0_f32;
                    for k in 0..nn {
                        acc += match bv {
                            Some(bv) => {
                                av[i * nn + k] * bv[j * nn + k] + bv[i * nn + k] * av[j * nn + k]
                            }
                            None => av[i * nn + k] * av[j * nn + k],
                        };
                    }
                    acc
                })
            })
            .collect();
        check_f32("syrk", rt.read_f32(c), &want, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn syrk(n: i64) -> App {
    syrk_like(n, false)
}

fn syr2k(n: i64) -> App {
    syrk_like(n, true)
}

// ----------------------------------------------------------------------
// Atax / Bicg / MVT / GESUMMV: matrix-vector kernels with scalar
// accumulation (no array-reduction opportunity, like the SYCL-Bench code).
// ----------------------------------------------------------------------

/// Adds a kernel `out[i] = Σ_j A[i or j][j or i] * x[j] (+ variants)`.
fn add_matvec_kernel(kb: &mut KernelModuleBuilder, name: &str, n: i64, transposed: bool) {
    let ctx = kb.module().ctx().clone();
    let f = ctx.f32_type();
    let sig = KernelSig::new(name, 1, true)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        let f32t = b.ctx().f32_type();
        let init = arith::constant_float(b, 0.0, f32t);
        let loop_op = scf::build_for(b, zero, nn, one, &[init], |inner, jv, iters| {
            let a = if transposed {
                sdev::load_via_id(inner, args[0], &[jv, i])
            } else {
                sdev::load_via_id(inner, args[0], &[i, jv])
            };
            let x = sdev::load_via_id(inner, args[1], &[jv]);
            let prod = arith::mulf(inner, a, x);
            let acc = arith::addf(inner, iters[0], prod);
            vec![acc]
        });
        let total = b.module().op_result(loop_op, 0);
        sdev::store_via_id(b, total, args[2], &[i]);
    });
}

fn host_matvec(a: &[f32], x: &[f32], n: usize, transposed: bool) -> Vec<f32> {
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if transposed {
                        a[j * n + i] * x[j]
                    } else {
                        a[i * n + j] * x[j]
                    }
                })
                .sum()
        })
        .collect()
}

fn atax(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    add_matvec_kernel(&mut kb, "atax_a", n, false);
    add_matvec_kernel(&mut kb, "atax_at", n, true);

    let mut rng_ = rng(35);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let x = seeded_rand(&mut rt, &mut rng_, F32, &[n]);
    let tmp = rt.buffer_zeroed(F32, &[n]);
    let y = rt.buffer_zeroed(F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(x, AccessMode::Read)
            .accessor(tmp, AccessMode::Write);
        h.parallel_for_nd("atax_a", &[n], &[64.min(n)]);
    });
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(tmp, AccessMode::Read)
            .accessor(y, AccessMode::Write);
        h.parallel_for_nd("atax_at", &[n], &[64.min(n)]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let av = rt.initial_f32(a);
        let tmp_ref = host_matvec(&av, &rt.initial_f32(x), n as usize, false);
        let want = host_matvec(&av, &tmp_ref, n as usize, true);
        check_f32("atax", rt.read_f32(y), &want, 1e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn bicg(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    add_matvec_kernel(&mut kb, "bicg_q", n, false);
    add_matvec_kernel(&mut kb, "bicg_s", n, true);

    let mut rng_ = rng(36);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let p = seeded_rand(&mut rt, &mut rng_, F32, &[n]);
    let r = seeded_rand(&mut rt, &mut rng_, F32, &[n]);
    let qv = rt.buffer_zeroed(F32, &[n]);
    let s = rt.buffer_zeroed(F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(p, AccessMode::Read)
            .accessor(qv, AccessMode::Write);
        h.parallel_for_nd("bicg_q", &[n], &[64.min(n)]);
    });
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(r, AccessMode::Read)
            .accessor(s, AccessMode::Write);
        h.parallel_for_nd("bicg_s", &[n], &[64.min(n)]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let av = rt.initial_f32(a);
        let want_q = host_matvec(&av, &rt.initial_f32(p), n as usize, false);
        check_f32("bicg.q", rt.read_f32(qv), &want_q, 1e-2)?;
        let want_s = host_matvec(&av, &rt.initial_f32(r), n as usize, true);
        check_f32("bicg.s", rt.read_f32(s), &want_s, 1e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn mvt(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    add_matvec_kernel(&mut kb, "mvt_x1", n, false);
    add_matvec_kernel(&mut kb, "mvt_x2", n, true);

    let mut rng_ = rng(37);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let y1 = seeded_rand(&mut rt, &mut rng_, F32, &[n]);
    let y2 = seeded_rand(&mut rt, &mut rng_, F32, &[n]);
    let x1 = rt.buffer_zeroed(F32, &[n]);
    let x2 = rt.buffer_zeroed(F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(y1, AccessMode::Read)
            .accessor(x1, AccessMode::Write);
        h.parallel_for_nd("mvt_x1", &[n], &[64.min(n)]);
    });
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(y2, AccessMode::Read)
            .accessor(x2, AccessMode::Write);
        h.parallel_for_nd("mvt_x2", &[n], &[64.min(n)]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let av = rt.initial_f32(a);
        let want1 = host_matvec(&av, &rt.initial_f32(y1), n as usize, false);
        check_f32("mvt.x1", rt.read_f32(x1), &want1, 1e-2)?;
        let want2 = host_matvec(&av, &rt.initial_f32(y2), n as usize, true);
        check_f32("mvt.x2", rt.read_f32(x2), &want2, 1e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn gesummv(n: i64) -> App {
    let (alpha, beta) = (1.25_f32, 0.75_f32);
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("gesummv", 1, true)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Write)
        .scalar(f.clone())
        .scalar(f);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        let f32t = b.ctx().f32_type();
        let zf = arith::constant_float(b, 0.0, f32t);
        let loop_op = scf::build_for(b, zero, nn, one, &[zf, zf], |inner, jv, iters| {
            let a = sdev::load_via_id(inner, args[0], &[i, jv]);
            let bb = sdev::load_via_id(inner, args[1], &[i, jv]);
            let x = sdev::load_via_id(inner, args[2], &[jv]);
            let ax = arith::mulf(inner, a, x);
            let bx = arith::mulf(inner, bb, x);
            let s1 = arith::addf(inner, iters[0], ax);
            let s2 = arith::addf(inner, iters[1], bx);
            vec![s1, s2]
        });
        let s1 = b.module().op_result(loop_op, 0);
        let s2 = b.module().op_result(loop_op, 1);
        let t1 = arith::mulf(b, args[4], s1);
        let t2 = arith::mulf(b, args[5], s2);
        let y = arith::addf(b, t1, t2);
        sdev::store_via_id(b, y, args[3], &[i]);
    });

    let mut rng_ = rng(38);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let b = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let x = seeded_rand(&mut rt, &mut rng_, F32, &[n]);
    let y = rt.buffer_zeroed(F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(b, AccessMode::Read)
            .accessor(x, AccessMode::Read)
            .accessor(y, AccessMode::Write)
            .scalar_f32(alpha)
            .scalar_f32(beta);
        h.parallel_for_nd("gesummv", &[n], &[64.min(n)]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let nn = n as usize;
        let (av, bv, xv) = (rt.initial_f32(a), rt.initial_f32(b), rt.initial_f32(x));
        let want: Vec<f32> = (0..nn)
            .map(|i| {
                let s1: f32 = (0..nn).map(|j| av[i * nn + j] * xv[j]).sum();
                let s2: f32 = (0..nn).map(|j| bv[i * nn + j] * xv[j]).sum();
                alpha * s1 + beta * s2
            })
            .collect();
        check_f32("gesummv", rt.read_f32(y), &want, 1e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// Correlation / Covariance: the array-reduction showcases (5 and 4
// opportunities, §VIII).
// ----------------------------------------------------------------------

/// `mean[j] += data[i][j]` (array reduction) then `mean[j] /= n`.
fn add_mean_kernel(kb: &mut KernelModuleBuilder, name: &str, n: i64, also_sumsq: bool) {
    let ctx = kb.module().ctx().clone();
    let f = ctx.f32_type();
    let mut sig = KernelSig::new(name, 1, true)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::ReadWrite);
    if also_sumsq {
        sig = sig.accessor(f, 1, AccessMode::ReadWrite);
    }
    kb.add_kernel(&sig, move |b, args, item| {
        let j = sdev::global_id(b, item, 0);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        affine::build_affine_for(b, zero, nn, one, &[], |inner, iv, _| {
            let d = sdev::load_via_id(inner, args[0], &[iv, j]);
            // mean[j] += data[i][j]  — array reduction opportunity.
            let m = sdev::load_via_id(inner, args[1], &[j]);
            let m2 = arith::addf(inner, m, d);
            sdev::store_via_id(inner, m2, args[1], &[j]);
            if also_sumsq {
                // sumsq[j] += data[i][j]^2 — a second opportunity.
                let sq = arith::mulf(inner, d, d);
                let s = sdev::load_via_id(inner, args[2], &[j]);
                let s2 = arith::addf(inner, s, sq);
                sdev::store_via_id(inner, s2, args[2], &[j]);
            }
            vec![]
        });
        let m = sdev::load_via_id(b, args[1], &[j]);
        let f32t = b.ctx().f32_type();
        let nf = arith::constant_float(b, n as f64, f32t);
        let mean = arith::divf(b, m, nf);
        sdev::store_via_id(b, mean, args[1], &[j]);
    });
}

/// `out[i][j] += data[k][i]*data[k][j]` under the polybench upper-triangle
/// guard `j >= i` — one array reduction per loop. The divergent guard also
/// keeps loop internalization away (only the reduction fires, matching the
/// paper's attribution for Correlation/Covariance).
fn add_pairwise_kernel(kb: &mut KernelModuleBuilder, name: &str, n: i64) {
    let ctx = kb.module().ctx().clone();
    let f = ctx.f32_type();
    let sig = KernelSig::new(name, 2, true)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f, 2, AccessMode::ReadWrite);
    kb.add_kernel(&sig, move |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let upper = arith::cmpi(b, "sge", j, i);
        scf::build_if(
            b,
            upper,
            &[],
            |outer| {
                let zero = arith::constant_index(outer, 0);
                let nn = arith::constant_index(outer, n);
                let one = arith::constant_index(outer, 1);
                affine::build_affine_for(outer, zero, nn, one, &[], |body, kv, _| {
                    let di = sdev::load_via_id(body, args[0], &[kv, i]);
                    let dj = sdev::load_via_id(body, args[0], &[kv, j]);
                    let prod = arith::mulf(body, di, dj);
                    // Column-major accumulation (out[j][i]): the polybench
                    // convention of writing symmat by columns.
                    let cji = sdev::load_via_id(body, args[1], &[j, i]);
                    let cji2 = arith::addf(body, cji, prod);
                    sdev::store_via_id(body, cji2, args[1], &[j, i]);
                    vec![]
                });
                vec![]
            },
            |_| vec![],
        );
    });
}

/// `var[j] += data[i][j]^2` — one more array reduction (normalization
/// check of the statistics kernels).
fn add_var_kernel(kb: &mut KernelModuleBuilder, name: &str, n: i64) {
    let ctx = kb.module().ctx().clone();
    let f = ctx.f32_type();
    let sig = KernelSig::new(name, 1, true)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, move |b, args, item| {
        let j = sdev::global_id(b, item, 0);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, n);
        let one = arith::constant_index(b, 1);
        affine::build_affine_for(b, zero, nn, one, &[], |body, iv, _| {
            let d = sdev::load_via_id(body, args[0], &[iv, j]);
            let sq = arith::mulf(body, d, d);
            let v = sdev::load_via_id(body, args[1], &[j]);
            let v2 = arith::addf(body, v, sq);
            sdev::store_via_id(body, v2, args[1], &[j]);
            vec![]
        });
    });
}

fn correlation(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    // Kernel 1: mean (1 reduction). Kernel 2: sum+sumsq for the stddev
    // (2 reductions). Kernel 3: normalize (elementwise). Kernel 4:
    // correlation accumulation (1 reduction). Kernel 5: variance check
    // (1 reduction). Total: 5 (§VIII).
    add_mean_kernel(&mut kb, "corr_mean", n, false);
    add_mean_kernel(&mut kb, "corr_std", n, true);
    {
        let f = ctx.f32_type();
        let sig = KernelSig::new("corr_center", 2, true)
            .accessor(f.clone(), 2, AccessMode::ReadWrite)
            .accessor(f, 1, AccessMode::Read);
        kb.add_kernel(&sig, |b, args, item| {
            let i = sdev::global_id(b, item, 0);
            let j = sdev::global_id(b, item, 1);
            let d = sdev::load_via_id(b, args[0], &[i, j]);
            let m = sdev::load_via_id(b, args[1], &[j]);
            let c = arith::subf(b, d, m);
            sdev::store_via_id(b, c, args[0], &[i, j]);
        });
    }
    add_pairwise_kernel(&mut kb, "corr_corr", n);
    add_var_kernel(&mut kb, "corr_var", n);

    let mut rng_ = rng(39);
    let mut rt = SyclRuntime::new();
    let data = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let mean = rt.buffer_zeroed(F32, &[n]);
    let sum = rt.buffer_zeroed(F32, &[n]);
    let sumsq = rt.buffer_zeroed(F32, &[n]);
    let corr = rt.buffer_zeroed(F32, &[n, n]);
    let var = rt.buffer_zeroed(F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(data, AccessMode::Read)
            .accessor(mean, AccessMode::ReadWrite);
        h.parallel_for_nd("corr_mean", &[n], &[WG]);
    });
    q.submit(|h| {
        h.accessor(data, AccessMode::Read)
            .accessor(sum, AccessMode::ReadWrite)
            .accessor(sumsq, AccessMode::ReadWrite);
        h.parallel_for_nd("corr_std", &[n], &[WG]);
    });
    q.submit(|h| {
        h.accessor(data, AccessMode::ReadWrite)
            .accessor(mean, AccessMode::Read);
        h.parallel_for_nd("corr_center", &[n, n], &[WG, WG]);
    });
    q.submit(|h| {
        h.accessor(data, AccessMode::Read)
            .accessor(corr, AccessMode::ReadWrite);
        h.parallel_for_nd("corr_corr", &[n, n], &[WG, WG]);
    });
    q.submit(|h| {
        h.accessor(data, AccessMode::Read)
            .accessor(var, AccessMode::ReadWrite);
        h.parallel_for_nd("corr_var", &[n], &[WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        // Host reference of the same pipeline.
        let nn = n as usize;
        let d0 = rt.initial_f32(data);
        let mut mean_ref = vec![0.0_f32; nn];
        for j in 0..nn {
            for i in 0..nn {
                mean_ref[j] += d0[i * nn + j];
            }
            mean_ref[j] /= nn as f32;
        }
        let mut centered = d0;
        for i in 0..nn {
            for j in 0..nn {
                centered[i * nn + j] -= mean_ref[j];
            }
        }
        let mut corr_ref = vec![0.0_f32; nn * nn];
        for i in 0..nn {
            for j in i..nn {
                let mut acc = 0.0_f32;
                for k in 0..nn {
                    acc += centered[k * nn + i] * centered[k * nn + j];
                }
                corr_ref[j * nn + i] = acc;
            }
        }
        check_f32("correlation", rt.read_f32(corr), &corr_ref, 5e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn covariance(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    // mean+sumsq (2 reductions), covariance accumulation (1) and the
    // variance check (1): total 4 (§VIII).
    add_mean_kernel(&mut kb, "cov_mean", n, true);
    add_pairwise_kernel(&mut kb, "cov_cov", n);
    add_var_kernel(&mut kb, "cov_var", n);

    let mut rng_ = rng(40);
    let mut rt = SyclRuntime::new();
    let data = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let mean = rt.buffer_zeroed(F32, &[n]);
    let sumsq = rt.buffer_zeroed(F32, &[n]);
    let cov = rt.buffer_zeroed(F32, &[n, n]);
    let var = rt.buffer_zeroed(F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(data, AccessMode::Read)
            .accessor(mean, AccessMode::ReadWrite)
            .accessor(sumsq, AccessMode::ReadWrite);
        h.parallel_for_nd("cov_mean", &[n], &[WG]);
    });
    q.submit(|h| {
        h.accessor(data, AccessMode::Read)
            .accessor(cov, AccessMode::ReadWrite);
        h.parallel_for_nd("cov_cov", &[n, n], &[WG, WG]);
    });
    q.submit(|h| {
        h.accessor(data, AccessMode::Read)
            .accessor(var, AccessMode::ReadWrite);
        h.parallel_for_nd("cov_var", &[n], &[WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let nn = n as usize;
        let d0 = rt.initial_f32(data);
        let mut cov_ref = vec![0.0_f32; nn * nn];
        for i in 0..nn {
            for j in i..nn {
                let mut acc = 0.0_f32;
                for k in 0..nn {
                    acc += d0[k * nn + i] * d0[k * nn + j];
                }
                cov_ref[j * nn + i] = acc;
            }
        }
        check_f32("covariance", rt.read_f32(cov), &cov_ref, 5e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// Gramschmidt: candidate loop inside a divergent region (§VIII).
// ----------------------------------------------------------------------

fn gramschmidt(n: i64) -> App {
    const STEPS: i64 = 4;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    // Projection-removal step: for columns j > k,
    // A[i][j] -= Σ_l Q[i][l] * R[l][j]; the `j > k` guard is divergent, so
    // loop internalization must skip the loop (the Gramschmidt observation
    // of §VIII).
    let sig = KernelSig::new("gram_update", 2, true)
        .accessor(f.clone(), 2, AccessMode::Read) // Q
        .accessor(f.clone(), 2, AccessMode::Read) // R
        .accessor(f, 2, AccessMode::ReadWrite) // A
        .scalar(ctx.i64_type()); // k
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let index_ty = b.ctx().index_type();
        let k = arith::index_cast(b, args[3], index_ty);
        let active = arith::cmpi(b, "sgt", j, k);
        scf::build_if(
            b,
            active,
            &[],
            |inner| {
                let zero = arith::constant_index(inner, 0);
                let nn = arith::constant_index(inner, n);
                let one = arith::constant_index(inner, 1);
                let f32t = inner.ctx().f32_type();
                let zf = arith::constant_float(inner, 0.0, f32t);
                let proj_loop =
                    affine::build_affine_for(inner, zero, nn, one, &[zf], |body, l, iters| {
                        let qv = sdev::load_via_id(body, args[0], &[i, l]);
                        let rv = sdev::load_via_id(body, args[1], &[l, j]);
                        let prod = arith::mulf(body, qv, rv);
                        let acc = arith::addf(body, iters[0], prod);
                        vec![acc]
                    });
                let proj = inner.module().op_result(proj_loop, 0);
                let a = sdev::load_via_id(inner, args[2], &[i, j]);
                let a2 = arith::subf(inner, a, proj);
                sdev::store_via_id(inner, a2, args[2], &[i, j]);
                vec![]
            },
            |_| vec![],
        );
    });

    let mut rng_ = rng(41);
    let mut rt = SyclRuntime::new();
    let qbuf = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let rbuf = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    // `abuf` is updated in place: the reference starts from its initial
    // elements, generated again.
    let abuf = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let mut q = Queue::new();
    for k in 0..STEPS {
        q.submit(|h| {
            h.accessor(qbuf, AccessMode::Read)
                .accessor(rbuf, AccessMode::Read)
                .accessor(abuf, AccessMode::ReadWrite)
                .scalar_i64(k);
            h.parallel_for_nd("gram_update", &[n, n], &[WG, WG]);
        });
    }
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let nn = n as usize;
        let (qv, rv) = (rt.initial_f32(qbuf), rt.initial_f32(rbuf));
        let mut want = rt.initial_f32(abuf);
        for k in 0..STEPS as usize {
            let prev = want.clone();
            for i in 0..nn {
                for j in 0..nn {
                    if j > k {
                        let mut proj = 0.0_f32;
                        for l in 0..nn {
                            proj += qv[i * nn + l] * rv[l * nn + j];
                        }
                        want[i * nn + j] = prev[i * nn + j] - proj;
                    }
                }
            }
        }
        check_f32("gramschmidt", rt.read_f32(abuf), &want, 5e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// 2D Convolution / FDTD2D / 3D Convolution: stencil-style polybench.
// ----------------------------------------------------------------------

fn conv2d(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("conv2d", 2, true)
        .accessor(f.clone(), 2, AccessMode::Read)
        .accessor(f, 2, AccessMode::Write);
    // 3x3 taps as constants (the polybench c11..c33 coefficients).
    const C: [f64; 9] = [0.2, 0.5, -0.8, -0.3, 0.6, -0.9, 0.4, 0.7, 0.1];
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let one = arith::constant_index(b, 1);
        let nn = arith::constant_index(b, n);
        let hi = arith::subi(b, nn, one);
        let ge0 = arith::cmpi(b, "sge", i, one);
        let lt0 = arith::cmpi(b, "slt", i, hi);
        let ge1 = arith::cmpi(b, "sge", j, one);
        let lt1 = arith::cmpi(b, "slt", j, hi);
        let c01 = b.build_value("arith.andi", &[ge0, lt0], b.ctx().i1_type(), vec![]);
        let c23 = b.build_value("arith.andi", &[ge1, lt1], b.ctx().i1_type(), vec![]);
        let interior = b.build_value("arith.andi", &[c01, c23], b.ctx().i1_type(), vec![]);
        scf::build_if(
            b,
            interior,
            &[],
            |inner| {
                let f32t = inner.ctx().f32_type();
                let mut acc = arith::constant_float(inner, 0.0, f32t.clone());
                for (t, &w) in C.iter().enumerate() {
                    let di = (t as i64) / 3 - 1;
                    let dj = (t as i64) % 3 - 1;
                    let od = arith::constant_index(inner, di);
                    let oi = arith::addi(inner, i, od);
                    let od2 = arith::constant_index(inner, dj);
                    let oj = arith::addi(inner, j, od2);
                    let v = sdev::load_via_id(inner, args[0], &[oi, oj]);
                    let wc = arith::constant_float(inner, w, f32t.clone());
                    let prod = arith::mulf(inner, v, wc);
                    acc = arith::addf(inner, acc, prod);
                }
                sdev::store_via_id(inner, acc, args[1], &[i, j]);
                vec![]
            },
            |_| vec![],
        );
    });

    let mut rng_ = rng(42);
    let mut rt = SyclRuntime::new();
    let len = (n * n) as usize;
    let input = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let output = rt.buffer_zeroed(F32, &[n, n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(input, AccessMode::Read)
            .accessor(output, AccessMode::Write);
        h.parallel_for_nd("conv2d", &[n, n], &[WG, WG]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let nn = n as usize;
        let inp = rt.initial_f32(input);
        let mut want = vec![0.0_f32; len];
        for i in 1..nn - 1 {
            for j in 1..nn - 1 {
                let mut acc = 0.0_f32;
                for (t, &w) in C.iter().enumerate() {
                    let di = t / 3;
                    let dj = t % 3;
                    acc += inp[(i + di - 1) * nn + (j + dj - 1)] * w as f32;
                }
                want[i * nn + j] = acc;
            }
        }
        check_f32("conv2d", rt.read_f32(output), &want, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn fdtd2d(n: i64) -> App {
    const TMAX: i64 = 8;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    // ey[i][j] -= 0.5*(hz[i][j] - hz[i-1][j]) for i>0
    {
        let sig = KernelSig::new("fdtd_ey", 2, true)
            .accessor(f.clone(), 2, AccessMode::ReadWrite)
            .accessor(f.clone(), 2, AccessMode::Read);
        kb.add_kernel(&sig, |b, args, item| {
            let i = sdev::global_id(b, item, 0);
            let j = sdev::global_id(b, item, 1);
            let zero = arith::constant_index(b, 0);
            let inner_cond = arith::cmpi(b, "sgt", i, zero);
            scf::build_if(
                b,
                inner_cond,
                &[],
                |inner| {
                    let one = arith::constant_index(inner, 1);
                    let im1 = arith::subi(inner, i, one);
                    let hz0 = sdev::load_via_id(inner, args[1], &[i, j]);
                    let hz1 = sdev::load_via_id(inner, args[1], &[im1, j]);
                    let d = arith::subf(inner, hz0, hz1);
                    let f32t = inner.ctx().f32_type();
                    let half = arith::constant_float(inner, 0.5, f32t);
                    let hd = arith::mulf(inner, half, d);
                    let ey = sdev::load_via_id(inner, args[0], &[i, j]);
                    let ey2 = arith::subf(inner, ey, hd);
                    sdev::store_via_id(inner, ey2, args[0], &[i, j]);
                    vec![]
                },
                |_| vec![],
            );
        });
    }
    // hz[i][j] -= 0.7*(ey[i+1][j] - ey[i][j]) for interior
    {
        let sig = KernelSig::new("fdtd_hz", 2, true)
            .accessor(f.clone(), 2, AccessMode::ReadWrite)
            .accessor(f.clone(), 2, AccessMode::Read);
        kb.add_kernel(&sig, |b, args, item| {
            let i = sdev::global_id(b, item, 0);
            let j = sdev::global_id(b, item, 1);
            let one = arith::constant_index(b, 1);
            let nn = arith::constant_index(b, n);
            let hi = arith::subi(b, nn, one);
            let c = arith::cmpi(b, "slt", i, hi);
            scf::build_if(
                b,
                c,
                &[],
                |inner| {
                    let one2 = arith::constant_index(inner, 1);
                    let ip1 = arith::addi(inner, i, one2);
                    let e0 = sdev::load_via_id(inner, args[1], &[ip1, j]);
                    let e1 = sdev::load_via_id(inner, args[1], &[i, j]);
                    let d = arith::subf(inner, e0, e1);
                    let f32t = inner.ctx().f32_type();
                    let c7 = arith::constant_float(inner, 0.7, f32t);
                    let hd = arith::mulf(inner, c7, d);
                    let hz = sdev::load_via_id(inner, args[0], &[i, j]);
                    let hz2 = arith::subf(inner, hz, hd);
                    sdev::store_via_id(inner, hz2, args[0], &[i, j]);
                    vec![]
                },
                |_| vec![],
            );
        });
    }

    let mut rng_ = rng(43);
    let mut rt = SyclRuntime::new();
    // Both fields are updated in place: the reference starts from their
    // initial elements, generated again.
    let ey = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let hz = seeded_rand(&mut rt, &mut rng_, F32, &[n, n]);
    let mut q = Queue::new();
    for _t in 0..TMAX {
        q.submit(|h| {
            h.accessor(ey, AccessMode::ReadWrite)
                .accessor(hz, AccessMode::Read);
            h.parallel_for_nd("fdtd_ey", &[n, n], &[WG, WG]);
        });
        q.submit(|h| {
            h.accessor(hz, AccessMode::ReadWrite)
                .accessor(ey, AccessMode::Read);
            h.parallel_for_nd("fdtd_hz", &[n, n], &[WG, WG]);
        });
    }
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let nn = n as usize;
        let mut ey_ref = rt.initial_f32(ey);
        let mut hz_ref = rt.initial_f32(hz);
        for _t in 0..TMAX {
            for i in 1..nn {
                for j in 0..nn {
                    ey_ref[i * nn + j] -= 0.5 * (hz_ref[i * nn + j] - hz_ref[(i - 1) * nn + j]);
                }
            }
            for i in 0..nn - 1 {
                for j in 0..nn {
                    hz_ref[i * nn + j] -= 0.7 * (ey_ref[(i + 1) * nn + j] - ey_ref[i * nn + j]);
                }
            }
        }
        check_f32("fdtd.ey", rt.read_f32(ey), &ey_ref, 1e-2)?;
        check_f32("fdtd.hz", rt.read_f32(hz), &hz_ref, 1e-2)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

fn conv3d(n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("conv3d", 3, true)
        .accessor(f.clone(), 3, AccessMode::Read)
        .accessor(f, 3, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::global_id(b, item, 0);
        let j = sdev::global_id(b, item, 1);
        let k = sdev::global_id(b, item, 2);
        let one = arith::constant_index(b, 1);
        let nn = arith::constant_index(b, n);
        let hi = arith::subi(b, nn, one);
        let mut conds = Vec::new();
        for v in [i, j, k] {
            conds.push(arith::cmpi(b, "sge", v, one));
            conds.push(arith::cmpi(b, "slt", v, hi));
        }
        let mut interior = conds[0];
        for &c in &conds[1..] {
            interior = b.build_value("arith.andi", &[interior, c], b.ctx().i1_type(), vec![]);
        }
        scf::build_if(
            b,
            interior,
            &[],
            |inner| {
                let f32t = inner.ctx().f32_type();
                let one2 = arith::constant_index(inner, 1);
                let im1 = arith::subi(inner, i, one2);
                let ip1 = arith::addi(inner, i, one2);
                let c2 = arith::constant_float(inner, 2.0, f32t.clone());
                let center = sdev::load_via_id(inner, args[0], &[i, j, k]);
                let down = sdev::load_via_id(inner, args[0], &[im1, j, k]);
                let up = sdev::load_via_id(inner, args[0], &[ip1, j, k]);
                let s = arith::addf(inner, down, up);
                let cc = arith::mulf(inner, c2, center);
                let out = arith::subf(inner, s, cc);
                sdev::store_via_id(inner, out, args[1], &[i, j, k]);
                vec![]
            },
            |_| vec![],
        );
    });

    let mut rng_ = rng(44);
    let mut rt = SyclRuntime::new();
    let len = (n * n * n) as usize;
    let input = seeded_rand(&mut rt, &mut rng_, F32, &[n, n, n]);
    let output = rt.buffer_zeroed(F32, &[n, n, n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(input, AccessMode::Read)
            .accessor(output, AccessMode::Write);
        h.parallel_for_nd("conv3d", &[n, n, n], &[4, 4, 4]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let nn = n as usize;
        let inp = rt.initial_f32(input);
        let at = |a: usize, b2: usize, c: usize| inp[(a * nn + b2) * nn + c];
        let mut want = vec![0.0_f32; len];
        for i in 1..nn - 1 {
            for j in 1..nn - 1 {
                for k in 1..nn - 1 {
                    want[(i * nn + j) * nn + k] =
                        at(i - 1, j, k) + at(i + 1, j, k) - 2.0 * at(i, j, k);
                }
            }
        }
        check_f32("conv3d", rt.read_f32(output), &want, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}
