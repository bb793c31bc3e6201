//! The `single-kernel` category of SYCL-Bench (Fig. 2 of the paper):
//! real-world kernels from image processing, molecular dynamics, machine
//! learning and linear algebra, in the data-type variants the figure plots.

use crate::util::*;
use crate::{App, Category, ValidateFn, WorkloadSpec};
use sycl_mlir_dialects::{arith, math, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_ir::{Builder, Type, ValueId};
use sycl_mlir_runtime::{hostgen::generate_host_ir, Queue, SyclRuntime};
use sycl_mlir_sim::{DataVec, Dtype};
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

/// The MLIR element type of a workload variant's data type.
fn elem_ty(dt: Dtype, ctx: &sycl_mlir_ir::Context) -> Type {
    match dt {
        Dtype::F32 => ctx.f32_type(),
        Dtype::F64 => ctx.f64_type(),
        Dtype::I32 => ctx.i32_type(),
        Dtype::I64 => ctx.i64_type(),
    }
}

fn is_float(dt: Dtype) -> bool {
    matches!(dt, Dtype::F32 | Dtype::F64)
}

/// All Fig. 2 workloads in figure order.
pub fn workloads() -> Vec<WorkloadSpec> {
    fn spec(name: &'static str, paper: i64, scaled: i64, build: fn(i64) -> App) -> WorkloadSpec {
        WorkloadSpec {
            name,
            category: Category::SingleKernel,
            paper_size: paper,
            scaled_size: scaled,
            acpp_fails: false,
            in_figure: true,
            build,
        }
    }
    vec![
        spec("KMeans (float32)", 1 << 20, 8192, |n| kmeans(Dtype::F32, n)),
        spec("KMeans (float64)", 1 << 20, 8192, |n| kmeans(Dtype::F64, n)),
        spec("LinReg (float32)", 65_536, 8192, |n| linreg(Dtype::F32, n)),
        spec("LinReg (float64)", 65_536, 8192, |n| linreg(Dtype::F64, n)),
        spec("LinReg Coeff. (float32)", 1 << 20, 8192, |n| {
            linreg_coeff(Dtype::F32, n)
        }),
        spec("LinReg Coeff. (float64)", 1 << 20, 8192, |n| {
            linreg_coeff(Dtype::F64, n)
        }),
        spec("MolDyn", 1 << 20, 2048, moldyn),
        spec("NBody (float32)", 1024, 256, |n| nbody(Dtype::F32, n)),
        spec("NBody (float64)", 1024, 256, |n| nbody(Dtype::F64, n)),
        spec("ScalProd (float32)", 1 << 20, 16_384, |n| {
            scalprod(Dtype::F32, n)
        }),
        spec("ScalProd (float64)", 1 << 20, 16_384, |n| {
            scalprod(Dtype::F64, n)
        }),
        spec("ScalProd (int32)", 1 << 20, 16_384, |n| {
            scalprod(Dtype::I32, n)
        }),
        spec("ScalProd (int64)", 1 << 20, 16_384, |n| {
            scalprod(Dtype::I64, n)
        }),
        spec("Sobel3", 512, 64, |n| sobel(3, n)),
        spec("Sobel5", 512, 64, |n| sobel(5, n)),
        spec("Sobel7", 512, 64, |n| sobel(7, n)),
        spec("VecAdd (float32)", 1 << 20, 16_384, |n| {
            vecadd(Dtype::F32, n)
        }),
        spec("VecAdd (float64)", 1 << 20, 16_384, |n| {
            vecadd(Dtype::F64, n)
        }),
        spec("VecAdd (int32)", 1 << 20, 16_384, |n| vecadd(Dtype::I32, n)),
        spec("VecAdd (int64)", 1 << 20, 16_384, |n| vecadd(Dtype::I64, n)),
    ]
}

fn add(b: &mut Builder<'_>, dt: Dtype, l: ValueId, r: ValueId) -> ValueId {
    if is_float(dt) {
        arith::addf(b, l, r)
    } else {
        arith::addi(b, l, r)
    }
}

fn mul(b: &mut Builder<'_>, dt: Dtype, l: ValueId, r: ValueId) -> ValueId {
    if is_float(dt) {
        arith::mulf(b, l, r)
    } else {
        arith::muli(b, l, r)
    }
}

// ----------------------------------------------------------------------
// VecAdd: c[i] = a[i] + b[i]
// ----------------------------------------------------------------------

fn vecadd(dt: Dtype, n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let elem = elem_ty(dt, &ctx);
    let sig = KernelSig::new("vecadd", 1, false)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let va = sdev::load_via_id(b, args[0], &[gid]);
        let vb = sdev::load_via_id(b, args[1], &[gid]);
        let sum = add(b, dt, va, vb);
        sdev::store_via_id(b, sum, args[2], &[gid]);
    });

    let mut rng = rng(11);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let b_ = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let c = rt.buffer_zeroed(dt, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(b_, AccessMode::Read)
            .accessor(c, AccessMode::Write);
        h.parallel_for("vecadd", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = match dt {
        Dtype::F32 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_f32(a), rt.initial_f32(b_));
            let want: Vec<f32> = av.iter().zip(&bv).map(|(x, y)| x + y).collect();
            check_f32("vecadd", rt.read_f32(c), &want, 1e-5)
        }),
        Dtype::F64 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_f64(a), rt.initial_f64(b_));
            let want: Vec<f64> = av.iter().zip(&bv).map(|(x, y)| x + y).collect();
            check_f64("vecadd", rt.read_f64(c), &want, 1e-12)
        }),
        Dtype::I32 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_i32(a), rt.initial_i32(b_));
            let want: Vec<i32> = av.iter().zip(&bv).map(|(x, y)| x + y).collect();
            check_exact("vecadd", rt.read_i32(c), &want)
        }),
        Dtype::I64 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_i64(a), rt.initial_i64(b_));
            let want: Vec<i64> = av.iter().zip(&bv).map(|(x, y)| x + y).collect();
            check_exact("vecadd", rt.read_i64(c), &want)
        }),
    };
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// ScalProd: partial products out[i] = a[i]*b[i]; host reduces.
// ----------------------------------------------------------------------

fn scalprod(dt: Dtype, n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let elem = elem_ty(dt, &ctx);
    let sig = KernelSig::new("scalprod", 1, false)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let va = sdev::load_via_id(b, args[0], &[gid]);
        let vb = sdev::load_via_id(b, args[1], &[gid]);
        let p = mul(b, dt, va, vb);
        sdev::store_via_id(b, p, args[2], &[gid]);
    });

    let mut rng = rng(12);
    let mut rt = SyclRuntime::new();
    let a = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let b_ = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let c = rt.buffer_zeroed(dt, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(a, AccessMode::Read)
            .accessor(b_, AccessMode::Read)
            .accessor(c, AccessMode::Write);
        h.parallel_for("scalprod", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = match dt {
        Dtype::F32 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_f32(a), rt.initial_f32(b_));
            let want: f64 = av.iter().zip(&bv).map(|(x, y)| (x * y) as f64).sum();
            let got: f64 = rt.read_f32(c).iter().map(|&v| v as f64).sum();
            if (got - want).abs() > 1e-2 * want.abs().max(1.0) {
                return Err(format!("scalprod: got {got}, want {want}"));
            }
            Ok(())
        }),
        Dtype::F64 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_f64(a), rt.initial_f64(b_));
            let want: f64 = av.iter().zip(&bv).map(|(x, y)| x * y).sum();
            let got: f64 = rt.read_f64(c).iter().sum();
            if (got - want).abs() > 1e-9 * want.abs().max(1.0) {
                return Err(format!("scalprod: got {got}, want {want}"));
            }
            Ok(())
        }),
        Dtype::I32 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_i32(a), rt.initial_i32(b_));
            let want: i64 = (av.iter().zip(&bv))
                .map(|(x, y)| (*x as i64) * (*y as i64))
                .sum();
            // The device multiplies in i32 (wrapping), like the C++.
            let got: i64 = rt.read_i32(c).iter().map(|&v| v as i64).sum();
            if got != want {
                return Err(format!("scalprod: got {got}, want {want}"));
            }
            Ok(())
        }),
        Dtype::I64 => Box::new(move |rt| {
            let (av, bv) = (rt.initial_i64(a), rt.initial_i64(b_));
            let want: i64 = av.iter().zip(&bv).map(|(x, y)| x * y).sum();
            let got: i64 = rt.read_i64(c).iter().sum();
            if got != want {
                return Err(format!("scalprod: got {got}, want {want}"));
            }
            Ok(())
        }),
    };
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// LinReg: error[i] = (alpha*x[i] + beta - y[i])^2
// ----------------------------------------------------------------------

fn linreg(dt: Dtype, n: i64) -> App {
    let (alpha, beta) = (1.5_f64, -0.5_f64);
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let elem = elem_ty(dt, &ctx);
    let sig = KernelSig::new("linreg", 1, false)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem.clone(), 1, AccessMode::Write)
        .scalar(elem.clone())
        .scalar(elem);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let x = sdev::load_via_id(b, args[0], &[gid]);
        let y = sdev::load_via_id(b, args[1], &[gid]);
        let ax = arith::mulf(b, args[3], x);
        let pred = arith::addf(b, ax, args[4]);
        let e = arith::subf(b, pred, y);
        let e2 = arith::mulf(b, e, e);
        sdev::store_via_id(b, e2, args[2], &[gid]);
    });

    let mut rng = rng(13);
    let mut rt = SyclRuntime::new();
    let x = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let y = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let e = rt.buffer_zeroed(dt, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(x, AccessMode::Read)
            .accessor(y, AccessMode::Read)
            .accessor(e, AccessMode::Write);
        match dt {
            Dtype::F32 => {
                h.scalar_f32(alpha as f32).scalar_f32(beta as f32);
            }
            _ => {
                h.scalar_f64(alpha).scalar_f64(beta);
            }
        }
        h.parallel_for("linreg", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = match dt {
        Dtype::F32 => Box::new(move |rt| {
            let (xv, yv) = (rt.initial_f32(x), rt.initial_f32(y));
            let want: Vec<f32> = (xv.iter().zip(&yv))
                .map(|(x, y)| {
                    let e = alpha as f32 * x + beta as f32 - y;
                    e * e
                })
                .collect();
            check_f32("linreg", rt.read_f32(e), &want, 1e-4)
        }),
        _ => Box::new(move |rt| {
            let (xv, yv) = (rt.initial_f64(x), rt.initial_f64(y));
            let want: Vec<f64> = (xv.iter().zip(&yv))
                .map(|(x, y)| {
                    let err = alpha * x + beta - y;
                    err * err
                })
                .collect();
            check_f64("linreg", rt.read_f64(e), &want, 1e-10)
        }),
    };
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// LinReg Coeff.: partial sums for the regression coefficients.
// ----------------------------------------------------------------------

fn linreg_coeff(dt: Dtype, n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let elem = elem_ty(dt, &ctx);
    let sig = KernelSig::new("linreg_coeff", 1, false)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem.clone(), 1, AccessMode::Read)
        .accessor(elem.clone(), 1, AccessMode::Write)
        .accessor(elem, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let x = sdev::load_via_id(b, args[0], &[gid]);
        let y = sdev::load_via_id(b, args[1], &[gid]);
        let xy = arith::mulf(b, x, y);
        let xx = arith::mulf(b, x, x);
        sdev::store_via_id(b, xy, args[2], &[gid]);
        sdev::store_via_id(b, xx, args[3], &[gid]);
    });

    let mut rng = rng(14);
    let mut rt = SyclRuntime::new();
    let x = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let y = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let xy = rt.buffer_zeroed(dt, &[n]);
    let xx = rt.buffer_zeroed(dt, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(x, AccessMode::Read)
            .accessor(y, AccessMode::Read)
            .accessor(xy, AccessMode::Write)
            .accessor(xx, AccessMode::Write);
        h.parallel_for("linreg_coeff", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = match dt {
        Dtype::F32 => Box::new(move |rt| {
            let (xv, yv) = (rt.initial_f32(x), rt.initial_f32(y));
            let wxy: Vec<f32> = xv.iter().zip(&yv).map(|(a, b)| a * b).collect();
            check_f32("xy", rt.read_f32(xy), &wxy, 1e-5)?;
            let wxx: Vec<f32> = xv.iter().map(|a| a * a).collect();
            check_f32("xx", rt.read_f32(xx), &wxx, 1e-5)
        }),
        _ => Box::new(move |rt| {
            let (xv, yv) = (rt.initial_f64(x), rt.initial_f64(y));
            let wxy: Vec<f64> = xv.iter().zip(&yv).map(|(a, b)| a * b).collect();
            check_f64("xy", rt.read_f64(xy), &wxy, 1e-12)?;
            let wxx: Vec<f64> = xv.iter().map(|a| a * a).collect();
            check_f64("xx", rt.read_f64(xx), &wxx, 1e-12)
        }),
    };
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// KMeans assignment step: nearest of K centroids (2-d points).
// ----------------------------------------------------------------------

fn kmeans(dt: Dtype, n: i64) -> App {
    const K: i64 = 4;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let elem = elem_ty(dt, &ctx);
    let sig = KernelSig::new("kmeans", 1, false)
        .accessor(elem.clone(), 1, AccessMode::Read) // px
        .accessor(elem.clone(), 1, AccessMode::Read) // py
        .accessor(elem.clone(), 1, AccessMode::Read) // cx
        .accessor(elem.clone(), 1, AccessMode::Read) // cy
        .accessor(elem, 1, AccessMode::Write); // best distance
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let px = sdev::load_via_id(b, args[0], &[gid]);
        let py = sdev::load_via_id(b, args[1], &[gid]);
        let zero = arith::constant_index(b, 0);
        let k = arith::constant_index(b, K);
        let one = arith::constant_index(b, 1);
        let elem_ty = b.module().value_type(px).clone();
        let big = arith::constant_float(b, 1e30, elem_ty);
        let loop_op = scf::build_for(b, zero, k, one, &[big], |inner, kv, iters| {
            let cx = sdev::load_via_id(inner, args[2], &[kv]);
            let cy = sdev::load_via_id(inner, args[3], &[kv]);
            let dx = arith::subf(inner, px, cx);
            let dy = arith::subf(inner, py, cy);
            let dx2 = arith::mulf(inner, dx, dx);
            let dy2 = arith::mulf(inner, dy, dy);
            let d = arith::addf(inner, dx2, dy2);
            let best = arith::minf(inner, iters[0], d);
            vec![best]
        });
        let best = b.module().op_result(loop_op, 0);
        sdev::store_via_id(b, best, args[4], &[gid]);
    });

    let mut rng = rng(15);
    let mut rt = SyclRuntime::new();
    let px = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let py = seeded_rand(&mut rt, &mut rng, dt, &[n]);
    let cx = seeded_rand(&mut rt, &mut rng, dt, &[K]);
    let cy = seeded_rand(&mut rt, &mut rng, dt, &[K]);
    let out = rt.buffer_zeroed(dt, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(px, AccessMode::Read)
            .accessor(py, AccessMode::Read)
            .accessor(cx, AccessMode::Read)
            .accessor(cy, AccessMode::Read)
            .accessor(out, AccessMode::Write);
        h.parallel_for("kmeans", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = match dt {
        Dtype::F32 => Box::new(move |rt| {
            let (pxv, pyv) = (rt.initial_f32(px), rt.initial_f32(py));
            let (cxv, cyv) = (rt.initial_f32(cx), rt.initial_f32(cy));
            let want: Vec<f32> = (0..n as usize)
                .map(|i| {
                    (0..K as usize)
                        .map(|k| {
                            let dx = pxv[i] - cxv[k];
                            let dy = pyv[i] - cyv[k];
                            dx * dx + dy * dy
                        })
                        .fold(1e30_f32, f32::min)
                })
                .collect();
            check_f32("kmeans", rt.read_f32(out), &want, 1e-4)
        }),
        _ => Box::new(move |rt| {
            let (pxv, pyv) = (rt.initial_f64(px), rt.initial_f64(py));
            let (cxv, cyv) = (rt.initial_f64(cx), rt.initial_f64(cy));
            let want: Vec<f64> = (0..n as usize)
                .map(|i| {
                    (0..K as usize)
                        .map(|k| {
                            let dx = pxv[i] - cxv[k];
                            let dy = pyv[i] - cyv[k];
                            dx * dx + dy * dy
                        })
                        .fold(1e30_f64, f64::min)
                })
                .collect();
            check_f64("kmeans", rt.read_f64(out), &want, 1e-10)
        }),
    };
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// MolDyn: Lennard-Jones-flavoured force over a fixed neighbour list.
// ----------------------------------------------------------------------

fn moldyn(n: i64) -> App {
    const NEIGHBORS: i64 = 16;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("moldyn", 1, false)
        .accessor(f.clone(), 1, AccessMode::Read) // positions
        .accessor(ctx.i32_type(), 1, AccessMode::Read) // neighbour list
        .accessor(f, 1, AccessMode::Write); // forces
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let xi = sdev::load_via_id(b, args[0], &[gid]);
        let zero = arith::constant_index(b, 0);
        let nn = arith::constant_index(b, NEIGHBORS);
        let one = arith::constant_index(b, 1);
        let f32t = b.ctx().f32_type();
        let zero_f = arith::constant_float(b, 0.0, f32t);
        let nl = arith::constant_index(b, NEIGHBORS);
        let base = arith::muli(b, gid, nl);
        let loop_op = scf::build_for(b, zero, nn, one, &[zero_f], |inner, kv, iters| {
            let slot = arith::addi(inner, base, kv);
            let j32 = sdev::load_via_id(inner, args[1], &[slot]);
            let index_ty = inner.ctx().index_type();
            let j = arith::index_cast(inner, j32, index_ty);
            let xj = sdev::load_via_id(inner, args[0], &[j]);
            let dx = arith::subf(inner, xj, xi);
            let dx2 = inner_dx2(inner, dx);
            let r = math::sqrt(inner, dx2);
            let force = arith::addf(inner, iters[0], r);
            vec![force]
        });
        let total = b.module().op_result(loop_op, 0);
        sdev::store_via_id(b, total, args[2], &[gid]);
    });

    fn inner_dx2(b: &mut Builder<'_>, dx: ValueId) -> ValueId {
        let f32t = b.ctx().f32_type();
        let eps = arith::constant_float(b, 0.01, f32t);
        let sq = arith::mulf(b, dx, dx);
        arith::addf(b, sq, eps)
    }

    let mut rng_ = rng(16);
    let mut rt = SyclRuntime::new();
    let pos = seeded_rand(&mut rt, &mut rng_, Dtype::F32, &[n]);
    let neigh = seeded_indices(&mut rt, &mut rng_, n * NEIGHBORS, n);
    let force = rt.buffer_zeroed(Dtype::F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(pos, AccessMode::Read)
            .accessor(neigh, AccessMode::Read)
            .accessor(force, AccessMode::Write);
        h.parallel_for("moldyn", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let (posv, neigh_data) = (rt.initial_f32(pos), rt.initial_i32(neigh));
        let want: Vec<f32> = (0..n as usize)
            .map(|i| {
                (0..NEIGHBORS as usize)
                    .map(|k| {
                        let j = neigh_data[i * NEIGHBORS as usize + k] as usize;
                        let dx = posv[j] - posv[i];
                        (dx * dx + 0.01).sqrt()
                    })
                    .sum()
            })
            .collect();
        check_f32("moldyn", rt.read_f32(force), &want, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// NBody: all-pairs gravity-flavoured acceleration.
// ----------------------------------------------------------------------

fn nbody(dt: Dtype, n: i64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let elem = elem_ty(dt, &ctx);
    let sig = KernelSig::new("nbody", 1, false)
        .accessor(elem.clone(), 1, AccessMode::Read) // x
        .accessor(elem.clone(), 1, AccessMode::Read) // mass
        .accessor(elem, 1, AccessMode::Write); // acceleration
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let xi = sdev::load_via_id(b, args[0], &[gid]);
        let zero = arith::constant_index(b, 0);
        let count = sdev::item_get_range(b, item, 0);
        let one = arith::constant_index(b, 1);
        let elem_ty = b.module().value_type(xi).clone();
        let zero_f = arith::constant_float(b, 0.0, elem_ty.clone());
        let soft = arith::constant_float(b, 0.001, elem_ty);
        let loop_op = scf::build_for(b, zero, count, one, &[zero_f], |inner, j, iters| {
            let xj = sdev::load_via_id(inner, args[0], &[j]);
            let mj = sdev::load_via_id(inner, args[1], &[j]);
            let dx = arith::subf(inner, xj, xi);
            let d2 = arith::mulf(inner, dx, dx);
            let d2s = arith::addf(inner, d2, soft);
            let r = math::sqrt(inner, d2s);
            let r3 = arith::mulf(inner, d2s, r);
            let contrib0 = arith::mulf(inner, mj, dx);
            let contrib = arith::divf(inner, contrib0, r3);
            let acc = arith::addf(inner, iters[0], contrib);
            vec![acc]
        });
        let acc = b.module().op_result(loop_op, 0);
        sdev::store_via_id(b, acc, args[2], &[gid]);
    });

    let mut rng_ = rng(17);
    let mut rt = SyclRuntime::new();
    let x = seeded_rand(&mut rt, &mut rng_, dt, &[n]);
    // Masses are positive: |u| + 0.1 of a uniform draw.
    let len = n as usize;
    let mass = seeded(&mut rt, &mut rng_, dt, &[n], len, move |r| {
        match rand(r, dt, len) {
            DataVec::F32(v) => DataVec::F32(v.iter().map(|v| v.abs() + 0.1).collect()),
            DataVec::F64(v) => DataVec::F64(v.iter().map(|v| v.abs() + 0.1).collect()),
            _ => unreachable!("NBody is registered for floating-point dtypes"),
        }
    });
    let acc = rt.buffer_zeroed(dt, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(x, AccessMode::Read)
            .accessor(mass, AccessMode::Read)
            .accessor(acc, AccessMode::Write);
        h.parallel_for("nbody", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = match dt {
        Dtype::F32 => Box::new(move |rt| {
            let (xv, mv) = (rt.initial_f32(x), rt.initial_f32(mass));
            let want: Vec<f32> = (0..n as usize)
                .map(|i| {
                    (0..n as usize)
                        .map(|j| {
                            let dx = xv[j] - xv[i];
                            let d2s = dx * dx + 0.001;
                            let r = d2s.sqrt();
                            mv[j] * dx / (d2s * r)
                        })
                        .sum()
                })
                .collect();
            check_f32("nbody", rt.read_f32(acc), &want, 1e-2)
        }),
        _ => Box::new(move |rt| {
            let (xv, mv) = (rt.initial_f64(x), rt.initial_f64(mass));
            let want: Vec<f64> = (0..n as usize)
                .map(|i| {
                    (0..n as usize)
                        .map(|j| {
                            let dx = xv[j] - xv[i];
                            let d2s = dx * dx + 0.001;
                            let r = d2s.sqrt();
                            mv[j] * dx / (d2s * r)
                        })
                        .sum()
                })
                .collect();
            check_f64("nbody", rt.read_f64(acc), &want, 1e-9)
        }),
    };
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// Sobel3/5/7: image convolution with a `const` filter — the Sobel7
// host→device constant-propagation showcase of §VIII.
// ----------------------------------------------------------------------

fn sobel(taps: i64, n: i64) -> App {
    let r = taps / 2;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let kernel_name = match taps {
        3 => "sobel3",
        5 => "sobel5",
        _ => "sobel7",
    };
    let sig = KernelSig::new(kernel_name, 2, false)
        .accessor(f.clone(), 2, AccessMode::Read) // image
        .accessor(f.clone(), 2, AccessMode::Read) // filter (const data)
        .accessor(f, 2, AccessMode::Write); // output
    kb.add_kernel(&sig, |b, args, item| {
        let i = sdev::item_get_id(b, item, 0);
        let j = sdev::item_get_id(b, item, 1);
        let n625 = sdev::item_get_range(b, item, 0);
        let rr = arith::constant_index(b, r);
        let hi = arith::subi(b, n625, rr);
        let ge0 = arith::cmpi(b, "sge", i, rr);
        let lt0 = arith::cmpi(b, "slt", i, hi);
        let ge1 = arith::cmpi(b, "sge", j, rr);
        let lt1 = arith::cmpi(b, "slt", j, hi);
        let c01 = b.build_value("arith.andi", &[ge0, lt0], b.ctx().i1_type(), vec![]);
        let c23 = b.build_value("arith.andi", &[ge1, lt1], b.ctx().i1_type(), vec![]);
        let interior = b.build_value("arith.andi", &[c01, c23], b.ctx().i1_type(), vec![]);
        let f32t = b.ctx().f32_type();
        scf::build_if(
            b,
            interior,
            &[],
            |inner| {
                let zero = arith::constant_index(inner, 0);
                let t = arith::constant_index(inner, taps);
                let one = arith::constant_index(inner, 1);
                let zf = arith::constant_float(inner, 0.0, inner.ctx().f32_type());
                let outer = scf::build_for(inner, zero, t, one, &[zf], |l1, fi, it1| {
                    let acc_loop = scf::build_for(l1, zero, t, one, &[it1[0]], |l2, fj, it2| {
                        let rr2 = arith::constant_index(l2, r);
                        let oi0 = arith::addi(l2, i, fi);
                        let oi = arith::subi(l2, oi0, rr2);
                        let oj0 = arith::addi(l2, j, fj);
                        let oj = arith::subi(l2, oj0, rr2);
                        let pix = sdev::load_via_id(l2, args[0], &[oi, oj]);
                        let w = sdev::load_via_id(l2, args[1], &[fi, fj]);
                        let prod = arith::mulf(l2, pix, w);
                        let acc = arith::addf(l2, it2[0], prod);
                        vec![acc]
                    });
                    let acc = l1.module().op_result(acc_loop, 0);
                    vec![acc]
                });
                let total = inner.module().op_result(outer, 0);
                sdev::store_via_id(inner, total, args[2], &[i, j]);
                vec![]
            },
            |inner| {
                let zf = arith::constant_float(inner, 0.0, f32t.clone());
                sdev::store_via_id(inner, zf, args[2], &[i, j]);
                vec![]
            },
        );
    });

    let mut rng_ = rng(18 + taps as u64);
    let mut rt = SyclRuntime::new();
    let image = seeded_rand(&mut rt, &mut rng_, Dtype::F32, &[n, n]);
    // The filter is a `const float[]` in the host source: candidate for
    // constant propagation (§VII-B / §VIII "Sobel filter declared as a
    // constant array"), so it is given, not seeded — host IR generation
    // bakes it into the IR.
    let filter = rt.buffer_const_f32(sobel_filter(taps), &[taps, taps]);
    let out = rt.buffer_zeroed(Dtype::F32, &[n, n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(image, AccessMode::Read)
            .accessor(filter, AccessMode::Read)
            .accessor(out, AccessMode::Write);
        h.parallel_for(kernel_name, &[n, n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let (img, filter_data) = (rt.initial_f32(image), sobel_filter(taps));
        let want: Vec<f32> = (0..n as usize)
            .flat_map(|i| {
                let img = &img;
                let filter_data = &filter_data;
                (0..n as usize).map(move |j| {
                    let interior = i >= r as usize
                        && i < (n - r) as usize
                        && j >= r as usize
                        && j < (n - r) as usize;
                    if !interior {
                        return 0.0;
                    }
                    let mut acc = 0.0_f32;
                    for fi in 0..taps as usize {
                        for fj in 0..taps as usize {
                            let oi = i + fi - r as usize;
                            let oj = j + fj - r as usize;
                            acc += img[oi * n as usize + oj] * filter_data[fi * taps as usize + fj];
                        }
                    }
                    acc
                })
            })
            .collect();
        check_f32("sobel", rt.read_f32(out), &want, 1e-3)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

/// The `taps`×`taps` Sobel filter, row-major.
fn sobel_filter(taps: i64) -> Vec<f32> {
    (0..(taps * taps))
        .map(|k| ((k % 3) as f32 - 1.0) * 0.25)
        .collect()
}
