//! The `sparse` category: indirect-index workloads — CSR SpMV, gather,
//! scatter and a segmented histogram. Every kernel computes at least one
//! subscript from *loaded* data (`load i32` → `index_cast` → subscript),
//! the access shape the fusion matcher's indexed-chain rules must not
//! break and the OOB machinery must attribute deterministically. The
//! dynamic-nd-range gather splits its launch at a runtime-computed
//! boundary, leaving a zero-extent tail launch for aligned sizes.

use crate::util::*;
use crate::{App, Category, ValidateFn, WorkloadSpec};
use rand::Rng;
use sycl_mlir_dialects::{arith, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_runtime::{hostgen::generate_host_ir, Queue, SyclRuntime};
use sycl_mlir_sim::{DataVec, Dtype};
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

/// Work-group size of the dynamic-launch variant.
const WG: i64 = 16;
/// Histogram bins and per-item segment length.
const BINS: i64 = 16;
const SEG: i64 = 16;

/// All sparse indirect-index workloads.
pub fn workloads() -> Vec<WorkloadSpec> {
    fn spec(name: &'static str, paper: i64, scaled: i64, build: fn(i64) -> App) -> WorkloadSpec {
        WorkloadSpec {
            name,
            category: Category::Sparse,
            paper_size: paper,
            scaled_size: scaled,
            acpp_fails: false,
            in_figure: true,
            build,
        }
    }
    vec![
        spec("SpMV (CSR)", 1 << 18, 2048, spmv_csr),
        spec("Gather", 1 << 20, 8192, gather),
        spec("Scatter", 1 << 20, 8192, scatter),
        spec("Histogram (segmented)", 1 << 20, 4096, histogram),
        spec("Gather (dyn nd-range)", 1 << 20, 8192, gather_dyn),
    ]
}

/// Load an i32 element and widen it to an index for use as a subscript.
fn load_index(
    b: &mut sycl_mlir_ir::Builder<'_>,
    acc: sycl_mlir_ir::ValueId,
    at: sycl_mlir_ir::ValueId,
) -> sycl_mlir_ir::ValueId {
    let raw = sdev::load_via_id(b, acc, &[at]);
    let index_ty = b.ctx().index_type();
    arith::index_cast(b, raw, index_ty)
}

// ----------------------------------------------------------------------
// SpMV over CSR: y[row] = Σ vals[j] * x[col[j]] for j in
// row_ptr[row]..row_ptr[row+1]. Two levels of indirection: the loop
// bounds and the x subscript both come from loaded integers.
// ----------------------------------------------------------------------

fn spmv_csr(n: i64) -> App {
    const NNZ_PER_ROW: i64 = 4;
    let n = n.max(1);
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let i32t = ctx.i32_type();
    let sig = KernelSig::new("spmv", 1, false)
        .accessor(i32t.clone(), 1, AccessMode::Read) // row_ptr
        .accessor(i32t, 1, AccessMode::Read) // col
        .accessor(f.clone(), 1, AccessMode::Read) // vals
        .accessor(f.clone(), 1, AccessMode::Read) // x
        .accessor(f, 1, AccessMode::Write); // y
    kb.add_kernel(&sig, |b, args, item| {
        let row = sdev::item_get_id(b, item, 0);
        let one = arith::constant_index(b, 1);
        let next = arith::addi(b, row, one);
        let start = load_index(b, args[0], row);
        let end = load_index(b, args[0], next);
        let f32t = b.ctx().f32_type();
        let zf = arith::constant_float(b, 0.0, f32t);
        let fold = scf::build_for(b, start, end, one, &[zf], |inner, j, iters| {
            let c = load_index(inner, args[1], j);
            let v = sdev::load_via_id(inner, args[2], &[j]);
            let xv = sdev::load_via_id(inner, args[3], &[c]);
            let prod = arith::mulf(inner, v, xv);
            let acc = arith::addf(inner, iters[0], prod);
            vec![acc]
        });
        let y = b.module().op_result(fold, 0);
        sdev::store_via_id(b, y, args[4], &[row]);
    });

    let mut rng_ = rng(71);
    let nnz = n * NNZ_PER_ROW;
    // Row `r` holds entries `r * NNZ_PER_ROW ..` — structure, not a
    // seeded input.
    let row_ptr_data: Vec<i32> = (0..=n).map(|r| (r * NNZ_PER_ROW) as i32).collect();
    let mut rt = SyclRuntime::new();
    let row_ptr = rt.buffer_i32(row_ptr_data, &[n + 1]);
    let col = seeded_indices(&mut rt, &mut rng_, nnz, n);
    let vals = seeded_rand(&mut rt, &mut rng_, Dtype::F32, &[nnz]);
    let x = seeded_rand(&mut rt, &mut rng_, Dtype::F32, &[n]);
    let y = rt.buffer_zeroed(Dtype::F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(row_ptr, AccessMode::Read)
            .accessor(col, AccessMode::Read)
            .accessor(vals, AccessMode::Read)
            .accessor(x, AccessMode::Read)
            .accessor(y, AccessMode::Write);
        h.parallel_for("spmv", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let col_data = rt.initial_i32(col);
        let (vv, xv) = (rt.initial_f32(vals), rt.initial_f32(x));
        let per_row = NNZ_PER_ROW as usize;
        let want: Vec<f32> = (0..n as usize)
            .map(|r| {
                (r * per_row..(r + 1) * per_row)
                    .map(|j| vv[j] * xv[col_data[j] as usize])
                    .sum()
            })
            .collect();
        check_f32("spmv", rt.read_f32(y), &want, 1e-4)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// Gather: out[i] = src[idx[i]] — a register-computed subscript on the
// load side.
// ----------------------------------------------------------------------

fn gather(n: i64) -> App {
    let n = n.max(1);
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("gather", 1, false)
        .accessor(ctx.i32_type(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let j = load_index(b, args[0], gid);
        let v = sdev::load_via_id(b, args[1], &[j]);
        sdev::store_via_id(b, v, args[2], &[gid]);
    });

    let mut rng_ = rng(72);
    let mut rt = SyclRuntime::new();
    let idx = seeded_indices(&mut rt, &mut rng_, n, n);
    let src = seeded_rand(&mut rt, &mut rng_, Dtype::F32, &[n]);
    let out = rt.buffer_zeroed(Dtype::F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(idx, AccessMode::Read)
            .accessor(src, AccessMode::Read)
            .accessor(out, AccessMode::Write);
        h.parallel_for("gather", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let sv = rt.initial_f32(src);
        let want: Vec<f32> = (rt.initial_i32(idx).iter())
            .map(|&j| sv[j as usize])
            .collect();
        check_f32("gather", rt.read_f32(out), &want, 0.0)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// Scatter: out[perm[i]] = src[i] over a seeded *permutation*, so writes
// never collide and the result is engine- and thread-count-independent.
// ----------------------------------------------------------------------

fn scatter(n: i64) -> App {
    let n = n.max(1);
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let sig = KernelSig::new("scatter", 1, false)
        .accessor(ctx.i32_type(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let j = load_index(b, args[0], gid);
        let v = sdev::load_via_id(b, args[1], &[gid]);
        sdev::store_via_id(b, v, args[2], &[j]);
    });

    let mut rng_ = rng(73);
    let mut rt = SyclRuntime::new();
    // Fisher-Yates with the seeded rng (the rand build here has no `seq`):
    // one draw for each element but the first.
    let perm = seeded(
        &mut rt,
        &mut rng_,
        Dtype::I32,
        &[n],
        n as usize - 1,
        move |r| {
            let mut perm_data: Vec<i32> = (0..n as i32).collect();
            for i in (1..perm_data.len()).rev() {
                let j = r.gen_range(0..i + 1);
                perm_data.swap(i, j);
            }
            DataVec::I32(perm_data)
        },
    );
    let src = seeded_rand(&mut rt, &mut rng_, Dtype::F32, &[n]);
    let out = rt.buffer_zeroed(Dtype::F32, &[n]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(perm, AccessMode::Read)
            .accessor(src, AccessMode::Read)
            .accessor(out, AccessMode::Write);
        h.parallel_for("scatter", &[n]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let sv = rt.initial_f32(src);
        let mut want = vec![0.0_f32; n as usize];
        for (i, &p) in rt.initial_i32(perm).iter().enumerate() {
            want[p as usize] = sv[i];
        }
        check_f32("scatter", rt.read_f32(out), &want, 0.0)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// Histogram (segmented): each work-item bins its own SEG-element slice
// into its own BINS-wide output region — a data-dependent *store*
// subscript with read-modify-write, deterministic because regions are
// disjoint.
// ----------------------------------------------------------------------

fn histogram(n: i64) -> App {
    let items = (n.max(SEG)) / SEG;
    let len = items * SEG;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let i32t = ctx.i32_type();
    let sig = KernelSig::new("histogram", 1, false)
        .accessor(i32t.clone(), 1, AccessMode::Read)
        .accessor(i32t, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let seg = arith::constant_index(b, SEG);
        let bins = arith::constant_index(b, BINS);
        let base = arith::muli(b, gid, seg);
        let obase = arith::muli(b, gid, bins);
        let zero = arith::constant_index(b, 0);
        let one = arith::constant_index(b, 1);
        let one_i32 = arith::constant_int(b, 1, b.ctx().i32_type());
        scf::build_for(b, zero, seg, one, &[], |inner, k, _| {
            let at = arith::addi(inner, base, k);
            let v = load_index(inner, args[0], at);
            let bins2 = arith::constant_index(inner, BINS);
            let bin = arith::remsi(inner, v, bins2);
            let slot = arith::addi(inner, obase, bin);
            let cur = sdev::load_via_id(inner, args[1], &[slot]);
            let next = arith::addi(inner, cur, one_i32);
            sdev::store_via_id(inner, next, args[1], &[slot]);
            vec![]
        });
    });

    let mut rng_ = rng(74);
    let mut rt = SyclRuntime::new();
    let input = seeded_indices(&mut rt, &mut rng_, len, 64);
    let hist = rt.buffer_zeroed(Dtype::I32, &[items * BINS]);
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(input, AccessMode::Read)
            .accessor(hist, AccessMode::ReadWrite);
        h.parallel_for("histogram", &[items]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let mut want = vec![0_i32; (items * BINS) as usize];
        for (i, &v) in rt.initial_i32(input).iter().enumerate() {
            let item = i / SEG as usize;
            want[item * BINS as usize + (v % BINS as i32) as usize] += 1;
        }
        check_exact("histogram", rt.read_i32(hist), &want)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}

// ----------------------------------------------------------------------
// Gather (dyn nd-range): the gather split at a runtime-computed group
// boundary — an nd bulk launch plus a basic-range tail that is empty for
// aligned sizes (the zero-group path).
// ----------------------------------------------------------------------

fn gather_dyn(n: i64) -> App {
    let n = n.max(1);
    let bulk = n - n % WG;
    let tail = n % WG;
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f = ctx.f32_type();
    let bulk_sig = KernelSig::new("gather_bulk", 1, true)
        .accessor(ctx.i32_type(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Write);
    kb.add_kernel(&bulk_sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let j = load_index(b, args[0], gid);
        let v = sdev::load_via_id(b, args[1], &[j]);
        sdev::store_via_id(b, v, args[2], &[gid]);
    });
    let tail_sig = KernelSig::new("gather_tail", 1, false)
        .accessor(ctx.i32_type(), 1, AccessMode::Read)
        .accessor(f.clone(), 1, AccessMode::Read)
        .accessor(f, 1, AccessMode::Write)
        .scalar(ctx.i64_type());
    kb.add_kernel(&tail_sig, |b, args, item| {
        let gid = sdev::item_get_id(b, item, 0);
        let index_ty = b.ctx().index_type();
        let off = arith::index_cast(b, args[3], index_ty);
        let at = arith::addi(b, off, gid);
        let j = load_index(b, args[0], at);
        let v = sdev::load_via_id(b, args[1], &[j]);
        sdev::store_via_id(b, v, args[2], &[at]);
    });

    let mut rng_ = rng(75);
    let mut rt = SyclRuntime::new();
    let idx = seeded_indices(&mut rt, &mut rng_, n, n);
    let src = seeded_rand(&mut rt, &mut rng_, Dtype::F32, &[n]);
    let out = rt.buffer_zeroed(Dtype::F32, &[n]);
    let mut q = Queue::new();
    if bulk > 0 {
        q.submit(|h| {
            h.accessor(idx, AccessMode::Read)
                .accessor(src, AccessMode::Read)
                .accessor(out, AccessMode::Write);
            h.parallel_for_nd("gather_bulk", &[bulk], &[WG]);
        });
    }
    q.submit(|h| {
        h.accessor(idx, AccessMode::Read)
            .accessor(src, AccessMode::Read)
            .accessor(out, AccessMode::Write)
            .scalar_i64(bulk);
        h.parallel_for("gather_tail", &[tail]);
    });
    generate_host_ir(kb.module(), &rt, &q);
    let module = kb.finish();

    let validate: ValidateFn = Box::new(move |rt| {
        let sv = rt.initial_f32(src);
        let want: Vec<f32> = (rt.initial_i32(idx).iter())
            .map(|&j| sv[j as usize])
            .collect();
        check_f32("gather_dyn", rt.read_f32(out), &want, 0.0)
    });
    App {
        module,
        runtime: rt,
        queue: q,
        validate,
    }
}
