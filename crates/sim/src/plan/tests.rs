//! The fusion pass's tests and the width gauges, at the `plan::tests::…`
//! paths they had before the module was split (the test floor names them).

use super::*;
use sycl_mlir_ir::Attribute;

/// Mnemonics of the windows fusion formed in `plan`, in code order.
fn windows(plan: &KernelPlan) -> Vec<&'static str> {
    plan.superinstructions().map(Instr::mnemonic).collect()
}

/// The decoder parses the six predicates the IR verifier admits and
/// nothing else: a kernel with a missing or unknown predicate is refused
/// at admission under both engines, so no default stands in for it.
#[test]
fn cmp_pred_parsing_matches_tree_walk_defaults() {
    let of = |name: &str| CmpPred::of_attr(&Attribute::Str(name.into()));
    assert!(matches!(of("slt"), Some(CmpPred::Slt)));
    assert!(matches!(of("sge"), Some(CmpPred::Sge)));
    assert!(of("ult").is_none() && of("").is_none());
    assert!(CmpPred::of_attr(&Attribute::Int(0)).is_none());
}

/// What `scripts/ci.sh` echoes next to the line count: the two sizes
/// the instruction loop's memory traffic is made of.
#[test]
fn plan_sizes() {
    println!(
        "plan_sizes: Slot {} B, Instr {} B",
        std::mem::size_of::<Slot>(),
        std::mem::size_of::<Instr>()
    );
}

mod fusion {
    use super::super::*;
    use crate::cost::ExecStats;
    use crate::fixtures::{accessor, ctx};
    use crate::memory::{DataVec, MemId, MemoryPool};
    use crate::verify::{verify_plan, PlanFacts};
    use crate::NdRangeSpec;
    use sycl_mlir_dialects::affine;
    use sycl_mlir_dialects::arith::{self, constant_index};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_ir::{Builder, Module, OpId};
    use sycl_mlir_sycl::device as sdev;
    use sycl_mlir_sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

    /// Build a 1-d kernel with `n_accs` f32 accessors and an nd_item.
    fn build_kernel(
        m: &mut Module,
        n_accs: usize,
        body: impl FnOnce(&mut Builder<'_>, &[sycl_mlir_ir::ValueId], sycl_mlir_ir::ValueId),
    ) -> OpId {
        let c = m.ctx();
        let acc = accessor_type(c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(c, 1);
        let mut sig: Vec<sycl_mlir_ir::Type> = vec![acc; n_accs];
        sig.push(nd1);
        let top = m.top();
        let (func, entry) = build_func(m, top, "k", &sig, &[]);
        sdev::mark_kernel(m, func);
        let accs: Vec<sycl_mlir_ir::ValueId> = (0..n_accs).map(|i| m.block_arg(entry, i)).collect();
        let item = m.block_arg(entry, n_accs);
        {
            let mut b = Builder::at_end(m, entry);
            body(&mut b, &accs, item);
            build_return(&mut b, &[]);
        }
        func
    }

    /// `acc[gid]` in the post-CSE shape the compiled flows read with: the
    /// zero index `zero` is materialized once up front, so `vec.ctor`,
    /// `acc.subscript` and the load are adjacent — the indexed accessor
    /// load. (`sdev::load_via_id` builds a fresh zero constant between the
    /// subscript and the load; a constant is a bound register, not an
    /// instruction, so that read is the same window.)
    fn read(
        b: &mut Builder<'_>,
        acc: sycl_mlir_ir::ValueId,
        gid: sycl_mlir_ir::ValueId,
        zero: sycl_mlir_ir::ValueId,
    ) -> sycl_mlir_ir::ValueId {
        let id = sdev::make_id(b, &[gid]);
        let view = sdev::subscript(b, acc, id);
        affine::load(b, view, &[zero])
    }

    /// Execute `plan` on fresh data and return (stats, all buffers).
    fn run_plan(
        plan: &KernelPlan,
        facts: &PlanFacts,
        n_accs: usize,
        n: i64,
        nd: NdRangeSpec,
        threads: usize,
    ) -> (ExecStats, Vec<DataVec>) {
        let mut pool = MemoryPool::new();
        let mut args = Vec::new();
        for a in 0..n_accs {
            let data: Vec<f32> = (0..n).map(|i| (i + 1) as f32 * (a + 1) as f32).collect();
            let mem = pool.alloc(DataVec::F32(data));
            args.push(accessor(mem, n));
        }
        let stats = crate::pool::run_one_launch(plan, facts, &args, nd, &mut pool, threads)
            .expect("plan launch runs");
        let bufs = (0..pool.len())
            .map(|i| pool.read(MemId(i as u32)))
            .collect();
        (stats, bufs)
    }

    /// Decode twice, fuse one copy, assert exactly which windows
    /// formed, and hold fused execution bit-identical to unfused at 1 and
    /// 4 workers.
    fn assert_fused_identical(m: &Module, func: OpId, n_accs: usize, expect: &[&str]) {
        let n = 64_i64;
        let nd = NdRangeSpec::d1(n, 16);
        let unfused = decode_kernel(m, func).expect("decodes");
        let facts = verify_plan(&unfused).expect("verifies");
        let mut fused = decode_kernel(m, func).expect("decodes");
        let total = fuse_plan(&mut fused);
        assert_eq!(super::windows(&fused), expect, "windows formed");
        assert_eq!(total as usize, expect.len(), "total fusion count");
        let (ref_stats, ref_bufs) = run_plan(&unfused, &facts, n_accs, n, nd, 1);
        for threads in [1_usize, 4] {
            let (stats, bufs) = run_plan(&fused, &facts, n_accs, n, nd, threads);
            assert_eq!(ref_stats, stats, "stats differ at threads={threads}");
            assert_eq!(ref_bufs, bufs, "buffers differ at threads={threads}");
        }
    }

    /// `a[i] += b[i]`: both accessor reads fuse as `acc.load.idx`; the
    /// `addf` that accumulates them and the builder's un-CSE'd write
    /// (`vec.ctor` + `acc.subscript` + `Store`) have no window
    /// and run as decoded.
    #[test]
    fn load_accumulate_fuses_and_executes_identically() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let zero = constant_index(b, 0);
            let va = read(b, accs[0], gid, zero);
            let vb = read(b, accs[1], gid, zero);
            let sum = arith::addf(b, va, vb);
            sdev::store_via_id(b, sum, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.idx", "acc.load.idx"]);
    }

    /// `out[2*i+1] = a[i] * b[i]`: the `muli`+`addi` linear-addressing
    /// chain has no window and runs as decoded, bit-identically; only
    /// the two reads fuse.
    /// The store goes to a dedicated output accessor through an
    /// injective index, so no two work-items touch the same element
    /// and the threads=4 leg compares a race-free kernel.
    #[test]
    fn muli_addi_chain_fuses_and_executes_identically() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 3, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let zero = constant_index(b, 0);
            let va = read(b, accs[0], gid, zero);
            let vb = read(b, accs[1], gid, zero);
            let prod = arith::mulf(b, va, vb);
            let two = constant_index(b, 2);
            let one = constant_index(b, 1);
            let scaled = arith::muli(b, gid, two);
            let idx = arith::addi(b, scaled, one);
            // (2i+1) % 65 over 64 items: the odd then the even indices
            // below 64, each exactly once.
            let n = constant_index(b, 65);
            let wrapped = arith::remsi(b, idx, n);
            sdev::store_via_id(b, prod, accs[2], &[wrapped]);
        });
        assert_fused_identical(&m, func, 3, &["acc.load.idx", "acc.load.idx"]);
    }

    /// `v + v`: the self-accumulate does not fuse (no window holds a float
    /// op). The loaded value it reads twice is the indexed load's result,
    /// not one of its elided intermediates, so the read still fuses.
    #[test]
    fn self_accumulate_does_not_fuse() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 1, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let zero = constant_index(b, 0);
            let v = read(b, accs[0], gid, zero);
            let doubled = arith::addf(b, v, v);
            sdev::store_via_id(b, doubled, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 1, &["acc.load.idx"]);
    }

    /// A loaded value consumed twice (once by the `addf`, once by a
    /// later `mulf`) does not fuse with either consumer: both reads fuse,
    /// and the kept result register feeds both.
    #[test]
    fn multiply_used_load_does_not_fuse() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let zero = constant_index(b, 0);
            let va = read(b, accs[0], gid, zero);
            let vb = read(b, accs[1], gid, zero);
            let sum = arith::addf(b, vb, va); // vb read here…
            let scaled = arith::mulf(b, sum, vb); // …and here
            sdev::store_via_id(b, scaled, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.idx", "acc.load.idx"]);
    }

    /// A `subf` of two reads does not fuse: the reads do, the float op
    /// after them runs as decoded.
    #[test]
    fn subf_after_load_does_not_fuse() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let zero = constant_index(b, 0);
            let va = read(b, accs[0], gid, zero);
            let vb = read(b, accs[1], gid, zero);
            let diff = arith::subf(b, va, vb);
            sdev::store_via_id(b, diff, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.idx", "acc.load.idx"]);
    }

    /// The accumulated value of an `addf` feeding a store via the
    /// accessor chain is *not* adjacent to the store (the id
    /// construction sits between), so nothing fuses around it — only the
    /// two reads — and results must still match.
    #[test]
    fn non_adjacent_accumulate_store_stays_correct() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let zero = constant_index(b, 0);
            let va = read(b, accs[0], gid, zero);
            let vb = read(b, accs[1], gid, zero);
            let sum = arith::addf(b, va, vb);
            sdev::store_via_id(b, sum, accs[1], &[gid]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.idx", "acc.load.idx"]);
    }

    /// The builder's un-CSE'd accessor read (`sdev::load_via_id`: its
    /// fresh zero constant is a bound register, not an instruction between
    /// the subscript and the load) fuses into the one window, and the
    /// store's index arithmetic — a `muli` product read three times —
    /// runs as decoded beside it.
    /// `out[(9i+1) % 64] = a[i]`: an odd multiplier makes the store index
    /// a permutation of the 64 items, and the output accessor is never
    /// read — race-free at any worker count.
    #[test]
    fn uncsed_accessor_read_fuses() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let three = constant_index(b, 3);
            let one = constant_index(b, 1);
            let n = constant_index(b, 64);
            let p = arith::muli(b, gid, three);
            let i1 = arith::addi(b, p, one); // p read here…
            let i2 = arith::addi(b, p, p); // …and twice more here
            let s = arith::addi(b, i1, i2);
            let wrapped = arith::remsi(b, s, n);
            let v = sdev::load_via_id(b, accs[0], &[gid]);
            sdev::store_via_id(b, v, accs[1], &[wrapped]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.idx"]);
    }
}

/// Bytecode-level chain-fusion tests: these construct the decoded
/// instruction shapes directly — exactly what the compiled benchsuite
/// kernels contain (held by `fusion_fires_on_benchsuite_kernels` in
/// `tests/differential.rs`).
mod chains {
    use super::super::*;
    use crate::cost::ExecStats;
    use crate::memory::{DataVec, MemId, MemoryPool};
    use crate::value::{MemRefVal, RtValue, Space};
    use crate::verify::{verify_and_fuse, PlanFacts};
    use crate::NdRangeSpec;

    const N: i64 = 16;

    /// One decoded-shaped plan over `[accessor f32, memref f32]`
    /// params (registers 0 and 1); registers from 2 up are free.
    /// A plan over the accessor and memref parameters (`r0`, `r1`) and the
    /// bound constants `consts`.
    fn plan_of(
        code: Vec<Instr>,
        consts: Vec<(Reg, Slot)>,
        reg_count: u32,
        mem_sites: u32,
    ) -> KernelPlan {
        KernelPlan {
            code,
            reg_count,
            params: vec![
                (0, Some(Ty::of(Class::Acc, Class::Float))),
                (1, Some(Ty::of(Class::Mem, Class::Float))),
            ],
            item: None,
            consts,
            dense_consts: Vec::new(),
            mem_sites,
            local_sites: 0,
        }
    }

    /// Execute `plan` on fresh buffers; returns stats plus both
    /// final buffer images.
    fn run(
        plan: &KernelPlan,
        facts: &PlanFacts,
        threads: usize,
    ) -> (ExecStats, Vec<f32>, Vec<f32>) {
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32((0..N).map(|i| i as f32 * 0.5).collect()));
        let mb = pool.alloc(DataVec::F32((0..N).map(|i| 1.0 + i as f32).collect()));
        let args = [
            crate::fixtures::accessor(ma, N),
            RtValue::MemRef(MemRefVal {
                mem: mb,
                offset: 0,
                shape: [N, 1, 1],
                rank: 1,
                space: Space::Global,
            }),
        ];
        let nd = NdRangeSpec::d1(N, 4);
        let stats = crate::pool::run_one_launch(plan, facts, &args, nd, &mut pool, threads)
            .expect("plan runs");
        let DataVec::F32(a) = pool.read(MemId(0)) else {
            panic!()
        };
        let DataVec::F32(b) = pool.read(MemId(1)) else {
            panic!()
        };
        (stats, a.clone(), b.clone())
    }

    /// Fuse a clone, assert exactly which windows formed, and hold
    /// fused execution bit-identical to unfused at 1 and 4 workers.
    fn assert_chain_identical(plan: &KernelPlan, expect: &[&str]) -> KernelPlan {
        let (facts, fused) = verify_and_fuse(plan.clone()).expect("verifies");
        assert_eq!(super::windows(&fused), expect, "windows formed");
        let (ref_stats, ref_a, ref_b) = run(plan, &facts, 1);
        for threads in [1_usize, 4] {
            let (stats, a, b) = run(&fused, &facts, threads);
            assert_eq!(ref_stats, stats, "stats differ at threads={threads}");
            assert_eq!(ref_a, a, "accessor buffer differs at threads={threads}");
            assert_eq!(ref_b, b, "memref buffer differs at threads={threads}");
        }
        fused
    }

    /// The post-CSE accessor chain shape: `acc[gid] = acc[gid] + 1.0`
    /// with both the load-side and store-side chains adjacent. The
    /// load chain fuses to `acc.load.idx`; the store chain has no
    /// window and runs as decoded.
    #[test]
    fn accessor_load_and_store_chains_fuse_and_execute_identically() {
        let code = vec![
            // r2 = gid (r3 = 0 and r4 = 1.0f are bound)
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            // Load chain: id, view, load.
            Instr::VecCtor {
                dst: 5,
                comps: [2, 0, 0],
                rank: 1,
            },
            Instr::AccSubscript {
                dst: 6,
                acc: 0,
                id: 5,
            },
            Instr::Load {
                dst: 7,
                mem: 6,
                idx: [3, 0, 0],
                rank: 1,
                site: 0,
            },
            // v + 1.0
            Instr::BinFloat {
                op: FloatBin::Add,
                dst: 8,
                l: 7,
                r: 4,
                f32_out: true,
            },
            // Store chain: id, view, store.
            Instr::VecCtor {
                dst: 9,
                comps: [2, 0, 0],
                rank: 1,
            },
            Instr::AccSubscript {
                dst: 10,
                acc: 0,
                id: 9,
            },
            Instr::Store {
                val: 8,
                mem: 10,
                idx: [3, 0, 0],
                rank: 1,
                site: 1,
            },
            Instr::Return,
        ];
        let consts = vec![(3, Slot::Int(0)), (4, Slot::F32(1.0))];
        let plan = plan_of(code, consts, 11, 2);
        let fused = assert_chain_identical(&plan, &["acc.load.idx"]);
        // Only the 3-instruction load chain collapsed: 9 -> 7.
        assert_eq!(fused.code.len(), 7);
    }

    /// Near miss: an `acc.subscript` result read by *both* a load and a
    /// later store (the post-CSE `c[i] = c[i] + x` shape — GEMM's shared
    /// view) is no elidable intermediate, so the indexed load may not
    /// fire: the addressing, the load and the accumulate run as decoded.
    #[test]
    fn multiply_read_subscript_view_takes_the_write_through_chain() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::VecCtor {
                dst: 5,
                comps: [2, 0, 0],
                rank: 1,
            },
            Instr::AccSubscript {
                dst: 6,
                acc: 0,
                id: 5,
            },
            // The view feeds the load here…
            Instr::Load {
                dst: 7,
                mem: 6,
                idx: [3, 0, 0],
                rank: 1,
                site: 0,
            },
            Instr::BinFloat {
                op: FloatBin::Add,
                dst: 8,
                l: 7,
                r: 4,
                f32_out: true,
            },
            // …and the store here: two reads, no elision.
            Instr::Store {
                val: 8,
                mem: 6,
                idx: [3, 0, 0],
                rank: 1,
                site: 1,
            },
            Instr::Return,
        ];
        let consts = vec![(3, Slot::Int(0)), (4, Slot::F32(1.0))];
        let plan = plan_of(code, consts, 9, 2);
        assert_chain_identical(&plan, &[]);
    }

    /// A chain whose *head* is a jump target may fuse (the whole
    /// window maps to the superinstruction's pc); a chain with a jump
    /// target on a **non-head member** must not — control flow could
    /// enter mid-window and skip the elided producers.
    #[test]
    fn jump_target_on_non_head_member_blocks_fusion() {
        // Shared suffix: id = vec.ctor gid; view = acc[id]; v = load;
        // store v -> b[gid]. The guard skips a filler instruction.
        let build = |branch_to_head: bool| -> KernelPlan {
            let chain_head = 5_u32;
            let target = if branch_to_head {
                chain_head
            } else {
                chain_head + 1 // the acc.subscript: mid-chain
            };
            // When branching mid-chain, the id register must still be
            // initialized on the taken path: define it before the
            // branch too.
            let code = vec![
                Instr::ItemQuery {
                    dst: 2,
                    q: ItemQ::GlobalId,
                    dim: DimSrc::Const(0),
                },
                Instr::VecCtor {
                    dst: 6,
                    comps: [2, 0, 0],
                    rank: 1,
                }, // pc 1: pre-initialize the id register
                Instr::CmpI {
                    pred: CmpPred::Eq,
                    dst: 4,
                    l: 2,
                    r: 3,
                }, // pc 2
                Instr::BranchIfFalse { cond: 4, target }, // pc 3
                Instr::BinInt {
                    op: IntBin::Add,
                    dst: 5,
                    l: 2,
                    r: 3,
                }, // pc 4: filler, skipped when gid != 0
                Instr::VecCtor {
                    dst: 6,
                    comps: [2, 0, 0],
                    rank: 1,
                }, // pc 5: chain head
                Instr::AccSubscript {
                    dst: 7,
                    acc: 0,
                    id: 6,
                }, // pc 6
                Instr::Load {
                    dst: 8,
                    mem: 7,
                    idx: [3, 0, 0],
                    rank: 1,
                    site: 0,
                }, // pc 7
                Instr::Store {
                    val: 8,
                    mem: 1,
                    idx: [2, 0, 0],
                    rank: 1,
                    site: 1,
                }, // pc 8
                Instr::Return,
            ];
            plan_of(code, vec![(3, Slot::Int(0))], 9, 2)
        };

        // Branching to the head: the chain fuses (the whole window
        // maps to the superinstruction's pc — this exercises target
        // remapping across a multi-instruction window).
        assert_chain_identical(&build(true), &["acc.load.idx"]);

        // Branching to the subscript (a non-head member): the chain
        // may not fire.
        assert_chain_identical(&build(false), &[]);
    }

    /// The un-CSE'd DPC++-flow store shape: `vec.ctor`, `acc.subscript`,
    /// a zero copied in, `Store`. No window is store-headed, so the shape
    /// runs as decoded.
    #[test]
    fn un_csed_store_quad_fuses() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::VecCtor {
                dst: 5,
                comps: [2, 0, 0],
                rank: 1,
            },
            Instr::AccSubscript {
                dst: 6,
                acc: 0,
                id: 5,
            },
            Instr::Copy { dst: 7, src: 3 },
            Instr::Store {
                val: 4,
                mem: 6,
                idx: [7, 0, 0],
                rank: 1,
                site: 0,
            },
            Instr::Return,
        ];
        let plan = plan_of(code, vec![(3, Slot::Int(0)), (4, Slot::F32(2.5))], 8, 1);
        assert_chain_identical(&plan, &[]);
    }

    /// Near miss: an instruction between the subscript and the load (here
    /// an unrelated copy: the load indexes with r3, not r7) breaks the
    /// adjacency of the indexed load, so nothing fuses.
    #[test]
    fn unrelated_const_blocks_the_quad() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::VecCtor {
                dst: 5,
                comps: [2, 0, 0],
                rank: 1,
            },
            Instr::AccSubscript {
                dst: 6,
                acc: 0,
                id: 5,
            },
            // Unrelated copy: the load indexes with r3, not r7.
            Instr::Copy { dst: 7, src: 4 },
            Instr::Load {
                dst: 8,
                mem: 6,
                idx: [3, 0, 0],
                rank: 1,
                site: 0,
            },
            // Each item stores to its own element (r2 = gid).
            Instr::Store {
                val: 8,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 1,
            },
            Instr::Return,
        ];
        let plan = plan_of(code, vec![(3, Slot::Int(0)), (4, Slot::Int(1))], 9, 2);
        assert_chain_identical(&plan, &[]);
    }

    /// A store chain whose id vector is re-read by a second subscript
    /// (a CSE'd id feeding two accesses): no window is store-headed, and
    /// the second chain has no `vec.ctor` head, so the shape runs as
    /// decoded.
    #[test]
    fn multiply_read_id_takes_the_write_through_store_chain() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            // First store chain: adjacent, id multiply-read.
            Instr::VecCtor {
                dst: 5,
                comps: [2, 0, 0],
                rank: 1,
            },
            Instr::AccSubscript {
                dst: 6,
                acc: 0,
                id: 5,
            },
            Instr::Store {
                val: 4,
                mem: 6,
                idx: [3, 0, 0],
                rank: 1,
                site: 0,
            },
            // Second chain re-reads id 5; its own members stay
            // unfused (no vec.ctor head).
            Instr::AccSubscript {
                dst: 7,
                acc: 0,
                id: 5,
            },
            Instr::Load {
                dst: 8,
                mem: 7,
                idx: [3, 0, 0],
                rank: 1,
                site: 1,
            },
            Instr::Store {
                val: 8,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 2,
            },
            Instr::Return,
        ];
        let consts = vec![(3, Slot::Int(0)), (4, Slot::F32(1.5))];
        let plan = plan_of(code, consts, 9, 3);
        assert_chain_identical(&plan, &[]);
    }

    /// A load feeding a float op whose result feeds an adjacent store
    /// *and* a later reader: no window holds a float op or a store, so
    /// the shape runs as decoded.
    #[test]
    fn multiply_read_accumulator_takes_the_write_through_pair() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Load {
                dst: 5,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 0,
            },
            // The result is read by both stores below.
            Instr::BinFloat {
                op: FloatBin::Sub,
                dst: 6,
                l: 5,
                r: 4,
                f32_out: true,
            },
            Instr::Store {
                val: 6,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 1,
            },
            // Second read of the accumulator.
            Instr::VecCtor {
                dst: 7,
                comps: [2, 0, 0],
                rank: 1,
            },
            Instr::AccSubscript {
                dst: 8,
                acc: 0,
                id: 7,
            },
            Instr::Store {
                val: 6,
                mem: 8,
                idx: [3, 0, 0],
                rank: 1,
                site: 2,
            },
            Instr::Return,
        ];
        let consts = vec![(3, Slot::Int(0)), (4, Slot::F32(0.25))];
        let plan = plan_of(code, consts, 9, 3);
        assert_chain_identical(&plan, &[]);
    }
}
