//! The fusion pass's tests and the width gauges, at the `plan::tests::…`
//! paths they had before the module was split (the test floor names them).

use super::*;
use sycl_mlir_ir::Attribute;

/// Mnemonics of the windows fusion formed in `plan`, in code order.
fn windows(plan: &KernelPlan) -> Vec<&'static str> {
    plan.superinstructions().map(Instr::mnemonic).collect()
}

#[test]
fn cmp_pred_parsing_matches_tree_walk_defaults() {
    assert!(matches!(CmpPred::of_attr(None), CmpPred::Eq));
    assert!(matches!(
        CmpPred::of_attr(Some(&Attribute::Str("slt".into()))),
        CmpPred::Slt
    ));
    // Unknown spellings fall through to sge, like the interpreter's
    // final match arm.
    assert!(matches!(
        CmpPred::of_attr(Some(&Attribute::Str("ult".into()))),
        CmpPred::Sge
    ));
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
    use crate::memory::{DataVec, MemId, MemoryPool};
    use crate::value::{AccessorVal, RtValue};
    use crate::NdRangeSpec;
    use sycl_mlir_dialects::arith::{self, constant_index};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_ir::{Builder, Context, Module, OpId};
    use sycl_mlir_sycl::device as sdev;
    use sycl_mlir_sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    fn accessor(mem: MemId, len: i64) -> RtValue {
        RtValue::Accessor(AccessorVal {
            mem,
            range: [len, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        })
    }

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

    /// Execute `plan` on fresh data and return (stats, all buffers).
    fn run_plan(
        plan: &KernelPlan,
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
        let stats = crate::pool::run_one_launch(plan, &args, nd, &mut pool, threads)
            .expect("plan launch runs");
        let bufs = (0..pool.len())
            .map(|i| pool.data(MemId(i as u32)).clone())
            .collect();
        (stats, bufs)
    }

    /// Decode twice, fuse one copy, assert exactly which windows
    /// formed (the builder's un-CSE'd accessor *reads* fuse as
    /// `acc.load.quad`; the un-CSE'd writes have no window), and hold
    /// fused execution bit-identical to unfused at 1 and 4 workers.
    fn assert_fused_identical(m: &Module, func: OpId, n_accs: usize, expect: &[&str]) {
        let n = 64_i64;
        let nd = NdRangeSpec::d1(n, 16);
        let unfused = decode_kernel(m, func).expect("decodes");
        let mut fused = decode_kernel(m, func).expect("decodes");
        let total = fuse_plan(&mut fused);
        assert_eq!(super::windows(&fused), expect, "windows formed");
        assert_eq!(total as usize, expect.len(), "total fusion count");
        let (ref_stats, ref_bufs) = run_plan(&unfused, n_accs, n, nd, 1);
        for threads in [1_usize, 4] {
            let (stats, bufs) = run_plan(&fused, n_accs, n, nd, threads);
            assert_eq!(ref_stats, stats, "stats differ at threads={threads}");
            assert_eq!(ref_bufs, bufs, "buffers differ at threads={threads}");
        }
    }

    /// `a[i] += b[i]`: both un-CSE'd accessor reads (`vec.ctor` +
    /// `acc.subscript` + `Const` + `Load`) fuse as quads — including
    /// the load whose result feeds the `addf`, which the quad consumes
    /// before the load-accumulate pair can see it. The un-CSE'd write
    /// has no window and runs as decoded.
    #[test]
    fn load_accumulate_fuses_and_executes_identically() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let va = sdev::load_via_id(b, accs[0], &[gid]);
            let vb = sdev::load_via_id(b, accs[1], &[gid]);
            let sum = arith::addf(b, va, vb);
            sdev::store_via_id(b, sum, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.quad", "acc.load.quad"]);
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
            let va = sdev::load_via_id(b, accs[0], &[gid]);
            let vb = sdev::load_via_id(b, accs[1], &[gid]);
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
        assert_fused_identical(&m, func, 3, &["acc.load.quad", "acc.load.quad"]);
    }

    /// Near miss: `v + v` — the loaded value appears as *both* `addf`
    /// operands, so the load-accumulate pair must not fire. The
    /// addressing quad still does (it keeps the loaded register's
    /// write, so the double read is unaffected).
    #[test]
    fn self_accumulate_does_not_fuse() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 1, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let v = sdev::load_via_id(b, accs[0], &[gid]);
            let doubled = arith::addf(b, v, v);
            sdev::store_via_id(b, doubled, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 1, &["acc.load.quad"]);
    }

    /// Near miss: the loaded value is consumed twice (once by the
    /// `addf`, once by a later `mulf`) — eliding its register would
    /// starve the second reader. Must not fuse.
    #[test]
    fn multiply_used_load_does_not_fuse() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let va = sdev::load_via_id(b, accs[0], &[gid]);
            let vb = sdev::load_via_id(b, accs[1], &[gid]);
            let sum = arith::addf(b, vb, va); // vb read here…
            let scaled = arith::mulf(b, sum, vb); // …and here
            sdev::store_via_id(b, scaled, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.quad", "acc.load.quad"]);
    }

    /// Near miss: `subf` is not in the fusable set (only the
    /// commutative `addf`/`mulf` accumulations are) — the adjacent
    /// load + subf pair must stay unfused.
    #[test]
    fn subf_after_load_does_not_fuse() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let va = sdev::load_via_id(b, accs[0], &[gid]);
            let vb = sdev::load_via_id(b, accs[1], &[gid]);
            let diff = arith::subf(b, va, vb);
            sdev::store_via_id(b, diff, accs[0], &[gid]);
        });
        assert_fused_identical(&m, func, 2, &["acc.load.quad", "acc.load.quad"]);
    }

    /// Near miss: the accumulated value of an `addf` feeding a store
    /// via the accessor chain is *not* adjacent to the store in
    /// unoptimized IR (the id construction sits between), so nothing
    /// may fuse around it — results must still match.
    #[test]
    fn non_adjacent_accumulate_store_stays_correct() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_kernel(&mut m, 2, |b, accs, item| {
            let gid = sdev::global_id(b, item, 0);
            let va = sdev::load_via_id(b, accs[0], &[gid]);
            let vb = sdev::load_via_id(b, accs[1], &[gid]);
            let sum = arith::addf(b, va, vb);
            sdev::store_via_id(b, sum, accs[1], &[gid]);
        });
        // Both reads fuse as quads; the addf and the store chain
        // behind it stay as decoded.
        assert_fused_identical(&m, func, 2, &["acc.load.quad", "acc.load.quad"]);
    }

    /// Near miss: a `muli` whose product is read twice must keep its
    /// register. `out[(9i+1) % 64] = a[i]`: an odd multiplier makes
    /// the store index a permutation of the 64 items, and the output
    /// accessor is never read — race-free at any worker count.
    #[test]
    fn multiply_used_product_does_not_fuse() {
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
        assert_fused_identical(&m, func, 2, &["acc.load.quad"]);
    }
}

/// Bytecode-level chain-fusion tests: the accessor chains only become
/// *adjacent* after CSE (the builder interposes the zero constant of
/// `load_via_id`), so these tests construct the post-CSE instruction
/// shapes directly — exactly what the compiled benchsuite kernels
/// contain (held by `fusion_fires_on_benchsuite_kernels` in
/// `tests/differential.rs`).
mod chains {
    use super::super::*;
    use crate::cost::ExecStats;
    use crate::memory::{DataVec, MemId, MemoryPool};
    use crate::value::{AccessorVal, MemRefVal, RtValue, Space};
    use crate::NdRangeSpec;

    const N: i64 = 16;

    /// One decoded-shaped plan over `[accessor f32, memref f32]`
    /// params (registers 0 and 1); registers from 2 up are free.
    fn plan_of(code: Vec<Instr>, reg_count: u32, mem_sites: u32) -> KernelPlan {
        KernelPlan {
            funcs: vec![FuncPlan {
                code,
                reg_count,
                params: vec![0, 1],
                has_item_param: false,
            }],
            dense_consts: Vec::new(),
            mem_sites,
            local_sites: 0,
        }
    }

    /// Execute `plan` on fresh buffers; returns stats plus both
    /// final buffer images.
    fn run(plan: &KernelPlan, threads: usize) -> (ExecStats, Vec<f32>, Vec<f32>) {
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32((0..N).map(|i| i as f32 * 0.5).collect()));
        let mb = pool.alloc(DataVec::F32((0..N).map(|i| 1.0 + i as f32).collect()));
        let args = [
            RtValue::Accessor(AccessorVal {
                mem: ma,
                range: [N, 1, 1],
                offset: [0, 0, 0],
                rank: 1,
                constant: false,
            }),
            RtValue::MemRef(MemRefVal {
                mem: mb,
                offset: 0,
                shape: [N, 1, 1],
                rank: 1,
                space: Space::Global,
            }),
        ];
        let nd = NdRangeSpec::d1(N, 4);
        let stats =
            crate::pool::run_one_launch(plan, &args, nd, &mut pool, threads).expect("plan runs");
        let DataVec::F32(a) = pool.data(MemId(0)) else {
            panic!()
        };
        let DataVec::F32(b) = pool.data(MemId(1)) else {
            panic!()
        };
        (stats, a.clone(), b.clone())
    }

    /// Fuse a clone, assert exactly which windows formed, and hold
    /// fused execution bit-identical to unfused at 1 and 4 workers.
    fn assert_chain_identical(plan: &KernelPlan, expect: &[&str]) -> KernelPlan {
        let mut fused = plan.clone();
        fuse_plan(&mut fused);
        assert_eq!(super::windows(&fused), expect, "windows formed");
        let (ref_stats, ref_a, ref_b) = run(plan, 1);
        for threads in [1_usize, 4] {
            let (stats, a, b) = run(&fused, threads);
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
            // r2 = gid, r3 = 0, r4 = 1.0f
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 3,
                val: Slot::Int(0),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(1.0),
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
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 11, 2);
        let fused = assert_chain_identical(&plan, &["acc.load.idx"]);
        // Only the 3-instruction load chain collapsed: 11 -> 9.
        assert_eq!(fused.funcs[0].code.len(), 9);
    }

    /// `b[gid] = b[gid] * 2 + 3` as the post-CSE multiply-accumulate
    /// shape: `Load`+`mulf`+`addf` fuses to one `LoadMulAddF` (the
    /// triple wins over the `Load`+`mulf` pair sharing its head); the
    /// store runs as decoded.
    #[test]
    fn load_mul_add_chain_beats_the_pair_deterministically() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 3,
                val: Slot::F32(2.0),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(3.0),
            },
            Instr::Load {
                dst: 5,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 0,
            },
            // Narrow the product to f32 but keep the sum f64-typed:
            // exercises the elided intermediate's exact narrowing.
            Instr::BinFloat {
                op: FloatBin::Mul,
                dst: 6,
                l: 5,
                r: 3,
                f32_out: true,
            },
            Instr::BinFloat {
                op: FloatBin::Add,
                dst: 7,
                l: 4,
                r: 6,
                f32_out: true,
            },
            Instr::Store {
                val: 7,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 1,
            },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 8, 2);
        // The pair loses to the chain sharing its head.
        assert_chain_identical(&plan, &["load.fma"]);
    }

    /// When the `addf` does not consume the product, the chain cannot
    /// fire — the `Load`+`mulf` *pair* must fuse instead (same head,
    /// shorter window): competing overlapping patterns resolve
    /// deterministically by decode shape, never by chance.
    #[test]
    fn pair_fires_when_the_triple_cannot() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 3,
                val: Slot::F32(2.0),
            },
            Instr::Load {
                dst: 5,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 0,
            },
            Instr::BinFloat {
                op: FloatBin::Mul,
                dst: 6,
                l: 5,
                r: 3,
                f32_out: true,
            },
            // The addf reads the *constant* twice, not the product —
            // the product flows to the store instead.
            Instr::BinFloat {
                op: FloatBin::Add,
                dst: 7,
                l: 3,
                r: 3,
                f32_out: true,
            },
            Instr::Store {
                val: 6,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 1,
            },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 8, 2);
        assert_chain_identical(&plan, &["load.mulf"]);
    }

    /// An `acc.subscript` result read by *both* a load and a later
    /// store (the post-CSE `c[i] = c[i] + x` shape — GEMM's shared
    /// view) blocks the eliding chain, so the addressing runs as
    /// decoded; the `Load` then heads the load-accumulate pair
    /// instead.
    #[test]
    fn multiply_read_subscript_view_takes_the_write_through_chain() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 3,
                val: Slot::Int(0),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(1.0),
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
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 9, 2);
        assert_chain_identical(&plan, &["load.addf"]);
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
            let chain_head = 6_u32;
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
                Instr::Const {
                    dst: 3,
                    val: Slot::Int(0),
                },
                Instr::VecCtor {
                    dst: 6,
                    comps: [2, 0, 0],
                    rank: 1,
                }, // pc 2: pre-initialize the id register
                Instr::CmpI {
                    pred: CmpPred::Eq,
                    dst: 4,
                    l: 2,
                    r: 3,
                }, // pc 3
                Instr::BranchIfFalse { cond: 4, target }, // pc 4
                Instr::BinInt {
                    op: IntBin::Add,
                    dst: 5,
                    l: 2,
                    r: 3,
                }, // pc 5: filler, skipped when gid != 0
                Instr::VecCtor {
                    dst: 6,
                    comps: [2, 0, 0],
                    rank: 1,
                }, // pc 6: chain head
                Instr::AccSubscript {
                    dst: 7,
                    acc: 0,
                    id: 6,
                }, // pc 7
                Instr::Load {
                    dst: 8,
                    mem: 7,
                    idx: [3, 0, 0],
                    rank: 1,
                    site: 0,
                }, // pc 8
                Instr::Store {
                    val: 8,
                    mem: 1,
                    idx: [2, 0, 0],
                    rank: 1,
                    site: 1,
                }, // pc 9
                Instr::Return {
                    vals: Vec::new().into_boxed_slice(),
                },
            ];
            plan_of(code, 9, 2)
        };

        // Branching to the head: the chain fuses (the whole window
        // maps to the superinstruction's pc — this exercises target
        // remapping across a multi-instruction window).
        assert_chain_identical(&build(true), &["acc.load.idx"]);

        // Branching to the subscript (a non-head member): the chain
        // may not fire.
        assert_chain_identical(&build(false), &[]);
    }

    /// The un-CSE'd DPC++-flow load shape: `vec.ctor` +
    /// `acc.subscript` + `Const 0` + `Load`, with the id vector and
    /// the constant *re-read by a later store chain* (exactly the
    /// compiled `a[i] = a[i] + 1` layout). The quad fuses
    /// write-through, so the later readers observe the kept register
    /// writes — bit-identically.
    #[test]
    fn un_csed_load_quad_fuses_and_writes_through() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(1.0),
            },
            // Load chain, un-CSE'd: id, view, const, load.
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
            Instr::Const {
                dst: 7,
                val: Slot::Int(0),
            },
            Instr::Load {
                dst: 8,
                mem: 6,
                idx: [7, 0, 0],
                rank: 1,
                site: 0,
            },
            Instr::BinFloat {
                op: FloatBin::Add,
                dst: 9,
                l: 8,
                r: 4,
                f32_out: true,
            },
            // Store chain, partially CSE'd: re-reads id 5 and const 7
            // — the quad's write-through registers.
            Instr::AccSubscript {
                dst: 10,
                acc: 0,
                id: 5,
            },
            Instr::Store {
                val: 9,
                mem: 10,
                idx: [7, 0, 0],
                rank: 1,
                site: 1,
            },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 11, 2);
        assert_chain_identical(&plan, &["acc.load.quad"]);
    }

    /// The un-CSE'd store quad: `vec.ctor` + `acc.subscript` +
    /// `Const 0` + `Store`. Write-through is a load-only notion, so
    /// nothing fuses here and the shape runs as decoded.
    #[test]
    fn un_csed_store_quad_fuses() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(2.5),
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
            Instr::Const {
                dst: 7,
                val: Slot::Int(0),
            },
            Instr::Store {
                val: 4,
                mem: 6,
                idx: [7, 0, 0],
                rank: 1,
                site: 0,
            },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 8, 1);
        assert_chain_identical(&plan, &[]);
    }

    /// Quad near miss: the interposed constant must *feed the load's
    /// index* — a constant defining an unrelated register between the
    /// subscript and the load blocks the quad (and everything else).
    #[test]
    fn unrelated_const_blocks_the_quad() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 3,
                val: Slot::Int(0),
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
            // Unrelated constant: the load indexes with r3, not r7.
            Instr::Const {
                dst: 7,
                val: Slot::Int(1),
            },
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
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 9, 2);
        assert_chain_identical(&plan, &[]);
    }

    /// A store chain whose id vector is re-read by a second subscript
    /// (a CSE'd id feeding two accessor writes): no store-headed
    /// window exists, so the shape runs as decoded.
    #[test]
    fn multiply_read_id_takes_the_write_through_store_chain() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 3,
                val: Slot::Int(0),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(1.5),
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
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 9, 3);
        assert_chain_identical(&plan, &[]);
    }

    /// A float op whose result feeds an adjacent store *and* a later
    /// reader: no window is headed by a float op, so the shape runs as
    /// decoded (`subf` keeps the load out of the `LoadBinFloat` path).
    #[test]
    fn multiply_read_accumulator_takes_the_write_through_pair() {
        let code = vec![
            Instr::ItemQuery {
                dst: 2,
                q: ItemQ::GlobalId,
                dim: DimSrc::Const(0),
            },
            Instr::Const {
                dst: 3,
                val: Slot::Int(0),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(0.25),
            },
            Instr::Load {
                dst: 5,
                mem: 1,
                idx: [2, 0, 0],
                rank: 1,
                site: 0,
            },
            // subf: not in the load-accumulate pair's op set, so the
            // load stays; the result is read by both stores below.
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
            // Second read of the accumulator: the kept write feeds it.
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
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ];
        let plan = plan_of(code, 9, 3);
        assert_chain_identical(&plan, &[]);
    }
}
