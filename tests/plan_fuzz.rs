//! Property-based `fuse_plan` testing: random **legal** plan bytecode,
//! executed fused and unfused, must stay bit-identical — outputs (memory,
//! i.e. every live register that was materialized by a store), statistics
//! and error ordering. The hand-written per-pattern unit tests in
//! `crates/sim/src/plan.rs` pin each peephole's near-misses; this suite
//! closes the gap between those examples and the full space of register
//! programs the decoder can emit.
//!
//! The generator builds structurally valid bytecode directly (typed
//! register pools, masked in-bounds indices, forward-only branches,
//! constant loop bounds), deliberately including the raw material of every
//! fusion pattern — `Load`+`addf`/`mulf`, `cmpi`+branch, the
//! `vec.ctor`+`acc.subscript`+`Load` accessor chain, the un-CSE'd
//! 4-instruction window (the `Const 0` re-materialized between the
//! subscript and the access), indirect-index chains whose subscript is
//! *loaded* out of a buffer, the `Load`+`mulf`+`addf` multiply-accumulate
//! chain, accumulate+`Store` — the shapes of the windows that were
//! retired because they did not pay (`muli`+`addi`, the store-side
//! accessor chains, the multiply-read views and accumulators the
//! write-through twins took), which must now run unfused and
//! bit-identically — *and* runtime
//! failures (division by zero) whose position fused and unfused
//! execution must agree on. Deterministic pin tests additionally hold a
//! superinstruction that fails **mid-chain** to the unfused error and to
//! the out-of-order scheduler's lexicographic `(launch, group)` failure
//! bound.

mod common;

use common::run_launch;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use sycl_mlir_repro::sim::plan::{CmpPred, FloatBin, FuncPlan, Instr, IntBin, ItemQ, Slot};
use sycl_mlir_repro::sim::{
    fuse_plan, AccessorVal, CostModel, DataVec, ExecLimits, ExecStats, KernelPlan, MemRefVal,
    MemoryPool, NdRangeSpec, PlanFacts, PlanLaunch, RtValue, SimError, Space,
};

const BUF_LEN: usize = 16;

/// Builds one random legal function plan over three parameters: an `f32`
/// memref in register 0, an `i64` memref in register 1 and an `f32`
/// accessor in register 2 (the raw material of the indexed-access
/// chains). Whole-register moves (`Copy`, `Select`) spread the memref and
/// the accessor over further registers, and accesses go through any of
/// them; the `direct` twin of a seed emits the same moves but accesses
/// registers 0 and 2 only, so the two plans agree in everything exactly
/// when a moved aggregate is the aggregate.
struct Gen {
    rng: TestRng,
    code: Vec<Instr>,
    /// Initialized integer-valued registers.
    ints: Vec<u32>,
    /// Initialized float-valued registers.
    floats: Vec<u32>,
    /// Registers holding the `f32` memref / the accessor: the parameter
    /// and its moved copies (all defined at top level, never skipped).
    mems: Vec<u32>,
    accs: Vec<u32>,
    /// Access through the parameter registers only.
    direct: bool,
    /// No two work-items touch one element unless both only read it: a
    /// store, and an access whose kind is drawn after its index, goes to
    /// the item's own slot (`8 + global id`), every other load to the
    /// lower half, which nothing writes. Such a plan means the same in
    /// every execution order.
    race_free: bool,
    next_reg: u32,
    sites: u32,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: TestRng::new(seed),
            code: Vec::new(),
            ints: Vec::new(),
            floats: Vec::new(),
            mems: vec![0],
            accs: vec![2],
            direct: false,
            race_free: false,
            // 0 = f32 memref param, 1 = i64 memref param, 2 = accessor.
            next_reg: 3,
            sites: 0,
        }
    }

    /// The twin of `Gen::new(seed)` that accesses the parameters only.
    fn direct(seed: u64) -> Gen {
        Gen {
            direct: true,
            ..Gen::new(seed)
        }
    }

    /// The order-independent population (see the `race_free` field).
    fn race_free(seed: u64) -> Gen {
        Gen {
            race_free: true,
            ..Gen::new(seed)
        }
    }

    /// A register holding the `f32` memref (the draw is made either way,
    /// so a seed's twins stay in step).
    fn f32_mem(&mut self) -> u32 {
        let i = self.rng.below(self.mems.len());
        if self.direct {
            0
        } else {
            self.mems[i]
        }
    }

    /// A register holding the accessor.
    fn acc(&mut self) -> u32 {
        let i = self.rng.below(self.accs.len());
        if self.direct {
            2
        } else {
            self.accs[i]
        }
    }

    /// Move the memref or the accessor into a fresh register: a `Copy`
    /// of one holder, or a `Select` between two.
    fn move_aggregate(&mut self) {
        let over_accs = self.rng.below(2) == 0;
        let holders = if over_accs { &self.accs } else { &self.mems };
        let (t, f) = (
            holders[self.rng.below(holders.len())],
            holders[self.rng.below(holders.len())],
        );
        let dst = self.fresh();
        if self.rng.below(2) == 0 {
            self.code.push(Instr::Copy { dst, src: t });
        } else {
            let c = self.pick_int();
            self.code.push(Instr::Select { dst, c, t, f });
        }
        if over_accs {
            self.accs.push(dst);
        } else {
            self.mems.push(dst);
        }
    }

    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn pick_int(&mut self) -> u32 {
        let i = self.rng.below(self.ints.len());
        self.ints[i]
    }

    fn pick_float(&mut self) -> u32 {
        let i = self.rng.below(self.floats.len());
        self.floats[i]
    }

    fn site(&mut self) -> u32 {
        let s = self.sites;
        self.sites += 1;
        s
    }

    /// An integer register holding `src & 15` — in-bounds by masking —
    /// or, in the race-free population, `src & 7`: the read-only half.
    fn mask_reg(&mut self, src: u32) -> u32 {
        let mask = self.fresh();
        let bits = if self.race_free {
            7
        } else {
            BUF_LEN as i64 - 1
        };
        self.code.push(Instr::Const {
            dst: mask,
            val: Slot::Int(bits),
        });
        let dst = self.fresh();
        self.code.push(Instr::BinInt {
            op: IntBin::And,
            dst,
            l: src,
            r: mask,
        });
        dst
    }

    /// An integer register holding an in-bounds index: `existing & 15`.
    fn masked_index(&mut self) -> u32 {
        let src = self.pick_int();
        self.mask_reg(src)
    }

    /// The index of an access that may be a store: any in-bounds one, or,
    /// in the race-free population, the item's own slot `8 + global id`.
    fn store_index(&mut self) -> u32 {
        if !self.race_free {
            return self.masked_index();
        }
        let (gid, half, dst) = (self.fresh(), self.fresh(), self.fresh());
        self.code.push(Instr::ItemQuery {
            dst: gid,
            q: ItemQ::GlobalId,
            dim: sycl_mlir_repro::sim::plan::DimSrc::Const(0),
        });
        self.code.push(Instr::Const {
            dst: half,
            val: Slot::Int(BUF_LEN as i64 / 2),
        });
        self.code.push(Instr::BinInt {
            op: IntBin::Add,
            dst,
            l: gid,
            r: half,
        });
        dst
    }

    fn int_bin_op(&mut self) -> IntBin {
        [
            IntBin::Add,
            IntBin::Sub,
            IntBin::Mul,
            IntBin::DivS, // division by zero must fail identically
            IntBin::RemS,
            IntBin::And,
            IntBin::Or,
            IntBin::Xor,
            IntBin::MinS,
            IntBin::MaxS,
        ][self.rng.below(10)]
    }

    fn float_bin_op(&mut self) -> FloatBin {
        [
            FloatBin::Add,
            FloatBin::Sub,
            FloatBin::Mul,
            FloatBin::Div,
            FloatBin::Min,
            FloatBin::Max,
        ][self.rng.below(6)]
    }

    fn cmp_pred(&mut self) -> CmpPred {
        [
            CmpPred::Eq,
            CmpPred::Ne,
            CmpPred::Slt,
            CmpPred::Sle,
            CmpPred::Sgt,
            CmpPred::Sge,
        ][self.rng.below(6)]
    }

    /// Emit one simple (non-block) instruction.
    fn simple(&mut self) {
        match self.rng.below(10) {
            0 => {
                let dst = self.fresh();
                let val = self.rng.in_range(-3, 6) as i64;
                self.code.push(Instr::Const {
                    dst,
                    val: Slot::Int(val),
                });
                self.ints.push(dst);
            }
            1 => {
                let dst = self.fresh();
                let v = self.rng.in_range(-4, 5) as f64 * 0.5;
                let val = if self.rng.below(2) == 0 {
                    Slot::F32(v as f32)
                } else {
                    Slot::F64(v)
                };
                self.code.push(Instr::Const { dst, val });
                self.floats.push(dst);
            }
            2 => {
                let (op, l, r) = (self.int_bin_op(), self.pick_int(), self.pick_int());
                let dst = self.fresh();
                self.code.push(Instr::BinInt { op, dst, l, r });
                self.ints.push(dst);
            }
            3 => {
                let op = self.float_bin_op();
                let (l, r) = (self.pick_float(), self.pick_float());
                let dst = self.fresh();
                let f32_out = self.rng.below(2) == 0;
                self.code.push(Instr::BinFloat {
                    op,
                    dst,
                    l,
                    r,
                    f32_out,
                });
                self.floats.push(dst);
            }
            4 => {
                let pred = self.cmp_pred();
                let (l, r) = (self.pick_int(), self.pick_int());
                let dst = self.fresh();
                self.code.push(Instr::CmpI { pred, dst, l, r });
                self.ints.push(dst);
            }
            5 => {
                // The muli + addi linear-addressing chain (no window:
                // must run as decoded).
                let (a, b, c) = (self.pick_int(), self.pick_int(), self.pick_int());
                let t = self.fresh();
                self.code.push(Instr::BinInt {
                    op: IntBin::Mul,
                    dst: t,
                    l: a,
                    r: b,
                });
                let dst = self.fresh();
                self.code.push(Instr::BinInt {
                    op: IntBin::Add,
                    dst,
                    l: t,
                    r: c,
                });
                self.ints.push(dst);
                // Sometimes also read the intermediate — the near-miss
                // that must block the fusion without changing results.
                if self.rng.below(4) == 0 {
                    self.ints.push(t);
                }
            }
            6 => {
                // Load + float accumulate (LoadBinFloat bait).
                let idx = self.masked_index();
                let loaded = self.fresh();
                let site = self.site();
                let mem = self.f32_mem();
                self.code.push(Instr::Load {
                    dst: loaded,
                    mem,
                    idx: [idx, 0, 0],
                    rank: 1,
                    site,
                });
                let other = self.pick_float();
                let dst = self.fresh();
                let (l, r) = if self.rng.below(2) == 0 {
                    (loaded, other)
                } else {
                    (other, loaded)
                };
                let op = if self.rng.below(2) == 0 {
                    FloatBin::Add
                } else {
                    FloatBin::Mul
                };
                self.code.push(Instr::BinFloat {
                    op,
                    dst,
                    l,
                    r,
                    f32_out: self.rng.below(2) == 0,
                });
                self.floats.push(dst);
                if self.rng.below(4) == 0 {
                    self.floats.push(loaded); // near-miss: second read
                }
            }
            7 => {
                // Plain load from the i64 buffer.
                let idx = self.masked_index();
                let dst = self.fresh();
                let site = self.site();
                self.code.push(Instr::Load {
                    dst,
                    mem: 1,
                    idx: [idx, 0, 0],
                    rank: 1,
                    site,
                });
                self.ints.push(dst);
            }
            8 => {
                // Store a float to the f32 buffer.
                let idx = self.store_index();
                let val = self.pick_float();
                let site = self.site();
                let mem = self.f32_mem();
                self.code.push(Instr::Store {
                    val,
                    mem,
                    idx: [idx, 0, 0],
                    rank: 1,
                    site,
                });
            }
            _ => {
                // A work-item position: makes later branch conditions
                // item-dependent.
                let dst = self.fresh();
                self.code.push(Instr::ItemQuery {
                    dst,
                    q: ItemQ::GlobalId,
                    dim: sycl_mlir_repro::sim::plan::DimSrc::Const(0),
                });
                self.ints.push(dst);
            }
        }
    }

    /// Emit the accessor addressing chain — `vec.ctor`, `acc.subscript`,
    /// then `Load`/`Store` (AccLoadIndexed bait; the store side has no
    /// window). The
    /// masked index and the inner zero index are materialized *before*
    /// the chain so the three members stay adjacent.
    fn acc_chain(&mut self) {
        let idx = self.store_index();
        let zero = self.fresh();
        self.code.push(Instr::Const {
            dst: zero,
            val: Slot::Int(0),
        });
        let id = self.fresh();
        self.code.push(Instr::VecCtor {
            dst: id,
            comps: [idx, 0, 0],
            rank: 1,
        });
        let view = self.fresh();
        let acc = self.acc();
        self.code.push(Instr::AccSubscript { dst: view, acc, id });
        if self.rng.below(2) == 0 {
            let dst = self.fresh();
            let site = self.site();
            self.code.push(Instr::Load {
                dst,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
            self.floats.push(dst);
        } else {
            let val = self.pick_float();
            let site = self.site();
            self.code.push(Instr::Store {
                val,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
        }
        // Near-miss: a second read of the subscripted view blocks the
        // chain (the view register is no longer elidable) without
        // changing results.
        if self.rng.below(4) == 0 {
            let dst = self.fresh();
            let site = self.site();
            self.code.push(Instr::Load {
                dst,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
            self.floats.push(dst);
        }
    }

    /// Emit the un-CSE'd DPC++ accessor chain — `vec.ctor`,
    /// `acc.subscript`, then a *freshly materialized* `Const 0` and the
    /// `Load`/`Store` (AccLoadQuad bait; the store side has no window):
    /// unoptimized
    /// DPC++ re-materializes the inner zero index between the subscript
    /// and the access instead of hoisting it, so the 4-instruction
    /// window must capture the interposed constant.
    fn quad_chain(&mut self) {
        let idx = self.store_index();
        // Near-miss material: an earlier zero the access can index with
        // instead of the chain's own constant, breaking the
        // `idx == cst` guard while keeping the access in bounds.
        let early_zero = if self.rng.below(4) == 0 {
            let r = self.fresh();
            self.code.push(Instr::Const {
                dst: r,
                val: Slot::Int(0),
            });
            Some(r)
        } else {
            None
        };
        let id = self.fresh();
        self.code.push(Instr::VecCtor {
            dst: id,
            comps: [idx, 0, 0],
            rank: 1,
        });
        let view = self.fresh();
        let acc = self.acc();
        self.code.push(Instr::AccSubscript { dst: view, acc, id });
        let zero = self.fresh();
        self.code.push(Instr::Const {
            dst: zero,
            val: Slot::Int(0),
        });
        let access_idx = early_zero.unwrap_or(zero);
        if self.rng.below(2) == 0 {
            let dst = self.fresh();
            let site = self.site();
            self.code.push(Instr::Load {
                dst,
                mem: view,
                idx: [access_idx, 0, 0],
                rank: 1,
                site,
            });
            self.floats.push(dst);
        } else {
            let val = self.pick_float();
            let site = self.site();
            self.code.push(Instr::Store {
                val,
                mem: view,
                idx: [access_idx, 0, 0],
                rank: 1,
                site,
            });
        }
        // The quad keeps the constant's register write: reading it later
        // is legal whether or not the window fused (no read-count
        // legality on the quad).
        if self.rng.below(4) == 0 {
            self.ints.push(zero);
        }
    }

    /// Indirect-index (gather) bait: the accessor subscript is computed
    /// from a value *loaded* out of the i64 buffer — the
    /// register-computed-subscript shape of the sparse workloads. The
    /// chain downstream of the indirection is emitted in the un-CSE'd
    /// quad order and must still fuse.
    fn gather_chain(&mut self) {
        let iidx = self.masked_index();
        let loaded = self.fresh();
        let site = self.site();
        self.code.push(Instr::Load {
            dst: loaded,
            mem: 1,
            idx: [iidx, 0, 0],
            rank: 1,
            site,
        });
        let idx = self.mask_reg(loaded);
        let id = self.fresh();
        self.code.push(Instr::VecCtor {
            dst: id,
            comps: [idx, 0, 0],
            rank: 1,
        });
        let view = self.fresh();
        let acc = self.acc();
        self.code.push(Instr::AccSubscript { dst: view, acc, id });
        let zero = self.fresh();
        self.code.push(Instr::Const {
            dst: zero,
            val: Slot::Int(0),
        });
        // The gathered index is any slot of the lower half: in the
        // race-free population, one to read only.
        if self.rng.below(2) == 0 || self.race_free {
            let dst = self.fresh();
            let site = self.site();
            self.code.push(Instr::Load {
                dst,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
            self.floats.push(dst);
        } else {
            let val = self.pick_float();
            let site = self.site();
            self.code.push(Instr::Store {
                val,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
        }
    }

    /// Accumulate-into-view bait: subscript once, then both read *and*
    /// write through the view. The multiply-read view blocks the eliding
    /// chain and there is no write-through twin, so the addressing (and
    /// an accumulator that is also re-read) runs as decoded.
    fn view_accum(&mut self) {
        let idx = self.store_index();
        let zero = self.fresh();
        self.code.push(Instr::Const {
            dst: zero,
            val: Slot::Int(0),
        });
        let id = self.fresh();
        self.code.push(Instr::VecCtor {
            dst: id,
            comps: [idx, 0, 0],
            rank: 1,
        });
        let view = self.fresh();
        let acc = self.acc();
        self.code.push(Instr::AccSubscript { dst: view, acc, id });
        if self.rng.below(2) == 0 {
            // Read-modify-write: the load chain writes the view through,
            // the accumulate+store pair follows.
            let loaded = self.fresh();
            let site = self.site();
            self.code.push(Instr::Load {
                dst: loaded,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
            let other = self.pick_float();
            let t = self.fresh();
            let op = if self.rng.below(2) == 0 {
                FloatBin::Add
            } else {
                FloatBin::Mul
            };
            self.code.push(Instr::BinFloat {
                op,
                dst: t,
                l: loaded,
                r: other,
                f32_out: self.rng.below(2) == 0,
            });
            let site = self.site();
            self.code.push(Instr::Store {
                val: t,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
            // Re-reading the accumulator demotes the store pair to its
            // write-through form.
            if self.rng.below(4) == 0 {
                self.floats.push(t);
            }
        } else {
            // Write-then-read: the store chain writes the view through,
            // the trailing load reads it back.
            let val = self.pick_float();
            let site = self.site();
            self.code.push(Instr::Store {
                val,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
            let dst = self.fresh();
            let site = self.site();
            self.code.push(Instr::Load {
                dst,
                mem: view,
                idx: [zero, 0, 0],
                rank: 1,
                site,
            });
            self.floats.push(dst);
        }
    }

    /// Emit the multiply-accumulate chain: `Load` + `mulf` + `addf`
    /// (LoadMulAddF bait) with random operand orders and narrowings.
    fn fma_chain(&mut self) {
        let idx = self.masked_index();
        let loaded = self.fresh();
        let site = self.site();
        let mem = self.f32_mem();
        self.code.push(Instr::Load {
            dst: loaded,
            mem,
            idx: [idx, 0, 0],
            rank: 1,
            site,
        });
        let b = self.pick_float();
        let prod = self.fresh();
        let (ml, mr) = if self.rng.below(2) == 0 {
            (loaded, b)
        } else {
            (b, loaded)
        };
        self.code.push(Instr::BinFloat {
            op: FloatBin::Mul,
            dst: prod,
            l: ml,
            r: mr,
            f32_out: self.rng.below(2) == 0,
        });
        let c = self.pick_float();
        let dst = self.fresh();
        let (al, ar) = if self.rng.below(2) == 0 {
            (prod, c)
        } else {
            (c, prod)
        };
        self.code.push(Instr::BinFloat {
            op: FloatBin::Add,
            dst,
            l: al,
            r: ar,
            f32_out: self.rng.below(2) == 0,
        });
        self.floats.push(dst);
        // Near-misses: re-reading the loaded value or the product blocks
        // the chain (the pair prefix may still fuse).
        if self.rng.below(4) == 0 {
            self.floats.push(loaded);
        }
        if self.rng.below(4) == 0 {
            self.floats.push(prod);
        }
    }

    /// Emit the accumulate-then-store pair: float binary op + `Store`
    /// (no window; the op may still close a load-headed one).
    fn store_accum(&mut self) {
        let idx = self.store_index();
        let (l, r) = (self.pick_float(), self.pick_float());
        let t = self.fresh();
        let op = self.float_bin_op();
        self.code.push(Instr::BinFloat {
            op,
            dst: t,
            l,
            r,
            f32_out: self.rng.below(2) == 0,
        });
        let site = self.site();
        let mem = self.f32_mem();
        self.code.push(Instr::Store {
            val: t,
            mem,
            idx: [idx, 0, 0],
            rank: 1,
            site,
        });
        // Near-miss: the accumulated value is also read later.
        if self.rng.below(4) == 0 {
            self.floats.push(t);
        }
    }

    /// Emit an `if`-shaped block: `cmpi` + `BranchIfFalse` around a
    /// short straight-line body. Registers defined inside
    /// are scoped out afterwards (the branch may skip them).
    fn if_block(&mut self) {
        let pred = self.cmp_pred();
        let (l, r) = (self.pick_int(), self.pick_int());
        let cond = self.fresh();
        self.code.push(Instr::CmpI {
            pred,
            dst: cond,
            l,
            r,
        });
        if self.rng.below(4) == 0 {
            self.ints.push(cond); // near-miss: condition also read later
        }
        let branch_at = self.code.len();
        self.code.push(Instr::BranchIfFalse {
            cond,
            target: u32::MAX, // patched below
        });
        let (ints, floats) = (self.ints.len(), self.floats.len());
        for _ in 0..self.rng.below(3) + 1 {
            self.simple();
        }
        self.ints.truncate(ints);
        self.floats.truncate(floats);
        let after = self.code.len() as u32;
        let Instr::BranchIfFalse { target, .. } = &mut self.code[branch_at] else {
            unreachable!()
        };
        *target = after;
    }

    /// Emit a constant-bound counted loop around a short body.
    fn for_loop(&mut self) {
        let (lb, ub, step) = (self.fresh(), self.fresh(), self.fresh());
        self.code.push(Instr::Const {
            dst: lb,
            val: Slot::Int(0),
        });
        self.code.push(Instr::Const {
            dst: ub,
            val: Slot::Int(self.rng.in_range(1, 4) as i64),
        });
        self.code.push(Instr::Const {
            dst: step,
            val: Slot::Int(1),
        });
        let iv = self.fresh();
        let enter_at = self.code.len();
        self.code.push(Instr::ForEnter {
            lb,
            ub,
            step,
            iv,
            exit: u32::MAX, // patched below
        });
        let body = self.code.len() as u32;
        self.ints.push(iv);
        let (ints, floats) = (self.ints.len(), self.floats.len());
        for _ in 0..self.rng.below(3) + 1 {
            self.simple();
        }
        self.ints.truncate(ints);
        self.floats.truncate(floats);
        self.code.push(Instr::ForNext { iv, step, ub, body });
        let exit_pc = self.code.len() as u32;
        let Instr::ForEnter { exit, .. } = &mut self.code[enter_at] else {
            unreachable!()
        };
        *exit = exit_pc;
    }

    fn finish(mut self) -> KernelPlan {
        // Seed the pools so every picker has material.
        let seed_int = self.fresh();
        self.code.insert(
            0,
            Instr::Const {
                dst: seed_int,
                val: Slot::Int(3),
            },
        );
        let seed_float = self.fresh();
        self.code.insert(
            1,
            Instr::Const {
                dst: seed_float,
                val: Slot::F32(1.5),
            },
        );
        self.ints.push(seed_int);
        self.floats.push(seed_float);

        let len = self.rng.below(24) + 8;
        for _ in 0..len {
            match self.rng.below(14) {
                0 => self.if_block(),
                1 => self.for_loop(),
                2 if self.code.len() > 4 => self.code.push(Instr::Barrier),
                3 => self.acc_chain(),
                4 => self.fma_chain(),
                5 => self.store_accum(),
                6 => self.quad_chain(),
                7 => self.gather_chain(),
                8 => self.view_accum(),
                9 => self.move_aggregate(),
                _ => self.simple(),
            }
        }

        // Materialize live registers: without these stores the register
        // file would be unobservable through a launch.
        for _ in 0..3 {
            let idx = self.store_index();
            let val = self.pick_float();
            let site = self.site();
            let mem = self.f32_mem();
            self.code.push(Instr::Store {
                val,
                mem,
                idx: [idx, 0, 0],
                rank: 1,
                site,
            });
        }
        let iidx = self.store_index();
        let ival = self.pick_int();
        let isite = self.site();
        self.code.push(Instr::Store {
            val: ival,
            mem: 1,
            idx: [iidx, 0, 0],
            rank: 1,
            site: isite,
        });
        self.code.push(Instr::Return {
            vals: Vec::new().into_boxed_slice(),
        });

        KernelPlan {
            funcs: vec![FuncPlan {
                code: self.code,
                reg_count: self.next_reg,
                params: vec![0, 1, 2],
                has_item_param: false,
            }],
            dense_consts: Vec::new(),
            mem_sites: self.sites,
            local_sites: 0,
        }
    }
}

/// An outcome plus all three final buffer images (f32 memref, i64 memref,
/// accessor-backed f32).
type Executed = (Result<ExecStats, SimError>, Vec<f32>, Vec<i64>, Vec<f32>);

/// Run `plan` against fresh buffers under `cost`, with the verifier's
/// `facts` attached (proven sites then take the unchecked-index fast
/// path).
fn execute_with(plan: &KernelPlan, facts: &PlanFacts, cost: &CostModel) -> Executed {
    let mut pool = MemoryPool::new();
    let mf = pool.alloc(DataVec::F32(
        (0..BUF_LEN).map(|i| i as f32 * 0.25).collect(),
    ));
    let mi = pool.alloc(DataVec::I64((0..BUF_LEN).map(|i| i as i64 - 4).collect()));
    let ma = pool.alloc(DataVec::F32(
        (0..BUF_LEN).map(|i| i as f32 * 0.5 - 2.0).collect(),
    ));
    let args = [
        RtValue::MemRef(MemRefVal {
            mem: mf,
            offset: 0,
            shape: [BUF_LEN as i64, 1, 1],
            rank: 1,
            space: Space::Global,
        }),
        RtValue::MemRef(MemRefVal {
            mem: mi,
            offset: 0,
            shape: [BUF_LEN as i64, 1, 1],
            rank: 1,
            space: Space::Global,
        }),
        RtValue::Accessor(AccessorVal {
            mem: ma,
            range: [BUF_LEN as i64, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        }),
    ];
    let launch = PlanLaunch::Kernel {
        plan,
        args: &args,
        nd: NdRangeSpec::d1(8, 4),
        facts,
    };
    let result = run_launch(launch, &mut pool, 1, &ExecLimits::none(), cost);
    let DataVec::F32(f) = pool.data(mf) else {
        panic!()
    };
    let DataVec::I64(i) = pool.data(mi) else {
        panic!()
    };
    let DataVec::F32(a) = pool.data(ma) else {
        panic!()
    };
    (result, f.clone(), i.clone(), a.clone())
}

/// [`execute_with`] nothing proven, under the default cost model.
fn execute(plan: &KernelPlan) -> Executed {
    execute_with(plan, &PlanFacts::NONE, &CostModel::default())
}

/// Mnemonics of the windows fusion formed in `plan`, in code order.
fn windows(plan: &KernelPlan) -> Vec<&'static str> {
    plan.superinstructions().map(Instr::mnemonic).collect()
}

/// One seed's round trip: generate, fuse a clone, execute both, compare
/// everything. Returns the mnemonics of the windows that fused.
fn check_seed(seed: u64) -> Vec<&'static str> {
    let plan = Gen::new(seed).finish();
    let mut fused = plan.clone();
    fuse_plan(&mut fused);
    let (base, base_f, base_i, base_a) = execute(&plan);
    let (opt, opt_f, opt_i, opt_a) = execute(&fused);
    match (&base, &opt) {
        (Ok(b), Ok(o)) => assert_eq!(b, o, "stats diverge (seed {seed})"),
        (Err(b), Err(o)) => assert_eq!(b.message(), o.message(), "errors diverge (seed {seed})"),
        _ => panic!(
            "one execution failed, the other did not (seed {seed}): unfused={base:?} fused={opt:?}"
        ),
    }
    // Buffer images must match bit-for-bit even on the error path: both
    // engines stop at the same failing work-group.
    assert_eq!(
        base_f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        opt_f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "f32 buffer diverges (seed {seed})"
    );
    assert_eq!(base_i, opt_i, "i64 buffer diverges (seed {seed})");
    assert_eq!(
        base_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        opt_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "accessor buffer diverges (seed {seed})"
    );
    // Accessing a moved memref or accessor is accessing the parameter.
    let (direct, direct_f, direct_i, direct_a) = execute(&Gen::direct(seed).finish());
    assert_eq!(
        base.as_ref().map_err(SimError::message),
        direct.as_ref().map_err(SimError::message),
        "moved aggregates change the outcome (seed {seed})"
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        (bits(&base_f), base_i, bits(&base_a)),
        (bits(&direct_f), direct_i, bits(&direct_a)),
        "moved aggregates change a buffer (seed {seed})"
    );
    windows(&fused)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fused and unfused execution of random legal bytecode agree on
    /// registers-made-observable, statistics and error ordering.
    #[test]
    fn fused_random_bytecode_matches_unfused(seed in 0u64..u64::MAX) {
        check_seed(seed);
    }
}

/// The generator must actually feed the fusion pass — otherwise the
/// property above passes vacuously on unfusable programs. Every window
/// of the pattern table must fire broadly.
#[test]
fn random_bytecode_exercises_fusion_broadly() {
    let mut fired = std::collections::BTreeMap::new();
    for seed in 0..128_u64 {
        for w in check_seed(seed * 7919 + 13) {
            *fired.entry(w).or_insert(0_u32) += 1;
        }
    }
    println!("windows fused over the seed population: {fired:?}");
    for (window, floor) in [
        (&["load.addf", "load.mulf"][..], 50),
        (&["acc.load.idx"][..], 25),
        (&["load.fma"][..], 25),
        (&["acc.load.quad"][..], 25),
    ] {
        let n: u32 = window.iter().filter_map(|w| fired.get(w)).sum();
        assert!(
            n > floor,
            "expected {window:?} to fire broadly (> {floor}), got {n}"
        );
    }
}

/// Both sides of the fusion pass over the fixed seed population, counting
/// what fired: the un-CSE'd 4-instruction window — the one write-through
/// window — must fire broadly in the fused plan, the generated plan must
/// hold no superinstruction at all (the pass is their only source), and
/// execution on either side stays bit-identical to the unfused baseline.
#[test]
fn fuse_level_sweep_pins_quad_and_write_through_gating() {
    for fuse in [false, true] {
        let mut quads = 0_usize;
        for seed in 0..128_u64 {
            let seed = seed * 7919 + 13;
            let plan = Gen::new(seed).finish();
            let mut fused = plan.clone();
            if fuse {
                fuse_plan(&mut fused);
            }
            let formed = windows(&fused);
            quads += formed.iter().filter(|w| **w == "acc.load.quad").count();
            assert!(
                fuse || formed.is_empty(),
                "the generated plan holds superinstructions (seed {seed}): {formed:?}"
            );

            let (base, base_f, base_i, base_a) = execute(&plan);
            let (run, f, i, a) = execute(&fused);
            match (&base, &run) {
                (Ok(b), Ok(o)) => assert_eq!(b, o, "stats diverge (seed {seed}, fuse={fuse})"),
                (Err(b), Err(o)) => assert_eq!(
                    b.message(),
                    o.message(),
                    "errors diverge (seed {seed}, fuse={fuse})"
                ),
                _ => panic!(
                    "one execution failed, the other did not \
                     (seed {seed}, fuse={fuse}): unfused={base:?} fused={run:?}"
                ),
            }
            assert_eq!(
                base_f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                f.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "f32 buffer diverges (seed {seed}, fuse={fuse})"
            );
            assert_eq!(base_i, i, "i64 buffer diverges (seed {seed}, fuse={fuse})");
            assert_eq!(
                base_a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "accessor buffer diverges (seed {seed}, fuse={fuse})"
            );
        }
        if fuse {
            assert!(
                quads > 25,
                "expected the 4-instruction window to fire broadly, got {quads}"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Deterministic pins: mid-chain errors and the scheduler's failure bound
// ----------------------------------------------------------------------

/// A plan whose work-items of groups `>= fail_from` run a
/// `Load`+`mulf`+`addf` chain that loads an *integer* — the `mulf`, the
/// chain's second member, raises "float op on non-float". Work-items
/// first store a marker so the set of groups that ran is observable.
fn mid_chain_failing_plan(fail_from: i64) -> KernelPlan {
    // Fixed layout: pcs 0..=9 set up registers, the guard branches to the
    // chain head at pc 12 (so the head is a jump target — legal; only
    // non-head members must not be) and the taken-path jump at pc 11
    // skips to the return at pc 16.
    let code = vec![
        // r3 = global id, r4 = group id, r5 = 0, r6 = f32 1.5, r7 = bound.
        Instr::ItemQuery {
            dst: 3,
            q: ItemQ::GlobalId,
            dim: sycl_mlir_repro::sim::plan::DimSrc::Const(0),
        },
        Instr::ItemQuery {
            dst: 4,
            q: ItemQ::GroupId,
            dim: sycl_mlir_repro::sim::plan::DimSrc::Const(0),
        },
        Instr::Const {
            dst: 5,
            val: Slot::Int(0),
        },
        Instr::Const {
            dst: 6,
            val: Slot::F32(1.5),
        },
        Instr::Const {
            dst: 7,
            val: Slot::Int(fail_from),
        },
        // Marker: f32buf[gid & 15] = gid as f32.
        Instr::Const {
            dst: 8,
            val: Slot::Int(BUF_LEN as i64 - 1),
        },
        Instr::BinInt {
            op: IntBin::And,
            dst: 9,
            l: 3,
            r: 8,
        },
        Instr::SiToFp {
            dst: 10,
            x: 3,
            f32_out: true,
        },
        Instr::Store {
            val: 10,
            mem: 0,
            idx: [9, 0, 0],
            rank: 1,
            site: 0,
        },
        // if group_id >= fail_from, run the failing chain.
        Instr::CmpI {
            pred: CmpPred::Slt,
            dst: 11,
            l: 4,
            r: 7,
        },
        Instr::BranchIfFalse {
            cond: 11,
            target: 12, // the chain head
        },
        Instr::Jump { target: 16 }, // early groups skip to the return
        // t = load i64buf[0] (an Int!); u = t * 1.5 raises
        // "float op on non-float" from the chain's second member.
        Instr::Load {
            dst: 12,
            mem: 1,
            idx: [5, 0, 0],
            rank: 1,
            site: 1,
        },
        Instr::BinFloat {
            op: FloatBin::Mul,
            dst: 13,
            l: 12,
            r: 6,
            f32_out: false,
        },
        Instr::BinFloat {
            op: FloatBin::Add,
            dst: 14,
            l: 13,
            r: 6,
            f32_out: true,
        },
        Instr::Store {
            val: 14,
            mem: 0,
            idx: [5, 0, 0],
            rank: 1,
            site: 2,
        },
        Instr::Return {
            vals: Vec::new().into_boxed_slice(),
        },
    ];
    KernelPlan {
        funcs: vec![FuncPlan {
            code,
            reg_count: 15,
            params: vec![0, 1, 2],
            has_item_param: false,
        }],
        dense_consts: Vec::new(),
        mem_sites: 3,
        local_sites: 0,
    }
}

/// A plan that divides by zero in every work-item: a distinct error text,
/// so the *reported* error identifies which launch the scheduler picked.
fn div_zero_plan() -> KernelPlan {
    let code = vec![
        Instr::Const {
            dst: 3,
            val: Slot::Int(1),
        },
        Instr::Const {
            dst: 4,
            val: Slot::Int(0),
        },
        Instr::BinInt {
            op: IntBin::DivS,
            dst: 5,
            l: 3,
            r: 4,
        },
        Instr::Return {
            vals: Vec::new().into_boxed_slice(),
        },
    ];
    KernelPlan {
        funcs: vec![FuncPlan {
            code,
            reg_count: 6,
            params: vec![0, 1, 2],
            has_item_param: false,
        }],
        dense_consts: Vec::new(),
        mem_sites: 0,
        local_sites: 0,
    }
}

/// A superinstruction that fails **mid-chain** must raise exactly the
/// error of the unfused sequence, at the same `(launch, group)` position,
/// and the out-of-order scheduler's lexicographic failure bound must
/// still prune past it correctly: with a second launch failing everywhere
/// under a *different* error text, the first launch's group-3 error must
/// win under every thread count, fused and unfused.
#[test]
fn mid_chain_error_matches_unfused_and_bound_prunes_correctly() {
    use sycl_mlir_repro::sim::{run_plan_graph_report, LaunchDag};

    let unfused_a = mid_chain_failing_plan(3);
    let mut fused_a = unfused_a.clone();
    fuse_plan(&mut fused_a);
    // The failing chain fused (Load+mulf+addf).
    assert!(
        windows(&fused_a).contains(&"load.fma"),
        "the failing Load+mulf+addf chain must fuse"
    );
    let unfused_b = div_zero_plan();
    let mut fused_b = unfused_b.clone();
    fuse_plan(&mut fused_b);

    let nd = NdRangeSpec::d1(32, 4); // 8 groups per launch
    let run = |a: &KernelPlan, b: &KernelPlan, threads: usize| {
        let mut pool = MemoryPool::new();
        let mf = pool.alloc(DataVec::F32(vec![-1.0; BUF_LEN]));
        let mi = pool.alloc(DataVec::I64(vec![7; BUF_LEN]));
        let ma = pool.alloc(DataVec::F32(vec![0.0; BUF_LEN]));
        let acc = RtValue::Accessor(AccessorVal {
            mem: ma,
            range: [BUF_LEN as i64, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        });
        let args = [
            RtValue::MemRef(MemRefVal {
                mem: mf,
                offset: 0,
                shape: [BUF_LEN as i64, 1, 1],
                rank: 1,
                space: Space::Global,
            }),
            RtValue::MemRef(MemRefVal {
                mem: mi,
                offset: 0,
                shape: [BUF_LEN as i64, 1, 1],
                rank: 1,
                space: Space::Global,
            }),
            acc,
        ];
        let launches = [
            PlanLaunch::kernel(a, &args, nd),
            PlanLaunch::kernel(b, &args, nd),
        ];
        let err = run_plan_graph_report(
            &launches,
            &LaunchDag::independent(2),
            &mut pool,
            &CostModel::default(),
            threads,
            false,
            &ExecLimits::none(),
        )
        .and_then(|report| report.into_result())
        .expect_err("both launches fail");
        let DataVec::F32(f) = pool.data(mf) else {
            panic!()
        };
        (err.message(), f.clone())
    };

    for threads in [1_usize, 4] {
        let (unfused_msg, unfused_buf) = run(&unfused_a, &unfused_b, threads);
        let (fused_msg, fused_buf) = run(&fused_a, &fused_b, threads);
        // The minimal failure is launch 0, group 3 — the mid-chain mulf
        // error, never launch 1's division by zero.
        assert_eq!(
            unfused_msg, "float op on non-float (launch 0, work-group 3)",
            "threads={threads}: wrong launch won the failure bound"
        );
        assert_eq!(
            fused_msg, unfused_msg,
            "threads={threads}: fused chain reports a different error"
        );
        if threads == 1 {
            // Serial claim order makes the post-failure buffer state
            // deterministic: groups 0..=2 stored their markers, and so did
            // all four lanes of group 3 — its one sub-group runs in
            // lockstep, so every lane had passed the marker store when
            // the first of them (gid 12) failed in the chain; what a failed
            // work-group leaves behind is defined per sub-group, not per
            // item — and everything past the bound, including all of
            // launch 1, was pruned. (At threads > 1 groups beyond the bound
            // may race ahead before it tightens, so only the reported
            // error is pinned there.)
            let mut expect = vec![-1.0_f32; BUF_LEN];
            for (gid, slot) in expect.iter_mut().enumerate() {
                *slot = gid as f32;
            }
            assert_eq!(unfused_buf, expect, "unfused post-failure buffer");
            assert_eq!(fused_buf, expect, "fused post-failure buffer");
        } else {
            // Keep the buffers bound so the closure's returns stay used.
            let _ = (&fused_buf, &unfused_buf);
        }
    }
}

// ----------------------------------------------------------------------
// The lane axis: lockstep execution against item order, and the audit
// ----------------------------------------------------------------------

/// Memory, error text and every counter but `global_transactions` (which
/// the sub-group size defines) of one execution.
fn order_free_view(run: &Executed) -> (Result<ExecStats, String>, Vec<u32>, &[i64], Vec<u32>) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let outcome = match &run.0 {
        Ok(stats) => Ok(ExecStats {
            global_transactions: 0,
            device_cycles: 0.0,
            ..stats.clone()
        }),
        Err(e) => Err(e.message()),
    };
    (outcome, bits(&run.1), &run.2, bits(&run.3))
}

/// Random **race-free** bytecode means the same in every execution
/// order, so the lockstep executor must agree with serial item order on
/// it — and a sub-group size of 1 *is* serial item order: one lane per
/// dispatch, sub-groups in item order. Every race-free plan, as decoded
/// and fused, runs at sub-group sizes 1 and 16, and at 16 under the audit
/// (sub-groups and split halves in the opposite order, proven sites
/// checked, with the verifier's facts attached): the error text always,
/// and the memory and every counter but `global_transactions` of a run
/// that completed, must be equal. (What a *failed* work-group leaves in
/// memory is defined per sub-group, not per item, so it is not compared.)
#[test]
fn lockstep_matches_item_order_on_race_free_bytecode() {
    use sycl_mlir_repro::sim::plan::audit_on_this_thread;
    use sycl_mlir_repro::sim::verify_plan;
    let cost = |subgroup_size| CostModel {
        subgroup_size,
        ..CostModel::default()
    };
    let (mut completed, mut failed) = (0, 0);
    for seed in 0..128_u64 {
        let seed = seed * 7919 + 13;
        let plan = Gen::race_free(seed).finish();
        let facts = verify_plan(&plan)
            .unwrap_or_else(|errs| panic!("race-free seed {seed} must verify clean: {errs:?}"));
        let mut fused = plan.clone();
        fuse_plan(&mut fused);
        for p in [&plan, &fused] {
            let serial = execute_with(p, &PlanFacts::NONE, &cost(1));
            let lockstep = execute_with(p, &PlanFacts::NONE, &cost(16));
            audit_on_this_thread(true);
            let audited = execute_with(p, &facts, &cost(16));
            audit_on_this_thread(false);
            match &serial.0 {
                Ok(_) => {
                    completed += 1;
                    assert_eq!(
                        order_free_view(&serial),
                        order_free_view(&lockstep),
                        "lockstep diverges from item order (seed {seed})"
                    );
                    // Same sub-group size: the transactions and cycles too.
                    assert_eq!(
                        (&lockstep.0, order_free_view(&lockstep)),
                        (&audited.0, order_free_view(&audited)),
                        "the audit run diverges (seed {seed})"
                    );
                }
                Err(_) => {
                    failed += 1;
                    for (other, what) in [(&lockstep, "lockstep"), (&audited, "the audit run")] {
                        assert_eq!(
                            order_free_view(&serial).0,
                            order_free_view(other).0,
                            "{what} fails differently from item order (seed {seed})"
                        );
                    }
                }
            }
        }
    }
    assert!(
        completed > 100 && failed >= 10,
        "the population must cover both outcomes: {completed} completed, {failed} failed"
    );
}

// ----------------------------------------------------------------------
// The op-budget axis: limit trips must be fuse-invariant
// ----------------------------------------------------------------------

/// Execute `plan` alone (threads = 1, serial claim order) under `limits`.
fn execute_limited(plan: &KernelPlan, limits: &ExecLimits) -> Result<ExecStats, SimError> {
    let mut pool = MemoryPool::new();
    let mf = pool.alloc(DataVec::F32(vec![-1.0; BUF_LEN]));
    let mi = pool.alloc(DataVec::I64(vec![7; BUF_LEN]));
    let ma = pool.alloc(DataVec::F32(vec![0.0; BUF_LEN]));
    let args = [
        RtValue::MemRef(MemRefVal {
            mem: mf,
            offset: 0,
            shape: [BUF_LEN as i64, 1, 1],
            rank: 1,
            space: Space::Global,
        }),
        RtValue::MemRef(MemRefVal {
            mem: mi,
            offset: 0,
            shape: [BUF_LEN as i64, 1, 1],
            rank: 1,
            space: Space::Global,
        }),
        RtValue::Accessor(AccessorVal {
            mem: ma,
            range: [BUF_LEN as i64, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        }),
    ];
    let launch = PlanLaunch::kernel(plan, &args, NdRangeSpec::d1(32, 4));
    run_launch(launch, &mut pool, 1, limits, &CostModel::default())
}

/// The op budget is **fuse-invariant**: a superinstruction settles the
/// full weight of its members, so for *every* budget value the unfused
/// and the fused plan must agree — both complete with identical
/// statistics, or both trip `LimitExceeded { kind: Ops }` at the same
/// work-group. Swept exhaustively from a starving budget of 1 past the
/// kernel's total op count.
#[test]
fn op_budget_trips_are_fuse_invariant() {
    use sycl_mlir_repro::sim::{ExecLimits, LimitKind};

    // The guard never fires: a clean kernel with fusable chains.
    let plan = mid_chain_failing_plan(1 << 40);
    let mut fused = plan.clone();
    fuse_plan(&mut fused);
    assert!(
        windows(&fused).contains(&"load.fma"),
        "the template must actually fuse"
    );

    let (mut trips, mut completions) = (0_u32, 0_u32);
    for budget in 1..=512_u64 {
        let limits = ExecLimits {
            max_ops: Some(budget),
            ..ExecLimits::none()
        };
        let fused_run = execute_limited(&fused, &limits);
        match execute_limited(&plan, &limits) {
            Ok(stats) => {
                completions += 1;
                assert_eq!(
                    fused_run.expect("fused run must also complete"),
                    stats,
                    "budget {budget}: stats diverge"
                );
            }
            Err(e) => {
                trips += 1;
                assert_eq!(
                    e.limit_kind(),
                    Some(LimitKind::Ops),
                    "budget {budget}: expected an op-budget trip, got: {e}"
                );
                let f = fused_run.expect_err("fused run must also trip");
                assert_eq!(
                    f.message(),
                    e.message(),
                    "budget {budget}: trip position diverges"
                );
            }
        }
    }
    // The sweep must cover both regimes, or the property is vacuous.
    assert!(trips > 0, "no budget in the sweep tripped");
    assert!(completions > 0, "no budget in the sweep completed");
}

// ----------------------------------------------------------------------
// PR 10: the decode-time verifier over the fuzz population, plus
// deliberate bait — plans the verifier must reject (or must refuse to
// prove) with deterministic, structured findings.
// ----------------------------------------------------------------------

/// Every fuzz seed **verifies clean** (the generator emits structurally
/// legal bytecode), the verifier is deterministic on it, and running
/// the fused plan with the proven-site facts attached is bit-identical
/// to the fully-checked run — across the whole 128-seed population.
/// The interval pass must also prove a substantial share of the masked
/// (`& 15`) accessor subscripts, or the fast path is dead code.
#[test]
fn verifier_accepts_fuzz_population_and_elision_is_bit_identical() {
    use sycl_mlir_repro::sim::verify_plan;
    let (mut proven_total, mut sites_total) = (0_u64, 0_u64);
    for seed in 0..128_u64 {
        let seed = seed * 7919 + 13;
        let plan = Gen::new(seed).finish();
        let mut facts = verify_plan(&plan)
            .unwrap_or_else(|errs| panic!("fuzz seed {seed} must verify clean: {errs:?}"));
        let again = verify_plan(&plan).expect("deterministic");
        assert_eq!(
            (facts.sites_total, facts.sites_proven),
            (again.sites_total, again.sites_proven),
            "verification must be deterministic (seed {seed})"
        );
        proven_total += u64::from(facts.sites_proven);
        sites_total += u64::from(facts.sites_total);
        // The fuzz plans run standalone (no IR module), so the device
        // layer never fills the barrier counts in. Mark the barriers
        // unproven so the A/B below isolates the *bounds-check* elision.
        facts.barriers_total = 1;
        facts.barriers_uniform = 0;
        // Verification happens pre-fusion; fusion preserves site ids, so
        // the proofs transfer to the fused plan — exactly the product
        // pipeline's order.
        let mut fused = plan.clone();
        fuse_plan(&mut fused);
        for p in [&plan, &fused] {
            let (base, bf, bi, ba) = execute(p);
            let (fast, ff, fi, fa) = execute_with(p, &facts, &CostModel::default());
            match (&base, &fast) {
                (Ok(b), Ok(f)) => assert_eq!(b, f, "stats diverge under elision (seed {seed})"),
                (Err(b), Err(f)) => assert_eq!(
                    b.message(),
                    f.message(),
                    "errors diverge under elision (seed {seed})"
                ),
                _ => panic!(
                    "elision changed the outcome (seed {seed}): checked={base:?} elided={fast:?}"
                ),
            }
            assert_eq!(
                bf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                ff.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "f32 buffer diverges under elision (seed {seed})"
            );
            assert_eq!(bi, fi, "i64 buffer diverges under elision (seed {seed})");
            assert_eq!(
                ba.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                fa.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "accessor buffer diverges under elision (seed {seed})"
            );
        }
    }
    // The fuzz population gathers through *loaded* indices on purpose
    // (unprovable by design), so the provable share is lower than the
    // benchsuite's; the population is fixed, so the floor is exact.
    assert!(
        proven_total * 6 >= sites_total,
        "expected a substantial provable share, got {proven_total}/{sites_total}"
    );
}

/// `verify_plan` takes decoder output: handed a fused plan it must say
/// so — one finding per superinstruction, at that superinstruction's pc,
/// the same on every call — rather than analyse code it has no transfer
/// functions for. Held for every seed of the population that fuses
/// anything (all of them do; the count is asserted so the loop cannot go
/// vacuous).
#[test]
fn verifier_rejects_fused_plans_at_the_fused_pcs() {
    use sycl_mlir_repro::sim::verify_plan;
    let mut checked = 0;
    for seed in 0..128_u64 {
        let seed = seed * 7919 + 13;
        let mut fused = Gen::new(seed).finish();
        if fuse_plan(&mut fused) == 0 {
            continue;
        }
        checked += 1;
        let errs = verify_plan(&fused).expect_err("a fused plan must not verify");
        let fused_pcs: Vec<u32> = fused.funcs[0]
            .code
            .iter()
            .enumerate()
            .filter(|(_, i)| i.op_weight() > 1)
            .map(|(pc, _)| pc as u32)
            .collect();
        assert_eq!(
            errs.iter().map(|e| (e.func, e.pc)).collect::<Vec<_>>(),
            fused_pcs.iter().map(|&pc| (0, pc)).collect::<Vec<_>>(),
            "one finding per superinstruction, at its pc (seed {seed})"
        );
        for (e, &pc) in errs.iter().zip(&fused_pcs) {
            let m = fused.funcs[0].code[pc as usize].mnemonic();
            assert!(
                e.message.contains(m) && e.message.contains("before fusion"),
                "finding must name the superinstruction (seed {seed}): {e}"
            );
        }
        assert_eq!(
            verify_plan(&fused).expect_err("deterministic"),
            errs,
            "the rejection must be deterministic (seed {seed})"
        );
    }
    assert!(checked > 100, "only {checked} seeds fused anything");
}

/// A minimal legal single-function plan around `body`, with the fuzz
/// parameter convention (f32 memref r0, i64 memref r1, accessor r2).
fn bait_plan(body: Vec<Instr>, reg_count: u32, mem_sites: u32) -> KernelPlan {
    KernelPlan {
        funcs: vec![FuncPlan {
            code: body,
            reg_count,
            params: vec![0, 1, 2],
            has_item_param: false,
        }],
        dense_consts: Vec::new(),
        mem_sites,
        local_sites: 0,
    }
}

/// Bait 1 — a provably out-of-bounds subscript. Not a *verification*
/// error (buffer lengths are runtime facts), but the per-launch
/// instantiation must refuse to elide the site and both runs must fail
/// with byte-identical out-of-bounds texts and positions.
#[test]
fn oob_bait_is_never_elided_and_fails_identically() {
    use sycl_mlir_repro::sim::verify_plan;
    let plan = bait_plan(
        vec![
            Instr::Const {
                dst: 3,
                val: Slot::Int(999),
            },
            Instr::Const {
                dst: 4,
                val: Slot::F32(1.0),
            },
            Instr::Store {
                val: 4,
                mem: 0,
                idx: [3, 0, 0],
                rank: 1,
                site: 0,
            },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ],
        5,
        1,
    );
    let mut facts = verify_plan(&plan).expect("structurally legal");
    facts.barriers_total = 1;
    facts.barriers_uniform = 0;
    let (base, ..) = execute(&plan);
    let (fast, ..) = execute_with(&plan, &facts, &CostModel::default());
    let be = base.expect_err("store at 999 is out of bounds");
    let fe = fast.expect_err("store at 999 is out of bounds");
    assert_eq!(be, fe, "facts must not change the OOB failure");
    assert!(
        be.message()
            .contains("device memory access out of bounds: index 999 of buffer"),
        "expected the exact bounds text, got: {}",
        be.message()
    );
}

/// Bait 2 — type-confused register reuse: an integer register fed to a
/// float ALU op. The type-class pass must reject it with the offending
/// pc, identically on every run.
#[test]
fn type_confusion_bait_is_rejected() {
    use sycl_mlir_repro::sim::verify_plan;
    let plan = bait_plan(
        vec![
            Instr::Const {
                dst: 3,
                val: Slot::Int(7),
            },
            Instr::BinFloat {
                op: FloatBin::Add,
                dst: 4,
                l: 3,
                r: 3,
                f32_out: false,
            },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ],
        5,
        0,
    );
    let errs = verify_plan(&plan).expect_err("type confusion must be rejected");
    assert_eq!(
        verify_plan(&plan).expect_err("deterministic"),
        errs,
        "the findings must be deterministic"
    );
    assert!(
        errs.iter().any(|e| {
            e.pc == 1
                && e.message
                    .contains("holds an integer but is used as a float")
        }),
        "expected the type-class finding at pc 1, got: {errs:?}"
    );
}

/// Bait 3 — a jump into the middle of an instruction window, skipping
/// the definition its target consumes; and a jump clean out of the
/// function. Both must be rejected with structured findings, never a
/// panic.
#[test]
fn corrupted_jump_bait_is_rejected() {
    use sycl_mlir_repro::sim::verify_plan;
    // Jump over the definition of r3 straight into its use.
    let skip_def = bait_plan(
        vec![
            Instr::Jump { target: 2 },
            Instr::Const {
                dst: 3,
                val: Slot::F32(2.0),
            },
            Instr::BinFloat {
                op: FloatBin::Mul,
                dst: 4,
                l: 3,
                r: 3,
                f32_out: false,
            },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ],
        5,
        0,
    );
    let errs = verify_plan(&skip_def).expect_err("jump past a def must be rejected");
    assert!(
        errs.iter()
            .any(|e| e.pc == 2 && e.message.contains("register r3 read before definition")),
        "expected the def-before-use finding at the jump target, got: {errs:?}"
    );

    // Jump target outside the function entirely: a fatal structural
    // finding from the first pass.
    let out_of_range = bait_plan(
        vec![
            Instr::Jump { target: 999 },
            Instr::Return {
                vals: Vec::new().into_boxed_slice(),
            },
        ],
        3,
        0,
    );
    let errs = verify_plan(&out_of_range).expect_err("wild jump must be rejected");
    assert!(
        errs.iter()
            .any(|e| e.pc == 0 && e.message.contains("pc target 999 out of bounds")),
        "expected the fatal target finding, got: {errs:?}"
    );
    assert_eq!(
        verify_plan(&out_of_range).expect_err("deterministic"),
        errs,
        "the findings must be deterministic"
    );
}

/// Randomly corrupting one jump target of every fuzz seed's plan either
/// leaves it verifiable or produces a deterministic, structured
/// rejection — `verify_plan` must never panic on corrupted bytecode and
/// must report the same findings every time.
#[test]
fn corrupted_fuzz_plans_reject_deterministically() {
    use sycl_mlir_repro::sim::verify_plan;
    let mut rejected = 0_u32;
    for seed in 0..128_u64 {
        let seed = seed * 7919 + 13;
        let mut plan = Gen::new(seed).finish();
        let mut rng = TestRng::new(seed ^ 0x5eed);
        let code = &mut plan.funcs[0].code;
        let len = code.len();
        // Corrupt the first branching instruction (if any) to a random
        // in-or-out-of-range pc; otherwise corrupt a register operand.
        let corrupted = code.iter_mut().find_map(|instr| match instr {
            Instr::Jump { target } | Instr::BranchIfFalse { target, .. } => {
                *target = rng.below(len * 2) as u32;
                Some(())
            }
            Instr::ForEnter { exit, .. } => {
                *exit = rng.below(len * 2) as u32;
                Some(())
            }
            _ => None,
        });
        if corrupted.is_none() {
            // No branches this seed: confuse a binop's operand instead.
            for instr in code.iter_mut() {
                if let Instr::BinFloat { l, .. } = instr {
                    *l = 1; // r1 is the i64 memref parameter — a memref fed to a float op
                    break;
                }
            }
        }
        let first = verify_plan(&plan);
        let second = verify_plan(&plan);
        match (first, second) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    (a.sites_total, a.sites_proven),
                    (b.sites_total, b.sites_proven),
                    "facts must be deterministic (seed {seed})"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "findings must be deterministic (seed {seed})");
                assert!(!a.is_empty());
                rejected += 1;
            }
            _ => panic!("verification verdict must be deterministic (seed {seed})"),
        }
    }
    assert!(
        rejected > 32,
        "expected corruption to trip the verifier broadly, got {rejected}/128"
    );
}
