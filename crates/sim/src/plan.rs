//! Pre-decoded kernel execution plans: a register-file bytecode shared by
//! every work-item of a launch.
//!
//! The tree-walk interpreter in [`crate::interp`] re-resolves *everything*
//! on every step of every work-item: op names through `Rc<str>` string
//! dispatch, operands through `ValueId` environment lookups, attributes
//! through linear key scans, and loop re-entry through fresh `to_vec()`
//! allocations. A launch touching millions of dynamic ops pays those costs
//! millions of times for structure that never changes.
//!
//! This module lowers the structured IR of a kernel (and its callees)
//! **once per launch** into a [`KernelPlan`]:
//!
//! * every operation becomes an [`Instr`] — a plain Rust enum with an
//!   integer opcode, no strings anywhere on the execution path;
//! * every SSA value gets a dense **register slot**, assigned per function
//!   at decode time; work-items execute against a flat file of 16-byte
//!   [`Slot`]s instead of a `ValueId`-keyed environment;
//! * constants are pre-materialized ([`Instr::Const`]), `cmpi`/`cmpf`
//!   predicates and dimension operands are pre-parsed, and `func.call`
//!   targets are pre-resolved to plan-internal function indices;
//! * `scf.for`/`scf.if` structure is lowered to explicit jump and loop
//!   instructions ([`Instr::ForEnter`]/[`Instr::ForNext`]/
//!   [`Instr::BranchIfFalse`]), so loop back-edges are two integer ops.
//!
//! The plan is immutable and shared by reference across all work-items and
//! work-groups of the launch. Decoding is itself string-free on the hot
//! path: a private `OpKindTable` maps interned [`OpName`] ids to opcodes once per
//! decode, and attribute keys are resolved through the pre-interned
//! [`sycl_mlir_ir::CommonKeys`].
//!
//! Any op the decoder does not understand aborts the decode with
//! [`DecodeError`]; the device then falls back to the tree-walk reference
//! interpreter, which stays behaviourally authoritative (the differential
//! suite in `tests/differential.rs` holds the two engines bit-identical).

use crate::interp::{enclosing_module, SimError, Stop};
use crate::memory::DataVec;
use crate::pool::PlanExecCtx;
use crate::value::{MemRefVal, NdItemVal, RtValue, Space, VecVal};
use std::collections::HashMap;
use sycl_mlir_ir::{Attribute, Module, OpId, OpName, Type, TypeKind, ValueId};

/// Dense register slot within one function frame.
pub type Reg = u32;

/// One register of the plan engine: a 16-byte tagged slot. Scalars live
/// inline; an aggregate's payload lives where the work-item keeps it —
/// vectors, views and nd-ranges in banks at the register's absolute
/// index, an accessor in the launch's arguments, the item in the
/// work-item — so a slot means something only in the register file it
/// was written to, and code outside this crate can build the scalar
/// variants only (what an [`Instr::Const`] may hold). The tag stays
/// although the verifier proves every register's class: rejected plans
/// still run, and every type error keeps its text and position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Slot {
    /// Integers of any width, `index`, and `i1`.
    Int(i64),
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
    /// Opaque host pointer.
    Ptr(u64),
    /// Not written yet, or the value of an op with no results.
    Unit,
    /// `!sycl.id<n>` / `!sycl.range<n>`; payload in the vector bank.
    #[non_exhaustive]
    Vec,
    /// A memref view; payload in the memref bank.
    #[non_exhaustive]
    MemRef,
    /// `!sycl.nd_range<n>`; payload in the nd-range bank.
    #[non_exhaustive]
    NdRange,
    /// The accessor at this index of the launch's arguments.
    #[non_exhaustive]
    Accessor(u32),
    /// The work-item's own item.
    #[non_exhaustive]
    Item,
}

/// Two machine words; the 136 bytes of an [`RtValue`] move by `memmove`.
const _: () = assert!(std::mem::size_of::<Slot>() == 16);
const _: () = assert!(std::mem::size_of::<Instr>() <= 64);

impl Slot {
    #[inline(always)]
    fn as_int(self) -> Option<i64> {
        match self {
            Slot::Int(v) => Some(v),
            _ => None,
        }
    }

    #[inline(always)]
    fn as_f64(self) -> Option<f64> {
        match self {
            Slot::F32(v) => Some(v as f64),
            Slot::F64(v) => Some(v),
            _ => None,
        }
    }

    /// An integer or a float (all that device memory holds) as a slot.
    #[inline(always)]
    fn scalar(v: RtValue) -> Slot {
        match v {
            RtValue::Int(x) => Slot::Int(x),
            RtValue::F32(x) => Slot::F32(x),
            RtValue::F64(x) => Slot::F64(x),
            other => unreachable!("{} is no scalar", other.kind()),
        }
    }
}

/// Store `v` at `bank[abs]`, growing the bank to reach it.
#[inline(always)]
fn put<T: Copy>(bank: &mut Vec<T>, abs: usize, v: T) {
    if bank.len() <= abs {
        bank.resize(abs + 1, v);
    }
    bank[abs] = v;
}

fn err(msg: impl Into<String>) -> SimError {
    SimError::msg(msg)
}

/// Why a kernel could not be decoded (the caller falls back to the
/// tree-walk interpreter).
#[derive(Debug, Clone)]
pub struct DecodeError {
    /// Human-readable description of the failure.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan decode error: {}", self.message)
    }
}

fn dec_err(msg: impl Into<String>) -> DecodeError {
    DecodeError {
        message: msg.into(),
    }
}

/// A decode failure as a structured simulator error (`"plan decode
/// error: …"`, position `None` until the launch layer stamps its
/// submission index) — what strict verification surfaces instead of the
/// silent tree-walk fallback.
impl From<DecodeError> for SimError {
    fn from(e: DecodeError) -> SimError {
        SimError::msg(e.to_string())
    }
}

// ----------------------------------------------------------------------
// Instruction set
// ----------------------------------------------------------------------

/// Integer binary ops (`arith.addi` family).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntBin {
    /// `arith.addi`.
    Add,
    /// `arith.subi`.
    Sub,
    /// `arith.muli`.
    Mul,
    /// `arith.divsi` (signed).
    DivS,
    /// `arith.remsi` (signed).
    RemS,
    /// `arith.andi`.
    And,
    /// `arith.ori`.
    Or,
    /// `arith.xori`.
    Xor,
    /// `arith.minsi` (signed).
    MinS,
    /// `arith.maxsi` (signed).
    MaxS,
}

/// Float binary ops (`arith.addf` family).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloatBin {
    /// `arith.addf`.
    Add,
    /// `arith.subf`.
    Sub,
    /// `arith.mulf`.
    Mul,
    /// `arith.divf`.
    Div,
    /// `arith.minf`.
    Min,
    /// `arith.maxf`.
    Max,
}

/// Pre-parsed `arith.cmpi`/`arith.cmpf` predicate. Mirrors the tree-walk
/// interpreter: a missing attribute means `Eq`, an unknown spelling `Sge`.
#[derive(Clone, Copy, Debug)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
}

impl CmpPred {
    fn of_attr(attr: Option<&Attribute>) -> CmpPred {
        match attr.and_then(|a| a.as_str()).unwrap_or("eq") {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "slt" => CmpPred::Slt,
            "sle" => CmpPred::Sle,
            "sgt" => CmpPred::Sgt,
            _ => CmpPred::Sge,
        }
    }

    #[inline]
    fn eval_int(self, l: i64, r: i64) -> bool {
        match self {
            CmpPred::Eq => l == r,
            CmpPred::Ne => l != r,
            CmpPred::Slt => l < r,
            CmpPred::Sle => l <= r,
            CmpPred::Sgt => l > r,
            CmpPred::Sge => l >= r,
        }
    }

    #[inline]
    fn eval_float(self, l: f64, r: f64) -> bool {
        match self {
            CmpPred::Eq => l == r,
            CmpPred::Ne => l != r,
            CmpPred::Slt => l < r,
            CmpPred::Sle => l <= r,
            CmpPred::Sgt => l > r,
            CmpPred::Sge => l >= r,
        }
    }
}

/// `math.*` unary functions, plus `powf`, resolved at decode time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MathOp {
    /// `math.sqrt`.
    Sqrt,
    /// `math.exp`.
    Exp,
    /// `math.log`.
    Log,
    /// `math.absf`.
    Absf,
    /// `math.sin`.
    Sin,
    /// `math.cos`.
    Cos,
    /// `math.floor`.
    Floor,
    /// `math.rsqrt`.
    Rsqrt,
    /// `math.powf` (binary).
    Powf,
}

/// A dimension operand: pre-folded to a constant when its defining op is an
/// integer constant (the overwhelmingly common case), otherwise read from a
/// register at run time.
#[derive(Clone, Copy, Debug)]
pub enum DimSrc {
    /// A compile-time-constant dimension.
    Const(u8),
    /// A dimension read from a register at run time.
    Reg(Reg),
}

/// Work-item position queries with a dimension operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemQ {
    /// Global id along a dimension.
    GlobalId,
    /// Id within the work-group.
    LocalId,
    /// Work-group id.
    GroupId,
    /// Global extent.
    GlobalRange,
    /// Work-group extent.
    LocalRange,
    /// Work-group count.
    GroupRange,
}

/// One decoded instruction. Operands are register slots; `pc` targets are
/// indices into the owning [`FuncPlan::code`].
#[derive(Clone, Debug)]
pub enum Instr {
    /// Pre-materialized scalar constant.
    Const {
        /// Destination register.
        dst: Reg,
        /// The constant value (the decoder emits `Int`/`F32`/`F64`).
        val: Slot,
    },
    /// Dense-data constant memref, materialized once per launch into the
    /// pool and cached in the worker state ([`PlanCtx`]) under `idx`.
    ConstDense {
        /// Destination register.
        dst: Reg,
        /// Index into [`KernelPlan::dense_consts`].
        idx: u32,
    },
    /// Register-to-register move (casts that are value-preserving here).
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Integer binary op.
    BinInt {
        /// Operation selector.
        op: IntBin,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
    },
    /// Float binary op (computed in `f64`, optionally narrowed).
    BinFloat {
        /// Operation selector.
        op: FloatBin,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
        /// Whether the result narrows to `f32`.
        f32_out: bool,
    },
    /// `arith.negf`.
    NegF {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        x: Reg,
    },
    /// `arith.cmpi`.
    CmpI {
        /// Pre-parsed comparison predicate.
        pred: CmpPred,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
    },
    /// `arith.cmpf`.
    CmpF {
        /// Pre-parsed comparison predicate.
        pred: CmpPred,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
    },
    /// `arith.select`.
    Select {
        /// Destination register.
        dst: Reg,
        /// Condition register.
        c: Reg,
        /// True-value register.
        t: Reg,
        /// False-value register.
        f: Reg,
    },
    /// `arith.sitofp`.
    SiToFp {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        x: Reg,
        /// Whether the result narrows to `f32`.
        f32_out: bool,
    },
    /// `arith.fptosi`.
    FpToSi {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        x: Reg,
    },
    /// `arith.truncf` (`f64` to `f32`).
    TruncF {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        x: Reg,
    },
    /// `arith.extf` (`f32` to `f64`).
    ExtF {
        /// Destination register.
        dst: Reg,
        /// Operand register.
        x: Reg,
    },
    /// `math.*` function application.
    Math {
        /// Operation selector.
        op: MathOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        x: Reg,
        /// Second operand register (`powf` only; `0` otherwise).
        y: Reg,
        /// Whether the result narrows to `f32`.
        f32_out: bool,
    },
    /// Per-work-item private allocation (fresh storage on every execution,
    /// like the tree-walk interpreter).
    Alloca {
        /// Destination register.
        dst: Reg,
        /// Element type of the allocation.
        elem: Type,
        /// Static shape, padded with 1s to rank 3.
        shape: [i64; 3],
        /// Number of valid indices.
        rank: u32,
        /// Total element count.
        len: usize,
    },
    /// Work-group-shared allocation, cached per `site` in the group ctx.
    LocalAlloca {
        /// Destination register.
        dst: Reg,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
        /// Element type of the allocation.
        elem: Type,
        /// Static shape, padded with 1s to rank 3.
        shape: [i64; 3],
        /// Number of valid indices.
        rank: u32,
        /// Total element count.
        len: usize,
    },
    /// Memory load through a memref view.
    Load {
        /// Destination register.
        dst: Reg,
        /// Memref operand register.
        mem: Reg,
        /// Index operand registers (first `rank` entries are valid).
        idx: [Reg; 3],
        /// Number of valid indices.
        rank: u8,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
    },
    /// Memory store through a memref view.
    Store {
        /// Value register to store.
        val: Reg,
        /// Memref operand register.
        mem: Reg,
        /// Index operand registers (first `rank` entries are valid).
        idx: [Reg; 3],
        /// Number of valid indices.
        rank: u8,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
    },
    /// `sycl.id`/`sycl.range` construction from components.
    VecCtor {
        /// Destination register.
        dst: Reg,
        /// Component registers (first `rank` entries are valid).
        comps: [Reg; 3],
        /// Number of valid indices.
        rank: u8,
    },
    /// `!sycl.nd_range` construction from global and local ranges.
    NdRangeCtor {
        /// Destination register.
        dst: Reg,
        /// Global-range vector register.
        g: Reg,
        /// Local-range vector register.
        l: Reg,
    },
    /// Component read of an id/range vector.
    VecGet {
        /// Destination register.
        dst: Reg,
        /// Vector operand register.
        v: Reg,
        /// Dimension operand.
        dim: DimSrc,
    },
    /// `sycl.range.size`: product of the extents.
    RangeSize {
        /// Destination register.
        dst: Reg,
        /// Vector operand register.
        v: Reg,
    },
    /// Work-item position query.
    ItemQuery {
        /// Destination register.
        dst: Reg,
        /// Which position query to answer.
        q: ItemQ,
        /// Dimension operand.
        dim: DimSrc,
    },
    /// `sycl.item.get_linear_id` and the nd_item equivalent.
    GlobalLinearId {
        /// Destination register.
        dst: Reg,
    },
    /// `sycl.nd_item.get_local_linear_id`.
    LocalLinearId {
        /// Destination register.
        dst: Reg,
    },
    /// `sycl.nd_item.get_group`: the item value itself.
    ItemSelf {
        /// Destination register.
        dst: Reg,
    },
    /// `sycl.accessor.subscript`: a memref view into the accessor.
    AccSubscript {
        /// Destination register.
        dst: Reg,
        /// Accessor operand register.
        acc: Reg,
        /// Id vector register.
        id: Reg,
    },
    /// `sycl.accessor.get_range` along a dimension.
    AccRange {
        /// Destination register.
        dst: Reg,
        /// Accessor operand register.
        acc: Reg,
        /// Dimension operand.
        dim: DimSrc,
    },
    /// `sycl.accessor.base`: an opaque integer identifying the storage.
    AccBase {
        /// Destination register.
        dst: Reg,
        /// Accessor operand register.
        acc: Reg,
    },
    /// `sycl.group.barrier`: suspend until the whole group arrives.
    Barrier,
    /// Unconditional jump.
    Jump {
        /// Jump target pc.
        target: u32,
    },
    /// `scf.if` dispatch: falls through into the then-arm, jumps to
    /// `target` (the else-arm) on a false condition.
    BranchIfFalse {
        /// Condition register.
        cond: Reg,
        /// Jump target pc.
        target: u32,
    },
    /// Loop entry: validates the step, sets `iv := lb` and jumps to
    /// `exit` when the trip count is zero.
    ForEnter {
        /// Lower-bound register.
        lb: Reg,
        /// Upper-bound register.
        ub: Reg,
        /// Step register.
        step: Reg,
        /// Induction-variable register.
        iv: Reg,
        /// Pc of the first instruction after the loop.
        exit: u32,
    },
    /// Loop back-edge: `iv += step`, jumping to `body` while `iv < ub`.
    ForNext {
        /// Induction-variable register.
        iv: Reg,
        /// Step register.
        step: Reg,
        /// Upper-bound register.
        ub: Reg,
        /// Pc of the first body instruction.
        body: u32,
    },
    /// `func.call` into another plan function.
    Call {
        /// Callee plan-function index.
        func: u32,
        /// Argument registers, in callee parameter order.
        args: Box<[Reg]>,
        /// Registers receiving the callee’s results.
        results: Box<[Reg]>,
    },
    /// `func.return`: pop the frame (kernel exit at frame 0).
    Return {
        /// Returned value registers.
        vals: Box<[Reg]>,
    },
    /// Fused `Load` + float accumulate ([`fuse_plan`]): loads one element
    /// and immediately combines it with `other` — the load-accumulate
    /// pattern of reduction and stencil inner loops. `loaded_is_lhs`
    /// preserves the original operand order (relevant for error messages
    /// and non-commutative extensions).
    LoadBinFloat {
        /// Operation selector.
        op: FloatBin,
        /// Destination register.
        dst: Reg,
        /// The non-loaded operand register.
        other: Reg,
        /// Whether the loaded value was the left operand.
        loaded_is_lhs: bool,
        /// Whether the result narrows to `f32`.
        f32_out: bool,
        /// Memref operand register.
        mem: Reg,
        /// Index operand registers (first `rank` entries are valid).
        idx: [Reg; 3],
        /// Number of valid indices.
        rank: u8,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
    },
    /// Fused `cmpi` + `BranchIfFalse` ([`fuse_plan`]): jumps to `target`
    /// when the predicate over `l`, `r` is false.
    CmpIBranch {
        /// Pre-parsed comparison predicate.
        pred: CmpPred,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
        /// Jump target pc.
        target: u32,
    },
    /// Fused `VecCtor` + `AccSubscript` + `Load` chain ([`fuse_plan`]):
    /// the accessor addressing chain `a[id...]` of every accessor read —
    /// the `--profile` mode's top-ranked fusion candidate. Builds the id
    /// vector, subscripts the accessor and loads through the resulting
    /// view in one dispatch, bumping exactly the statistics and raising
    /// exactly the errors of the three instructions it replaces.
    AccLoadIndexed {
        /// Destination register.
        dst: Reg,
        /// Accessor operand register.
        acc: Reg,
        /// Id component registers (first `comps_rank` entries are valid).
        comps: [Reg; 3],
        /// Number of valid id components.
        comps_rank: u8,
        /// Index operand registers of the elided load (first `rank`
        /// entries are valid).
        idx: [Reg; 3],
        /// Number of valid indices.
        rank: u8,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
    },
    /// Fused `Load` + `mulf` + `addf` chain ([`fuse_plan`]): the
    /// multiply-accumulate inner loop of GEMM-shaped kernels,
    /// `dst = (loaded ⊙ b) ⊕ c` with the original operand orders
    /// preserved on both the multiply and the add.
    LoadMulAddF {
        /// Destination register.
        dst: Reg,
        /// Memref operand register.
        mem: Reg,
        /// Index operand registers (first `rank` entries are valid).
        idx: [Reg; 3],
        /// Number of valid indices.
        rank: u8,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
        /// The non-loaded multiply operand register.
        b: Reg,
        /// Whether the loaded value was the multiply's left operand.
        loaded_is_lhs: bool,
        /// Whether the elided product narrowed to `f32` before the add.
        mul_f32: bool,
        /// The non-product add operand register.
        c: Reg,
        /// Whether the product was the add's left operand.
        prod_is_lhs: bool,
        /// Whether the result narrows to `f32`.
        f32_out: bool,
    },
    /// Fused float binary op + `Store` ([`fuse_plan`]): the
    /// accumulate-then-store tail of map-style kernels, `mem[idx...] =
    /// l ⊕ r` without materializing the result register.
    StoreBinFloat {
        /// Operation selector.
        op: FloatBin,
        /// Left operand register.
        l: Reg,
        /// Right operand register.
        r: Reg,
        /// Whether the stored value narrows to `f32`.
        f32_out: bool,
        /// Memref operand register.
        mem: Reg,
        /// Index operand registers (first `rank` entries are valid).
        idx: [Reg; 3],
        /// Number of valid indices.
        rank: u8,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
    },
    /// Fused `VecCtor` + `AccSubscript` + `Const` + `Load` quad
    /// ([`fuse_plan`]): the **un-CSE'd** accessor addressing chain the
    /// DPC++ flow emits — the builder's zero constant of `load_via_id`
    /// still interposed between the subscript and the load. A
    /// **write-through** superinstruction: the id vector, the subscript
    /// view and the constant keep their register writes (later
    /// un-deduplicated chains re-read them), so the rewrite needs no
    /// read-count legality — replaying all four arms in order is
    /// bit-identical by construction.
    AccLoadQuad {
        /// Destination register.
        dst: Reg,
        /// Accessor operand register.
        acc: Reg,
        /// Id component registers (first `comps_rank` entries are valid).
        comps: [Reg; 3],
        /// Number of valid id components.
        comps_rank: u8,
        /// Write-through register of the id vector.
        id: Reg,
        /// Write-through register of the subscript view.
        view: Reg,
        /// Write-through register of the index constant.
        cst: Reg,
        /// The index constant's value (checked int at run time, exactly
        /// as the elided `Load` would).
        cst_val: Slot,
        /// Memory-access site id (keys the coalescing tracker).
        site: u32,
    },
}

impl Instr {
    /// Short static mnemonic of the instruction, used by the `--profile`
    /// execution-count dump to aggregate counts per opcode.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Const { .. } => "const",
            Instr::ConstDense { .. } => "const.dense",
            Instr::Copy { .. } => "copy",
            Instr::BinInt { op, .. } => match op {
                IntBin::Add => "addi",
                IntBin::Sub => "subi",
                IntBin::Mul => "muli",
                IntBin::DivS => "divsi",
                IntBin::RemS => "remsi",
                IntBin::And => "andi",
                IntBin::Or => "ori",
                IntBin::Xor => "xori",
                IntBin::MinS => "minsi",
                IntBin::MaxS => "maxsi",
            },
            Instr::BinFloat { op, .. } => match op {
                FloatBin::Add => "addf",
                FloatBin::Sub => "subf",
                FloatBin::Mul => "mulf",
                FloatBin::Div => "divf",
                FloatBin::Min => "minf",
                FloatBin::Max => "maxf",
            },
            Instr::NegF { .. } => "negf",
            Instr::CmpI { .. } => "cmpi",
            Instr::CmpF { .. } => "cmpf",
            Instr::Select { .. } => "select",
            Instr::SiToFp { .. } => "sitofp",
            Instr::FpToSi { .. } => "fptosi",
            Instr::TruncF { .. } => "truncf",
            Instr::ExtF { .. } => "extf",
            Instr::Math { op, .. } => match op {
                MathOp::Sqrt => "sqrt",
                MathOp::Exp => "exp",
                MathOp::Log => "log",
                MathOp::Absf => "absf",
                MathOp::Sin => "sin",
                MathOp::Cos => "cos",
                MathOp::Floor => "floor",
                MathOp::Rsqrt => "rsqrt",
                MathOp::Powf => "powf",
            },
            Instr::Alloca { .. } => "alloca",
            Instr::LocalAlloca { .. } => "local.alloca",
            Instr::Load { .. } => "load",
            Instr::Store { .. } => "store",
            Instr::VecCtor { .. } => "vec.ctor",
            Instr::NdRangeCtor { .. } => "ndrange.ctor",
            Instr::VecGet { .. } => "vec.get",
            Instr::RangeSize { .. } => "range.size",
            Instr::ItemQuery { q, .. } => match q {
                ItemQ::GlobalId => "item.global_id",
                ItemQ::LocalId => "item.local_id",
                ItemQ::GroupId => "item.group_id",
                ItemQ::GlobalRange => "item.global_range",
                ItemQ::LocalRange => "item.local_range",
                ItemQ::GroupRange => "item.group_range",
            },
            Instr::GlobalLinearId { .. } => "item.global_linear_id",
            Instr::LocalLinearId { .. } => "item.local_linear_id",
            Instr::ItemSelf { .. } => "item.self",
            Instr::AccSubscript { .. } => "acc.subscript",
            Instr::AccRange { .. } => "acc.range",
            Instr::AccBase { .. } => "acc.base",
            Instr::Barrier => "barrier",
            Instr::Jump { .. } => "jump",
            Instr::BranchIfFalse { .. } => "br.false",
            Instr::ForEnter { .. } => "for.enter",
            Instr::ForNext { .. } => "for.next",
            Instr::Call { .. } => "call",
            Instr::Return { .. } => "return",
            Instr::LoadBinFloat { op, .. } => match op {
                FloatBin::Add => "load.addf",
                FloatBin::Mul => "load.mulf",
                _ => "load.binf",
            },
            Instr::CmpIBranch { .. } => "cmpi.br",
            Instr::AccLoadIndexed { .. } => "acc.load.idx",
            Instr::LoadMulAddF { .. } => "load.fma",
            Instr::StoreBinFloat { op, .. } => match op {
                FloatBin::Add => "addf.store",
                FloatBin::Mul => "mulf.store",
                _ => "binf.store",
            },
            Instr::AccLoadQuad { .. } => "acc.load.quad",
        }
    }

    /// How many decoded instructions this one stands for: `1` for a
    /// primitive, the length of the window it replaces for a
    /// superinstruction. It is what [`fuse_plan`] advances by when it
    /// emits the superinstruction *and* what an execution budget
    /// (`--max-ops`) is charged, so a budget trips at the same point —
    /// with the same [`crate::LimitKind`] — fused or not.
    pub fn op_weight(&self) -> u64 {
        match self {
            Instr::LoadBinFloat { .. } | Instr::CmpIBranch { .. } | Instr::StoreBinFloat { .. } => {
                2
            }
            Instr::AccLoadIndexed { .. } | Instr::LoadMulAddF { .. } => 3,
            Instr::AccLoadQuad { .. } => 4,
            _ => 1,
        }
    }

    /// The single register this instruction defines, if any (`Call` writes
    /// several; control flow writes none). Drives the dataflow-adjacency
    /// filter of the fusion-candidate profile.
    fn dst_reg(&self) -> Option<Reg> {
        match self {
            Instr::Const { dst, .. }
            | Instr::ConstDense { dst, .. }
            | Instr::Copy { dst, .. }
            | Instr::BinInt { dst, .. }
            | Instr::BinFloat { dst, .. }
            | Instr::NegF { dst, .. }
            | Instr::CmpI { dst, .. }
            | Instr::CmpF { dst, .. }
            | Instr::Select { dst, .. }
            | Instr::SiToFp { dst, .. }
            | Instr::FpToSi { dst, .. }
            | Instr::TruncF { dst, .. }
            | Instr::ExtF { dst, .. }
            | Instr::Math { dst, .. }
            | Instr::Alloca { dst, .. }
            | Instr::LocalAlloca { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::VecCtor { dst, .. }
            | Instr::NdRangeCtor { dst, .. }
            | Instr::VecGet { dst, .. }
            | Instr::RangeSize { dst, .. }
            | Instr::ItemQuery { dst, .. }
            | Instr::GlobalLinearId { dst }
            | Instr::LocalLinearId { dst }
            | Instr::ItemSelf { dst }
            | Instr::AccSubscript { dst, .. }
            | Instr::AccRange { dst, .. }
            | Instr::AccBase { dst, .. }
            | Instr::LoadBinFloat { dst, .. }
            | Instr::AccLoadIndexed { dst, .. }
            // The write-through quad also defines its kept intermediates,
            // but the profile's adjacency filter only cares about the
            // primary result.
            | Instr::AccLoadQuad { dst, .. }
            | Instr::LoadMulAddF { dst, .. } => Some(*dst),
            Instr::Store { .. }
            | Instr::StoreBinFloat { .. }
            | Instr::Barrier
            | Instr::Jump { .. }
            | Instr::BranchIfFalse { .. }
            | Instr::ForEnter { .. }
            | Instr::ForNext { .. }
            | Instr::Call { .. }
            | Instr::Return { .. }
            | Instr::CmpIBranch { .. } => None,
        }
    }

    /// The pc this instruction may transfer control to other than by
    /// fall-through: every control instruction carries exactly one.
    pub fn target(&self) -> Option<u32> {
        match self {
            Instr::Jump { target }
            | Instr::BranchIfFalse { target, .. }
            | Instr::CmpIBranch { target, .. } => Some(*target),
            Instr::ForEnter { exit, .. } => Some(*exit),
            Instr::ForNext { body, .. } => Some(*body),
            _ => None,
        }
    }

    /// [`Instr::target`], in place (the fusion pass's pc remap).
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::Jump { target }
            | Instr::BranchIfFalse { target, .. }
            | Instr::CmpIBranch { target, .. } => Some(target),
            Instr::ForEnter { exit, .. } => Some(exit),
            Instr::ForNext { body, .. } => Some(body),
            _ => None,
        }
    }
}

// ----------------------------------------------------------------------
// Plans
// ----------------------------------------------------------------------

/// One decoded function: flat code plus its register-file size.
#[derive(Clone, Debug)]
pub struct FuncPlan {
    /// Flat instruction stream.
    pub code: Vec<Instr>,
    /// Size of the register file a frame of this function needs.
    pub reg_count: u32,
    /// Registers of the entry block's parameters (kernel arguments for the
    /// entry function, call parameters otherwise).
    pub params: Vec<Reg>,
    /// Whether the trailing parameter is the SYCL item (kernels only).
    pub has_item_param: bool,
}

/// A dense-constant template, cloned into the pool on first use.
#[derive(Clone, Debug)]
pub struct DenseConst {
    /// The constant data, cloned into an arena on materialization.
    pub data: DataVec,
    /// Static shape, padded with 1s to rank 3.
    pub shape: [i64; 3],
    /// Number of meaningful dimensions.
    pub rank: u32,
}

/// The immutable decode of one kernel launch: the kernel function at index
/// 0 plus every transitively called function.
///
/// A plan is fully self-contained at run time (interned `Type` handles are
/// `Arc`-backed) and is shared by reference across all work-items, all
/// work-groups and — under `--threads=N` — all worker threads of a launch,
/// as well as across launches through the device's plan cache.
#[derive(Clone, Debug)]
pub struct KernelPlan {
    /// Decoded functions; index 0 is the kernel.
    pub funcs: Vec<FuncPlan>,
    /// Dense-constant templates referenced by `Instr::ConstDense`.
    pub dense_consts: Vec<DenseConst>,
    /// Number of memory-access sites (load/store instrs) across all
    /// functions; sizes the per-work-item visit counters that feed the
    /// coalescing tracker.
    pub mem_sites: u32,
    /// Number of `sycl.local.alloca` sites across all functions.
    pub local_sites: u32,
}

/// [`KernelPlan`] must stay `Send + Sync`: the parallel work-group
/// scheduler shares one plan by reference across worker threads, and the
/// device's cross-launch cache hands out `Arc<KernelPlan>`. This assertion
/// fails to compile if a non-thread-safe handle (an `Rc`, a `RefCell`)
/// ever sneaks back into the plan representation.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KernelPlan>();
};

// ----------------------------------------------------------------------
// Opcode table: interned-OpName dispatch for the decoder
// ----------------------------------------------------------------------

/// Decoder-level opcode of a source operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    Constant,
    IntBin(IntBin),
    FloatBin(FloatBin),
    NegF,
    CmpI,
    CmpF,
    Select,
    CopyCast,
    SiToFp,
    FpToSi,
    TruncF,
    ExtF,
    Math(MathOp),
    Alloca,
    LocalAlloca,
    Load,
    Store,
    MemRefCast,
    IdCtor,
    NdRangeCtor,
    VecGet,
    RangeSize,
    Item(ItemQ),
    GlobalLinearId,
    LocalLinearId,
    ItemSelf,
    AccSubscript,
    AccRange,
    AccBase,
    Undef,
    Barrier,
    If,
    For,
    Call,
    Return,
    Yield,
}

/// Maps interned [`OpName`] ids to decoder opcodes. Built once per decode
/// from the context's registry — after construction, dispatch is a single
/// integer-keyed hash lookup and the decoder never touches an op-name
/// string.
struct OpKindTable {
    map: HashMap<OpName, OpKind>,
}

impl OpKindTable {
    fn new(m: &Module) -> OpKindTable {
        use OpKind::*;
        let entries: &[(&str, OpKind)] = &[
            ("arith.constant", Constant),
            ("arith.addi", IntBin(self::IntBin::Add)),
            ("arith.subi", IntBin(self::IntBin::Sub)),
            ("arith.muli", IntBin(self::IntBin::Mul)),
            ("arith.divsi", IntBin(self::IntBin::DivS)),
            ("arith.remsi", IntBin(self::IntBin::RemS)),
            ("arith.andi", IntBin(self::IntBin::And)),
            ("arith.ori", IntBin(self::IntBin::Or)),
            ("arith.xori", IntBin(self::IntBin::Xor)),
            ("arith.minsi", IntBin(self::IntBin::MinS)),
            ("arith.maxsi", IntBin(self::IntBin::MaxS)),
            ("arith.addf", FloatBin(self::FloatBin::Add)),
            ("arith.subf", FloatBin(self::FloatBin::Sub)),
            ("arith.mulf", FloatBin(self::FloatBin::Mul)),
            ("arith.divf", FloatBin(self::FloatBin::Div)),
            ("arith.minf", FloatBin(self::FloatBin::Min)),
            ("arith.maxf", FloatBin(self::FloatBin::Max)),
            ("arith.negf", NegF),
            ("arith.cmpi", CmpI),
            ("arith.cmpf", CmpF),
            ("arith.select", Select),
            ("arith.index_cast", CopyCast),
            ("arith.extsi", CopyCast),
            ("arith.trunci", CopyCast),
            ("arith.sitofp", SiToFp),
            ("arith.fptosi", FpToSi),
            ("arith.truncf", TruncF),
            ("arith.extf", ExtF),
            ("math.sqrt", Math(MathOp::Sqrt)),
            ("math.exp", Math(MathOp::Exp)),
            ("math.log", Math(MathOp::Log)),
            ("math.absf", Math(MathOp::Absf)),
            ("math.sin", Math(MathOp::Sin)),
            ("math.cos", Math(MathOp::Cos)),
            ("math.floor", Math(MathOp::Floor)),
            ("math.rsqrt", Math(MathOp::Rsqrt)),
            ("math.powf", Math(MathOp::Powf)),
            ("memref.alloca", Alloca),
            ("sycl.local.alloca", LocalAlloca),
            ("memref.load", Load),
            ("affine.load", Load),
            ("memref.store", Store),
            ("affine.store", Store),
            ("memref.cast", MemRefCast),
            ("sycl.id.constructor", IdCtor),
            ("sycl.range.constructor", IdCtor),
            ("sycl.nd_range.constructor", NdRangeCtor),
            ("sycl.id.get", VecGet),
            ("sycl.range.get", VecGet),
            ("sycl.range.size", RangeSize),
            ("sycl.item.get_id", Item(ItemQ::GlobalId)),
            ("sycl.nd_item.get_global_id", Item(ItemQ::GlobalId)),
            ("sycl.nd_item.get_local_id", Item(ItemQ::LocalId)),
            ("sycl.nd_item.get_group_id", Item(ItemQ::GroupId)),
            ("sycl.group.get_id", Item(ItemQ::GroupId)),
            ("sycl.item.get_range", Item(ItemQ::GlobalRange)),
            ("sycl.nd_item.get_global_range", Item(ItemQ::GlobalRange)),
            ("sycl.nd_item.get_local_range", Item(ItemQ::LocalRange)),
            ("sycl.group.get_local_range", Item(ItemQ::LocalRange)),
            ("sycl.nd_item.get_group_range", Item(ItemQ::GroupRange)),
            ("sycl.item.get_linear_id", GlobalLinearId),
            ("sycl.nd_item.get_global_linear_id", GlobalLinearId),
            ("sycl.nd_item.get_local_linear_id", LocalLinearId),
            ("sycl.nd_item.get_group", ItemSelf),
            ("sycl.accessor.subscript", AccSubscript),
            ("sycl.accessor.get_range", AccRange),
            ("sycl.accessor.base", AccBase),
            ("llvm.undef", Undef),
            ("sycl.group.barrier", Barrier),
            ("scf.if", If),
            ("scf.for", For),
            ("affine.for", For),
            ("func.call", Call),
            ("func.return", Return),
            ("scf.yield", Yield),
            ("affine.yield", Yield),
        ];
        let ctx = m.ctx();
        let mut map = HashMap::with_capacity(entries.len());
        for (name, kind) in entries {
            // Unregistered dialects simply cannot appear in the module.
            if let Some(id) = ctx.lookup_op(name) {
                map.insert(id, *kind);
            }
        }
        OpKindTable { map }
    }

    #[inline]
    fn get(&self, name: OpName) -> Option<OpKind> {
        self.map.get(&name).copied()
    }
}

// ----------------------------------------------------------------------
// Decoder
// ----------------------------------------------------------------------

struct Decoder<'a> {
    m: &'a Module,
    kinds: OpKindTable,
    keys: sycl_mlir_ir::CommonKeys,
    /// Decoded functions (index 0 = the kernel) and the queue of source
    /// functions still to decode.
    funcs: Vec<FuncPlan>,
    func_ids: HashMap<OpId, u32>,
    pending: Vec<OpId>,
    dense_consts: Vec<DenseConst>,
    dense_ids: HashMap<OpId, u32>,
    mem_sites: u32,
    local_sites: u32,
}

/// Per-function decode state: the value→register map and emitted code.
struct FuncDecode {
    regs: HashMap<ValueId, Reg>,
    next_reg: Reg,
    code: Vec<Instr>,
}

impl FuncDecode {
    fn reg_of(&mut self, v: ValueId) -> Reg {
        *self.regs.entry(v).or_insert_with(|| {
            let r = self.next_reg;
            self.next_reg += 1;
            r
        })
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }
}

/// Decode `kernel` (and its callees) into an immutable [`KernelPlan`].
pub fn decode_kernel(m: &Module, kernel: OpId) -> Result<KernelPlan, DecodeError> {
    let mut d = Decoder {
        m,
        kinds: OpKindTable::new(m),
        keys: m.ctx().common_keys(),
        funcs: Vec::new(),
        func_ids: HashMap::new(),
        pending: Vec::new(),
        dense_consts: Vec::new(),
        dense_ids: HashMap::new(),
        mem_sites: 0,
        local_sites: 0,
    };
    d.func_id(kernel);
    while let Some(f) = d.pending.pop() {
        let plan = d.decode_func(f)?;
        let idx = d.func_ids[&f] as usize;
        d.funcs[idx] = plan;
    }
    Ok(KernelPlan {
        funcs: d.funcs,
        dense_consts: d.dense_consts,
        mem_sites: d.mem_sites,
        local_sites: d.local_sites,
    })
}

impl<'a> Decoder<'a> {
    /// Plan-internal id for a source function, queueing it for decoding on
    /// first reference.
    fn func_id(&mut self, f: OpId) -> u32 {
        if let Some(&id) = self.func_ids.get(&f) {
            return id;
        }
        let id = self.funcs.len() as u32;
        self.func_ids.insert(f, id);
        // Placeholder; patched when the pending queue drains.
        self.funcs.push(FuncPlan {
            code: Vec::new(),
            reg_count: 0,
            params: Vec::new(),
            has_item_param: false,
        });
        self.pending.push(f);
        id
    }

    fn decode_func(&mut self, func: OpId) -> Result<FuncPlan, DecodeError> {
        let m = self.m;
        let entry = m.op_region_block(func, 0);
        let mut fd = FuncDecode {
            regs: HashMap::new(),
            next_reg: 0,
            code: Vec::new(),
        };
        let params: Vec<Reg> = m.block_args(entry).iter().map(|&a| fd.reg_of(a)).collect();
        let has_item_param = m
            .block_args(entry)
            .last()
            .map(|&p| sycl_mlir_sycl::types::is_item_like(&m.value_type(p)))
            .unwrap_or(false);
        self.decode_block(&mut fd, entry)?;
        // A body that falls off the end without a terminator behaves like a
        // void return (mirrors the tree-walk frame pop).
        fd.code.push(Instr::Return { vals: Box::new([]) });
        Ok(FuncPlan {
            code: fd.code,
            reg_count: fd.next_reg,
            params,
            has_item_param,
        })
    }

    /// Decode every op of `block` into `fd.code`. Yields terminate decoding
    /// of the block and are handled by the enclosing structure's decoder.
    fn decode_block(
        &mut self,
        fd: &mut FuncDecode,
        block: sycl_mlir_ir::BlockId,
    ) -> Result<(), DecodeError> {
        let m = self.m;
        for &op in m.block_ops(block) {
            let kind = self.kinds.get(m.op_name(op)).ok_or_else(|| {
                dec_err(format!("op `{}` is not plan-decodable", m.op_name_str(op)))
            })?;
            self.decode_op(fd, op, kind)?;
        }
        Ok(())
    }

    fn operand_reg(&self, fd: &mut FuncDecode, op: OpId, index: usize) -> Reg {
        fd.reg_of(self.m.op_operand(op, index))
    }

    fn result_reg(&self, fd: &mut FuncDecode, op: OpId) -> Reg {
        fd.reg_of(self.m.op_result(op, 0))
    }

    /// A dimension operand: folded to `DimSrc::Const` when it is a
    /// compile-time integer constant.
    fn dim_src(&self, fd: &mut FuncDecode, op: OpId) -> DimSrc {
        let v = self.m.op_operand(op, 1);
        if let Some(def) = self.m.def_op(v) {
            if self.kinds.get(self.m.op_name(def)) == Some(OpKind::Constant) {
                if let Some(Attribute::Int(d)) = self.m.attr_by_id(def, self.keys.value) {
                    if (0..3).contains(d) {
                        return DimSrc::Const(*d as u8);
                    }
                }
            }
        }
        DimSrc::Reg(fd.reg_of(v))
    }

    fn index_regs(
        &self,
        fd: &mut FuncDecode,
        op: OpId,
        from: usize,
    ) -> Result<([Reg; 3], u8), DecodeError> {
        let operands = self.m.op_operands(op);
        let n = operands.len() - from;
        if n > 3 {
            return Err(dec_err("more than 3 index operands"));
        }
        let mut idx = [0 as Reg; 3];
        for (i, &v) in operands[from..].iter().enumerate() {
            idx[i] = fd.reg_of(v);
        }
        Ok((idx, n as u8))
    }

    /// Copy `srcs` into `dsts` with parallel-copy semantics: when a source
    /// register is also a destination (loop-carried swaps), route through
    /// fresh scratch registers.
    fn emit_parallel_copy(&self, fd: &mut FuncDecode, dsts: &[Reg], srcs: &[Reg]) {
        let overlap = srcs.iter().any(|s| dsts.contains(s));
        if overlap {
            let scratch: Vec<Reg> = srcs.iter().map(|_| fd.fresh()).collect();
            for (&t, &s) in scratch.iter().zip(srcs) {
                fd.code.push(Instr::Copy { dst: t, src: s });
            }
            for (&d, &t) in dsts.iter().zip(&scratch) {
                fd.code.push(Instr::Copy { dst: d, src: t });
            }
        } else {
            for (&d, &s) in dsts.iter().zip(srcs) {
                if d != s {
                    fd.code.push(Instr::Copy { dst: d, src: s });
                }
            }
        }
    }

    /// The yield operand registers of `block`'s terminator (which must be a
    /// yield for structured regions).
    fn yield_regs(
        &self,
        fd: &mut FuncDecode,
        block: sycl_mlir_ir::BlockId,
    ) -> Result<Vec<Reg>, DecodeError> {
        let m = self.m;
        let term = m
            .block_terminator(block)
            .ok_or_else(|| dec_err("structured region block has no terminator"))?;
        match self.kinds.get(m.op_name(term)) {
            Some(OpKind::Yield) => Ok(m.op_operands(term).iter().map(|&v| fd.reg_of(v)).collect()),
            _ => Err(dec_err("structured region does not end in a yield")),
        }
    }

    /// Decode the ops of a structured-region block, stopping before the
    /// trailing yield (the caller wires the yield's copies).
    fn decode_region_body(
        &mut self,
        fd: &mut FuncDecode,
        block: sycl_mlir_ir::BlockId,
    ) -> Result<(), DecodeError> {
        let m = self.m;
        let ops = m.block_ops(block);
        let Some((&term, body)) = ops.split_last() else {
            return Err(dec_err("empty structured region block"));
        };
        if self.kinds.get(m.op_name(term)) != Some(OpKind::Yield) {
            return Err(dec_err("structured region does not end in a yield"));
        }
        for &op in body {
            let kind = self.kinds.get(m.op_name(op)).ok_or_else(|| {
                dec_err(format!("op `{}` is not plan-decodable", m.op_name_str(op)))
            })?;
            self.decode_op(fd, op, kind)?;
        }
        Ok(())
    }

    fn decode_op(
        &mut self,
        fd: &mut FuncDecode,
        op: OpId,
        kind: OpKind,
    ) -> Result<(), DecodeError> {
        let m = self.m;
        match kind {
            OpKind::Constant => {
                let attr = m
                    .attr_by_id(op, self.keys.value)
                    .ok_or_else(|| dec_err("constant without value"))?;
                let ty = m.value_type(m.op_result(op, 0));
                let dst = self.result_reg(fd, op);
                match (attr, ty.kind()) {
                    (Attribute::Int(x), _) => fd.code.push(Instr::Const {
                        dst,
                        val: Slot::Int(*x),
                    }),
                    (Attribute::Bool(b), _) => fd.code.push(Instr::Const {
                        dst,
                        val: Slot::Int(*b as i64),
                    }),
                    (Attribute::Float(f), TypeKind::F32) => fd.code.push(Instr::Const {
                        dst,
                        val: Slot::F32(*f as f32),
                    }),
                    (Attribute::Float(f), _) => fd.code.push(Instr::Const {
                        dst,
                        val: Slot::F64(*f),
                    }),
                    (Attribute::DenseF64(_) | Attribute::DenseI64(_), TypeKind::MemRef { .. }) => {
                        let idx = self.dense_const_id(op, attr, &ty)?;
                        fd.code.push(Instr::ConstDense { dst, idx });
                    }
                    _ => return Err(dec_err("unsupported constant kind")),
                }
            }
            OpKind::IntBin(b) => {
                let (l, r) = (self.operand_reg(fd, op, 0), self.operand_reg(fd, op, 1));
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::BinInt { op: b, dst, l, r });
            }
            OpKind::FloatBin(b) => {
                let (l, r) = (self.operand_reg(fd, op, 0), self.operand_reg(fd, op, 1));
                let dst = self.result_reg(fd, op);
                let f32_out = matches!(m.value_type(m.op_result(op, 0)).kind(), TypeKind::F32);
                fd.code.push(Instr::BinFloat {
                    op: b,
                    dst,
                    l,
                    r,
                    f32_out,
                });
            }
            OpKind::NegF => {
                let x = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::NegF { dst, x });
            }
            OpKind::CmpI | OpKind::CmpF => {
                let pred = CmpPred::of_attr(m.attr_by_id(op, self.keys.predicate));
                let (l, r) = (self.operand_reg(fd, op, 0), self.operand_reg(fd, op, 1));
                let dst = self.result_reg(fd, op);
                fd.code.push(if kind == OpKind::CmpI {
                    Instr::CmpI { pred, dst, l, r }
                } else {
                    Instr::CmpF { pred, dst, l, r }
                });
            }
            OpKind::Select => {
                let c = self.operand_reg(fd, op, 0);
                let t = self.operand_reg(fd, op, 1);
                let f = self.operand_reg(fd, op, 2);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::Select { dst, c, t, f });
            }
            OpKind::CopyCast | OpKind::MemRefCast => {
                let src = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::Copy { dst, src });
            }
            OpKind::SiToFp => {
                let x = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                let f32_out = matches!(m.value_type(m.op_result(op, 0)).kind(), TypeKind::F32);
                fd.code.push(Instr::SiToFp { dst, x, f32_out });
            }
            OpKind::FpToSi => {
                let x = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::FpToSi { dst, x });
            }
            OpKind::TruncF => {
                let x = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::TruncF { dst, x });
            }
            OpKind::ExtF => {
                let x = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::ExtF { dst, x });
            }
            OpKind::Math(mop) => {
                let x = self.operand_reg(fd, op, 0);
                let y = if matches!(mop, MathOp::Powf) {
                    self.operand_reg(fd, op, 1)
                } else {
                    0
                };
                let dst = self.result_reg(fd, op);
                let f32_out = matches!(m.value_type(m.op_result(op, 0)).kind(), TypeKind::F32);
                fd.code.push(Instr::Math {
                    op: mop,
                    dst,
                    x,
                    y,
                    f32_out,
                });
            }
            OpKind::Alloca | OpKind::LocalAlloca => {
                let ty = m.value_type(m.op_result(op, 0));
                let shape_v = ty
                    .memref_shape()
                    .ok_or_else(|| dec_err("alloca of non-memref"))?
                    .to_vec();
                let elem = ty
                    .memref_elem()
                    .ok_or_else(|| dec_err("alloca of non-memref"))?;
                let len: i64 = shape_v.iter().product();
                let mut shape = [1_i64; 3];
                for (i, &s) in shape_v.iter().enumerate() {
                    if i >= 3 {
                        return Err(dec_err("alloca rank > 3"));
                    }
                    shape[i] = s;
                }
                let dst = self.result_reg(fd, op);
                let rank = shape_v.len() as u32;
                let len = len.max(0) as usize;
                if kind == OpKind::Alloca {
                    fd.code.push(Instr::Alloca {
                        dst,
                        elem,
                        shape,
                        rank,
                        len,
                    });
                } else {
                    let site = self.local_sites;
                    self.local_sites += 1;
                    fd.code.push(Instr::LocalAlloca {
                        dst,
                        site,
                        elem,
                        shape,
                        rank,
                        len,
                    });
                }
            }
            OpKind::Load => {
                let mem = self.operand_reg(fd, op, 0);
                let (idx, rank) = self.index_regs(fd, op, 1)?;
                let dst = self.result_reg(fd, op);
                let site = self.mem_sites;
                self.mem_sites += 1;
                fd.code.push(Instr::Load {
                    dst,
                    mem,
                    idx,
                    rank,
                    site,
                });
            }
            OpKind::Store => {
                let val = self.operand_reg(fd, op, 0);
                let mem = self.operand_reg(fd, op, 1);
                let (idx, rank) = self.index_regs(fd, op, 2)?;
                let site = self.mem_sites;
                self.mem_sites += 1;
                fd.code.push(Instr::Store {
                    val,
                    mem,
                    idx,
                    rank,
                    site,
                });
            }
            OpKind::IdCtor => {
                let operands = m.op_operands(op);
                if operands.len() > 3 {
                    return Err(dec_err("id constructor rank > 3"));
                }
                let mut comps = [0 as Reg; 3];
                for (i, &v) in operands.iter().enumerate() {
                    comps[i] = fd.reg_of(v);
                }
                let rank = operands.len() as u8;
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::VecCtor { dst, comps, rank });
            }
            OpKind::NdRangeCtor => {
                let g = self.operand_reg(fd, op, 0);
                let l = self.operand_reg(fd, op, 1);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::NdRangeCtor { dst, g, l });
            }
            OpKind::VecGet => {
                let v = self.operand_reg(fd, op, 0);
                let dim = self.dim_src(fd, op);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::VecGet { dst, v, dim });
            }
            OpKind::RangeSize => {
                let v = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::RangeSize { dst, v });
            }
            OpKind::Item(q) => {
                let dim = self.dim_src(fd, op);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::ItemQuery { dst, q, dim });
            }
            OpKind::GlobalLinearId => {
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::GlobalLinearId { dst });
            }
            OpKind::LocalLinearId => {
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::LocalLinearId { dst });
            }
            OpKind::ItemSelf => {
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::ItemSelf { dst });
            }
            OpKind::AccSubscript => {
                let acc = self.operand_reg(fd, op, 0);
                let id = self.operand_reg(fd, op, 1);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::AccSubscript { dst, acc, id });
            }
            OpKind::AccRange => {
                let acc = self.operand_reg(fd, op, 0);
                let dim = self.dim_src(fd, op);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::AccRange { dst, acc, dim });
            }
            OpKind::AccBase => {
                let acc = self.operand_reg(fd, op, 0);
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::AccBase { dst, acc });
            }
            OpKind::Undef => {
                let dst = self.result_reg(fd, op);
                fd.code.push(Instr::Const {
                    dst,
                    val: Slot::Int(0),
                });
            }
            OpKind::Barrier => fd.code.push(Instr::Barrier),
            OpKind::If => {
                let cond = self.operand_reg(fd, op, 0);
                let results: Vec<Reg> = m.op_results(op).iter().map(|&r| fd.reg_of(r)).collect();
                if m.op_regions(op).len() < 2 {
                    return Err(dec_err("scf.if without else region"));
                }
                let branch_pc = fd.pc();
                fd.code.push(Instr::BranchIfFalse { cond, target: 0 }); // patched
                let then_blk = m.op_region_block(op, 0);
                self.decode_region_body(fd, then_blk)?;
                let then_yields = self.yield_regs(fd, then_blk)?;
                self.emit_parallel_copy(fd, &results, &then_yields);
                let jump_pc = fd.pc();
                fd.code.push(Instr::Jump { target: 0 }); // patched
                let else_start = fd.pc();
                let else_blk = m.op_region_block(op, 1);
                self.decode_region_body(fd, else_blk)?;
                let else_yields = self.yield_regs(fd, else_blk)?;
                self.emit_parallel_copy(fd, &results, &else_yields);
                let end = fd.pc();
                if let Instr::BranchIfFalse { target, .. } = &mut fd.code[branch_pc as usize] {
                    *target = else_start;
                }
                if let Instr::Jump { target } = &mut fd.code[jump_pc as usize] {
                    *target = end;
                }
            }
            OpKind::For => {
                let lb = self.operand_reg(fd, op, 0);
                let ub = self.operand_reg(fd, op, 1);
                let step = self.operand_reg(fd, op, 2);
                let inits: Vec<Reg> = m.op_operands(op)[3..]
                    .iter()
                    .map(|&v| fd.reg_of(v))
                    .collect();
                let body_blk = m.op_region_block(op, 0);
                let body_args = m.block_args(body_blk);
                if body_args.len() != inits.len() + 1 {
                    return Err(dec_err("loop body arity mismatch"));
                }
                let iv = fd.reg_of(body_args[0]);
                let carries: Vec<Reg> = body_args[1..].iter().map(|&a| fd.reg_of(a)).collect();
                let results: Vec<Reg> = m.op_results(op).iter().map(|&r| fd.reg_of(r)).collect();
                // carries := inits (also the zero-trip result values).
                self.emit_parallel_copy(fd, &carries, &inits);
                let enter_pc = fd.pc();
                fd.code.push(Instr::ForEnter {
                    lb,
                    ub,
                    step,
                    iv,
                    exit: 0,
                }); // patched
                let body_pc = fd.pc();
                self.decode_region_body(fd, body_blk)?;
                let yields = self.yield_regs(fd, body_blk)?;
                self.emit_parallel_copy(fd, &carries, &yields);
                fd.code.push(Instr::ForNext {
                    iv,
                    step,
                    ub,
                    body: body_pc,
                });
                let exit = fd.pc();
                if let Instr::ForEnter { exit: e, .. } = &mut fd.code[enter_pc as usize] {
                    *e = exit;
                }
                self.emit_parallel_copy(fd, &results, &carries);
            }
            OpKind::Call => {
                let scope = enclosing_module(m, op);
                let callee = sycl_mlir_dialects::func::resolve_callee(m, op, scope)
                    .ok_or_else(|| dec_err("unresolved call"))?;
                let func = self.func_id(callee);
                let args: Box<[Reg]> = m.op_operands(op).iter().map(|&v| fd.reg_of(v)).collect();
                let results: Box<[Reg]> = m.op_results(op).iter().map(|&r| fd.reg_of(r)).collect();
                fd.code.push(Instr::Call {
                    func,
                    args,
                    results,
                });
            }
            OpKind::Return => {
                let vals: Box<[Reg]> = m.op_operands(op).iter().map(|&v| fd.reg_of(v)).collect();
                fd.code.push(Instr::Return { vals });
            }
            OpKind::Yield => {
                // Yields are consumed by the enclosing If/For decoder; a
                // yield here means malformed structure.
                return Err(dec_err("yield outside of an if/loop"));
            }
        }
        Ok(())
    }

    fn dense_const_id(
        &mut self,
        op: OpId,
        attr: &Attribute,
        ty: &Type,
    ) -> Result<u32, DecodeError> {
        if let Some(&idx) = self.dense_ids.get(&op) {
            return Ok(idx);
        }
        let elem = ty
            .memref_elem()
            .ok_or_else(|| dec_err("dense constant must be memref"))?;
        let data = match (attr, elem.kind()) {
            (Attribute::DenseF64(v), TypeKind::F32) => {
                DataVec::F32(v.iter().map(|&x| x as f32).collect())
            }
            (Attribute::DenseF64(v), _) => DataVec::F64(v.clone()),
            (Attribute::DenseI64(v), TypeKind::Int(w)) if *w <= 32 => {
                DataVec::I32(v.iter().map(|&x| x as i32).collect())
            }
            (Attribute::DenseI64(v), _) => DataVec::I64(v.clone()),
            _ => return Err(dec_err("unsupported dense constant")),
        };
        let shape_v = ty.memref_shape().unwrap();
        if shape_v.len() > 3 {
            return Err(dec_err("dense constant rank > 3"));
        }
        let mut shape = [1_i64; 3];
        for (i, &s) in shape_v.iter().enumerate() {
            shape[i] = s;
        }
        let idx = self.dense_consts.len() as u32;
        self.dense_consts.push(DenseConst {
            data,
            shape,
            rank: shape_v.len() as u32,
        });
        self.dense_ids.insert(op, idx);
        Ok(idx)
    }
}

// ----------------------------------------------------------------------
// Peephole fusion
// ----------------------------------------------------------------------

/// Call `f` on every register an instruction *reads*.
pub(crate) fn for_each_read(instr: &Instr, mut f: impl FnMut(Reg)) {
    fn dim(d: &DimSrc, f: &mut impl FnMut(Reg)) {
        if let DimSrc::Reg(r) = d {
            f(*r);
        }
    }
    match instr {
        Instr::Const { .. }
        | Instr::ConstDense { .. }
        | Instr::Alloca { .. }
        | Instr::LocalAlloca { .. }
        | Instr::GlobalLinearId { .. }
        | Instr::LocalLinearId { .. }
        | Instr::ItemSelf { .. }
        | Instr::Barrier
        | Instr::Jump { .. } => {}
        Instr::Copy { src, .. } => f(*src),
        Instr::BinInt { l, r, .. }
        | Instr::BinFloat { l, r, .. }
        | Instr::CmpI { l, r, .. }
        | Instr::CmpF { l, r, .. }
        | Instr::CmpIBranch { l, r, .. } => {
            f(*l);
            f(*r);
        }
        Instr::NegF { x, .. }
        | Instr::SiToFp { x, .. }
        | Instr::FpToSi { x, .. }
        | Instr::TruncF { x, .. }
        | Instr::ExtF { x, .. } => f(*x),
        Instr::Select { c, t, f: fv, .. } => {
            f(*c);
            f(*t);
            f(*fv);
        }
        Instr::Math { op, x, y, .. } => {
            f(*x);
            if matches!(op, MathOp::Powf) {
                f(*y);
            }
        }
        Instr::Load { mem, idx, rank, .. } => {
            f(*mem);
            idx[..*rank as usize].iter().for_each(|&r| f(r));
        }
        Instr::Store {
            val,
            mem,
            idx,
            rank,
            ..
        } => {
            f(*val);
            f(*mem);
            idx[..*rank as usize].iter().for_each(|&r| f(r));
        }
        Instr::LoadBinFloat {
            other,
            mem,
            idx,
            rank,
            ..
        } => {
            f(*other);
            f(*mem);
            idx[..*rank as usize].iter().for_each(|&r| f(r));
        }
        Instr::AccLoadIndexed {
            acc,
            comps,
            comps_rank,
            idx,
            rank,
            ..
        } => {
            f(*acc);
            comps[..*comps_rank as usize].iter().for_each(|&r| f(r));
            idx[..*rank as usize].iter().for_each(|&r| f(r));
        }
        Instr::LoadMulAddF {
            mem,
            idx,
            rank,
            b,
            c,
            ..
        } => {
            f(*mem);
            idx[..*rank as usize].iter().for_each(|&r| f(r));
            f(*b);
            f(*c);
        }
        Instr::StoreBinFloat {
            l,
            r,
            mem,
            idx,
            rank,
            ..
        } => {
            f(*l);
            f(*r);
            f(*mem);
            idx[..*rank as usize].iter().for_each(|&r| f(r));
        }
        // Write-through: the kept intermediate registers (id, view,
        // constant) are *defined* by the superinstruction, not consumed
        // from outside — only operands external to the window count as
        // reads.
        Instr::AccLoadQuad {
            acc,
            comps,
            comps_rank,
            ..
        } => {
            f(*acc);
            comps[..*comps_rank as usize].iter().for_each(|&r| f(r));
        }
        Instr::VecCtor { comps, rank, .. } => {
            comps[..*rank as usize].iter().for_each(|&r| f(r));
        }
        Instr::NdRangeCtor { g, l, .. } => {
            f(*g);
            f(*l);
        }
        Instr::VecGet { v, dim: d, .. } => {
            f(*v);
            dim(d, &mut f);
        }
        Instr::RangeSize { v, .. } => f(*v),
        Instr::ItemQuery { dim: d, .. } => dim(d, &mut f),
        Instr::AccSubscript { acc, id, .. } => {
            f(*acc);
            f(*id);
        }
        Instr::AccRange { acc, dim: d, .. } => {
            f(*acc);
            dim(d, &mut f);
        }
        Instr::AccBase { acc, .. } => f(*acc),
        Instr::BranchIfFalse { cond, .. } => f(*cond),
        Instr::ForEnter { lb, ub, step, .. } => {
            f(*lb);
            f(*ub);
            f(*step);
        }
        Instr::ForNext { iv, step, ub, .. } => {
            f(*iv);
            f(*step);
            f(*ub);
        }
        Instr::Call { args, .. } => args.iter().for_each(|&r| f(r)),
        Instr::Return { vals } => vals.iter().for_each(|&r| f(r)),
    }
}

/// How aggressively the peephole pass ([`fuse_plan_with`]) rewrites a
/// decoded plan. Part of the device's plan-cache key: plans fused at
/// different levels are distinct cache entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FuseLevel {
    /// No rewriting: execute the decoder's output as-is.
    Off,
    /// Every window of the pattern table — the default.
    Chains,
}

/// The reified fusion pass over one function: the dataflow facts a legal
/// rewrite depends on — function-wide register read counts and the
/// jump-target set — plus the pattern table matching bounded windows of
/// adjacent instructions against them.
///
/// **Legality.** A window of `w` instructions may collapse into one
/// superinstruction when
///
/// * every **elided intermediate** (a register written by one member and
///   consumed by the next) has exactly one read in the whole function —
///   that read always observes the producer's write, so skipping the
///   register file is unobservable. Read counting also subsumes every
///   aliasing hazard: an operand of any member that re-reads an
///   intermediate (or an intermediate doubling as another member's
///   operand) pushes its count past one and blocks the rewrite;
/// * no member after the head is a **jump target** — control flow
///   entering mid-window would skip the elided producers. (The head may
///   be a target: the whole window maps to the superinstruction's pc.)
///
/// **The write-through window** (`AccLoadQuad`, load-headed) needs no
/// read counts: it *keeps* every intermediate's register write and
/// replays the window's steps in order through the real register file,
/// so later readers of a multiply-read intermediate observe precisely the
/// unfused state — only the mid-window jump-target rule remains.
///
/// **Overlap resolution.** Competing patterns are resolved
/// deterministically: the scan is greedy left-to-right, and at each
/// position the longest window wins (a chain beats the pair sharing its
/// head). Once matched, a window's members are consumed — decode order,
/// never scheduling, decides the outcome.
struct ChainMatcher {
    /// How often each register is read anywhere in the function.
    reads: Vec<u32>,
    /// Positions control flow can enter other than by fall-through.
    is_target: Vec<bool>,
}

impl ChainMatcher {
    fn new(f: &FuncPlan) -> ChainMatcher {
        let mut reads = vec![0_u32; f.reg_count as usize];
        for instr in &f.code {
            for_each_read(instr, |r| reads[r as usize] += 1);
        }
        let mut is_target = vec![false; f.code.len() + 1];
        for t in f.code.iter().filter_map(Instr::target) {
            is_target[t as usize] = true;
        }
        ChainMatcher { reads, is_target }
    }

    /// Whether `r` is a pure intermediate whose write the rewrite may
    /// elide: read exactly once in the whole function.
    #[inline]
    fn elidable(&self, r: Reg) -> bool {
        self.reads[r as usize] == 1
    }

    /// Whether a `len`-instruction window starting at `i` stays inside
    /// the code and is entered only through its head.
    fn window_open(&self, i: usize, len: usize, n: usize) -> bool {
        i + len <= n && (i + 1..i + len).all(|k| !self.is_target[k])
    }

    /// The longest legal rewrite starting at `i`; its
    /// [`Instr::op_weight`] is the length of the window it replaces.
    /// Longer windows are tried before shorter ones so overlapping
    /// patterns (e.g. `Load`+`mulf` inside `Load`+`mulf`+`addf`) resolve
    /// deterministically to the longer fusion.
    fn fuse_at(&self, code: &[Instr], i: usize) -> Option<Instr> {
        let open = |len| self.window_open(i, len, code.len());
        if open(4) {
            if let Some(s) = self.try_quad(&code[i], &code[i + 1], &code[i + 2], &code[i + 3]) {
                return Some(s);
            }
        }
        if open(3) {
            if let Some(s) = self.try_chain(&code[i], &code[i + 1], &code[i + 2]) {
                return Some(s);
            }
        }
        if open(2) {
            return self.try_pair(&code[i], &code[i + 1]);
        }
        None
    }

    /// The four-instruction un-CSE'd accessor read: the builder's zero
    /// constant of `load_via_id` interposed between the subscript and the
    /// load, as the DPC++ flow (no CSE across the chain) emits it.
    /// Write-through — legality is shape plus window openness, never
    /// read counts.
    fn try_quad(&self, a: &Instr, b: &Instr, c: &Instr, d: &Instr) -> Option<Instr> {
        match (a, b, c, d) {
            // id = vec.ctor comps; view = acc[id]; cst = const;
            // dst = load view[cst].
            (
                Instr::VecCtor {
                    dst: id,
                    comps,
                    rank: comps_rank,
                },
                Instr::AccSubscript {
                    dst: view,
                    acc,
                    id: sub_id,
                },
                Instr::Const { dst: cst, val },
                Instr::Load {
                    dst,
                    mem,
                    idx,
                    rank,
                    site,
                },
            ) if sub_id == id && mem == view && *rank == 1 && idx[0] == *cst => {
                Some(Instr::AccLoadQuad {
                    dst: *dst,
                    acc: *acc,
                    comps: *comps,
                    comps_rank: *comps_rank,
                    id: *id,
                    view: *view,
                    cst: *cst,
                    cst_val: *val,
                    site: *site,
                })
            }
            _ => None,
        }
    }

    /// Three-instruction chain patterns.
    fn try_chain(&self, a: &Instr, b: &Instr, c: &Instr) -> Option<Instr> {
        match (a, b, c) {
            // id = vec.ctor comps; view = acc[id]; dst = load view[idx].
            (
                Instr::VecCtor {
                    dst: id,
                    comps,
                    rank: comps_rank,
                },
                Instr::AccSubscript {
                    dst: view,
                    acc,
                    id: sub_id,
                },
                Instr::Load {
                    dst,
                    mem,
                    idx,
                    rank,
                    site,
                },
            ) if sub_id == id && mem == view && self.elidable(*id) && self.elidable(*view) => {
                Some(Instr::AccLoadIndexed {
                    dst: *dst,
                    acc: *acc,
                    comps: *comps,
                    comps_rank: *comps_rank,
                    idx: *idx,
                    rank: *rank,
                    site: *site,
                })
            }
            // t = load; u = t*b (or b*t); dst = u + c (or c + u).
            (
                Instr::Load {
                    dst: t,
                    mem,
                    idx,
                    rank,
                    site,
                },
                Instr::BinFloat {
                    op: FloatBin::Mul,
                    dst: u,
                    l: ml,
                    r: mr,
                    f32_out: mul_f32,
                },
                Instr::BinFloat {
                    op: FloatBin::Add,
                    dst,
                    l: al,
                    r: ar,
                    f32_out,
                },
            ) if self.elidable(*t)
                && ((ml == t) != (mr == t))
                && self.elidable(*u)
                && ((al == u) != (ar == u)) =>
            {
                let loaded_is_lhs = ml == t;
                let prod_is_lhs = al == u;
                Some(Instr::LoadMulAddF {
                    dst: *dst,
                    mem: *mem,
                    idx: *idx,
                    rank: *rank,
                    site: *site,
                    b: if loaded_is_lhs { *mr } else { *ml },
                    loaded_is_lhs,
                    mul_f32: *mul_f32,
                    c: if prod_is_lhs { *ar } else { *al },
                    prod_is_lhs,
                    f32_out: *f32_out,
                })
            }
            _ => None,
        }
    }

    /// Two-instruction pair patterns.
    fn try_pair(&self, a: &Instr, b: &Instr) -> Option<Instr> {
        match (a, b) {
            // load t; dst = t ⊕ other (or other ⊕ t) for commutative ⊕.
            (
                Instr::Load {
                    dst: t,
                    mem,
                    idx,
                    rank,
                    site,
                },
                Instr::BinFloat {
                    op: op @ (FloatBin::Add | FloatBin::Mul),
                    dst,
                    l,
                    r,
                    f32_out,
                },
            ) if self.elidable(*t) && ((l == t) != (r == t)) => {
                let loaded_is_lhs = l == t;
                Some(Instr::LoadBinFloat {
                    op: *op,
                    dst: *dst,
                    other: if loaded_is_lhs { *r } else { *l },
                    loaded_is_lhs,
                    f32_out: *f32_out,
                    mem: *mem,
                    idx: *idx,
                    rank: *rank,
                    site: *site,
                })
            }
            // t = cmpi l, r; branch-if-false t.
            (Instr::CmpI { pred, dst: t, l, r }, Instr::BranchIfFalse { cond, target })
                if self.elidable(*t) && cond == t =>
            {
                Some(Instr::CmpIBranch {
                    pred: *pred,
                    l: *l,
                    r: *r,
                    target: *target,
                })
            }
            // t = l ⊕ r; store t, mem[idx]: accumulate-then-store.
            (
                Instr::BinFloat {
                    op,
                    dst: t,
                    l,
                    r,
                    f32_out,
                },
                Instr::Store {
                    val,
                    mem,
                    idx,
                    rank,
                    site,
                },
            ) if val == t && self.elidable(*t) => Some(Instr::StoreBinFloat {
                op: *op,
                l: *l,
                r: *r,
                f32_out: *f32_out,
                mem: *mem,
                idx: *idx,
                rank: *rank,
                site: *site,
            }),
            _ => None,
        }
    }
}

/// Fuse one function's code in place; returns the number of windows
/// fused.
fn fuse_func(f: &mut FuncPlan) -> u32 {
    let matcher = ChainMatcher::new(f);
    let n = f.code.len();
    let mut new_code: Vec<Instr> = Vec::with_capacity(n);
    // Old pc -> new pc (every member of a fused window maps to the
    // superinstruction, so jumps to the window head land on the fusion).
    let mut remap = vec![0_u32; n + 1];
    let mut fused = 0;
    let mut i = 0;
    while i < n {
        let instr = match matcher.fuse_at(&f.code, i) {
            Some(s) => {
                fused += 1;
                s
            }
            None => f.code[i].clone(),
        };
        // The metering weight *is* the window length (1 for a primitive):
        // a weight that miscounts its members mis-fuses here, in front of
        // every differential test, instead of shifting a budget trip point.
        let len = instr.op_weight() as usize;
        remap[i..i + len].fill(new_code.len() as u32);
        new_code.push(instr);
        i += len;
    }
    remap[n] = new_code.len() as u32;
    for t in new_code.iter_mut().filter_map(Instr::target_mut) {
        *t = remap[*t as usize];
    }
    f.code = new_code;
    fused
}

/// Peephole-fuse hot instruction windows of a decoded plan into
/// superinstructions, in place ([`FuseLevel::Off`] leaves the plan as
/// decoded), and return the number of windows fused.
///
/// The pattern table is `ChainMatcher`'s: pairs (**load-accumulate**,
/// **compare-branch**, **accumulate-store**), three-instruction chains
/// (the **indexed accessor load** `vec.ctor` + `acc.subscript` + `Load`
/// and the **fused multiply-accumulate** `Load` + `mulf` + `addf`) and
/// the un-CSE'd four-instruction accessor read of the DPC++ flow. A
/// superinstruction's executor arm expands the same steps as its
/// members' own arms, in window order, so it bumps the same statistics
/// and raises the same errors, in the same order, as the window it
/// replaces: fused execution is bit-identical to unfused execution — the
/// differential suite holds both against the tree-walk reference.
pub fn fuse_plan_with(plan: &mut KernelPlan, level: FuseLevel) -> u32 {
    match level {
        FuseLevel::Off => 0,
        FuseLevel::Chains => plan.funcs.iter_mut().map(fuse_func).sum(),
    }
}

/// [`fuse_plan_with`] at the default [`FuseLevel::Chains`].
pub fn fuse_plan(plan: &mut KernelPlan) -> u32 {
    fuse_plan_with(plan, FuseLevel::Chains)
}

/// Fold flat per-instruction execution counts (a profiled [`PlanCtx`]
/// drained by [`PlanCtx::take_profile`], merged across workers) into the
/// accumulators of the `--profile` dump:
///
/// * `ops` — total executions per opcode mnemonic;
/// * `pairs` — executions of **dataflow-adjacent** instruction pairs:
///   consecutive instructions where the second reads the first's result
///   and is not a jump target — precisely the shape [`fuse_plan`]'s
///   peephole patterns require, so the hottest pairs here are the ranked
///   candidates for the next superinstruction.
pub fn profile_summary(
    plan: &KernelPlan,
    counts: &[u64],
    ops: &mut std::collections::BTreeMap<&'static str, u64>,
    pairs: &mut std::collections::BTreeMap<(&'static str, &'static str), u64>,
) {
    let mut off = 0_usize;
    for f in &plan.funcs {
        let mut is_target = vec![false; f.code.len() + 1];
        for t in f.code.iter().filter_map(Instr::target) {
            is_target[t as usize] = true;
        }
        for (i, instr) in f.code.iter().enumerate() {
            let c = counts[off + i];
            if c == 0 {
                continue;
            }
            *ops.entry(instr.mnemonic()).or_insert(0) += c;
            let Some(d) = instr.dst_reg() else { continue };
            if i + 1 >= f.code.len() || is_target[i + 1] {
                continue;
            }
            let next = &f.code[i + 1];
            let c2 = counts[off + i + 1];
            if c2 == 0 {
                continue;
            }
            let mut reads_d = false;
            for_each_read(next, |r| reads_d |= r == d);
            if reads_d {
                *pairs
                    .entry((instr.mnemonic(), next.mnemonic()))
                    .or_insert(0) += c.min(c2);
            }
        }
        off += f.code.len();
    }
}

// ----------------------------------------------------------------------
// Executor
// ----------------------------------------------------------------------

/// Per-worker mutable state of the plan engine, layered on the worker's
/// [`PlanExecCtx`] (memory interface, cost model, stats, work-group
/// tracker).
pub struct PlanCtx {
    /// Materialized dense constants, shared across the worker's groups
    /// (mirrors the tree-walk `const_pool`; under parallel execution each
    /// worker materializes its own arena copy).
    dense_cache: Vec<Option<MemRefVal>>,
    /// Work-group-shared `sycl.local.alloca` results, reset per group.
    local_allocs: Vec<Option<MemRefVal>>,
    /// Per-instruction execution counters (`--profile` runs only; `None`
    /// keeps the executor's hot loop on a single predictable branch).
    profile: Option<ProfileBuf>,
    /// Execution-limit meter (limited runs only; `None` — the default —
    /// monomorphizes all metering out of the executor).
    limits: Option<Box<crate::limits::OpMeter>>,
    /// Per-site proven-in-bounds bitset from the decode-time verifier,
    /// instantiated against the current launch (empty = no fast paths;
    /// see [`crate::verify::PlanFacts::instantiate`]). Proven sites take
    /// the unchecked pool path; unproven sites keep the checked path and
    /// its exact error text.
    proven: std::sync::Arc<[u64]>,
    /// Every barrier in the plan is statically uniform (skip per-group
    /// divergence bookkeeping; bit-identical — a statically-uniform
    /// barrier cannot trip the divergence check).
    pub(crate) uniform: bool,
}

/// Flat execution counters over every function of one plan: `counts[i]`
/// is how often the instruction at flat index `i` (functions concatenated
/// in [`KernelPlan::funcs`] order) executed.
struct ProfileBuf {
    /// Start offset of each function's code in `counts`.
    starts: Box<[u32]>,
    counts: Box<[u64]>,
}

impl ProfileBuf {
    fn new(plan: &KernelPlan) -> ProfileBuf {
        let mut starts = Vec::with_capacity(plan.funcs.len());
        let mut off = 0_u32;
        for f in &plan.funcs {
            starts.push(off);
            off += f.code.len() as u32;
        }
        ProfileBuf {
            starts: starts.into_boxed_slice(),
            counts: vec![0; off as usize].into_boxed_slice(),
        }
    }
}

impl PlanCtx {
    /// Per-worker state sized for `plan` (dense cache, local-alloca sites).
    pub fn new(plan: &KernelPlan) -> PlanCtx {
        PlanCtx {
            dense_cache: vec![None; plan.dense_consts.len()],
            local_allocs: vec![None; plan.local_sites as usize],
            profile: None,
            limits: None,
            proven: std::sync::Arc::from(Vec::new().into_boxed_slice()),
            uniform: false,
        }
    }

    /// Attach the launch-instantiated static facts: the proven-site
    /// bitset (sites whose bounds check `PlanPool::check` skips — so it
    /// must come from [`crate::verify::PlanFacts::instantiate`] for this
    /// launch) and the all-barriers-uniform flag.
    pub(crate) fn set_facts(&mut self, proven: std::sync::Arc<[u64]>, uniform: bool) {
        self.proven = proven;
        self.uniform = uniform;
    }

    /// Whether memory site `site` was proven in-bounds for this launch.
    #[inline(always)]
    fn site_proven(&self, site: u32) -> bool {
        let w = self.proven.get((site >> 6) as usize).copied().unwrap_or(0);
        (w >> (site & 63)) & 1 != 0
    }

    /// Attach an execution-limit meter: subsequent runs through this
    /// context charge every instruction's weight against it.
    pub(crate) fn set_meter(&mut self, meter: crate::limits::OpMeter) {
        self.limits = Some(Box::new(meter));
    }

    /// Like [`PlanCtx::new`], additionally counting every executed
    /// instruction (drained with [`PlanCtx::take_profile`]).
    pub fn profiled(plan: &KernelPlan) -> PlanCtx {
        PlanCtx {
            profile: Some(ProfileBuf::new(plan)),
            ..PlanCtx::new(plan)
        }
    }

    /// The flat per-instruction execution counts accumulated so far, if
    /// this context was built with [`PlanCtx::profiled`]. Counts are plain
    /// sums, so per-worker buffers merge by element-wise addition in any
    /// order.
    pub fn take_profile(&mut self) -> Option<Box<[u64]>> {
        self.profile.take().map(|p| p.counts)
    }

    /// Reset work-group-shared state (call between work-groups). Also the
    /// meter's settle point: unspent op-budget grant returns to the
    /// launch's shared budget and the fault countdown re-arms.
    pub fn next_work_group(&mut self) {
        self.local_allocs.iter_mut().for_each(|s| *s = None);
        if let Some(m) = self.limits.as_deref_mut() {
            m.begin_group();
        }
    }
}

struct PlanFrame {
    func: u32,
    pc: u32,
    /// Base of this frame's registers in the flat register file.
    base: u32,
}

/// One work-item's resumable execution state over a [`KernelPlan`].
pub struct PlanWorkItem {
    /// All frames' registers, contiguous; frames address `regs[base..]`.
    regs: Vec<Slot>,
    /// Payloads of the registers tagged [`Slot::Vec`], [`Slot::MemRef`]
    /// and [`Slot::NdRange`], at the register's absolute index. A bank
    /// grows to the highest register written and is never cleared: an
    /// entry is reachable only through a tag, written after the entry.
    vecs: Vec<VecVal>,
    memrefs: Vec<MemRefVal>,
    nd_ranges: Vec<(VecVal, VecVal)>,
    frames: Vec<PlanFrame>,
    /// Per-site visit counters feeding the coalescing tracker (same
    /// instance numbering as the tree-walk interpreter's per-op visits).
    visits: Vec<u32>,
    /// The work-item’s position bundle.
    pub item: NdItemVal,
    /// The sub-group of `item`: one third of the coalescing tracker's key.
    subgroup: u32,
    /// Whether the work-item ran to completion.
    pub finished: bool,
    steps: u64,
}

const MAX_STEPS: u64 = 500_000_000;

impl PlanWorkItem {
    /// A placeholder slot, bound to a real work-item by
    /// [`PlanWorkItem::reset`]. A worker keeps its slots across
    /// work-groups and launches, so the steady state allocates nothing
    /// per work-item.
    pub fn empty() -> PlanWorkItem {
        PlanWorkItem {
            regs: Vec::new(),
            vecs: Vec::new(),
            memrefs: Vec::new(),
            nd_ranges: Vec::new(),
            frames: Vec::new(),
            visits: Vec::new(),
            item: NdItemVal {
                global_id: [0; 3],
                local_id: [0; 3],
                group_id: [0; 3],
                global_range: [1; 3],
                local_range: [1; 3],
                rank: 1,
            },
            subgroup: 0,
            finished: false,
            steps: 0,
        }
    }

    /// Rebind this slot to a fresh work-item of the plan's kernel: `args`
    /// go to all parameters except the trailing item-like one, which gets
    /// `item`. Every register, frame and visit counter is reset, so
    /// nothing of the slot's previous work-item (finished, suspended at a
    /// barrier or failed mid-callee) survives. `subgroup_size` is the
    /// cost model's.
    pub fn reset(
        &mut self,
        plan: &KernelPlan,
        args: &[RtValue],
        item: NdItemVal,
        subgroup_size: usize,
    ) -> Result<(), SimError> {
        let kernel = &plan.funcs[0];
        self.regs.clear();
        self.regs.resize(kernel.reg_count as usize, Slot::Unit);
        // One allocation per bank, made next to the registers': banks
        // grown register by register leave the heap in pieces.
        let spare = |len| (kernel.reg_count as usize).saturating_sub(len);
        self.vecs.reserve(spare(self.vecs.len()));
        self.memrefs.reserve(spare(self.memrefs.len()));
        self.frames.clear();
        self.frames.push(PlanFrame {
            func: 0,
            pc: 0,
            base: 0,
        });
        self.visits.clear();
        self.visits.resize(plan.mem_sites as usize, 0);
        self.item = item;
        self.subgroup = (item.local_linear_id() / subgroup_size as i64) as u32;
        self.finished = false;
        self.steps = 0;
        let params = &kernel.params;
        let value_params = if kernel.has_item_param {
            &params[..params.len() - 1]
        } else {
            &params[..]
        };
        if value_params.len() != args.len() {
            return Err(err(format!(
                "kernel expects {} arguments, got {}",
                value_params.len(),
                args.len()
            )));
        }
        for (i, (&p, a)) in value_params.iter().zip(args).enumerate() {
            let p = p as usize;
            self.regs[p] = match *a {
                RtValue::Vec(v) => {
                    put(&mut self.vecs, p, v);
                    Slot::Vec
                }
                RtValue::MemRef(v) => {
                    put(&mut self.memrefs, p, v);
                    Slot::MemRef
                }
                RtValue::NdRange(g, l) => {
                    put(&mut self.nd_ranges, p, (g, l));
                    Slot::NdRange
                }
                RtValue::Accessor(_) => Slot::Accessor(i as u32),
                // A kernel sees one item, its own.
                RtValue::Item(_) => Slot::Item,
                RtValue::Ptr(v) => Slot::Ptr(v),
                RtValue::Unit => Slot::Unit,
                scalar => Slot::scalar(scalar),
            };
        }
        if kernel.has_item_param {
            self.regs[*params.last().unwrap() as usize] = Slot::Item;
        }
        Ok(())
    }

    /// Whole-register move, absolute indices: the destination gets its own
    /// copy of an out-of-line payload, so overwriting the source later
    /// does not reach it.
    #[inline(always)]
    fn mov(&mut self, dst: usize, src: usize) {
        fn copy<T: Copy>(bank: &mut Vec<T>, dst: usize, src: usize) {
            let v = bank[src];
            put(bank, dst, v);
        }
        let s = self.regs[src];
        match s {
            Slot::Vec => copy(&mut self.vecs, dst, src),
            Slot::MemRef => copy(&mut self.memrefs, dst, src),
            Slot::NdRange => copy(&mut self.nd_ranges, dst, src),
            _ => {}
        }
        self.regs[dst] = s;
    }

    /// Register `abs` as the public value type (what a store hands to
    /// device memory, which faults on anything but a scalar by its kind).
    #[inline(always)]
    fn value(&self, abs: usize, args: &[RtValue]) -> RtValue {
        match self.regs[abs] {
            Slot::Int(v) => RtValue::Int(v),
            Slot::F32(v) => RtValue::F32(v),
            Slot::F64(v) => RtValue::F64(v),
            Slot::Ptr(v) => RtValue::Ptr(v),
            Slot::Unit => RtValue::Unit,
            Slot::Vec => RtValue::Vec(self.vecs[abs]),
            Slot::MemRef => RtValue::MemRef(self.memrefs[abs]),
            Slot::NdRange => RtValue::NdRange(self.nd_ranges[abs].0, self.nd_ranges[abs].1),
            Slot::Accessor(i) => args[i as usize],
            Slot::Item => RtValue::Item(self.item),
        }
    }

    /// Run until the next barrier or completion. `args` are the launch's
    /// arguments, the ones [`Self::reset`] bound.
    pub fn run(
        &mut self,
        plan: &KernelPlan,
        args: &[RtValue],
        ctx: &mut PlanExecCtx<'_, '_>,
        pctx: &mut PlanCtx,
    ) -> Result<Stop, SimError> {
        // Monomorphize the interpreter loop over the profiling and
        // limit-metering switches so the default run (neither) carries no
        // per-instruction branch.
        match (pctx.profile.is_some(), pctx.limits.is_some()) {
            (false, false) => self.run_impl::<false, false>(plan, args, ctx, pctx),
            (false, true) => self.run_impl::<false, true>(plan, args, ctx, pctx),
            (true, false) => self.run_impl::<true, false>(plan, args, ctx, pctx),
            (true, true) => self.run_impl::<true, true>(plan, args, ctx, pctx),
        }
    }

    fn run_impl<const PROFILE: bool, const LIMITED: bool>(
        &mut self,
        plan: &KernelPlan,
        args: &[RtValue],
        ctx: &mut PlanExecCtx<'_, '_>,
        pctx: &mut PlanCtx,
    ) -> Result<Stop, SimError> {
        if self.finished {
            return Ok(Stop::Finished);
        }
        // Local copies of the hot frame fields; flushed on calls/returns.
        let mut frame = self.frames.len() - 1;
        let mut func = self.frames[frame].func as usize;
        let mut code: &[Instr] = &plan.funcs[func].code;
        let mut base = self.frames[frame].base as usize;
        let mut pc = self.frames[frame].pc as usize;

        macro_rules! reg {
            ($r:expr) => {
                self.regs[base + $r as usize]
            };
        }
        macro_rules! int {
            ($r:expr, $what:expr) => {
                reg!($r).as_int().ok_or_else(|| err($what))?
            };
        }
        macro_rules! flt {
            ($r:expr, $what:expr) => {
                reg!($r).as_f64().ok_or_else(|| err($what))?
            };
        }
        // An aggregate operand or result: the tag in the slot, the payload
        // in the tag's bank (for an accessor, in the launch's arguments).
        macro_rules! payload {
            ($tag:ident in $bank:ident, $r:expr, $what:expr) => {
                match reg!($r) {
                    Slot::$tag => self.$bank[base + $r as usize],
                    _ => return Err(err($what)),
                }
            };
        }
        macro_rules! put {
            ($tag:ident in $bank:ident, $r:expr, $v:expr) => {{
                let v = $v;
                put(&mut self.$bank, base + $r as usize, v);
                reg!($r) = Slot::$tag;
            }};
        }
        macro_rules! accessor_of {
            ($r:expr, $what:expr) => {
                match reg!($r) {
                    Slot::Accessor(i) => args[i as usize].as_accessor(),
                    _ => None,
                }
                .ok_or_else(|| err($what))?
            };
        }
        // One access path: the bounds check is the fallible half (elided
        // per site, for shared buffers, where the decode-time verifier's
        // proof was instantiated for this launch; every other site keeps
        // the exact out-of-bounds fault and position), the element access
        // behind it cannot go out of bounds.
        macro_rules! pool_load {
            ($site:expr, $mem:expr, $addr:expr) => {{
                ctx.pool.check(pctx.site_proven($site), $mem, $addr)?;
                // SAFETY: `check` passed for this pool, id and index; the
                // proven bits are the ones the scheduler (the one caller
                // of `PlanCtx::set_facts`) got from
                // `PlanFacts::instantiate` for this launch.
                Slot::scalar(unsafe { ctx.pool.read($mem, $addr) })
            }};
        }
        macro_rules! pool_store {
            ($site:expr, $mem:expr, $addr:expr, $v:expr) => {{
                ctx.pool.check(pctx.site_proven($site), $mem, $addr)?;
                // SAFETY: as in `pool_load!`.
                let stored = unsafe { ctx.pool.write($mem, $addr, $v) };
                stored?
            }};
        }
        // Steps: the body of every primitive that some superinstruction
        // contains, written once and expanded by the primitive's own arm
        // and by each window it is a member of. A step takes its operands
        // as values (or as the register to read them from, where the
        // read can fail) and yields its result as a value; which register
        // the result lands in, if any, is the arm's business. Statistics
        // and errors come in the order the step is expanded, so a window
        // that names its members in order replays them exactly.
        macro_rules! vec_ctor {
            ($comps:expr, $rank:expr) => {{
                ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for d in 0..$rank as usize {
                    data[d] = int!($comps[d], "id component");
                }
                VecVal {
                    data,
                    rank: $rank as u32,
                }
            }};
        }
        macro_rules! subscript_by {
            ($acc:expr, $id:expr) => {{
                ctx.stats.arith_ops += 1;
                let a = accessor_of!($acc, "subscript of non-accessor");
                let id: VecVal = $id;
                MemRefVal {
                    mem: a.mem,
                    offset: a.linearize(&id.data[..id.rank as usize]),
                    shape: [-1, 1, 1],
                    rank: 1,
                    space: if a.constant {
                        Space::Constant
                    } else {
                        Space::Global
                    },
                }
            }};
        }
        macro_rules! subscript {
            ($acc:expr, $id:expr) => {
                subscript_by!($acc, payload!(Vec in vecs, $id, "subscript id"))
            };
        }
        // The address of `$mr[$idx[..$rank]]`, with the access recorded.
        macro_rules! access {
            ($mr:expr, $idx:expr, $rank:expr, $site:expr) => {{
                let mut indices = [0_i64; 3];
                for d in 0..$rank as usize {
                    indices[d] = int!($idx[d], "non-int index");
                }
                let addr = $mr.linearize(&indices[..$rank as usize]);
                self.mem_event(ctx, $site, &$mr, addr)?;
                addr
            }};
        }
        macro_rules! load_at {
            ($mr:expr, $idx:expr, $rank:expr, $site:expr) => {{
                let mr: MemRefVal = $mr;
                let addr = access!(mr, $idx, $rank, $site);
                pool_load!($site, mr.mem, addr)
            }};
        }
        macro_rules! load {
            ($mem:expr, $idx:expr, $rank:expr, $site:expr) => {
                load_at!(
                    payload!(MemRef in memrefs, $mem, "load from non-memref"),
                    $idx,
                    $rank,
                    $site
                )
            };
        }
        macro_rules! store {
            ($v:expr, $mem:expr, $idx:expr, $rank:expr, $site:expr) => {{
                let v: RtValue = $v;
                let mr = payload!(MemRef in memrefs, $mem, "store to non-memref");
                let addr = access!(mr, $idx, $rank, $site);
                pool_store!($site, mr.mem, addr, v);
            }};
        }
        // `$val`: `Slot` for a result register, `RtValue` for a store.
        macro_rules! bin_float {
            ($val:ident, $op:expr, $l:expr, $r:expr, $f32_out:expr) => {{
                ctx.stats.arith_ops += 1;
                let l = $l.as_f64().ok_or_else(|| err("float op on non-float"))?;
                let r = $r.as_f64().ok_or_else(|| err("float op on non-float"))?;
                let out = match $op {
                    FloatBin::Add => l + r,
                    FloatBin::Sub => l - r,
                    FloatBin::Mul => l * r,
                    FloatBin::Div => l / r,
                    FloatBin::Min => l.min(r),
                    FloatBin::Max => l.max(r),
                };
                if $f32_out {
                    $val::F32(out as f32)
                } else {
                    $val::F64(out)
                }
            }};
        }
        macro_rules! cmp_int {
            ($pred:expr, $l:expr, $r:expr) => {{
                ctx.stats.arith_ops += 1;
                let l = int!($l, "cmpi on non-int");
                let r = int!($r, "cmpi on non-int");
                $pred.eval_int(l, r)
            }};
        }
        macro_rules! branch_unless {
            ($c:expr, $target:expr) => {{
                ctx.stats.arith_ops += 1;
                let c: bool = $c;
                if !c {
                    pc = $target as usize;
                }
            }};
        }

        loop {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Err(err("work-item exceeded the step budget (runaway loop?)"));
            }
            let instr = &code[pc];
            if PROFILE {
                let pb = pctx.profile.as_mut().expect("profiled PlanCtx");
                pb.counts[(pb.starts[func] + pc as u32) as usize] += 1;
            }
            if LIMITED {
                let meter = pctx.limits.as_deref_mut().expect("limited PlanCtx");
                meter.charge(instr.op_weight())?;
            }
            pc += 1;
            match instr {
                Instr::Const { dst, val } => reg!(*dst) = *val,
                Instr::ConstDense { dst, idx } => {
                    put!(MemRef in memrefs, *dst, materialize_dense(plan, ctx, pctx, *idx)?);
                }
                Instr::Copy { dst, src } => self.mov(base + *dst as usize, base + *src as usize),
                Instr::BinInt { op, dst, l, r } => {
                    ctx.stats.arith_ops += 1;
                    let l = int!(*l, "int op on non-int");
                    let r = int!(*r, "int op on non-int");
                    let out = match op {
                        IntBin::Add => l.wrapping_add(r),
                        IntBin::Sub => l.wrapping_sub(r),
                        IntBin::Mul => l.wrapping_mul(r),
                        IntBin::DivS => {
                            if r == 0 {
                                return Err(err("division by zero"));
                            }
                            l.wrapping_div(r)
                        }
                        IntBin::RemS => {
                            if r == 0 {
                                return Err(err("remainder by zero"));
                            }
                            l.wrapping_rem(r)
                        }
                        IntBin::And => l & r,
                        IntBin::Or => l | r,
                        IntBin::Xor => l ^ r,
                        IntBin::MinS => l.min(r),
                        IntBin::MaxS => l.max(r),
                    };
                    reg!(*dst) = Slot::Int(out);
                }
                Instr::BinFloat {
                    op,
                    dst,
                    l,
                    r,
                    f32_out,
                } => reg!(*dst) = bin_float!(Slot, *op, reg!(*l), reg!(*r), *f32_out),
                Instr::NegF { dst, x } => {
                    ctx.stats.arith_ops += 1;
                    reg!(*dst) = match reg!(*x) {
                        Slot::F32(v) => Slot::F32(-v),
                        Slot::F64(v) => Slot::F64(-v),
                        _ => return Err(err("negf on non-float")),
                    };
                }
                Instr::CmpI { pred, dst, l, r } => {
                    reg!(*dst) = Slot::Int(cmp_int!(*pred, *l, *r) as i64);
                }
                Instr::CmpF { pred, dst, l, r } => {
                    ctx.stats.arith_ops += 1;
                    let l = flt!(*l, "cmpf on non-float");
                    let r = flt!(*r, "cmpf on non-float");
                    reg!(*dst) = Slot::Int(pred.eval_float(l, r) as i64);
                }
                Instr::Select { dst, c, t, f } => {
                    ctx.stats.arith_ops += 1;
                    let src = if int!(*c, "select cond") != 0 { *t } else { *f };
                    self.mov(base + *dst as usize, base + src as usize);
                }
                Instr::SiToFp { dst, x, f32_out } => {
                    ctx.stats.arith_ops += 1;
                    let v = int!(*x, "sitofp");
                    reg!(*dst) = if *f32_out {
                        Slot::F32(v as f32)
                    } else {
                        Slot::F64(v as f64)
                    };
                }
                Instr::FpToSi { dst, x } => {
                    ctx.stats.arith_ops += 1;
                    let v = flt!(*x, "fptosi");
                    reg!(*dst) = Slot::Int(v as i64);
                }
                Instr::TruncF { dst, x } => {
                    let v = flt!(*x, "truncf");
                    reg!(*dst) = Slot::F32(v as f32);
                }
                Instr::ExtF { dst, x } => {
                    let v = flt!(*x, "extf");
                    reg!(*dst) = Slot::F64(v);
                }
                Instr::Math {
                    op,
                    dst,
                    x,
                    y,
                    f32_out,
                } => {
                    ctx.stats.arith_ops += 4; // transcendental ops are pricier
                    let xv = flt!(*x, "math on non-float");
                    let out = match op {
                        MathOp::Sqrt => xv.sqrt(),
                        MathOp::Exp => xv.exp(),
                        MathOp::Log => xv.ln(),
                        MathOp::Absf => xv.abs(),
                        MathOp::Sin => xv.sin(),
                        MathOp::Cos => xv.cos(),
                        MathOp::Floor => xv.floor(),
                        MathOp::Rsqrt => 1.0 / xv.sqrt(),
                        MathOp::Powf => {
                            let yv = flt!(*y, "powf");
                            xv.powf(yv)
                        }
                    };
                    reg!(*dst) = if *f32_out {
                        Slot::F32(out as f32)
                    } else {
                        Slot::F64(out)
                    };
                }
                Instr::Alloca {
                    dst,
                    elem,
                    shape,
                    rank,
                    len,
                } => {
                    let mem = ctx.pool.alloc_zeroed(elem, *len)?;
                    let mr = MemRefVal {
                        mem,
                        offset: 0,
                        shape: *shape,
                        rank: *rank,
                        space: Space::Private,
                    };
                    put!(MemRef in memrefs, *dst, mr);
                }
                Instr::LocalAlloca {
                    dst,
                    site,
                    elem,
                    shape,
                    rank,
                    len,
                } => {
                    let mr = match pctx.local_allocs[*site as usize] {
                        Some(existing) => existing,
                        None => {
                            let mem = ctx.pool.alloc_zeroed(elem, *len)?;
                            let mr = MemRefVal {
                                mem,
                                offset: 0,
                                shape: *shape,
                                rank: *rank,
                                space: Space::Local,
                            };
                            pctx.local_allocs[*site as usize] = Some(mr);
                            mr
                        }
                    };
                    put!(MemRef in memrefs, *dst, mr);
                }
                Instr::Load {
                    dst,
                    mem,
                    idx,
                    rank,
                    site,
                } => reg!(*dst) = load!(*mem, idx, *rank, *site),
                Instr::Store {
                    val,
                    mem,
                    idx,
                    rank,
                    site,
                } => {
                    let v = self.value(base + *val as usize, args);
                    store!(v, *mem, idx, *rank, *site)
                }
                Instr::VecCtor { dst, comps, rank } => {
                    put!(Vec in vecs, *dst, vec_ctor!(comps, *rank))
                }
                Instr::NdRangeCtor { dst, g, l } => {
                    let g = payload!(Vec in vecs, *g, "nd_range global");
                    let l = payload!(Vec in vecs, *l, "nd_range local");
                    put!(NdRange in nd_ranges, *dst, (g, l));
                }
                Instr::VecGet { dst, v, dim } => {
                    ctx.stats.arith_ops += 1;
                    let v = payload!(Vec in vecs, *v, "id.get");
                    let d = self.dim(base, *dim)?;
                    reg!(*dst) = Slot::Int(v.data[d]);
                }
                Instr::RangeSize { dst, v } => {
                    ctx.stats.arith_ops += 1;
                    let v = payload!(Vec in vecs, *v, "range.size");
                    let size: i64 = v.data[..v.rank as usize].iter().product();
                    reg!(*dst) = Slot::Int(size);
                }
                Instr::ItemQuery { dst, q, dim } => {
                    ctx.stats.arith_ops += 1;
                    let d = self.dim(base, *dim)?;
                    let v = match q {
                        ItemQ::GlobalId => self.item.global_id[d],
                        ItemQ::LocalId => self.item.local_id[d],
                        ItemQ::GroupId => self.item.group_id[d],
                        ItemQ::GlobalRange => self.item.global_range[d],
                        ItemQ::LocalRange => self.item.local_range[d],
                        ItemQ::GroupRange => self.item.group_range(d),
                    };
                    reg!(*dst) = Slot::Int(v);
                }
                Instr::GlobalLinearId { dst } => {
                    ctx.stats.arith_ops += 1;
                    reg!(*dst) = Slot::Int(self.item.global_linear_id());
                }
                Instr::LocalLinearId { dst } => {
                    ctx.stats.arith_ops += 1;
                    reg!(*dst) = Slot::Int(self.item.local_linear_id());
                }
                Instr::ItemSelf { dst } => reg!(*dst) = Slot::Item,
                Instr::AccSubscript { dst, acc, id } => {
                    put!(MemRef in memrefs, *dst, subscript!(*acc, *id))
                }
                Instr::AccRange { dst, acc, dim } => {
                    ctx.stats.arith_ops += 1;
                    let acc = accessor_of!(*acc, "get_range");
                    let d = self.dim(base, *dim)?;
                    reg!(*dst) = Slot::Int(acc.range[d]);
                }
                Instr::AccBase { dst, acc } => {
                    ctx.stats.arith_ops += 1;
                    let acc = accessor_of!(*acc, "accessor.base");
                    let b = ((acc.mem.0 as i64) << 32) | acc.linearize(&[0, 0, 0]);
                    reg!(*dst) = Slot::Int(b);
                }
                Instr::Barrier => {
                    ctx.stats.barriers += 1;
                    self.frames[frame].pc = pc as u32;
                    return Ok(Stop::Barrier);
                }
                Instr::Jump { target } => pc = *target as usize,
                Instr::BranchIfFalse { cond, target } => {
                    branch_unless!(int!(*cond, "non-boolean if condition") != 0, *target)
                }
                Instr::ForEnter {
                    lb,
                    ub,
                    step,
                    iv,
                    exit,
                } => {
                    ctx.stats.arith_ops += 1;
                    let lb = int!(*lb, "bad lb");
                    let ub = int!(*ub, "bad ub");
                    let step = int!(*step, "bad step");
                    if step <= 0 {
                        return Err(err("non-positive loop step"));
                    }
                    reg!(*iv) = Slot::Int(lb);
                    if lb >= ub {
                        pc = *exit as usize;
                    }
                }
                Instr::ForNext { iv, step, ub, body } => {
                    let cur = int!(*iv, "bad iv");
                    let step = int!(*step, "bad step");
                    let ub = int!(*ub, "bad ub");
                    let next = cur + step;
                    if next < ub {
                        reg!(*iv) = Slot::Int(next);
                        pc = *body as usize;
                    }
                }
                Instr::Call {
                    func: callee,
                    args: call_args,
                    results: _,
                } => {
                    let callee_plan = &plan.funcs[*callee as usize];
                    let new_base = self.regs.len();
                    self.regs
                        .resize(new_base + callee_plan.reg_count as usize, Slot::Unit);
                    for (&p, &a) in callee_plan.params.iter().zip(call_args.iter()) {
                        self.mov(new_base + p as usize, base + a as usize);
                    }
                    // Flush the caller frame (pc already past the call).
                    self.frames[frame].pc = pc as u32;
                    self.frames.push(PlanFrame {
                        func: *callee,
                        pc: 0,
                        base: new_base as u32,
                    });
                    frame += 1;
                    func = *callee as usize;
                    code = &plan.funcs[func].code;
                    base = new_base;
                    pc = 0;
                }
                // Superinstructions: each arm names its members' steps in
                // window order. Eliding arms pass a member's result straight
                // to the next step; the write-through arm puts it in its
                // register and the next step reads it back, so even a
                // degenerate aliasing of those registers replays exactly.
                Instr::LoadBinFloat {
                    op,
                    dst,
                    other,
                    loaded_is_lhs,
                    f32_out,
                    mem,
                    idx,
                    rank,
                    site,
                } => {
                    let t = load!(*mem, idx, *rank, *site);
                    let o = reg!(*other);
                    let (l, r) = if *loaded_is_lhs { (t, o) } else { (o, t) };
                    reg!(*dst) = bin_float!(Slot, *op, l, r, *f32_out);
                }
                Instr::LoadMulAddF {
                    dst,
                    mem,
                    idx,
                    rank,
                    site,
                    b,
                    loaded_is_lhs,
                    mul_f32,
                    c,
                    prod_is_lhs,
                    f32_out,
                } => {
                    let t = load!(*mem, idx, *rank, *site);
                    let b = reg!(*b);
                    let (l, r) = if *loaded_is_lhs { (t, b) } else { (b, t) };
                    let u = bin_float!(Slot, FloatBin::Mul, l, r, *mul_f32);
                    let c = reg!(*c);
                    let (l, r) = if *prod_is_lhs { (u, c) } else { (c, u) };
                    reg!(*dst) = bin_float!(Slot, FloatBin::Add, l, r, *f32_out);
                }
                Instr::StoreBinFloat {
                    op,
                    l,
                    r,
                    f32_out,
                    mem,
                    idx,
                    rank,
                    site,
                } => {
                    let v = bin_float!(RtValue, *op, reg!(*l), reg!(*r), *f32_out);
                    store!(v, *mem, idx, *rank, *site);
                }
                Instr::CmpIBranch { pred, l, r, target } => {
                    let c = cmp_int!(*pred, *l, *r);
                    branch_unless!(c, *target);
                }
                Instr::AccLoadIndexed {
                    dst,
                    acc,
                    comps,
                    comps_rank,
                    idx,
                    rank,
                    site,
                } => {
                    let id = vec_ctor!(comps, *comps_rank);
                    let view = subscript_by!(*acc, id);
                    reg!(*dst) = load_at!(view, idx, *rank, *site);
                }
                Instr::AccLoadQuad {
                    dst,
                    acc,
                    comps,
                    comps_rank,
                    id,
                    view,
                    cst,
                    cst_val,
                    site,
                } => {
                    put!(Vec in vecs, *id, vec_ctor!(comps, *comps_rank));
                    put!(MemRef in memrefs, *view, subscript!(*acc, *id));
                    reg!(*cst) = *cst_val;
                    reg!(*dst) = load!(*view, [*cst, 0, 0], 1_u8, *site);
                }
                Instr::Return { vals } => {
                    if frame == 0 {
                        self.finished = true;
                        return Ok(Stop::Finished);
                    }
                    let callee_base = base;
                    self.frames.pop();
                    frame -= 1;
                    let caller = &self.frames[frame];
                    func = caller.func as usize;
                    code = &plan.funcs[func].code;
                    base = caller.base as usize;
                    pc = caller.pc as usize;
                    // The instruction before `pc` is the call.
                    let Instr::Call { results, .. } = &code[pc - 1] else {
                        return Err(err("return without a pending call"));
                    };
                    // The callee's frame, registers and payloads, is
                    // dropped only after its values are copied out.
                    for (i, &r) in results.iter().enumerate() {
                        match vals.get(i) {
                            Some(&v) => self.mov(base + r as usize, callee_base + v as usize),
                            None => self.regs[base + r as usize] = Slot::Unit,
                        }
                    }
                    self.regs.truncate(callee_base);
                }
            }
        }
    }

    #[inline]
    fn dim(&self, base: usize, dim: DimSrc) -> Result<usize, SimError> {
        match dim {
            DimSrc::Const(d) => Ok(d as usize),
            DimSrc::Reg(r) => {
                let d = self.regs[base + r as usize]
                    .as_int()
                    .ok_or_else(|| err("non-constant dimension operand"))?;
                if !(0..3).contains(&d) {
                    return Err(err(format!("dimension {d} out of range")));
                }
                Ok(d as usize)
            }
        }
    }

    /// Record the cost of a memory access (same coalescing model and
    /// instance numbering as the tree-walk interpreter, keyed by plan site
    /// instead of `OpId`).
    fn mem_event(
        &mut self,
        ctx: &mut PlanExecCtx<'_, '_>,
        site: u32,
        mr: &MemRefVal,
        addr: i64,
    ) -> Result<(), SimError> {
        match mr.space {
            Space::Private => ctx.stats.private_accesses += 1,
            Space::Constant => ctx.stats.constant_accesses += 1,
            Space::Local => ctx.stats.local_accesses += 1,
            Space::Global => {
                ctx.stats.global_accesses += 1;
                let instance = {
                    let slot = &mut self.visits[site as usize];
                    *slot += 1;
                    *slot
                };
                let bytes = ctx.pool.elem_bytes(mr.mem) as i64;
                let segment = ((mr.mem.0 as u64) << 40)
                    | ((addr * bytes) / ctx.cost.transaction_bytes as i64) as u64;
                if ctx.wg.record((site, instance, self.subgroup), segment) {
                    ctx.stats.global_transactions += 1;
                }
            }
        }
        Ok(())
    }
}

fn materialize_dense(
    plan: &KernelPlan,
    ctx: &mut PlanExecCtx<'_, '_>,
    pctx: &mut PlanCtx,
    idx: u32,
) -> Result<MemRefVal, SimError> {
    if let Some(existing) = pctx.dense_cache[idx as usize] {
        return Ok(existing);
    }
    let c = &plan.dense_consts[idx as usize];
    let mem = ctx.pool.alloc(c.data.clone())?;
    let mr = MemRefVal {
        mem,
        offset: 0,
        shape: c.shape,
        rank: c.rank,
        space: Space::Constant,
    };
    pctx.dense_cache[idx as usize] = Some(mr);
    Ok(mr)
}

/// Aggregate decode statistics, exposed for tests and diagnostics.
impl KernelPlan {
    /// Total instruction count across all functions (tests/diagnostics).
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// The superinstructions [`fuse_plan`] put into the plan, in code
    /// order (tests/diagnostics count them by [`Instr::mnemonic`]).
    pub fn superinstructions(&self) -> impl Iterator<Item = &Instr> {
        self.funcs
            .iter()
            .flat_map(|f| &f.code)
            .filter(|i| i.op_weight() > 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A worker's work-item slot outlives launches: re-bound to a kernel
    /// with fewer registers it must show nothing of the aggregates the
    /// previous kernel left in its banks, neither in the registers it
    /// binds nor in those a later call frame adds.
    #[test]
    fn reset_for_a_smaller_kernel_sees_no_stale_aggregate() {
        use crate::memory::MemId;
        let kernel = |reg_count, params| KernelPlan {
            funcs: vec![FuncPlan {
                code: vec![Instr::Return { vals: Box::new([]) }],
                reg_count,
                params,
                has_item_param: false,
            }],
            dense_consts: Vec::new(),
            mem_sites: 0,
            local_sites: 0,
        };
        let item = PlanWorkItem::empty().item;
        let id = VecVal {
            data: [7, 8, 9],
            rank: 3,
        };
        let view = MemRefVal {
            mem: MemId(3),
            offset: 5,
            shape: [4, 1, 1],
            rank: 1,
            space: Space::Global,
        };
        let big = [
            RtValue::Vec(id),
            RtValue::MemRef(view),
            RtValue::NdRange(id, id),
        ];
        let mut wi = PlanWorkItem::empty();
        wi.reset(&kernel(6, vec![1, 3, 5]), &big, item, 16).unwrap();
        let held: Vec<RtValue> = (0..6).map(|r| wi.value(r, &big)).collect();
        assert_eq!(
            held,
            [
                RtValue::Unit,
                big[0],
                RtValue::Unit,
                big[1],
                RtValue::Unit,
                big[2]
            ]
        );

        let small = [RtValue::Int(4)];
        wi.reset(&kernel(2, vec![1]), &small, item, 16).unwrap();
        wi.regs.resize(6, Slot::Unit); // what a `Call` does for the callee's frame
        let held: Vec<RtValue> = (0..6).map(|r| wi.value(r, &small)).collect();
        let mut expect = [RtValue::Unit; 6];
        expect[1] = small[0];
        assert_eq!(held, expect);
    }

    mod fusion {
        use super::super::*;
        use crate::cost::ExecStats;
        use crate::memory::{DataVec, MemId, MemoryPool};
        use crate::value::AccessorVal;
        use crate::NdRangeSpec;
        use sycl_mlir_dialects::arith::{self, constant_index};
        use sycl_mlir_dialects::func::{build_func, build_return};
        use sycl_mlir_ir::{Builder, Context};
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
            let accs: Vec<sycl_mlir_ir::ValueId> =
                (0..n_accs).map(|i| m.block_arg(entry, i)).collect();
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

        /// `if (i % 2 == 0) a[i] += b[i]`: the `cmpi` feeding the `scf.if`
        /// fuses with the conditional branch.
        #[test]
        fn compare_branch_fuses_and_executes_identically() {
            let c = ctx();
            let mut m = Module::new(&c);
            let func = build_kernel(&mut m, 2, |b, accs, item| {
                let gid = sdev::global_id(b, item, 0);
                let two = constant_index(b, 2);
                let zero = constant_index(b, 0);
                let rem = arith::remsi(b, gid, two);
                let is_even = arith::cmpi(b, "eq", rem, zero);
                let (a0, a1) = (accs[0], accs[1]);
                sycl_mlir_dialects::scf::build_if(
                    b,
                    is_even,
                    &[],
                    |inner| {
                        let va = sdev::load_via_id(inner, a0, &[gid]);
                        let vb = sdev::load_via_id(inner, a1, &[gid]);
                        let sum = arith::addf(inner, va, vb);
                        sdev::store_via_id(inner, sum, a0, &[gid]);
                        vec![]
                    },
                    |_| vec![],
                );
            });
            // cmpi+branch, plus the two accessor reads in the then-arm.
            assert_fused_identical(&m, func, 2, &["cmpi.br", "acc.load.quad", "acc.load.quad"]);
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
        use crate::value::AccessorVal;
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
            let stats = crate::pool::run_one_launch(plan, &args, nd, &mut pool, threads)
                .expect("plan runs");
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
                // v + 1.0 (followed by a VecCtor, so the accumulate-store
                // pair cannot fire).
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
        /// triple wins over the `Load`+`mulf` pair sharing its head), and
        /// the trailing `addf`… store pair is consumed by the chain, so
        /// the store stays unfused.
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
            // The pair consumes the addf, so the store stays alone.
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
                    }, // pc 3 (fuses with the branch)
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
            // remapping across a multi-instruction window), and so does
            // the cmpi+branch pair.
            assert_chain_identical(&build(true), &["cmpi.br", "acc.load.idx"]);

            // Branching to the subscript (a non-head member): the chain
            // may not fire — only the cmpi+branch pair does.
            assert_chain_identical(&build(false), &["cmpi.br"]);
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
        /// reader: the second read blocks the eliding accumulate-store
        /// pair, so the shape runs as decoded (`subf` keeps the load out
        /// of the `LoadBinFloat` path).
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
}
