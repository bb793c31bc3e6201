//! The instruction set: [`Instr`], its selectors, the one table of
//! which registers an instruction reads and writes, and of which class,
//! and the classes a kernel's signature gives its parameters.

use super::slot::{Reg, Slot};
#[cfg(doc)]
use super::{fuse_plan, KernelPlan, PlanCtx};
use crate::memory::Dtype;
use sycl_mlir_ir::{Attribute, Module, OpId, Type, TypeKind};

const _: () = assert!(std::mem::size_of::<Instr>() <= 64);

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

/// Pre-parsed `arith.cmpi`/`arith.cmpf` predicate: one of the six names
/// the IR verifier admits, which the decoder reads without a fallback.
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
    /// The predicate `attr` names; `None` for any other attribute.
    pub(super) fn of_attr(attr: &Attribute) -> Option<CmpPred> {
        Some(match attr.as_str()? {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "slt" => CmpPred::Slt,
            "sle" => CmpPred::Sle,
            "sgt" => CmpPred::Sgt,
            "sge" => CmpPred::Sge,
            _ => return None,
        })
    }

    #[inline]
    pub(super) fn eval_int(self, l: i64, r: i64) -> bool {
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
    pub(super) fn eval_float(self, l: f64, r: f64) -> bool {
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
/// indices into the owning [`KernelPlan::code`].
#[derive(Clone, Debug)]
pub enum Instr {
    /// Dense-data constant memref, materialized once per launch into the
    /// pool and cached in the worker state ([`PlanCtx`]) under `idx`.
    ConstDense {
        /// Destination register.
        dst: Reg,
        /// Index into [`KernelPlan::dense_consts`].
        idx: u32,
    },
    /// Register-to-register move: a parallel copy into loop carries, an
    /// `scf.if`'s results or an inlined callee's parameters and results.
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
    /// The kernel's `func.return`: the work-item is done.
    Return,
    /// Fused `VecCtor` + `AccSubscript` + `Load` chain ([`fuse_plan`]):
    /// the accessor addressing chain `a[id...]` of every accessor read —
    /// the `--profile` mode's top-ranked fusion candidate. Builds the id
    /// vector, subscripts the accessor and loads through the resulting
    /// view in one dispatch, bumping exactly the statistics and raising
    /// exactly the errors of the three instructions it replaces: the one
    /// superinstruction.
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
}

impl Instr {
    /// Short static mnemonic of the instruction, used by the `--profile`
    /// execution-count dump to aggregate counts per opcode.
    pub fn mnemonic(&self) -> &'static str {
        match self {
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
            Instr::Return => "return",
            Instr::AccLoadIndexed { .. } => "acc.load.idx",
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
            Instr::AccLoadIndexed { .. } => 3,
            _ => 1,
        }
    }

    /// The pc this instruction may transfer control to other than by
    /// fall-through: every control instruction carries exactly one.
    pub fn target(&self) -> Option<u32> {
        match self {
            Instr::Jump { target } | Instr::BranchIfFalse { target, .. } => Some(*target),
            Instr::ForEnter { exit, .. } => Some(*exit),
            Instr::ForNext { body, .. } => Some(*body),
            _ => None,
        }
    }

    /// [`Instr::target`], in place (the fusion pass's pc remap).
    pub(super) fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::Jump { target } | Instr::BranchIfFalse { target, .. } => Some(target),
            Instr::ForEnter { exit, .. } => Some(exit),
            Instr::ForNext { body, .. } => Some(body),
            _ => None,
        }
    }
}

// ----------------------------------------------------------------------
// The operand table
// ----------------------------------------------------------------------

/// Whether an instruction reads an operand register or writes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The register's value is consumed.
    Read,
    /// The register is (re)defined.
    Write,
}

/// Coarse value class of a register: what an operand must hold, or what
/// a result does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Integers of any width, `index`, `i1`.
    Int,
    /// `f32` or `f64`.
    Float,
    /// `!sycl.id` / `!sycl.range`.
    Vec,
    /// `!sycl.nd_range`.
    Nd,
    /// A memref view.
    Mem,
    /// An accessor.
    Acc,
    /// The work-item's item.
    Item,
}

impl Class {
    /// The class with its article, as verifier findings spell it.
    pub fn name(self) -> &'static str {
        match self {
            Class::Int => "an integer",
            Class::Float => "a float",
            Class::Vec => "an id/range vector",
            Class::Nd => "an nd-range",
            Class::Mem => "a memref",
            Class::Acc => "an accessor",
            Class::Item => "an item",
        }
    }

    /// The class of a constant, which holds a scalar.
    pub(crate) fn of_const(val: &Slot) -> Option<Class> {
        match val {
            Slot::Int(_) => Some(Class::Int),
            Slot::F32(_) | Slot::F64(_) => Some(Class::Float),
            _ => None,
        }
    }

    /// The class of what device memory of `dtype` loads.
    pub(crate) fn of_dtype(dtype: Dtype) -> Class {
        match dtype {
            Dtype::F32 | Dtype::F64 => Class::Float,
            Dtype::I32 | Dtype::I64 => Class::Int,
        }
    }
}

/// A value's class and, for a memref view or an accessor, its elements'
/// class (`Int` or `Float`, as device memory stores them): what a kernel
/// parameter takes, what a launch argument is, and what the verifier
/// knows a register holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ty {
    /// The value's class.
    pub class: Class,
    /// Its elements' class, for a memref view or an accessor.
    pub elem: Option<Class>,
}

impl From<Class> for Ty {
    fn from(class: Class) -> Ty {
        Ty { class, elem: None }
    }
}

impl Ty {
    /// A memref view or an accessor (`class`) whose elements are `elem`s.
    pub fn of(class: Class, elem: Class) -> Ty {
        let elem = Some(elem);
        Ty { class, elem }
    }

    /// The class of a value of IR type `t`, if it has one.
    fn of_type(t: &Type) -> Option<Ty> {
        use sycl_mlir_sycl::types::{accessor_info, is_item_like, IdType, NdRangeType, RangeType};
        let view = |class, elem: &Type| Some(Ty::of(class, Class::of_dtype(Dtype::of(elem))));
        let class = match t.kind() {
            TypeKind::Int(_) | TypeKind::Index => Class::Int,
            TypeKind::F32 | TypeKind::F64 => Class::Float,
            TypeKind::MemRef { elem, .. } => return view(Class::Mem, elem),
            _ if is_item_like(t) => Class::Item,
            _ if t.dialect_type::<NdRangeType>().is_some() => Class::Nd,
            _ if t.dialect_type::<IdType>().is_some() => Class::Vec,
            _ if t.dialect_type::<RangeType>().is_some() => Class::Vec,
            _ => return view(Class::Acc, &accessor_info(t)?.elem),
        };
        Some(class.into())
    }

    /// The class with its article, as findings and launch faults spell
    /// it: `a memref of floats`.
    pub(crate) fn name(self) -> String {
        match self.elem {
            None => self.class.name().to_string(),
            Some(Class::Int) => format!("{} of integers", self.class.name()),
            Some(_) => format!("{} of floats", self.class.name()),
        }
    }
}

/// The parameters of `kernel` that launch arguments fill, by class
/// (`None` where a parameter's type has none: any argument fills it),
/// and whether a trailing item parameter follows them, which each
/// work-item fills with its own item. Both engines bind a launch by it.
pub fn signature(m: &Module, kernel: OpId) -> (Vec<Option<Ty>>, bool) {
    let entry = m.op_region_block(kernel, 0);
    let args = m.block_args(entry).iter();
    let mut params: Vec<_> = args.map(|&p| Ty::of_type(m.value_type(p))).collect();
    let item = params.last() == Some(&Some(Class::Item.into()));
    params.truncate(params.len() - usize::from(item));
    (params, item)
}

/// What [`Instr::operands`] says of an operand's class: what a read
/// demands of its register, what a write gives its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Want {
    /// Any class passes (a moved value's source).
    Any,
    /// Exactly this class.
    Is(Class),
    /// The class register `r` holds, elements included: a moved value.
    As(Reg),
    /// The element class of the view or accessor in register `r`: a
    /// loaded or stored value.
    ElemOf(Reg),
}

impl Instr {
    /// The one description of an instruction's register operands: `f` is
    /// called once per operand with its role, its register and the class
    /// the instruction demands of it (a read) or gives it (a write) — for
    /// a moved, selected, loaded or stored value, another register's class
    /// or its elements' ([`Want`]). Reads come before writes. The
    /// superinstruction reports what its window reads from outside and
    /// the one register it leaves written.
    ///
    /// Read counts, write sets, def-before-use, register-range and
    /// type-class checks all derive from this table; an operand missing
    /// here is missing everywhere.
    pub fn operands(&self, mut f: impl FnMut(Role, Reg, Want)) {
        self.operand_table(&mut f)
    }

    /// [`Instr::operands`], compiled once rather than per closure.
    #[rustfmt::skip] // a table: one row per variant, reads then writes
    fn operand_table(&self, f: &mut dyn FnMut(Role, Reg, Want)) {
        use Class::{Acc, Float, Int, Item, Mem, Nd, Vec};
        use Role::{Read, Write};
        use Want::{Any, As, ElemOf, Is};
        type F<'a> = &'a mut dyn FnMut(Role, Reg, Want);
        // The first `n` of an index or component array, integers all.
        fn ints(f: F<'_>, regs: &[Reg; 3], n: u8) {
            regs[..n as usize].iter().for_each(|&r| f(Read, r, Is(Int)));
        }
        fn dim(f: F<'_>, d: &DimSrc) {
            if let DimSrc::Reg(r) = d {
                f(Read, *r, Is(Int));
            }
        }
        match self {
            Instr::ConstDense { dst, .. } | Instr::Alloca { dst, .. } | Instr::LocalAlloca { dst, .. } =>
                f(Write, *dst, Is(Mem)),
            Instr::Copy { dst, src } => { f(Read, *src, Any); f(Write, *dst, As(*src)) }
            Instr::BinInt { dst, l, r, .. } | Instr::CmpI { dst, l, r, .. } =>
                { f(Read, *l, Is(Int)); f(Read, *r, Is(Int)); f(Write, *dst, Is(Int)) }
            Instr::BinFloat { dst, l, r, .. } =>
                { f(Read, *l, Is(Float)); f(Read, *r, Is(Float)); f(Write, *dst, Is(Float)) }
            Instr::CmpF { dst, l, r, .. } =>
                { f(Read, *l, Is(Float)); f(Read, *r, Is(Float)); f(Write, *dst, Is(Int)) }
            Instr::NegF { dst, x } | Instr::TruncF { dst, x } | Instr::ExtF { dst, x } =>
                { f(Read, *x, Is(Float)); f(Write, *dst, Is(Float)) }
            Instr::Select { dst, c, t, f: e } =>
                { f(Read, *c, Is(Int)); f(Read, *t, As(*e)); f(Read, *e, Any); f(Write, *dst, As(*t)) }
            Instr::SiToFp { dst, x, .. } => { f(Read, *x, Is(Int)); f(Write, *dst, Is(Float)) }
            Instr::FpToSi { dst, x } => { f(Read, *x, Is(Float)); f(Write, *dst, Is(Int)) }
            Instr::Math { op, dst, x, y, .. } => {
                f(Read, *x, Is(Float));
                if matches!(op, MathOp::Powf) {
                    f(Read, *y, Is(Float));
                }
                f(Write, *dst, Is(Float))
            }
            Instr::Load { dst, mem, idx, rank, .. } =>
                { f(Read, *mem, Is(Mem)); ints(f, idx, *rank); f(Write, *dst, ElemOf(*mem)) }
            Instr::Store { val, mem, idx, rank, .. } =>
                { f(Read, *val, ElemOf(*mem)); f(Read, *mem, Is(Mem)); ints(f, idx, *rank) }
            Instr::VecCtor { dst, comps, rank } => { ints(f, comps, *rank); f(Write, *dst, Is(Vec)) }
            Instr::NdRangeCtor { dst, g, l } =>
                { f(Read, *g, Is(Vec)); f(Read, *l, Is(Vec)); f(Write, *dst, Is(Nd)) }
            Instr::VecGet { dst, v, dim: d } => { f(Read, *v, Is(Vec)); dim(f, d); f(Write, *dst, Is(Int)) }
            Instr::RangeSize { dst, v } => { f(Read, *v, Is(Vec)); f(Write, *dst, Is(Int)) }
            Instr::ItemQuery { dst, dim: d, .. } => { dim(f, d); f(Write, *dst, Is(Int)) }
            Instr::GlobalLinearId { dst } | Instr::LocalLinearId { dst } => f(Write, *dst, Is(Int)),
            Instr::ItemSelf { dst } => f(Write, *dst, Is(Item)),
            Instr::AccSubscript { dst, acc, id } =>
                { f(Read, *acc, Is(Acc)); f(Read, *id, Is(Vec)); f(Write, *dst, Is(Mem)) }
            Instr::AccRange { dst, acc, dim: d } => { f(Read, *acc, Is(Acc)); dim(f, d); f(Write, *dst, Is(Int)) }
            Instr::AccBase { dst, acc } => { f(Read, *acc, Is(Acc)); f(Write, *dst, Is(Int)) }
            Instr::Barrier | Instr::Jump { .. } | Instr::Return => {}
            Instr::BranchIfFalse { cond, .. } => f(Read, *cond, Is(Int)),
            Instr::ForEnter { lb, ub, step, iv, .. } => {
                f(Read, *lb, Is(Int)); f(Read, *ub, Is(Int)); f(Read, *step, Is(Int));
                f(Write, *iv, Is(Int))
            }
            Instr::ForNext { iv, step, ub, .. } => {
                f(Read, *iv, Is(Int)); f(Read, *step, Is(Int)); f(Read, *ub, Is(Int));
                f(Write, *iv, Is(Int))
            }
            // The window: what its members read from outside it, what it
            // leaves written.
            Instr::AccLoadIndexed { dst, acc, comps, comps_rank, idx, rank, .. } =>
                { ints(f, comps, *comps_rank); f(Read, *acc, Is(Acc)); ints(f, idx, *rank); f(Write, *dst, ElemOf(*acc)) }
        }
    }

    /// Every register the instruction reads ([`Instr::operands`]).
    pub fn reads(&self, mut f: impl FnMut(Reg)) {
        self.operands(|role, r, _| {
            if role == Role::Read {
                f(r)
            }
        });
    }

    /// Every register the instruction writes ([`Instr::operands`]).
    pub fn writes(&self, mut f: impl FnMut(Reg)) {
        self.operands(|role, r, _| {
            if role == Role::Write {
                f(r)
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashSet};

    /// One instance of every variant: register fields hold distinct
    /// sentinels from 1000 up, every other number stays below, and ranks
    /// are full so each index register counts.
    #[rustfmt::skip] // a table: one row per variant
    fn samples() -> Vec<Instr> {
        let mut next = 1000;
        let mut r = || { next += 1; next };
        let elem = sycl_mlir_ir::Context::new().index_type();
        let (op, pred) = (FloatBin::Add, CmpPred::Slt);
        let (rank, site, target) = (3, 7, 9);
        vec![
            Instr::ConstDense { dst: r(), idx: 1 },
            Instr::Copy { dst: r(), src: r() },
            Instr::BinInt { op: IntBin::Add, dst: r(), l: r(), r: r() },
            Instr::BinFloat { op, dst: r(), l: r(), r: r(), f32_out: true },
            Instr::NegF { dst: r(), x: r() },
            Instr::CmpI { pred, dst: r(), l: r(), r: r() },
            Instr::CmpF { pred, dst: r(), l: r(), r: r() },
            Instr::Select { dst: r(), c: r(), t: r(), f: r() },
            Instr::SiToFp { dst: r(), x: r(), f32_out: false },
            Instr::FpToSi { dst: r(), x: r() },
            Instr::TruncF { dst: r(), x: r() },
            Instr::ExtF { dst: r(), x: r() },
            Instr::Math { op: MathOp::Powf, dst: r(), x: r(), y: r(), f32_out: true },
            Instr::Math { op: MathOp::Sqrt, dst: r(), x: r(), y: 0, f32_out: true },
            Instr::Alloca { dst: r(), elem: elem.clone(), shape: [4, 1, 1], rank: 1, len: 4 },
            Instr::LocalAlloca { dst: r(), site, elem, shape: [4, 1, 1], rank: 1, len: 4 },
            Instr::Load { dst: r(), mem: r(), idx: [r(), r(), r()], rank, site },
            Instr::Store { val: r(), mem: r(), idx: [r(), r(), r()], rank, site },
            Instr::VecCtor { dst: r(), comps: [r(), r(), r()], rank },
            Instr::NdRangeCtor { dst: r(), g: r(), l: r() },
            Instr::VecGet { dst: r(), v: r(), dim: DimSrc::Reg(r()) },
            Instr::VecGet { dst: r(), v: r(), dim: DimSrc::Const(2) },
            Instr::RangeSize { dst: r(), v: r() },
            Instr::ItemQuery { dst: r(), q: ItemQ::LocalId, dim: DimSrc::Reg(r()) },
            Instr::GlobalLinearId { dst: r() },
            Instr::LocalLinearId { dst: r() },
            Instr::ItemSelf { dst: r() },
            Instr::AccSubscript { dst: r(), acc: r(), id: r() },
            Instr::AccRange { dst: r(), acc: r(), dim: DimSrc::Reg(r()) },
            Instr::AccBase { dst: r(), acc: r() },
            Instr::Barrier,
            Instr::Jump { target },
            Instr::BranchIfFalse { cond: r(), target },
            Instr::ForEnter { lb: r(), ub: r(), step: r(), iv: r(), exit: target },
            Instr::ForNext { iv: r(), step: r(), ub: r(), body: target },
            Instr::Return,
            Instr::AccLoadIndexed { dst: r(), acc: r(), comps: [r(), r(), r()], comps_rank: 3,
                idx: [r(), r(), r()], rank, site },
        ]
    }

    /// A variant added to [`Instr`] stops this from compiling: give it a
    /// sample above, an arm here, and count it.
    const VARIANTS: usize = 35;
    fn counted(i: &Instr) {
        use Instr::*;
        match i {
            ConstDense { .. } | Copy { .. } | BinInt { .. } | BinFloat { .. } => {}
            NegF { .. } | CmpI { .. } | CmpF { .. } | Select { .. } | SiToFp { .. } => {}
            FpToSi { .. } | TruncF { .. } | ExtF { .. } | Math { .. } | Alloca { .. } => {}
            LocalAlloca { .. } | Load { .. } | Store { .. } | VecCtor { .. } => {}
            NdRangeCtor { .. } | VecGet { .. } | RangeSize { .. } | ItemQuery { .. } => {}
            GlobalLinearId { .. } | LocalLinearId { .. } | ItemSelf { .. } => {}
            AccSubscript { .. } | AccRange { .. } | AccBase { .. } | Barrier | Jump { .. } => {}
            BranchIfFalse { .. } | ForEnter { .. } | ForNext { .. } | Return => {}
            AccLoadIndexed { .. } => {}
        }
    }

    /// The table names every register field of every variant: what
    /// `operands` reports is exactly the sentinels the instance's `Debug`
    /// rendering shows (a forgotten operand shows there and not here).
    #[test]
    fn operands_reports_exactly_the_register_fields_of_every_variant() {
        let samples = samples();
        let variants: HashSet<_> = samples.iter().map(std::mem::discriminant).collect();
        assert_eq!(variants.len(), VARIANTS, "a variant has no sample");
        for instr in samples.iter().inspect(|i| counted(i)) {
            let shown = format!("{instr:?}");
            let fields: BTreeSet<Reg> = shown
                .split(|c: char| !c.is_ascii_digit())
                .filter_map(|n| n.parse().ok())
                .filter(|&n| n >= 1000)
                .collect();
            let mut reported = BTreeSet::new();
            instr.operands(|_, r, _| {
                reported.insert(r);
            });
            assert_eq!(reported, fields, "{shown}");
        }
    }
}
