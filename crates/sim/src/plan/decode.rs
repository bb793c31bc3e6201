//! The decoder: lowers the structured IR of a kernel into one flat
//! [`KernelPlan`], inlining every call, string-free once its
//! `OpKindTable` is built.

use super::instr::{CmpPred, DimSrc, FloatBin, Instr, IntBin, ItemQ, MathOp};
use super::slot::{Reg, Slot};
use super::{DenseConst, KernelPlan};
use crate::interp::{enclosing_module, SimError};
use crate::memory::DataVec;
use std::collections::HashMap;
use sycl_mlir_ir::{
    Attribute, BlockId, Module, OpId, OpName, Type, TypeKind, ValueId, WalkControl,
};

/// Why a kernel could not be decoded (its launch fails with this).
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
/// submission index).
impl From<DecodeError> for SimError {
    fn from(e: DecodeError) -> SimError {
        SimError::msg(e.to_string())
    }
}

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

impl OpKind {
    /// Whether the op's instruction reads every operand, for every lane,
    /// before it writes its result — so the result may land in a register
    /// one of its operands is read from.
    fn reads_then_writes(self) -> bool {
        use OpKind::*;
        matches!(
            self,
            IntBin(_)
                | FloatBin(_)
                | NegF
                | CmpI
                | CmpF
                | SiToFp
                | FpToSi
                | TruncF
                | ExtF
                | Math(_)
                | Load
        )
    }
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
    /// The value→register map of the kernel and every callee. Every
    /// inlined copy of a callee shares its registers: no call is
    /// re-entered, since a recursive callee is refused.
    regs: HashMap<ValueId, Reg>,
    next_reg: Reg,
    code: Vec<Instr>,
    consts: Vec<(Reg, Slot)>,
    /// The callees being inlined, innermost last.
    inlining: Vec<OpId>,
    dense_consts: Vec<DenseConst>,
    dense_ids: HashMap<OpId, u32>,
    /// Site ids by IR op: every inlined copy of an op shares its op's id,
    /// as the tree walk's per-op visit counts and local allocations do.
    mem_sites: HashMap<OpId, u32>,
    local_sites: HashMap<OpId, u32>,
}

/// Decode `kernel`, with every call inlined, into an immutable
/// [`KernelPlan`].
pub fn decode_kernel(m: &Module, kernel: OpId) -> Result<KernelPlan, DecodeError> {
    let mut d = Decoder {
        m,
        kinds: OpKindTable::new(m),
        keys: m.ctx().common_keys(),
        regs: HashMap::new(),
        next_reg: 0,
        code: Vec::new(),
        consts: Vec::new(),
        inlining: Vec::new(),
        dense_consts: Vec::new(),
        dense_ids: HashMap::new(),
        mem_sites: HashMap::new(),
        local_sites: HashMap::new(),
    };
    let entry = m.op_region_block(kernel, 0);
    let params = d.regs_of(m.block_args(entry));
    let has_item_param = m
        .block_args(entry)
        .last()
        .map(|&p| sycl_mlir_sycl::types::is_item_like(&m.value_type(p)))
        .unwrap_or(false);
    for &op in m.block_ops(entry) {
        let kind = d.kind(op)?;
        d.decode_op(op, kind)?;
    }
    // A body that falls off the end without a terminator behaves like a
    // return.
    d.code.push(Instr::Return);
    Ok(KernelPlan {
        code: d.code,
        reg_count: d.next_reg,
        params,
        has_item_param,
        consts: d.consts,
        dense_consts: d.dense_consts,
        mem_sites: d.mem_sites.len() as u32,
        local_sites: d.local_sites.len() as u32,
    })
}

/// The id of `op` in `sites`, numbered in order of first decode.
fn site_of(sites: &mut HashMap<OpId, u32>, op: OpId) -> u32 {
    let next = sites.len() as u32;
    *sites.entry(op).or_insert(next)
}

impl<'a> Decoder<'a> {
    fn reg_of(&mut self, v: ValueId) -> Reg {
        *self.regs.entry(v).or_insert_with(|| {
            let r = self.next_reg;
            self.next_reg += 1;
            r
        })
    }

    /// Make `v` one value with register `r`: `v` takes `r`, or, where it
    /// was named before (an inlined callee decoded again names its values
    /// the same way), gets a copy of it.
    fn share(&mut self, v: ValueId, r: Reg) {
        let have = *self.regs.entry(v).or_insert(r);
        if have != r {
            self.code.push(Instr::Copy { dst: have, src: r });
        }
    }

    /// Bind the scalar constant `val` to the result of `op`, once however
    /// often `op` is inlined: a register of [`KernelPlan::consts`], which
    /// no instruction writes.
    fn bind_const(&mut self, op: OpId, val: Slot) {
        let v = self.m.op_result(op, 0);
        if !self.regs.contains_key(&v) {
            let r = self.reg_of(v);
            self.consts.push((r, val));
        }
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn pc(&self) -> u32 {
        self.code.len() as u32
    }

    fn kind(&self, op: OpId) -> Result<OpKind, DecodeError> {
        let m = self.m;
        self.kinds
            .get(m.op_name(op))
            .ok_or_else(|| dec_err(format!("op `{}` is not plan-decodable", m.op_name_str(op))))
    }

    fn regs_of(&mut self, values: &[ValueId]) -> Vec<Reg> {
        values.iter().map(|&v| self.reg_of(v)).collect()
    }

    /// Inline the callee of `call` at the call site: the arguments are
    /// copied into the callee's parameters, its body runs, and its
    /// returned values are copied into the call's results.
    fn inline_call(&mut self, call: OpId) -> Result<(), DecodeError> {
        let m = self.m;
        let scope = enclosing_module(m, call);
        let callee = sycl_mlir_dialects::func::resolve_callee(m, call, scope)
            .ok_or_else(|| dec_err("unresolved call"))?;
        if self.inlining.contains(&callee) {
            return Err(dec_err("recursive call"));
        }
        let entry = m.op_region_block(callee, 0);
        let (params, args) = (
            self.regs_of(m.block_args(entry)),
            self.regs_of(m.op_operands(call)),
        );
        if args.len() != params.len() {
            return Err(dec_err(format!(
                "call passes {} arguments but the callee takes {}",
                args.len(),
                params.len()
            )));
        }
        self.emit_parallel_copy(&params, &args);
        self.inlining.push(callee);
        let mut returned = Vec::new();
        for &op in m.block_ops(entry) {
            match self.kind(op)? {
                OpKind::Return => {
                    returned = self.regs_of(m.op_operands(op));
                    break;
                }
                kind => self.decode_op(op, kind)?,
            }
        }
        self.inlining.pop();
        let results = self.regs_of(m.op_results(call));
        if returned.len() != results.len() {
            return Err(dec_err(format!(
                "call expects {} results but the callee returns {}",
                results.len(),
                returned.len()
            )));
        }
        self.emit_parallel_copy(&results, &returned);
        Ok(())
    }

    fn operand_reg(&mut self, op: OpId, index: usize) -> Reg {
        self.reg_of(self.m.op_operand(op, index))
    }

    fn result_reg(&mut self, op: OpId) -> Reg {
        self.reg_of(self.m.op_result(op, 0))
    }

    /// A dimension operand: folded to `DimSrc::Const` when it is a
    /// compile-time integer constant.
    fn dim_src(&mut self, op: OpId) -> DimSrc {
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
        DimSrc::Reg(self.reg_of(v))
    }

    fn index_regs(&mut self, op: OpId, from: usize) -> Result<([Reg; 3], u8), DecodeError> {
        let operands = self.m.op_operands(op);
        let n = operands.len() - from;
        if n > 3 {
            return Err(dec_err("more than 3 index operands"));
        }
        let mut idx = [0 as Reg; 3];
        for (i, &v) in operands[from..].iter().enumerate() {
            idx[i] = self.reg_of(v);
        }
        Ok((idx, n as u8))
    }

    /// Copy `srcs` into `dsts` with parallel-copy semantics. A pair whose
    /// source is its destination is no copy; when a remaining source is
    /// also a remaining destination (loop-carried swaps), route through
    /// fresh scratch registers.
    fn emit_parallel_copy(&mut self, dsts: &[Reg], srcs: &[Reg]) {
        let (dsts, srcs): (Vec<Reg>, Vec<Reg>) =
            dsts.iter().zip(srcs).filter(|(d, s)| d != s).unzip();
        if srcs.iter().any(|s| dsts.contains(s)) {
            let scratch: Vec<Reg> = srcs.iter().map(|_| self.fresh()).collect();
            for (&t, &s) in scratch.iter().zip(&srcs) {
                self.code.push(Instr::Copy { dst: t, src: s });
            }
            for (&d, &t) in dsts.iter().zip(&scratch) {
                self.code.push(Instr::Copy { dst: d, src: t });
            }
        } else {
            for (&d, &s) in dsts.iter().zip(&srcs) {
                self.code.push(Instr::Copy { dst: d, src: s });
            }
        }
    }

    /// The values loop body `body` yields that can be computed straight
    /// into their carry's register, with the carry's index: a value
    /// yielded once, computed at the body's top level by an op that reads
    /// its operands before it writes ([`OpKind::reads_then_writes`]),
    /// where nothing after that op — the other yields included — reads
    /// the carry or a cast of it (a cast shares its operand's register).
    fn in_place_yields(&self, body: BlockId, carries: &[ValueId]) -> Vec<(usize, ValueId)> {
        let m = self.m;
        let Some((&term, ops)) = m.block_ops(body).split_last() else {
            return Vec::new();
        };
        if self.kinds.get(m.op_name(term)) != Some(OpKind::Yield) {
            return Vec::new();
        }
        let yielded = m.op_operands(term);
        let is_cast = |op: OpId| {
            matches!(
                self.kinds.get(m.op_name(op)),
                Some(OpKind::CopyCast | OpKind::MemRefCast)
            )
        };
        let mut out = Vec::new();
        for (k, (&y, &carry)) in yielded.iter().zip(carries).enumerate() {
            let Some(def) = m.def_op(y) else { continue };
            let Some(at) = ops.iter().position(|&op| op == def) else {
                continue;
            };
            let computed = self.kinds.get(m.op_name(def));
            if !computed.is_some_and(OpKind::reads_then_writes)
                || yielded.iter().filter(|&&v| v == y).count() != 1
            {
                continue;
            }
            // The carry and its casts, in program order.
            let mut names = vec![carry];
            for &op in ops {
                m.walk(op, &mut |o| {
                    if is_cast(o) && names.contains(&m.op_operand(o, 0)) {
                        names.push(m.op_result(o, 0));
                    }
                    WalkControl::Advance
                });
            }
            let mut read_after =
                (yielded.iter().enumerate()).any(|(j, v)| j != k && names.contains(v));
            for &op in &ops[at + 1..] {
                m.walk(op, &mut |o| {
                    read_after |= m.op_operands(o).iter().any(|v| names.contains(v));
                    WalkControl::Advance
                });
            }
            if !read_after {
                out.push((k, y));
            }
        }
        out
    }

    /// The yield operand registers of `block`'s terminator (which must be a
    /// yield for structured regions).
    fn yield_regs(&mut self, block: BlockId) -> Result<Vec<Reg>, DecodeError> {
        let m = self.m;
        let term = m
            .block_terminator(block)
            .ok_or_else(|| dec_err("structured region block has no terminator"))?;
        match self.kinds.get(m.op_name(term)) {
            Some(OpKind::Yield) => Ok(self.regs_of(m.op_operands(term))),
            _ => Err(dec_err("structured region does not end in a yield")),
        }
    }

    /// Decode the ops of a structured-region block, stopping before the
    /// trailing yield (the caller wires the yield's copies).
    fn decode_region_body(&mut self, block: BlockId) -> Result<(), DecodeError> {
        let m = self.m;
        let ops = m.block_ops(block);
        let Some((&term, body)) = ops.split_last() else {
            return Err(dec_err("empty structured region block"));
        };
        if self.kinds.get(m.op_name(term)) != Some(OpKind::Yield) {
            return Err(dec_err("structured region does not end in a yield"));
        }
        for &op in body {
            let kind = self.kind(op)?;
            self.decode_op(op, kind)?;
        }
        Ok(())
    }

    fn decode_op(&mut self, op: OpId, kind: OpKind) -> Result<(), DecodeError> {
        let m = self.m;
        match kind {
            OpKind::Constant => {
                let attr = m
                    .attr_by_id(op, self.keys.value)
                    .ok_or_else(|| dec_err("constant without value"))?;
                let ty = m.value_type(m.op_result(op, 0));
                match (attr, ty.kind()) {
                    (Attribute::Int(x), _) => self.bind_const(op, Slot::Int(*x)),
                    (Attribute::Bool(b), _) => self.bind_const(op, Slot::Int(*b as i64)),
                    (Attribute::Float(f), TypeKind::F32) => {
                        self.bind_const(op, Slot::F32(*f as f32))
                    }
                    (Attribute::Float(f), _) => self.bind_const(op, Slot::F64(*f)),
                    (Attribute::DenseF64(_) | Attribute::DenseI64(_), TypeKind::MemRef { .. }) => {
                        let idx = self.dense_const_id(op, attr, &ty)?;
                        let dst = self.result_reg(op);
                        self.code.push(Instr::ConstDense { dst, idx });
                    }
                    _ => return Err(dec_err("unsupported constant kind")),
                }
            }
            OpKind::IntBin(b) => {
                let (l, r) = (self.operand_reg(op, 0), self.operand_reg(op, 1));
                let dst = self.result_reg(op);
                self.code.push(Instr::BinInt { op: b, dst, l, r });
            }
            OpKind::FloatBin(b) => {
                let (l, r) = (self.operand_reg(op, 0), self.operand_reg(op, 1));
                let dst = self.result_reg(op);
                let f32_out = matches!(m.value_type(m.op_result(op, 0)).kind(), TypeKind::F32);
                self.code.push(Instr::BinFloat {
                    op: b,
                    dst,
                    l,
                    r,
                    f32_out,
                });
            }
            OpKind::NegF => {
                let x = self.operand_reg(op, 0);
                let dst = self.result_reg(op);
                self.code.push(Instr::NegF { dst, x });
            }
            OpKind::CmpI | OpKind::CmpF => {
                let pred = CmpPred::of_attr(m.attr_by_id(op, self.keys.predicate));
                let (l, r) = (self.operand_reg(op, 0), self.operand_reg(op, 1));
                let dst = self.result_reg(op);
                self.code.push(if kind == OpKind::CmpI {
                    Instr::CmpI { pred, dst, l, r }
                } else {
                    Instr::CmpF { pred, dst, l, r }
                });
            }
            OpKind::Select => {
                let c = self.operand_reg(op, 0);
                let t = self.operand_reg(op, 1);
                let f = self.operand_reg(op, 2);
                let dst = self.result_reg(op);
                self.code.push(Instr::Select { dst, c, t, f });
            }
            // A cast is its operand, value for value.
            OpKind::CopyCast | OpKind::MemRefCast => {
                let src = self.operand_reg(op, 0);
                self.share(m.op_result(op, 0), src);
            }
            OpKind::SiToFp => {
                let x = self.operand_reg(op, 0);
                let dst = self.result_reg(op);
                let f32_out = matches!(m.value_type(m.op_result(op, 0)).kind(), TypeKind::F32);
                self.code.push(Instr::SiToFp { dst, x, f32_out });
            }
            OpKind::FpToSi => {
                let x = self.operand_reg(op, 0);
                let dst = self.result_reg(op);
                self.code.push(Instr::FpToSi { dst, x });
            }
            OpKind::TruncF => {
                let x = self.operand_reg(op, 0);
                let dst = self.result_reg(op);
                self.code.push(Instr::TruncF { dst, x });
            }
            OpKind::ExtF => {
                let x = self.operand_reg(op, 0);
                let dst = self.result_reg(op);
                self.code.push(Instr::ExtF { dst, x });
            }
            OpKind::Math(mop) => {
                let x = self.operand_reg(op, 0);
                let y = if matches!(mop, MathOp::Powf) {
                    self.operand_reg(op, 1)
                } else {
                    0
                };
                let dst = self.result_reg(op);
                let f32_out = matches!(m.value_type(m.op_result(op, 0)).kind(), TypeKind::F32);
                self.code.push(Instr::Math {
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
                let dst = self.result_reg(op);
                let rank = shape_v.len() as u32;
                let len = len.max(0) as usize;
                if kind == OpKind::Alloca {
                    self.code.push(Instr::Alloca {
                        dst,
                        elem,
                        shape,
                        rank,
                        len,
                    });
                } else {
                    let site = site_of(&mut self.local_sites, op);
                    self.code.push(Instr::LocalAlloca {
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
                let mem = self.operand_reg(op, 0);
                let (idx, rank) = self.index_regs(op, 1)?;
                let dst = self.result_reg(op);
                let site = site_of(&mut self.mem_sites, op);
                self.code.push(Instr::Load {
                    dst,
                    mem,
                    idx,
                    rank,
                    site,
                });
            }
            OpKind::Store => {
                let val = self.operand_reg(op, 0);
                let mem = self.operand_reg(op, 1);
                let (idx, rank) = self.index_regs(op, 2)?;
                let site = site_of(&mut self.mem_sites, op);
                self.code.push(Instr::Store {
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
                    comps[i] = self.reg_of(v);
                }
                let rank = operands.len() as u8;
                let dst = self.result_reg(op);
                self.code.push(Instr::VecCtor { dst, comps, rank });
            }
            OpKind::NdRangeCtor => {
                let g = self.operand_reg(op, 0);
                let l = self.operand_reg(op, 1);
                let dst = self.result_reg(op);
                self.code.push(Instr::NdRangeCtor { dst, g, l });
            }
            OpKind::VecGet => {
                let v = self.operand_reg(op, 0);
                let dim = self.dim_src(op);
                let dst = self.result_reg(op);
                self.code.push(Instr::VecGet { dst, v, dim });
            }
            OpKind::RangeSize => {
                let v = self.operand_reg(op, 0);
                let dst = self.result_reg(op);
                self.code.push(Instr::RangeSize { dst, v });
            }
            OpKind::Item(q) => {
                let dim = self.dim_src(op);
                let dst = self.result_reg(op);
                self.code.push(Instr::ItemQuery { dst, q, dim });
            }
            OpKind::GlobalLinearId => {
                let dst = self.result_reg(op);
                self.code.push(Instr::GlobalLinearId { dst });
            }
            OpKind::LocalLinearId => {
                let dst = self.result_reg(op);
                self.code.push(Instr::LocalLinearId { dst });
            }
            OpKind::ItemSelf => {
                let dst = self.result_reg(op);
                self.code.push(Instr::ItemSelf { dst });
            }
            OpKind::AccSubscript => {
                let acc = self.operand_reg(op, 0);
                let id = self.operand_reg(op, 1);
                let dst = self.result_reg(op);
                self.code.push(Instr::AccSubscript { dst, acc, id });
            }
            OpKind::AccRange => {
                let acc = self.operand_reg(op, 0);
                let dim = self.dim_src(op);
                let dst = self.result_reg(op);
                self.code.push(Instr::AccRange { dst, acc, dim });
            }
            OpKind::AccBase => {
                let acc = self.operand_reg(op, 0);
                let dst = self.result_reg(op);
                self.code.push(Instr::AccBase { dst, acc });
            }
            OpKind::Undef => self.bind_const(op, Slot::Int(0)),
            OpKind::Barrier => self.code.push(Instr::Barrier),
            OpKind::If => {
                let cond = self.operand_reg(op, 0);
                let results = self.regs_of(m.op_results(op));
                if m.op_regions(op).len() < 2 {
                    return Err(dec_err("scf.if without else region"));
                }
                let branch_pc = self.pc();
                self.code.push(Instr::BranchIfFalse { cond, target: 0 }); // patched
                let then_blk = m.op_region_block(op, 0);
                self.decode_region_body(then_blk)?;
                let then_yields = self.yield_regs(then_blk)?;
                self.emit_parallel_copy(&results, &then_yields);
                let jump_pc = self.pc();
                self.code.push(Instr::Jump { target: 0 }); // patched
                let else_start = self.pc();
                let else_blk = m.op_region_block(op, 1);
                self.decode_region_body(else_blk)?;
                let else_yields = self.yield_regs(else_blk)?;
                self.emit_parallel_copy(&results, &else_yields);
                let end = self.pc();
                if let Instr::BranchIfFalse { target, .. } = &mut self.code[branch_pc as usize] {
                    *target = else_start;
                }
                if let Instr::Jump { target } = &mut self.code[jump_pc as usize] {
                    *target = end;
                }
            }
            OpKind::For => {
                let lb = self.operand_reg(op, 0);
                let ub = self.operand_reg(op, 1);
                let step = self.operand_reg(op, 2);
                let inits = self.regs_of(&m.op_operands(op)[3..]);
                let body_blk = m.op_region_block(op, 0);
                let body_args = m.block_args(body_blk);
                if body_args.len() != inits.len() + 1 {
                    return Err(dec_err("loop body arity mismatch"));
                }
                let iv = self.reg_of(body_args[0]);
                let carries = self.regs_of(&body_args[1..]);
                for (k, y) in self.in_place_yields(body_blk, &body_args[1..]) {
                    if self.regs.get(&y).is_none_or(|&r| r == carries[k]) {
                        self.regs.insert(y, carries[k]);
                    }
                }
                // carries := inits (also the zero-trip result values).
                self.emit_parallel_copy(&carries, &inits);
                let enter_pc = self.pc();
                self.code.push(Instr::ForEnter {
                    lb,
                    ub,
                    step,
                    iv,
                    exit: 0,
                }); // patched
                let body_pc = self.pc();
                self.decode_region_body(body_blk)?;
                let yields = self.yield_regs(body_blk)?;
                self.emit_parallel_copy(&carries, &yields);
                self.code.push(Instr::ForNext {
                    iv,
                    step,
                    ub,
                    body: body_pc,
                });
                let exit = self.pc();
                if let Instr::ForEnter { exit: e, .. } = &mut self.code[enter_pc as usize] {
                    *e = exit;
                }
                // The loop's results are its carries on exit.
                for (&result, &carry) in m.op_results(op).iter().zip(&carries) {
                    self.share(result, carry);
                }
            }
            OpKind::Call => self.inline_call(op)?,
            // An inlined callee's return is the last op `inline_call`
            // decodes; one anywhere else is the kernel's.
            OpKind::Return if self.inlining.is_empty() => self.code.push(Instr::Return),
            OpKind::Return => return Err(dec_err("return nested in a region")),
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
        let data =
            DataVec::of_dense(attr, &elem).ok_or_else(|| dec_err("unsupported dense constant"))?;
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
