//! The decoder: lowers the structured IR of a kernel and its callees into
//! a [`KernelPlan`], string-free once its `OpKindTable` is built.

use super::instr::{CmpPred, DimSrc, FloatBin, Instr, IntBin, ItemQ, MathOp};
use super::slot::{Reg, Slot};
use super::{DenseConst, FuncPlan, KernelPlan};
use crate::interp::{enclosing_module, SimError};
use crate::memory::DataVec;
use std::collections::HashMap;
use sycl_mlir_ir::{Attribute, Module, OpId, OpName, Type, TypeKind, ValueId};

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
