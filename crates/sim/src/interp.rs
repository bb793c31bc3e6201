//! The resumable device interpreter.
//!
//! Each work-item runs as a [`WorkItemState`]: an explicit frame stack over
//! the structured IR, so execution can *suspend* at `sycl.group.barrier`
//! and resume later — the co-operative scheduling work-group barriers
//! require. The scheduler in [`crate::device`] drives all work-items of a
//! work-group between barrier points and detects the divergent-barrier
//! deadlock of §V-C.

use crate::cost::{Coalescer, CostModel, ExecStats};
use crate::device::NdRangeSpec;
use crate::limits::FaultPlan;
use crate::memory::{MemFault, MemoryPool};
use crate::plan::ItemQ;
use crate::value::{MemRefVal, RtValue, Space, VecVal};
use std::collections::HashMap;
use sycl_mlir_ir::{CommonKeys, Module, OpId, TypeKind, ValueId};

/// Why a work-item stopped running.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stop {
    /// Reached a `sycl.group.barrier`.
    Barrier,
    /// Ran to completion.
    Finished,
}

/// Which execution limit a launch exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// The per-launch weighted-operation budget
    /// ([`ExecLimits::max_ops`](crate::limits::ExecLimits::max_ops)) ran
    /// out.
    Ops,
    /// The kernel-driven allocation cap
    /// ([`ExecLimits::mem_cap`](crate::limits::ExecLimits::mem_cap)) was
    /// exceeded.
    Memory,
    /// The wall-clock deadline
    /// ([`ExecLimits::deadline_ms`](crate::limits::ExecLimits::deadline_ms))
    /// passed.
    Deadline,
    /// The launch was cancelled — via its
    /// [`CancelToken`](crate::limits::CancelToken), or with-cause because
    /// a DAG predecessor failed.
    Cancelled,
}

impl LimitKind {
    /// Stable name used in error text.
    pub fn name(self) -> &'static str {
        match self {
            LimitKind::Ops => "op budget",
            LimitKind::Memory => "memory cap",
            LimitKind::Deadline => "deadline",
            LimitKind::Cancelled => "cancelled",
        }
    }
}

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A general execution failure described by a message.
    Message {
        /// Human-readable description of the failure.
        message: String,
        /// The `(launch, work-group)` position the failure was recorded
        /// at, when it happened inside a scheduled launch (`None` for
        /// errors raised outside any launch, e.g. graph validation).
        /// Rendered into [`SimError::message`], so failure positions are
        /// part of the bit-identical cross-engine error contract.
        at: Option<(usize, usize)>,
    },
    /// A per-launch execution limit tripped (or the launch was
    /// cancelled). Structured — not a panic — so callers can match on
    /// the kind and position, and the device stays usable afterwards.
    LimitExceeded {
        /// Which limit tripped.
        kind: LimitKind,
        /// Index of the launch within its graph (0 for single launches).
        launch: usize,
        /// Linear index of the tripping work-group within the launch.
        group: usize,
    },
    /// A faulting device-memory access (out of bounds, type-mismatched
    /// store, unknown buffer), as the access path reported it.
    Fault {
        /// What went wrong, and on which buffer.
        fault: MemFault,
        /// The position, as in [`SimError::Message`].
        at: Option<(usize, usize)>,
    },
    /// Some work-items of a work-group wait at a barrier while the others
    /// have finished: the deadlock §V-C's uniformity analysis exists to
    /// prevent. Like a [`SimError::Message`], it does not cascade.
    DivergentBarrier {
        /// Work-items waiting at a barrier.
        waiting: usize,
        /// Work-items that ran to completion.
        finished: usize,
        /// The work-group, by its coordinates.
        group: [i64; 3],
        /// The position, as in [`SimError::Message`].
        at: Option<(usize, usize)>,
    },
    /// A [`FaultPlan`] fired ([`FaultPlan::error`]): a synthetic failure
    /// that, like a limit trip, cancels the launch's DAG successors.
    Injected {
        /// The fault that fired.
        fault: FaultPlan,
        /// The `(launch, work-group)` position, as in
        /// [`SimError::Message`].
        at: Option<(usize, usize)>,
    },
}

impl SimError {
    /// A general failure with the given message.
    pub fn msg(message: impl Into<String>) -> SimError {
        SimError::Message {
            message: message.into(),
            at: None,
        }
    }

    /// A limit trip whose position is not known yet; the scheduler
    /// stamps the true `(launch, group)` when it records the failure.
    pub(crate) fn limit(kind: LimitKind) -> SimError {
        SimError::LimitExceeded {
            kind,
            launch: 0,
            group: 0,
        }
    }

    /// Re-stamp an error with its true `(launch, group)` position. Every
    /// error kind carries the position (not just limit trips — PR 9
    /// bugfix: message errors used to drop it, so host-task segmentation
    /// reported segment-local launch indices).
    pub(crate) fn at(mut self, launch: usize, group: usize) -> SimError {
        match &mut self {
            SimError::LimitExceeded {
                launch: l,
                group: g,
                ..
            } => (*l, *g) = (launch, group),
            SimError::Message { at, .. }
            | SimError::Fault { at, .. }
            | SimError::DivergentBarrier { at, .. }
            | SimError::Injected { at, .. } => *at = Some((launch, group)),
        }
        self
    }

    /// The error text without the `simulation error: ` prefix.
    pub fn message(&self) -> String {
        let stamped = |message: String, at: &Option<(usize, usize)>| match at {
            None => message,
            Some((launch, group)) => format!("{message} (launch {launch}, work-group {group})"),
        };
        match self {
            SimError::Message { message, at } => stamped(message.clone(), at),
            SimError::Fault { fault, at } => stamped(fault.to_string(), at),
            SimError::DivergentBarrier {
                waiting,
                finished,
                group,
                at,
            } => stamped(
                format!(
                    "divergent barrier: {waiting} work-items wait at a barrier while {finished} finished (work-group {group:?})"
                ),
                at,
            ),
            SimError::Injected { fault, at } => stamped(fault.to_string(), at),
            SimError::LimitExceeded {
                kind,
                launch,
                group,
            } => format!(
                "execution limit exceeded: {} (launch {launch}, work-group {group})",
                kind.name()
            ),
        }
    }

    /// Whether a launch failing with this error cancels its DAG
    /// successors. Limit trips and injected faults cascade — their
    /// successors retire as `Cancelled { cause }` without running.
    /// Plain kernel errors (out-of-bounds access, divergent barrier,
    /// type mismatch, ...) keep the pre-limits contract: successors
    /// still execute, so the first-failure position stays identical
    /// under the out-of-order and the serial schedule.
    pub(crate) fn cascades(&self) -> bool {
        match self {
            SimError::LimitExceeded { .. } | SimError::Injected { .. } => true,
            SimError::Message { .. }
            | SimError::Fault { .. }
            | SimError::DivergentBarrier { .. } => false,
        }
    }

    /// The limit kind, if this is a limit/cancellation error.
    pub fn limit_kind(&self) -> Option<LimitKind> {
        match self {
            SimError::LimitExceeded { kind, .. } => Some(*kind),
            SimError::Message { .. }
            | SimError::Fault { .. }
            | SimError::DivergentBarrier { .. }
            | SimError::Injected { .. } => None,
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation error: {}", self.message())
    }
}

impl std::error::Error for SimError {}

fn err(msg: impl Into<String>) -> SimError {
    SimError::msg(msg)
}

/// Per-launch shared state (across work-groups).
pub struct ExecCtx<'a> {
    /// The module being interpreted.
    pub m: &'a Module,
    /// Device memory of the launch.
    pub pool: &'a mut MemoryPool,
    /// The cost model charged per dynamic event.
    pub cost: &'a CostModel,
    /// Accumulated dynamic statistics.
    pub stats: ExecStats,
    /// The work-group's coalescing tracker.
    pub coalescer: Coalescer,
    /// The launch geometry: with [`Self::group`] and a work-item's local
    /// linear id, everything its item queries answer.
    pub nd: NdRangeSpec,
    /// The work-group running.
    pub group: [i64; 3],
    /// `sycl.local.alloca` results shared by the work-group.
    local_allocs: HashMap<OpId, MemRefVal>,
    /// Pre-interned attribute keys (`value`, `predicate`, …), resolved once
    /// per launch instead of per dynamic op.
    keys: CommonKeys,
    /// Materialized dense-constant memrefs (`arith.constant` of memref
    /// type), shared per launch.
    const_pool: HashMap<OpId, MemRefVal>,
    /// Execution-limit metering (`None` when no limits are set, which
    /// skips every check).
    pub(crate) limits: Option<Box<crate::limits::OpMeter>>,
}

impl<'a> ExecCtx<'a> {
    /// A fresh context for a launch over `nd` and `pool`, with zeroed
    /// statistics, at work-group 0.
    pub fn new(
        m: &'a Module,
        pool: &'a mut MemoryPool,
        cost: &'a CostModel,
        nd: NdRangeSpec,
    ) -> ExecCtx<'a> {
        ExecCtx {
            m,
            pool,
            cost,
            stats: ExecStats::default(),
            coalescer: Coalescer::new(cost),
            nd,
            group: [0; 3],
            local_allocs: HashMap::new(),
            keys: m.ctx().common_keys(),
            const_pool: HashMap::new(),
            limits: None,
        }
    }

    /// Reset work-group-shared state (call between work-groups).
    pub fn next_work_group(&mut self) {
        self.coalescer.reset();
        self.local_allocs.clear();
        if let Some(meter) = self.limits.as_deref_mut() {
            meter.begin_group();
        }
    }
}

enum Frame {
    Block {
        block: sycl_mlir_ir::BlockId,
        idx: usize,
    },
    If {
        op: OpId,
    },
    Loop {
        op: OpId,
        iv: i64,
        ub: i64,
        step: i64,
    },
    Call {
        op: OpId,
    },
}

/// One work-item's resumable execution state.
pub struct WorkItemState {
    env: Vec<RtValue>,
    bound: Vec<bool>,
    frames: Vec<Frame>,
    visits: Vec<u32>,
    /// The work-item's local linear id: its position in the work-group
    /// the [`ExecCtx`] runs.
    pub linear: i64,
    /// Whether the work-item ran to completion.
    pub finished: bool,
    steps: u64,
}

const MAX_STEPS: u64 = 500_000_000;

impl WorkItemState {
    /// Prepare execution of `kernel`, as the work-item at local linear id
    /// `linear`, with `args` bound to all parameters except the trailing
    /// item-like one, which gets the item.
    pub fn new(
        m: &Module,
        kernel: OpId,
        args: &[RtValue],
        linear: i64,
    ) -> Result<WorkItemState, SimError> {
        let entry = m.op_region_block(kernel, 0);
        let params = m.block_args(entry).to_vec();
        let mut s = WorkItemState {
            env: vec![RtValue::Unit; m.value_capacity()],
            bound: vec![false; m.value_capacity()],
            frames: vec![Frame::Block {
                block: entry,
                idx: 0,
            }],
            visits: vec![0; m.op_capacity()],
            linear,
            finished: false,
            steps: 0,
        };
        let has_item = params
            .last()
            .map(|&p| sycl_mlir_sycl::types::is_item_like(&m.value_type(p)))
            .unwrap_or(false);
        let value_params = if has_item {
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
        for (&p, &a) in value_params.iter().zip(args) {
            s.bind(p, a);
        }
        if has_item {
            s.bind(*params.last().unwrap(), RtValue::Item);
        }
        Ok(s)
    }

    fn bind(&mut self, v: ValueId, val: RtValue) {
        self.env[v.0 as usize] = val;
        self.bound[v.0 as usize] = true;
    }

    fn val(&self, v: ValueId) -> Result<RtValue, SimError> {
        if !self.bound[v.0 as usize] {
            return Err(err(
                "use of unbound SSA value (interpreter bug or invalid IR)",
            ));
        }
        Ok(self.env[v.0 as usize])
    }

    fn vals(&self, m: &Module, op: OpId) -> Result<Vec<RtValue>, SimError> {
        m.op_operands(op).iter().map(|&v| self.val(v)).collect()
    }

    fn assign_results(&mut self, m: &Module, op: OpId, vals: &[RtValue]) {
        for (i, &r) in m.op_results(op).iter().enumerate() {
            self.bind(r, vals[i]);
        }
    }

    /// Run until the next barrier or completion.
    pub fn run(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Stop, SimError> {
        if self.finished {
            return Ok(Stop::Finished);
        }
        loop {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Err(err("work-item exceeded the step budget (runaway loop?)"));
            }
            if let Some(meter) = ctx.limits.as_deref_mut() {
                meter.charge(1)?;
            }
            let fi = self.frames.len();
            if fi == 0 {
                self.finished = true;
                return Ok(Stop::Finished);
            }
            let (block, idx) = match &self.frames[fi - 1] {
                Frame::Block { block, idx } => (*block, *idx),
                _ => return Err(err("malformed frame stack")),
            };
            let ops = ctx.m.block_ops(block);
            if idx >= ops.len() {
                // Block fell off the end (no terminator executed): treat as
                // function end for kernels whose region is module-like.
                self.frames.pop();
                continue;
            }
            let op = ops[idx];
            if let Frame::Block { idx, .. } = &mut self.frames[fi - 1] {
                *idx += 1;
            }
            let name = ctx.m.op_name_str(op);
            match &*name {
                "func.return" => {
                    let vals = self.vals(ctx.m, op)?;
                    loop {
                        match self.frames.pop() {
                            None => {
                                self.finished = true;
                                return Ok(Stop::Finished);
                            }
                            Some(Frame::Call { op: call }) => {
                                self.assign_results(ctx.m, call, &vals);
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                }
                "scf.yield" | "affine.yield" => {
                    let vals = self.vals(ctx.m, op)?;
                    self.frames.pop(); // the finished block
                    match self.frames.last().map(|f| match f {
                        Frame::If { op } => (0, *op, 0, 0, 0),
                        Frame::Loop { op, iv, ub, step } => (1, *op, *iv, *ub, *step),
                        _ => (2, OpId(0), 0, 0, 0),
                    }) {
                        Some((0, if_op, ..)) => {
                            self.frames.pop();
                            self.assign_results(ctx.m, if_op, &vals);
                        }
                        Some((1, loop_op, iv, ub, step)) => {
                            // Past `i64::MAX` is past `ub`: overflow ends the loop.
                            if let Some(next) = iv.checked_add(step).filter(|&n| n < ub) {
                                if let Some(Frame::Loop { iv, .. }) = self.frames.last_mut() {
                                    *iv = next;
                                }
                                let m = ctx.m;
                                let body = m.op_region_block(loop_op, 0);
                                let args = m.block_args(body);
                                self.bind(args[0], RtValue::Int(next));
                                for (i, &a) in args[1..].iter().enumerate() {
                                    self.bind(a, vals[i]);
                                }
                                self.frames.push(Frame::Block {
                                    block: body,
                                    idx: 0,
                                });
                            } else {
                                self.frames.pop();
                                self.assign_results(ctx.m, loop_op, &vals);
                            }
                        }
                        _ => return Err(err("yield outside of an if/loop")),
                    }
                }
                "scf.if" => {
                    let cond = self
                        .val(ctx.m.op_operand(op, 0))?
                        .as_bool()
                        .ok_or_else(|| err("non-boolean if condition"))?;
                    ctx.stats.arith_ops += 1;
                    let region = if cond { 0 } else { 1 };
                    let blk = ctx.m.op_region_block(op, region);
                    self.frames.push(Frame::If { op });
                    self.frames.push(Frame::Block { block: blk, idx: 0 });
                }
                "scf.for" | "affine.for" => {
                    let lb = self
                        .val(ctx.m.op_operand(op, 0))?
                        .as_int()
                        .ok_or_else(|| err("bad lb"))?;
                    let ub = self
                        .val(ctx.m.op_operand(op, 1))?
                        .as_int()
                        .ok_or_else(|| err("bad ub"))?;
                    let step = self
                        .val(ctx.m.op_operand(op, 2))?
                        .as_int()
                        .ok_or_else(|| err("bad step"))?;
                    if step <= 0 {
                        return Err(err("non-positive loop step"));
                    }
                    ctx.stats.arith_ops += 1;
                    let inits: Vec<RtValue> = ctx.m.op_operands(op)[3..]
                        .iter()
                        .map(|&v| self.val(v))
                        .collect::<Result<_, _>>()?;
                    if lb >= ub {
                        self.assign_results(ctx.m, op, &inits);
                    } else {
                        let m = ctx.m;
                        let body = m.op_region_block(op, 0);
                        let args = m.block_args(body);
                        self.bind(args[0], RtValue::Int(lb));
                        for (i, &a) in args[1..].iter().enumerate() {
                            self.bind(a, inits[i]);
                        }
                        self.frames.push(Frame::Loop {
                            op,
                            iv: lb,
                            ub,
                            step,
                        });
                        self.frames.push(Frame::Block {
                            block: body,
                            idx: 0,
                        });
                    }
                }
                "func.call" => {
                    let scope = enclosing_module(ctx.m, op);
                    let callee = sycl_mlir_dialects::func::resolve_callee(ctx.m, op, scope)
                        .ok_or_else(|| err("unresolved call"))?;
                    let args = self.vals(ctx.m, op)?;
                    let m = ctx.m;
                    let entry = m.op_region_block(callee, 0);
                    for (i, &p) in m.block_args(entry).iter().enumerate() {
                        self.bind(p, args[i]);
                    }
                    self.frames.push(Frame::Call { op });
                    self.frames.push(Frame::Block {
                        block: entry,
                        idx: 0,
                    });
                }
                "sycl.group.barrier" => {
                    ctx.stats.barriers += 1;
                    return Ok(Stop::Barrier);
                }
                _ => self.exec_simple(ctx, op, &name)?,
            }
        }
    }

    /// Execute a non-control-flow op.
    fn exec_simple(&mut self, ctx: &mut ExecCtx<'_>, op: OpId, name: &str) -> Result<(), SimError> {
        let m = ctx.m;
        match name {
            "arith.constant" => {
                let attr = m
                    .attr_by_id(op, ctx.keys.value)
                    .ok_or_else(|| err("constant without value"))?
                    .clone();
                let ty = m.value_type(m.op_result(op, 0));
                let v = match (&attr, ty.kind()) {
                    (sycl_mlir_ir::Attribute::Int(x), _) => RtValue::Int(*x),
                    (sycl_mlir_ir::Attribute::Bool(b), _) => RtValue::Int(*b as i64),
                    (sycl_mlir_ir::Attribute::Float(f), TypeKind::F32) => RtValue::F32(*f as f32),
                    (sycl_mlir_ir::Attribute::Float(f), _) => RtValue::F64(*f),
                    (
                        sycl_mlir_ir::Attribute::DenseF64(_) | sycl_mlir_ir::Attribute::DenseI64(_),
                        TypeKind::MemRef { .. },
                    ) => {
                        let mr = self.materialize_dense(ctx, op, &attr)?;
                        RtValue::MemRef(mr)
                    }
                    _ => return Err(err("unsupported constant kind")),
                };
                self.bind(m.op_result(op, 0), v);
                Ok(())
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
            | "arith.andi" | "arith.ori" | "arith.xori" | "arith.minsi" | "arith.maxsi" => {
                ctx.stats.arith_ops += 1;
                let l = self
                    .val(m.op_operand(op, 0))?
                    .as_int()
                    .ok_or_else(|| err("int op on non-int"))?;
                let r = self
                    .val(m.op_operand(op, 1))?
                    .as_int()
                    .ok_or_else(|| err("int op on non-int"))?;
                let out = match name {
                    "arith.addi" => l.wrapping_add(r),
                    "arith.subi" => l.wrapping_sub(r),
                    "arith.muli" => l.wrapping_mul(r),
                    "arith.divsi" => {
                        if r == 0 {
                            return Err(err("division by zero"));
                        }
                        l.wrapping_div(r)
                    }
                    "arith.remsi" => {
                        if r == 0 {
                            return Err(err("remainder by zero"));
                        }
                        l.wrapping_rem(r)
                    }
                    "arith.andi" => l & r,
                    "arith.ori" => l | r,
                    "arith.xori" => l ^ r,
                    "arith.minsi" => l.min(r),
                    _ => l.max(r),
                };
                self.bind(m.op_result(op, 0), RtValue::Int(out));
                Ok(())
            }
            "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.minf"
            | "arith.maxf" => {
                ctx.stats.arith_ops += 1;
                let lv = self.val(m.op_operand(op, 0))?;
                let rv = self.val(m.op_operand(op, 1))?;
                let l = lv.as_f64().ok_or_else(|| err("float op on non-float"))?;
                let r = rv.as_f64().ok_or_else(|| err("float op on non-float"))?;
                let out = match name {
                    "arith.addf" => l + r,
                    "arith.subf" => l - r,
                    "arith.mulf" => l * r,
                    "arith.divf" => l / r,
                    "arith.minf" => l.min(r),
                    _ => l.max(r),
                };
                let res = match lv {
                    RtValue::F32(_) => RtValue::F32(out as f32),
                    _ => RtValue::F64(out),
                };
                self.bind(m.op_result(op, 0), res);
                Ok(())
            }
            "arith.negf" => {
                ctx.stats.arith_ops += 1;
                let v = self.val(m.op_operand(op, 0))?;
                let res = match v {
                    RtValue::F32(x) => RtValue::F32(-x),
                    RtValue::F64(x) => RtValue::F64(-x),
                    _ => return Err(err("negf on non-float")),
                };
                self.bind(m.op_result(op, 0), res);
                Ok(())
            }
            "arith.cmpi" => {
                ctx.stats.arith_ops += 1;
                let l = self
                    .val(m.op_operand(op, 0))?
                    .as_int()
                    .ok_or_else(|| err("cmpi on non-int"))?;
                let r = self
                    .val(m.op_operand(op, 1))?
                    .as_int()
                    .ok_or_else(|| err("cmpi on non-int"))?;
                let pred = m
                    .attr_by_id(op, ctx.keys.predicate)
                    .and_then(|a| a.as_str())
                    .unwrap_or("eq");
                let out = match pred {
                    "eq" => l == r,
                    "ne" => l != r,
                    "slt" => l < r,
                    "sle" => l <= r,
                    "sgt" => l > r,
                    _ => l >= r,
                };
                self.bind(m.op_result(op, 0), RtValue::Int(out as i64));
                Ok(())
            }
            "arith.cmpf" => {
                ctx.stats.arith_ops += 1;
                let l = self
                    .val(m.op_operand(op, 0))?
                    .as_f64()
                    .ok_or_else(|| err("cmpf on non-float"))?;
                let r = self
                    .val(m.op_operand(op, 1))?
                    .as_f64()
                    .ok_or_else(|| err("cmpf on non-float"))?;
                let pred = m
                    .attr_by_id(op, ctx.keys.predicate)
                    .and_then(|a| a.as_str())
                    .unwrap_or("eq");
                let out = match pred {
                    "eq" => l == r,
                    "ne" => l != r,
                    "slt" => l < r,
                    "sle" => l <= r,
                    "sgt" => l > r,
                    _ => l >= r,
                };
                self.bind(m.op_result(op, 0), RtValue::Int(out as i64));
                Ok(())
            }
            "arith.select" => {
                ctx.stats.arith_ops += 1;
                let c = self
                    .val(m.op_operand(op, 0))?
                    .as_bool()
                    .ok_or_else(|| err("select cond"))?;
                let v = if c {
                    self.val(m.op_operand(op, 1))?
                } else {
                    self.val(m.op_operand(op, 2))?
                };
                self.bind(m.op_result(op, 0), v);
                Ok(())
            }
            "arith.index_cast" | "arith.extsi" | "arith.trunci" => {
                let v = self.val(m.op_operand(op, 0))?;
                self.bind(m.op_result(op, 0), v);
                Ok(())
            }
            "arith.sitofp" => {
                ctx.stats.arith_ops += 1;
                let v = self
                    .val(m.op_operand(op, 0))?
                    .as_int()
                    .ok_or_else(|| err("sitofp"))?;
                let ty = m.value_type(m.op_result(op, 0));
                let res = match ty.kind() {
                    TypeKind::F32 => RtValue::F32(v as f32),
                    _ => RtValue::F64(v as f64),
                };
                self.bind(m.op_result(op, 0), res);
                Ok(())
            }
            "arith.fptosi" => {
                ctx.stats.arith_ops += 1;
                let v = self
                    .val(m.op_operand(op, 0))?
                    .as_f64()
                    .ok_or_else(|| err("fptosi"))?;
                self.bind(m.op_result(op, 0), RtValue::Int(v as i64));
                Ok(())
            }
            "arith.truncf" => {
                let v = self
                    .val(m.op_operand(op, 0))?
                    .as_f64()
                    .ok_or_else(|| err("truncf"))?;
                self.bind(m.op_result(op, 0), RtValue::F32(v as f32));
                Ok(())
            }
            "arith.extf" => {
                let v = self
                    .val(m.op_operand(op, 0))?
                    .as_f64()
                    .ok_or_else(|| err("extf"))?;
                self.bind(m.op_result(op, 0), RtValue::F64(v));
                Ok(())
            }
            _ if name.starts_with("math.") => {
                ctx.stats.arith_ops += 4; // transcendental ops are pricier
                let xv = self.val(m.op_operand(op, 0))?;
                let x = xv.as_f64().ok_or_else(|| err("math on non-float"))?;
                let out = if name == "math.powf" {
                    let y = self
                        .val(m.op_operand(op, 1))?
                        .as_f64()
                        .ok_or_else(|| err("powf"))?;
                    x.powf(y)
                } else {
                    sycl_mlir_dialects::math::eval_unary(name, x)
                        .ok_or_else(|| err(format!("unknown math op {name}")))?
                };
                let res = match xv {
                    RtValue::F32(_) => RtValue::F32(out as f32),
                    _ => RtValue::F64(out),
                };
                self.bind(m.op_result(op, 0), res);
                Ok(())
            }
            "memref.alloca" => {
                let ty = m.value_type(m.op_result(op, 0));
                let (mem, shape, rank) = self.alloc_for(ctx, &ty)?;
                self.bind(
                    m.op_result(op, 0),
                    RtValue::MemRef(MemRefVal {
                        mem,
                        offset: 0,
                        shape,
                        rank,
                        space: Space::Private,
                    }),
                );
                Ok(())
            }
            "sycl.local.alloca" => {
                let mr = if let Some(existing) = ctx.local_allocs.get(&op) {
                    *existing
                } else {
                    let ty = m.value_type(m.op_result(op, 0));
                    let (mem, shape, rank) = self.alloc_for(ctx, &ty)?;
                    let mr = MemRefVal {
                        mem,
                        offset: 0,
                        shape,
                        rank,
                        space: Space::Local,
                    };
                    ctx.local_allocs.insert(op, mr);
                    mr
                };
                self.bind(m.op_result(op, 0), RtValue::MemRef(mr));
                Ok(())
            }
            "memref.load" | "affine.load" => {
                let mr = self
                    .val(m.op_operand(op, 0))?
                    .as_memref()
                    .ok_or_else(|| err("load from non-memref"))?;
                let idx: Vec<i64> = m.op_operands(op)[1..]
                    .iter()
                    .map(|&v| {
                        self.val(v)
                            .and_then(|x| x.as_int().ok_or_else(|| err("non-int index")))
                    })
                    .collect::<Result<_, _>>()?;
                let addr = mr.linearize(&idx);
                self.mem_event(ctx, op, &mr, addr);
                let v = ctx.pool.load(mr.mem, addr)?;
                self.bind(m.op_result(op, 0), v);
                Ok(())
            }
            "memref.store" | "affine.store" => {
                let v = self.val(m.op_operand(op, 0))?;
                let mr = self
                    .val(m.op_operand(op, 1))?
                    .as_memref()
                    .ok_or_else(|| err("store to non-memref"))?;
                let idx: Vec<i64> = m.op_operands(op)[2..]
                    .iter()
                    .map(|&x| {
                        self.val(x)
                            .and_then(|y| y.as_int().ok_or_else(|| err("non-int index")))
                    })
                    .collect::<Result<_, _>>()?;
                let addr = mr.linearize(&idx);
                self.mem_event(ctx, op, &mr, addr);
                ctx.pool.store(mr.mem, addr, v)?;
                Ok(())
            }
            "memref.cast" => {
                let mr = self
                    .val(m.op_operand(op, 0))?
                    .as_memref()
                    .ok_or_else(|| err("cast of non-memref"))?;
                self.bind(m.op_result(op, 0), RtValue::MemRef(mr));
                Ok(())
            }
            "sycl.id.constructor" | "sycl.range.constructor" => {
                ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for (i, &v) in m.op_operands(op).iter().enumerate() {
                    data[i] = self.val(v)?.as_int().ok_or_else(|| err("id component"))?;
                }
                let rank = m.op_operands(op).len() as u32;
                self.bind(m.op_result(op, 0), RtValue::Vec(VecVal { data, rank }));
                Ok(())
            }
            "sycl.nd_range.constructor" => {
                let g = self
                    .val(m.op_operand(op, 0))?
                    .as_vec()
                    .ok_or_else(|| err("nd_range global"))?;
                let l = self
                    .val(m.op_operand(op, 1))?
                    .as_vec()
                    .ok_or_else(|| err("nd_range local"))?;
                self.bind(m.op_result(op, 0), RtValue::NdRange(g, l));
                Ok(())
            }
            "sycl.id.get" | "sycl.range.get" => {
                ctx.stats.arith_ops += 1;
                let v = self
                    .val(m.op_operand(op, 0))?
                    .as_vec()
                    .ok_or_else(|| err("id.get"))?;
                let d = self.dim_operand(m, op)?;
                self.bind(m.op_result(op, 0), RtValue::Int(v.data[d]));
                Ok(())
            }
            "sycl.range.size" => {
                ctx.stats.arith_ops += 1;
                let v = self
                    .val(m.op_operand(op, 0))?
                    .as_vec()
                    .ok_or_else(|| err("range.size"))?;
                let size: i64 = v.data[..v.rank as usize].iter().product();
                self.bind(m.op_result(op, 0), RtValue::Int(size));
                Ok(())
            }
            "sycl.item.get_id" | "sycl.nd_item.get_global_id" => {
                self.bind_item_query(ctx, op, ItemQ::GlobalId)
            }
            "sycl.nd_item.get_local_id" => self.bind_item_query(ctx, op, ItemQ::LocalId),
            "sycl.nd_item.get_group_id" | "sycl.group.get_id" => {
                self.bind_item_query(ctx, op, ItemQ::GroupId)
            }
            "sycl.item.get_range" | "sycl.nd_item.get_global_range" => {
                self.bind_item_query(ctx, op, ItemQ::GlobalRange)
            }
            "sycl.nd_item.get_local_range" | "sycl.group.get_local_range" => {
                self.bind_item_query(ctx, op, ItemQ::LocalRange)
            }
            "sycl.nd_item.get_group_range" => self.bind_item_query(ctx, op, ItemQ::GroupRange),
            "sycl.item.get_linear_id" | "sycl.nd_item.get_global_linear_id" => {
                ctx.stats.arith_ops += 1;
                let id = ctx.nd.global_linear_id(ctx.group, self.linear);
                self.bind(m.op_result(op, 0), RtValue::Int(id));
                Ok(())
            }
            "sycl.nd_item.get_local_linear_id" => {
                ctx.stats.arith_ops += 1;
                self.bind(m.op_result(op, 0), RtValue::Int(self.linear));
                Ok(())
            }
            "sycl.nd_item.get_group" => {
                self.bind(m.op_result(op, 0), RtValue::Item);
                Ok(())
            }
            "sycl.accessor.subscript" => {
                ctx.stats.arith_ops += 1;
                let acc = self
                    .val(m.op_operand(op, 0))?
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let id = self
                    .val(m.op_operand(op, 1))?
                    .as_vec()
                    .ok_or_else(|| err("subscript id"))?;
                let offset = acc.linearize(&id.data[..id.rank as usize]);
                let space = if acc.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                self.bind(
                    m.op_result(op, 0),
                    RtValue::MemRef(MemRefVal {
                        mem: acc.mem,
                        offset,
                        shape: [-1, 1, 1],
                        rank: 1,
                        space,
                    }),
                );
                Ok(())
            }
            "sycl.accessor.get_range" => {
                ctx.stats.arith_ops += 1;
                let acc = self
                    .val(m.op_operand(op, 0))?
                    .as_accessor()
                    .ok_or_else(|| err("get_range"))?;
                let d = self.dim_operand(m, op)?;
                self.bind(m.op_result(op, 0), RtValue::Int(acc.range[d]));
                Ok(())
            }
            "sycl.accessor.base" => {
                ctx.stats.arith_ops += 1;
                let acc = self
                    .val(m.op_operand(op, 0))?
                    .as_accessor()
                    .ok_or_else(|| err("accessor.base"))?;
                let base = ((acc.mem.0 as i64) << 32) | acc.linearize(&[0, 0, 0]);
                self.bind(m.op_result(op, 0), RtValue::Int(base));
                Ok(())
            }
            "llvm.undef" => {
                self.bind(m.op_result(op, 0), RtValue::Int(0));
                Ok(())
            }
            other => Err(err(format!("op `{other}` is not executable on the device"))),
        }
    }

    /// Bind `op`'s result to the answer to `q` along its dimension operand.
    fn bind_item_query(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        op: OpId,
        q: ItemQ,
    ) -> Result<(), SimError> {
        ctx.stats.arith_ops += 1;
        let d = self.dim_operand(ctx.m, op)?;
        let v = ctx.nd.item_query(ctx.group, self.linear, q, d);
        self.bind(ctx.m.op_result(op, 0), RtValue::Int(v));
        Ok(())
    }

    fn dim_operand(&self, m: &Module, op: OpId) -> Result<usize, SimError> {
        let d = self
            .val(m.op_operand(op, 1))?
            .as_int()
            .ok_or_else(|| err("non-constant dimension operand"))?;
        if !(0..3).contains(&d) {
            return Err(err(format!("dimension {d} out of range")));
        }
        Ok(d as usize)
    }

    fn alloc_for(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        ty: &sycl_mlir_ir::Type,
    ) -> Result<(crate::memory::MemId, [i64; 3], u32), SimError> {
        let shape_v = ty
            .memref_shape()
            .ok_or_else(|| err("alloca of non-memref"))?
            .to_vec();
        let elem = ty
            .memref_elem()
            .ok_or_else(|| err("alloca of non-memref"))?;
        let len: i64 = shape_v.iter().product();
        if let Some(meter) = ctx.limits.as_deref_mut() {
            let bytes = crate::memory::Dtype::of(&elem).bytes() as u64 * len.max(0) as u64;
            meter.charge_mem(bytes)?;
        }
        let mem = ctx.pool.alloc_zeroed(&elem, len.max(0) as usize);
        let mut shape = [1_i64; 3];
        for (i, &s) in shape_v.iter().enumerate() {
            shape[i] = s;
        }
        Ok((mem, shape, shape_v.len() as u32))
    }

    fn materialize_dense(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        op: OpId,
        attr: &sycl_mlir_ir::Attribute,
    ) -> Result<MemRefVal, SimError> {
        if let Some(existing) = ctx.const_pool.get(&op) {
            return Ok(*existing);
        }
        let ty = ctx.m.value_type(ctx.m.op_result(op, 0));
        let elem = ty
            .memref_elem()
            .ok_or_else(|| err("dense constant must be memref"))?;
        let data = match (attr, elem.kind()) {
            (sycl_mlir_ir::Attribute::DenseF64(v), TypeKind::F32) => {
                crate::memory::DataVec::F32(v.iter().map(|&x| x as f32).collect())
            }
            (sycl_mlir_ir::Attribute::DenseF64(v), _) => crate::memory::DataVec::F64(v.clone()),
            (sycl_mlir_ir::Attribute::DenseI64(v), TypeKind::Int(w)) if *w <= 32 => {
                crate::memory::DataVec::I32(v.iter().map(|&x| x as i32).collect())
            }
            (sycl_mlir_ir::Attribute::DenseI64(v), _) => crate::memory::DataVec::I64(v.clone()),
            _ => return Err(err("unsupported dense constant")),
        };
        if let Some(meter) = ctx.limits.as_deref_mut() {
            meter.charge_mem((data.len() * data.elem_bytes()) as u64)?;
        }
        let mem = ctx.pool.alloc(data);
        let shape_v = ty.memref_shape().unwrap();
        let mut shape = [1_i64; 3];
        for (i, &s) in shape_v.iter().enumerate() {
            shape[i] = s;
        }
        let mr = MemRefVal {
            mem,
            offset: 0,
            shape,
            rank: shape_v.len() as u32,
            space: Space::Constant,
        };
        ctx.const_pool.insert(op, mr);
        Ok(mr)
    }

    /// Record the cost of a memory access, keyed by `op`.
    fn mem_event(&mut self, ctx: &mut ExecCtx<'_>, op: OpId, mr: &MemRefVal, addr: i64) {
        let subgroup = (self.linear / ctx.cost.subgroup_size as i64) as u32;
        ctx.coalescer.site(op.0, subgroup).event(
            &mut ctx.stats,
            &mut self.visits[op.0 as usize],
            mr,
            addr,
            ctx.pool.data(mr.mem).elem_bytes(),
        );
    }
}

pub(crate) fn enclosing_module(m: &Module, op: OpId) -> OpId {
    let mut cur = op;
    while let Some(p) = m.op_parent_op(cur) {
        if m.op_is(p, "builtin.module") {
            return p;
        }
        cur = p;
    }
    m.top()
}
