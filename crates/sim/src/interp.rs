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
use crate::limits::MAX_STEPS;
use crate::memory::{MemFault, MemoryPool};
use crate::plan::{ItemQ, Ty};
use crate::value::{MemRefVal, RtValue, Space, VecVal};
use std::collections::HashMap;
use sycl_mlir_ir::{Attribute, BlockId, CommonKeys, Module, OpId, TypeKind, ValueId};

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
}

impl LimitKind {
    /// Stable name used in error text.
    pub fn name(self) -> &'static str {
        match self {
            LimitKind::Ops => "op budget",
            LimitKind::Memory => "memory cap",
            LimitKind::Deadline => "deadline",
        }
    }
}

/// A failure the kernel's own arithmetic or control flow causes: each
/// engine stops the work-item with the same fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFault {
    /// `arith.divsi` by zero.
    DivisionByZero,
    /// `arith.remsi` by zero.
    RemainderByZero,
    /// An `scf.for` whose step is zero or negative.
    NonPositiveLoopStep,
    /// A work-item past the runaway-loop step budget.
    StepBudgetExceeded,
}

impl std::fmt::Display for KernelFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelFault::DivisionByZero => "division by zero",
            KernelFault::RemainderByZero => "remainder by zero",
            KernelFault::NonPositiveLoopStep => "non-positive loop step",
            KernelFault::StepBudgetExceeded => "work-item exceeded the step budget (runaway loop?)",
        })
    }
}

impl From<KernelFault> for SimError {
    // Faults are rare: keep them out of the executors' loops.
    #[cold]
    fn from(fault: KernelFault) -> SimError {
        SimError::Kernel { fault, at: None }
    }
}

/// A launch whose arguments do not fit its kernel's parameters
/// ([`crate::plan::signature`]): both engines refuse it before any of its
/// work-groups runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgFault {
    /// Not one argument per parameter, the item parameter aside.
    Count {
        /// Parameters that take an argument.
        expected: usize,
        /// Arguments given.
        given: usize,
    },
    /// An argument of another class than its parameter's.
    Class {
        /// The argument's position.
        index: usize,
        /// The parameter's class.
        expected: Ty,
        /// The argument's (`None`: the unit value).
        given: Option<Ty>,
    },
}

impl std::fmt::Display for ArgFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgFault::Count { expected, given } => {
                write!(f, "kernel expects {expected} arguments, got {given}")
            }
            ArgFault::Class {
                index,
                expected,
                given,
            } => {
                let takes = expected.name();
                let got = given.map_or("a value of no class".into(), Ty::name);
                write!(f, "argument {index}: the kernel takes {takes}, given {got}")
            }
        }
    }
}

impl From<ArgFault> for SimError {
    fn from(fault: ArgFault) -> SimError {
        SimError::Argument { fault, at: None }
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
    /// A per-launch execution limit tripped. Structured — not a panic — so callers can match on
    /// the kind and position, and the device stays usable afterwards.
    LimitExceeded {
        /// Which limit tripped.
        kind: LimitKind,
        /// Index of the launch within its graph (0 for single launches).
        launch: usize,
        /// Linear index of the tripping work-group within the launch.
        group: usize,
    },
    /// A fault of the kernel's own arithmetic or control flow.
    Kernel {
        /// Which fault.
        fault: KernelFault,
        /// The position, as in [`SimError::Message`].
        at: Option<(usize, usize)>,
    },
    /// A faulting device-memory access (out of bounds, type-mismatched
    /// store, unknown buffer), as the access path reported it.
    Fault {
        /// What went wrong, and on which buffer.
        fault: MemFault,
        /// The position, as in [`SimError::Message`].
        at: Option<(usize, usize)>,
    },
    /// Launch arguments that do not fit the kernel's parameters.
    Argument {
        /// Which argument, and how it does not fit.
        fault: ArgFault,
        /// The position, as in [`SimError::Message`].
        at: Option<(usize, usize)>,
    },
    /// Some work-items of a work-group wait at a barrier while the others
    /// have finished: the deadlock §V-C's uniformity analysis exists to
    /// prevent.
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
            | SimError::Kernel { at, .. }
            | SimError::Fault { at, .. }
            | SimError::Argument { at, .. }
            | SimError::DivergentBarrier { at, .. } => *at = Some((launch, group)),
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
            SimError::Kernel { fault, at } => stamped(fault.to_string(), at),
            SimError::Fault { fault, at } => stamped(fault.to_string(), at),
            SimError::Argument { fault, at } => stamped(fault.to_string(), at),
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

    /// The limit kind, if this is a limit error.
    pub fn limit_kind(&self) -> Option<LimitKind> {
        match self {
            SimError::LimitExceeded { kind, .. } => Some(*kind),
            _ => None,
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
            meter.settle();
        }
    }
}

enum Frame {
    Block {
        block: BlockId,
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

impl WorkItemState {
    /// Prepare execution of `kernel`, as the work-item at local linear id
    /// `linear`, with `args` — checked against the kernel's parameters
    /// (`MemoryPool::check_args`) — bound to all parameters except the
    /// trailing item, which gets the item.
    pub fn new(m: &Module, kernel: OpId, args: &[RtValue], linear: i64) -> WorkItemState {
        let entry = m.op_region_block(kernel, 0);
        let mut s = WorkItemState {
            env: vec![RtValue::Unit; m.value_capacity()],
            bound: vec![false; m.value_capacity()],
            frames: Vec::new(),
            visits: vec![0; m.op_capacity()],
            linear,
            finished: false,
            steps: 0,
        };
        // The launch checked the arguments against the parameters: a
        // parameter left over is the item.
        let params = m.block_args(entry);
        if let Some(&item) = params.get(args.len()) {
            s.bind(item, RtValue::Item);
        }
        s.enter(entry, params, args);
        s
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

    /// Operand `i` of `op` as `get` reads it; `what` is the error when it
    /// holds a value of another class.
    fn operand<T>(
        &self,
        m: &Module,
        op: OpId,
        i: usize,
        get: fn(RtValue) -> Option<T>,
        what: &str,
    ) -> Result<T, SimError> {
        get(self.val(m.op_operand(op, i))?).ok_or_else(|| err(what))
    }

    /// The index operands of `op` from operand `from` on.
    fn indices(&self, m: &Module, op: OpId, from: usize) -> Result<Vec<i64>, SimError> {
        let index = |&v: &ValueId| self.val(v)?.as_int().ok_or_else(|| err("non-int index"));
        m.op_operands(op)[from..].iter().map(index).collect()
    }

    fn vals(&self, m: &Module, op: OpId) -> Result<Vec<RtValue>, SimError> {
        m.op_operands(op).iter().map(|&v| self.val(v)).collect()
    }

    /// Bind `params` to `vals` and run `block` next.
    fn enter(&mut self, block: BlockId, params: &[ValueId], vals: &[RtValue]) {
        for (&p, &v) in params.iter().zip(vals) {
            self.bind(p, v);
        }
        self.frames.push(Frame::Block { block, idx: 0 });
    }

    /// Run the body of `loop_op` next, for induction value `iv` and
    /// carried values `carried`.
    fn enter_loop(&mut self, m: &Module, loop_op: OpId, iv: i64, carried: &[RtValue]) {
        let body = m.op_region_block(loop_op, 0);
        let (&iv_arg, carries) = m
            .block_args(body)
            .split_first()
            .expect("an induction variable");
        self.bind(iv_arg, RtValue::Int(iv));
        self.enter(body, carries, carried);
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
                return Err(KernelFault::StepBudgetExceeded.into());
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
                    match self.frames.pop() {
                        Some(Frame::If { op: if_op }) => self.assign_results(ctx.m, if_op, &vals),
                        Some(Frame::Loop { op, iv, ub, step }) => {
                            // Past `i64::MAX` is past `ub`: overflow ends the loop.
                            match iv.checked_add(step).filter(|&n| n < ub) {
                                Some(iv) => {
                                    self.frames.push(Frame::Loop { op, iv, ub, step });
                                    self.enter_loop(ctx.m, op, iv, &vals);
                                }
                                None => self.assign_results(ctx.m, op, &vals),
                            }
                        }
                        _ => return Err(err("yield outside of an if/loop")),
                    }
                }
                "scf.if" => {
                    let cond =
                        self.operand(ctx.m, op, 0, RtValue::as_bool, "non-boolean if condition")?;
                    ctx.stats.arith_ops += 1;
                    let region = if cond { 0 } else { 1 };
                    let blk = ctx.m.op_region_block(op, region);
                    self.frames.push(Frame::If { op });
                    self.frames.push(Frame::Block { block: blk, idx: 0 });
                }
                "scf.for" | "affine.for" => {
                    let lb = self.operand(ctx.m, op, 0, RtValue::as_int, "bad lb")?;
                    let ub = self.operand(ctx.m, op, 1, RtValue::as_int, "bad ub")?;
                    let step = self.operand(ctx.m, op, 2, RtValue::as_int, "bad step")?;
                    if step <= 0 {
                        return Err(KernelFault::NonPositiveLoopStep.into());
                    }
                    ctx.stats.arith_ops += 1;
                    let inits: Vec<RtValue> = ctx.m.op_operands(op)[3..]
                        .iter()
                        .map(|&v| self.val(v))
                        .collect::<Result<_, _>>()?;
                    if lb >= ub {
                        self.assign_results(ctx.m, op, &inits);
                    } else {
                        self.frames.push(Frame::Loop {
                            op,
                            iv: lb,
                            ub,
                            step,
                        });
                        self.enter_loop(ctx.m, op, lb, &inits);
                    }
                }
                "func.call" => {
                    let callee = sycl_mlir_dialects::func::callee(ctx.m, op)
                        .ok_or_else(|| err("unresolved call"))?;
                    let args = self.vals(ctx.m, op)?;
                    self.frames.push(Frame::Call { op });
                    let entry = ctx.m.op_region_block(callee, 0);
                    self.enter(entry, ctx.m.block_args(entry), &args);
                }
                "sycl.group.barrier" => {
                    ctx.stats.barriers += 1;
                    return Ok(Stop::Barrier);
                }
                _ => self.exec_simple(ctx, op, &name)?,
            }
        }
    }

    /// Execute a non-control-flow op: bind its result, if it has one.
    fn exec_simple(&mut self, ctx: &mut ExecCtx<'_>, op: OpId, name: &str) -> Result<(), SimError> {
        let m = ctx.m;
        let result = match name {
            "arith.constant" => {
                let attr = m
                    .attr_by_id(op, ctx.keys.value)
                    .ok_or_else(|| err("constant without value"))?
                    .clone();
                match (&attr, m.value_type(m.op_result(op, 0)).kind()) {
                    (Attribute::Int(x), _) => RtValue::Int(*x),
                    (Attribute::Bool(b), _) => RtValue::Int(*b as i64),
                    (Attribute::Float(f), TypeKind::F32) => RtValue::F32(*f as f32),
                    (Attribute::Float(f), _) => RtValue::F64(*f),
                    (Attribute::DenseF64(_) | Attribute::DenseI64(_), TypeKind::MemRef { .. }) => {
                        RtValue::MemRef(self.materialize_dense(ctx, op, &attr)?)
                    }
                    _ => return Err(err("unsupported constant kind")),
                }
            }
            "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
            | "arith.andi" | "arith.ori" | "arith.xori" | "arith.minsi" | "arith.maxsi" => {
                ctx.stats.arith_ops += 1;
                let l = self.operand(m, op, 0, RtValue::as_int, "int op on non-int")?;
                let r = self.operand(m, op, 1, RtValue::as_int, "int op on non-int")?;
                let out = match name {
                    "arith.addi" => l.wrapping_add(r),
                    "arith.subi" => l.wrapping_sub(r),
                    "arith.muli" => l.wrapping_mul(r),
                    "arith.divsi" => {
                        if r == 0 {
                            return Err(KernelFault::DivisionByZero.into());
                        }
                        l.wrapping_div(r)
                    }
                    "arith.remsi" => {
                        if r == 0 {
                            return Err(KernelFault::RemainderByZero.into());
                        }
                        l.wrapping_rem(r)
                    }
                    "arith.andi" => l & r,
                    "arith.ori" => l | r,
                    "arith.xori" => l ^ r,
                    "arith.minsi" => l.min(r),
                    _ => l.max(r),
                };
                RtValue::Int(out)
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
                match lv {
                    RtValue::F32(_) => RtValue::F32(out as f32),
                    _ => RtValue::F64(out),
                }
            }
            "arith.negf" => {
                ctx.stats.arith_ops += 1;
                match self.val(m.op_operand(op, 0))? {
                    RtValue::F32(x) => RtValue::F32(-x),
                    RtValue::F64(x) => RtValue::F64(-x),
                    _ => return Err(err("negf on non-float")),
                }
            }
            "arith.cmpi" | "arith.cmpf" => {
                ctx.stats.arith_ops += 1;
                let pred = m
                    .attr_by_id(op, ctx.keys.predicate)
                    .and_then(|a| a.as_str());
                let out = if name == "arith.cmpi" {
                    let what = "cmpi on non-int";
                    let l = self.operand(m, op, 0, RtValue::as_int, what)?;
                    compare(pred, l, self.operand(m, op, 1, RtValue::as_int, what)?)
                } else {
                    let what = "cmpf on non-float";
                    let l = self.operand(m, op, 0, RtValue::as_f64, what)?;
                    compare(pred, l, self.operand(m, op, 1, RtValue::as_f64, what)?)
                };
                RtValue::Int(out as i64)
            }
            "arith.select" => {
                ctx.stats.arith_ops += 1;
                let c = self.operand(m, op, 0, RtValue::as_bool, "select cond")?;
                if c {
                    self.val(m.op_operand(op, 1))?
                } else {
                    self.val(m.op_operand(op, 2))?
                }
            }
            "arith.index_cast" | "arith.extsi" | "arith.trunci" => self.val(m.op_operand(op, 0))?,
            "arith.sitofp" => {
                ctx.stats.arith_ops += 1;
                let v = self.operand(m, op, 0, RtValue::as_int, "sitofp")?;
                match m.value_type(m.op_result(op, 0)).kind() {
                    TypeKind::F32 => RtValue::F32(v as f32),
                    _ => RtValue::F64(v as f64),
                }
            }
            "arith.fptosi" => {
                ctx.stats.arith_ops += 1;
                RtValue::Int(self.operand(m, op, 0, RtValue::as_f64, "fptosi")? as i64)
            }
            "arith.truncf" => {
                RtValue::F32(self.operand(m, op, 0, RtValue::as_f64, "truncf")? as f32)
            }
            "arith.extf" => RtValue::F64(self.operand(m, op, 0, RtValue::as_f64, "extf")?),
            _ if name.starts_with("math.") => {
                ctx.stats.arith_ops += 4; // transcendental ops are pricier
                let xv = self.val(m.op_operand(op, 0))?;
                let x = xv.as_f64().ok_or_else(|| err("math on non-float"))?;
                let out = if name == "math.powf" {
                    let y = self.operand(m, op, 1, RtValue::as_f64, "powf")?;
                    x.powf(y)
                } else {
                    sycl_mlir_dialects::math::eval_unary(name, x)
                        .ok_or_else(|| err(format!("unknown math op {name}")))?
                };
                match xv {
                    RtValue::F32(_) => RtValue::F32(out as f32),
                    _ => RtValue::F64(out),
                }
            }
            "memref.alloca" => RtValue::MemRef(self.alloc_for(ctx, op, Space::Private)?),
            "sycl.local.alloca" => RtValue::MemRef(match ctx.local_allocs.get(&op) {
                Some(&existing) => existing,
                None => {
                    let mr = self.alloc_for(ctx, op, Space::Local)?;
                    *ctx.local_allocs.entry(op).or_insert(mr)
                }
            }),
            "memref.load" | "affine.load" => {
                let mr = self.operand(m, op, 0, RtValue::as_memref, "load from non-memref")?;
                let idx = self.indices(m, op, 1)?;
                let addr = mr.linearize(&idx);
                self.mem_event(ctx, op, &mr, addr);
                ctx.pool.load(mr.mem, addr)?
            }
            "memref.store" | "affine.store" => {
                let v = self.val(m.op_operand(op, 0))?;
                let mr = self.operand(m, op, 1, RtValue::as_memref, "store to non-memref")?;
                let idx = self.indices(m, op, 2)?;
                let addr = mr.linearize(&idx);
                self.mem_event(ctx, op, &mr, addr);
                ctx.pool.store(mr.mem, addr, v)?;
                return Ok(());
            }
            "memref.cast" => {
                RtValue::MemRef(self.operand(m, op, 0, RtValue::as_memref, "cast of non-memref")?)
            }
            "sycl.id.constructor" | "sycl.range.constructor" => {
                ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for (i, &v) in m.op_operands(op).iter().enumerate() {
                    data[i] = self.val(v)?.as_int().ok_or_else(|| err("id component"))?;
                }
                let rank = m.op_operands(op).len() as u32;
                RtValue::Vec(VecVal { data, rank })
            }
            "sycl.nd_range.constructor" => {
                let g = self.operand(m, op, 0, RtValue::as_vec, "nd_range global")?;
                let l = self.operand(m, op, 1, RtValue::as_vec, "nd_range local")?;
                RtValue::NdRange(g, l)
            }
            "sycl.id.get" | "sycl.range.get" => {
                ctx.stats.arith_ops += 1;
                let v = self.operand(m, op, 0, RtValue::as_vec, "id.get")?;
                let d = self.dim_operand(m, op)?;
                RtValue::Int(v.data[d])
            }
            "sycl.range.size" => {
                ctx.stats.arith_ops += 1;
                let v = self.operand(m, op, 0, RtValue::as_vec, "range.size")?;
                RtValue::Int(v.data[..v.rank as usize].iter().product())
            }
            "sycl.item.get_id" | "sycl.nd_item.get_global_id" => {
                self.item_query(ctx, op, ItemQ::GlobalId)?
            }
            "sycl.nd_item.get_local_id" => self.item_query(ctx, op, ItemQ::LocalId)?,
            "sycl.nd_item.get_group_id" | "sycl.group.get_id" => {
                self.item_query(ctx, op, ItemQ::GroupId)?
            }
            "sycl.item.get_range" | "sycl.nd_item.get_global_range" => {
                self.item_query(ctx, op, ItemQ::GlobalRange)?
            }
            "sycl.nd_item.get_local_range" | "sycl.group.get_local_range" => {
                self.item_query(ctx, op, ItemQ::LocalRange)?
            }
            "sycl.nd_item.get_group_range" => self.item_query(ctx, op, ItemQ::GroupRange)?,
            "sycl.item.get_linear_id" | "sycl.nd_item.get_global_linear_id" => {
                ctx.stats.arith_ops += 1;
                RtValue::Int(ctx.nd.global_linear_id(ctx.group, self.linear))
            }
            "sycl.nd_item.get_local_linear_id" => {
                ctx.stats.arith_ops += 1;
                RtValue::Int(self.linear)
            }
            "sycl.nd_item.get_group" => RtValue::Item,
            "sycl.accessor.subscript" => {
                ctx.stats.arith_ops += 1;
                let acc =
                    self.operand(m, op, 0, RtValue::as_accessor, "subscript of non-accessor")?;
                let id = self.operand(m, op, 1, RtValue::as_vec, "subscript id")?;
                let offset = acc.linearize(&id.data[..id.rank as usize]);
                let space = if acc.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                RtValue::MemRef(MemRefVal {
                    mem: acc.mem,
                    offset,
                    shape: [-1, 1, 1],
                    rank: 1,
                    space,
                })
            }
            "sycl.accessor.get_range" => {
                ctx.stats.arith_ops += 1;
                let acc = self.operand(m, op, 0, RtValue::as_accessor, "get_range")?;
                let d = self.dim_operand(m, op)?;
                RtValue::Int(acc.range[d])
            }
            "sycl.accessor.base" => {
                ctx.stats.arith_ops += 1;
                let acc = self.operand(m, op, 0, RtValue::as_accessor, "accessor.base")?;
                RtValue::Int(((acc.mem.0 as i64) << 32) | acc.linearize(&[0, 0, 0]))
            }
            "llvm.undef" => match m.value_type(m.op_result(op, 0)).kind() {
                TypeKind::F32 => RtValue::F32(0.0),
                TypeKind::F64 => RtValue::F64(0.0),
                _ => RtValue::Int(0),
            },
            other => return Err(err(format!("op `{other}` is not executable on the device"))),
        };
        self.bind(m.op_result(op, 0), result);
        Ok(())
    }

    /// The answer to `q` along `op`'s dimension operand.
    fn item_query(&self, ctx: &mut ExecCtx<'_>, op: OpId, q: ItemQ) -> Result<RtValue, SimError> {
        ctx.stats.arith_ops += 1;
        let d = self.dim_operand(ctx.m, op)?;
        Ok(RtValue::Int(ctx.nd.item_query(
            ctx.group,
            self.linear,
            q,
            d,
        )))
    }

    fn dim_operand(&self, m: &Module, op: OpId) -> Result<usize, SimError> {
        let d = self.operand(m, op, 1, RtValue::as_int, "non-constant dimension operand")?;
        if !(0..3).contains(&d) {
            return Err(err(format!("dimension {d} out of range")));
        }
        Ok(d as usize)
    }

    /// A fresh zeroed allocation of the memref type of `op`'s result, in
    /// `space`.
    fn alloc_for(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        op: OpId,
        space: Space,
    ) -> Result<MemRefVal, SimError> {
        let ty = ctx.m.value_type(ctx.m.op_result(op, 0));
        let shape_v = ty
            .memref_shape()
            .ok_or_else(|| err("alloca of non-memref"))?
            .to_vec();
        let elem = ty
            .memref_elem()
            .ok_or_else(|| err("alloca of non-memref"))?;
        let len: i64 = shape_v.iter().product();
        if let Some(meter) = ctx.limits.as_deref_mut() {
            let bytes = crate::memory::Dtype::of(elem).bytes() as u64 * len.max(0) as u64;
            meter.charge_mem(bytes)?;
        }
        let mem = ctx
            .pool
            .alloc_zeroed(crate::memory::Dtype::of(elem), len.max(0) as usize);
        let mut shape = [1_i64; 3];
        shape[..shape_v.len()].copy_from_slice(&shape_v);
        let rank = shape_v.len() as u32;
        Ok(MemRefVal {
            mem,
            offset: 0,
            shape,
            rank,
            space,
        })
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
        let data = crate::memory::DataVec::of_dense(attr, elem)
            .ok_or_else(|| err("unsupported dense constant"))?;
        if let Some(meter) = ctx.limits.as_deref_mut() {
            meter.charge_mem((data.len() * data.elem_bytes()) as u64)?;
        }
        let mem = ctx.pool.alloc(data);
        let shape_v = ty.memref_shape().unwrap();
        let mut shape = [1_i64; 3];
        shape[..shape_v.len()].copy_from_slice(shape_v);
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
            ctx.pool.buf(mr.mem).dtype().bytes(),
        );
    }
}

/// Whether `l pred r` holds, `pred` as `arith.cmpi` / `arith.cmpf`
/// spell it: a missing predicate is `eq`, an unknown one `sge`.
fn compare<T: PartialOrd>(pred: Option<&str>, l: T, r: T) -> bool {
    match pred.unwrap_or("eq") {
        "eq" => l == r,
        "ne" => l != r,
        "slt" => l < r,
        "sle" => l <= r,
        "sgt" => l > r,
        _ => l >= r,
    }
}
