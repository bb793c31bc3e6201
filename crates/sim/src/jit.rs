//! The closure-JIT execution tier: a [`KernelPlan`] compiled to a
//! direct-threaded chain of Rust closures.
//!
//! The third (and fastest) execution tier. Where the plan engine decodes
//! once per launch and then *interprets* — a match over the opcode on
//! every executed instruction, re-reading operand fields from the
//! [`Instr`] each time — this tier runs a one-time **compile** step over
//! the decoded (and fused) bytecode that specializes one boxed closure
//! per instruction: the opcode match, operand registers, pre-parsed
//! predicates, dimension constants and narrowing flags are all captured
//! (and monomorphized away) at compile time, leaving a single indirect
//! call per executed instruction. No code generation backend, no
//! `unsafe` — the same pre-resolution idea as rhai's pre-hashed call
//! paths, applied to the plan's register machine.
//!
//! **Bit-identity contract.** The compiled chain executes *exactly* the
//! plan interpreter's semantics, arm for arm: statistics bumps happen in
//! the same order relative to operand checks, error strings are
//! byte-identical, memory/coalescing events fire with the same site and
//! instance numbering, and execution limits are charged per instruction
//! with the same `Instr::op_weight` table (pre-flattened into a
//! per-function weight array) — so op budgets, deadlines and injected
//! faults trip with the same [`LimitKind`](crate::interp::LimitKind) at
//! the same `(launch, group)` position as both other engines. The
//! differential, fuzz and stress suites hold all three tiers
//! bit-identical over the whole benchsuite.
//!
//! **Tier selection** lives in [`crate::device`]: under `--jit=on`
//! (`SYCL_MLIR_SIM_JIT`, the default) the plan cache compiles the closure
//! chain when it caches a plan; `off` stays on the bytecode loop. The
//! compiled [`JitKernel`] is cached next to its plan and invalidated by
//! the same module mutation epoch.

use crate::device::{cooperative_rounds, cooperative_rounds_uniform, items_of_group, NdRangeSpec};
use crate::interp::{SimError, Stop};
use crate::plan::{
    err, materialize_dense, DimSrc, FloatBin, Instr, IntBin, ItemQ, KernelPlan, MathOp, PlanCtx,
    Reg, MAX_STEPS,
};
use crate::pool::PlanExecCtx;
use crate::value::{MemRefVal, NdItemVal, RtValue, Space, VecVal};

// ----------------------------------------------------------------------
// Compiled form
// ----------------------------------------------------------------------

/// What the executed closure tells the driver loop to do next.
enum Ctl {
    /// Fall through to the next instruction.
    Next,
    /// Jump to a pc within the current function.
    Jump(u32),
    /// Suspend at a `sycl.group.barrier`.
    Barrier,
    /// Push a frame for the given plan function (the closure has already
    /// appended and seeded the callee's register window).
    Call(u32),
    /// Pop the current frame; `true` when at most four values were
    /// returned (the plan interpreter's fixed-array fast path).
    Ret(bool),
}

/// One compiled instruction: all operands captured, one indirect call.
type JitOp = Box<dyn Fn(&mut Lane<'_, '_, '_>) -> Result<Ctl, SimError> + Send + Sync>;

#[inline]
fn boxed<F>(f: F) -> JitOp
where
    F: Fn(&mut Lane<'_, '_, '_>) -> Result<Ctl, SimError> + Send + Sync + 'static,
{
    Box::new(f)
}

/// One plan function compiled to closures, 1:1 with its bytecode (jump
/// targets, profile indices and per-pc limit weights stay valid).
struct JitFunc {
    /// Compiled instructions, same indexing as [`FuncPlan::code`].
    ///
    /// [`FuncPlan::code`]: crate::plan::FuncPlan::code
    ops: Box<[JitOp]>,
    /// Pre-flattened `Instr::op_weight` per pc (the limited path reads
    /// an array instead of matching on the instruction).
    weights: Box<[u64]>,
    /// Register-window size of one frame of this function.
    reg_count: u32,
}

/// A [`KernelPlan`] compiled to per-instruction closures — the
/// closure-JIT tier's executable form. Immutable and shared exactly like
/// the plan it mirrors.
pub struct JitKernel {
    funcs: Vec<JitFunc>,
}

impl std::fmt::Debug for JitKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JitKernel")
            .field("funcs", &self.funcs.len())
            .finish()
    }
}

// Compiled kernels are shared across worker threads exactly like plans.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<JitKernel>();
};

// ----------------------------------------------------------------------
// Execution state
// ----------------------------------------------------------------------

/// The mutable state a compiled closure may touch, split off the driver
/// loop's own fields (frames, step counter) so both can borrow at once.
struct Lane<'l, 'a, 'p> {
    /// All frames' registers, contiguous (see [`PlanWorkItem::regs`]).
    ///
    /// [`PlanWorkItem::regs`]: crate::plan::PlanWorkItem
    regs: &'l mut Vec<RtValue>,
    /// Register base of the current frame.
    base: usize,
    /// Per-site visit counters feeding the coalescing tracker.
    visits: &'l mut [u32],
    /// The work-item's position bundle.
    item: &'l NdItemVal,
    /// Return-value staging buffer (padded to 4 on the small path so the
    /// caller-side copy panics exactly like the interpreter's `[RtValue;
    /// 4]` on an arity overflow).
    ret: &'l mut Vec<RtValue>,
    /// Worker memory/stats context.
    ctx: &'l mut PlanExecCtx<'a, 'p>,
    /// Worker plan state (dense cache, local allocas, profile, limits).
    pctx: &'l mut PlanCtx,
    /// The source plan (dense constants, call metadata).
    plan: &'l KernelPlan,
}

impl Lane<'_, '_, '_> {
    #[inline(always)]
    fn reg(&self, r: Reg) -> RtValue {
        self.regs[self.base + r as usize]
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, v: RtValue) {
        self.regs[self.base + r as usize] = v;
    }

    #[inline(always)]
    fn int(&self, r: Reg, what: &'static str) -> Result<i64, SimError> {
        self.reg(r).as_int().ok_or_else(|| err(what))
    }

    #[inline(always)]
    fn flt(&self, r: Reg, what: &'static str) -> Result<f64, SimError> {
        self.reg(r).as_f64().ok_or_else(|| err(what))
    }

    /// Resolve a dimension operand (same errors as the interpreter).
    #[inline]
    fn dim(&self, dim: DimSrc) -> Result<usize, SimError> {
        match dim {
            DimSrc::Const(d) => Ok(d as usize),
            DimSrc::Reg(r) => {
                let d = self
                    .reg(r)
                    .as_int()
                    .ok_or_else(|| err("non-constant dimension operand"))?;
                if !(0..3).contains(&d) {
                    return Err(err(format!("dimension {d} out of range")));
                }
                Ok(d as usize)
            }
        }
    }

    /// Record the cost of a memory access — an exact replica of the plan
    /// interpreter's accounting (same coalescing model, same site and
    /// instance numbering).
    #[inline]
    fn mem_event(&mut self, site: u32, mr: &MemRefVal, addr: i64) -> Result<(), SimError> {
        match mr.space {
            Space::Private => self.ctx.stats.private_accesses += 1,
            Space::Constant => self.ctx.stats.constant_accesses += 1,
            Space::Local => self.ctx.stats.local_accesses += 1,
            Space::Global => {
                self.ctx.stats.global_accesses += 1;
                let instance = {
                    let slot = &mut self.visits[site as usize];
                    *slot += 1;
                    *slot
                };
                let subgroup =
                    (self.item.local_linear_id() / self.ctx.cost.subgroup_size as i64) as u32;
                let bytes = self.ctx.pool.elem_bytes(mr.mem) as i64;
                let segment = ((mr.mem.0 as u64) << 40)
                    | ((addr * bytes) / self.ctx.cost.transaction_bytes as i64) as u64;
                if self.ctx.wg.record((site, instance, subgroup), segment) {
                    self.ctx.stats.global_transactions += 1;
                }
            }
        }
        Ok(())
    }

    /// The shared load/store addressing prologue: memref check, index
    /// conversion, linearization and the memory event.
    #[inline]
    fn load_addr(
        &mut self,
        mem: Reg,
        idx: &[Reg; 3],
        rank: u8,
        site: u32,
        what: &'static str,
    ) -> Result<(MemRefVal, i64), SimError> {
        let mr = self.reg(mem).as_memref().ok_or_else(|| err(what))?;
        let mut indices = [0_i64; 3];
        for d in 0..rank as usize {
            indices[d] = self.int(idx[d], "non-int index")?;
        }
        let addr = mr.linearize(&indices[..rank as usize]);
        self.mem_event(site, &mr, addr)?;
        Ok((mr, addr))
    }

    /// Pool load with per-site bounds-check elision: sites the verifier
    /// proved in-bounds for this launch take the unchecked path, all
    /// others keep the checked path and its exact panic text (mirrors
    /// the plan interpreter's `pool_load!`).
    #[inline(always)]
    fn pool_load(&mut self, site: u32, mem: crate::memory::MemId, addr: i64) -> RtValue {
        if self.pctx.site_proven(site) {
            self.ctx.pool.load_proven(mem, addr)
        } else {
            self.ctx.pool.load(mem, addr)
        }
    }

    /// Pool store with per-site bounds-check elision (see
    /// [`Lane::pool_load`]).
    #[inline(always)]
    fn pool_store(&mut self, site: u32, mem: crate::memory::MemId, addr: i64, v: RtValue) {
        if self.pctx.site_proven(site) {
            self.ctx.pool.store_proven(mem, addr, v);
        } else {
            self.ctx.pool.store(mem, addr, v);
        }
    }
}

/// One frame of a [`JitItem`]'s call stack.
struct JitFrame {
    func: u32,
    pc: u32,
    /// Base of this frame's registers in the flat register file.
    base: u32,
}

/// One work-item's resumable execution state over a [`JitKernel`] —
/// the closure tier's counterpart of [`PlanWorkItem`], reusable across
/// work-items via [`JitItem::reset`] so per-item allocations amortize to
/// zero within a worker.
///
/// [`PlanWorkItem`]: crate::plan::PlanWorkItem
struct JitItem {
    regs: Vec<RtValue>,
    frames: Vec<JitFrame>,
    visits: Vec<u32>,
    ret: Vec<RtValue>,
    item: NdItemVal,
    finished: bool,
    steps: u64,
}

impl JitItem {
    /// A placeholder slot, bound to a real work-item by [`JitItem::reset`].
    fn empty() -> JitItem {
        JitItem {
            regs: Vec::new(),
            frames: Vec::new(),
            visits: Vec::new(),
            ret: Vec::new(),
            item: NdItemVal {
                global_id: [0; 3],
                local_id: [0; 3],
                group_id: [0; 3],
                global_range: [1; 3],
                local_range: [1; 3],
                rank: 1,
            },
            finished: false,
            steps: 0,
        }
    }

    /// Rebind this slot to a fresh work-item: identical argument binding
    /// (and arity error) to [`PlanWorkItem::new`], with every register
    /// reset to `Unit` so no stale value from the previous item survives.
    ///
    /// [`PlanWorkItem::new`]: crate::plan::PlanWorkItem::new
    fn reset(
        &mut self,
        plan: &KernelPlan,
        args: &[RtValue],
        item: NdItemVal,
    ) -> Result<(), SimError> {
        let kernel = &plan.funcs[0];
        self.regs.clear();
        self.regs.resize(kernel.reg_count as usize, RtValue::Unit);
        self.frames.clear();
        self.frames.push(JitFrame {
            func: 0,
            pc: 0,
            base: 0,
        });
        self.visits.clear();
        self.visits.resize(plan.mem_sites as usize, 0);
        self.ret.clear();
        self.item = item;
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
        for (&p, &a) in value_params.iter().zip(args) {
            self.regs[p as usize] = a;
        }
        if kernel.has_item_param {
            self.regs[*params.last().unwrap() as usize] = RtValue::Item(item);
        }
        Ok(())
    }

    /// Run until the next barrier or completion. Monomorphized over the
    /// profiling and limit-metering switches exactly like the plan
    /// interpreter, so the default run carries no per-instruction branch.
    fn run(
        &mut self,
        jit: &JitKernel,
        plan: &KernelPlan,
        ctx: &mut PlanExecCtx<'_, '_>,
        pctx: &mut PlanCtx,
    ) -> Result<Stop, SimError> {
        match (pctx.profile.is_some(), pctx.limits.is_some()) {
            (false, false) => self.run_impl::<false, false>(jit, plan, ctx, pctx),
            (false, true) => self.run_impl::<false, true>(jit, plan, ctx, pctx),
            (true, false) => self.run_impl::<true, false>(jit, plan, ctx, pctx),
            (true, true) => self.run_impl::<true, true>(jit, plan, ctx, pctx),
        }
    }

    fn run_impl<const PROFILE: bool, const LIMITED: bool>(
        &mut self,
        jit: &JitKernel,
        plan: &KernelPlan,
        ctx: &mut PlanExecCtx<'_, '_>,
        pctx: &mut PlanCtx,
    ) -> Result<Stop, SimError> {
        if self.finished {
            return Ok(Stop::Finished);
        }
        // Local copies of the hot frame fields; flushed on calls/returns.
        let mut frame = self.frames.len() - 1;
        let mut func = self.frames[frame].func as usize;
        let mut jf = &jit.funcs[func];
        let mut pc = self.frames[frame].pc as usize;
        let mut lane = Lane {
            base: self.frames[frame].base as usize,
            regs: &mut self.regs,
            visits: &mut self.visits,
            item: &self.item,
            ret: &mut self.ret,
            ctx,
            pctx,
            plan,
        };
        loop {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return Err(err("work-item exceeded the step budget (runaway loop?)"));
            }
            if PROFILE {
                let pb = lane.pctx.profile.as_mut().expect("profiled PlanCtx");
                pb.counts[(pb.starts[func] + pc as u32) as usize] += 1;
            }
            if LIMITED {
                let meter = lane.pctx.limits.as_deref_mut().expect("limited PlanCtx");
                meter.charge(jf.weights[pc])?;
            }
            let op = &jf.ops[pc];
            pc += 1;
            match op(&mut lane)? {
                Ctl::Next => {}
                Ctl::Jump(t) => pc = t as usize,
                Ctl::Barrier => {
                    self.frames[frame].pc = pc as u32;
                    return Ok(Stop::Barrier);
                }
                Ctl::Call(callee) => {
                    // The closure appended and seeded the callee's window.
                    let rc = jit.funcs[callee as usize].reg_count as usize;
                    let new_base = lane.regs.len() - rc;
                    // Flush the caller frame (pc already past the call).
                    self.frames[frame].pc = pc as u32;
                    self.frames.push(JitFrame {
                        func: callee,
                        pc: 0,
                        base: new_base as u32,
                    });
                    frame += 1;
                    func = callee as usize;
                    jf = &jit.funcs[func];
                    lane.base = new_base;
                    pc = 0;
                }
                Ctl::Ret(small) => {
                    if frame == 0 {
                        self.finished = true;
                        return Ok(Stop::Finished);
                    }
                    lane.regs.truncate(lane.base);
                    self.frames.pop();
                    frame -= 1;
                    let caller = &self.frames[frame];
                    func = caller.func as usize;
                    jf = &jit.funcs[func];
                    lane.base = caller.base as usize;
                    pc = caller.pc as usize;
                    // The instruction before `pc` is the call.
                    let Instr::Call { results, .. } = &plan.funcs[func].code[pc - 1] else {
                        return Err(err("return without a pending call"));
                    };
                    if small {
                        for (i, &r) in results.iter().enumerate() {
                            let v = lane.ret[i];
                            lane.regs[lane.base + r as usize] = v;
                        }
                    } else {
                        for (&r, i) in results.iter().zip(0..lane.ret.len()) {
                            let v = lane.ret[i];
                            lane.regs[lane.base + r as usize] = v;
                        }
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Compilation
// ----------------------------------------------------------------------

/// Compile a decoded (and fused) plan into its closure-JIT form. Pure
/// and infallible: every plan instruction has a compiled counterpart, so
/// a plan that decoded successfully always compiles.
pub fn compile(plan: &KernelPlan) -> JitKernel {
    JitKernel {
        funcs: plan
            .funcs
            .iter()
            .map(|f| JitFunc {
                ops: f.code.iter().map(|i| compile_instr(plan, i)).collect(),
                weights: f.code.iter().map(|i| i.op_weight()).collect(),
                reg_count: f.reg_count,
            })
            .collect(),
    }
}

/// One specialized closure per instruction. Every arm replicates the
/// plan interpreter's arm exactly — statistics bumps, check order and
/// error strings included. Operand fields are captured by value; selector
/// enums (`IntBin`, `FloatBin`, `ItemQ`) are monomorphized into distinct
/// closures so the executed code carries no opcode dispatch at all.
fn compile_instr(plan: &KernelPlan, instr: &Instr) -> JitOp {
    // Integer binary op: bump, convert both operands, combine.
    macro_rules! bin_int {
        ($l:expr, $r:expr, $dst:expr, |$a:ident, $b:ident| $body:expr) => {{
            let (l, r, dst) = ($l, $r, $dst);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let $a = ln.int(l, "int op on non-int")?;
                let $b = ln.int(r, "int op on non-int")?;
                let out = $body;
                ln.set(dst, RtValue::Int(out));
                Ok(Ctl::Next)
            })
        }};
    }
    // Float binary op: bump, convert, combine, optionally narrow.
    macro_rules! bin_flt {
        ($l:expr, $r:expr, $dst:expr, $f32:expr, |$a:ident, $b:ident| $body:expr) => {{
            let (l, r, dst, f32_out) = ($l, $r, $dst, $f32);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let $a = ln.flt(l, "float op on non-float")?;
                let $b = ln.flt(r, "float op on non-float")?;
                let out = $body;
                ln.set(dst, narrow(out, f32_out));
                Ok(Ctl::Next)
            })
        }};
    }
    // Work-item position query: bump, resolve the dimension, read.
    macro_rules! item_q {
        ($dst:expr, $dim:expr, |$it:ident, $d:ident| $body:expr) => {{
            let (dst, dim) = ($dst, $dim);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let $d = ln.dim(dim)?;
                let $it = ln.item;
                let v = $body;
                ln.set(dst, RtValue::Int(v));
                Ok(Ctl::Next)
            })
        }};
    }
    // Fused load-accumulate (`LoadBinFloat`): the Load arm, then the
    // BinFloat arm with the loaded value in its original position.
    macro_rules! load_bin_flt {
        ($i:expr, |$a:ident, $b:ident| $body:expr) => {{
            let (dst, other, loaded_is_lhs, f32_out) = ($i.0, $i.1, $i.2, $i.3);
            let (mem, idx, rank, site) = ($i.4, $i.5, $i.6, $i.7);
            boxed(move |ln| {
                let (mr, addr) = ln.load_addr(mem, &idx, rank, site, "load from non-memref")?;
                let loaded = ln.pool_load(site, mr.mem, addr);
                ln.ctx.stats.arith_ops += 1;
                let loaded = loaded
                    .as_f64()
                    .ok_or_else(|| err("float op on non-float"))?;
                let ($a, $b) = if loaded_is_lhs {
                    (loaded, ln.flt(other, "float op on non-float")?)
                } else {
                    (ln.flt(other, "float op on non-float")?, loaded)
                };
                let out = $body;
                ln.set(dst, narrow(out, f32_out));
                Ok(Ctl::Next)
            })
        }};
    }

    match instr {
        Instr::Const { dst, val } => {
            let (dst, val) = (*dst, *val);
            boxed(move |ln| {
                ln.set(dst, val);
                Ok(Ctl::Next)
            })
        }
        Instr::ConstDense { dst, idx } => {
            let (dst, idx) = (*dst, *idx);
            boxed(move |ln| {
                let mr = materialize_dense(ln.plan, ln.ctx, ln.pctx, idx)?;
                ln.set(dst, RtValue::MemRef(mr));
                Ok(Ctl::Next)
            })
        }
        Instr::Copy { dst, src } => {
            let (dst, src) = (*dst, *src);
            boxed(move |ln| {
                let v = ln.reg(src);
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::BinInt { op, dst, l, r } => match op {
            IntBin::Add => bin_int!(*l, *r, *dst, |a, b| a.wrapping_add(b)),
            IntBin::Sub => bin_int!(*l, *r, *dst, |a, b| a.wrapping_sub(b)),
            IntBin::Mul => bin_int!(*l, *r, *dst, |a, b| a.wrapping_mul(b)),
            IntBin::DivS => bin_int!(*l, *r, *dst, |a, b| {
                if b == 0 {
                    return Err(err("division by zero"));
                }
                a.wrapping_div(b)
            }),
            IntBin::RemS => bin_int!(*l, *r, *dst, |a, b| {
                if b == 0 {
                    return Err(err("remainder by zero"));
                }
                a.wrapping_rem(b)
            }),
            IntBin::And => bin_int!(*l, *r, *dst, |a, b| a & b),
            IntBin::Or => bin_int!(*l, *r, *dst, |a, b| a | b),
            IntBin::Xor => bin_int!(*l, *r, *dst, |a, b| a ^ b),
            IntBin::MinS => bin_int!(*l, *r, *dst, |a, b| a.min(b)),
            IntBin::MaxS => bin_int!(*l, *r, *dst, |a, b| a.max(b)),
        },
        Instr::BinFloat {
            op,
            dst,
            l,
            r,
            f32_out,
        } => match op {
            FloatBin::Add => bin_flt!(*l, *r, *dst, *f32_out, |a, b| a + b),
            FloatBin::Sub => bin_flt!(*l, *r, *dst, *f32_out, |a, b| a - b),
            FloatBin::Mul => bin_flt!(*l, *r, *dst, *f32_out, |a, b| a * b),
            FloatBin::Div => bin_flt!(*l, *r, *dst, *f32_out, |a, b| a / b),
            FloatBin::Min => bin_flt!(*l, *r, *dst, *f32_out, |a, b| a.min(b)),
            FloatBin::Max => bin_flt!(*l, *r, *dst, *f32_out, |a, b| a.max(b)),
        },
        Instr::NegF { dst, x } => {
            let (dst, x) = (*dst, *x);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let v = match ln.reg(x) {
                    RtValue::F32(v) => RtValue::F32(-v),
                    RtValue::F64(v) => RtValue::F64(-v),
                    _ => return Err(err("negf on non-float")),
                };
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::CmpI { pred, dst, l, r } => {
            let (pred, dst, l, r) = (*pred, *dst, *l, *r);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let lv = ln.int(l, "cmpi on non-int")?;
                let rv = ln.int(r, "cmpi on non-int")?;
                ln.set(dst, RtValue::Int(pred.eval_int(lv, rv) as i64));
                Ok(Ctl::Next)
            })
        }
        Instr::CmpF { pred, dst, l, r } => {
            let (pred, dst, l, r) = (*pred, *dst, *l, *r);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let lv = ln.flt(l, "cmpf on non-float")?;
                let rv = ln.flt(r, "cmpf on non-float")?;
                ln.set(dst, RtValue::Int(pred.eval_float(lv, rv) as i64));
                Ok(Ctl::Next)
            })
        }
        Instr::Select { dst, c, t, f } => {
            let (dst, c, t, f) = (*dst, *c, *t, *f);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let cv = ln.reg(c).as_bool().ok_or_else(|| err("select cond"))?;
                let v = if cv { ln.reg(t) } else { ln.reg(f) };
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::SiToFp { dst, x, f32_out } => {
            let (dst, x, f32_out) = (*dst, *x, *f32_out);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let v = ln.int(x, "sitofp")?;
                ln.set(
                    dst,
                    if f32_out {
                        RtValue::F32(v as f32)
                    } else {
                        RtValue::F64(v as f64)
                    },
                );
                Ok(Ctl::Next)
            })
        }
        Instr::FpToSi { dst, x } => {
            let (dst, x) = (*dst, *x);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let v = ln.flt(x, "fptosi")?;
                ln.set(dst, RtValue::Int(v as i64));
                Ok(Ctl::Next)
            })
        }
        Instr::TruncF { dst, x } => {
            let (dst, x) = (*dst, *x);
            boxed(move |ln| {
                let v = ln.flt(x, "truncf")?;
                ln.set(dst, RtValue::F32(v as f32));
                Ok(Ctl::Next)
            })
        }
        Instr::ExtF { dst, x } => {
            let (dst, x) = (*dst, *x);
            boxed(move |ln| {
                let v = ln.flt(x, "extf")?;
                ln.set(dst, RtValue::F64(v));
                Ok(Ctl::Next)
            })
        }
        Instr::Math {
            op,
            dst,
            x,
            y,
            f32_out,
        } => {
            let (op, dst, x, y, f32_out) = (*op, *dst, *x, *y, *f32_out);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 4; // transcendental ops are pricier
                let xv = ln.flt(x, "math on non-float")?;
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
                        let yv = ln.flt(y, "powf")?;
                        xv.powf(yv)
                    }
                };
                ln.set(dst, narrow(out, f32_out));
                Ok(Ctl::Next)
            })
        }
        Instr::Alloca {
            dst,
            elem,
            shape,
            rank,
            len,
        } => {
            let (dst, elem, shape, rank, len) = (*dst, elem.clone(), *shape, *rank, *len);
            boxed(move |ln| {
                let mem = ln.ctx.pool.alloc_zeroed(&elem, len)?;
                ln.set(
                    dst,
                    RtValue::MemRef(MemRefVal {
                        mem,
                        offset: 0,
                        shape,
                        rank,
                        space: Space::Private,
                    }),
                );
                Ok(Ctl::Next)
            })
        }
        Instr::LocalAlloca {
            dst,
            site,
            elem,
            shape,
            rank,
            len,
        } => {
            let (dst, site, elem, shape, rank, len) =
                (*dst, *site, elem.clone(), *shape, *rank, *len);
            boxed(move |ln| {
                let mr = match ln.pctx.local_allocs[site as usize] {
                    Some(existing) => existing,
                    None => {
                        let mem = ln.ctx.pool.alloc_zeroed(&elem, len)?;
                        let mr = MemRefVal {
                            mem,
                            offset: 0,
                            shape,
                            rank,
                            space: Space::Local,
                        };
                        ln.pctx.local_allocs[site as usize] = Some(mr);
                        mr
                    }
                };
                ln.set(dst, RtValue::MemRef(mr));
                Ok(Ctl::Next)
            })
        }
        Instr::Load {
            dst,
            mem,
            idx,
            rank,
            site,
        } => {
            let (dst, mem, idx, rank, site) = (*dst, *mem, *idx, *rank, *site);
            boxed(move |ln| {
                let (mr, addr) = ln.load_addr(mem, &idx, rank, site, "load from non-memref")?;
                let v = ln.pool_load(site, mr.mem, addr);
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::Store {
            val,
            mem,
            idx,
            rank,
            site,
        } => {
            let (val, mem, idx, rank, site) = (*val, *mem, *idx, *rank, *site);
            boxed(move |ln| {
                let v = ln.reg(val);
                let (mr, addr) = ln.load_addr(mem, &idx, rank, site, "store to non-memref")?;
                ln.pool_store(site, mr.mem, addr, v);
                Ok(Ctl::Next)
            })
        }
        Instr::VecCtor { dst, comps, rank } => {
            let (dst, comps, rank) = (*dst, *comps, *rank);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for d in 0..rank as usize {
                    data[d] = ln.int(comps[d], "id component")?;
                }
                ln.set(
                    dst,
                    RtValue::Vec(VecVal {
                        data,
                        rank: rank as u32,
                    }),
                );
                Ok(Ctl::Next)
            })
        }
        Instr::NdRangeCtor { dst, g, l } => {
            let (dst, g, l) = (*dst, *g, *l);
            boxed(move |ln| {
                let gv = ln.reg(g).as_vec().ok_or_else(|| err("nd_range global"))?;
                let lv = ln.reg(l).as_vec().ok_or_else(|| err("nd_range local"))?;
                ln.set(dst, RtValue::NdRange(gv, lv));
                Ok(Ctl::Next)
            })
        }
        Instr::VecGet { dst, v, dim } => {
            let (dst, v, dim) = (*dst, *v, *dim);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let vv = ln.reg(v).as_vec().ok_or_else(|| err("id.get"))?;
                let d = ln.dim(dim)?;
                ln.set(dst, RtValue::Int(vv.data[d]));
                Ok(Ctl::Next)
            })
        }
        Instr::RangeSize { dst, v } => {
            let (dst, v) = (*dst, *v);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let vv = ln.reg(v).as_vec().ok_or_else(|| err("range.size"))?;
                let size: i64 = vv.data[..vv.rank as usize].iter().product();
                ln.set(dst, RtValue::Int(size));
                Ok(Ctl::Next)
            })
        }
        Instr::ItemQuery { dst, q, dim } => match q {
            ItemQ::GlobalId => item_q!(*dst, *dim, |it, d| it.global_id[d]),
            ItemQ::LocalId => item_q!(*dst, *dim, |it, d| it.local_id[d]),
            ItemQ::GroupId => item_q!(*dst, *dim, |it, d| it.group_id[d]),
            ItemQ::GlobalRange => item_q!(*dst, *dim, |it, d| it.global_range[d]),
            ItemQ::LocalRange => item_q!(*dst, *dim, |it, d| it.local_range[d]),
            ItemQ::GroupRange => item_q!(*dst, *dim, |it, d| it.group_range(d)),
        },
        Instr::GlobalLinearId { dst } => {
            let dst = *dst;
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let v = ln.item.global_linear_id();
                ln.set(dst, RtValue::Int(v));
                Ok(Ctl::Next)
            })
        }
        Instr::LocalLinearId { dst } => {
            let dst = *dst;
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let v = ln.item.local_linear_id();
                ln.set(dst, RtValue::Int(v));
                Ok(Ctl::Next)
            })
        }
        Instr::ItemSelf { dst } => {
            let dst = *dst;
            boxed(move |ln| {
                let v = RtValue::Item(*ln.item);
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::AccSubscript { dst, acc, id } => {
            let (dst, acc, id) = (*dst, *acc, *id);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let idv = ln.reg(id).as_vec().ok_or_else(|| err("subscript id"))?;
                let offset = a.linearize(&idv.data[..idv.rank as usize]);
                let space = if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                ln.set(
                    dst,
                    RtValue::MemRef(MemRefVal {
                        mem: a.mem,
                        offset,
                        shape: [-1, 1, 1],
                        rank: 1,
                        space,
                    }),
                );
                Ok(Ctl::Next)
            })
        }
        Instr::AccRange { dst, acc, dim } => {
            let (dst, acc, dim) = (*dst, *acc, *dim);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let a = ln.reg(acc).as_accessor().ok_or_else(|| err("get_range"))?;
                let d = ln.dim(dim)?;
                ln.set(dst, RtValue::Int(a.range[d]));
                Ok(Ctl::Next)
            })
        }
        Instr::AccBase { dst, acc } => {
            let (dst, acc) = (*dst, *acc);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("accessor.base"))?;
                let b = ((a.mem.0 as i64) << 32) | a.linearize(&[0, 0, 0]);
                ln.set(dst, RtValue::Int(b));
                Ok(Ctl::Next)
            })
        }
        Instr::Barrier => boxed(move |ln| {
            ln.ctx.stats.barriers += 1;
            Ok(Ctl::Barrier)
        }),
        Instr::Jump { target } => {
            let target = *target;
            boxed(move |_ln| Ok(Ctl::Jump(target)))
        }
        Instr::BranchIfFalse { cond, target } => {
            let (cond, target) = (*cond, *target);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let c = ln
                    .reg(cond)
                    .as_bool()
                    .ok_or_else(|| err("non-boolean if condition"))?;
                Ok(if c { Ctl::Next } else { Ctl::Jump(target) })
            })
        }
        Instr::ForEnter {
            lb,
            ub,
            step,
            iv,
            exit,
        } => {
            let (lb, ub, step, iv, exit) = (*lb, *ub, *step, *iv, *exit);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 1;
                let lbv = ln.int(lb, "bad lb")?;
                let ubv = ln.int(ub, "bad ub")?;
                let stepv = ln.int(step, "bad step")?;
                if stepv <= 0 {
                    return Err(err("non-positive loop step"));
                }
                ln.set(iv, RtValue::Int(lbv));
                Ok(if lbv >= ubv {
                    Ctl::Jump(exit)
                } else {
                    Ctl::Next
                })
            })
        }
        Instr::ForNext { iv, step, ub, body } => {
            let (iv, step, ub, body) = (*iv, *step, *ub, *body);
            boxed(move |ln| {
                let cur = ln.int(iv, "bad iv")?;
                let stepv = ln.int(step, "bad step")?;
                let ubv = ln.int(ub, "bad ub")?;
                // Deliberately non-wrapping: a debug-mode overflow panics
                // exactly like the plan interpreter's back-edge.
                let next = cur + stepv;
                Ok(if next < ubv {
                    ln.set(iv, RtValue::Int(next));
                    Ctl::Jump(body)
                } else {
                    Ctl::Next
                })
            })
        }
        Instr::Call {
            func: callee,
            args,
            results: _,
        } => {
            let callee_plan = &plan.funcs[*callee as usize];
            let callee = *callee;
            let args = args.clone();
            let params: Box<[Reg]> = callee_plan.params.clone().into_boxed_slice();
            let rc = callee_plan.reg_count as usize;
            boxed(move |ln| {
                let new_base = ln.regs.len();
                ln.regs.resize(new_base + rc, RtValue::Unit);
                for (i, &a) in args.iter().enumerate() {
                    let v = ln.regs[ln.base + a as usize];
                    ln.regs[new_base + params[i] as usize] = v;
                }
                Ok(Ctl::Call(callee))
            })
        }
        Instr::Return { vals } => {
            let vals = vals.clone();
            boxed(move |ln| {
                // Stage the return values; the driver copies them into the
                // caller's result registers after popping the frame. At
                // frame 0 the staged values are simply discarded, matching
                // the interpreter's early Finished return.
                ln.ret.clear();
                let small = vals.len() <= 4;
                for &v in vals.iter() {
                    let rv = ln.regs[ln.base + v as usize];
                    ln.ret.push(rv);
                }
                if small {
                    while ln.ret.len() < 4 {
                        ln.ret.push(RtValue::Unit);
                    }
                }
                Ok(Ctl::Ret(small))
            })
        }
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
            let i = (
                *dst,
                *other,
                *loaded_is_lhs,
                *f32_out,
                *mem,
                *idx,
                *rank,
                *site,
            );
            match op {
                FloatBin::Add => load_bin_flt!(i, |a, b| a + b),
                FloatBin::Mul => load_bin_flt!(i, |a, b| a * b),
                // Only Add/Mul are ever fused (see `try_fuse`); replicate
                // the interpreter's post-conversion error for the rest.
                _ => {
                    let (other, mem, idx, rank, site) = (i.1, i.4, i.5, i.6, i.7);
                    boxed(move |ln| {
                        let (mr, addr) =
                            ln.load_addr(mem, &idx, rank, site, "load from non-memref")?;
                        let loaded = ln.pool_load(site, mr.mem, addr);
                        ln.ctx.stats.arith_ops += 1;
                        loaded
                            .as_f64()
                            .ok_or_else(|| err("float op on non-float"))?;
                        // Both operand orders convert `other` before the
                        // interpreter's op match rejects the fusion.
                        ln.flt(other, "float op on non-float")?;
                        Err(err("unfusable float op in LoadBinFloat"))
                    })
                }
            }
        }
        Instr::MulAddInt { dst, a, b, c } => {
            let (dst, a, b, c) = (*dst, *a, *b, *c);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 2; // the muli and the addi
                let av = ln.int(a, "int op on non-int")?;
                let bv = ln.int(b, "int op on non-int")?;
                let cv = ln.int(c, "int op on non-int")?;
                ln.set(dst, RtValue::Int(av.wrapping_mul(bv).wrapping_add(cv)));
                Ok(Ctl::Next)
            })
        }
        Instr::CmpIBranch { pred, l, r, target } => {
            let (pred, l, r, target) = (*pred, *l, *r, *target);
            boxed(move |ln| {
                ln.ctx.stats.arith_ops += 2; // the cmpi and the branch
                let lv = ln.int(l, "cmpi on non-int")?;
                let rv = ln.int(r, "cmpi on non-int")?;
                Ok(if pred.eval_int(lv, rv) {
                    Ctl::Next
                } else {
                    Ctl::Jump(target)
                })
            })
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
            let (dst, acc, comps, comps_rank, idx, rank, site) =
                (*dst, *acc, *comps, *comps_rank, *idx, *rank, *site);
            boxed(move |ln| {
                // Exactly the VecCtor arm…
                ln.ctx.stats.arith_ops += 1;
                let mut id = [0_i64; 3];
                for d in 0..comps_rank as usize {
                    id[d] = ln.int(comps[d], "id component")?;
                }
                // …then the AccSubscript arm…
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let offset = a.linearize(&id[..comps_rank as usize]);
                let space = if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                let mr = MemRefVal {
                    mem: a.mem,
                    offset,
                    shape: [-1, 1, 1],
                    rank: 1,
                    space,
                };
                // …then the Load arm through the elided view.
                let mut indices = [0_i64; 3];
                for d in 0..rank as usize {
                    indices[d] = ln.int(idx[d], "non-int index")?;
                }
                let addr = mr.linearize(&indices[..rank as usize]);
                ln.mem_event(site, &mr, addr)?;
                let v = ln.pool_load(site, mr.mem, addr);
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::AccStoreIndexed {
            val,
            acc,
            comps,
            comps_rank,
            idx,
            rank,
            site,
        } => {
            let (val, acc, comps, comps_rank, idx, rank, site) =
                (*val, *acc, *comps, *comps_rank, *idx, *rank, *site);
            boxed(move |ln| {
                // VecCtor, then AccSubscript, then the Store arm —
                // identical sequencing to the unfused chain.
                ln.ctx.stats.arith_ops += 1;
                let mut id = [0_i64; 3];
                for d in 0..comps_rank as usize {
                    id[d] = ln.int(comps[d], "id component")?;
                }
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let offset = a.linearize(&id[..comps_rank as usize]);
                let space = if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                let mr = MemRefVal {
                    mem: a.mem,
                    offset,
                    shape: [-1, 1, 1],
                    rank: 1,
                    space,
                };
                let v = ln.reg(val);
                let mut indices = [0_i64; 3];
                for d in 0..rank as usize {
                    indices[d] = ln.int(idx[d], "non-int index")?;
                }
                let addr = mr.linearize(&indices[..rank as usize]);
                ln.mem_event(site, &mr, addr)?;
                ln.pool_store(site, mr.mem, addr, v);
                Ok(Ctl::Next)
            })
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
            let (dst, mem, idx, rank, site) = (*dst, *mem, *idx, *rank, *site);
            let (b, loaded_is_lhs, mul_f32, c, prod_is_lhs, f32_out) =
                (*b, *loaded_is_lhs, *mul_f32, *c, *prod_is_lhs, *f32_out);
            boxed(move |ln| {
                // The Load arm…
                let (mr, addr) = ln.load_addr(mem, &idx, rank, site, "load from non-memref")?;
                let loaded = ln.pool_load(site, mr.mem, addr);
                // …then the mulf arm with the original operand order,
                // narrowing the elided product exactly as its register
                // write would have…
                ln.ctx.stats.arith_ops += 1;
                let loaded = loaded
                    .as_f64()
                    .ok_or_else(|| err("float op on non-float"))?;
                let bv = ln.flt(b, "float op on non-float")?;
                let (ml, mr2) = if loaded_is_lhs {
                    (loaded, bv)
                } else {
                    (bv, loaded)
                };
                let mut prod = ml * mr2;
                if mul_f32 {
                    prod = prod as f32 as f64;
                }
                // …then the addf arm.
                ln.ctx.stats.arith_ops += 1;
                let cv = ln.flt(c, "float op on non-float")?;
                let (al, ar) = if prod_is_lhs { (prod, cv) } else { (cv, prod) };
                let out = al + ar;
                ln.set(dst, narrow(out, f32_out));
                Ok(Ctl::Next)
            })
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
            let (op, l, r, f32_out) = (*op, *l, *r, *f32_out);
            let (mem, idx, rank, site) = (*mem, *idx, *rank, *site);
            boxed(move |ln| {
                // The BinFloat arm…
                ln.ctx.stats.arith_ops += 1;
                let lv = ln.flt(l, "float op on non-float")?;
                let rv = ln.flt(r, "float op on non-float")?;
                let out = match op {
                    FloatBin::Add => lv + rv,
                    FloatBin::Sub => lv - rv,
                    FloatBin::Mul => lv * rv,
                    FloatBin::Div => lv / rv,
                    FloatBin::Min => lv.min(rv),
                    FloatBin::Max => lv.max(rv),
                };
                let v = narrow(out, f32_out);
                // …then the Store arm with the elided value register.
                let (mr, addr) = ln.load_addr(mem, &idx, rank, site, "store to non-memref")?;
                ln.pool_store(site, mr.mem, addr, v);
                Ok(Ctl::Next)
            })
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
            let (dst, acc, comps, comps_rank, site) = (*dst, *acc, *comps, *comps_rank, *site);
            let (id, view, cst, cst_val) = (*id, *view, *cst, *cst_val);
            boxed(move |ln| {
                // The VecCtor arm, keeping the id register write…
                ln.ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for d in 0..comps_rank as usize {
                    data[d] = ln.int(comps[d], "id component")?;
                }
                ln.set(
                    id,
                    RtValue::Vec(VecVal {
                        data,
                        rank: comps_rank as u32,
                    }),
                );
                // …the AccSubscript arm, keeping the view write…
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let idv = ln.reg(id).as_vec().ok_or_else(|| err("subscript id"))?;
                let offset = a.linearize(&idv.data[..idv.rank as usize]);
                let space = if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                ln.set(
                    view,
                    RtValue::MemRef(MemRefVal {
                        mem: a.mem,
                        offset,
                        shape: [-1, 1, 1],
                        rank: 1,
                        space,
                    }),
                );
                // …the Const arm (no stats, like the Const opcode)…
                ln.set(cst, cst_val);
                // …then the Load arm, re-reading the kept registers so
                // even degenerate register aliasing replays exactly.
                let mr = ln
                    .reg(view)
                    .as_memref()
                    .ok_or_else(|| err("load from non-memref"))?;
                let i0 = ln.int(cst, "non-int index")?;
                let addr = mr.linearize(&[i0]);
                ln.mem_event(site, &mr, addr)?;
                let v = ln.pool_load(site, mr.mem, addr);
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::AccStoreQuad {
            val,
            acc,
            comps,
            comps_rank,
            id,
            view,
            cst,
            cst_val,
            site,
        } => {
            let (val, acc, comps, comps_rank, site) = (*val, *acc, *comps, *comps_rank, *site);
            let (id, view, cst, cst_val) = (*id, *view, *cst, *cst_val);
            boxed(move |ln| {
                // VecCtor, AccSubscript and Const arms with all three
                // register writes kept, then the Store arm — identical
                // sequencing to the unfused quad.
                ln.ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for d in 0..comps_rank as usize {
                    data[d] = ln.int(comps[d], "id component")?;
                }
                ln.set(
                    id,
                    RtValue::Vec(VecVal {
                        data,
                        rank: comps_rank as u32,
                    }),
                );
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let idv = ln.reg(id).as_vec().ok_or_else(|| err("subscript id"))?;
                let offset = a.linearize(&idv.data[..idv.rank as usize]);
                let space = if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                ln.set(
                    view,
                    RtValue::MemRef(MemRefVal {
                        mem: a.mem,
                        offset,
                        shape: [-1, 1, 1],
                        rank: 1,
                        space,
                    }),
                );
                ln.set(cst, cst_val);
                let v = ln.reg(val);
                let mr = ln
                    .reg(view)
                    .as_memref()
                    .ok_or_else(|| err("store to non-memref"))?;
                let i0 = ln.int(cst, "non-int index")?;
                let addr = mr.linearize(&[i0]);
                ln.mem_event(site, &mr, addr)?;
                ln.pool_store(site, mr.mem, addr, v);
                Ok(Ctl::Next)
            })
        }
        Instr::AccLoadIdxWt {
            dst,
            acc,
            comps,
            comps_rank,
            id,
            view,
            idx,
            rank,
            site,
        } => {
            let (dst, acc, comps, comps_rank) = (*dst, *acc, *comps, *comps_rank);
            let (id, view, idx, rank, site) = (*id, *view, *idx, *rank, *site);
            boxed(move |ln| {
                // The VecCtor arm with the id write kept…
                ln.ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for d in 0..comps_rank as usize {
                    data[d] = ln.int(comps[d], "id component")?;
                }
                ln.set(
                    id,
                    RtValue::Vec(VecVal {
                        data,
                        rank: comps_rank as u32,
                    }),
                );
                // …the AccSubscript arm with the view write kept (a later
                // store re-reads it — that is why this variant exists)…
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let idv = ln.reg(id).as_vec().ok_or_else(|| err("subscript id"))?;
                let offset = a.linearize(&idv.data[..idv.rank as usize]);
                let space = if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                ln.set(
                    view,
                    RtValue::MemRef(MemRefVal {
                        mem: a.mem,
                        offset,
                        shape: [-1, 1, 1],
                        rank: 1,
                        space,
                    }),
                );
                // …then the Load arm through the kept view.
                let mr = ln
                    .reg(view)
                    .as_memref()
                    .ok_or_else(|| err("load from non-memref"))?;
                let mut indices = [0_i64; 3];
                for d in 0..rank as usize {
                    indices[d] = ln.int(idx[d], "non-int index")?;
                }
                let addr = mr.linearize(&indices[..rank as usize]);
                ln.mem_event(site, &mr, addr)?;
                let v = ln.pool_load(site, mr.mem, addr);
                ln.set(dst, v);
                Ok(Ctl::Next)
            })
        }
        Instr::AccStoreIdxWt {
            val,
            acc,
            comps,
            comps_rank,
            id,
            view,
            idx,
            rank,
            site,
        } => {
            let (val, acc, comps, comps_rank) = (*val, *acc, *comps, *comps_rank);
            let (id, view, idx, rank, site) = (*id, *view, *idx, *rank, *site);
            boxed(move |ln| {
                // VecCtor and AccSubscript arms with both writes kept,
                // then the Store arm.
                ln.ctx.stats.arith_ops += 1;
                let mut data = [0_i64; 3];
                for d in 0..comps_rank as usize {
                    data[d] = ln.int(comps[d], "id component")?;
                }
                ln.set(
                    id,
                    RtValue::Vec(VecVal {
                        data,
                        rank: comps_rank as u32,
                    }),
                );
                ln.ctx.stats.arith_ops += 1;
                let a = ln
                    .reg(acc)
                    .as_accessor()
                    .ok_or_else(|| err("subscript of non-accessor"))?;
                let idv = ln.reg(id).as_vec().ok_or_else(|| err("subscript id"))?;
                let offset = a.linearize(&idv.data[..idv.rank as usize]);
                let space = if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                };
                ln.set(
                    view,
                    RtValue::MemRef(MemRefVal {
                        mem: a.mem,
                        offset,
                        shape: [-1, 1, 1],
                        rank: 1,
                        space,
                    }),
                );
                let v = ln.reg(val);
                let mr = ln
                    .reg(view)
                    .as_memref()
                    .ok_or_else(|| err("store to non-memref"))?;
                let mut indices = [0_i64; 3];
                for d in 0..rank as usize {
                    indices[d] = ln.int(idx[d], "non-int index")?;
                }
                let addr = mr.linearize(&indices[..rank as usize]);
                ln.mem_event(site, &mr, addr)?;
                ln.pool_store(site, mr.mem, addr, v);
                Ok(Ctl::Next)
            })
        }
        Instr::StoreBinFloatWt {
            op,
            l,
            r,
            f32_out,
            t,
            mem,
            idx,
            rank,
            site,
        } => {
            let (op, l, r, f32_out, t) = (*op, *l, *r, *f32_out, *t);
            let (mem, idx, rank, site) = (*mem, *idx, *rank, *site);
            boxed(move |ln| {
                // The BinFloat arm, keeping the accumulator write…
                ln.ctx.stats.arith_ops += 1;
                let lv = ln.flt(l, "float op on non-float")?;
                let rv = ln.flt(r, "float op on non-float")?;
                let out = match op {
                    FloatBin::Add => lv + rv,
                    FloatBin::Sub => lv - rv,
                    FloatBin::Mul => lv * rv,
                    FloatBin::Div => lv / rv,
                    FloatBin::Min => lv.min(rv),
                    FloatBin::Max => lv.max(rv),
                };
                ln.set(t, narrow(out, f32_out));
                // …then the Store arm re-reading the kept value.
                let v = ln.reg(t);
                let mr = ln
                    .reg(mem)
                    .as_memref()
                    .ok_or_else(|| err("store to non-memref"))?;
                let mut indices = [0_i64; 3];
                for d in 0..rank as usize {
                    indices[d] = ln.int(idx[d], "non-int index")?;
                }
                let addr = mr.linearize(&indices[..rank as usize]);
                ln.mem_event(site, &mr, addr)?;
                ln.pool_store(site, mr.mem, addr, v);
                Ok(Ctl::Next)
            })
        }
    }
}

/// Narrow a float result exactly like the interpreter's register writes.
#[inline(always)]
fn narrow(out: f64, f32_out: bool) -> RtValue {
    if f32_out {
        RtValue::F32(out as f32)
    } else {
        RtValue::F64(out)
    }
}

// ----------------------------------------------------------------------
// Group driver
// ----------------------------------------------------------------------

/// Per-worker reusable work-item slots for the closure tier (registers,
/// frames, visit counters survive across work-groups and launches, so the
/// steady state allocates nothing per item).
#[derive(Default)]
pub(crate) struct JitScratch {
    items: Vec<JitItem>,
}

/// Execute one work-group through the compiled closure chain — the
/// closure-tier counterpart of the plan engine's `run_group`, driving the
/// same co-operative rounds with the same divergent-barrier detection.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_group_jit(
    jit: &JitKernel,
    plan: &KernelPlan,
    args: &[RtValue],
    nd: NdRangeSpec,
    group: [i64; 3],
    ctx: &mut PlanExecCtx<'_, '_>,
    pctx: &mut PlanCtx,
    scratch: &mut JitScratch,
) -> Result<(), SimError> {
    let positions = items_of_group(nd, group);
    let n = positions.len();
    if scratch.items.len() < n {
        scratch.items.resize_with(n, JitItem::empty);
    }
    for (slot, item) in scratch.items[..n].iter_mut().zip(positions) {
        slot.reset(plan, args, item)?;
    }
    if pctx.uniform {
        cooperative_rounds_uniform(&mut scratch.items[..n], |wi| wi.run(jit, plan, ctx, pctx))
    } else {
        cooperative_rounds(&mut scratch.items[..n], group, |wi| {
            wi.run(jit, plan, ctx, pctx)
        })
    }
}
