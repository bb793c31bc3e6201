//! The executor: per-worker [`PlanCtx`], per-work-item [`PlanWorkItem`]
//! and the one bytecode loop, `run_impl`.

use super::instr::{DimSrc, FloatBin, Instr, IntBin, ItemQ, MathOp};
use super::slot::{put, Slot};
use super::KernelPlan;
use crate::interp::{SimError, Stop};
use crate::pool::PlanExecCtx;
use crate::value::{MemRefVal, NdItemVal, RtValue, Space, VecVal};

fn err(msg: impl Into<String>) -> SimError {
    SimError::msg(msg)
}

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
        }
    }

    /// Attach the launch-instantiated proven-site bitset: the sites
    /// whose bounds check [`crate::memory::Buf`] skips — so it must come
    /// from [`crate::verify::PlanFacts::instantiate`] for this launch.
    pub(crate) fn set_proven(&mut self, proven: std::sync::Arc<[u64]>) {
        self.proven = proven;
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
    /// Per-site visit counters feeding the coalescing log (same
    /// instance numbering as the tree-walk interpreter's per-op visits).
    visits: Vec<u32>,
    /// The work-item’s position bundle.
    pub item: NdItemVal,
    /// The sub-group of `item`: which coalescing log its accesses go to.
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
                RtValue::Int(v) => Slot::Int(v),
                RtValue::F32(v) => Slot::F32(v),
                RtValue::F64(v) => Slot::F64(v),
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
        // One access step: the buffer of `$mr`, resolved once, and the
        // address of `$mr[$idx[..$rank]]` in it, with the access counted
        // (the tree walk's instance numbering, keyed by plan site). The
        // bounds check is the `Buf`'s: elided per site where the verifier's
        // proof was instantiated for this launch; every other site keeps
        // the exact out-of-bounds fault and position.
        macro_rules! access {
            ($mr:expr, $idx:expr, $rank:expr, $site:expr) => {{
                let mut indices = [0_i64; 3];
                for d in 0..$rank as usize {
                    indices[d] = int!($idx[d], "non-int index");
                }
                let addr = $mr.linearize(&indices[..$rank as usize]);
                let buf = ctx.pool.resolve($mr.mem)?;
                ctx.coalescer.mem_event(
                    &mut ctx.stats,
                    ($site, self.subgroup),
                    &mut self.visits[$site as usize],
                    &$mr,
                    addr,
                    buf.dtype().bytes(),
                );
                (buf, addr)
            }};
        }
        macro_rules! load_at {
            ($mr:expr, $idx:expr, $rank:expr, $site:expr) => {{
                let mr: MemRefVal = $mr;
                let (buf, addr) = access!(mr, $idx, $rank, $site);
                // SAFETY: the proven bits are the ones the scheduler (the
                // one caller of `PlanCtx::set_proven`) got from
                // `PlanFacts::instantiate` for this launch.
                Slot::from(unsafe { buf.load_at(pctx.site_proven($site), addr) }?)
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
        macro_rules! bin_float {
            ($op:expr, $l:expr, $r:expr, $f32_out:expr) => {{
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
                    Slot::F32(out as f32)
                } else {
                    Slot::F64(out)
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
                } => reg!(*dst) = bin_float!(*op, reg!(*l), reg!(*r), *f32_out),
                Instr::NegF { dst, x } => {
                    ctx.stats.arith_ops += 1;
                    reg!(*dst) = match reg!(*x) {
                        Slot::F32(v) => Slot::F32(-v),
                        Slot::F64(v) => Slot::F64(-v),
                        _ => return Err(err("negf on non-float")),
                    };
                }
                Instr::CmpI { pred, dst, l, r } => {
                    ctx.stats.arith_ops += 1;
                    let l = int!(*l, "cmpi on non-int");
                    let r = int!(*r, "cmpi on non-int");
                    reg!(*dst) = Slot::Int(pred.eval_int(l, r) as i64);
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
                    let mr = payload!(MemRef in memrefs, *mem, "store to non-memref");
                    let (buf, addr) = access!(mr, idx, *rank, *site);
                    // SAFETY: as in `load_at!`.
                    unsafe { buf.store_at(pctx.site_proven(*site), addr, v) }?;
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
                    ctx.stats.arith_ops += 1;
                    if int!(*cond, "non-boolean if condition") == 0 {
                        pc = *target as usize;
                    }
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
                    reg!(*dst) = bin_float!(*op, l, r, *f32_out);
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
                    let u = bin_float!(FloatBin::Mul, l, r, *mul_f32);
                    let c = reg!(*c);
                    let (l, r) = if *prod_is_lhs { (u, c) } else { (c, u) };
                    reg!(*dst) = bin_float!(FloatBin::Add, l, r, *f32_out);
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

#[cfg(test)]
mod tests {
    use super::super::FuncPlan;
    use super::*;

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
}
