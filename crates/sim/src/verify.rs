//! Decode-time static verification of kernel plans.
//!
//! Runs once per `(module, kernel)` decode, **before fusion**, and caches
//! its result next to the plan: the verifier knows primitives only and
//! rejects a plan that contains a superinstruction. Fusion keeps every
//! memory-site id, so the proofs transfer to the fused plan by site.
//! Two layers:
//!
//! 1. **Structural verifier** — register def-before-use, per-slot type
//!    consistency, jump targets on instruction boundaries and site-id
//!    bounds. Violations come back as structured [`VerifyError`]s (never
//!    a panic), so malformed or untrusted programs are rejected before
//!    any work-item executes.
//! 2. **Interval abstract interpreter** — symbolic intervals
//!    ([`sycl_mlir_analysis::interval`]) over the index registers of the
//!    plan: constants, nd-range ids bounded by the launch extent, kernel
//!    scalar arguments, and affine combinations thereof.
//!    Accessor subscripts whose address interval is provably inside the
//!    backing buffer are recorded as per-site [`SiteProof`]s; at launch
//!    time [`PlanFacts::instantiate`] resolves the symbols against the
//!    actual geometry/arguments and produces the proven-safe bitset the
//!    executors use to skip per-access bounds checks.
//!
//! Barriers are not the verifier's concern: the group driver checks
//! every barrier round, so a barrier that work-items reach divergently
//! is a `divergent barrier` error at run time.
//!
//! The contract of every fact is **may-elide, never may-change**: an
//! unproven site keeps the exact runtime check (and error text and
//! `(launch, group)` position) it always had, and a proven site must be
//! one the check could never fire on — so outputs, statistics and errors
//! are bit-identical whether a check was elided or not (a test-only audit
//! run keeps every proven check, `plan::audit_on_this_thread`). A plan
//! with findings is not rejected: it runs with every check in place.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use sycl_mlir_analysis::interval::{BinOp, Expr, Interval};

use crate::device::NdRangeSpec;
use crate::memory::MemoryPool;
use crate::plan::{Class, DimSrc, Instr, IntBin, ItemQ, KernelPlan, Reg, Role, Slot};
use crate::value::RtValue;

// ----------------------------------------------------------------------
// Errors and facts
// ----------------------------------------------------------------------

/// One structural violation, located by pc.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct VerifyError {
    /// Index of the offending instruction.
    pub pc: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc {}: {}", self.pc, self.message)
    }
}

/// A symbolic in-bounds proof for one memory-access site: the linearized
/// address of every execution of the site lies in `[lo, hi]`, provided
/// kernel argument `arg` is an accessor of rank `acc_rank`.
#[derive(Clone, Debug)]
pub struct SiteProof {
    /// Kernel-argument index the accessed accessor must come from.
    pub arg: u32,
    /// Accessor rank the proof assumed (the id vector's rank; the
    /// runtime linearization walks `min(id rank, accessor rank)` dims,
    /// so the proof only applies when they agree).
    pub acc_rank: u32,
    /// Symbolic lower bound of the linearized element address.
    pub lo: Expr,
    /// Symbolic upper bound of the linearized element address.
    pub hi: Expr,
}

/// Everything the verifier proved about one decoded plan. Cached in the
/// device's plan cache and shared (via `Arc`) with every launch.
#[derive(Clone, Debug)]
pub struct PlanFacts {
    /// The verifier accepted the plan: every register a work-item reads
    /// it has written before, or is a parameter or bound constant, and no
    /// instruction writes one of those. So a worker binds a launch's
    /// registers once, not once per work-group: nothing a work-group
    /// leaves in the register file is read by the next.
    pub verified: bool,
    /// Per-site in-bounds proofs, indexed by memory-site id
    /// (`len == mem_sites`); `None` means unproven — keep the check.
    pub proofs: Vec<Option<SiteProof>>,
    /// Total number of memory-access sites in the plan.
    pub sites_total: u32,
    /// Number of sites with a symbolic in-bounds proof.
    pub sites_proven: u32,
}

impl PlanFacts {
    /// Nothing proven: every site keeps its runtime check. The facts of a
    /// plan the verifier reported findings on.
    pub const NONE: PlanFacts = PlanFacts {
        verified: false,
        proofs: Vec::new(),
        sites_total: 0,
        sites_proven: 0,
    };

    /// Resolve the symbolic proofs against one launch's actual geometry,
    /// arguments and memory pool, producing the proven-safe bitset
    /// (bit = site id). Returns an empty slice when nothing could be
    /// proven for this launch — the one spelling of "check everything",
    /// which is also what [`PlanFacts::NONE`] instantiates to.
    pub fn instantiate(&self, args: &[RtValue], nd: &NdRangeSpec, pool: &MemoryPool) -> Arc<[u64]> {
        if self.sites_proven == 0 {
            return Arc::from(Vec::new());
        }
        let groups = nd.groups();
        let resolve = |s: u32| -> Option<i64> {
            let payload = (s & PAYLOAD_MASK) as usize;
            match s >> TAG_SHIFT {
                TAG_GLOBAL_EXT => nd.global.get(payload).copied(),
                TAG_LOCAL_EXT => nd.local.get(payload).copied(),
                TAG_GROUP_EXT => groups.get(payload).copied(),
                TAG_INT_ARG => args.get(payload)?.as_int(),
                TAG_ACC_RANGE => match args.get(payload >> 2)? {
                    RtValue::Accessor(a) => a.range.get(payload & 3).copied(),
                    _ => None,
                },
                TAG_ACC_OFFSET => match args.get(payload >> 2)? {
                    RtValue::Accessor(a) => a.offset.get(payload & 3).copied(),
                    _ => None,
                },
                _ => None,
            }
        };
        let mut words = vec![0_u64; self.proofs.len().div_ceil(64)];
        let mut any = false;
        for (site, proof) in self.proofs.iter().enumerate() {
            let Some(p) = proof else { continue };
            let Some(RtValue::Accessor(acc)) = args.get(p.arg as usize).copied() else {
                continue;
            };
            if acc.rank != p.acc_rank {
                continue;
            }
            let len = pool.buf(acc.mem).len() as i128;
            let (Some(lo), Some(hi)) = (p.lo.eval(&resolve), p.hi.eval(&resolve)) else {
                continue;
            };
            if lo >= 0 && hi < len {
                words[site >> 6] |= 1 << (site & 63);
                any = true;
            }
        }
        if any {
            Arc::from(words)
        } else {
            Arc::from(Vec::new())
        }
    }
}

// ----------------------------------------------------------------------
// Symbol encoding (the caller-side contract of `interval::Expr::sym`)
// ----------------------------------------------------------------------

const TAG_SHIFT: u32 = 24;
const PAYLOAD_MASK: u32 = (1 << TAG_SHIFT) - 1;
/// Global extent along dimension `payload`.
const TAG_GLOBAL_EXT: u32 = 0;
/// Work-group extent along dimension `payload`.
const TAG_LOCAL_EXT: u32 = 1;
/// Work-group count along dimension `payload`.
const TAG_GROUP_EXT: u32 = 2;
/// Integer kernel argument `payload`.
const TAG_INT_ARG: u32 = 3;
/// Accessor range: argument `payload >> 2`, dimension `payload & 3`.
const TAG_ACC_RANGE: u32 = 4;
/// Accessor offset: argument `payload >> 2`, dimension `payload & 3`.
const TAG_ACC_OFFSET: u32 = 5;
/// Largest argument index encodable in an accessor symbol payload.
const MAX_SYM_ARG: u32 = (1 << (TAG_SHIFT - 2)) - 1;

fn sym(tag: u32, payload: u32) -> Expr {
    Expr::sym((tag << TAG_SHIFT) | payload)
}

// ----------------------------------------------------------------------
// Shared instruction walkers
// ----------------------------------------------------------------------

/// The memory-access site id an instruction carries, if any.
fn mem_site_of(instr: &Instr) -> Option<u32> {
    match instr {
        Instr::Load { site, .. } | Instr::Store { site, .. } => Some(*site),
        _ => None,
    }
}

/// Whether execution can continue at `pc + 1` after this instruction.
fn falls_through(instr: &Instr) -> bool {
    !matches!(instr, Instr::Jump { .. } | Instr::Return)
}

/// Control-flow successors of the instruction at `pc`.
fn succs(pc: usize, instr: &Instr) -> Vec<usize> {
    let fall = falls_through(instr).then_some(pc + 1);
    fall.into_iter()
        .chain(instr.target().map(|t| t as usize))
        .collect()
}

// ----------------------------------------------------------------------
// Entry point
// ----------------------------------------------------------------------

/// Verify a decoded plan — the decoder's output, before
/// [`crate::plan::fuse_plan`]; a superinstruction is a structural
/// finding. `Ok` carries the proven facts; `Err` carries every violation
/// found, sorted by pc — the device counts them and runs the plan with
/// every check in place.
pub fn verify_plan(plan: &KernelPlan) -> Result<PlanFacts, Vec<VerifyError>> {
    let mut errs = Vec::new();
    fatal_pass(plan, &mut errs);
    if !errs.is_empty() {
        // Later passes walk operand lists and pc targets; they may only
        // run on structurally sound code.
        errs.sort();
        errs.dedup();
        return Err(errs);
    }
    def_before_use_pass(plan, &mut errs);
    type_class_pass(plan, &mut errs);
    if !errs.is_empty() {
        errs.sort();
        errs.dedup();
        return Err(errs);
    }
    let proofs = interval_pass(plan);
    let sites_proven = proofs.iter().filter(|p| p.is_some()).count() as u32;
    Ok(PlanFacts {
        verified: true,
        proofs,
        sites_total: plan.mem_sites,
        sites_proven,
    })
}

// ----------------------------------------------------------------------
// Pass A: fatal structural checks
// ----------------------------------------------------------------------

/// Rank payloads an instruction carries; any value above 3 would panic
/// the operand walkers themselves, so these are checked first.
fn rank_fields(instr: &Instr) -> Vec<u32> {
    match instr {
        Instr::Alloca { rank, .. } | Instr::LocalAlloca { rank, .. } => vec![*rank],
        Instr::Load { rank, .. } | Instr::Store { rank, .. } | Instr::VecCtor { rank, .. } => {
            vec![*rank as u32]
        }
        _ => vec![],
    }
}

/// Constant dimension operands (`DimSrc::Const`) of an instruction; the
/// runtime indexes item fields with them unchecked.
fn const_dims(instr: &Instr) -> Vec<u8> {
    let mut out = Vec::new();
    let mut push = |d: &DimSrc| {
        if let DimSrc::Const(c) = d {
            out.push(*c);
        }
    };
    match instr {
        Instr::VecGet { dim, .. } | Instr::ItemQuery { dim, .. } | Instr::AccRange { dim, .. } => {
            push(dim)
        }
        _ => {}
    }
    out
}

fn fatal_pass(plan: &KernelPlan, errs: &mut Vec<VerifyError>) {
    let err = |errs: &mut Vec<VerifyError>, pc: usize, message: String| {
        errs.push(VerifyError {
            pc: pc as u32,
            message,
        });
    };
    let code = &plan.code;
    if code.is_empty() {
        err(errs, 0, "empty plan".into());
        return;
    }
    for &p in &plan.params {
        if p >= plan.reg_count {
            err(errs, 0, format!("parameter register r{p} out of range"));
        }
    }
    for &(r, _) in &plan.consts {
        if r >= plan.reg_count {
            err(
                errs,
                0,
                format!("bound-constant register r{r} out of range"),
            );
        }
    }
    // What a launch binds once for all its work-groups: no instruction
    // may write it.
    let bound: HashMap<Reg, &str> = (plan.consts.iter().map(|&(r, _)| (r, "bound-constant")))
        .chain(plan.params.iter().map(|&p| (p, "parameter")))
        .collect();
    for (pc, instr) in code.iter().enumerate() {
        if instr.op_weight() > 1 {
            let m = instr.mnemonic();
            err(
                errs,
                pc,
                format!("superinstruction `{m}`: plans are verified before fusion"),
            );
            continue;
        }
        let mut structurally_ok = true;
        for r in rank_fields(instr) {
            if r > 3 {
                err(errs, pc, format!("rank {r} exceeds 3"));
                structurally_ok = false;
            }
        }
        for d in const_dims(instr) {
            if d > 2 {
                err(errs, pc, format!("constant dimension {d} out of range"));
            }
        }
        if let Some(t) = instr.target().filter(|&t| t as usize >= code.len()) {
            err(errs, pc, format!("pc target {t} out of bounds"));
        }
        if pc + 1 == code.len() && falls_through(instr) {
            err(errs, pc, "control falls through the end of the plan".into());
        }
        if let Some(site) = mem_site_of(instr) {
            if site >= plan.mem_sites {
                err(errs, pc, format!("memory site {site} out of range"));
            }
        }
        match instr {
            Instr::LocalAlloca { site, .. } if *site >= plan.local_sites => {
                err(errs, pc, format!("local-alloca site {site} out of range"));
            }
            Instr::ConstDense { idx, .. } if *idx as usize >= plan.dense_consts.len() => {
                err(errs, pc, format!("dense-constant index {idx} out of range"));
            }
            _ => {}
        }
        if structurally_ok {
            instr.operands(|role, r, _| {
                if r >= plan.reg_count {
                    err(errs, pc, format!("register r{r} out of range"));
                } else if let Some(what) = bound.get(&r).filter(|_| role == Role::Write) {
                    err(errs, pc, format!("writes {what} register r{r}"));
                }
            });
        }
    }
}

// ----------------------------------------------------------------------
// Pass B: def-before-use (forward must-analysis)
// ----------------------------------------------------------------------

fn def_before_use_pass(plan: &KernelPlan, errs: &mut Vec<VerifyError>) {
    let n = plan.reg_count as usize;
    let words = n.div_ceil(64).max(1);
    let code = &plan.code;
    let get = |set: &[u64], r: Reg| set[(r >> 6) as usize] >> (r & 63) & 1 != 0;
    let set = |set: &mut [u64], r: Reg| set[(r >> 6) as usize] |= 1 << (r & 63);
    // `ins[pc]` = registers definitely defined on entry to `pc`;
    // `None` = not yet reached (top). Meet is intersection.
    let mut ins: Vec<Option<Vec<u64>>> = vec![None; code.len()];
    let mut entry = vec![0_u64; words];
    for &p in &plan.params {
        set(&mut entry, p);
    }
    for &(r, _) in &plan.consts {
        set(&mut entry, r);
    }
    ins[0] = Some(entry);
    let mut work = vec![0_usize];
    while let Some(pc) = work.pop() {
        let mut out = ins[pc].clone().expect("worklist entries are reached");
        code[pc].writes(|r| set(&mut out, r));
        for s in succs(pc, &code[pc]) {
            match &mut ins[s] {
                Some(cur) => {
                    let mut changed = false;
                    for (c, o) in cur.iter_mut().zip(&out) {
                        let next = *c & o;
                        if next != *c {
                            *c = next;
                            changed = true;
                        }
                    }
                    if changed {
                        work.push(s);
                    }
                }
                slot @ None => {
                    *slot = Some(out.clone());
                    work.push(s);
                }
            }
        }
    }
    for (pc, instr) in code.iter().enumerate() {
        if let Some(inset) = &ins[pc] {
            instr.reads(|r| {
                if !get(inset, r) {
                    errs.push(VerifyError {
                        pc: pc as u32,
                        message: format!("register r{r} read before definition"),
                    });
                }
            });
        }
    }
}

// ----------------------------------------------------------------------
// Pass C: per-slot type consistency (flow-insensitive)
// ----------------------------------------------------------------------

/// What the slot is known to hold: nothing yet, exactly one concrete
/// class, or several/unknowable (suppresses checking — zero false
/// positives by construction).
#[derive(Clone, Copy, PartialEq, Eq)]
enum DefCls {
    Unset,
    One(Class),
    Many,
}

fn type_class_pass(plan: &KernelPlan, errs: &mut Vec<VerifyError>) {
    let n = plan.reg_count as usize;
    let mut defs = vec![DefCls::Unset; n];
    // Kernel arguments are unknowable statically; the trailing item
    // parameter's class is fixed by the launch machinery.
    let nparams = plan.params.len() - usize::from(plan.has_item_param);
    for (k, &p) in plan.params.iter().enumerate() {
        defs[p as usize] = if k < nparams {
            DefCls::Many
        } else {
            DefCls::One(Class::Item)
        };
    }
    for (r, val) in &plan.consts {
        defs[*r as usize] = Class::of_const(val).map_or(DefCls::Many, DefCls::One);
    }
    for instr in &plan.code {
        instr.operands(|role, r, c| {
            if role == Role::Write {
                let slot = &mut defs[r as usize];
                *slot = match (*slot, c) {
                    (DefCls::Unset, Some(c)) => DefCls::One(c),
                    (DefCls::One(prev), Some(c)) if prev == c => DefCls::One(c),
                    _ => DefCls::Many,
                };
            }
        });
    }
    for (pc, instr) in plan.code.iter().enumerate() {
        instr.operands(|role, r, need| {
            let (Role::Read, Some(need), DefCls::One(have)) = (role, need, defs[r as usize]) else {
                return;
            };
            if have != need {
                errs.push(VerifyError {
                    pc: pc as u32,
                    message: format!(
                        "register r{r} holds {} but is used as {}",
                        have.name(),
                        need.name()
                    ),
                });
            }
        });
    }
}

// ----------------------------------------------------------------------
// Pass D: interval abstract interpretation
// ----------------------------------------------------------------------

/// Abstract value of one register during the interval walk.
#[derive(Clone, Debug)]
enum AVal {
    /// Unknown.
    Top,
    /// Integer in a symbolic interval.
    Int(Interval),
    /// Kernel argument `k`, class still unknown (an integer argument
    /// concretizes to the `TAG_INT_ARG` symbol on demand; an accessor
    /// argument feeds `AccSubscript`).
    Arg(u32),
    /// Id/range vector with per-component intervals.
    Vec([Option<Interval>; 3], u8),
    /// Accessor subscript view: argument `arg` (rank `acc_rank`)
    /// at symbolic element offset `off`.
    View {
        arg: u32,
        acc_rank: u32,
        off: Interval,
    },
    /// The work-item handle.
    Item,
}

fn int_of(v: &AVal) -> Option<Interval> {
    match v {
        AVal::Int(i) => Some(i.clone()),
        AVal::Arg(k) => Some(Interval::point(sym(TAG_INT_ARG, *k))),
        _ => None,
    }
}

fn join_val(a: &AVal, b: &AVal) -> AVal {
    match (a, b) {
        (AVal::Int(x), AVal::Int(y)) => Interval::hull(x, y).map_or(AVal::Top, AVal::Int),
        (AVal::Arg(k), AVal::Arg(j)) if k == j => AVal::Arg(*k),
        (AVal::Vec(x, rx), AVal::Vec(y, ry)) if rx == ry => {
            let mut comps: [Option<Interval>; 3] = [None, None, None];
            for d in 0..*rx as usize {
                comps[d] = match (&x[d], &y[d]) {
                    (Some(xi), Some(yi)) => Interval::hull(xi, yi),
                    _ => None,
                };
            }
            AVal::Vec(comps, *rx)
        }
        (
            AVal::View {
                arg: a1,
                acc_rank: r1,
                off: o1,
            },
            AVal::View {
                arg: a2,
                acc_rank: r2,
                off: o2,
            },
        ) if a1 == a2 && r1 == r2 => Interval::hull(o1, o2).map_or(AVal::Top, |off| AVal::View {
            arg: *a1,
            acc_rank: *r1,
            off,
        }),
        (AVal::Item, AVal::Item) => AVal::Item,
        _ => AVal::Top,
    }
}

fn join_env(a: &[AVal], b: &[AVal]) -> Vec<AVal> {
    a.iter().zip(b).map(|(x, y)| join_val(x, y)).collect()
}

fn join_pending(slot: &mut Option<Vec<AVal>>, env: Vec<AVal>) {
    *slot = Some(match slot.take() {
        Some(cur) => join_env(&cur, &env),
        None => env,
    });
}

/// `[0, bound - 1]`.
fn upto_excl(bound: Expr) -> Option<Interval> {
    Some(Interval {
        lo: Expr::konst(0),
        hi: Expr::bin(BinOp::Sub, &bound, &Expr::konst(1))?,
    })
}

/// `dim` resolved to a literal dimension, when statically known.
fn const_dim(env: &[AVal], dim: &DimSrc) -> Option<usize> {
    let d = match dim {
        DimSrc::Const(d) => *d as i64,
        DimSrc::Reg(r) => int_of(&env[*r as usize])?.as_const()?,
    };
    (0..3).contains(&d).then_some(d as usize)
}

fn binint_interval(op: IntBin, l: Option<Interval>, r: Option<Interval>) -> Option<Interval> {
    match op {
        IntBin::Add => Interval::add(&l?, &r?),
        IntBin::Sub => Interval::sub(&l?, &r?),
        IntBin::Mul => Interval::mul(&l?, &r?),
        IntBin::MinS => Interval::min_(&l?, &r?),
        IntBin::MaxS => Interval::max_(&l?, &r?),
        // `x & c` for constant `c >= 0` keeps only bits of `c`.
        IntBin::And => {
            let (li, ri) = (l?, r?);
            let c = [li.as_const(), ri.as_const()]
                .into_iter()
                .flatten()
                .find(|&c| c >= 0)?;
            Some(Interval::of_consts(0, c))
        }
        // `x rem c` for constant `c >= 1`: magnitude below `c`, sign of
        // the dividend — `[max(-(c-1), min(x.lo, 0)), min(c-1, max(x.hi, 0))]`.
        IntBin::RemS => {
            let (xi, ri) = (l?, r?);
            let c = ri.as_const().filter(|&c| c >= 1)?;
            let zero = Expr::konst(0);
            let lo = Expr::bin(
                BinOp::Max,
                &Expr::konst(-(c - 1)),
                &Expr::bin(BinOp::Min, &xi.lo, &zero)?,
            )?;
            let hi = Expr::bin(
                BinOp::Min,
                &Expr::konst(c - 1),
                &Expr::bin(BinOp::Max, &xi.hi, &zero)?,
            )?;
            Some(Interval { lo, hi })
        }
        // `x / c` for constant `c >= 1` truncates toward zero:
        // `[min(x.lo, 0), max(x.hi, 0)]`.
        IntBin::DivS => {
            let (xi, ri) = (l?, r?);
            ri.as_const().filter(|&c| c >= 1)?;
            let zero = Expr::konst(0);
            Some(Interval {
                lo: Expr::bin(BinOp::Min, &xi.lo, &zero)?,
                hi: Expr::bin(BinOp::Max, &xi.hi, &zero)?,
            })
        }
        IntBin::Or | IntBin::Xor => None,
    }
}

/// Record a proof for a rank-1 load/store through an accessor-subscript
/// view (the only memref shape the decoder emits for accessors:
/// `linearize` collapses to `view offset + idx0`).
fn try_prove(
    env: &[AVal],
    mem: Reg,
    idx: &[Reg; 3],
    rank: u8,
    site: u32,
    claims: &[u32],
    proofs: &mut [Option<SiteProof>],
) {
    if rank != 1 || claims.get(site as usize).copied() != Some(1) {
        return;
    }
    let AVal::View { arg, acc_rank, off } = &env[mem as usize] else {
        return;
    };
    let Some(i0) = int_of(&env[idx[0] as usize]) else {
        return;
    };
    let Some(addr) = Interval::add(off, &i0) else {
        return;
    };
    proofs[site as usize] = Some(SiteProof {
        arg: *arg,
        acc_rank: *acc_rank,
        lo: addr.lo,
        hi: addr.hi,
    });
}

fn interval_pass(plan: &KernelPlan) -> Vec<Option<SiteProof>> {
    let mut proofs: Vec<Option<SiteProof>> = vec![None; plan.mem_sites as usize];
    let code = &plan.code;
    // A site proof must be the *only* instruction touching that site id;
    // shared ids (a callee inlined twice, or hand-built or corrupted
    // plans) stay unproven.
    let mut claims = vec![0_u32; plan.mem_sites as usize];
    for s in code.iter().filter_map(mem_site_of) {
        claims[s as usize] += 1;
    }
    // The walk is a single forward pass joining at forward edges; any
    // irreducible backward edge (other than the structured `ForNext`
    // back-edge, which is handled at `ForEnter`) aborts the pass —
    // everything stays unproven, which is always sound.
    for (pc, instr) in code.iter().enumerate() {
        let mut backward = false;
        match instr {
            Instr::ForNext { .. } => {}
            Instr::ForEnter { exit, .. } => backward = *exit as usize <= pc,
            _ => backward = instr.target().is_some_and(|t| t as usize <= pc),
        }
        if backward {
            return proofs;
        }
    }
    let n = plan.reg_count as usize;
    let mut env = vec![AVal::Top; n];
    let nparams = plan.params.len() - usize::from(plan.has_item_param);
    for (k, &p) in plan.params.iter().enumerate() {
        env[p as usize] = if k < nparams {
            AVal::Arg(k as u32)
        } else {
            AVal::Item
        };
    }
    for (r, val) in &plan.consts {
        env[*r as usize] = match val {
            Slot::Int(v) => AVal::Int(Interval::konst(*v)),
            _ => AVal::Top,
        };
    }
    let mut pending: Vec<Option<Vec<AVal>>> = vec![None; code.len()];
    let mut cur = Some(env);
    for (pc, instr) in code.iter().enumerate() {
        if let Some(p) = pending[pc].take() {
            cur = Some(match cur.take() {
                Some(c) => join_env(&c, &p),
                None => p,
            });
        }
        let Some(mut e) = cur.take() else { continue };
        match instr {
            Instr::Copy { dst, src } => e[*dst as usize] = e[*src as usize].clone(),
            Instr::BinInt { op, dst, l, r } => {
                let (li, ri) = (int_of(&e[*l as usize]), int_of(&e[*r as usize]));
                e[*dst as usize] = binint_interval(*op, li, ri).map_or(AVal::Top, AVal::Int);
            }
            Instr::CmpI { dst, .. } | Instr::CmpF { dst, .. } => {
                e[*dst as usize] = AVal::Int(Interval::of_consts(0, 1));
            }
            Instr::Select { dst, t, f, .. } => {
                e[*dst as usize] = match (int_of(&e[*t as usize]), int_of(&e[*f as usize])) {
                    (Some(ti), Some(fi)) => Interval::hull(&ti, &fi).map_or(AVal::Top, AVal::Int),
                    _ => AVal::Top,
                };
            }
            Instr::VecCtor { dst, comps, rank } => {
                let mut out: [Option<Interval>; 3] = [None, None, None];
                for d in 0..*rank as usize {
                    out[d] = int_of(&e[comps[d] as usize]);
                }
                e[*dst as usize] = AVal::Vec(out, *rank);
            }
            Instr::VecGet { dst, v, dim } => {
                e[*dst as usize] = match (&e[*v as usize], const_dim(&e, dim)) {
                    (AVal::Vec(comps, r), Some(d)) if d < *r as usize => {
                        comps[d].clone().map_or(AVal::Top, AVal::Int)
                    }
                    _ => AVal::Top,
                };
            }
            Instr::RangeSize { dst, v } => {
                e[*dst as usize] = match &e[*v as usize] {
                    AVal::Vec(comps, r) => {
                        let mut prod = Some(Interval::konst(1));
                        for c in comps[..*r as usize].iter() {
                            prod = match (prod, c) {
                                (Some(p), Some(ci)) => Interval::mul(&p, ci),
                                _ => None,
                            };
                        }
                        prod.map_or(AVal::Top, AVal::Int)
                    }
                    _ => AVal::Top,
                };
            }
            Instr::ItemQuery { dst, q, dim } => {
                e[*dst as usize] = const_dim(&e, dim)
                    .and_then(|d| {
                        let d = d as u32;
                        match q {
                            ItemQ::GlobalId => upto_excl(sym(TAG_GLOBAL_EXT, d)),
                            ItemQ::LocalId => upto_excl(sym(TAG_LOCAL_EXT, d)),
                            ItemQ::GroupId => upto_excl(sym(TAG_GROUP_EXT, d)),
                            ItemQ::GlobalRange => Some(Interval::point(sym(TAG_GLOBAL_EXT, d))),
                            ItemQ::LocalRange => Some(Interval::point(sym(TAG_LOCAL_EXT, d))),
                            ItemQ::GroupRange => Some(Interval::point(sym(TAG_GROUP_EXT, d))),
                        }
                    })
                    .map_or(AVal::Top, AVal::Int);
            }
            Instr::GlobalLinearId { dst } | Instr::LocalLinearId { dst } => {
                let tag = if matches!(instr, Instr::GlobalLinearId { .. }) {
                    TAG_GLOBAL_EXT
                } else {
                    TAG_LOCAL_EXT
                };
                let total = Expr::bin(
                    BinOp::Mul,
                    &Expr::bin(BinOp::Mul, &sym(tag, 0), &sym(tag, 1))
                        .unwrap_or_else(|| Expr::konst(0)),
                    &sym(tag, 2),
                );
                e[*dst as usize] = total.and_then(upto_excl).map_or(AVal::Top, AVal::Int);
            }
            Instr::ItemSelf { dst } => e[*dst as usize] = AVal::Item,
            Instr::AccSubscript { dst, acc, id } => {
                e[*dst as usize] = match (&e[*acc as usize], &e[*id as usize]) {
                    (AVal::Arg(k), AVal::Vec(ivs, r)) if *k <= MAX_SYM_ARG => {
                        let mut off = Some(Interval::konst(0));
                        for (d, iv) in ivs.iter().enumerate().take(*r as usize) {
                            off = (|| {
                                let o = off.clone()?;
                                let ivd = iv.clone()?;
                                let range =
                                    Interval::point(sym(TAG_ACC_RANGE, (k << 2) | d as u32));
                                let offset =
                                    Interval::point(sym(TAG_ACC_OFFSET, (k << 2) | d as u32));
                                Interval::add(
                                    &Interval::mul(&o, &range)?,
                                    &Interval::add(&ivd, &offset)?,
                                )
                            })();
                        }
                        match off {
                            Some(off) => AVal::View {
                                arg: *k,
                                acc_rank: *r as u32,
                                off,
                            },
                            None => AVal::Top,
                        }
                    }
                    _ => AVal::Top,
                };
            }
            Instr::AccRange { dst, acc, dim } => {
                e[*dst as usize] = match (&e[*acc as usize], const_dim(&e, dim)) {
                    (AVal::Arg(k), Some(d)) if *k <= MAX_SYM_ARG => {
                        AVal::Int(Interval::point(sym(TAG_ACC_RANGE, (k << 2) | d as u32)))
                    }
                    _ => AVal::Top,
                };
            }
            Instr::Load {
                dst,
                mem,
                idx,
                rank,
                site,
            } => {
                try_prove(&e, *mem, idx, *rank, *site, &claims, &mut proofs);
                e[*dst as usize] = AVal::Top;
            }
            Instr::Store {
                mem,
                idx,
                rank,
                site,
                ..
            } => {
                try_prove(&e, *mem, idx, *rank, *site, &claims, &mut proofs);
            }
            Instr::ForEnter {
                lb,
                ub,
                step,
                iv,
                exit,
            } => {
                let exit = *exit as usize;
                let lbi = int_of(&e[*lb as usize]);
                let ubi = int_of(&e[*ub as usize]);
                let stepc = int_of(&e[*step as usize]).and_then(|i| i.as_const());
                let mut body_writes = vec![false; n];
                for b in &code[pc + 1..exit] {
                    b.writes(|r| body_writes[r as usize] = true);
                }
                let bounds_stable = !body_writes[*ub as usize] && !body_writes[*step as usize];
                // Exit environment: anything the body writes is unknown,
                // and so is the induction variable (a zero-trip loop
                // leaves `iv = lb`, possibly >= ub).
                let mut ex = e.clone();
                for (r, w) in body_writes.iter().enumerate() {
                    if *w {
                        ex[r] = AVal::Top;
                    }
                }
                ex[*iv as usize] = AVal::Top;
                join_pending(&mut pending[exit], ex);
                // Body environment: smash body-written registers, then
                // pin the induction variable to `[lb.lo, ub.hi - 1]`.
                // Guard against the release-mode `iv + step` wrap in
                // `ForNext`: sound for step 1 always (iv < ub <= i64::MAX),
                // and for larger constant steps only when `ub`'s upper
                // bound is a literal that cannot wrap past i64::MAX.
                for (r, w) in body_writes.iter().enumerate() {
                    if *w {
                        e[r] = AVal::Top;
                    }
                }
                e[*iv as usize] = match (lbi, ubi, stepc) {
                    (Some(l), Some(u), Some(c))
                        if c >= 1
                            && bounds_stable
                            && (c == 1
                                || u.hi
                                    .as_const()
                                    .is_some_and(|uc| uc.checked_add(c - 1).is_some())) =>
                    {
                        match Expr::bin(BinOp::Sub, &u.hi, &Expr::konst(1)) {
                            Some(hi) => AVal::Int(Interval { lo: l.lo, hi }),
                            None => AVal::Top,
                        }
                    }
                    _ => AVal::Top,
                };
            }
            Instr::ForNext { .. } => {
                // Back-edge handled at ForEnter; fall-through keeps the
                // body environment (iv retains its final in-range value).
            }
            Instr::Jump { target } => {
                join_pending(&mut pending[*target as usize], e);
                cur = None;
                continue;
            }
            Instr::BranchIfFalse { target, .. } => {
                join_pending(&mut pending[*target as usize], e.clone());
            }
            Instr::Return => {
                cur = None;
                continue;
            }
            // No transfer function — barriers, nd-ranges, allocations,
            // floats, casts: every written register is unknown.
            _ => instr.writes(|r| e[r as usize] = AVal::Top),
        }
        cur = Some(e);
    }
    proofs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{DataVec, MemoryPool};
    use crate::value::AccessorVal;

    fn plan1(
        code: Vec<Instr>,
        reg_count: u32,
        params: Vec<Reg>,
        has_item: bool,
        sites: u32,
    ) -> KernelPlan {
        KernelPlan {
            code,
            reg_count,
            params,
            has_item_param: has_item,
            consts: vec![],
            dense_consts: vec![],
            mem_sites: sites,
            local_sites: 0,
        }
    }

    fn ret() -> Instr {
        Instr::Return
    }

    #[test]
    fn rejects_out_of_bounds_jump() {
        let p = plan1(vec![Instr::Jump { target: 9 }, ret()], 1, vec![], false, 0);
        let errs = verify_plan(&p).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("pc target 9")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_read_before_definition() {
        let p = plan1(
            vec![
                Instr::BinInt {
                    op: IntBin::Add,
                    dst: 2,
                    l: 0,
                    r: 1,
                },
                ret(),
            ],
            3,
            vec![],
            false,
            0,
        );
        let errs = verify_plan(&p).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("read before definition")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_type_confused_register() {
        let p = KernelPlan {
            consts: vec![(0, Slot::F64(1.0))],
            ..plan1(
                vec![Instr::BranchIfFalse { cond: 0, target: 1 }, ret()],
                1,
                vec![],
                false,
                0,
            )
        };
        let errs = verify_plan(&p).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("holds a float")),
            "{errs:?}"
        );
    }

    /// A launch binds its parameters and constants once for all its
    /// work-groups: an instruction that writes one, whatever it writes,
    /// and a constant outside the register file are refused.
    #[test]
    fn rejects_writes_to_bound_registers() {
        let bound = |code: Vec<Instr>, consts: Vec<(Reg, Slot)>| KernelPlan {
            consts,
            ..plan1(code, 3, vec![0], false, 0)
        };
        let int = Slot::Int;
        let cases = [
            (
                bound(
                    vec![Instr::Copy { dst: 0, src: 1 }, ret()],
                    vec![(1, int(2))],
                ),
                "writes parameter register r0",
            ),
            (
                bound(
                    vec![
                        Instr::BinInt {
                            op: IntBin::Add,
                            dst: 1,
                            l: 1,
                            r: 1,
                        },
                        ret(),
                    ],
                    vec![(1, int(2))],
                ),
                "writes bound-constant register r1",
            ),
            (
                bound(
                    vec![Instr::Copy { dst: 2, src: 1 }, ret()],
                    vec![(1, int(2)), (7, int(0))],
                ),
                "bound-constant register r7 out of range",
            ),
        ];
        for (plan, want) in cases {
            let errs = verify_plan(&plan).unwrap_err();
            assert!(errs.iter().any(|e| e.message == want), "{want}: {errs:?}");
        }
        // The same reads with the writes going elsewhere pass.
        let fine = bound(
            vec![Instr::Copy { dst: 2, src: 1 }, ret()],
            vec![(1, int(2))],
        );
        assert!(verify_plan(&fine).is_ok());
    }

    /// `a[gid]` with a matching launch is proven; an over-long global
    /// range or a too-small buffer is not.
    #[test]
    fn proves_gid_indexed_subscript() {
        let p = plan1(
            vec![
                Instr::ItemQuery {
                    dst: 2,
                    q: ItemQ::GlobalId,
                    dim: DimSrc::Const(0),
                },
                Instr::VecCtor {
                    dst: 3,
                    comps: [2, 0, 0],
                    rank: 1,
                },
                Instr::AccSubscript {
                    dst: 4,
                    acc: 0,
                    id: 3,
                },
                Instr::Load {
                    dst: 6,
                    mem: 4,
                    idx: [5, 0, 0],
                    rank: 1,
                    site: 0,
                },
                ret(),
            ],
            7,
            vec![0, 1],
            true,
            1,
        );
        let p = KernelPlan {
            consts: vec![(5, Slot::Int(0))],
            ..p
        };
        let facts = verify_plan(&p).unwrap();
        assert_eq!(facts.sites_proven, 1);
        let mut pool = MemoryPool::new();
        let mem = pool.alloc(DataVec::F32(vec![0.0; 8]));
        let acc = RtValue::Accessor(AccessorVal {
            mem,
            range: [8, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        });
        let fits = facts.instantiate(&[acc], &NdRangeSpec::d1(8, 4), &pool);
        assert_eq!(fits.first().copied(), Some(1), "site 0 should be proven");
        let too_big = facts.instantiate(&[acc], &NdRangeSpec::d1(16, 4), &pool);
        assert!(too_big.is_empty(), "oversized launch must stay checked");
    }

    /// Loop-bounded subscript `a[i]` for `i in 0..ub_arg`: proven with
    /// step 1, unproven with step 2 (symbolic ub could wrap `iv + step`).
    #[test]
    fn loop_bound_wrap_guard() {
        let build = |step: i64| {
            let consts = vec![(3, Slot::Int(0)), (4, Slot::Int(step)), (8, Slot::Int(0))];
            let code = vec![
                Instr::ForEnter {
                    lb: 3,
                    ub: 1,
                    step: 4,
                    iv: 5,
                    exit: 5,
                },
                Instr::VecCtor {
                    dst: 6,
                    comps: [5, 0, 0],
                    rank: 1,
                },
                Instr::AccSubscript {
                    dst: 7,
                    acc: 0,
                    id: 6,
                },
                Instr::Load {
                    dst: 9,
                    mem: 7,
                    idx: [8, 0, 0],
                    rank: 1,
                    site: 0,
                },
                Instr::ForNext {
                    iv: 5,
                    step: 4,
                    ub: 1,
                    body: 1,
                },
                ret(),
            ];
            KernelPlan {
                consts,
                ..plan1(code, 10, vec![0, 1, 2], true, 1)
            }
        };
        let facts1 = verify_plan(&build(1)).unwrap();
        assert_eq!(facts1.sites_proven, 1, "step-1 loop should be proven");
        let facts2 = verify_plan(&build(2)).unwrap();
        assert_eq!(
            facts2.sites_proven, 0,
            "step-2 symbolic ub must stay unproven"
        );

        let mut pool = MemoryPool::new();
        let mem = pool.alloc(DataVec::F64(vec![0.0; 8]));
        let acc = RtValue::Accessor(AccessorVal {
            mem,
            range: [8, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        });
        let nd = NdRangeSpec::d1(4, 4);
        let ok = facts1.instantiate(&[acc, RtValue::Int(8)], &nd, &pool);
        assert_eq!(ok.first().copied(), Some(1));
        let oob = facts1.instantiate(&[acc, RtValue::Int(9)], &nd, &pool);
        assert!(oob.is_empty(), "ub beyond the buffer must stay checked");
    }

    /// Masked indexing `a[gid & 7]` and `a[gid % 8]` prove in-bounds for
    /// an 8-element accessor regardless of the launch size.
    #[test]
    fn proves_masked_and_mod_indexing() {
        let build = |op: IntBin, k: i64| KernelPlan {
            consts: vec![(3, Slot::Int(k)), (7, Slot::Int(0))],
            ..plan1(
                vec![
                    Instr::ItemQuery {
                        dst: 2,
                        q: ItemQ::GlobalId,
                        dim: DimSrc::Const(0),
                    },
                    Instr::BinInt {
                        op,
                        dst: 4,
                        l: 2,
                        r: 3,
                    },
                    Instr::VecCtor {
                        dst: 5,
                        comps: [4, 0, 0],
                        rank: 1,
                    },
                    Instr::AccSubscript {
                        dst: 6,
                        acc: 0,
                        id: 5,
                    },
                    Instr::Store {
                        val: 7,
                        mem: 6,
                        idx: [7, 0, 0],
                        rank: 1,
                        site: 0,
                    },
                    ret(),
                ],
                8,
                vec![0, 1],
                true,
                1,
            )
        };
        let mut pool = MemoryPool::new();
        let mem = pool.alloc(DataVec::I64(vec![0; 8]));
        let acc = RtValue::Accessor(AccessorVal {
            mem,
            range: [8, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        });
        let nd = NdRangeSpec::d1(4096, 64);
        for (op, k) in [(IntBin::And, 7), (IntBin::RemS, 8)] {
            let facts = verify_plan(&build(op, k)).unwrap();
            assert_eq!(facts.sites_proven, 1, "{op:?} should prove");
            let bits = facts.instantiate(&[acc], &nd, &pool);
            assert_eq!(bits.first().copied(), Some(1), "{op:?} instantiation");
        }
    }
}
