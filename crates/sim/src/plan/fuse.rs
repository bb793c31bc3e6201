//! Peephole fusion: the `ChainMatcher` pattern table, the pass that
//! applies it, and the `--profile` summary that ranks its next candidates.

use super::instr::{FloatBin, Instr};
use super::slot::Reg;
#[cfg(doc)]
use super::PlanCtx;
use super::{FuncPlan, KernelPlan};

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
            instr.reads(|r| reads[r as usize] += 1);
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
/// superinstructions, in place, and return the number of windows fused.
/// The device fuses every plan it caches.
///
/// The pattern table is `ChainMatcher`'s: the **load-accumulate** pair,
/// three-instruction chains
/// (the **indexed accessor load** `vec.ctor` + `acc.subscript` + `Load`
/// and the **fused multiply-accumulate** `Load` + `mulf` + `addf`) and
/// the un-CSE'd four-instruction accessor read of the DPC++ flow. A
/// superinstruction's executor arm expands the same steps as its
/// members' own arms, in window order, so it bumps the same statistics
/// and raises the same errors, in the same order, as the window it
/// replaces: fused execution is bit-identical to unfused execution — the
/// differential suite holds the fused plan against the tree-walk
/// reference, and `tests/plan_fuzz.rs` against the unfused plan.
pub fn fuse_plan(plan: &mut KernelPlan) -> u32 {
    plan.funcs.iter_mut().map(fuse_func).sum()
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
            if i + 1 >= f.code.len() || is_target[i + 1] {
                continue;
            }
            let next = &f.code[i + 1];
            let c2 = counts[off + i + 1];
            if c2 == 0 {
                continue;
            }
            let mut adjacent = false;
            instr.writes(|d| next.reads(|r| adjacent |= r == d));
            if adjacent {
                *pairs
                    .entry((instr.mnemonic(), next.mnemonic()))
                    .or_insert(0) += c.min(c2);
            }
        }
        off += f.code.len();
    }
}
