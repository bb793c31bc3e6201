//! Peephole fusion: the `ChainMatcher` pattern, the pass that applies it,
//! and the `--profile` summary that ranks the next candidates.

use super::instr::Instr;
use super::slot::Reg;
#[cfg(doc)]
use super::PlanCtx;
use super::{FuncPlan, KernelPlan};

/// The reified fusion pass over one function: the dataflow facts a legal
/// rewrite depends on — function-wide register read counts and the
/// jump-target set — and the one pattern they are checked against, the
/// **indexed accessor load** `vec.ctor` + `acc.subscript` + `Load`.
///
/// **Legality** is one rule: the window may collapse into one
/// superinstruction when both **elided intermediates** (the id vector and
/// the subscript view) have exactly one read in the whole function — that
/// read always observes the producer's write, so skipping the register
/// file is unobservable — and no member after the head is a **jump
/// target**, since control flow entering mid-window would skip the elided
/// producers. (The head may be a target: the whole window maps to the
/// superinstruction's pc.) Read counting also subsumes every aliasing
/// hazard: an operand of any member that re-reads an intermediate pushes
/// its count past one and blocks the rewrite. The scan is greedy
/// left-to-right and a matched window's members are consumed, so decode
/// order, never scheduling, decides the outcome.
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

    /// The indexed accessor load starting at `i`, if the window there is
    /// one and legal; its [`Instr::op_weight`] is the window's length.
    fn fuse_at(&self, code: &[Instr], i: usize) -> Option<Instr> {
        let Some([a, b, c]) = code.get(i..i + 3) else {
            return None;
        };
        if self.is_target[i + 1] || self.is_target[i + 2] {
            return None;
        }
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

/// Peephole-fuse the hot instruction window of a decoded plan into its
/// superinstruction, in place, and return the number of windows fused.
/// The device fuses every plan it caches.
///
/// The one pattern is `ChainMatcher`'s **indexed accessor load**
/// (`vec.ctor` + `acc.subscript` + `Load` → [`Instr::AccLoadIndexed`]),
/// the accessor read every benchmark kernel's inner loop makes. Its
/// executor arm expands the same steps as its members' own arms, in
/// window order, so it bumps the same statistics and raises the same
/// errors, in the same order, as the window it replaces: fused execution
/// is bit-identical to unfused execution — the differential suite holds
/// the fused plan against the tree-walk reference, and
/// `tests/plan_fuzz.rs` against the unfused plan.
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
///   peephole pattern requires, so the hottest pairs here are the ranked
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
