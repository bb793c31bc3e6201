//! Peephole fusion: the `ChainMatcher` pattern and the pass that applies
//! it.

use super::instr::Instr;
use super::slot::Reg;
use super::KernelPlan;

/// The reified fusion pass over one plan: the dataflow facts a legal
/// rewrite depends on — plan-wide register read counts and the
/// jump-target set — and the one pattern they are checked against, the
/// **indexed accessor load** `vec.ctor` + `acc.subscript` + `Load`.
///
/// **Legality** is one rule: the window may collapse into one
/// superinstruction when both **elided intermediates** (the id vector and
/// the subscript view) have exactly one read in the whole plan — that
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
    /// How often each register is read anywhere in the plan.
    reads: Vec<u32>,
    /// Positions control flow can enter other than by fall-through.
    is_target: Vec<bool>,
}

impl ChainMatcher {
    fn new(plan: &KernelPlan) -> ChainMatcher {
        let mut reads = vec![0_u32; plan.reg_count as usize];
        for instr in &plan.code {
            instr.reads(|r| reads[r as usize] += 1);
        }
        let mut is_target = vec![false; plan.code.len() + 1];
        for t in plan.code.iter().filter_map(Instr::target) {
            is_target[t as usize] = true;
        }
        ChainMatcher { reads, is_target }
    }

    /// Whether `r` is a pure intermediate whose write the rewrite may
    /// elide: read exactly once in the whole plan.
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
    let matcher = ChainMatcher::new(plan);
    let n = plan.code.len();
    let mut new_code: Vec<Instr> = Vec::with_capacity(n);
    // Old pc -> new pc (every member of a fused window maps to the
    // superinstruction, so jumps to the window head land on the fusion).
    let mut remap = vec![0_u32; n + 1];
    let mut fused = 0;
    let mut i = 0;
    while i < n {
        let instr = match matcher.fuse_at(&plan.code, i) {
            Some(s) => {
                fused += 1;
                s
            }
            None => plan.code[i].clone(),
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
    plan.code = new_code;
    fused
}
