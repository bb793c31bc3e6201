//! Shared by `tests/hazard_graph_diff.rs` and `tests/scheduler_stress.rs`:
//! the all-pairs hazard builder `Queue::dependencies` replaced, kept as
//! the reference both suites hold the hazard table to, and the seeded
//! random command-group generator both draw their queues from. For
//! `tests/plan_fuzz.rs`: the single-launch form of the scheduler's one
//! entry point. For `tests/cse_diff.rs`: the string-keyed CSE the
//! structural expression table replaced. For it and `tests/ir_golden.rs`:
//! the textual round trip every printed module must make.

// Each including test crate uses its own subset.
#![allow(dead_code)]

use proptest::test_runner::TestRng;
use std::collections::HashMap;
use std::rc::Rc;
use sycl_mlir_repro::ir::{
    parse_module, print_module, traits, Context, Module, OpId, Type, ValueId,
};
use sycl_mlir_repro::runtime::{BufferId, CgArg, CommandGroup, HostOp, Queue, SyclRuntime, UsmId};
use sycl_mlir_repro::sim::{
    run_plan_graph_report, CostModel, ExecLimits, ExecStats, LaunchDag, MemoryPool, PlanLaunch,
    SimError,
};
use sycl_mlir_repro::sycl::types::AccessMode;

/// Run `launch` alone on `threads` workers under `limits` and `cost`: its
/// statistics when it completed, else its failure.
pub fn run_launch(
    launch: PlanLaunch<'_>,
    pool: &mut MemoryPool,
    threads: usize,
    limits: &ExecLimits,
    cost: &CostModel,
) -> Result<ExecStats, SimError> {
    let dag = LaunchDag::independent(1);
    let mut report =
        run_plan_graph_report(&[launch], &dag, pool, cost, threads, false, limits, None)?;
    Ok(report.stats.remove(0))
}

// ----------------------------------------------------------------------
// The reference: every direct hazard, by comparing every pair of groups
// ----------------------------------------------------------------------

/// Buffers a command group reads / writes.
fn reads_writes(group: &CommandGroup) -> (Vec<BufferId>, Vec<BufferId>) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for a in &group.args {
        if let Some((b, mode)) = a.accessor() {
            if mode.can_read() {
                reads.push(b);
            }
            if mode.can_write() {
                writes.push(b);
            }
        }
    }
    (reads, writes)
}

/// USM allocations a command group touches. USM pointers carry no access
/// mode (they are opaque to the runtime, §II-A), so dependency tracking
/// must assume read+write on each.
fn usm_ids(group: &CommandGroup) -> Vec<UsmId> {
    group
        .args
        .iter()
        .filter_map(|a| match a {
            CgArg::Usm { id, .. } => Some(*id),
            _ => None,
        })
        .collect()
}

/// `Queue::dependencies` as it was before the hazard table: one edge per
/// pair of command groups with a RAW, WAR or WAW hazard on a buffer or a
/// shared USM allocation, sorted by `(after, before)`.
pub fn reference_dependencies(queue: &Queue) -> Vec<(usize, usize)> {
    let rw: Vec<_> = queue.groups.iter().map(reads_writes).collect();
    let usm: Vec<_> = queue.groups.iter().map(usm_ids).collect();
    let mut edges = Vec::new();
    for j in 0..queue.groups.len() {
        let (rj, wj) = &rw[j];
        for i in 0..j {
            let (ri, wi) = &rw[i];
            let raw = wi.iter().any(|b| rj.contains(b));
            let war = ri.iter().any(|b| wj.contains(b));
            let waw = wi.iter().any(|b| wj.contains(b));
            let shared_usm = usm[i].iter().any(|u| usm[j].contains(u));
            if raw || war || waw || shared_usm {
                edges.push((i, j));
            }
        }
    }
    edges
}

// ----------------------------------------------------------------------
// The reference: CSE keyed by the printed form of every attribute
// ----------------------------------------------------------------------

/// Structural key for CSE: op name + operands + attributes + result types
/// (two `arith.constant 1`s of type `i32` and `index` must not merge).
#[derive(PartialEq, Eq, Hash)]
struct CseKey {
    name: u32,
    operands: Vec<ValueId>,
    attrs: Vec<(u32, String)>,
    result_types: Vec<Type>,
}

fn cse_key(m: &Module, op: OpId) -> CseKey {
    CseKey {
        name: m.op_name(op).0,
        operands: m.op_operands(op).to_vec(),
        attrs: m
            .op_attrs(op)
            .iter()
            .map(|(k, v)| (k.0, format!("{v}")))
            .collect(),
        result_types: m.op_results(op).iter().map(|&r| m.value_type(r)).collect(),
    }
}

/// The expressions available at the op being visited, scoped by dominance:
/// a block sees what the blocks around it bound, and what it binds itself
/// is dropped again when it ends.
#[derive(Default)]
struct CseScope {
    available: HashMap<Rc<CseKey>, Vec<ValueId>>,
    /// Every key in `available`, in insertion order; a block truncates it
    /// back to its entry length on exit.
    bound: Vec<Rc<CseKey>>,
}

/// `CsePass::run` as it was while its key held every attribute formatted
/// into a `String`: the definition of which ops are the same expression
/// that the structural key must reproduce. Returns whether anything merged.
pub fn reference_cse(m: &mut Module) -> bool {
    let top = m.top();
    let mut changed = false;
    cse_region_op(m, top, &mut CseScope::default(), &mut changed);
    changed
}

fn cse_region_op(m: &mut Module, op: OpId, scope: &mut CseScope, changed: &mut bool) {
    let regions = m.op_regions(op).to_vec();
    for region in regions {
        let blocks = m.region_blocks(region).to_vec();
        for block in blocks {
            let entry = scope.bound.len();
            let ops = m.block_ops(block).to_vec();
            for inner in ops {
                if m.op_is_erased(inner) {
                    continue;
                }
                let pure = m.op_has_trait(inner, traits::PURE | traits::CONSTANT_LIKE);
                if pure && m.op_regions(inner).is_empty() && !m.op_results(inner).is_empty() {
                    let key = cse_key(m, inner);
                    if let Some(existing) = scope.available.get(&key) {
                        let replacements = existing.clone();
                        m.replace_op(inner, &replacements);
                        *changed = true;
                        continue;
                    }
                    let key = Rc::new(key);
                    scope
                        .available
                        .insert(key.clone(), m.op_results(inner).to_vec());
                    scope.bound.push(key);
                }
                cse_region_op(m, inner, scope, changed);
            }
            // Nested scopes see outer bindings but cannot leak theirs out.
            for key in scope.bound.drain(entry..) {
                scope.available.remove(&key);
            }
        }
    }
}

// ----------------------------------------------------------------------
// The random command-group generator
// ----------------------------------------------------------------------

pub const LEN: i64 = 32;

/// One kernel argument of a generated submission: a buffer accessor or a
/// USM allocation (aliasing is the point — several submissions naming the
/// same id exercise the hazard edges).
#[derive(Clone, Copy, Debug)]
pub enum Arg {
    Buf(usize),
    Usm(usize),
}

/// One generated command group.
#[derive(Clone, Debug)]
pub enum Sub {
    /// `combine(src read, dst read+write)`.
    Combine {
        src: Arg,
        dst: Arg,
        global: i64,
        local: i64,
    },
    /// `scale_io(a read+write)`.
    ScaleIo { a: Arg, global: i64, local: i64 },
    /// `gather(idx read, src read, dst read+write)` — the sparse-family
    /// indirect-index shape: the subscript into `src` is *loaded* from
    /// the shared index buffer.
    Gather {
        src: Arg,
        dst: Arg,
        global: i64,
        local: i64,
    },
    /// `wg_sum(a read+write)` — the reduction-family shape: a
    /// work-group-local tile plus a barrier ladder; each group replaces
    /// its slice of `a` with the group sum.
    WgSum { a: Arg, global: i64 },
    /// A kernel with work-groups >= 2 stuck at a divergent barrier.
    BadLate { global: i64, local: i64 },
    /// A host task over buffers.
    Host(HostOp),
}

/// The fixed work-group size of `wg_sum` (its barrier ladder is unrolled
/// at build time, so the launch must match).
pub const WG_SUM_LOCAL: i64 = 8;

/// A fully determined random graph: initial data plus the submission list.
pub struct GraphSpec {
    pub bufs: Vec<Vec<f32>>,
    pub usms: Vec<Vec<f32>>,
    /// The shared index buffer `gather` reads through (in-bounds values;
    /// allocated after the f32 buffers so their ids stay stable).
    pub idx: Vec<i32>,
    pub subs: Vec<Sub>,
}

impl GraphSpec {
    pub fn generate(seed: u64) -> GraphSpec {
        let mut rng = TestRng::new(seed);
        let n_buf = 2 + rng.below(3);
        let n_usm = 1 + rng.below(2);
        let bufs = (0..n_buf)
            .map(|b| {
                (0..LEN)
                    .map(|i| (i as f32) * 0.25 + b as f32)
                    .collect::<Vec<f32>>()
            })
            .collect();
        let usms = (0..n_usm)
            .map(|u| {
                (0..LEN)
                    .map(|i| (i as f32) * 0.5 - u as f32)
                    .collect::<Vec<f32>>()
            })
            .collect();
        let idx = (0..LEN).map(|_| rng.below(LEN as usize) as i32).collect();
        let n_sub = 1 + rng.below(64);
        // ~1 in 8 graphs carries one divergent kernel at a random spot.
        let bad_at = if rng.below(8) == 0 {
            Some(rng.below(n_sub))
        } else {
            None
        };
        let mut subs = Vec::with_capacity(n_sub);
        for s in 0..n_sub {
            if bad_at == Some(s) {
                let local = [4, 8][rng.below(2)];
                subs.push(Sub::BadLate { global: LEN, local });
                continue;
            }
            let arg = |rng: &mut TestRng| -> Arg {
                if rng.below(4) == 0 {
                    Arg::Usm(rng.below(n_usm))
                } else {
                    Arg::Buf(rng.below(n_buf))
                }
            };
            let local = [4, 8][rng.below(2)];
            let global = [8, 16, 32][rng.below(3)].max(local);
            match rng.below(14) {
                0 | 1 => {
                    // Host task (buffers only).
                    let op = match rng.below(3) {
                        0 => HostOp::Scale {
                            buffer: BufferId(rng.below(n_buf)),
                            factor: [0.5, 2.0, 1.5][rng.below(3)],
                        },
                        1 => HostOp::Shift {
                            buffer: BufferId(rng.below(n_buf)),
                            delta: [1.0, -2.0][rng.below(2)],
                        },
                        _ => HostOp::AddInto {
                            dst: BufferId(rng.below(n_buf)),
                            src: BufferId(rng.below(n_buf)),
                        },
                    };
                    subs.push(Sub::Host(op));
                }
                2..=5 => subs.push(Sub::Combine {
                    src: arg(&mut rng),
                    dst: arg(&mut rng),
                    global,
                    local,
                }),
                6 | 7 => {
                    let src = arg(&mut rng);
                    let mut dst = arg(&mut rng);
                    // `gather` reads `src` at data-dependent positions
                    // while writing `dst[gid]`: if both name the same
                    // resource, the result depends on work-item order
                    // *within* the launch. Keep them distinct — aliasing
                    // across launches (the hazard DAG's job) is still
                    // generated freely.
                    match (src, dst) {
                        (Arg::Buf(a), Arg::Buf(b)) if a == b => dst = Arg::Buf((a + 1) % n_buf),
                        (Arg::Usm(a), Arg::Usm(b)) if a == b => dst = Arg::Buf(0),
                        _ => {}
                    }
                    subs.push(Sub::Gather {
                        src,
                        dst,
                        global,
                        local,
                    });
                }
                8 => subs.push(Sub::WgSum {
                    a: arg(&mut rng),
                    global: global.max(WG_SUM_LOCAL),
                }),
                _ => subs.push(Sub::ScaleIo {
                    a: arg(&mut rng),
                    global,
                    local,
                }),
            }
        }
        GraphSpec {
            bufs,
            usms,
            idx,
            subs,
        }
    }

    /// A fresh runtime with the spec's initial data (ids are allocation
    /// order, so every call produces the same id assignment).
    pub fn runtime(&self) -> SyclRuntime {
        let mut rt = SyclRuntime::new();
        for data in &self.bufs {
            rt.buffer_f32(data.clone(), &[LEN]);
        }
        // The index buffer comes after every f32 buffer so their ids
        // (allocation order) stay stable across the generator history.
        rt.buffer_i32(self.idx.clone(), &[LEN]);
        for data in &self.usms {
            rt.usm_alloc_f32(data.clone());
        }
        rt
    }

    /// The shared index buffer's id (allocated right after the f32
    /// buffers).
    pub fn idx_buf(&self) -> BufferId {
        BufferId(self.bufs.len())
    }

    /// Record the submissions on a queue.
    pub fn queue(&self) -> Queue {
        let mut q = Queue::new();
        for sub in &self.subs {
            match *sub {
                Sub::Combine {
                    src,
                    dst,
                    global,
                    local,
                } => {
                    q.submit(|h| {
                        match src {
                            Arg::Buf(b) => {
                                h.accessor(BufferId(b), AccessMode::Read);
                            }
                            Arg::Usm(u) => {
                                h.usm(UsmId(u), LEN);
                            }
                        }
                        match dst {
                            Arg::Buf(b) => {
                                h.accessor(BufferId(b), AccessMode::ReadWrite);
                            }
                            Arg::Usm(u) => {
                                h.usm(UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("combine", &[global], &[local]);
                    });
                }
                Sub::ScaleIo { a, global, local } => {
                    q.submit(|h| {
                        match a {
                            Arg::Buf(b) => {
                                h.accessor(BufferId(b), AccessMode::ReadWrite);
                            }
                            Arg::Usm(u) => {
                                h.usm(UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("scale_io", &[global], &[local]);
                    });
                }
                Sub::Gather {
                    src,
                    dst,
                    global,
                    local,
                } => {
                    q.submit(|h| {
                        h.accessor(self.idx_buf(), AccessMode::Read);
                        match src {
                            Arg::Buf(b) => {
                                h.accessor(BufferId(b), AccessMode::Read);
                            }
                            Arg::Usm(u) => {
                                h.usm(UsmId(u), LEN);
                            }
                        }
                        match dst {
                            Arg::Buf(b) => {
                                h.accessor(BufferId(b), AccessMode::ReadWrite);
                            }
                            Arg::Usm(u) => {
                                h.usm(UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("gather", &[global], &[local]);
                    });
                }
                Sub::WgSum { a, global } => {
                    q.submit(|h| {
                        match a {
                            Arg::Buf(b) => {
                                h.accessor(BufferId(b), AccessMode::ReadWrite);
                            }
                            Arg::Usm(u) => {
                                h.usm(UsmId(u), LEN);
                            }
                        }
                        h.parallel_for_nd("wg_sum", &[global], &[WG_SUM_LOCAL]);
                    });
                }
                Sub::BadLate { global, local } => {
                    q.submit(|h| h.parallel_for_nd("bad_late", &[global], &[local]));
                }
                Sub::Host(op) => {
                    q.submit(|h| h.host_task(op));
                }
            }
        }
        q
    }
}

/// Assert that the printed module `text` parses back (in `ctx`) into a
/// module that prints as `text` again; `what` names it in the failure.
pub fn assert_round_trips(ctx: &Context, text: &str, what: &str) {
    let reparsed = parse_module(ctx, text).unwrap_or_else(|e| panic!("{what}: {e}\n{text}"));
    assert!(
        print_module(&reparsed) == text,
        "{what}: the printed IR does not read back as itself"
    );
}
