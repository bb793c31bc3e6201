//! Unit tests of the pool module: the memory views, the launch DAG and
//! the scheduler over hand-written plans.

use super::arena::{ARENA_BIT, CONST_BIT};
use super::dag::critical_paths;
use super::protocol::{claim_chunk, graph_workers};
use super::*;
use crate::device::NdRangeSpec;
use crate::memory::{DataVec, Dtype, MemFault, MemId, MemoryPool};
use crate::plan::KernelPlan;
use crate::value::RtValue;
use crate::{KernelFault, SimError};

/// One access through a worker's pool: resolve, then the `Buf`.
fn load(pp: &mut PlanPool<'_, '_>, id: MemId, index: i64) -> Result<RtValue, MemFault> {
    Ok(pp.resolve(id)?.load(index)?.into())
}

fn store(pp: &mut PlanPool<'_, '_>, id: MemId, i: i64, v: RtValue) -> Result<(), MemFault> {
    pp.resolve(id)?.store(i, v)
}

#[test]
fn group_linearization_matches_sequential_order() {
    let groups = [2_i64, 3, 4];
    let mut expect = Vec::new();
    for g0 in 0..groups[0] {
        for g1 in 0..groups[1] {
            for g2 in 0..groups[2] {
                expect.push([g0, g1, g2]);
            }
        }
    }
    let nd = NdRangeSpec {
        global: groups.map(|g| 5 * g),
        local: [5; 3],
        rank: 3,
    };
    let got: Vec<[i64; 3]> = (0..expect.len()).map(|i| nd.group_at(i)).collect();
    assert_eq!(got, expect);
}

#[test]
fn shared_pool_roundtrip_and_arena_routing() {
    let mut pool = MemoryPool::new();
    let f = pool.alloc(DataVec::F32(vec![0.0; 4]));
    let l = pool.alloc(DataVec::I64(vec![0; 2]));
    {
        let shared = SharedPool::new(&pool);
        let mut pp = PlanPool::new(&shared);
        store(&mut pp, f, 1, RtValue::F32(1.5)).unwrap();
        store(&mut pp, l, 0, RtValue::Int(-3)).unwrap();
        assert_eq!(load(&mut pp, f, 1), Ok(RtValue::F32(1.5)));
        assert_eq!(load(&mut pp, l, 0), Ok(RtValue::Int(-3)));
        assert_eq!(pp.resolve(f).unwrap().dtype().bytes(), 4);
        assert_eq!(pp.resolve(l).unwrap().dtype().bytes(), 8);

        // Arena allocations are tagged and never alias shared ids.
        let a = pp.alloc(DataVec::I32(vec![7; 3])).unwrap();
        assert_ne!(a.0 & ARENA_BIT, 0);
        store(&mut pp, a, 2, RtValue::Int(9)).unwrap();
        assert_eq!(load(&mut pp, a, 2), Ok(RtValue::Int(9)));
        assert_eq!(load(&mut pp, a, 0), Ok(RtValue::Int(7)));
    }
    // Writes through the shared view landed in the original pool.
    assert_eq!(pool.load(f, 1), Ok(RtValue::F32(1.5)));
    assert_eq!(pool.load(l, 0), Ok(RtValue::Int(-3)));
}

#[test]
fn scratch_arena_recycles_buffers_across_work_groups() {
    let ctx = sycl_mlir_ir::Context::new();
    let f32t = ctx.f32_type();
    let pool = MemoryPool::new();
    let shared = SharedPool::new(&pool);
    let mut pp = PlanPool::new(&shared);

    // A dense-constant allocation persists across group boundaries…
    let k = pp.alloc(DataVec::F32(vec![4.5; 2])).unwrap();
    assert_ne!(k.0 & ARENA_BIT, 0);
    assert_ne!(k.0 & CONST_BIT, 0);

    // …while alloca scratch is recycled: same id, re-zeroed storage.
    let a = pp.alloc_zeroed(&f32t, 3).unwrap();
    assert_ne!(a.0 & ARENA_BIT, 0);
    assert_eq!(a.0 & CONST_BIT, 0);
    store(&mut pp, a, 1, RtValue::F32(7.0)).unwrap();
    assert_eq!(load(&mut pp, a, 1), Ok(RtValue::F32(7.0)));

    pp.scratch.reset();
    let a2 = pp.alloc_zeroed(&f32t, 3).unwrap();
    assert_eq!(a2, a, "matching allocation is recycled");
    assert_eq!(
        load(&mut pp, a2, 1),
        Ok(RtValue::F32(0.0)),
        "recycled storage re-zeroed"
    );

    // A shape/type mismatch at the cursor replaces the buffer.
    pp.scratch.reset();
    let b = pp.alloc_zeroed(&ctx.i64_type(), 5).unwrap();
    assert_eq!(b, a, "same slot, new storage");
    assert_eq!(load(&mut pp, b, 4), Ok(RtValue::Int(0)));
    assert_eq!(pp.resolve(b).unwrap().dtype().bytes(), 8);

    // The constant survived all resets.
    assert_eq!(load(&mut pp, k, 0), Ok(RtValue::F32(4.5)));
}

#[test]
fn shared_pool_bounds_checked() {
    let ctx = sycl_mlir_ir::Context::new();
    let mut pool = MemoryPool::new();
    let f = pool.alloc(DataVec::F32(vec![0.0; 2]));
    let shared = SharedPool::new(&pool);
    let oob = |buffer, index| {
        Err(MemFault::OutOfBounds {
            buffer,
            index,
            len: 2,
        })
    };
    let buf = shared.resolve(f).unwrap();
    assert_eq!(buf.load(5).map(RtValue::from), oob(Some(f), 5));
    assert_eq!(buf.store(-1, RtValue::F32(1.0)), oob(Some(f), -1).map(drop));
    let id = MemId(3);
    assert_eq!(
        shared.resolve(id).err(),
        Some(MemFault::UnknownBuffer { id })
    );
    // A worker's arenas are checked alike; an alloca has no id to name.
    let mut pp = PlanPool::new(&shared);
    let a = pp.alloc_zeroed(&ctx.f32_type(), 2).unwrap();
    assert_eq!(load(&mut pp, a, 2), oob(None, 2));
    let (buffer, dtype, value) = (None, Dtype::F32, "int");
    let mismatch = MemFault::TypeMismatch {
        buffer,
        dtype,
        value,
    };
    assert_eq!(store(&mut pp, a, 0, RtValue::Int(1)), Err(mismatch));
    // A proven site leaves the check to the slice index, for shared
    // buffers only: the arena buffer still faults, a shared one panics.
    let at = |id, i| pp.resolve(id).unwrap().load_at(true, i).map(RtValue::from);
    assert_eq!(at(a, 2), oob(None, 2));
    assert_eq!(at(f, 1), Ok(RtValue::F32(0.0)));
    let wrong_proof = std::panic::catch_unwind(|| at(f, 2));
    assert!(
        wrong_proof.is_err(),
        "a wrong proof panics, it does not read"
    );
}

/// The claim chunk is sized from the **clamped** worker count
/// (`graph_workers`), never the raw thread-count hint: a hint larger
/// than the graph must not distort per-launch chunking.
#[test]
fn chunk_sized_from_clamped_worker_count() {
    // Clamping: never more workers than groups; at least one worker.
    assert_eq!(graph_workers(4, 1000), 4);
    assert_eq!(graph_workers(64, 8), 8);
    assert_eq!(graph_workers(0, 8), 1);
    assert_eq!(graph_workers(16, 0), 1);

    // ~8 chunks per worker, floored at 1 and capped at 64.
    assert_eq!(claim_chunk(512, 4), 16);
    assert_eq!(claim_chunk(100, 4), 3);
    assert_eq!(claim_chunk(2, 64), 1);
    assert_eq!(claim_chunk(1 << 20, 1), 64);

    // The regression shape: a tiny graph under a huge thread hint.
    // The clamped count (what run_plan_graph_report feeds claim_chunk)
    // keeps every launch at fine-grained chunk 1 — and can never
    // exceed the chunk the raw hint would produce.
    let (threads, per_launch, graph_total) = (64_usize, 8_usize, 16_usize);
    let workers = graph_workers(threads, graph_total);
    assert_eq!(workers, 16);
    assert_eq!(claim_chunk(per_launch, workers), 1);
    for total in [1_usize, 8, 64, 512, 4096] {
        for threads in [1_usize, 4, 64, 1024] {
            for graph_total in [total, 4 * total] {
                let clamped = claim_chunk(total, graph_workers(threads, graph_total));
                let hinted = claim_chunk(total, threads.max(1));
                assert!(
                    clamped >= hinted,
                    "clamping must never shrink chunks below the hinted size"
                );
            }
        }
    }
}

/// A rank-1 global-memory view of the first `n` elements of `mem`.
fn global_view(mem: MemId, n: i64) -> RtValue {
    RtValue::MemRef(crate::value::MemRefVal {
        mem,
        offset: 0,
        shape: [n, 1, 1],
        rank: 1,
        space: crate::value::Space::Global,
    })
}

/// A minimal bytecode plan: `f32buf[gid] = f32buf[gid] + k`.
fn add_k_plan(k: f32) -> KernelPlan {
    use crate::plan::{DimSrc, FloatBin, Instr, ItemQ, Slot};
    let code = vec![
        Instr::ItemQuery {
            dst: 1,
            q: ItemQ::GlobalId,
            dim: DimSrc::Const(0),
        },
        Instr::Load {
            dst: 3,
            mem: 0,
            idx: [1, 0, 0],
            rank: 1,
            site: 0,
        },
        Instr::BinFloat {
            op: FloatBin::Add,
            dst: 4,
            l: 3,
            r: 2,
            f32_out: true,
        },
        Instr::Store {
            val: 4,
            mem: 0,
            idx: [1, 0, 0],
            rank: 1,
            site: 1,
        },
        Instr::Return,
    ];
    KernelPlan {
        code,
        reg_count: 5,
        params: vec![0],
        has_item_param: false,
        consts: vec![(2, Slot::F32(k))],
        dense_consts: Vec::new(),
        mem_sites: 2,
        local_sites: 0,
    }
}

/// An empty launch (zero work-groups) in the middle of a dependency
/// chain must retire eagerly: its successor still runs, after its
/// predecessor, under every worker count — and an all-empty graph
/// terminates instead of deadlocking.
#[test]
fn empty_launch_in_a_chain_retires_eagerly() {
    let plan_a = add_k_plan(1.0);
    let plan_c = add_k_plan(10.0);
    let n = 16_i64;
    for threads in [1_usize, 4] {
        let mut pool = MemoryPool::new();
        let mf = pool.alloc(DataVec::F32(vec![0.0; n as usize]));
        let args = [global_view(mf, n)];
        let launches = [
            PlanLaunch::kernel(&plan_a, &args, NdRangeSpec::d1(n, 4)),
            // The empty middle launch: zero global range.
            PlanLaunch::kernel(&plan_a, &args, NdRangeSpec::d1(0, 4)),
            PlanLaunch::kernel(&plan_c, &args, NdRangeSpec::d1(n, 4)),
        ];
        let dag = LaunchDag::chain(3);
        let out = run_graph(&launches, &dag, &mut pool, threads)
            .expect("chain through an empty launch completes");
        assert_eq!(out.stats.len(), 3);
        assert_eq!(out.stats[1].work_groups, 0, "empty launch ran no groups");
        assert_eq!(out.stats[1].work_items, 0);
        assert_eq!(out.stats[1].global_accesses, 0);
        let DataVec::F32(f) = pool.read(mf) else {
            panic!()
        };
        // A then C: 0 + 1 + 10, for every element.
        assert_eq!(f, vec![11.0_f32; n as usize], "threads={threads}");
    }

    // An all-empty graph (including chained empties) terminates.
    let mut pool = MemoryPool::new();
    let mf = pool.alloc(DataVec::F32(vec![0.0; n as usize]));
    let args = [global_view(mf, n)];
    let empties = [
        PlanLaunch::kernel(&plan_a, &args, NdRangeSpec::d1(0, 4)),
        PlanLaunch::kernel(&plan_a, &args, NdRangeSpec::d1(0, 4)),
    ];
    let out =
        run_graph(&empties, &LaunchDag::chain(2), &mut pool, 4).expect("all-empty graph completes");
    assert_eq!(out.stats.len(), 2);
    assert!(out.stats.iter().all(|s| s.work_groups == 0));
}

/// `x = buf[gid]`, a barrier, `buf[gid] = x + 1` and `100 / div[gid]`:
/// 9 registers, 3 memory sites. A zero divisor fails its work-item after
/// the barrier, while later siblings are still suspended at it.
fn barrier_div_plan() -> KernelPlan {
    use crate::plan::{DimSrc, FloatBin, Instr, IntBin, ItemQ, Slot};
    let code = vec![
        Instr::ItemQuery {
            dst: 2,
            q: ItemQ::GlobalId,
            dim: DimSrc::Const(0),
        },
        Instr::Load {
            dst: 3,
            mem: 1,
            idx: [2, 0, 0],
            rank: 1,
            site: 0,
        },
        Instr::Load {
            dst: 4,
            mem: 0,
            idx: [2, 0, 0],
            rank: 1,
            site: 1,
        },
        Instr::Barrier,
        Instr::BinFloat {
            op: FloatBin::Add,
            dst: 6,
            l: 4,
            r: 5,
            f32_out: true,
        },
        Instr::BinInt {
            op: IntBin::DivS,
            dst: 8,
            l: 7,
            r: 3,
        },
        Instr::Store {
            val: 6,
            mem: 0,
            idx: [2, 0, 0],
            rank: 1,
            site: 2,
        },
        Instr::Return,
    ];
    KernelPlan {
        code,
        reg_count: 9,
        params: vec![0, 1],
        has_item_param: false,
        consts: vec![(5, Slot::F32(1.0)), (7, Slot::Int(100))],
        dense_consts: Vec::new(),
        mem_sites: 3,
        local_sites: 0,
    }
}

/// A worker's work-item slots carry nothing from one work-group to
/// the next, whatever state the previous group left them in. Launch A,
/// submitted last, fails in its middle group with one item finished,
/// one failed mid-kernel and two suspended at a barrier (uneven visit
/// counters). The
/// earlier, independent launches B (fewer registers and sites, smaller
/// group) and C (a larger group than either, so it re-binds the
/// suspended slots and grows new ones) sit below the failure, so they
/// run — at `threads=1` on those slots, after A by critical-path
/// priority (3 > 2 > 1 groups) — and must leave the buffers the same
/// launches leave alone. A's failure keeps its `(launch, group)`
/// position and text.
#[test]
fn work_item_slots_are_isolated_across_a_failed_group() {
    let plan_a = barrier_div_plan();
    let plan_b = add_k_plan(2.0);
    let plan_c = add_k_plan(3.0);
    let init = |n: i64| DataVec::F32((0..n).map(|i| i as f32 * 0.5).collect());
    let (nd_a, nd_b, nd_c) = (
        NdRangeSpec::d1(12, 4),
        NdRangeSpec::d1(4, 2),
        NdRangeSpec::d1(8, 8),
    );
    // One launch alone, on fresh slots and a fresh pool.
    let alone = |plan: &KernelPlan, nd: NdRangeSpec| {
        let mut pool = MemoryPool::new();
        let mem = pool.alloc(init(nd.global[0]));
        let args = [global_view(mem, nd.global[0])];
        run_one_launch(plan, &args, nd, &mut pool, 1).expect("a clean launch completes");
        pool.read(mem)
    };
    let want_b_buf = alone(&plan_b, nd_b);
    let want_c_buf = alone(&plan_c, nd_c);

    for threads in [1_usize, 4] {
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(init(12));
        // Work-item 5 — the second item of the middle group — divides
        // by zero.
        let md = pool.alloc(DataVec::I64((0..12).map(|i| (i != 5) as i64).collect()));
        let mb = pool.alloc(init(4));
        let mc = pool.alloc(init(8));
        let args_a = [global_view(ma, 12), global_view(md, 12)];
        let args_b = [global_view(mb, 4)];
        let args_c = [global_view(mc, 8)];
        let launches = [
            PlanLaunch::kernel(&plan_b, &args_b, nd_b),
            PlanLaunch::kernel(&plan_c, &args_c, nd_c),
            PlanLaunch::kernel(&plan_a, &args_a, nd_a),
        ];
        let error = run_graph(&launches, &LaunchDag::independent(3), &mut pool, threads)
            .expect_err("launch A fails");
        assert_eq!(
            error.message(),
            "division by zero (launch 2, work-group 1)",
            "threads={threads}"
        );
        assert_eq!(
            error,
            SimError::Kernel {
                fault: KernelFault::DivisionByZero,
                at: Some((2, 1)),
            },
            "threads={threads}"
        );
        assert_eq!(pool.read(mb), want_b_buf, "threads={threads}");
        assert_eq!(pool.read(mc), want_c_buf, "threads={threads}");
        // A's first group completed; in the failing group only the
        // item ahead of the division by zero stored.
        let DataVec::F32(a) = pool.read(ma) else {
            panic!()
        };
        assert_eq!(a[..6], [1.0, 1.5, 2.0, 2.5, 3.0, 2.5], "threads={threads}");
    }
}

#[test]
fn launch_dag_constructors() {
    // Diamond: 0 -> {1, 2} -> 3.
    let dag = LaunchDag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    assert_eq!(dag.preds, vec![0, 1, 1, 2]);
    assert_eq!(dag.succs, vec![vec![1, 2], vec![3], vec![3], vec![]]);

    let chain = LaunchDag::chain(3);
    assert_eq!(chain.preds, vec![0, 1, 1]);
    assert_eq!(chain.succs, vec![vec![1], vec![2], vec![]]);
    assert_eq!(
        LaunchDag::independent(3).succs,
        vec![Vec::<usize>::new(); 3]
    );
    assert!(LaunchDag::independent(0).is_empty());
}

/// What the scheduler derives from the edges — the ready set's
/// critical-path keys — is a function of reachability: a dense edge
/// set, the sparse one it is the closure of, and anything in between
/// give the same answers. (It is why the runtime's hazard table may
/// emit far fewer edges than there are direct hazards.)
#[test]
fn critical_paths_depend_on_reachability_only() {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut below = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for _ in 0..50 {
        let n = 2 + below(40);
        // Random forward edges and their transitive closure
        // (`ancestors[j][i]`: a path leads from `i` to `j`).
        let mut sparse = Vec::new();
        let mut ancestors: Vec<Vec<bool>> = Vec::with_capacity(n);
        for j in 0..n {
            let mut row = vec![false; n];
            for _ in 0..below(3).min(j) {
                let i = below(j);
                if !row[i] {
                    sparse.push((i, j));
                }
                row[i] = true;
                for (r, a) in row.iter_mut().zip(&ancestors[i]) {
                    *r |= a;
                }
            }
            ancestors.push(row);
        }
        let dense: Vec<_> = (0..n)
            .flat_map(|j| (0..j).map(move |i| (i, j)))
            .filter(|&(i, j)| ancestors[j][i])
            .collect();
        // In between: the sparse edges plus every third implied one.
        let mut between = sparse.clone();
        between.extend(dense.iter().filter(|e| !sparse.contains(e)).step_by(3));
        assert!(sparse.len() <= between.len() && between.len() <= dense.len());

        // Weights include empty launches (which weigh 1).
        let geometry: Vec<_> = (0..n).map(|_| ([1, 1, 1], below(6))).collect();
        let want = LaunchDag::from_edges(n, &dense);
        for edges in [&sparse, &between] {
            let got = LaunchDag::from_edges(n, edges);
            assert_eq!(
                critical_paths(&got, &geometry),
                critical_paths(&want, &geometry)
            );
        }
    }
}

#[test]
fn malformed_graphs_are_rejected() {
    // Wrong length.
    assert!(LaunchDag::independent(2).validate(3).is_err());
    // Inconsistent predecessor counts.
    let bad = LaunchDag {
        preds: vec![0, 0],
        succs: vec![vec![1], vec![]],
    };
    assert!(bad.validate(2).is_err());
    // A backward edge and a self-loop: every edge must point forward.
    let backward = LaunchDag {
        preds: vec![1, 0],
        succs: vec![vec![], vec![0]],
    };
    let self_loop = LaunchDag {
        preds: vec![0, 1],
        succs: vec![vec![], vec![1]],
    };
    for dag in [backward, self_loop] {
        let err = dag.validate(2).unwrap_err().message();
        assert!(err.contains("does not point forward"), "{err}");
    }
    // Out-of-range edge.
    let oob = LaunchDag {
        preds: vec![0, 1],
        succs: vec![vec![5], vec![]],
    };
    assert!(oob.validate(2).is_err());
    // Well-formed.
    assert!(LaunchDag::chain(4).validate(4).is_ok());
}

/// Retiring a launch hands its best newly ready single-chunk successor
/// to the retiring worker and publishes the rest: a launch of several
/// claim chunks is never handed off, so other workers can join it.
#[test]
fn only_a_single_chunk_successor_is_handed_off() {
    use super::protocol::Scheduler;
    // 0 -> {1, 2, 3}, 3 -> 4. Launch 1 has 64 groups: eight chunks of
    // eight for one worker, and the longest critical path. Launches 2 and
    // 3 are one group each; 3 leads to 4, so it ranks above 2.
    let dag = LaunchDag::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
    let one = ([1, 1, 1], 1);
    let geometry = [one, ([64, 1, 1], 64), one, one, one];
    let sched = Scheduler::new(&dag, &geometry, 1, Vec::new());
    assert_eq!(sched.acquire(), Some(0));
    let chunk = sched.claim(0).expect("launch 0 has one group");
    assert_eq!(sched.complete(0, chunk.len()), Some(3), "3 is handed off");
    // The multi-chunk launch was published, and leads the ready set.
    assert_eq!(sched.acquire(), Some(1));
    let mut handed = None;
    while let Some(chunk) = sched.claim(1) {
        assert!(chunk.len() < 64, "claimed in chunks");
        handed = handed.or(sched.complete(1, chunk.len()));
    }
    assert_eq!(handed, None, "launch 1 has no successor");
    // 2 was published, 3 never was: the worker runs it because it was
    // handed to it, and its retire hands on 4.
    assert_eq!(sched.acquire(), Some(2));
    let chunk = sched.claim(3).expect("launch 3 is unclaimed");
    assert_eq!(sched.complete(3, chunk.len()), Some(4));

    // A lone successor of several chunks is published, not handed off.
    let dag = LaunchDag::chain(2);
    let sched = Scheduler::new(&dag, &[one, ([64, 1, 1], 64)], 1, Vec::new());
    assert_eq!(sched.acquire(), Some(0));
    let chunk = sched.claim(0).expect("launch 0 has one group");
    assert_eq!(sched.complete(0, chunk.len()), None);
    assert_eq!(sched.acquire(), Some(1));
}
