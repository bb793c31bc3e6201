//! Unit tests of the pool module: the memory views, the launch DAG and
//! the scheduler over hand-written plans.

use super::arena::{ARENA_BIT, CONST_BIT};
use super::dag::critical_paths;
use super::protocol::{claim_chunk, graph_workers};
use super::*;
use crate::cost::CostModel;
use crate::device::NdRangeSpec;
use crate::limits::ExecLimits;
use crate::memory::{DataVec, Dtype, MemFault, MemId, MemoryPool};
use crate::plan::KernelPlan;
use crate::value::RtValue;

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
        let shared = SharedPool::new(&mut pool);
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
    let mut pool = MemoryPool::new();
    let shared = SharedPool::new(&mut pool);
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
    let shared = SharedPool::new(&mut pool);
    let oob = |buffer, index| {
        Err(MemFault::OutOfBounds {
            buffer,
            index,
            len: 2,
        })
    };
    let view = HostView::new(&shared);
    assert_eq!(view.load(f, 5), oob(Some(f), 5));
    assert_eq!(
        view.store(f, -1, RtValue::F32(1.0)),
        oob(Some(f), -1).map(drop)
    );
    let id = MemId(3);
    assert_eq!(view.load(id, 0), Err(MemFault::UnknownBuffer { id }));
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
    // A proven site skips the check for shared buffers only.
    // SAFETY: index 1 of the two-element `f` is in range, as a site
    // proof would have it; the arena buffer is compared regardless.
    unsafe {
        let at = |pp: &mut PlanPool<'_, '_>, id, i| {
            let buf = pp.resolve(id).unwrap();
            buf.load_at(true, i).map(RtValue::from)
        };
        assert_eq!(at(&mut pp, a, 2), oob(None, 2));
        assert_eq!(at(&mut pp, f, 1), Ok(RtValue::F32(0.0)));
    }
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
    use crate::plan::{DimSrc, FloatBin, FuncPlan, Instr, ItemQ, Slot};
    let code = vec![
        Instr::ItemQuery {
            dst: 1,
            q: ItemQ::GlobalId,
            dim: DimSrc::Const(0),
        },
        Instr::Const {
            dst: 2,
            val: Slot::F32(k),
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
        Instr::Return {
            vals: Vec::new().into_boxed_slice(),
        },
    ];
    KernelPlan {
        funcs: vec![FuncPlan {
            code,
            reg_count: 5,
            params: vec![0],
            has_item_param: false,
        }],
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
        let DataVec::F32(f) = pool.data(mf) else {
            panic!()
        };
        // A then C: 0 + 1 + 10, for every element.
        assert_eq!(f, &vec![11.0_f32; n as usize], "threads={threads}");
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

/// `buf[gid] = callee(buf, gid); 100 / div[gid]`, where the callee
/// loads `buf[gid]`, waits at a barrier and returns the value plus
/// one: 8 kernel + 5 callee registers, 3 memory sites. A zero divisor
/// fails its work-item after the barrier, while later siblings are
/// still suspended inside the callee.
fn callee_barrier_div_plan() -> KernelPlan {
    use crate::plan::{DimSrc, FloatBin, FuncPlan, Instr, IntBin, ItemQ, Slot};
    let kernel = vec![
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
        Instr::Call {
            func: 1,
            args: vec![0, 2].into_boxed_slice(),
            results: vec![4].into_boxed_slice(),
        },
        Instr::Const {
            dst: 5,
            val: Slot::Int(100),
        },
        Instr::BinInt {
            op: IntBin::DivS,
            dst: 6,
            l: 5,
            r: 3,
        },
        Instr::Store {
            val: 4,
            mem: 0,
            idx: [2, 0, 0],
            rank: 1,
            site: 1,
        },
        Instr::Return {
            vals: Vec::new().into_boxed_slice(),
        },
    ];
    let callee = vec![
        Instr::Load {
            dst: 2,
            mem: 0,
            idx: [1, 0, 0],
            rank: 1,
            site: 2,
        },
        Instr::Barrier,
        Instr::Const {
            dst: 3,
            val: Slot::F32(1.0),
        },
        Instr::BinFloat {
            op: FloatBin::Add,
            dst: 4,
            l: 2,
            r: 3,
            f32_out: true,
        },
        Instr::Return {
            vals: vec![4].into_boxed_slice(),
        },
    ];
    KernelPlan {
        funcs: vec![
            FuncPlan {
                code: kernel,
                reg_count: 8,
                params: vec![0, 1],
                has_item_param: false,
            },
            FuncPlan {
                code: callee,
                reg_count: 5,
                params: vec![0, 1],
                has_item_param: false,
            },
        ],
        dense_consts: Vec::new(),
        mem_sites: 3,
        local_sites: 0,
    }
}

/// A worker's work-item slots carry nothing from one work-group to
/// the next, whatever state the previous group left them in. Launch A
/// fails in its middle group with one item finished, one failed
/// mid-kernel and two suspended at a barrier inside a callee (two
/// frames, a grown register file, uneven visit counters). The
/// independent launches B (fewer registers and sites, smaller group)
/// and C (a larger group than either, so it re-binds the suspended
/// slots and grows new ones) then run on those slots — at `threads=1`
/// in exactly that order, by critical-path priority — and must match
/// the same launches run alone: buffers, statistics (coalesced
/// transactions read the visit counters) and cycles. A's failure
/// keeps its `(launch, group)` position and text.
#[test]
fn work_item_slots_are_isolated_across_a_failed_group() {
    let plan_a = callee_barrier_div_plan();
    let plan_b = add_k_plan(2.0);
    let plan_c = add_k_plan(3.0);
    let init = |n: i64| DataVec::F32((0..n).map(|i| i as f32 * 0.5).collect());
    let (nd_a, nd_b, nd_c) = (
        NdRangeSpec::d1(12, 4),
        NdRangeSpec::d1(4, 2),
        NdRangeSpec::d1(8, 8),
    );
    let cost = CostModel::default();
    // One launch alone, on fresh slots and a fresh pool.
    let alone = |plan: &KernelPlan, nd: NdRangeSpec| {
        let mut pool = MemoryPool::new();
        let mem = pool.alloc(init(nd.global[0]));
        let args = [global_view(mem, nd.global[0])];
        let stats =
            run_one_launch(plan, &args, nd, &mut pool, 1).expect("a clean launch completes");
        (stats, pool.data(mem).clone())
    };
    let (want_b, want_b_buf) = alone(&plan_b, nd_b);
    let (want_c, want_c_buf) = alone(&plan_c, nd_c);
    assert!(want_b.global_transactions > 0 && want_c.device_cycles > 0.0);

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
            PlanLaunch::kernel(&plan_a, &args_a, nd_a),
            PlanLaunch::kernel(&plan_b, &args_b, nd_b),
            PlanLaunch::kernel(&plan_c, &args_c, nd_c),
        ];
        let report = run_plan_graph_report(
            &launches,
            &LaunchDag::independent(3),
            &mut pool,
            &cost,
            threads,
            false,
            &ExecLimits::none(),
        )
        .expect("well-formed graph");
        let LaunchStatus::Failed { group, error } = &report.statuses[0] else {
            panic!(
                "threads={threads}: launch A must fail: {:?}",
                report.statuses[0]
            );
        };
        assert_eq!(*group, 1, "threads={threads}");
        assert_eq!(
            error.message(),
            "division by zero (launch 0, work-group 1)",
            "threads={threads}"
        );
        assert_eq!(
            report.statuses[1..],
            [LaunchStatus::Completed, LaunchStatus::Completed],
            "threads={threads}"
        );
        assert_eq!(report.stats[1], want_b, "threads={threads}");
        assert_eq!(report.stats[2], want_c, "threads={threads}");
        assert_eq!(pool.data(mb), &want_b_buf, "threads={threads}");
        assert_eq!(pool.data(mc), &want_c_buf, "threads={threads}");
        // A's first group completed; in the failing group only the
        // item ahead of the division by zero stored.
        let DataVec::F32(a) = pool.data(ma) else {
            panic!()
        };
        assert_eq!(a[..6], [1.0, 1.5, 2.0, 2.5, 3.0, 2.5], "threads={threads}");
    }
}

#[test]
fn launch_dag_constructors_and_levels() {
    // Diamond: 0 -> {1, 2} -> 3.
    let dag = LaunchDag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    assert_eq!(dag.preds, vec![0, 1, 1, 2]);
    assert_eq!(dag.succs, vec![vec![1, 2], vec![3], vec![3], vec![]]);
    assert_eq!(dag.levels(), vec![vec![0], vec![1, 2], vec![3]]);

    let chain = LaunchDag::chain(3);
    assert_eq!(chain.levels(), vec![vec![0], vec![1], vec![2]]);
    assert_eq!(LaunchDag::independent(3).levels(), vec![vec![0, 1, 2]]);
    assert_eq!(LaunchDag::independent(0).levels(), Vec::<Vec<usize>>::new());
}

/// What the scheduler derives from the edges — the ready set's
/// critical-path keys and the Kahn levels — is a function of
/// reachability: a dense edge set, the sparse one it is the closure
/// of, and anything in between give the same answers. (It is why the
/// runtime's hazard table may emit far fewer edges than there are
/// direct hazards.)
#[test]
fn critical_paths_and_levels_depend_on_reachability_only() {
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
            assert_eq!(got.levels(), want.levels());
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
    // A cycle.
    let cyclic = LaunchDag {
        preds: vec![1, 1],
        succs: vec![vec![1], vec![0]],
    };
    assert!(cyclic.validate(2).unwrap_err().message().contains("cycle"));
    // Out-of-range edge.
    let oob = LaunchDag {
        preds: vec![0, 1],
        succs: vec![vec![5], vec![]],
    };
    assert!(oob.validate(2).is_err());
    // Well-formed.
    assert!(LaunchDag::chain(4).validate(4).is_ok());
}
