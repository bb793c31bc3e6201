//! Parallel work-group execution: shared memory views, per-worker arenas
//! and the std::thread work-group scheduler.
//!
//! The work-group axis of an ND-range launch is embarrassingly parallel —
//! SYCL guarantees work-groups are independent (no barriers span groups,
//! and cross-group data races are undefined behaviour in the source
//! program). This module exploits that: work-groups are distributed over a
//! pool of OS threads, each running its groups' work-items co-operatively
//! exactly like the sequential engine.
//!
//! Three pieces make that safe and **deterministic**:
//!
//! * [`SharedPool`] — a launch-scoped view of the pre-existing device
//!   buffers (accessor-backed global memory): it resolves a [`MemId`] to
//!   a [`Buf`], whose element loads/stores go through raw typed pointers
//!   with bounds checks (a failing one is a [`MemFault`] value, never a
//!   panic), so concurrent access from many worker threads needs no
//!   locking. Distinct work-groups of a well-formed kernel touch disjoint
//!   elements; a kernel that races with itself is broken on real hardware
//!   too.
//! * [`PlanPool`] — the memory interface handed to the plan executor: the
//!   shared view plus two **worker-private arenas** for allocations made
//!   during execution — a persistent pool for dense-constant
//!   materializations and a recycling scratch arena for allocas
//!   (private `memref.alloca`, work-group `sycl.local.alloca`), rewound
//!   at every work-group boundary so repeated allocas reuse storage
//!   instead of growing the heap. Workers never mutate shared allocation
//!   tables, so there is no allocation lock; the top two bits of a
//!   [`MemId`] route accesses to the right side.
//! * [`run_plan_graph_report`] — the **out-of-order scheduler**, over a
//!   whole launch graph: kernel launches plus the hazard DAG ordering them
//!   ([`LaunchDag`]; a batch of independent launches is the edge-free
//!   graph, a single launch the graph of one). Each launch
//!   carries an atomic remaining-dependency counter; the worker that
//!   retires a launch's last work-group decrements its successors'
//!   counters and publishes newly-ready launches to a shared ready set —
//!   no level barrier anywhere. The ready set drains longest critical
//!   path first (ties broken by the smaller submission index) — ordering
//!   only moves wall time, never results. Host tasks join the same graph
//!   as [`HostNode`]s: single-group launches whose closure runs on a pool
//!   worker under the same hazard, metering and cancellation rules as
//!   kernels. Work-groups are claimed
//!   in per-worker **chunks** (adaptive to the launch's group count) so
//!   cursor contention stays low even for many tiny groups. Workers
//!   accumulate
//!   [`ExecStats`] locally per launch and the per-worker counters are
//!   summed per launch after the join. Every counter is an integer total
//!   over work-groups and the coalescing tracker resets per group, so
//!   the merged statistics — and the cycle model charged from them — are
//!   bit-identical for any worker count, schedule and interleaving.
//!
//! Determinism of errors: every failing work-group is recorded with its
//! `(launch, group)` position and the lexicographically smallest one is
//! reported — exactly the failure submission-order serial execution hits
//! first, under every thread count and schedule (groups below a launch's
//! eventual minimum are never skipped, so the minimum is always
//! executed). Everything a kernel or a host closure can get wrong arrives
//! as a [`SimError`] value; `catch_unwind` around a work-group is only
//! the backstop that carries a simulator bug's panic back to the
//! launching thread, where it is re-thrown.

use crate::cost::{Coalescer, CostModel, ExecStats};
use crate::device::{cooperative_rounds, items_of_group, NdRangeSpec};
use crate::interp::{LimitKind, SimError};
use crate::limits::{ExecLimits, FaultSite, OpMeter};
use crate::memory::{Buf, DataVec, Dtype, MemFault, MemId, MemoryPool};
use crate::plan::{KernelPlan, PlanCtx, PlanWorkItem};
use crate::value::RtValue;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Tag bit distinguishing worker-arena allocations from launch-shared
/// buffers in a [`MemId`].
const ARENA_BIT: u32 = 1 << 31;

/// Second tag bit (under [`ARENA_BIT`]): set for the worker's persistent
/// dense-constant pool, clear for the per-work-group scratch arena.
const CONST_BIT: u32 = 1 << 30;

// ----------------------------------------------------------------------
// SharedPool: lock-free views of the pre-launch buffers
// ----------------------------------------------------------------------

/// A launch-scoped, concurrently accessible view of every buffer that
/// existed in the [`MemoryPool`] when the launch started: one [`Buf`] per
/// buffer, which is where element accesses are checked and made.
///
/// Construction borrows the pool mutably for the whole launch, so no other
/// code can observe or resize the buffers while workers hold raw pointers
/// into them.
pub struct SharedPool<'p> {
    bufs: Vec<Buf<'p>>,
}

// SAFETY: the `Buf`s' raw pointers reference buffers exclusively borrowed
// for the lifetime `'p`; the view never grows or shrinks them, and every
// element access through a `Buf` is atomic (no mixed atomic/non-atomic
// access while the view is alive, since the borrow keeps all safe
// `MemoryPool` APIs unreachable).
unsafe impl Send for SharedPool<'_> {}
unsafe impl Sync for SharedPool<'_> {}

impl<'p> SharedPool<'p> {
    /// Snapshot every buffer of `pool` into a shareable view.
    pub fn new(pool: &'p mut MemoryPool) -> SharedPool<'p> {
        let bufs = pool
            .buffers_mut()
            .iter_mut()
            .enumerate()
            .map(|(i, data)| Buf::of(data, Some(MemId(i as u32)), true))
            .collect();
        SharedPool { bufs }
    }

    /// Buffer `id`, for one access.
    #[inline]
    pub fn resolve(&self, id: MemId) -> Result<Buf<'p>, MemFault> {
        let buf = self.bufs.get(id.0 as usize).copied();
        buf.ok_or(MemFault::UnknownBuffer { id })
    }
}

// ----------------------------------------------------------------------
// PlanPool: shared view + worker-private arenas
// ----------------------------------------------------------------------

/// A recycling allocator for per-execution allocations (private
/// `memref.alloca`, work-group `sycl.local.alloca`).
///
/// Kernels re-execute the same allocation sites for every work-item of
/// every work-group, so instead of growing a fresh buffer per execution
/// (the PR 2 behaviour — one heap allocation per dynamic alloca for the
/// whole launch), the arena keeps its buffers and a cursor: a reset (at
/// every work-group boundary) rewinds the cursor, and subsequent
/// allocations re-zero the existing buffer in place (a memset, no
/// malloc/free) whenever type and length match — which they always do
/// after the first group, since the allocation sequence of a kernel is
/// deterministic. Resetting between groups is sound because memrefs are
/// not storable values: no allocation can outlive its work-group.
#[derive(Default)]
struct ScratchArena {
    bufs: Vec<DataVec>,
    cursor: usize,
}

impl ScratchArena {
    /// Bytes of *new* storage the next [`ScratchArena::alloc_zeroed`] of
    /// `(elem, len)` would create: zero when the buffer at the cursor is
    /// recycled in place, the new buffer's size otherwise. This is what a
    /// memory cap meters — steady-state recycling is free, only growth
    /// (or a reshaping replacement) counts.
    fn growth_of(&self, elem: &sycl_mlir_ir::Type, len: usize) -> u64 {
        let dt = Dtype::of(elem);
        if let Some(buf) = self.bufs.get(self.cursor) {
            if buf.len() == len && buf.dtype() == dt {
                return 0;
            }
        }
        (len as u64).saturating_mul(dt.bytes() as u64)
    }

    /// Arena-local index of zero-filled storage for `len` elements of
    /// `elem`, recycling the buffer at the cursor when it matches.
    fn alloc_zeroed(&mut self, elem: &sycl_mlir_ir::Type, len: usize) -> u32 {
        let dt = Dtype::of(elem);
        let idx = self.cursor;
        self.cursor += 1;
        if let Some(buf) = self.bufs.get_mut(idx) {
            if buf.len() == len && buf.dtype() == dt {
                match buf {
                    DataVec::F32(v) => v.fill(0.0),
                    DataVec::F64(v) => v.fill(0.0),
                    DataVec::I32(v) => v.fill(0),
                    DataVec::I64(v) => v.fill(0),
                }
            } else {
                *buf = dt.zeroed(len);
            }
        } else {
            self.bufs.push(dt.zeroed(len));
        }
        idx as u32
    }

    /// Rewind the cursor; buffers are kept for recycling.
    fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// The memory interface of one plan-engine worker: launch-shared buffers
/// plus two private arenas for allocations made during execution — a
/// persistent pool for dense-constant materializations (they are cached
/// across work-groups and launches) and a recycling scratch arena for allocas,
/// recycled at every work-group boundary. Arena [`MemId`]s carry
/// a private tag bit (plus a second one for the persistent side); allocation
/// results can never escape to other workers (memrefs are not storable
/// values), so the split is invisible to kernels.
pub struct PlanPool<'a, 'p> {
    shared: &'a SharedPool<'p>,
    consts: MemoryPool,
    scratch: ScratchArena,
    /// Bytes of arena *growth* this worker may still allocate
    /// (`u64::MAX` = uncapped). Steady-state scratch recycling is free;
    /// only new or reshaped storage is charged, so a well-behaved kernel
    /// running many work-groups never trips the cap.
    mem_left: u64,
}

impl<'a, 'p> PlanPool<'a, 'p> {
    /// A fresh pool (empty arenas) over `shared`.
    pub fn new(shared: &'a SharedPool<'p>) -> PlanPool<'a, 'p> {
        PlanPool {
            shared,
            consts: MemoryPool::new(),
            scratch: ScratchArena::default(),
            mem_left: u64::MAX,
        }
    }

    /// Cap further arena growth at `bytes` (see `mem_left`).
    pub fn set_mem_cap(&mut self, bytes: u64) {
        self.mem_left = bytes;
    }

    /// Allocate `data` in the worker's persistent constant pool (dense
    /// constants: survives work-group and launch boundaries). Fails with
    /// [`LimitKind::Memory`] when a memory cap is set and exhausted.
    pub fn alloc(&mut self, data: DataVec) -> Result<MemId, SimError> {
        if self.mem_left != u64::MAX {
            let bytes = (data.len() as u64).saturating_mul(data.elem_bytes() as u64);
            if bytes > self.mem_left {
                return Err(SimError::limit(LimitKind::Memory));
            }
            self.mem_left -= bytes;
        }
        let id = self.consts.alloc(data);
        Ok(MemId(id.0 | ARENA_BIT | CONST_BIT))
    }

    /// Allocate zero-filled scratch storage for `len` elements of `elem`
    /// (allocas: recycled at the next work-group boundary). Fails with
    /// [`LimitKind::Memory`] when a memory cap is set and the arena would
    /// have to grow past it.
    pub fn alloc_zeroed(
        &mut self,
        elem: &sycl_mlir_ir::Type,
        len: usize,
    ) -> Result<MemId, SimError> {
        if self.mem_left != u64::MAX {
            let grown = self.scratch.growth_of(elem, len);
            if grown > self.mem_left {
                return Err(SimError::limit(LimitKind::Memory));
            }
            self.mem_left -= grown;
        }
        Ok(MemId(self.scratch.alloc_zeroed(elem, len) | ARENA_BIT))
    }

    /// Buffer `id`, for one access: a launch-shared buffer, or — by the
    /// id's tag bits — worker-private arena storage under the name its
    /// faults give it (dense constants: their index in the worker's
    /// constant pool; allocas: none).
    #[inline]
    pub fn resolve(&mut self, id: MemId) -> Result<Buf<'_>, MemFault> {
        let idx = id.0 & !(ARENA_BIT | CONST_BIT);
        if id.0 & ARENA_BIT == 0 {
            self.shared.resolve(id)
        } else if id.0 & CONST_BIT != 0 {
            let name = Some(MemId(idx));
            Ok(Buf::of(self.consts.data_mut(MemId(idx)), name, false))
        } else {
            Ok(Buf::of(&mut self.scratch.bufs[idx as usize], None, false))
        }
    }
}

/// Per-worker execution context of the plan engine: the memory interface,
/// the cost model, locally accumulated statistics and the per-work-group
/// coalescing log. The plan engine needs no IR access at run time, so
/// (unlike the tree-walk [`crate::interp::ExecCtx`]) this context carries
/// no `&Module` — which is what lets it cross thread boundaries.
pub struct PlanExecCtx<'a, 'p> {
    /// The worker's memory interface (shared buffers + private arenas).
    pub pool: PlanPool<'a, 'p>,
    /// The cost model charged per dynamic event.
    pub cost: &'a CostModel,
    /// Statistics accumulated by this worker (merged after the join).
    pub stats: ExecStats,
    /// The current work-group's coalescing tracker.
    pub coalescer: Coalescer,
}

impl<'a, 'p> PlanExecCtx<'a, 'p> {
    /// A fresh worker context over `shared` with zeroed statistics.
    pub fn new(shared: &'a SharedPool<'p>, cost: &'a CostModel) -> PlanExecCtx<'a, 'p> {
        PlanExecCtx {
            pool: PlanPool::new(shared),
            cost,
            stats: ExecStats::default(),
            coalescer: Coalescer::new(cost),
        }
    }

    /// Reset work-group-shared state and recycle the scratch arena (call
    /// between work-groups).
    pub fn next_work_group(&mut self) {
        self.coalescer.reset();
        self.pool.scratch.reset();
    }
}

// ----------------------------------------------------------------------
// The persistent worker pool
// ----------------------------------------------------------------------

/// A lifetime-erased job: a trampoline plus a pointer to the launch state
/// it operates on. The submitting launch keeps that state alive until its
/// completion latch reports every job finished, which is what makes the
/// erasure sound.
struct RawJob {
    run: unsafe fn(*const ()),
    ctx: *const (),
}

// SAFETY: the pointee is a `LaunchState` whose referents are `Sync`; the
// submitting thread blocks until the job completes.
unsafe impl Send for RawJob {}

struct PoolState {
    queue: VecDeque<RawJob>,
    spawned: usize,
}

/// The process-wide pool of simulator worker threads. Workers are spawned
/// lazily up to the largest worker count any launch has requested and then
/// parked on a condvar between launches — per-launch cost is a queue push
/// and a wakeup instead of an OS thread spawn (which dominates wall time
/// for the evaluation's many small launches).
struct WorkerPool {
    state: Mutex<PoolState>,
    available: Condvar,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| WorkerPool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            spawned: 0,
        }),
        available: Condvar::new(),
    })
}

/// Grow the pool to at least `n` workers.
fn ensure_workers(n: usize) {
    let p = pool();
    let mut st = p.state.lock().unwrap();
    while st.spawned < n {
        st.spawned += 1;
        std::thread::Builder::new()
            .name(format!("sim-worker-{}", st.spawned))
            .spawn(worker_main)
            .expect("failed to spawn simulator worker thread");
    }
}

/// Body of a pool worker: sleep until a job arrives, run it, repeat. The
/// trampoline never unwinds (panics are caught and carried to the
/// launching thread by the launch state), so a worker survives any number
/// of launches.
fn worker_main() {
    let p = pool();
    loop {
        let job = {
            let mut st = p.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                st = p.available.wait(st).unwrap();
            }
        };
        // SAFETY: the submitting launch keeps `job.ctx` alive until its
        // latch observes this job's completion.
        unsafe { (job.run)(job.ctx) };
    }
}

// ----------------------------------------------------------------------
// Launch dependency graphs
// ----------------------------------------------------------------------

/// The hazard DAG over a slice of launches: per-launch predecessor counts
/// and successor lists, indices parallel to the launch slice (for the
/// runtime's queue scheduler, submission order). Edges always point from
/// a smaller to a larger index in well-formed graphs (hazards respect
/// submission order), which is what makes them acyclic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchDag {
    /// Number of incoming hazard edges per launch.
    pub preds: Vec<usize>,
    /// Outgoing hazard edges per launch (ascending target indices).
    pub succs: Vec<Vec<usize>>,
}

impl LaunchDag {
    /// A graph of `n` mutually independent launches (no edges).
    pub fn independent(n: usize) -> LaunchDag {
        LaunchDag {
            preds: vec![0; n],
            succs: vec![Vec::new(); n],
        }
    }

    /// A total order: launch `i` depends on launch `i - 1` — the
    /// submission-order serial schedule expressed as a graph.
    pub fn chain(n: usize) -> LaunchDag {
        let mut dag = LaunchDag::independent(n);
        for i in 1..n {
            dag.preds[i] = 1;
            dag.succs[i - 1].push(i);
        }
        dag
    }

    /// The graph over `n` launches with the given `(before, after)` edges
    /// (duplicates contribute duplicate counts and should be pre-deduped).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> LaunchDag {
        let mut dag = LaunchDag::independent(n);
        for &(i, j) in edges {
            dag.preds[j] += 1;
            dag.succs[i].push(j);
        }
        for s in &mut dag.succs {
            s.sort_unstable();
        }
        dag
    }

    /// Number of launches the graph ranges over.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Kahn's worklist over the graph: each node's longest-path level
    /// plus the number of nodes visited (`== len()` iff acyclic). The
    /// single traversal both [`LaunchDag::levels`] and
    /// [`LaunchDag::validate`] interpret, so the two can never disagree
    /// about what constitutes a cycle.
    fn kahn_levels(&self) -> (Vec<usize>, usize) {
        let n = self.len();
        let mut indeg = self.preds.clone();
        let mut level = vec![0_usize; n];
        let mut work: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0_usize;
        while let Some(u) = work.pop_front() {
            seen += 1;
            for &s in &self.succs[u] {
                level[s] = level[s].max(level[u] + 1);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    work.push_back(s);
                }
            }
        }
        (level, seen)
    }

    /// Partition into **dependency levels** by longest path from a root:
    /// level `k` holds every launch all of whose predecessors sit in
    /// levels `< k`. Within a level, indices ascend.
    ///
    /// # Panics
    ///
    /// Debug-asserts acyclicity (hazard DAGs are acyclic by construction);
    /// nodes on a cycle would be dropped.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let (level, seen) = self.kahn_levels();
        debug_assert_eq!(seen, self.len(), "launch graph has a cycle");
        let depth = level.iter().copied().max().map_or(0, |d| d + 1);
        let mut levels = vec![Vec::new(); depth];
        for (i, &l) in level.iter().enumerate() {
            levels[l].push(i);
        }
        for l in &mut levels {
            l.sort_unstable();
        }
        levels
    }

    /// Structural validation against a launch count: lengths match, edge
    /// targets are in range, predecessor counts agree with the successor
    /// lists, and the graph is acyclic.
    fn validate(&self, n: usize) -> Result<(), SimError> {
        if self.preds.len() != n || self.succs.len() != n {
            return Err(SimError::msg(format!(
                "launch graph over {} launches given {} launches",
                self.preds.len(),
                n
            )));
        }
        let mut indeg = vec![0_usize; n];
        for (i, succ) in self.succs.iter().enumerate() {
            for &s in succ {
                if s >= n {
                    return Err(SimError::msg(format!(
                        "edge {i} -> {s} out of range ({n} launches)"
                    )));
                }
                indeg[s] += 1;
            }
        }
        if indeg != self.preds {
            return Err(SimError::msg(
                "predecessor counts disagree with successor lists",
            ));
        }
        // Kahn's walk visits every node iff the graph is acyclic. Safe to
        // run only now: it trusts `preds`, checked consistent above.
        let (_, seen) = self.kahn_levels();
        if seen != n {
            return Err(SimError::msg("launch graph has a cycle"));
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Host-task nodes
// ----------------------------------------------------------------------

/// Fixed weighted-operation cost charged per host node through the
/// launch's `OpMeter`: host closures are opaque to the instruction
/// meter, so each one pays this flat weight against the op budget (and
/// with it gets a deadline/cancellation poll and an honoured
/// `instr` fault site) before its closure runs.
pub const HOST_NODE_WEIGHT: u64 = 64;

/// A host-side view of the device memory the scheduler shares with its
/// workers: bounds-checked, typed element access to every buffer, with
/// the same coercions and [`MemFault`]s as kernel accesses (`?` turns one
/// into the closure's [`SimError`]). Host-task
/// closures ([`HostNode`]) receive one of these instead of raw buffer
/// references, so host work obeys the same hazard ordering — and the
/// same happens-before edges — as kernel launches.
pub struct HostView<'a, 'p> {
    shared: &'a SharedPool<'p>,
}

impl<'a, 'p> HostView<'a, 'p> {
    /// Wrap a shared pool view for host-closure access.
    pub fn new(shared: &'a SharedPool<'p>) -> HostView<'a, 'p> {
        HostView { shared }
    }

    /// Number of elements of buffer `id`.
    pub fn len(&self, id: MemId) -> usize {
        self.shared.bufs[id.0 as usize].len()
    }

    /// Load one element ([`Buf::load`]).
    pub fn load(&self, id: MemId, index: i64) -> Result<RtValue, MemFault> {
        Ok(self.shared.resolve(id)?.load(index)?.into())
    }

    /// Store one element ([`Buf::store`]).
    pub fn store(&self, id: MemId, index: i64, value: RtValue) -> Result<(), MemFault> {
        self.shared.resolve(id)?.store(index, value)
    }

    /// Element type name of buffer `id` (`"f32"`, `"f64"`, `"i32"` or
    /// `"i64"`).
    pub fn dtype_name(&self, id: MemId) -> &'static str {
        self.shared.bufs[id.0 as usize].dtype().name()
    }
}

/// A host task as a first-class launch-graph node: a closure over a
/// [`HostView`] that the worker pool runs as a single logical work-group.
/// Host nodes are hazard-tracked, metered (a flat [`HostNode::weight`]
/// against the op budget), cancellable and fault-injectable exactly like
/// kernel launches, so one graph spans a whole program.
#[derive(Clone)]
pub struct HostNode {
    run: HostFn,
    /// Weighted-operation cost charged through the `OpMeter` before
    /// the closure runs ([`HOST_NODE_WEIGHT`] by default).
    pub weight: u64,
}

/// The boxed closure a [`HostNode`] runs.
type HostFn = Arc<dyn Fn(&HostView<'_, '_>) -> Result<(), SimError> + Send + Sync>;

impl HostNode {
    /// A host node running `f`, charged at [`HOST_NODE_WEIGHT`].
    pub fn new<F>(f: F) -> HostNode
    where
        F: Fn(&HostView<'_, '_>) -> Result<(), SimError> + Send + Sync + 'static,
    {
        HostNode {
            run: Arc::new(f),
            weight: HOST_NODE_WEIGHT,
        }
    }

    /// Run the closure against a host view of the device memory.
    pub fn run(&self, view: &HostView<'_, '_>) -> Result<(), SimError> {
        (self.run)(view)
    }
}

impl std::fmt::Debug for HostNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostNode")
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}

// ----------------------------------------------------------------------
// The out-of-order launch scheduler
// ----------------------------------------------------------------------

/// The scheduler's ready set: launches with all dependencies retired and
/// (possibly) unclaimed work-groups, as a max-heap by `(critical path,
/// smaller submission index wins ties)` — the launches gating the most
/// downstream work start earliest. Ordering only moves wall time:
/// results, statistics and failure positions are bit-identical under any
/// drain order (and any thread count), because hazard edges alone order
/// conflicting accesses and all per-launch accounting is
/// schedule-independent. Exhausted entries are dropped lazily by
/// `acquire`.
type ReadySet = BinaryHeap<(u64, Reverse<usize>)>;

/// Per-launch critical-path lengths through `dag`: the longest
/// work-group-weighted path from each node to a sink, the priority key
/// of the ready set. Empty launches (and single-group host
/// nodes) weigh 1 so a chain of them still orders ahead of isolated
/// leaves. Processes nodes in decreasing Kahn level, so every
/// successor's length is final before its predecessors read it.
fn critical_paths(dag: &LaunchDag, geometry: &[([i64; 3], usize)]) -> Vec<u64> {
    let (level, _) = dag.kahn_levels();
    let n = dag.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| Reverse(level[i]));
    let mut cp = vec![0_u64; n];
    for &u in &order {
        let tail = dag.succs[u].iter().map(|&s| cp[s]).max().unwrap_or(0);
        cp[u] = (geometry[u].1.max(1) as u64).saturating_add(tail);
    }
    cp
}

/// One launch of a graph handed to [`run_plan_graph_report`]: either a
/// decoded kernel plan with its
/// bound arguments and geometry, or a [`HostNode`] (a host task running
/// as a single logical work-group). Exactly one of
/// [`PlanLaunch::plan`] / [`PlanLaunch::host`] is `Some`.
pub struct PlanLaunch<'a> {
    /// The decoded (possibly fused) kernel; `None` for host nodes.
    pub plan: Option<&'a KernelPlan>,
    /// Kernel arguments, excluding the trailing item parameter.
    pub args: &'a [RtValue],
    /// Launch geometry (a single 1×1 group for host nodes).
    pub nd: NdRangeSpec,
    /// The host closure, when this node is a host task.
    pub host: Option<&'a HostNode>,
    /// Static-analysis facts of `plan` from the decode-time verifier
    /// (`None` skips check elision; execution is bit-identical either
    /// way). Instantiated against this launch's concrete geometry and
    /// arguments before workers start.
    pub facts: Option<&'a crate::verify::PlanFacts>,
}

impl<'a> PlanLaunch<'a> {
    /// A kernel launch of `plan` over `nd`.
    pub fn kernel(plan: &'a KernelPlan, args: &'a [RtValue], nd: NdRangeSpec) -> PlanLaunch<'a> {
        PlanLaunch {
            plan: Some(plan),
            args,
            nd,
            host: None,
            facts: None,
        }
    }

    /// A host-task node: one logical 1×1 work-group running `node`.
    pub fn host(node: &'a HostNode) -> PlanLaunch<'a> {
        PlanLaunch {
            plan: None,
            args: &[],
            nd: NdRangeSpec::d1(1, 1),
            host: Some(node),
            facts: None,
        }
    }
}

/// Per-launch scheduling state: geometry, claim cursor, retire counter
/// and the remaining-dependency counter driving the ready set.
struct GraphUnit<'a> {
    /// The decoded kernel (`None` for host nodes).
    plan: Option<&'a KernelPlan>,
    args: &'a [RtValue],
    nd: NdRangeSpec,
    /// The host closure, when this node is a host task.
    host: Option<&'a HostNode>,
    /// Per-site proven-in-bounds bitset, instantiated from the launch's
    /// [`crate::verify::PlanFacts`] against its concrete geometry and
    /// arguments (empty = every site takes the checked path).
    proven: Arc<[u64]>,
    /// Critical-path length through the DAG from this launch (the
    /// ready set's priority key).
    cp: u64,
    groups: [i64; 3],
    total: usize,
    /// Work-groups claimed per `fetch_add` (adaptive: large launches use
    /// bigger chunks so small launches keep fine-grained balancing).
    chunk: usize,
    /// Claim cursor: the next unclaimed linear work-group index.
    next: AtomicUsize,
    /// Work-groups not yet finished; the worker that takes it to zero
    /// retires the launch.
    unfinished: AtomicUsize,
    /// Predecessors not yet retired; the worker that takes it to zero
    /// publishes the launch to the ready set.
    remaining_deps: AtomicUsize,
    /// Smallest failing work-group of *this* launch (`u64::MAX` while
    /// clean). Groups at or beyond it are skipped — pruning is per
    /// launch, so independent launches run to completion even while
    /// another launch is failing.
    failed: AtomicU64,
    /// Root-cause launch index when this launch was cancelled because a
    /// (transitive) predecessor failed; `usize::MAX` while live.
    /// `fetch_min` keeps the smallest cause, making the reported cause
    /// deterministic under any retire order.
    cancelled_by: AtomicUsize,
    /// This launch's remaining operation budget (shared by all workers;
    /// metered in prepaid blocks), when `--max-ops` is set.
    budget: Option<Arc<AtomicU64>>,
    /// Injected fault: fail the claim of this linear work-group
    /// (`u64::MAX` = none).
    claim_fault: u64,
}

/// A failure observed while running one work-group: a simulator error
/// (divergent barrier, device-memory fault, tripped execution limit), or
/// a caught panic — an internal invariant violation, kept only to be
/// re-thrown on the launching thread after the join.
enum Failure {
    Error(SimError),
    Panic(Box<dyn std::any::Any + Send>),
}

/// One worker's outcome: per-launch accumulated counters plus, when
/// profiling, per-launch flat instruction execution counts.
struct WorkerResult {
    stats: Vec<ExecStats>,
    profiles: Vec<Option<Box<[u64]>>>,
}

/// Limit state one graph run shares across its workers: the limits as
/// configured plus the wall-clock deadline resolved **once** at graph
/// entry (so every launch of the graph races the same instant).
struct GraphLimits {
    limits: ExecLimits,
    deadline: Option<Instant>,
}

impl GraphLimits {
    /// The limit (if any) that has already tripped globally — polled at
    /// claim-chunk boundaries, the scheduler's cancellation points.
    fn tripped(&self) -> Option<LimitKind> {
        if let Some(c) = &self.limits.cancel {
            if c.is_cancelled() {
                return Some(LimitKind::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(LimitKind::Deadline);
            }
        }
        None
    }

    /// Whether launch `li` needs a per-instruction [`OpMeter`] (op
    /// budget, deadline/cancel polling at op-block boundaries, or an
    /// instruction-count fault). Claim-site faults and the memory cap
    /// are handled by the scheduler and the pool respectively.
    fn needs_meter(&self, li: usize) -> bool {
        self.limits.max_ops.is_some()
            || self.limits.deadline_ms.is_some()
            || self.limits.cancel.is_some()
            || matches!(self.limits.fault_at(li), Some(FaultSite::Instr(_)))
    }
}

/// Everything a graph run shares with its pool jobs. Lives on the
/// launching thread's stack for the duration of [`run_plan_graph_report`]; the
/// completion latch guarantees no job outlives it.
struct GraphState<'a, 'p> {
    units: Vec<GraphUnit<'a>>,
    succs: &'a [Vec<usize>],
    shared: &'a SharedPool<'p>,
    cost: &'a CostModel,
    profile: bool,
    /// Execution limits of this run (`None` = unlimited; the common case
    /// pays one branch per launch acquisition and per claimed chunk).
    limits: Option<GraphLimits>,
    ready: Mutex<ReadySet>,
    /// Wakes workers parked in `acquire` (new ready launches, poisoning,
    /// or the last retire).
    wake: Condvar,
    /// Launches not yet retired; the run is over when this hits zero.
    launches_left: AtomicUsize,
    /// Observed failures with their positions, bounded per launch: only
    /// failures at or below the launch's best-known failing group are
    /// recorded (at most one per worker per launch), and the smallest
    /// per launch is reported.
    failures: Mutex<Vec<(usize, usize, Failure)>>,
    /// Set when a worker itself dies outside group execution (a scheduler
    /// bug): releases parked workers so the latch is always reached.
    poisoned: AtomicBool,
    results: Mutex<Vec<WorkerResult>>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Completion latch: (jobs still running, wakeup for the launcher).
    latch: (Mutex<usize>, Condvar),
}

impl GraphState<'_, '_> {
    /// Run one worker loop against this graph, recording the outcome.
    /// Never unwinds.
    fn run_worker(&self) {
        let outcome = catch_unwind(AssertUnwindSafe(|| graph_worker(self)));
        match outcome {
            Ok(result) => self.results.lock().unwrap().push(result),
            Err(payload) => {
                // A panic outside per-group execution (scheduler bug):
                // park the payload for the launcher to re-throw and
                // release everyone. The poison flag is raised while
                // holding the `ready` mutex: `acquire` checks it under
                // the same mutex, so a worker is either still scanning
                // (and will see the flag) or already parked (and gets
                // the notification) — never in between losing both.
                {
                    let _q = self.ready.lock().unwrap();
                    self.poisoned.store(true, Ordering::Relaxed);
                }
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
                drop(slot);
                self.wake.notify_all();
            }
        }
        let mut left = self.latch.0.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.latch.1.notify_all();
        }
    }

    /// Record a failing work-group, tightening the launch's skip bound.
    /// Limit errors are stamped with their true `(launch, group)`
    /// position here — executors construct them with placeholders. The
    /// failures list stays bounded: a failure strictly beyond an
    /// already-recorded smaller one of the same launch is dropped (it
    /// could never be reported).
    fn record_failure(&self, li: usize, gi: usize, failure: Failure) {
        let prev = self.units[li]
            .failed
            .fetch_min(gi as u64, Ordering::Relaxed);
        if (gi as u64) > prev {
            return;
        }
        let failure = match failure {
            Failure::Error(e) => Failure::Error(e.at(li, gi)),
            p => p,
        };
        self.failures.lock().unwrap().push((li, gi, failure));
    }

    /// Retire launch `li`: publish successors whose last dependency this
    /// was, and wake parked workers when anything changed.
    ///
    /// A newly-ready successor with **zero work-groups** (an empty
    /// nd-range) has no group whose completion could ever retire it, so
    /// it retires eagerly right here instead of entering the ready set —
    /// the worklist cascades through chains of empty launches. Eager
    /// retirement happens only once the launch's own last predecessor
    /// retired, so dependency ordering is preserved through it.
    /// Whether launch `li`'s recorded failure cancels its successors.
    /// Only limit trips and injected faults cascade (see
    /// [`SimError::cascades`]); the deciding entry is the minimal
    /// recorded group. Called at retire time, after every group of `li`
    /// is accounted for, so the minimal failure is already recorded.
    fn failure_cascades(&self, li: usize) -> bool {
        let failures = self.failures.lock().unwrap();
        failures
            .iter()
            .filter(|(l, _, _)| *l == li)
            .min_by_key(|(_, g, _)| *g)
            .is_some_and(|(_, _, f)| matches!(f, Failure::Error(e) if e.cascades()))
    }

    fn retire(&self, li: usize) {
        let mut to_retire = vec![li];
        let mut newly_ready = Vec::new();
        let mut retired = 0_usize;
        while let Some(u) = to_retire.pop() {
            retired += 1;
            // A launch that retired in a failed (or itself cancelled)
            // state cancels its successors, carrying the *root* failing
            // launch as the cause.
            let unit = &self.units[u];
            let cause = if unit.cancelled_by.load(Ordering::Relaxed) != usize::MAX {
                Some(unit.cancelled_by.load(Ordering::Relaxed))
            } else if unit.failed.load(Ordering::Relaxed) != u64::MAX && self.failure_cascades(u) {
                Some(u)
            } else {
                None
            };
            for &s in &self.succs[u] {
                // The cancellation mark must precede the dependency
                // decrement: the AcqRel RMW chain on `remaining_deps`
                // guarantees whoever performs the *final* decrement
                // observes every predecessor's mark, so a cancelled
                // launch can never slip into the ready set.
                if let Some(c) = cause {
                    self.units[s].cancelled_by.fetch_min(c, Ordering::Relaxed);
                }
                // AcqRel: the retiring thread has (transitively) acquired
                // all group-completion decrements of `u`, and a
                // successor's first claim acquires this decrement —
                // establishing happens-before from every write of a
                // predecessor launch to every read of its successors.
                if self.units[s].remaining_deps.fetch_sub(1, Ordering::AcqRel) == 1 {
                    if self.units[s].cancelled_by.load(Ordering::Relaxed) != usize::MAX
                        || self.units[s].total == 0
                    {
                        // Cancelled launches never run: they cascade to
                        // retirement directly (as do empty launches).
                        to_retire.push(s);
                    } else {
                        newly_ready.push(s);
                    }
                }
            }
        }
        // The wake predicate (`launches_left`, ready-queue contents) must
        // change while the `ready` mutex is held: a worker in `acquire`
        // is either still scanning under the mutex (and re-reads the new
        // state) or already parked in `wait` (and receives the
        // notification). Decrementing or notifying outside the lock
        // loses the wakeup when the worker sits between its predicate
        // check and the park.
        let mut q = self.ready.lock().unwrap();
        let left = self.launches_left.fetch_sub(retired, Ordering::AcqRel) - retired;
        let publish = !newly_ready.is_empty();
        for s in newly_ready {
            q.push((self.units[s].cp, Reverse(s)));
        }
        drop(q);
        if left == 0 || publish {
            self.wake.notify_all();
        }
    }

    /// Block until some ready launch has unclaimed work-groups and return
    /// it, or return `None` when every launch has retired (or a worker
    /// poisoned the run). Exhausted-but-unretired launches are removed
    /// from the ready set; their in-flight chunks retire them.
    fn acquire(&self) -> Option<usize> {
        let mut q = self.ready.lock().unwrap();
        loop {
            if self.poisoned.load(Ordering::Relaxed) {
                return None;
            }
            if self.launches_left.load(Ordering::Acquire) == 0 {
                return None;
            }
            while let Some(&(_, Reverse(li))) = q.peek() {
                if self.units[li].next.load(Ordering::Relaxed) >= self.units[li].total {
                    q.pop();
                } else {
                    return Some(li);
                }
            }
            q = self.wake.wait(q).unwrap();
        }
    }
}

/// Pool-job trampoline.
///
/// # Safety
///
/// `ctx` must point to a live [`GraphState`] that stays alive until the
/// state's latch observes this job's completion.
unsafe fn launch_job(ctx: *const ()) {
    let state = unsafe { &*(ctx as *const GraphState<'_, '_>) };
    state.run_worker();
}

/// Number of workers a graph run enlists: the thread-count knob clamped
/// to the graph's total work-group count — never more workers than there
/// are groups to run (a graph with no groups still gets the calling
/// thread).
fn graph_workers(threads: usize, total_groups: usize) -> usize {
    threads.max(1).min(total_groups.max(1))
}

/// Work-groups claimed per claim-cursor RMW: aim for ~8 chunks per
/// enlisted worker so load still balances, floor 1 so tiny launches keep
/// fine-grained interleaving, cap 64 so no worker monopolizes a launch
/// and independent launches pipeline. Sized from the **clamped** worker
/// count ([`graph_workers`]), not the raw thread-count hint — the hint
/// can exceed the workers that actually contend on the cursor.
fn claim_chunk(total: usize, workers: usize) -> usize {
    (total / (workers * 8)).clamp(1, 64)
}

/// Group coordinates of linear index `idx` (row-major over `groups`, the
/// same order the sequential engine iterates).
#[inline]
fn group_of(groups: [i64; 3], idx: usize) -> [i64; 3] {
    let idx = idx as i64;
    let g2 = idx % groups[2];
    let rest = idx / groups[2];
    [rest / groups[1], rest % groups[1], g2]
}

/// Execute every work-item of one work-group to completion, honouring
/// barriers co-operatively. `slots` are the worker's reusable work-item
/// slots (registers, frames, visit counters survive across work-groups
/// and launches, so the steady state allocates nothing per item): grown
/// on demand and re-bound to this group's items, whatever state the
/// previous group left them in.
fn run_group(
    plan: &KernelPlan,
    args: &[RtValue],
    nd: NdRangeSpec,
    group: [i64; 3],
    ctx: &mut PlanExecCtx<'_, '_>,
    pctx: &mut PlanCtx,
    slots: &mut Vec<PlanWorkItem>,
) -> Result<(), SimError> {
    let positions = items_of_group(nd, group);
    let n = positions.len();
    if slots.len() < n {
        slots.resize_with(n, PlanWorkItem::empty);
    }
    let items = &mut slots[..n];
    for (slot, item) in items.iter_mut().zip(positions) {
        slot.reset(plan, args, item, ctx.cost.subgroup_size)?;
    }
    cooperative_rounds(items, group, |wi| wi.run(plan, args, ctx, pctx))
}

/// Execute the single logical work-group of a host node: charge the
/// node's fixed weight through a per-execution [`OpMeter`] (op budget,
/// deadline/cancellation poll and the `instr` fault site all honoured),
/// then run the closure against a [`HostView`] of the shared device
/// memory. The unspent remainder of the metered block settles back so
/// budgets stay exact.
fn run_host_node(node: &HostNode, st: &GraphState<'_, '_>, li: usize) -> Result<(), SimError> {
    if let Some(gl) = &st.limits {
        if gl.needs_meter(li) {
            let mut meter = OpMeter::new(&gl.limits, st.units[li].budget.clone(), gl.deadline, li);
            let metered = meter.charge(node.weight);
            meter.settle();
            metered?;
        }
    }
    node.run(&HostView::new(st.shared))
}

/// Claim-and-run loop of one worker thread over the launch graph.
///
/// The worker repeatedly asks the ready set for a launch with unclaimed
/// work-groups and claims a **chunk** of them (`GraphUnit::chunk` per
/// `fetch_add` — one atomic RMW amortized over many groups, which is what
/// cuts cursor contention on launches with many small groups). The
/// worker's memory interface — and with it the recyclable scratch arena —
/// and its work-item slots (see `run_group`) are reused across every
/// launch it touches; the statistics accumulator
/// and the per-launch plan state are swapped per launch (counters must
/// merge per launch).
///
/// A failing work-group is
/// recorded with its `(launch, group)` position and execution continues;
/// groups at or beyond the launch's best-known failure are skipped, but
/// **other** launches are untouched — independent launches run to
/// completion (bit-identically to a clean run) while dependent launches
/// are cancelled with their root cause at retire time. That keeps the
/// reported error deterministic — always the smallest failing position,
/// independent of scheduling — while degrading gracefully.
///
/// With limits active, the wall-clock deadline and the cancel token are
/// polled at every claim-chunk boundary (and, via the per-launch
/// [`OpMeter`], at op-block boundaries inside long-running groups), so a
/// wedged kernel is cut off without per-instruction overhead.
fn graph_worker(st: &GraphState<'_, '_>) -> WorkerResult {
    let mut ctx = PlanExecCtx::new(st.shared, st.cost);
    if let Some(gl) = &st.limits {
        if let Some(cap) = gl.limits.mem_cap {
            ctx.pool.set_mem_cap(cap);
        }
    }
    let n = st.units.len();
    let mut stats = vec![ExecStats::default(); n];
    let mut pctxs: Vec<Option<PlanCtx>> = (0..n).map(|_| None).collect();
    let mut slots: Vec<PlanWorkItem> = Vec::new();
    let mut cur: Option<usize> = None;
    while let Some(li) = st.acquire() {
        if cur != Some(li) {
            if let Some(c) = cur {
                stats[c].add(&std::mem::take(&mut ctx.stats));
            }
            cur = Some(li);
        }
        let unit = &st.units[li];
        let mut pctx = unit.plan.map(|plan| {
            pctxs[li].get_or_insert_with(|| {
                let mut p = if st.profile {
                    PlanCtx::profiled(plan)
                } else {
                    PlanCtx::new(plan)
                };
                p.set_proven(unit.proven.clone());
                if let Some(gl) = &st.limits {
                    if gl.needs_meter(li) {
                        p.set_meter(OpMeter::new(
                            &gl.limits,
                            unit.budget.clone(),
                            gl.deadline,
                            li,
                        ));
                    }
                }
                p
            })
        });
        loop {
            let start = unit.next.fetch_add(unit.chunk, Ordering::Relaxed);
            if start >= unit.total {
                break; // fully claimed; pick another ready launch
            }
            if let Some(gl) = &st.limits {
                // Claim-chunk boundary: the scheduler's cancellation
                // point. A tripped deadline or cancel token fails this
                // launch here (each running launch records its own trip
                // at its own next boundary).
                if let Some(kind) = gl.tripped() {
                    st.record_failure(li, start, Failure::Error(SimError::limit(kind)));
                }
            }
            let end = (start + unit.chunk).min(unit.total);
            for idx in start..end {
                if idx as u64 >= unit.failed.load(Ordering::Relaxed) {
                    continue; // at/beyond this launch's failure: unreportable
                }
                if idx as u64 == unit.claim_fault {
                    let fault = crate::limits::FaultPlan {
                        launch: li,
                        site: FaultSite::Claim(idx as u64),
                    };
                    st.record_failure(li, idx, Failure::Error(fault.error()));
                    continue;
                }
                let outcome = match unit.host {
                    Some(node) => catch_unwind(AssertUnwindSafe(|| run_host_node(node, st, li))),
                    None => {
                        let plan = unit.plan.expect("kernel launch carries a plan");
                        let p = pctx.as_deref_mut().expect("kernel launch has a plan ctx");
                        let group = group_of(unit.groups, idx);
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            run_group(plan, unit.args, unit.nd, group, &mut ctx, p, &mut slots)
                        }));
                        ctx.next_work_group();
                        p.next_work_group();
                        r
                    }
                };
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => st.record_failure(li, idx, Failure::Error(e)),
                    Err(payload) => st.record_failure(li, idx, Failure::Panic(payload)),
                }
            }
            // Release: every store this worker made for these groups
            // happens-before the retire that publishes the successors.
            let before = unit.unfinished.fetch_sub(end - start, Ordering::AcqRel);
            debug_assert!(before >= end - start, "over-retired launch {li}");
            if before == end - start {
                st.retire(li);
            }
        }
    }
    if let Some(c) = cur {
        stats[c].add(&std::mem::take(&mut ctx.stats));
    }
    let profiles = pctxs
        .iter_mut()
        .map(|p| p.as_mut().and_then(|p| p.take_profile()))
        .collect();
    WorkerResult { stats, profiles }
}

/// Terminal state of one launch in a [`GraphReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchStatus {
    /// The launch ran every work-group successfully.
    Completed,
    /// The launch failed: `error` at its smallest failing work-group.
    Failed {
        /// Linear index of the smallest failing work-group.
        group: usize,
        /// The failure, position-stamped for limit trips.
        error: SimError,
    },
    /// The launch never ran: a (transitive) predecessor failed. `cause`
    /// is the smallest root failing launch, deterministic under any
    /// schedule.
    Cancelled {
        /// Index of the root failing launch this cancellation descends
        /// from.
        cause: usize,
    },
}

/// What [`run_plan_graph_report`] returns: the graceful-degradation view
/// of a graph run, with per-launch terminal statuses instead of a single
/// first error — failing launches don't take the whole graph down.
#[derive(Debug)]
pub struct GraphReport {
    /// One merged [`ExecStats`] per launch, cycles charged; zeroed for
    /// launches that did not complete (partial counters would be
    /// schedule-dependent).
    pub stats: Vec<ExecStats>,
    /// Per-launch terminal state.
    pub statuses: Vec<LaunchStatus>,
    /// Per-launch execution counts (`Some` iff profiling was requested).
    pub profile: Option<Vec<Box<[u64]>>>,
}

impl GraphReport {
    /// The lexicographically smallest `(launch, group)` failure, if any —
    /// the error serial submission-order execution hits first.
    pub fn first_failure(&self) -> Option<(usize, usize, &SimError)> {
        self.statuses
            .iter()
            .enumerate()
            .find_map(|(li, s)| match s {
                LaunchStatus::Failed { group, error } => Some((li, *group, error)),
                _ => None,
            })
    }

    /// The first-failure contract of [`crate::Device::launch_graph`]: the
    /// report of a run in which every launch completed, else
    /// [`Self::first_failure`]'s error.
    pub fn into_result(self) -> Result<GraphReport, SimError> {
        match self.first_failure() {
            Some((_, _, error)) => Err(error.clone()),
            None => Ok(self),
        }
    }
}

/// Execute a whole **launch graph** on `threads` workers, out of order,
/// under `limits`: a launch becomes eligible the moment its last
/// predecessor retires — no level barrier — and all eligible launches
/// share one worker pool through per-launch chunked claim cursors.
///
/// * **Scheduling.** Every launch carries a remaining-dependency counter;
///   the worker that retires a launch's last work-group decrements its
///   successors' counters and publishes any that hit zero to a shared
///   ready set. Workers claim work-groups in chunks (adaptive to the
///   launch's group count), so a single slow launch never stalls ready
///   successors.
/// * **Determinism.** Statistics are accumulated per worker *per launch*
///   and merged per launch after the join (integer totals, commutative),
///   so every launch's [`ExecStats`] — and the cycle model charged from
///   it — is bit-identical to serial submission-order execution, for
///   every worker count, graph shape and interleaving. Hazard edges order
///   all conflicting buffer accesses (retire/claim counters carry the
///   necessary happens-before), so buffer contents are bit-identical too.
/// * **Failures** are reported **per launch** instead of stopping at the
///   first error: independent launches complete (bit-identically to a
///   clean run), a failing launch reports the error of its smallest
///   failing work-group — the one submission-order serial execution hits
///   first, under every thread count and graph shape; groups beyond the
///   best-known failure are skipped — and every transitive successor of
///   a launch that tripped a limit is cancelled with its root cause.
///   [`GraphReport::into_result`] folds the statuses into the
///   first-failure `Result`.
///
/// # Errors
///
/// `Err` is reserved for malformed input (bad geometry, malformed or
/// cyclic graphs); kernel failures — device-memory faults among them,
/// which arrive as [`MemFault`] values — and limit trips live in
/// [`GraphReport::statuses`]. A panic on a worker is a bug in the
/// simulator (or in a host closure) and is re-thrown as a panic.
pub fn run_plan_graph_report(
    launches: &[PlanLaunch<'_>],
    dag: &LaunchDag,
    pool_mem: &mut MemoryPool,
    cost: &CostModel,
    threads: usize,
    profile: bool,
    limits: &ExecLimits,
) -> Result<GraphReport, SimError> {
    dag.validate(launches.len())?;
    if launches.len() >= u32::MAX as usize {
        return Err(SimError::msg("too many launches in one graph"));
    }
    // First pass: validate geometry and count work-groups, so the worker
    // count — and the claim chunk sized from it — reflects the *clamped*
    // value (never more workers than groups), not the raw thread hint.
    let mut geometry = Vec::with_capacity(launches.len());
    let mut total_groups = 0_usize;
    for l in launches {
        l.nd.validate()?;
        if l.plan.is_some() == l.host.is_some() {
            return Err(SimError::msg(
                "a graph launch must carry exactly one of a kernel plan or a host node",
            ));
        }
        let groups = l.nd.groups();
        let total = (groups[0] * groups[1] * groups[2]) as usize;
        if l.host.is_some() && total != 1 {
            return Err(SimError::msg(
                "a host node must span exactly one logical work-group",
            ));
        }
        if total >= u32::MAX as usize {
            return Err(SimError::msg("too many work-groups in one launch"));
        }
        total_groups += total;
        geometry.push((groups, total));
    }
    let workers = graph_workers(threads, total_groups);
    // Critical-path lengths drive the ready-set ordering; computed
    // once up front (the graph validated acyclic above).
    let cp = critical_paths(dag, &geometry);
    let mut units = Vec::with_capacity(launches.len());
    let mut bad_args = Vec::new();
    for (li, (l, &(groups, total))) in launches.iter().zip(&geometry).enumerate() {
        // Arguments are outside input: a launch naming a buffer the pool
        // does not hold fails as a whole, before any of its groups run.
        let args_fault = pool_mem.check_args(l.args).err();
        bad_args.extend(args_fault.map(|fault| (li, fault)));
        // Bind the launch's static facts to its concrete geometry,
        // arguments and buffer lengths once, before any worker starts;
        // the resulting bitset is shared read-only by every worker.
        let proven = match l.facts {
            Some(f) if args_fault.is_none() => f.instantiate(l.args, &l.nd, pool_mem),
            _ => Arc::from(Vec::new().into_boxed_slice()),
        };
        units.push(GraphUnit {
            plan: l.plan,
            args: l.args,
            nd: l.nd,
            host: l.host,
            proven,
            cp: cp[li],
            groups,
            total,
            chunk: claim_chunk(total, workers),
            next: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(total),
            remaining_deps: AtomicUsize::new(dag.preds[li]),
            failed: AtomicU64::new(u64::MAX),
            cancelled_by: AtomicUsize::new(usize::MAX),
            budget: limits.max_ops.map(|b| Arc::new(AtomicU64::new(b))),
            claim_fault: match limits.fault_at(li) {
                Some(FaultSite::Claim(n)) => n,
                _ => u64::MAX,
            },
        });
    }
    if units.is_empty() {
        return Ok(GraphReport {
            stats: Vec::new(),
            statuses: Vec::new(),
            profile: profile.then(Vec::new),
        });
    }
    let shared = SharedPool::new(pool_mem);
    // Empty launches never enter the ready set (no work-group could retire
    // them): roots retire eagerly below, the rest cascade through `retire`.
    // Room for every launch up front: storage a pool worker grew would land
    // in that worker's allocator cache and pin this thread's heap for good.
    let mut initially_ready = ReadySet::with_capacity(units.len());
    let roots = (0..units.len()).filter(|&i| dag.preds[i] == 0 && units[i].total > 0);
    initially_ready.extend(roots.map(|i| (units[i].cp, Reverse(i))));

    let state = GraphState {
        launches_left: AtomicUsize::new(units.len()),
        units,
        succs: &dag.succs,
        shared: &shared,
        cost,
        profile,
        limits: (!limits.is_none()).then(|| GraphLimits {
            limits: limits.clone(),
            deadline: limits.deadline_instant(),
        }),
        ready: Mutex::new(initially_ready),
        wake: Condvar::new(),
        failures: Mutex::new(Vec::new()),
        poisoned: AtomicBool::new(false),
        results: Mutex::new(Vec::with_capacity(workers)),
        panic: Mutex::new(None),
        latch: (Mutex::new(workers), Condvar::new()),
    };

    // An armed decode fault fails its launch before any of its groups
    // run: record it up front so every group is skipped, the launch
    // retires through normal claim accounting, and its successors are
    // cancelled by the ordinary cascade. Unknown-buffer arguments fail
    // their launch the same way (after the decode fault, the order the
    // serial reference checks them in), without the cascade.
    if let Some(f) = &limits.fault {
        if matches!(f.site, FaultSite::Decode) && f.launch < state.units.len() {
            state.record_failure(f.launch, 0, Failure::Error(f.error()));
        }
    }
    for (li, fault) in bad_args {
        state.record_failure(li, 0, Failure::Error(fault.into()));
    }

    // Retire dependency-free empty launches before any worker starts: a
    // zero-group launch has no group whose completion could publish its
    // successors, so without this a chain through an empty launch would
    // never make progress (and an all-empty graph would deadlock).
    for i in 0..state.units.len() {
        if dag.preds[i] == 0 && state.units[i].total == 0 {
            state.retire(i);
        }
    }

    if workers > 1 {
        ensure_workers(workers - 1);
        let p = pool();
        let mut st = p.state.lock().unwrap();
        for _ in 0..workers - 1 {
            st.queue.push_back(RawJob {
                run: launch_job,
                ctx: &state as *const GraphState<'_, '_> as *const (),
            });
        }
        drop(st);
        p.available.notify_all();
    }
    // The calling thread is always worker 0. `run_worker` catches panics,
    // so the latch below is reached (and the pool jobs drained) even when
    // the scheduler itself fails.
    state.run_worker();

    // Wait until every enlisted worker has finished; only then may `state`
    // (and the raw pointers handed to the pool) go out of scope.
    {
        let mut left = state.latch.0.lock().unwrap();
        while *left > 0 {
            left = state.latch.1.wait(left).unwrap();
        }
    }
    if let Some(payload) = state.panic.lock().unwrap().take() {
        resume_unwind(payload);
    }

    // Re-throw panics (scheduler/invariant bugs, panicking host closures)
    // at the smallest recorded position; nothing a kernel can do panics.
    let failures = state.failures.into_inner().unwrap();
    let panic_min = failures
        .iter()
        .filter(|(_, _, f)| matches!(f, Failure::Panic(_)))
        .map(|&(li, gi, _)| (li, gi))
        .min();
    if let Some(pos) = panic_min {
        let payload = failures
            .into_iter()
            .find_map(|(li, gi, f)| match f {
                Failure::Panic(p) if (li, gi) == pos => Some(p),
                _ => None,
            })
            .expect("minimal panic present");
        resume_unwind(payload);
    }

    // Per-launch smallest failing group and its error — scheduling cannot
    // reorder it away (groups below a launch's eventual minimum are never
    // skipped, so the minimum is always actually executed or was
    // deliberately failed at its claim).
    let mut errors: Vec<Option<(usize, SimError)>> = (0..launches.len()).map(|_| None).collect();
    for (li, gi, f) in failures {
        let Failure::Error(e) = f else { unreachable!() };
        match &errors[li] {
            Some((g, _)) if *g <= gi => {}
            _ => errors[li] = Some((gi, e)),
        }
    }
    let statuses: Vec<LaunchStatus> = state
        .units
        .iter()
        .enumerate()
        .map(|(li, u)| {
            let by = u.cancelled_by.load(Ordering::Relaxed);
            if by != usize::MAX {
                LaunchStatus::Cancelled { cause: by }
            } else if u.failed.load(Ordering::Relaxed) != u64::MAX {
                let (group, error) = errors[li]
                    .take()
                    .expect("failed launch has a recorded error");
                LaunchStatus::Failed { group, error }
            } else {
                LaunchStatus::Completed
            }
        })
        .collect();

    let mut merged = vec![ExecStats::default(); launches.len()];
    let mut profiles: Vec<Box<[u64]>> = if profile {
        launches
            .iter()
            .map(|l| vec![0; l.plan.map_or(0, |p| p.instr_count())].into_boxed_slice())
            .collect()
    } else {
        Vec::new()
    };
    for r in state.results.into_inner().unwrap() {
        for (m, s) in merged.iter_mut().zip(&r.stats) {
            m.add(s);
        }
        for (acc, p) in profiles.iter_mut().zip(&r.profiles) {
            if let Some(p) = p {
                for (a, c) in acc.iter_mut().zip(p.iter()) {
                    *a += c;
                }
            }
        }
    }
    for (li, (m, unit)) in merged.iter_mut().zip(&state.units).enumerate() {
        if unit.host.is_some() {
            // Host nodes report zeroed stats rows regardless of outcome:
            // their fixed metering weight is an admission charge, not a
            // simulated instruction count.
            *m = ExecStats::default();
        } else if matches!(statuses[li], LaunchStatus::Completed) {
            m.work_groups = unit.total as u64;
            m.work_items = unit.nd.work_items() as u64;
            m.charge(cost);
        } else {
            // Partial counters of failing/cancelled launches would be
            // schedule-dependent; report them as zeroed instead.
            *m = ExecStats::default();
        }
    }
    Ok(GraphReport {
        stats: merged,
        statuses,
        profile: profile.then_some(profiles),
    })
}

/// Unit-test shorthand: an unlimited, unprofiled graph run, its first
/// failure as `Err`.
#[cfg(test)]
pub(crate) fn run_graph(
    launches: &[PlanLaunch<'_>],
    dag: &LaunchDag,
    pool_mem: &mut MemoryPool,
    threads: usize,
) -> Result<GraphReport, SimError> {
    let (cost, limits) = (CostModel::default(), ExecLimits::none());
    run_plan_graph_report(launches, dag, pool_mem, &cost, threads, false, &limits)?.into_result()
}

/// [`run_graph`] of one kernel launch.
#[cfg(test)]
pub(crate) fn run_one_launch(
    plan: &KernelPlan,
    args: &[RtValue],
    nd: NdRangeSpec,
    pool_mem: &mut MemoryPool,
    threads: usize,
) -> Result<ExecStats, SimError> {
    let (launches, dag) = (
        [PlanLaunch::kernel(plan, args, nd)],
        LaunchDag::independent(1),
    );
    Ok(run_graph(&launches, &dag, pool_mem, threads)?
        .stats
        .remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let got: Vec<[i64; 3]> = (0..expect.len()).map(|i| group_of(groups, i)).collect();
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
        let out = run_graph(&empties, &LaunchDag::chain(2), &mut pool, 4)
            .expect("all-empty graph completes");
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
}
