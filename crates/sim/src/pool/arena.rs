//! Device memory as the plan engine's workers see it: the launch-scoped
//! shared view of the device buffers ([`SharedPool`]), one worker's
//! memory interface over it with its two private arenas ([`PlanPool`])
//! and the worker's execution context ([`PlanExecCtx`]).

use crate::cost::{Coalescer, CostModel, ExecStats};
use crate::interp::{LimitKind, SimError};
use crate::memory::{Buf, DataVec, Dtype, MemFault, MemId, MemoryPool, Storage};

/// Tag bit distinguishing worker-arena allocations from launch-shared
/// buffers in a [`MemId`].
pub(super) const ARENA_BIT: u32 = 1 << 31;

/// Second tag bit (under [`ARENA_BIT`]): set for the worker's persistent
/// dense-constant pool, clear for the per-work-group scratch arena.
pub(super) const CONST_BIT: u32 = 1 << 30;

/// A launch-scoped, concurrently accessible view of every buffer that
/// existed in the [`MemoryPool`] when the launch started: one [`Buf`] per
/// buffer, which is where element accesses are checked and made.
///
/// The pool stays borrowed for the whole launch, so no buffer is added
/// or dropped while workers hold views of it.
pub struct SharedPool<'p> {
    bufs: Vec<Buf<'p>>,
}

/// [`SharedPool`] is `Send + Sync` by construction — every element is an
/// atomic — and must stay so: every worker of a graph run shares one. This
/// assertion fails to compile if a non-thread-safe handle (a raw pointer,
/// a `Cell`) ever sneaks back into [`Buf`].
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedPool<'static>>();
};

impl<'p> SharedPool<'p> {
    /// Snapshot every buffer of `pool` into a shareable view.
    pub fn new(pool: &'p MemoryPool) -> SharedPool<'p> {
        let ids = (0..pool.len() as u32).map(MemId);
        SharedPool {
            bufs: ids.map(|id| pool.buf(id)).collect(),
        }
    }

    /// Buffer `id`, for one access.
    #[inline]
    pub fn resolve(&self, id: MemId) -> Result<Buf<'p>, MemFault> {
        let buf = self.bufs.get(id.0 as usize).copied();
        buf.ok_or(MemFault::UnknownBuffer { id })
    }
}

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
pub(super) struct ScratchArena {
    bufs: Vec<Storage>,
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
        match self.bufs.get(self.cursor) {
            Some(buf) if buf.shape() == (dt, len) => 0,
            _ => (len as u64).saturating_mul(dt.bytes() as u64),
        }
    }

    /// Arena-local index of zero-filled storage for `len` elements of
    /// `elem`, recycling the buffer at the cursor when it matches.
    fn alloc_zeroed(&mut self, elem: &sycl_mlir_ir::Type, len: usize) -> u32 {
        let dt = Dtype::of(elem);
        let idx = self.cursor;
        self.cursor += 1;
        match self.bufs.get_mut(idx) {
            Some(buf) if buf.shape() == (dt, len) => buf.zero(),
            Some(buf) => *buf = Storage::zeroed(dt, len),
            None => self.bufs.push(Storage::zeroed(dt, len)),
        }
        idx as u32
    }

    /// Rewind the cursor; buffers are kept for recycling.
    pub(super) fn reset(&mut self) {
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
    consts: Vec<Storage>,
    pub(super) scratch: ScratchArena,
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
            consts: Vec::new(),
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
        let idx = self.consts.len() as u32;
        self.consts.push(Storage::from(data));
        Ok(MemId(idx | ARENA_BIT | CONST_BIT))
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
    pub fn resolve(&self, id: MemId) -> Result<Buf<'_>, MemFault> {
        let idx = id.0 & !(ARENA_BIT | CONST_BIT);
        if id.0 & ARENA_BIT == 0 {
            self.shared.resolve(id)
        } else if id.0 & CONST_BIT != 0 {
            let name = Some(MemId(idx));
            Ok(Buf::of(&self.consts[idx as usize], name, false))
        } else {
            Ok(Buf::of(&self.scratch.bufs[idx as usize], None, false))
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
