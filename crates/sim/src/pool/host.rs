//! Host tasks as launch-graph nodes: the closure a node runs
//! ([`HostNode`]) and the checked view of device memory it runs against
//! ([`HostView`]).

use super::arena::SharedPool;
use crate::interp::SimError;
use crate::memory::{Dtype, MemFault, MemId};
use crate::value::RtValue;
use std::sync::Arc;

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
    pub fn len(&self, id: MemId) -> Result<usize, MemFault> {
        Ok(self.shared.resolve(id)?.len())
    }

    /// Load one element ([`crate::memory::Buf::load`]).
    pub fn load(&self, id: MemId, index: i64) -> Result<RtValue, MemFault> {
        Ok(self.shared.resolve(id)?.load(index)?.into())
    }

    /// Store one element ([`crate::memory::Buf::store`]).
    pub fn store(&self, id: MemId, index: i64, value: RtValue) -> Result<(), MemFault> {
        self.shared.resolve(id)?.store(index, value)
    }

    /// Element type of buffer `id`.
    pub fn dtype(&self, id: MemId) -> Result<Dtype, MemFault> {
        Ok(self.shared.resolve(id)?.dtype())
    }
}

/// A host task as a first-class launch-graph node: a closure over a
/// [`HostView`] that a scheduler worker runs as a single logical work-group.
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
