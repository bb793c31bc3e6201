//! Host tasks as launch-graph nodes: the closure a node runs
//! ([`HostNode`]) against the device memory the scheduler shares with its
//! workers ([`SharedPool`]).

use super::arena::SharedPool;
use crate::interp::SimError;
#[cfg(doc)]
use crate::memory::{Buf, MemFault};
use std::sync::Arc;

/// Fixed weighted-operation cost charged per host node through the
/// launch's `OpMeter`: host closures are opaque to the instruction
/// meter, so each one pays this flat weight against the op budget (and
/// with it gets a deadline poll) before its closure runs.
pub const HOST_NODE_WEIGHT: u64 = 64;

/// A host task as a first-class launch-graph node: a closure over the
/// [`SharedPool`] of the run's device memory that a scheduler worker runs
/// as a single logical work-group. The closure resolves each buffer once
/// ([`SharedPool::resolve`]) into a [`Buf`], whose bounds-checked, typed
/// element access has the same coercions and [`MemFault`]s as kernel
/// accesses (`?` turns one into the closure's [`SimError`]). Host nodes
/// are hazard-tracked and metered (a flat [`HostNode::weight`] against
/// the op budget) exactly like kernel launches, with the same
/// happens-before edges, and fail like them — a [`MemFault`] is the
/// node's error — so one graph spans a whole program.
#[derive(Clone)]
pub struct HostNode {
    run: HostFn,
    /// Weighted-operation cost charged through the `OpMeter` before
    /// the closure runs ([`HOST_NODE_WEIGHT`] by default).
    pub weight: u64,
}

/// The boxed closure a [`HostNode`] runs.
type HostFn = Arc<dyn Fn(&SharedPool<'_>) -> Result<(), SimError> + Send + Sync>;

impl HostNode {
    /// A host node running `f`, charged at [`HOST_NODE_WEIGHT`].
    pub fn new<F>(f: F) -> HostNode
    where
        F: Fn(&SharedPool<'_>) -> Result<(), SimError> + Send + Sync + 'static,
    {
        HostNode {
            run: Arc::new(f),
            weight: HOST_NODE_WEIGHT,
        }
    }

    /// Run the closure against the device memory.
    pub fn run(&self, pool: &SharedPool<'_>) -> Result<(), SimError> {
        (self.run)(pool)
    }
}

impl std::fmt::Debug for HostNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostNode")
            .field("weight", &self.weight)
            .finish_non_exhaustive()
    }
}
