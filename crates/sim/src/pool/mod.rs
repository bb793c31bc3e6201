//! Parallel work-group execution: shared memory views, per-worker arenas
//! and the std::thread work-group scheduler.
//!
//! The work-group axis of an ND-range launch is embarrassingly parallel —
//! SYCL guarantees work-groups are independent (no barriers span groups,
//! and cross-group data races are undefined behaviour in the source
//! program). This module exploits that: work-groups are distributed over
//! the OS threads of one graph run, each running its groups' work-items
//! co-operatively exactly like the sequential engine. Five files, along
//! the seams that make that safe and **deterministic**:
//!
//! * `arena` — device memory as the workers see it: [`SharedPool`], the
//!   launch-scoped, lock-free view of the device buffers, and
//!   [`PlanPool`], one worker's interface to it plus its two private
//!   arenas (dense constants, recycled alloca scratch).
//! * `dag` — [`LaunchDag`], the hazard DAG ordering the launches of a
//!   run, and the critical-path lengths the ready set drains by.
//! * `host` — host tasks as graph nodes: [`HostNode`] closures over the
//!   [`SharedPool`] of the device memory.
//! * `protocol` — what the workers of a run agree on: per-launch
//!   dependency counters and chunked claim cursors, the ready set,
//!   retire, and the run's one failure bound. Retire hands the best
//!   newly ready single-chunk successor to the retiring worker (the
//!   handoff rule) and wakes workers only when one is parked (the wake
//!   rule). It knows nothing of plans, memory, costs or values.
//! * `driver` — what a launch is ([`PlanLaunch`]), the worker loop (one
//!   `PlanCtx` and one `PlanWorkGroup` per worker for the whole run) and
//!   [`run_plan_graph_report`], the **out-of-order scheduler**'s one
//!   entry point, which instantiates each distinct binding's proofs
//!   once; its documentation states the determinism contract
//!   (statistics, buffers and the reported failure are bit-identical for
//!   any worker count, schedule and interleaving) and the failure
//!   contract (one failure per run, the serial reference's first).
//!
//! The workers of a run are **scoped threads**: the calling thread is
//! worker 0, `threads - 1` more are spawned for the run, borrow its state
//! and are joined before it returns. A program is one graph run
//! (`exec::run` hands the whole queue over as one graph), so there is no
//! traffic of small runs a persistent pool would serve.
//!
//! Everything a kernel or a host closure can get wrong arrives as a
//! [`SimError`](crate::SimError) value; `catch_unwind` around a
//! work-group is only the backstop that carries a simulator bug's panic
//! back to the launching thread, where it is re-thrown.

mod arena;
mod dag;
mod driver;
mod host;
mod protocol;
#[cfg(test)]
mod tests;

pub use arena::{PlanExecCtx, PlanPool, SharedPool};
pub use dag::LaunchDag;
#[cfg(test)]
pub(crate) use driver::{run_graph, run_one_launch};
pub use driver::{run_plan_graph_report, GraphReport, PlanLaunch};
pub use host::{HostNode, HOST_NODE_WEIGHT};
