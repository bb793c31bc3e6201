//! Queues, command groups, and the dependency-tracking scheduler.
//!
//! With the buffer/accessor model "the SYCL runtime can fully automate
//! dependency tracking between kernels and necessary data movements"
//! (§II-A): command groups are ordered by RAW/WAR/WAW hazards over the
//! buffers their accessors request.
//!
//! The hazards are found the way a production SYCL runtime finds them:
//! one pass over the queue in submission order against a **per-resource
//! hazard table** — for every buffer and USM allocation, the last writer
//! and the readers since that write ([`Queue::dependencies`]). The edge
//! set it emits is sparse (at most two edges per accessor requirement)
//! but has the reachability of the full set of direct hazards, which is
//! all the launch scheduler depends on.

use crate::buffer::{BufferId, UsmId};
use std::collections::HashMap;
use sycl_mlir_sim::{LaunchDag, NdRangeSpec};
use sycl_mlir_sycl::types::AccessMode;

/// One kernel argument recorded in a command group, in kernel-parameter
/// order.
#[derive(Clone, Debug, PartialEq)]
pub enum CgArg {
    /// An accessor over `buffer` with the given mode.
    Acc {
        /// The buffer the accessor ranges over.
        buffer: BufferId,
        /// Requested access mode (drives dependency tracking).
        mode: AccessMode,
    },
    /// Scalar captured by the kernel functor, constant in the host source
    /// (visible to host constant propagation).
    ScalarI64(i64),
    /// See [`CgArg::ScalarI64`].
    ScalarF64(f64),
    /// See [`CgArg::ScalarI64`].
    ScalarF32(f32),
    /// Scalar only known at run time (opaque to the compiler).
    RuntimeI64(i64),
    /// See [`CgArg::RuntimeI64`].
    RuntimeF64(f64),
    /// A USM device pointer (manually managed, opaque to host analysis).
    Usm {
        /// The USM allocation.
        id: UsmId,
        /// Element count of the allocation.
        len: i64,
    },
}

impl CgArg {
    /// The buffer and mode, if this argument is an accessor.
    pub fn accessor(&self) -> Option<(BufferId, AccessMode)> {
        match self {
            CgArg::Acc { buffer, mode } => Some((*buffer, *mode)),
            _ => None,
        }
    }
}

/// A deterministic host-side operation submitted as a command group (the
/// SYCL `handler::host_task`): it reads/writes buffers on the host and is
/// ordered through the same hazard DAG as kernel launches. The executor
/// runs it as a **first-class launch-graph node** (a
/// [`sycl_mlir_sim::HostNode`]): one logical work-group on a scheduler worker,
/// hazard-tracked and metered at a fixed weight like any kernel launch —
/// so kernels with no hazard on the host task overlap it freely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HostOp {
    /// Multiply every element of `buffer` by `factor`.
    Scale {
        /// The buffer to scale in place.
        buffer: BufferId,
        /// The factor (applied through `f64` for every element type).
        factor: f64,
    },
    /// Add `delta` to every element of `buffer`.
    Shift {
        /// The buffer to shift in place.
        buffer: BufferId,
        /// The addend (applied through `f64` for every element type).
        delta: f64,
    },
    /// `dst[i] += src[i]` elementwise (the buffers must share element
    /// type; lengths are clamped to the shorter one).
    AddInto {
        /// The accumulated-into buffer.
        dst: BufferId,
        /// The added buffer.
        src: BufferId,
    },
}

impl HostOp {
    /// The accessor requirements implied by the operation — recorded on
    /// the command group so dependency tracking sees host tasks exactly
    /// like kernel submissions.
    pub fn requirements(&self) -> Vec<(BufferId, AccessMode)> {
        match *self {
            HostOp::Scale { buffer, .. } | HostOp::Shift { buffer, .. } => {
                vec![(buffer, AccessMode::ReadWrite)]
            }
            HostOp::AddInto { dst, src } => {
                vec![(dst, AccessMode::ReadWrite), (src, AccessMode::Read)]
            }
        }
    }
}

/// A recorded command group: one kernel submission (or host task) with
/// its requirements.
#[derive(Clone, Debug)]
pub struct CommandGroup {
    /// Kernel name to resolve at execution time (`"<host-task>"` for host
    /// tasks).
    pub kernel: String,
    /// Launch geometry.
    pub nd: NdRangeSpec,
    /// `parallel_for(nd_range)` vs `parallel_for(range)`.
    pub nd_form: bool,
    /// Arguments in kernel-parameter order.
    pub args: Vec<CgArg>,
    /// The host operation, when this group is a host task instead of a
    /// kernel launch.
    pub host: Option<HostOp>,
}

/// The command-group construction API handed to [`Queue::submit`] closures,
/// mirroring the SYCL handler.
#[derive(Default)]
pub struct Handler {
    args: Vec<CgArg>,
    cg: Option<CommandGroup>,
}

impl Handler {
    /// Request an accessor (also records the scheduling requirement).
    pub fn accessor(&mut self, buffer: BufferId, mode: AccessMode) -> &mut Handler {
        self.args.push(CgArg::Acc { buffer, mode });
        self
    }

    /// Capture a compile-time-constant scalar.
    pub fn scalar_i64(&mut self, v: i64) -> &mut Handler {
        self.args.push(CgArg::ScalarI64(v));
        self
    }

    /// See [`Handler::scalar_i64`].
    pub fn scalar_f64(&mut self, v: f64) -> &mut Handler {
        self.args.push(CgArg::ScalarF64(v));
        self
    }

    /// See [`Handler::scalar_i64`].
    pub fn scalar_f32(&mut self, v: f32) -> &mut Handler {
        self.args.push(CgArg::ScalarF32(v));
        self
    }

    /// Capture a scalar whose value only exists at run time.
    pub fn runtime_i64(&mut self, v: i64) -> &mut Handler {
        self.args.push(CgArg::RuntimeI64(v));
        self
    }

    /// See [`Handler::runtime_i64`].
    pub fn runtime_f64(&mut self, v: f64) -> &mut Handler {
        self.args.push(CgArg::RuntimeF64(v));
        self
    }

    /// Pass a USM device pointer (the kernel sees a plain global array; no
    /// buffer-identity or constness information reaches the compiler).
    pub fn usm(&mut self, id: UsmId, len: i64) -> &mut Handler {
        self.args.push(CgArg::Usm { id, len });
        self
    }

    /// Submit an nd-range kernel (Listing 6 style).
    pub fn parallel_for_nd(&mut self, kernel: &str, global: &[i64], local: &[i64]) {
        let mut g = [1_i64; 3];
        let mut l = [1_i64; 3];
        for (i, &x) in global.iter().enumerate() {
            g[i] = x;
        }
        for (i, &x) in local.iter().enumerate() {
            l[i] = x;
        }
        self.cg = Some(CommandGroup {
            kernel: kernel.to_string(),
            nd: NdRangeSpec {
                global: g,
                local: l,
                rank: global.len() as u32,
            },
            nd_form: true,
            args: std::mem::take(&mut self.args),
            host: None,
        });
    }

    /// Submit a range kernel; the runtime picks the work-group size.
    pub fn parallel_for(&mut self, kernel: &str, global: &[i64]) {
        let mut g = [1_i64; 3];
        for (i, &x) in global.iter().enumerate() {
            g[i] = x;
        }
        let l = pick_work_group(&g, global.len() as u32);
        self.cg = Some(CommandGroup {
            kernel: kernel.to_string(),
            nd: NdRangeSpec {
                global: g,
                local: l,
                rank: global.len() as u32,
            },
            nd_form: false,
            args: std::mem::take(&mut self.args),
            host: None,
        });
    }

    /// Submit a host task (the SYCL `handler::host_task`): deterministic
    /// host-side work over buffers, ordered through the hazard DAG like
    /// any kernel. The operation's buffer requirements are recorded
    /// automatically (in addition to any explicitly requested accessors).
    pub fn host_task(&mut self, op: HostOp) {
        for (buffer, mode) in op.requirements() {
            self.args.push(CgArg::Acc { buffer, mode });
        }
        self.cg = Some(CommandGroup {
            kernel: "<host-task>".to_string(),
            nd: NdRangeSpec::d1(1, 1),
            nd_form: false,
            args: std::mem::take(&mut self.args),
            host: Some(op),
        });
    }
}

/// Runtime work-group choice for `parallel_for(range)`: largest
/// power-of-two divisor up to 256 (1-d) / 16 per dim (2-d/3-d).
fn pick_work_group(global: &[i64; 3], rank: u32) -> [i64; 3] {
    let mut local = [1_i64; 3];
    let cap = if rank <= 1 { 256 } else { 16 };
    for d in 0..rank as usize {
        let mut w = 1;
        while w * 2 <= cap && global[d] % (w * 2) == 0 {
            w *= 2;
        }
        local[d] = w;
    }
    local
}

/// What dependency tracking keys its hazard table by. Buffers and USM
/// allocations are numbered independently, so each kind is a key space
/// of its own.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Resource {
    Buffer(BufferId),
    Usm(UsmId),
}

/// One row of the hazard table: what the groups walked so far left
/// behind on a resource.
#[derive(Default)]
struct Hazard {
    /// The last group that wrote the resource.
    last_writer: Option<usize>,
    /// The groups that only read it since (each already ordered after
    /// `last_writer`).
    readers: Vec<usize>,
}

/// An in-order-submission queue with automatic dependency tracking.
#[derive(Default, Debug)]
pub struct Queue {
    /// Recorded command groups, in submission order.
    pub groups: Vec<CommandGroup>,
}

impl Queue {
    /// An empty queue.
    pub fn new() -> Queue {
        Queue::default()
    }

    /// Record a command group (the SYCL `queue::submit`).
    ///
    /// # Panics
    ///
    /// Panics if the closure never calls a `parallel_for` variant.
    pub fn submit(&mut self, f: impl FnOnce(&mut Handler)) -> usize {
        let mut h = Handler::default();
        f(&mut h);
        let cg = h.cg.expect("command group did not submit a kernel");
        self.groups.push(cg);
        self.groups.len() - 1
    }

    /// Dependency edges `(before, after)` implied by buffer hazards
    /// (RAW, WAR, WAW) — what the SYCL scheduler enforces (§II-A) — plus
    /// conservative read+write hazards on shared USM allocations (USM
    /// pointers carry no access mode the runtime could refine). Sorted by
    /// `(after, before)`, no duplicates, `before < after`.
    ///
    /// One pass in submission order over the hazard table. A group's
    /// requirements are first merged per resource (it may name one buffer
    /// twice). Per resource, a write waits for the readers since the last
    /// write — each of which already waits for that write — and otherwise,
    /// like a read, for the last writer alone. The group then becomes the
    /// last writer (forgetting the readers) or joins the readers.
    ///
    /// Every edge is a direct hazard, and every direct hazard that gets no
    /// edge of its own is covered by a path: the edges have the same
    /// transitive closure as the all-pairs hazard relation (held to it by
    /// `tests/hazard_graph_diff.rs`). A reader is forgotten by the one
    /// write that takes its edge, so there are at most two edges per
    /// accessor requirement and one per USM argument — linear in the
    /// program, not quadratic in the queue.
    pub fn dependencies(&self) -> Vec<(usize, usize)> {
        let mut table: HashMap<Resource, Hazard> = HashMap::new();
        let mut edges = Vec::new();
        // Scratch reused across groups: merged requirements `(resource,
        // writes)` — every requirement reads or writes, so "does not
        // write" is "only reads" — and the predecessors they imply.
        // Requirement lists are a handful long: the merge is a linear probe.
        let mut reqs: Vec<(Resource, bool)> = Vec::new();
        let mut before: Vec<usize> = Vec::new();
        for (j, group) in self.groups.iter().enumerate() {
            reqs.clear();
            for arg in &group.args {
                let (resource, writes) = match *arg {
                    CgArg::Acc { buffer, mode } => (Resource::Buffer(buffer), mode.can_write()),
                    CgArg::Usm { id, .. } => (Resource::Usm(id), true),
                    _ => continue,
                };
                match reqs.iter_mut().find(|r| r.0 == resource) {
                    Some(r) => r.1 |= writes,
                    None => reqs.push((resource, writes)),
                }
            }
            before.clear();
            for &(resource, writes) in &reqs {
                let hazard = table.entry(resource).or_default();
                if writes && !hazard.readers.is_empty() {
                    before.append(&mut hazard.readers);
                } else {
                    before.extend(hazard.last_writer);
                }
                if writes {
                    hazard.last_writer = Some(j);
                } else {
                    hazard.readers.push(j);
                }
            }
            // Two resources can name the same predecessor.
            before.sort_unstable();
            before.dedup();
            edges.extend(before.iter().map(|&i| (i, j)));
        }
        edges
    }

    /// The hazard DAG over the recorded command groups — the sparse edge
    /// set of [`Queue::dependencies`] as predecessor counts plus successor
    /// lists, indices in submission order: the graph [`crate::exec::run`]
    /// hands to [`sycl_mlir_sim::Device::launch_graph`].
    pub fn dep_graph(&self) -> LaunchDag {
        LaunchDag::from_edges(self.groups.len(), &self.dependencies())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dependency_edges() {
        let a = BufferId(0);
        let b = BufferId(1);
        let mut q = Queue::new();
        // CG0 writes a; CG1 reads a, writes b (RAW on a); CG2 reads b (RAW
        // on b); CG2 is independent of CG0.
        q.submit(|h| {
            h.accessor(a, AccessMode::Write);
            h.parallel_for("k0", &[16]);
        });
        q.submit(|h| {
            h.accessor(a, AccessMode::Read)
                .accessor(b, AccessMode::Write);
            h.parallel_for("k1", &[16]);
        });
        q.submit(|h| {
            h.accessor(b, AccessMode::Read);
            h.parallel_for("k2", &[16]);
        });
        let deps = q.dependencies();
        assert!(deps.contains(&(0, 1)));
        assert!(deps.contains(&(1, 2)));
        assert!(!deps.contains(&(0, 2)));
        // The exported DAG is exactly that edge list.
        let dag = q.dep_graph();
        assert_eq!(dag.preds, vec![0, 1, 1]);
        assert_eq!(dag.succs, vec![vec![1], vec![2], vec![]]);
    }

    #[test]
    fn runtime_work_group_choice() {
        assert_eq!(pick_work_group(&[1024, 1, 1], 1)[0], 256);
        assert_eq!(pick_work_group(&[100, 1, 1], 1)[0], 4);
        assert_eq!(pick_work_group(&[64, 64, 1], 2), [16, 16, 1]);
        assert_eq!(pick_work_group(&[6, 6, 1], 2), [2, 2, 1]);
    }

    #[test]
    fn usm_arguments_are_conservative_hazards() {
        let u = UsmId(0);
        let v = UsmId(1);
        let mut q = Queue::new();
        // CG0 and CG1 share USM allocation `u` (no access mode exists to
        // refine the hazard); CG2 touches only `v`.
        q.submit(|h| {
            h.usm(u, 16);
            h.parallel_for("k0", &[16]);
        });
        q.submit(|h| {
            h.usm(u, 16);
            h.parallel_for("k1", &[16]);
        });
        q.submit(|h| {
            h.usm(v, 16);
            h.parallel_for("k2", &[16]);
        });
        let deps = q.dependencies();
        assert!(deps.contains(&(0, 1)));
        assert!(!deps.contains(&(0, 2)));
    }

    /// Host tasks participate in dependency tracking through the
    /// requirements implied by their operation.
    #[test]
    fn host_tasks_are_hazard_tracked() {
        let a = BufferId(0);
        let b = BufferId(1);
        let mut q = Queue::new();
        q.submit(|h| {
            h.accessor(a, AccessMode::Write);
            h.parallel_for("k0", &[16]);
        });
        // Host task reads a, accumulates into b: RAW on a.
        q.submit(|h| h.host_task(HostOp::AddInto { dst: b, src: a }));
        // Kernel reading b: RAW on b against the host task.
        q.submit(|h| {
            h.accessor(b, AccessMode::Read);
            h.parallel_for("k2", &[16]);
        });
        let deps = q.dependencies();
        assert!(deps.contains(&(0, 1)));
        assert!(deps.contains(&(1, 2)));
        assert!(!deps.contains(&(0, 2)));
        assert!(q.groups[1].host.is_some());
        assert_eq!(q.groups[1].kernel, "<host-task>");
    }

    #[test]
    fn nd_submission_records_geometry() {
        let mut q = Queue::new();
        q.submit(|h| {
            h.scalar_i64(42);
            h.parallel_for_nd("gemm", &[64, 64], &[16, 16]);
        });
        let cg = &q.groups[0];
        assert!(cg.nd_form);
        assert_eq!(cg.nd.global, [64, 64, 1]);
        assert_eq!(cg.nd.local, [16, 16, 1]);
        assert_eq!(cg.args, vec![CgArg::ScalarI64(42)]);
    }
}
