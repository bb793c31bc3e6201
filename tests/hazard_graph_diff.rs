//! The hazard table against the all-pairs scan it replaced.
//!
//! `Queue::dependencies` walks the queue once against a per-resource
//! `{last writer, readers since}` table and emits a sparse edge set; the
//! builder it replaced compared every pair of command groups and emitted
//! every direct hazard. The old builder lives on in `tests/common` as the
//! reference. Over random queues, the scheduler stress suite's generated
//! queues and the `repro_hostdag` shape, this suite holds the new edges
//! to it:
//!
//! 1. every new edge is a reference edge (nothing is ordered that was
//!    not a hazard);
//! 2. the two edge sets have the same transitive closure (everything
//!    that was ordered still is) — which is all the launch scheduler
//!    depends on;
//! 3. the edge count is linear in the program: at most two per accessor
//!    requirement plus one per USM argument;
//! 4. the output is sorted by `(after, before)`, duplicate-free, and
//!    every edge points forward in submission order.

mod common;

use common::{reference_dependencies, GraphSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashSet;
use sycl_mlir_repro::runtime::{BufferId, CgArg, HostOp, Queue, UsmId};
use sycl_mlir_repro::sycl::types::AccessMode::{self, Read, ReadWrite, Write};

/// Ancestor sets of a forward-edged graph over `n` nodes, one bitset row
/// per node: `i` is in row `j` iff a path leads from `i` to `j`.
fn ancestors(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<u64>> {
    let words = n.div_ceil(64);
    let mut preds = vec![Vec::new(); n];
    for &(i, j) in edges {
        assert!(i < j && j < n, "edge {i} -> {j} over {n} groups");
        preds[j].push(i);
    }
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(n);
    // Edges point forward, so every predecessor's row is final by the
    // time its successor's is built.
    for p in &preds {
        let mut row = vec![0_u64; words];
        for &i in p {
            row[i / 64] |= 1 << (i % 64);
            for (w, a) in row.iter_mut().zip(&rows[i]) {
                *w |= a;
            }
        }
        rows.push(row);
    }
    rows
}

/// The four properties of the module doc, on one queue.
fn check_queue(q: &Queue, what: &str) {
    let new = q.dependencies();
    let reference = reference_dependencies(q);
    let n = q.groups.len();

    // (4) Sorted by (after, before), no duplicates, forward edges only.
    for w in new.windows(2) {
        let (a, b) = (w[0], w[1]);
        assert!(
            (a.1, a.0) < (b.1, b.0),
            "{what}: {a:?} then {b:?} is not strictly ascending by (after, before)"
        );
    }
    for &(i, j) in &new {
        assert!(i < j && j < n, "{what}: edge {i} -> {j} over {n} groups");
    }

    // (1) A subset of the direct hazards.
    let direct: HashSet<_> = reference.iter().copied().collect();
    for e in &new {
        assert!(direct.contains(e), "{what}: {e:?} is not a direct hazard");
    }

    // (2) Same reachability.
    let (got, want) = (ancestors(n, &new), ancestors(n, &reference));
    for j in 0..n {
        assert_eq!(
            got[j],
            want[j],
            "{what}: group {j} has different ancestors ({} vs {} reference edges)",
            new.len(),
            reference.len()
        );
    }

    // (3) Linear in the program.
    let (mut accessors, mut usm) = (0, 0);
    for arg in q.groups.iter().flat_map(|g| &g.args) {
        match arg {
            CgArg::Acc { .. } => accessors += 1,
            CgArg::Usm { .. } => usm += 1,
            _ => {}
        }
    }
    assert!(
        new.len() <= 2 * accessors + usm,
        "{what}: {} edges over {accessors} accessor and {usm} USM arguments",
        new.len()
    );
}

/// A random queue: 1–300 groups over 1–8 buffers and 0–2 USM
/// allocations; kernels with up to five arguments under every access
/// mode (few resources, so one group often names a buffer twice — and
/// one in eight does so on purpose, under two different modes), scalars
/// in between, and host tasks.
fn random_queue(seed: u64) -> Queue {
    let mut rng = TestRng::new(seed);
    let n_buf = 1 + rng.below(8);
    let n_usm = rng.below(3);
    let n_groups = 1 + rng.below(300);
    let modes = [Read, Write, ReadWrite];
    let mut q = Queue::new();
    for _ in 0..n_groups {
        if rng.below(5) == 0 {
            let buffer = BufferId(rng.below(n_buf));
            let op = match rng.below(3) {
                0 => HostOp::Scale {
                    buffer,
                    factor: 2.0,
                },
                1 => HostOp::Shift { buffer, delta: 1.0 },
                // `dst == src` happens: one buffer, read and read+write.
                _ => HostOp::AddInto {
                    dst: buffer,
                    src: BufferId(rng.below(n_buf)),
                },
            };
            q.submit(|h| h.host_task(op));
            continue;
        }
        q.submit(|h| {
            for _ in 0..rng.below(6) {
                match rng.below(8) {
                    0 if n_usm > 0 => {
                        h.usm(UsmId(rng.below(n_usm)), 16);
                    }
                    1 => {
                        h.scalar_i64(7);
                    }
                    2 => {
                        let b = BufferId(rng.below(n_buf));
                        let first = rng.below(3);
                        h.accessor(b, modes[first]);
                        h.accessor(b, modes[(first + 1 + rng.below(2)) % 3]);
                    }
                    _ => {
                        h.accessor(BufferId(rng.below(n_buf)), modes[rng.below(3)]);
                    }
                }
            }
            h.parallel_for("k", &[16]);
        });
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn random_queues_keep_reachability(seed in 0u64..u64::MAX) {
        check_queue(&random_queue(seed), &format!("random queue, seed {seed}"));
    }

    /// The queues `tests/scheduler_stress.rs` executes.
    #[test]
    fn scheduler_stress_queues_keep_reachability(seed in 0u64..u64::MAX) {
        check_queue(
            &GraphSpec::generate(seed).queue(),
            &format!("scheduler_stress graph, seed {seed}"),
        );
    }
}

/// The `repro_hostdag` shape at full size: 300 rounds of one host task
/// on a rotating buffer plus three read+write kernels on other buffers,
/// 1,200 groups over 8 buffers — where the all-pairs scan was quadratic.
#[test]
fn hostdag_shape_keeps_reachability_with_linear_edges() {
    const BUFS: usize = 8;
    let mut rng = TestRng::new(0x9E37_79B9_7F4A_7C15);
    let mut q = Queue::new();
    for r in 0..300 {
        let hb = r % BUFS;
        let buffer = BufferId(hb);
        let op = match rng.below(3) {
            0 => HostOp::Scale {
                buffer,
                factor: 1.25,
            },
            1 => HostOp::Shift {
                buffer,
                delta: 0.125,
            },
            _ => HostOp::AddInto {
                dst: buffer,
                src: BufferId((hb + 1) % BUFS),
            },
        };
        q.submit(|h| h.host_task(op));
        for k in 0..3 {
            let b = BufferId((hb + 2 + k + rng.below(3)) % BUFS);
            q.submit(|h| {
                h.accessor(b, ReadWrite);
                h.parallel_for_nd("churn", &[512], &[64]);
            });
        }
    }
    check_queue(&q, "repro_hostdag shape");
    let (sparse, dense) = (q.dependencies().len(), reference_dependencies(&q).len());
    assert!(
        sparse < 2 * q.groups.len() && dense > 50 * q.groups.len(),
        "{sparse} edges against the reference's {dense} over {} groups",
        q.groups.len()
    );
}

// ----------------------------------------------------------------------
// Hand-written cases: the exact edge set
// ----------------------------------------------------------------------

/// Submit one kernel per entry, each with the listed accessors.
fn queue_of(groups: &[&[(usize, AccessMode)]]) -> Queue {
    let mut q = Queue::new();
    for accs in groups {
        q.submit(|h| {
            for &(b, mode) in *accs {
                h.accessor(BufferId(b), mode);
            }
            h.parallel_for("k", &[16]);
        });
    }
    q
}

/// Many readers then one writer: a RAW edge into every reader, a WAR
/// edge out of every reader, and no WAW edge — the readers carry it.
#[test]
fn readers_then_a_writer() {
    let q = queue_of(&[
        &[(0, Write)],
        &[(0, Read)],
        &[(0, Read)],
        &[(0, Read)],
        &[(0, Write)],
    ]);
    check_queue(&q, "readers then a writer");
    assert_eq!(
        q.dependencies(),
        vec![(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    );
    assert!(reference_dependencies(&q).contains(&(0, 4)));
}

/// Write after write with no reader between: the WAW edge itself, and
/// only from the *last* writer.
#[test]
fn write_after_write() {
    let q = queue_of(&[&[(0, Write)], &[(0, ReadWrite)], &[(0, Write)]]);
    check_queue(&q, "write after write");
    assert_eq!(q.dependencies(), vec![(0, 1), (1, 2)]);
}

/// Readers do not order each other, with or without a writer before them.
#[test]
fn read_after_read_is_no_hazard() {
    let q = queue_of(&[&[(0, Read)], &[(0, Read)], &[(1, Read), (0, Read)]]);
    check_queue(&q, "read after read");
    assert_eq!(q.dependencies(), vec![]);
}

/// A group that names one buffer twice is one requirement (here: a
/// write), and never its own predecessor.
#[test]
fn one_buffer_named_twice_in_a_group() {
    let q = queue_of(&[
        &[(0, Read)],
        &[(0, Read), (0, Write)],
        &[(0, Write), (0, Read)],
        &[(0, Read), (0, Read)],
        &[(0, Write)],
    ]);
    check_queue(&q, "buffer named twice");
    assert_eq!(q.dependencies(), vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
}

/// USM allocations are read+write everywhere, in a key space of their
/// own: a chain per allocation, and `UsmId(0)` is not `BufferId(0)`.
#[test]
fn usm_chain() {
    let mut q = Queue::new();
    for u in [0, 0, 1, 0] {
        q.submit(|h| {
            h.usm(UsmId(u), 16);
            h.parallel_for("k", &[16]);
        });
    }
    q.submit(|h| {
        h.accessor(BufferId(0), ReadWrite);
        h.parallel_for("k", &[16]);
    });
    check_queue(&q, "usm chain");
    assert_eq!(q.dependencies(), vec![(0, 1), (1, 3)]);
}

#[test]
fn empty_queue() {
    let q = Queue::new();
    check_queue(&q, "empty queue");
    assert_eq!(q.dependencies(), vec![]);
    assert!(q.dep_graph().is_empty());
}
