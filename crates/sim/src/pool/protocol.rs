//! The scheduler protocol: what the workers of one graph run agree on,
//! and nothing about the work itself.
//!
//! A worker drives it as `acquire` → `claim` → (per group: `skips`, run
//! it, `record_failure`) → `complete`, which retires the launch on the
//! final decrement and cascades through its successors. What a
//! work-group *is* — a kernel plan over device memory, a host closure —
//! is the driver's business: this file names no plan, memory, cost or
//! value type, so the same protocol can be driven with fake work.

use super::dag::{critical_paths, LaunchDag};
use crate::interp::SimError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

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

/// Number of workers a graph run enlists: the thread-count knob clamped
/// to the graph's total work-group count — never more workers than there
/// are groups to run (a graph with no groups still gets the calling
/// thread).
pub(super) fn graph_workers(threads: usize, total_groups: usize) -> usize {
    threads.max(1).min(total_groups.max(1))
}

/// Work-groups claimed per claim-cursor RMW: aim for ~8 chunks per
/// enlisted worker so load still balances, floor 1 so tiny launches keep
/// fine-grained interleaving, cap 64 so no worker monopolizes a launch
/// and independent launches pipeline. Sized from the **clamped** worker
/// count ([`graph_workers`]), not the raw thread-count hint — the hint
/// can exceed the workers that actually contend on the cursor.
pub(super) fn claim_chunk(total: usize, workers: usize) -> usize {
    (total / (workers * 8)).clamp(1, 64)
}

/// A failure observed while running one work-group: a simulator error
/// (divergent barrier, device-memory fault, tripped execution limit), or
/// a caught panic — an internal invariant violation, kept only to be
/// re-thrown on the launching thread after the join.
pub(super) enum Failure {
    Error(SimError),
    Panic(Box<dyn std::any::Any + Send>),
}

/// Terminal state of one launch in a [`GraphReport`](super::GraphReport).
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

/// Per-launch scheduling state: claim cursor, retire counter, the
/// remaining-dependency counter driving the ready set, and the launch's
/// failure.
struct Node {
    /// Critical-path length through the DAG from this launch (the
    /// ready set's priority key).
    cp: u64,
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
    /// The failure of the smallest failing work-group recorded so far
    /// (the first recorded wins a tie); `failed` is its lock-free bound.
    failure: Mutex<Option<(usize, Failure)>>,
    /// Root-cause launch index when this launch was cancelled because a
    /// (transitive) predecessor failed; `usize::MAX` while live.
    /// `fetch_min` keeps the smallest cause, making the reported cause
    /// deterministic under any retire order.
    cancelled_by: AtomicUsize,
}

/// The shared scheduling state of one graph run. Lives on the launching
/// thread's stack; the run's workers borrow it and are joined before it
/// goes out of scope.
pub(super) struct Scheduler<'a> {
    nodes: Vec<Node>,
    dag: &'a LaunchDag,
    ready: Mutex<ReadySet>,
    /// Wakes workers parked in `acquire` (new ready launches, poisoning,
    /// or the last retire).
    wake: Condvar,
    /// Launches not yet retired; the run is over when this hits zero.
    launches_left: AtomicUsize,
    /// Set when a worker itself dies outside group execution (a scheduler
    /// bug): releases parked workers so every worker returns and is
    /// joined.
    poisoned: AtomicBool,
}

impl<'a> Scheduler<'a> {
    /// The protocol state over `dag` (validated by the caller) for
    /// launches of the given `(groups, total)` geometry and `workers`
    /// workers, ready for them to start. `upfront` are the launches known
    /// to fail before any of their groups runs: each is recorded at its
    /// work-group 0, in order, so every group is skipped, the launch
    /// retires through normal claim accounting and the ordinary cascade
    /// decides about its successors.
    pub(super) fn new(
        dag: &'a LaunchDag,
        geometry: &[([i64; 3], usize)],
        workers: usize,
        upfront: Vec<(usize, SimError)>,
    ) -> Scheduler<'a> {
        let cp = critical_paths(dag, geometry);
        let nodes: Vec<Node> = (geometry.iter().zip(&cp).zip(&dag.preds))
            .map(|((&(_, total), &cp), &preds)| Node {
                cp,
                total,
                chunk: claim_chunk(total, workers),
                next: AtomicUsize::new(0),
                unfinished: AtomicUsize::new(total),
                remaining_deps: AtomicUsize::new(preds),
                failed: AtomicU64::new(u64::MAX),
                failure: Mutex::new(None),
                cancelled_by: AtomicUsize::new(usize::MAX),
            })
            .collect();
        // Empty launches never enter the ready set (no work-group could
        // retire them): roots retire eagerly below, the rest cascade
        // through `retire`. Room for every launch up front: storage a
        // worker thread grew would land in that thread's allocator cache
        // and pin the launching thread's heap for good.
        let mut ready = ReadySet::with_capacity(nodes.len());
        let roots = (0..nodes.len()).filter(|&i| dag.preds[i] == 0 && nodes[i].total > 0);
        ready.extend(roots.map(|i| (nodes[i].cp, Reverse(i))));
        let sched = Scheduler {
            launches_left: AtomicUsize::new(nodes.len()),
            nodes,
            dag,
            ready: Mutex::new(ready),
            wake: Condvar::new(),
            poisoned: AtomicBool::new(false),
        };
        for (li, error) in upfront {
            sched.record_failure(li, 0, Failure::Error(error));
        }
        // Retire dependency-free empty launches before any worker starts: a
        // zero-group launch has no group whose completion could publish its
        // successors, so without this a chain through an empty launch would
        // never make progress (and an all-empty graph would deadlock).
        for i in 0..sched.nodes.len() {
            if dag.preds[i] == 0 && sched.nodes[i].total == 0 {
                sched.retire(i);
            }
        }
        sched
    }

    /// Record a failing work-group, tightening the launch's skip bound.
    /// Errors are stamped with their true `(launch, group)` position
    /// here — executors construct them with placeholders. Only the
    /// smallest failing group of a launch is kept: a failure beyond an
    /// already-recorded smaller one is dropped (it could never be
    /// reported), and of two at the same group the first stays.
    pub(super) fn record_failure(&self, li: usize, gi: usize, failure: Failure) {
        let node = &self.nodes[li];
        let prev = node.failed.fetch_min(gi as u64, Ordering::Relaxed);
        if (gi as u64) > prev {
            return;
        }
        let failure = match failure {
            Failure::Error(e) => Failure::Error(e.at(li, gi)),
            p => p,
        };
        let mut slot = node.failure.lock().unwrap();
        if !matches!(&*slot, Some((g, _)) if *g <= gi) {
            *slot = Some((gi, failure));
        }
    }

    /// Whether launch `li`'s failure cancels its successors. Only limit
    /// trips and injected faults cascade (see [`SimError::cascades`]).
    /// Called at retire time, after every group of `li` is accounted
    /// for, so the slot already holds the minimal failing group.
    fn failure_cascades(&self, li: usize) -> bool {
        let slot = self.nodes[li].failure.lock().unwrap();
        matches!(&*slot, Some((_, Failure::Error(e))) if e.cascades())
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
    fn retire(&self, li: usize) {
        let mut to_retire = vec![li];
        let mut newly_ready = Vec::new();
        let mut retired = 0_usize;
        while let Some(u) = to_retire.pop() {
            retired += 1;
            // A launch that retired in a failed (or itself cancelled)
            // state cancels its successors, carrying the *root* failing
            // launch as the cause.
            let node = &self.nodes[u];
            let cause = if node.cancelled_by.load(Ordering::Relaxed) != usize::MAX {
                Some(node.cancelled_by.load(Ordering::Relaxed))
            } else if node.failed.load(Ordering::Relaxed) != u64::MAX && self.failure_cascades(u) {
                Some(u)
            } else {
                None
            };
            for &s in &self.dag.succs[u] {
                // The cancellation mark must precede the dependency
                // decrement: the AcqRel RMW chain on `remaining_deps`
                // guarantees whoever performs the *final* decrement
                // observes every predecessor's mark, so a cancelled
                // launch can never slip into the ready set.
                if let Some(c) = cause {
                    self.nodes[s].cancelled_by.fetch_min(c, Ordering::Relaxed);
                }
                // AcqRel: the retiring thread has (transitively) acquired
                // all group-completion decrements of `u`, and a
                // successor's first claim acquires this decrement —
                // establishing happens-before from every write of a
                // predecessor launch to every read of its successors.
                if self.nodes[s].remaining_deps.fetch_sub(1, Ordering::AcqRel) == 1 {
                    if self.nodes[s].cancelled_by.load(Ordering::Relaxed) != usize::MAX
                        || self.nodes[s].total == 0
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
            q.push((self.nodes[s].cp, Reverse(s)));
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
    pub(super) fn acquire(&self) -> Option<usize> {
        let mut q = self.ready.lock().unwrap();
        loop {
            if self.poisoned.load(Ordering::Relaxed) {
                return None;
            }
            if self.launches_left.load(Ordering::Acquire) == 0 {
                return None;
            }
            while let Some(&(_, Reverse(li))) = q.peek() {
                if self.nodes[li].next.load(Ordering::Relaxed) >= self.nodes[li].total {
                    q.pop();
                } else {
                    return Some(li);
                }
            }
            q = self.wake.wait(q).unwrap();
        }
    }

    /// Claim the next chunk of launch `li`'s work-groups — one atomic RMW
    /// amortized over many groups — or `None` once it is fully claimed.
    /// Every claimed chunk must be handed to [`Scheduler::complete`].
    pub(super) fn claim(&self, li: usize) -> Option<Range<usize>> {
        let node = &self.nodes[li];
        let start = node.next.fetch_add(node.chunk, Ordering::Relaxed);
        (start < node.total).then(|| start..(start + node.chunk).min(node.total))
    }

    /// Whether group `gi` of launch `li` sits at or beyond the launch's
    /// best-known failure, so running it could not change what is
    /// reported. Groups below a launch's eventual minimum are never
    /// skipped, so scheduling cannot reorder that minimum away.
    pub(super) fn skips(&self, li: usize, gi: usize) -> bool {
        gi as u64 >= self.nodes[li].failed.load(Ordering::Relaxed)
    }

    /// Account for a claimed chunk of `groups` work-groups of launch `li`
    /// (run, failed or skipped); the last one retires the launch.
    pub(super) fn complete(&self, li: usize, groups: usize) {
        // Release: every store this worker made for these groups
        // happens-before the retire that publishes the successors.
        let before = self.nodes[li]
            .unfinished
            .fetch_sub(groups, Ordering::AcqRel);
        debug_assert!(before >= groups, "over-retired launch {li}");
        if before == groups {
            self.retire(li);
        }
    }

    /// Release every worker: one of them died outside group execution (a
    /// scheduler bug) and its launches would never retire. The flag is
    /// raised while holding the `ready` mutex: `acquire` checks it under
    /// the same mutex, so a worker is either still scanning (and will see
    /// the flag) or already parked (and gets the notification) — never
    /// in between losing both.
    pub(super) fn poison(&self) {
        {
            let _q = self.ready.lock().unwrap();
            self.poisoned.store(true, Ordering::Relaxed);
        }
        self.wake.notify_all();
    }

    /// The launches' terminal states, once every worker has been joined.
    /// A launch whose smallest failing group *panicked* has none: the
    /// first such payload — the smallest `(launch, group)` position — is
    /// re-thrown here, on the launching thread.
    pub(super) fn into_statuses(self) -> Vec<LaunchStatus> {
        self.nodes
            .into_iter()
            .map(|node| {
                let by = node.cancelled_by.into_inner();
                if by != usize::MAX {
                    return LaunchStatus::Cancelled { cause: by };
                }
                match node.failure.into_inner().unwrap() {
                    None => LaunchStatus::Completed,
                    Some((group, Failure::Error(error))) => LaunchStatus::Failed { group, error },
                    Some((_, Failure::Panic(payload))) => resume_unwind(payload),
                }
            })
            .collect()
    }
}
