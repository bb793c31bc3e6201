//! The scheduler protocol: what the workers of one graph run agree on,
//! and nothing about the work itself.
//!
//! A worker drives it as `acquire` → `claim` → (per group: `skips`, run
//! it, `record_failure`) → `complete`, which retires the launch on the
//! final decrement and publishes its successors — except the best
//! single-chunk one, which `complete` hands back to the worker to run
//! next instead of `acquire`'s pick (the handoff rule). Parked workers
//! are counted under the ready-set mutex, and a retire notifies only
//! when that count is non-zero (the wake rule). What a
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
use std::sync::{Condvar, Mutex, MutexGuard};

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

/// What the `ready` mutex guards: the ready set, and how many workers are
/// parked waiting for it to change.
struct Ready {
    set: ReadySet,
    /// Workers inside `acquire`'s wait. Counted under the mutex on both
    /// sides, so a retire that sees zero knows that no worker can miss
    /// its change: every worker is either parked (and counted) or will
    /// re-read the ready set under the mutex before it parks.
    parked: usize,
}

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

/// Per-launch scheduling state: claim cursor, retire counter and the
/// remaining-dependency counter driving the ready set.
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
}

/// The shared scheduling state of one graph run. Lives on the launching
/// thread's stack; the run's workers borrow it and are joined before it
/// goes out of scope.
pub(super) struct Scheduler<'a> {
    nodes: Vec<Node>,
    dag: &'a LaunchDag,
    ready: Mutex<Ready>,
    /// Wakes workers parked in `acquire` (new ready launches, poisoning,
    /// or the last retire).
    wake: Condvar,
    /// Launches not yet retired; the run is over when this hits zero.
    launches_left: AtomicUsize,
    /// The run's failure bound: the [`key`] of the smallest failing
    /// work-group recorded so far (`u64::MAX` while clean). Every group
    /// at or beyond it is skipped.
    bound: AtomicU64,
    /// The failure at the smallest key recorded so far (the first
    /// recorded wins a tie); `bound` is its lock-free copy.
    failure: Mutex<Option<(u64, Failure)>>,
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
    /// work-group 0, in order, so the smallest of them is the run's bound
    /// before any worker starts — that launch and every later one skip
    /// all their groups and retire through normal claim accounting.
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
            ready: Mutex::new(Ready {
                set: ready,
                parked: 0,
            }),
            wake: Condvar::new(),
            poisoned: AtomicBool::new(false),
            bound: AtomicU64::new(u64::MAX),
            failure: Mutex::new(None),
        };
        for (li, error) in upfront {
            sched.record_failure(li, 0, Failure::Error(error));
        }
        // Retire dependency-free empty launches before any worker starts: a
        // zero-group launch has no group whose completion could publish its
        // successors, so without this a chain through an empty launch would
        // never make progress (and an all-empty graph would deadlock).
        // No worker runs yet to take a handoff: what one would get is
        // published instead.
        for i in 0..sched.nodes.len() {
            if dag.preds[i] == 0 && sched.nodes[i].total == 0 {
                if let Some(s) = sched.retire(i) {
                    let entry = (sched.nodes[s].cp, Reverse(s));
                    sched.ready.lock().unwrap().set.push(entry);
                }
            }
        }
        sched
    }

    /// Record a failing work-group, tightening the run's bound. Errors
    /// are stamped with their true `(launch, group)` position here —
    /// executors construct them with placeholders. Only the smallest
    /// failing position is kept: a failure beyond an already-recorded
    /// smaller one is dropped (serial execution would never reach it),
    /// and of two at the same position the first stays.
    pub(super) fn record_failure(&self, li: usize, gi: usize, failure: Failure) {
        let key = key(li, gi);
        if key > self.bound.fetch_min(key, Ordering::Relaxed) {
            return;
        }
        let failure = match failure {
            Failure::Error(e) => Failure::Error(e.at(li, gi)),
            p => p,
        };
        let mut slot = self.failure.lock().unwrap();
        if !matches!(&*slot, Some((k, _)) if *k <= key) {
            *slot = Some((key, failure));
        }
    }

    /// Retire launch `li`: publish successors whose last dependency this
    /// was, wake parked workers when anything changed, and return the
    /// launch handed to the retiring worker, if any.
    ///
    /// **Handoff.** Of the newly ready successors that are one claim
    /// chunk (`total <= chunk`), the best by the ready set's order is not
    /// published but returned: the worker that retired its last
    /// predecessor runs it next, with that predecessor's outputs still in
    /// its cache. Nobody else can see it, so it is claimed by that worker
    /// alone. A launch of several chunks is always published, so that
    /// other workers can join it.
    ///
    /// **Wake rule.** The wake predicate (`launches_left`, the ready
    /// set) changes while the `ready` mutex is held, and parked workers
    /// are notified only when `Ready::parked` — read under that same
    /// mutex — is non-zero: a worker in `acquire` is either still
    /// scanning under the mutex (and re-reads the new state) or already
    /// parked and counted (and receives the notification).
    ///
    /// A newly-ready successor with **zero work-groups** (an empty
    /// nd-range) has no group whose completion could ever retire it, so
    /// it retires eagerly right here instead of entering the ready set —
    /// the worklist cascades through chains of empty launches. Eager
    /// retirement happens only once the launch's own last predecessor
    /// retired, so dependency ordering is preserved through it. Only that
    /// worklist allocates; the common path allocates nothing.
    fn retire(&self, li: usize) -> Option<usize> {
        let mut handoff: Option<(u64, Reverse<usize>)> = None;
        let mut cascade = Vec::new();
        let mut retired = 0_usize;
        // Taken at the first publication, or at the end.
        let mut ready = None;
        let mut published = false;
        let mut u = li;
        loop {
            retired += 1;
            for &s in &self.dag.succs[u] {
                // AcqRel: the retiring thread has (transitively) acquired
                // all group-completion decrements of `u`, and a
                // successor's first claim acquires this decrement —
                // establishing happens-before from every write of a
                // predecessor launch to every read of its successors.
                if self.nodes[s].remaining_deps.fetch_sub(1, Ordering::AcqRel) != 1 {
                    continue;
                }
                let node = &self.nodes[s];
                if node.total == 0 {
                    cascade.push(s);
                    continue;
                }
                let mut entry = (node.cp, Reverse(s));
                if node.total <= node.chunk {
                    match &mut handoff {
                        None => {
                            handoff = Some(entry);
                            continue;
                        }
                        // The better one is kept; the other is published.
                        Some(best) if entry > *best => std::mem::swap(best, &mut entry),
                        Some(_) => {}
                    }
                }
                let q: &mut MutexGuard<'_, Ready> =
                    ready.get_or_insert_with(|| self.ready.lock().unwrap());
                q.set.push(entry);
                published = true;
            }
            match cascade.pop() {
                Some(next) => u = next,
                None => break,
            }
        }
        let q = ready.unwrap_or_else(|| self.ready.lock().unwrap());
        let left = self.launches_left.fetch_sub(retired, Ordering::AcqRel) - retired;
        let wake = q.parked > 0 && (left == 0 || published);
        drop(q);
        if wake {
            self.wake.notify_all();
        }
        handoff.map(|(_, Reverse(s))| s)
    }

    /// Block until some ready launch has unclaimed work-groups and return
    /// it, or return `None` when every launch has retired (or a worker
    /// poisoned the run). Exhausted-but-unretired launches are removed
    /// from the ready set; their in-flight chunks retire them. A worker
    /// that parks counts itself in `Ready::parked` for as long as it
    /// waits, under the mutex — the count `retire`'s wake rule reads.
    pub(super) fn acquire(&self) -> Option<usize> {
        let mut q = self.ready.lock().unwrap();
        loop {
            if self.poisoned.load(Ordering::Relaxed) {
                return None;
            }
            if self.launches_left.load(Ordering::Acquire) == 0 {
                return None;
            }
            while let Some(&(_, Reverse(li))) = q.set.peek() {
                if self.nodes[li].next.load(Ordering::Relaxed) >= self.nodes[li].total {
                    q.set.pop();
                } else {
                    return Some(li);
                }
            }
            q.parked += 1;
            q = self.wake.wait(q).unwrap();
            q.parked -= 1;
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

    /// Whether group `gi` of launch `li` sits at or beyond the run's
    /// best-known failure, where serial execution would already have
    /// stopped. Groups below the eventual minimum are never skipped, so
    /// scheduling cannot reorder that minimum away.
    pub(super) fn skips(&self, li: usize, gi: usize) -> bool {
        key(li, gi) >= self.bound.load(Ordering::Relaxed)
    }

    /// Account for a claimed chunk of `groups` work-groups of launch `li`
    /// (run, failed or skipped); the last one retires the launch, and
    /// what the retire hands off (see `retire`) is this worker's to run
    /// next.
    pub(super) fn complete(&self, li: usize, groups: usize) -> Option<usize> {
        // Release: every store this worker made for these groups
        // happens-before the retire that publishes the successors.
        let before = self.nodes[li]
            .unfinished
            .fetch_sub(groups, Ordering::AcqRel);
        debug_assert!(before >= groups, "over-retired launch {li}");
        (before == groups).then(|| self.retire(li)).flatten()
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

    /// The run's failure, once every worker has been joined: the error
    /// at the smallest `(launch, group)` position, or — when that
    /// position panicked (an invariant bug, a panicking host closure) —
    /// its payload, re-thrown here on the launching thread.
    pub(super) fn into_failure(self) -> Option<SimError> {
        match self.failure.into_inner().unwrap()? {
            (_, Failure::Error(error)) => Some(error),
            (_, Failure::Panic(payload)) => resume_unwind(payload),
        }
    }
}

/// The order serial submission meets work-groups in, as one integer:
/// launch index in the high half, linear work-group index in the low one
/// (`run_plan_graph_report` rejects graphs whose indices do not fit).
fn key(li: usize, gi: usize) -> u64 {
    ((li as u64) << 32) | gi as u64
}
