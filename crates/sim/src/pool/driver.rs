//! The driver of one graph run: what a launch *is* ([`PlanLaunch`]), how
//! a worker runs the work-groups the scheduler protocol hands it
//! (`graph_worker`, `run_group`), and the entry point that sets a run up,
//! runs its workers as scoped threads and merges their outcomes
//! ([`run_plan_graph_report`], [`GraphReport`]).

use super::arena::{PlanExecCtx, SharedPool};
use super::dag::LaunchDag;
use super::host::{HostNode, HostView};
use super::protocol::{graph_workers, Failure, LaunchStatus, Scheduler};
use crate::cost::{CostModel, ExecStats};
use crate::device::{cooperative_rounds, NdRangeSpec};
use crate::interp::SimError;
use crate::limits::{tripped, ExecLimits, FaultPlan, FaultSite, OpMeter};
use crate::memory::MemoryPool;
use crate::plan::{KernelPlan, PlanCtx, PlanWorkGroup};
use crate::value::RtValue;
use crate::verify::PlanFacts;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// One launch of a graph handed to [`run_plan_graph_report`]: a decoded
/// kernel plan with its bound arguments and geometry, or a [`HostNode`]
/// (a host task, which runs as a single logical work-group).
pub enum PlanLaunch<'a> {
    /// A kernel launch.
    Kernel {
        /// The decoded (possibly fused) kernel.
        plan: &'a KernelPlan,
        /// Kernel arguments, excluding the trailing item parameter.
        args: &'a [RtValue],
        /// Launch geometry.
        nd: NdRangeSpec,
        /// Static-analysis facts of `plan` from the decode-time verifier
        /// (the default proves nothing, so every site keeps its check;
        /// execution is bit-identical either way). Instantiated against
        /// this launch's concrete geometry and arguments before workers
        /// start.
        facts: &'a PlanFacts,
    },
    /// A host-task node.
    Host(&'a HostNode),
}

impl<'a> PlanLaunch<'a> {
    /// A kernel launch of `plan` over `nd`, with nothing proven about it.
    pub fn kernel(plan: &'a KernelPlan, args: &'a [RtValue], nd: NdRangeSpec) -> PlanLaunch<'a> {
        static NOTHING_PROVEN: PlanFacts = PlanFacts::NONE;
        PlanLaunch::Kernel {
            plan,
            args,
            nd,
            facts: &NOTHING_PROVEN,
        }
    }

    /// A host-task node: one logical 1×1 work-group running `node`.
    pub fn host(node: &'a HostNode) -> PlanLaunch<'a> {
        PlanLaunch::Host(node)
    }
}

/// What the driver keeps per launch next to the protocol's scheduling
/// state: the launch itself and what was bound to it before any worker
/// started.
struct GraphUnit<'a> {
    launch: &'a PlanLaunch<'a>,
    /// Per-site proven-in-bounds bitset, instantiated from the launch's
    /// [`PlanFacts`] against its concrete geometry and arguments (empty =
    /// every site takes the checked path).
    proven: Arc<[u64]>,
    /// This launch's remaining operation budget (shared by all workers;
    /// metered in prepaid blocks), when `--max-ops` is set.
    budget: Option<Arc<AtomicU64>>,
}

/// One worker's outcome: for each kernel launch it ran groups of, the
/// counters it accumulated there plus, when profiling, its flat
/// instruction execution counts.
type WorkerResult = Vec<(usize, ExecStats, Option<Box<[u64]>>)>;

/// Everything a graph run shares with its workers. Lives on the
/// launching thread's stack for the duration of
/// [`run_plan_graph_report`]; the extra workers are scoped threads that
/// borrow it and are joined before it goes out of scope.
struct GraphState<'a, 'p> {
    units: Vec<GraphUnit<'a>>,
    sched: Scheduler<'a>,
    shared: &'a SharedPool<'p>,
    cost: &'a CostModel,
    profile: bool,
    limits: &'a ExecLimits,
    /// The wall-clock deadline, resolved **once** at graph entry so every
    /// launch of the graph races the same instant.
    deadline: Option<Instant>,
    /// The launching thread asked for an audit run (test-only; see
    /// [`crate::plan::audit_on_this_thread`]).
    audit: bool,
}

impl GraphState<'_, '_> {
    /// Run one worker loop against this graph: its outcome, or the
    /// payload of a panic outside per-group execution (a scheduler bug),
    /// for the launcher to re-throw once the poison flag has released
    /// everyone. Never unwinds.
    fn run_worker(&self) -> std::thread::Result<WorkerResult> {
        let outcome = catch_unwind(AssertUnwindSafe(|| graph_worker(self)));
        if outcome.is_err() {
            self.sched.poison();
        }
        outcome
    }

    /// The per-instruction [`OpMeter`] of launch `li`, when this run's
    /// limits call for one.
    fn meter(&self, li: usize) -> Option<OpMeter> {
        let budget = self.units[li].budget.clone();
        OpMeter::for_launch(self.limits, budget, self.deadline, li)
    }

    /// Claim chunks of launch `li` until it is fully claimed, running
    /// every claimed group that could still be reported through `run`. A
    /// failing work-group is recorded with its `(launch, group)` position
    /// and execution continues, of this launch below that group and of
    /// every other launch untouched — the failure contract of
    /// [`run_plan_graph_report`].
    fn run_chunks(
        &self,
        li: usize,
        mut run: impl FnMut(usize) -> std::thread::Result<Result<(), SimError>>,
    ) {
        let fail = |gi, e| self.sched.record_failure(li, gi, Failure::Error(e));
        // An injected fault fails the claim of this work-group.
        let claim_fault = match self.limits.fault_at(li) {
            Some(FaultSite::Claim(gi)) => Some(gi),
            _ => None,
        };
        while let Some(chunk) = self.sched.claim(li) {
            // Claim-chunk boundary: the scheduler's cancellation point. A
            // tripped deadline or cancel token fails this launch here
            // (each running launch records its own trip at its own next
            // boundary).
            if let Some(kind) = tripped(self.limits.cancel.as_ref(), self.deadline) {
                fail(chunk.start, SimError::limit(kind));
            }
            for gi in chunk.clone() {
                if self.sched.skips(li, gi) {
                    continue;
                }
                if claim_fault == Some(gi as u64) {
                    let site = FaultSite::Claim(gi as u64);
                    fail(gi, FaultPlan { launch: li, site }.error());
                    continue;
                }
                match run(gi) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => fail(gi, e),
                    Err(payload) => self.sched.record_failure(li, gi, Failure::Panic(payload)),
                }
            }
            self.sched.complete(li, chunk.len());
        }
    }
}

/// Execute every work-item of one work-group to completion, honouring
/// barriers co-operatively: rounds over the lane groups of `wg`, the
/// worker's reusable work-group state (register files, lane lists and
/// frame stacks survive across work-groups and launches, so the steady
/// state allocates nothing per work-group), re-bound to this group
/// whatever state the previous group left it in.
fn run_group(
    plan: &KernelPlan,
    args: &[RtValue],
    nd: NdRangeSpec,
    group: [i64; 3],
    ctx: &mut PlanExecCtx<'_, '_>,
    pctx: &mut PlanCtx,
    wg: &mut PlanWorkGroup,
) -> Result<(), SimError> {
    wg.reset(plan, args, nd, group, ctx.cost.subgroup_size)?;
    cooperative_rounds(nd.group_size(), group, || wg.round(plan, args, ctx, pctx))
}

/// Execute the single logical work-group of a host node: admit it
/// through the run's limits ([`OpMeter::charge_host_node`]), then run the
/// closure against a [`HostView`] of the shared device memory.
fn run_host_node(node: &HostNode, st: &GraphState<'_, '_>, li: usize) -> Result<(), SimError> {
    if let Some(meter) = st.meter(li) {
        meter.charge_host_node(node.weight)?;
    }
    node.run(&HostView::new(st.shared))
}

/// Claim-and-run loop of one worker thread over the launch graph.
///
/// The worker repeatedly asks the ready set for a launch with unclaimed
/// work-groups and claims chunks of it until none is left
/// (`GraphState::run_chunks`) — so it meets each launch at most once, and
/// what it counted there is one row of its result. The
/// worker's memory interface — and with it the recyclable scratch arena —
/// and its work-group state (see `run_group`) are reused across every
/// launch it touches.
///
/// With limits active, the wall-clock deadline and the cancel token are
/// polled at every claim-chunk boundary (and, via the per-launch
/// [`OpMeter`], at op-block boundaries inside long-running groups), so a
/// wedged kernel is cut off without per-instruction overhead.
fn graph_worker(st: &GraphState<'_, '_>) -> WorkerResult {
    let mut ctx = PlanExecCtx::new(st.shared, st.cost);
    if let Some(cap) = st.limits.mem_cap {
        ctx.pool.set_mem_cap(cap);
    }
    let mut rows = WorkerResult::new();
    let mut wg = PlanWorkGroup::default();
    while let Some(li) = st.sched.acquire() {
        let unit = &st.units[li];
        match *unit.launch {
            PlanLaunch::Kernel { plan, args, nd, .. } => {
                let mut pctx = if st.profile {
                    PlanCtx::profiled(plan)
                } else {
                    PlanCtx::new(plan)
                };
                pctx.audit = st.audit;
                pctx.set_proven(unit.proven.clone());
                if let Some(meter) = st.meter(li) {
                    pctx.set_meter(meter);
                }
                st.run_chunks(li, |gi| {
                    let group = nd.group_at(gi);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        run_group(plan, args, nd, group, &mut ctx, &mut pctx, &mut wg)
                    }));
                    ctx.next_work_group();
                    pctx.next_work_group();
                    r
                });
                rows.push((li, std::mem::take(&mut ctx.stats), pctx.take_profile()));
            }
            PlanLaunch::Host(node) => st.run_chunks(li, |_| {
                catch_unwind(AssertUnwindSafe(|| run_host_node(node, st, li)))
            }),
        }
    }
    rows
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
    /// Per-launch execution counts (`Some` iff profiling was requested),
    /// as [`PlanCtx::take_profile`] lays them out.
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
/// share the run's workers through per-launch chunked claim cursors.
///
/// * **Workers.** The calling thread is worker 0; up to `threads - 1`
///   more (never more workers than the graph has work-groups) are scoped
///   threads that live for this run only.
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
/// which arrive as [`MemFault`](crate::MemFault) values — and limit trips
/// live in [`GraphReport::statuses`]. A panic on a worker is a bug in the
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
    // Validate geometry and count work-groups — the worker count, and the
    // claim chunks the scheduler sizes from it, reflect the *clamped* value
    // (never more workers than groups), not the raw thread hint — and bind
    // each launch to the pool.
    let mut geometry = Vec::with_capacity(launches.len());
    let mut total_groups = 0_usize;
    let mut units = Vec::with_capacity(launches.len());
    // Launches that fail as a whole, before any of their groups runs: an
    // armed decode fault, then unknown-buffer arguments — the order the
    // serial reference checks them in, and the first recorded is the one
    // reported. The fault cascades to the launch's successors, a bad
    // argument does not.
    let mut upfront = Vec::new();
    if let Some(f) = &limits.fault {
        if matches!(f.site, FaultSite::Decode) && f.launch < launches.len() {
            upfront.push((f.launch, f.error()));
        }
    }
    for (li, launch) in launches.iter().enumerate() {
        let nd = match launch {
            PlanLaunch::Kernel { nd, .. } => *nd,
            // A host task runs as one logical 1×1 work-group.
            PlanLaunch::Host(_) => NdRangeSpec::d1(1, 1),
        };
        nd.validate()?;
        let groups = nd.groups();
        let total = (groups[0] * groups[1] * groups[2]) as usize;
        if total >= u32::MAX as usize {
            return Err(SimError::msg("too many work-groups in one launch"));
        }
        total_groups += total;
        geometry.push((groups, total));
        let proven = match launch {
            PlanLaunch::Kernel { args, facts, .. } => match pool_mem.check_args(args) {
                // Bind the launch's static facts to its concrete
                // geometry, arguments and buffer lengths once, before any
                // worker starts; the resulting bitset is shared read-only
                // by every worker.
                Ok(()) => facts.instantiate(args, &nd, pool_mem),
                // Arguments are outside input: a launch naming a buffer
                // the pool does not hold fails as a whole, before any of
                // its groups run.
                Err(fault) => {
                    upfront.push((li, fault.into()));
                    Arc::default()
                }
            },
            PlanLaunch::Host(_) => Arc::default(),
        };
        units.push(GraphUnit {
            launch,
            proven,
            budget: limits.launch_budget(),
        });
    }
    let workers = graph_workers(threads, total_groups);
    let shared = SharedPool::new(pool_mem);
    let state = GraphState {
        units,
        sched: Scheduler::new(dag, &geometry, workers, upfront),
        shared: &shared,
        cost,
        profile,
        limits,
        deadline: limits.deadline_instant(),
        audit: crate::plan::audit_requested(),
    };

    // The calling thread is always worker 0; the others live for this
    // run only. `run_worker` never unwinds, and a worker that dies
    // poisons the run, so every worker returns and every join below
    // completes — the join is what orders each worker's stores before
    // the epilogue.
    let results = std::thread::scope(|s| -> std::thread::Result<Vec<WorkerResult>> {
        let extra: Vec<_> = (1..workers)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("sim-worker-{i}"))
                    .spawn_scoped(s, || state.run_worker())
                    .expect("failed to spawn simulator worker thread")
            })
            .collect();
        let mine = state.run_worker();
        let joined = extra.into_iter().map(|h| h.join().and_then(|r| r));
        std::iter::once(mine).chain(joined).collect()
    });
    // A worker's own panic is a scheduler bug: re-throw it here.
    let results = results.unwrap_or_else(|payload| resume_unwind(payload));
    // Re-throws the panic of a work-group (an invariant bug, a panicking
    // host closure) at the smallest recorded position; nothing a kernel
    // can do panics.
    let statuses = state.sched.into_statuses();

    let mut merged = vec![ExecStats::default(); launches.len()];
    // One accumulator per launch: a kernel's instruction slots when
    // profiling, empty otherwise.
    let mut profiles: Vec<Box<[u64]>> = (launches.iter())
        .map(|l| match l {
            PlanLaunch::Kernel { plan, .. } if profile => vec![0; plan.instr_count() + 1].into(),
            _ => Box::default(),
        })
        .collect();
    for (li, stats, counts) in results.into_iter().flatten() {
        merged[li].add(&stats);
        if let Some(counts) = counts {
            for (a, c) in profiles[li].iter_mut().zip(counts.iter()) {
                *a += c;
            }
        }
    }
    let rows = merged
        .iter_mut()
        .zip(launches)
        .zip(&geometry)
        .zip(&statuses);
    for (((m, launch), &(_, total)), status) in rows {
        match (launch, status) {
            (PlanLaunch::Kernel { nd, .. }, LaunchStatus::Completed) => {
                m.work_groups = total as u64;
                m.work_items = nd.work_items() as u64;
                m.charge(cost);
            }
            // Partial counters of failing/cancelled launches would be
            // schedule-dependent; report them as zeroed instead. Host
            // nodes report zeroed rows regardless of outcome: their fixed
            // metering weight is an admission charge, not a simulated
            // instruction count.
            _ => *m = ExecStats::default(),
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
