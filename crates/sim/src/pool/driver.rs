//! The driver of one graph run: what a launch *is* ([`PlanLaunch`]), how
//! a worker runs the work-groups the scheduler protocol hands it
//! (`graph_worker`, `run_group`), and the entry point that sets a run up,
//! runs its workers as scoped threads and merges their outcomes
//! ([`run_plan_graph_report`], [`GraphReport`]).

use super::arena::{PlanExecCtx, SharedPool};
use super::dag::LaunchDag;
use super::host::HostNode;
use super::protocol::{graph_workers, Failure, Scheduler};
use crate::cost::{CostModel, ExecStats};
use crate::device::{cooperative_rounds, NdRangeSpec};
use crate::interp::SimError;
use crate::ledger::{Ledger, WorkerTimes};
use crate::limits::{check_deadline, ExecLimits, OpMeter};
use crate::memory::MemoryPool;
use crate::plan::{KernelPlan, PlanCtx, PlanWorkGroup};
use crate::value::RtValue;
use crate::verify::PlanFacts;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sycl_mlir_ir::FxHashMap;

/// One launch of a graph handed to [`run_plan_graph_report`]: a decoded
/// kernel plan with its bound arguments and geometry, a kernel the plan
/// decoder rejected, or a [`HostNode`] (a host task, which runs as a
/// single logical work-group).
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
    /// A kernel launch the plan decoder rejected: it fails with `error`
    /// at its work-group 0 before any of its groups runs, the way a
    /// launch naming an unknown buffer does.
    Rejected {
        /// Launch geometry.
        nd: NdRangeSpec,
        /// The decoder's refusal.
        error: &'a SimError,
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

/// A launch index, with one worker's counters there and, when profiling,
/// its flat instruction execution counts.
type LaunchRow = (usize, ExecStats, Option<Box<[u64]>>);

/// What a proven-site bitset is instantiated from, by identity: the
/// plan's facts, the bound argument list and the geometry.
type FactsKey = (*const PlanFacts, *const RtValue, usize, NdRangeSpec);

/// One worker's outcome: for each kernel launch it ran groups of, the
/// counters it accumulated there plus, when profiling, its flat
/// instruction execution counts; and, when the run is timed, where its
/// time went (idle is filled in by the launcher).
#[derive(Default)]
struct WorkerResult {
    rows: Vec<LaunchRow>,
    times: WorkerTimes,
    /// Time inside host-node closures (part of `times.busy`).
    host: Duration,
}

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
    /// Workers time their phases for a [`Ledger`].
    timed: bool,
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
        OpMeter::for_launch(self.limits, budget, self.deadline)
    }

    /// Claim chunks of launch `li` until it is fully claimed, running
    /// every claimed group below the run's failure bound through `run`. A
    /// failing work-group is recorded with its `(launch, group)` position,
    /// which tightens the bound — the failure contract of
    /// [`run_plan_graph_report`]. Returns the launch the scheduler handed
    /// this worker when its last chunk retired `li`, if any.
    fn run_chunks(
        &self,
        li: usize,
        mut run: impl FnMut(usize) -> std::thread::Result<Result<(), SimError>>,
    ) -> Option<usize> {
        let mut handoff = None;
        let fail = |gi, e| self.sched.record_failure(li, gi, Failure::Error(e));
        while let Some(chunk) = self.sched.claim(li) {
            // Claim-chunk boundary: a passed deadline fails this launch
            // here; the smallest position a trip is recorded at is the
            // one reported.
            if let Err(e) = check_deadline(self.deadline) {
                fail(chunk.start, e);
            }
            for gi in chunk.clone() {
                if self.sched.skips(li, gi) {
                    continue;
                }
                match run(gi) {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => fail(gi, e),
                    Err(payload) => self.sched.record_failure(li, gi, Failure::Panic(payload)),
                }
            }
            if let Some(next) = self.sched.complete(li, chunk.len()) {
                handoff = Some(next);
            }
        }
        handoff
    }
}

/// Execute every work-item of one work-group to completion, honouring
/// barriers co-operatively: rounds over the lane groups of `wg`, the
/// worker's reusable work-group state (register files and lane lists
/// survive across work-groups and launches, so the steady
/// state allocates nothing per work-group), re-bound to this group
/// whatever state the previous group left it in — the launch's
/// registers once per launch where the plan is `verified`
/// ([`PlanFacts::verified`]), else for every group.
#[allow(clippy::too_many_arguments)]
fn run_group(
    plan: &KernelPlan,
    args: &[RtValue],
    nd: NdRangeSpec,
    group: [i64; 3],
    verified: bool,
    ctx: &mut PlanExecCtx<'_, '_>,
    pctx: &mut PlanCtx,
    wg: &mut PlanWorkGroup,
) -> Result<(), SimError> {
    let subgroup_size = ctx.cost.subgroup_size;
    if verified {
        wg.reset_verified(plan, args, nd, group, subgroup_size)?;
    } else {
        wg.reset(plan, args, nd, group, subgroup_size)?;
    }
    cooperative_rounds(nd.group_size(), group, || wg.round(plan, args, ctx, pctx))
}

/// Execute the single logical work-group of a host node: admit it
/// through the run's limits ([`OpMeter::charge_host_node`]), then run the
/// closure against the shared device memory.
fn run_host_node(node: &HostNode, st: &GraphState<'_, '_>, li: usize) -> Result<(), SimError> {
    if let Some(meter) = st.meter(li) {
        meter.charge_host_node(node.weight)?;
    }
    node.run(st.shared)
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
/// With limits active, the wall-clock deadline is polled at every
/// claim-chunk boundary (and, via the per-launch [`OpMeter`], at op-block
/// boundaries inside long-running groups), so a wedged kernel is cut off
/// without per-instruction overhead.
fn graph_worker(st: &GraphState<'_, '_>) -> WorkerResult {
    let mut ctx = PlanExecCtx::new(st.shared, st.cost);
    if let Some(cap) = st.limits.mem_cap {
        ctx.pool.set_mem_cap(cap);
    }
    let mut out = WorkerResult::default();
    let mut wg = PlanWorkGroup::default();
    let mut pctx = PlanCtx::default();
    pctx.audit = st.audit;
    // Only a timed run reads the clock.
    let now = || st.timed.then(Instant::now);
    let since = |t: Option<Instant>| t.map_or(Duration::ZERO, |t| t.elapsed());
    // The launch the scheduler handed this worker, if any.
    let mut next = None;
    loop {
        let li = match next {
            Some(li) => li,
            None => {
                let waiting = now();
                let acquired = st.sched.acquire();
                out.times.claim_wait += since(waiting);
                let Some(li) = acquired else { break };
                li
            }
        };
        let working = now();
        let unit = &st.units[li];
        next = match *unit.launch {
            PlanLaunch::Kernel {
                plan,
                args,
                nd,
                facts,
            } => {
                pctx.rebind(plan, st.profile);
                pctx.set_proven(&unit.proven);
                if let Some(meter) = st.meter(li) {
                    pctx.set_meter(meter);
                }
                let handoff = st.run_chunks(li, |gi| {
                    let group = nd.group_at(gi);
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let verified = facts.verified;
                        run_group(
                            plan, args, nd, group, verified, &mut ctx, &mut pctx, &mut wg,
                        )
                    }));
                    ctx.next_work_group();
                    pctx.next_work_group();
                    r
                });
                out.rows
                    .push((li, std::mem::take(&mut ctx.stats), pctx.take_profile()));
                handoff
            }
            PlanLaunch::Host(node) => {
                let handoff = st.run_chunks(li, |_| {
                    catch_unwind(AssertUnwindSafe(|| run_host_node(node, st, li)))
                });
                out.host += since(working);
                handoff
            }
            // Its up-front failure bounds the run at its work-group 0, so
            // every group it has is skipped.
            PlanLaunch::Rejected { .. } => {
                st.run_chunks(li, |_| unreachable!("rejected launch ran"))
            }
        };
        out.times.busy += since(working);
    }
    out
}

/// What a clean [`run_plan_graph_report`] returns.
#[derive(Debug)]
pub struct GraphReport {
    /// One merged [`ExecStats`] per launch, cycles charged; zeroed for
    /// host nodes (their fixed metering weight is an admission charge,
    /// not a simulated instruction count).
    pub stats: Vec<ExecStats>,
    /// Per-launch execution counts (`Some` iff profiling was requested),
    /// as [`PlanCtx::take_profile`] lays them out.
    pub profile: Option<Vec<Box<[u64]>>>,
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
/// * **Failure.** A run has one: the error at the smallest failing
///   `(launch, group)` position — the one submission-order serial
///   execution hits first, under every thread count and graph shape.
///   Every work-group at or beyond the best-known failure is skipped, so
///   once it is known no successor of the failing launch starts, and no
///   later launch either. Edges point forward, so every launch before
///   the failing one ran to completion on the inputs the serial run
///   gives it.
///
/// # Errors
///
/// Malformed input (bad geometry, a malformed graph or one with a
/// backward edge), and the run's failure: a kernel or host-node error
/// (device-memory faults among them, which arrive as
/// [`MemFault`](crate::MemFault) values), a kernel the decoder rejected
/// or a limit trip. A panic on a worker is a bug in the simulator (or in
/// a host closure) and is re-thrown as a panic.
///
/// With a `ledger`, the run adds its fact instantiations, its wall time
/// and each worker's busy, claim-wait and idle time to it.
#[allow(clippy::too_many_arguments)]
pub fn run_plan_graph_report(
    launches: &[PlanLaunch<'_>],
    dag: &LaunchDag,
    pool_mem: &mut MemoryPool,
    cost: &CostModel,
    threads: usize,
    profile: bool,
    limits: &ExecLimits,
    mut ledger: Option<&mut Ledger>,
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
    // Launches that fail as a whole, before any of their groups runs: a
    // rejected kernel, or one with an unknown-buffer argument.
    let mut upfront = Vec::new();
    let instantiating = ledger.is_some().then(Instant::now);
    // One bitset per distinct `(facts, arguments, geometry)`, by identity:
    // launches that share a plan and a bound argument list (`exec::run`
    // binds each distinct list once) and a geometry share the bitset.
    let mut proven_for: FxHashMap<FactsKey, Arc<[u64]>> = FxHashMap::default();
    for (li, launch) in launches.iter().enumerate() {
        let nd = match launch {
            PlanLaunch::Kernel { nd, .. } | PlanLaunch::Rejected { nd, .. } => *nd,
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
                Ok(()) => {
                    let key = (*facts as *const PlanFacts, args.as_ptr(), args.len(), nd);
                    let proven = proven_for.entry(key);
                    proven
                        .or_insert_with(|| facts.instantiate(args, &nd, pool_mem))
                        .clone()
                }
                // Arguments are outside input: a launch naming a buffer
                // the pool does not hold fails as a whole, before any of
                // its groups run.
                Err(fault) => {
                    upfront.push((li, fault.into()));
                    Arc::default()
                }
            },
            PlanLaunch::Rejected { error, .. } => {
                upfront.push((li, (*error).clone()));
                Arc::default()
            }
            PlanLaunch::Host(_) => Arc::default(),
        };
        units.push(GraphUnit {
            launch,
            proven,
            budget: limits.launch_budget(),
        });
    }
    if let (Some(ledger), Some(t)) = (ledger.as_deref_mut(), instantiating) {
        ledger.instantiate += t.elapsed();
        ledger.counts.instantiations += proven_for.len() as u64;
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
        timed: ledger.is_some(),
    };

    // The calling thread is always worker 0; the others live for this
    // run only. `run_worker` never unwinds, and a worker that dies
    // poisons the run, so every worker returns and every join below
    // completes — the join is what orders each worker's stores before
    // the epilogue.
    let running = ledger.is_some().then(Instant::now);
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
    if let (Some(ledger), Some(running)) = (ledger, running) {
        let wall = running.elapsed();
        ledger.graph_run += wall;
        let times: Vec<WorkerTimes> = (results.iter())
            .map(|r| WorkerTimes {
                idle: wall.saturating_sub(r.times.busy + r.times.claim_wait),
                ..r.times
            })
            .collect();
        ledger.add_workers(&times);
        ledger.host_nodes += results.iter().map(|r| r.host).sum::<Duration>();
    }
    // Re-throws the panic of a work-group (an invariant bug, a panicking
    // host closure) at the smallest recorded position; nothing a kernel
    // can do panics.
    if let Some(error) = state.sched.into_failure() {
        return Err(error);
    }

    let mut merged = vec![ExecStats::default(); launches.len()];
    // One accumulator per launch: a kernel's instruction slots when
    // profiling, empty otherwise.
    let mut profiles: Vec<Box<[u64]>> = (launches.iter())
        .map(|l| match l {
            PlanLaunch::Kernel { plan, .. } if profile => vec![0; plan.code.len() + 1].into(),
            _ => Box::default(),
        })
        .collect();
    for (li, stats, counts) in results.into_iter().flat_map(|r| r.rows) {
        merged[li].add(&stats);
        if let Some(counts) = counts {
            for (a, c) in profiles[li].iter_mut().zip(counts.iter()) {
                *a += c;
            }
        }
    }
    for ((m, launch), &(_, total)) in merged.iter_mut().zip(launches).zip(&geometry) {
        if let PlanLaunch::Kernel { nd, .. } = launch {
            m.work_groups = total as u64;
            m.work_items = nd.work_items() as u64;
            m.charge(cost);
        }
    }
    Ok(GraphReport {
        stats: merged,
        profile: profile.then_some(profiles),
    })
}

/// Unit-test shorthand: an unlimited, unprofiled graph run.
#[cfg(test)]
pub(crate) fn run_graph(
    launches: &[PlanLaunch<'_>],
    dag: &LaunchDag,
    pool_mem: &mut MemoryPool,
    threads: usize,
) -> Result<GraphReport, SimError> {
    let (cost, limits) = (CostModel::default(), ExecLimits::none());
    run_plan_graph_report(
        launches, dag, pool_mem, &cost, threads, false, &limits, None,
    )
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
