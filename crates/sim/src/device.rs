//! The simulated device: ND-range scheduling of work-groups and work-items
//! with co-operative barrier semantics, engine/thread selection and the
//! cross-launch kernel-plan cache.

use crate::cost::{CostModel, ExecStats};
use crate::interp::{enclosing_module, ExecCtx, Stop, WorkItemState};
use crate::ledger::Ledger;
use crate::limits::{ExecLimits, OpMeter};
use crate::memory::MemoryPool;
use crate::plan::{decode_kernel, fuse_plan, ItemQ, KernelPlan};
use crate::pool::{run_plan_graph_report, HostNode, LaunchDag, PlanLaunch, SharedPool};
use crate::report::DeviceReport;
use crate::value::RtValue;
use crate::verify::{verify_plan, PlanFacts};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use sycl_mlir_ir::{FxHashMap, Module, OpId, OpName, WalkControl};

pub use crate::interp::SimError;

/// Which execution engine a [`Device`] runs kernels on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The resumable tree-walk interpreter over the structured IR — the
    /// reference implementation.
    TreeWalk,
    /// The pre-decoded [`KernelPlan`] register-file executor (decodes once
    /// per launch, then shares the immutable plan across all work-items).
    /// A kernel the decoder does not understand fails its launch with a
    /// `plan decode error`; there is no fallback to the tree walk.
    Plan,
}

impl Engine {
    /// The engine's display name (`"tree-walk"` or `"plan"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::TreeWalk => "tree-walk",
            Engine::Plan => "plan",
        }
    }
}

/// The machine's available parallelism (`1` when undeterminable).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Launch geometry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NdRangeSpec {
    /// Global extent, padded with 1s to rank 3.
    pub global: [i64; 3],
    /// Work-group extent, padded with 1s to rank 3.
    pub local: [i64; 3],
    /// Number of meaningful dimensions.
    pub rank: u32,
}

impl NdRangeSpec {
    /// 1-dimensional range with an explicit work-group size.
    pub fn d1(global: i64, local: i64) -> NdRangeSpec {
        NdRangeSpec {
            global: [global, 1, 1],
            local: [local, 1, 1],
            rank: 1,
        }
    }

    /// 2-dimensional square range.
    pub fn d2(gx: i64, gy: i64, lx: i64, ly: i64) -> NdRangeSpec {
        NdRangeSpec {
            global: [gx, gy, 1],
            local: [lx, ly, 1],
            rank: 2,
        }
    }

    /// Total number of work-items.
    pub fn work_items(&self) -> i64 {
        self.global[..self.rank as usize].iter().product()
    }

    /// Work-items per work-group.
    pub fn group_size(&self) -> usize {
        self.local.iter().product::<i64>() as usize
    }

    /// Work-group counts per dimension.
    pub fn groups(&self) -> [i64; 3] {
        [
            self.global[0] / self.local[0].max(1),
            self.global[1] / self.local[1].max(1),
            self.global[2] / self.local[2].max(1),
        ]
    }

    /// Coordinates of the work-group at linear index `linear`, row-major
    /// over [`Self::groups`]: the order both engines run a launch's
    /// work-groups in, and the index the scheduler claims them by.
    pub fn group_at(&self, linear: usize) -> [i64; 3] {
        let groups = self.groups();
        [0, 1, 2].map(|d| coordinate(linear as i64, groups, d))
    }

    /// The answer to the item query `q` along dimension `d` (`< 3`) for
    /// the work-item at local linear id `linear` of work-group `group`. A
    /// work-item's position is computed from the launch geometry, never
    /// stored: both engines answer every item query through this function.
    #[inline]
    pub fn item_query(&self, group: [i64; 3], linear: i64, q: ItemQ, d: usize) -> i64 {
        match q {
            ItemQ::GlobalId => group[d] * self.local[d] + coordinate(linear, self.local, d),
            ItemQ::LocalId => coordinate(linear, self.local, d),
            ItemQ::GroupId => group[d],
            ItemQ::GlobalRange => self.global[d],
            ItemQ::LocalRange => self.local[d],
            ItemQ::GroupRange => self.global[d] / self.local[d],
        }
    }

    /// The global linear id — row-major over the meaningful dimensions —
    /// of the work-item at local linear id `linear` of work-group `group`.
    /// (Its local linear id is `linear` itself: the extents are padded
    /// with 1s.)
    pub fn global_linear_id(&self, group: [i64; 3], linear: i64) -> i64 {
        (0..self.rank as usize).fold(0, |id, d| {
            id * self.global[d] + self.item_query(group, linear, ItemQ::GlobalId, d)
        })
    }

    /// A zero global extent is legal (SYCL allows empty ranges): the
    /// launch has zero work-groups and executes nothing — the scheduler
    /// retires it eagerly so successors in a dependency chain still run.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        for d in 0..self.rank as usize {
            if self.local[d] <= 0 || self.global[d] < 0 {
                return Err(SimError::msg(format!("non-positive range in dim {d}")));
            }
            if self.global[d] % self.local[d] != 0 {
                return Err(SimError::msg(format!(
                    "global range {} not divisible by work-group size {} in dim {d}",
                    self.global[d], self.local[d]
                )));
            }
        }
        Ok(())
    }
}

/// Coordinate `d` of `linear` in a row-major box of extents `n`
/// (dimension 0 slowest).
#[inline]
fn coordinate(linear: i64, n: [i64; 3], d: usize) -> i64 {
    match d {
        // A rank-1 box: no division.
        0 if n[1] * n[2] == 1 => linear,
        0 => linear / (n[1] * n[2]),
        1 => linear / n[2] % n[1],
        _ => linear % n[2],
    }
}

/// One decoded-and-verified cache entry as handed to the launch paths:
/// the fused plan plus the decode-time verifier's facts (site in-bounds
/// proofs; [`PlanFacts::NONE`] when the verifier reported findings).
type PlanEntry = (Arc<KernelPlan>, Arc<PlanFacts>);

/// One cached kernel decode: the outcome — an entry, or the decode error
/// every relaunch repeats — plus the module mutation epoch it was decoded
/// at (stale once the module changes).
#[derive(Clone, Debug)]
struct CachedPlan {
    epoch: u64,
    outcome: Result<PlanEntry, SimError>,
}

/// Soft bound on cached plans per device; prevents unbounded growth when
/// one device outlives many modules (the differential sweeps).
const PLAN_CACHE_CAP: usize = 256;

/// A simulated GPU.
///
/// Under [`Engine::Plan`], decoded [`KernelPlan`]s are cached **across
/// launches**, keyed by `(module id, kernel op)` and validated against the
/// module's mutation epoch: re-launching an unmutated kernel skips the
/// decode entirely, while any IR mutation in between (e.g. AdaptiveCpp
/// JIT re-specialization) transparently re-decodes. With `threads > 1`,
/// work-groups of a launch run on several OS threads (plan engine only;
/// the tree-walk reference stays sequential) — results and statistics are
/// bit-identical for every worker count.
#[derive(Clone, Debug)]
pub struct Device {
    /// The analytic cost model charged per launch.
    pub cost: CostModel,
    /// Which execution engine launches run on.
    pub engine: Engine,
    /// Worker threads for plan-engine launches (1 = sequential).
    pub threads: usize,
    /// Count executed plan instructions ([`Device::report`]).
    pub profile: bool,
    /// Per-launch execution limits ([`ExecLimits`]): weighted-operation
    /// budget, memory cap and wall-clock deadline. All off by default, in
    /// which case the executors skip metering entirely. Independent of the
    /// plan cache — changing limits never re-decodes a kernel.
    pub limits: ExecLimits,
    plan_cache: RefCell<HashMap<(u64, OpId), CachedPlan>>,
    report: RefCell<DeviceReport>,
}

impl Default for Device {
    /// [`Device::new`].
    fn default() -> Device {
        Device::new()
    }
}

impl Device {
    /// The struct [`Device::table_defaults`] fills in: every knob field
    /// here is a placeholder the table's default overwrites.
    pub(crate) fn blank() -> Device {
        Device {
            cost: CostModel::default(),
            engine: Engine::Plan,
            threads: 0,
            profile: false,
            limits: ExecLimits::none(),
            plan_cache: RefCell::new(HashMap::new()),
            report: RefCell::default(),
        }
    }

    /// A device configured by the `SYCL_MLIR_SIM_*` environment
    /// variables on top of the knob-table defaults
    /// ([`Device::try_from_env`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) text when a
    /// variable is malformed or names no knob — a typo must not silently
    /// run a different configuration.
    pub fn new() -> Device {
        Device::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// A default device with an explicit cost model.
    pub fn with_cost(cost: CostModel) -> Device {
        Device {
            cost,
            ..Device::default()
        }
    }

    /// A default device with an explicit engine.
    pub fn with_engine(engine: Engine) -> Device {
        Device {
            engine,
            ..Device::default()
        }
    }

    /// Builder-style engine override.
    pub fn engine(mut self, engine: Engine) -> Device {
        self.engine = engine;
        self
    }

    /// Builder-style worker-count override.
    pub fn threads(mut self, threads: usize) -> Device {
        self.threads = threads;
        self
    }

    /// Builder-style profiling override (per-instruction counts).
    pub fn profile(mut self, profile: bool) -> Device {
        self.profile = profile;
        self
    }

    /// Builder-style weighted-operation budget: a launch fails with
    /// [`LimitKind::Ops`](crate::LimitKind::Ops) once it has executed
    /// this many weighted operations: ops under the tree walk,
    /// instructions under the plan engine, which executes none for a
    /// constant, a cast or a loop result. Superinstructions charge the
    /// weight of the instructions they replace, so the budget counts
    /// the same whether a window was fused or not.
    pub fn max_ops(mut self, ops: u64) -> Device {
        self.limits.max_ops = Some(ops);
        self
    }

    /// Builder-style memory cap: bytes of kernel-driven allocation
    /// growth (private/local allocas, materialized dense constants) a
    /// launch may request per worker before it fails with
    /// [`LimitKind::Memory`](crate::LimitKind::Memory).
    pub fn mem_cap(mut self, bytes: u64) -> Device {
        self.limits.mem_cap = Some(bytes);
        self
    }

    /// Builder-style wall-clock deadline, in milliseconds per launch (or
    /// launch graph), measured from submission; a launch still running
    /// past it fails with
    /// [`LimitKind::Deadline`](crate::LimitKind::Deadline).
    pub fn deadline_ms(mut self, ms: u64) -> Device {
        self.limits.deadline_ms = Some(ms);
        self
    }

    /// A snapshot of everything this device has counted so far
    /// ([`DeviceReport`]): plan-cache hits and misses, the decode-time
    /// verifier's totals and findings, and the `--profile` sums. Its
    /// `Display` is the `--profile=on` dump.
    pub fn report(&self) -> DeviceReport {
        self.report.borrow().clone()
    }

    /// The decoded plan for `kernel` — plus the decode-time verifier's
    /// facts ([`PlanFacts`]) — reused from the cache when the module's
    /// mutation epoch still matches. `Err` when the kernel is recursive
    /// or not plan-decodable (a `plan decode error`). Every outcome is
    /// cached — an iterative workload with an undecodable kernel pays the
    /// decode attempt once per epoch, not once per launch, and every
    /// relaunch reports the identical error.
    fn cached_plan(&self, m: &Module, kernel: OpId) -> Result<PlanEntry, SimError> {
        let key = (m.module_id(), kernel);
        let epoch = m.mutation_epoch();
        if let Some(cached) = self.plan_cache.borrow().get(&key) {
            if cached.epoch == epoch {
                self.report.borrow_mut().cache_hits += 1;
                return cached.outcome.clone();
            }
        }
        // Miss: decode, verify (pre-fusion — fusion preserves site ids,
        // so in-bounds proofs transfer to the fused plan unchanged),
        // then fuse.
        self.report.borrow_mut().cache_misses += 1;
        let decoded = refuse_recursion(m, kernel)
            .and_then(|()| decode_kernel(m, kernel).map_err(SimError::from));
        let outcome = match decoded {
            Ok(mut plan) => {
                let facts = self.verify_decoded(m, kernel, &plan);
                fuse_plan(&mut plan);
                Ok((Arc::new(plan), Arc::new(facts)))
            }
            Err(refused) => {
                self.report.borrow_mut().verify.rejected += 1;
                Err(refused)
            }
        };
        let mut cache = self.plan_cache.borrow_mut();
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        let cached = CachedPlan {
            epoch,
            outcome: outcome.clone(),
        };
        cache.insert(key, cached);
        outcome
    }

    /// Run the decode-time static verifier over a freshly decoded
    /// (pre-fusion) plan: the structural and type-consistency passes plus
    /// the interval abstract interpreter ([`verify_plan`]). A plan with
    /// findings gets [`PlanFacts::NONE`] — so it runs with every check in
    /// place — and its first finding is kept in the [`DeviceReport`].
    fn verify_decoded(&self, m: &Module, kernel: OpId, plan: &KernelPlan) -> PlanFacts {
        let start = Instant::now();
        let verdict = verify_plan(plan);
        let report = &mut *self.report.borrow_mut();
        let vs = &mut report.verify;
        vs.plans += 1;
        vs.verify_ns += start.elapsed().as_nanos() as u64;
        match verdict {
            Ok(facts) => {
                vs.sites_total += facts.sites_total as u64;
                vs.sites_proven += facts.sites_proven as u64;
                facts
            }
            Err(errs) => {
                vs.lint_findings += errs.len() as u64;
                let name = m.symbol_name(kernel).unwrap_or("?");
                let mut first = format!("{name}: {}", errs[0]);
                if errs.len() > 1 {
                    first.push_str(&format!(" (+{} more)", errs.len() - 1));
                }
                report.findings.insert(first);
                PlanFacts::NONE
            }
        }
    }

    /// Execute `kernel` over `nd`, mutating `pool`: a
    /// [`Device::launch_graph`] of one launch. Returns the dynamic
    /// execution statistics with [`ExecStats::device_cycles`] charged.
    ///
    /// Under [`Engine::Plan`] the kernel is decoded at most once per
    /// mutation epoch into a [`KernelPlan`] shared by every work-item (and
    /// reused across launches). With [`Device::threads`] `> 1`,
    /// work-groups of a plan-engine launch run in parallel.
    ///
    /// # Errors
    ///
    /// Fails on malformed launches, kernels the plan decoder does not
    /// understand, interpreter errors, or **divergent barriers** (some
    /// work-items of a group reach a barrier while others finish — the
    /// deadlock §V-C's uniformity analysis exists to prevent).
    /// With [`Device::limits`] set, a tripped limit fails the launch with
    /// a structured [`SimError::LimitExceeded`] — the device (and its plan
    /// cache) stays usable for subsequent launches.
    pub fn launch(
        &self,
        m: &Module,
        kernel: OpId,
        args: &[RtValue],
        nd: NdRangeSpec,
        pool: &mut MemoryPool,
    ) -> Result<ExecStats, SimError> {
        let batch = [BatchLaunch::kernel(kernel, args.to_vec(), nd)];
        let mut stats = self.launch_graph(m, &batch, &LaunchDag::independent(1), pool)?;
        Ok(stats.pop().expect("one launch in, one stats out"))
    }

    /// Execute a whole **launch graph** — kernel launches plus the hazard
    /// DAG ordering them — returning one [`ExecStats`] per launch, in
    /// slice order.
    ///
    /// Under [`Engine::Plan`] the graph is handed to
    /// [`run_plan_graph_report`]: launches
    /// start the moment their own predecessors retire, with work-groups
    /// claimed in per-worker chunks — no level barrier anywhere. A kernel
    /// the decoder rejects fails at its own position, work-group 0 of its
    /// launch, with its `plan decode error`: the launches before it
    /// complete, an earlier failure wins, and no later launch starts.
    /// Under [`Engine::TreeWalk`]
    /// the launches run one at a time in slice order, which the caller
    /// must arrange to be a valid topological order of `dag` (the
    /// runtime's submission order always is). Either way each launch's
    /// statistics — and the buffers it writes — are bit-identical to
    /// sequential execution; only wall time differs.
    ///
    /// With [`Device::profile`] on, plan-engine runs additionally count
    /// every executed instruction into [`Device::report`].
    ///
    /// # Errors
    ///
    /// Fails like [`Device::launch`]; with several failing work-groups
    /// the error of the lexicographically smallest `(launch, group)` is
    /// reported under every thread count and schedule.
    pub fn launch_graph(
        &self,
        m: &Module,
        batch: &[BatchLaunch],
        dag: &LaunchDag,
        pool: &mut MemoryPool,
    ) -> Result<Vec<ExecStats>, SimError> {
        self.launch_graph_ledgered(m, batch, dag, pool, None)
    }

    /// [`Device::launch_graph`], adding the plan-engine run's plan
    /// lookups, fact instantiations and graph-run times to `ledger` when
    /// one is given ([`Ledger`]).
    ///
    /// # Errors
    ///
    /// As [`Device::launch_graph`].
    pub fn launch_graph_ledgered(
        &self,
        m: &Module,
        batch: &[BatchLaunch],
        dag: &LaunchDag,
        pool: &mut MemoryPool,
        mut ledger: Option<&mut Ledger>,
    ) -> Result<Vec<ExecStats>, SimError> {
        if self.engine == Engine::Plan {
            // Decode first — the launches below borrow the plans this
            // holds: the decode outcome per kernel entry, `None` per host
            // node. A rejected kernel is a launch that fails up front.
            // Each distinct kernel is looked up (or decoded) once per graph;
            // its later launches are served from `plans` and still count as
            // the plan-cache hits they would have been.
            let looking_up = ledger.is_some().then(Instant::now);
            let mut plans: Vec<Result<PlanEntry, SimError>> = Vec::new();
            let mut plan_of: FxHashMap<OpId, usize> = FxHashMap::default();
            let mut served = 0_u64;
            let entries: Vec<Option<usize>> = (batch.iter())
                .map(|b| match b {
                    BatchLaunch::Kernel { kernel, .. } => Some(match plan_of.get(kernel) {
                        Some(&entry) => {
                            served += 1;
                            entry
                        }
                        None => {
                            plans.push(self.cached_plan(m, *kernel));
                            plan_of.insert(*kernel, plans.len() - 1);
                            plans.len() - 1
                        }
                    }),
                    BatchLaunch::Host(_) => None,
                })
                .collect();
            self.report.borrow_mut().cache_hits += served;
            if let (Some(ledger), Some(t)) = (ledger.as_deref_mut(), looking_up) {
                ledger.plan_lookup += t.elapsed();
                ledger.counts.plans_looked_up += plans.len() as u64;
            }
            let launches: Vec<PlanLaunch<'_>> = (entries.iter().zip(batch))
                .map(|(entry, b)| match (b, entry.map(|e| &plans[e])) {
                    (BatchLaunch::Kernel { args, nd, .. }, Some(Ok((plan, facts)))) => {
                        PlanLaunch::Kernel {
                            plan,
                            args,
                            nd: *nd,
                            facts,
                        }
                    }
                    (BatchLaunch::Kernel { nd, .. }, Some(Err(error))) => {
                        PlanLaunch::Rejected { nd: *nd, error }
                    }
                    (BatchLaunch::Host(node), _) => PlanLaunch::Host(node),
                    (BatchLaunch::Kernel { .. }, None) => {
                        unreachable!("every kernel entry was looked up above")
                    }
                })
                .collect();
            let out = run_plan_graph_report(
                &launches,
                dag,
                pool,
                &self.cost,
                self.threads,
                self.profile,
                &self.limits,
                ledger,
            )?;
            if let Some(profile) = &out.profile {
                let report = &mut *self.report.borrow_mut();
                for ((entry, counts), b) in entries.iter().zip(profile).zip(batch) {
                    let entry = entry.map(|e| &plans[e]);
                    if let (Some(Ok((plan, _))), BatchLaunch::Kernel { kernel, .. }) = (entry, b) {
                        report.add_profile(m.symbol_name(*kernel).unwrap_or("?"), plan, counts);
                    }
                }
            }
            return Ok(out.stats);
        }
        // The tree-walk engine runs the launches sequentially in slice
        // order (identical results, no launch overlap). Limits still
        // apply, with the whole batch sharing one deadline.
        let deadline = self.limits.deadline_instant();
        batch
            .iter()
            .enumerate()
            .map(|(li, b)| match b {
                BatchLaunch::Kernel { kernel, args, nd } => launch_kernel_with(
                    m,
                    *kernel,
                    args,
                    *nd,
                    pool,
                    &self.cost,
                    &self.limits,
                    deadline,
                    li,
                ),
                BatchLaunch::Host(node) => {
                    run_host_serial(node, pool, &self.limits, deadline).map_err(|e| e.at(li, 0))
                }
            })
            .collect()
    }
}

/// One entry of a [`Device::launch_graph`] call: a kernel with its bound
/// arguments and geometry, or a host-task node ([`HostNode`]) occupying
/// one logical work-group.
#[derive(Clone, Debug)]
pub enum BatchLaunch {
    /// A kernel launch.
    Kernel {
        /// The kernel function to launch.
        kernel: OpId,
        /// Kernel arguments, excluding the trailing item parameter
        /// (launches that bind equal arguments may share one list).
        args: Arc<[RtValue]>,
        /// Launch geometry.
        nd: NdRangeSpec,
    },
    /// A host task.
    Host(HostNode),
}

impl BatchLaunch {
    /// A kernel launch entry.
    pub fn kernel(kernel: OpId, args: impl Into<Arc<[RtValue]>>, nd: NdRangeSpec) -> BatchLaunch {
        BatchLaunch::Kernel {
            kernel,
            args: args.into(),
            nd,
        }
    }

    /// A host-task entry: one logical 1×1 work-group running `node`.
    pub fn host_node(node: HostNode) -> BatchLaunch {
        BatchLaunch::Host(node)
    }
}

/// One tree-walk launch under execution limits: the serial twin of the
/// plan scheduler's launch path. `launch` is the launch's index within its
/// graph (0 for single launches), which its errors are stamped with;
/// `deadline` is the enclosing graph's absolute deadline, shared by every
/// launch of a serial batch.
#[allow(clippy::too_many_arguments)]
fn launch_kernel_with(
    m: &Module,
    kernel: OpId,
    args: &[RtValue],
    nd: NdRangeSpec,
    pool: &mut MemoryPool,
    cost: &CostModel,
    limits: &ExecLimits,
    deadline: Option<Instant>,
    launch: usize,
) -> Result<ExecStats, SimError> {
    nd.validate()?;
    refuse_recursion(m, kernel).map_err(|e| e.at(launch, 0))?;
    pool.check_args(args)
        .map_err(|fault| SimError::from(fault).at(launch, 0))?;
    let groups = nd.groups();
    let mut ctx = ExecCtx::new(m, pool, cost, nd);
    if !limits.is_none() {
        let budget = limits.launch_budget();
        ctx.limits = Some(Box::new(OpMeter::new(limits, budget, deadline)));
    }

    let total = (groups[0] * groups[1] * groups[2]) as usize;
    for gi in 0..total {
        run_work_group(m, kernel, args, nd.group_at(gi), &mut ctx).map_err(|e| e.at(launch, gi))?;
        ctx.next_work_group();
    }
    let mut stats = ctx.stats;
    stats.work_groups = total as u64;
    stats.work_items = nd.work_items() as u64;
    stats.charge(cost);
    Ok(stats)
}

/// Refuse `kernel` if a function its calls reach can reach itself: SYCL
/// device code may not recurse. Both engines check before they run any
/// group of a launch, so a recursive kernel fails at work-group 0 of its
/// launch, with the same text, under either.
fn refuse_recursion(m: &Module, kernel: OpId) -> Result<(), SimError> {
    // Depth first over call edges: `path` is the chain of calls being
    // walked, `done` the functions all of whose callees were.
    fn visit(
        m: &Module,
        call: OpName,
        f: OpId,
        path: &mut Vec<OpId>,
        done: &mut HashSet<OpId>,
    ) -> Result<(), SimError> {
        if done.contains(&f) {
            return Ok(());
        }
        if path.contains(&f) {
            return Err(SimError::msg(format!(
                "recursive call of `{}`: SYCL device code may not recurse",
                m.symbol_name(f).unwrap_or("?")
            )));
        }
        let mut callees = Vec::new();
        m.walk(f, &mut |op| {
            if m.op_name(op) == call {
                let scope = enclosing_module(m, op);
                callees.extend(sycl_mlir_dialects::func::resolve_callee(m, op, scope));
            }
            WalkControl::Advance
        });
        path.push(f);
        for callee in callees {
            visit(m, call, callee, path, done)?;
        }
        path.pop();
        done.insert(f);
        Ok(())
    }
    match m.ctx().lookup_op("func.call") {
        Some(call) => visit(m, call, kernel, &mut Vec::new(), &mut HashSet::new()),
        None => Ok(()),
    }
}

/// The tree-walk engine's twin of the graph scheduler's host-node
/// execution: admit the node through the limits
/// ([`OpMeter::charge_host_node`]), then run the closure against a
/// [`SharedPool`] of the pool. Errors are returned unstamped; the caller
/// stamps the `(launch, group)` position.
fn run_host_serial(
    node: &HostNode,
    pool: &mut MemoryPool,
    limits: &ExecLimits,
    deadline: Option<Instant>,
) -> Result<ExecStats, SimError> {
    if let Some(meter) = OpMeter::for_launch(limits, limits.launch_budget(), deadline) {
        meter.charge_host_node(node.weight)?;
    }
    let shared = SharedPool::new(pool);
    node.run(&shared)?;
    Ok(ExecStats::default())
}

/// Drive a work-group's `items` work-items in co-operative rounds: `round`
/// runs every live one to its next barrier or to completion and says how
/// many wait at a barrier; mixing the two within a group is the
/// divergent-barrier deadlock. The one round loop, shared by both engines
/// (and every plan worker thread), and the one place a barrier is checked
/// — so the scheduling policy (and its error message) cannot drift.
pub(crate) fn cooperative_rounds(
    items: usize,
    group: [i64; 3],
    mut round: impl FnMut() -> Result<usize, SimError>,
) -> Result<(), SimError> {
    loop {
        // Every item stops once per round: at a barrier, or for good.
        let barriers = round()?;
        if barriers == 0 {
            return Ok(());
        }
        if barriers < items {
            return Err(SimError::DivergentBarrier {
                waiting: barriers,
                finished: items - barriers,
                group,
                at: None,
            });
        }
    }
}

fn run_work_group(
    m: &Module,
    kernel: OpId,
    args: &[RtValue],
    group: [i64; 3],
    ctx: &mut ExecCtx<'_>,
) -> Result<(), SimError> {
    ctx.group = group;
    let mut items: Vec<WorkItemState> = (0..ctx.nd.group_size() as i64)
        .map(|linear| WorkItemState::new(m, kernel, args, linear))
        .collect::<Result<_, _>>()?;
    cooperative_rounds(items.len(), group, || {
        let mut barriers = 0;
        for wi in items.iter_mut() {
            barriers += usize::from(wi.run(ctx)? == Stop::Barrier);
        }
        Ok(barriers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DataVec;
    use crate::value::AccessorVal;
    use sycl_mlir_dialects::arith::{self, constant_index};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_ir::{Builder, Context, Module};
    use sycl_mlir_sycl::device as sdev;
    use sycl_mlir_sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    fn accessor(mem: crate::memory::MemId, len: i64) -> RtValue {
        RtValue::Accessor(AccessorVal {
            mem,
            range: [len, 1, 1],
            offset: [0, 0, 0],
            rank: 1,
            constant: false,
        })
    }

    /// The work-item at local linear id 3 of work-group `[1, 2]` of an
    /// 8×8 launch in 2×2 groups sits at local `[1, 1]`, global `[3, 5]`;
    /// the group is the launch's seventh.
    #[test]
    fn item_queries_follow_the_geometry() {
        let nd = NdRangeSpec::d2(8, 8, 2, 2);
        let (group, linear) = ([1, 2, 0], 3);
        let ask = |q, d| nd.item_query(group, linear, q, d);
        assert_eq!([0, 1].map(|d| ask(ItemQ::LocalId, d)), [1, 1]);
        assert_eq!([0, 1].map(|d| ask(ItemQ::GlobalId, d)), [3, 5]);
        assert_eq!(ask(ItemQ::GroupRange, 0), 4);
        assert_eq!(nd.global_linear_id(group, linear), 29);
        assert_eq!(nd.group_at(6), group);
    }

    /// a[i] = a[i] + b[i] over a 1-d range.
    #[test]
    fn vector_add_executes() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "vadd", &[acc.clone(), acc, nd1], &[]);
        sdev::mark_kernel(&mut m, func);
        let a = m.block_arg(entry, 0);
        let b_acc = m.block_arg(entry, 1);
        let item = m.block_arg(entry, 2);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = sdev::global_id(&mut b, item, 0);
            let va = sdev::load_via_id(&mut b, a, &[gid]);
            let vb = sdev::load_via_id(&mut b, b_acc, &[gid]);
            let sum = arith::addf(&mut b, va, vb);
            sdev::store_via_id(&mut b, sum, a, &[gid]);
            build_return(&mut b, &[]);
        }
        let mut pool = MemoryPool::new();
        let n = 64_i64;
        let ma = pool.alloc(DataVec::F32((0..n).map(|i| i as f32).collect()));
        let mb = pool.alloc(DataVec::F32(vec![10.0; n as usize]));
        let device = Device::new();
        let stats = device
            .launch(
                &m,
                func,
                &[accessor(ma, n), accessor(mb, n)],
                NdRangeSpec::d1(n, 16),
                &mut pool,
            )
            .unwrap();
        let DataVec::F32(out) = pool.read(ma) else {
            panic!()
        };
        assert_eq!(out[0], 10.0);
        assert_eq!(out[63], 73.0);
        assert_eq!(stats.work_items, 64);
        assert_eq!(stats.work_groups, 4);
        // Coalescing: 64 f32 loads per array = 16 bytes/lane... 16 lanes *
        // 4B = 64B = 1 transaction per subgroup: 64/16 per array access
        // kind; two loaded arrays + 1 store = 3 * 4 = 12 transactions.
        assert_eq!(stats.global_accesses, 192);
        assert_eq!(stats.global_transactions, 12);
        assert!(stats.device_cycles > 0.0);
    }

    /// Work-group reduction via barrier: each item writes its local id to
    /// local memory; after a barrier, item 0 sums them.
    #[test]
    fn barrier_synchronizes_local_memory() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.i64_type(), 1, AccessMode::Write, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "wg_sum", &[acc, nd1], &[]);
        sdev::mark_kernel(&mut m, func);
        let out = m.block_arg(entry, 0);
        let item = m.block_arg(entry, 1);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let i64t = b.ctx().i64_type();
            let lid = sdev::local_id(&mut b, item, 0);
            let gid = sdev::group_id(&mut b, item, 0);
            let tile = sdev::local_alloca(&mut b, i64t.clone(), &[16]);
            let lid_i64 = lid; // index == int in the interpreter
            sycl_mlir_dialects::memref::store(&mut b, lid_i64, tile, &[lid]);
            let g = sdev::get_group(&mut b, item);
            sdev::group_barrier(&mut b, g);
            let zero = constant_index(&mut b, 0);
            let is_leader = arith::cmpi(&mut b, "eq", lid, zero);
            sycl_mlir_dialects::scf::build_if(
                &mut b,
                is_leader,
                &[],
                |inner| {
                    let z = constant_index(inner, 0);
                    let n = constant_index(inner, 16);
                    let one = constant_index(inner, 1);
                    let init = arith::constant_int(inner, 0, inner.ctx().index_type());
                    let sum_loop = sycl_mlir_dialects::scf::build_for(
                        inner,
                        z,
                        n,
                        one,
                        &[init],
                        |body, iv, iters| {
                            let v = sycl_mlir_dialects::memref::load(body, tile, &[iv]);
                            let s = arith::addi(body, iters[0], v);
                            vec![s]
                        },
                    );
                    let total = inner.module().op_result(sum_loop, 0);
                    sdev::store_via_id(inner, total, out, &[gid]);
                    vec![]
                },
                |_| vec![],
            );
            build_return(&mut b, &[]);
        }
        // The tile uses index type; element type for store is index -> i64 pool.
        let mut pool = MemoryPool::new();
        let mo = pool.alloc(DataVec::I64(vec![0; 4]));
        let device = Device::new();
        let stats = device
            .launch(
                &m,
                func,
                &[accessor(mo, 4)],
                NdRangeSpec::d1(64, 16),
                &mut pool,
            )
            .unwrap();
        let DataVec::I64(out_data) = pool.read(mo) else {
            panic!()
        };
        // Each group sums 0..15 = 120.
        assert_eq!(out_data, vec![120; 4]);
        assert_eq!(stats.barriers, 4 * 16); // every work-item hits it once
        assert!(stats.local_accesses > 0);
    }

    /// A barrier under a divergent branch must be detected as a deadlock —
    /// exactly what §V-C's uniformity analysis guards against.
    #[test]
    fn divergent_barrier_detected() {
        leader_alone_at_a_barrier(Device::new(), NdRangeSpec::d1(16, 16));
    }

    /// Launch, on `device` over `nd` (work-groups of 16), a kernel whose
    /// work-item 0 alone reaches a barrier: work-group 0's divergent
    /// barrier must be the error.
    fn leader_alone_at_a_barrier(device: Device, nd: NdRangeSpec) {
        let c = ctx();
        let mut m = Module::new(&c);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "bad", &[nd1], &[]);
        sdev::mark_kernel(&mut m, func);
        let item = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let lid = sdev::local_id(&mut b, item, 0);
            let zero = constant_index(&mut b, 0);
            let cond = arith::cmpi(&mut b, "eq", lid, zero);
            let g = sdev::get_group(&mut b, item);
            sycl_mlir_dialects::scf::build_if(
                &mut b,
                cond,
                &[],
                |inner| {
                    sdev::group_barrier(inner, g);
                    vec![]
                },
                |_| vec![],
            );
            build_return(&mut b, &[]);
        }
        let errv = device
            .launch(&m, func, &[], nd, &mut MemoryPool::new())
            .unwrap_err();
        let expect = SimError::DivergentBarrier {
            waiting: 1,
            finished: 15,
            group: [0; 3],
            at: Some((0, 0)),
        };
        assert_eq!(errv, expect);
    }

    /// A second launch of an unmutated kernel must reuse the decoded plan;
    /// mutating the module in between must invalidate it.
    #[test]
    fn plan_cache_hits_unmutated_and_misses_mutated_kernels() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "inc", &[acc, nd1], &[]);
        sdev::mark_kernel(&mut m, func);
        let a = m.block_arg(entry, 0);
        let item = m.block_arg(entry, 1);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = sdev::global_id(&mut b, item, 0);
            let v = sdev::load_via_id(&mut b, a, &[gid]);
            let f32t = b.ctx().f32_type();
            let one = arith::constant_float(&mut b, 1.0, f32t);
            let sum = arith::addf(&mut b, v, one);
            sdev::store_via_id(&mut b, sum, a, &[gid]);
            build_return(&mut b, &[]);
        }
        let n = 32_i64;
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32(vec![0.0; n as usize]));
        let device = Device::with_engine(Engine::Plan);
        let nd = NdRangeSpec::d1(n, 16);
        // One launch, then the cache's (hits, misses) so far.
        let launch = |m: &Module, pool: &mut MemoryPool| {
            device
                .launch(m, func, &[accessor(ma, n)], nd, pool)
                .unwrap();
            let r = device.report();
            (r.cache_hits, r.cache_misses)
        };
        assert_eq!(launch(&m, &mut pool), (0, 1), "first launch decodes");
        assert_eq!(launch(&m, &mut pool), (1, 1), "unmutated relaunch hits");
        // Any IR mutation (here: an attribute edit, like JIT
        // re-specialization would make) invalidates the cached plan.
        m.set_attr(func, "specialized", sycl_mlir_ir::Attribute::Int(1));
        assert_eq!(launch(&m, &mut pool), (1, 2), "mutated relaunch re-decodes");
        assert_eq!(launch(&m, &mut pool), (2, 2), "then hits again");

        let DataVec::F32(out) = pool.read(ma) else {
            panic!()
        };
        assert_eq!(out[0], 4.0, "all four launches executed");
    }

    /// The work-group thread pool must produce bit-identical outputs and
    /// statistics for any worker count.
    #[test]
    fn parallel_launch_is_bit_identical_to_sequential() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "scale", &[acc.clone(), acc, nd1], &[]);
        sdev::mark_kernel(&mut m, func);
        let a = m.block_arg(entry, 0);
        let b_acc = m.block_arg(entry, 1);
        let item = m.block_arg(entry, 2);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = sdev::global_id(&mut b, item, 0);
            let va = sdev::load_via_id(&mut b, a, &[gid]);
            let vb = sdev::load_via_id(&mut b, b_acc, &[gid]);
            let sum = arith::mulf(&mut b, va, vb);
            sdev::store_via_id(&mut b, sum, a, &[gid]);
            build_return(&mut b, &[]);
        }
        let n = 256_i64;
        let nd = NdRangeSpec::d1(n, 16);
        let run = |threads: usize| {
            let mut pool = MemoryPool::new();
            let ma = pool.alloc(DataVec::F32((0..n).map(|i| i as f32).collect()));
            let mb = pool.alloc(DataVec::F32(vec![0.5; n as usize]));
            let device = Device::with_engine(Engine::Plan).threads(threads);
            let stats = device
                .launch(&m, func, &[accessor(ma, n), accessor(mb, n)], nd, &mut pool)
                .unwrap();
            let DataVec::F32(out) = pool.read(ma) else {
                panic!()
            };
            (stats, out)
        };
        let (seq_stats, seq_out) = run(1);
        for threads in [2, 4, 8] {
            let (par_stats, par_out) = run(threads);
            assert_eq!(seq_stats, par_stats, "stats differ at threads={threads}");
            assert_eq!(seq_out, par_out, "outputs differ at threads={threads}");
        }
    }

    /// Errors surfacing from parallel work-groups match the sequential
    /// engine (the failing group's error is reported).
    #[test]
    fn parallel_launch_reports_divergent_barrier() {
        let device = Device::with_engine(Engine::Plan).threads(4);
        leader_alone_at_a_barrier(device, NdRangeSpec::d1(64, 16));
    }

    /// A batch of independent launches must produce the same per-launch
    /// statistics and the same buffers as launching them one at a time,
    /// for every worker count.
    #[test]
    fn batched_launches_match_sequential() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        // Two kernels writing disjoint buffers: scale and offset.
        let build = |m: &mut Module, name: &str, mul: bool| -> OpId {
            let (func, entry) = build_func(m, m.top(), name, &[acc.clone(), nd1.clone()], &[]);
            sdev::mark_kernel(m, func);
            let a = m.block_arg(entry, 0);
            let item = m.block_arg(entry, 1);
            let mut b = Builder::at_end(m, entry);
            let gid = sdev::global_id(&mut b, item, 0);
            let v = sdev::load_via_id(&mut b, a, &[gid]);
            let f32t = b.ctx().f32_type();
            let k = arith::constant_float(&mut b, 3.0, f32t);
            let out = if mul {
                arith::mulf(&mut b, v, k)
            } else {
                arith::addf(&mut b, v, k)
            };
            sdev::store_via_id(&mut b, out, a, &[gid]);
            build_return(&mut b, &[]);
            func
        };
        let _ = top;
        let scale = build(&mut m, "scale", true);
        let offset = build(&mut m, "offset", false);

        let n = 128_i64;
        let nd = NdRangeSpec::d1(n, 16);
        let run = |threads: usize, batched: bool| {
            let mut pool = MemoryPool::new();
            let ma = pool.alloc(DataVec::F32((0..n).map(|i| i as f32).collect()));
            let mb = pool.alloc(DataVec::F32((0..n).map(|i| (2 * i) as f32).collect()));
            let device = Device::with_engine(Engine::Plan).threads(threads);
            let batch = vec![
                BatchLaunch::kernel(scale, vec![accessor(ma, n)], nd),
                BatchLaunch::kernel(offset, vec![accessor(mb, n)], nd),
            ];
            let stats = if batched {
                device
                    .launch_graph(&m, &batch, &LaunchDag::independent(batch.len()), &mut pool)
                    .unwrap()
            } else {
                batch
                    .iter()
                    .map(|b| {
                        let BatchLaunch::Kernel { kernel, args, nd } = b else {
                            panic!("kernel entry")
                        };
                        device.launch(&m, *kernel, args, *nd, &mut pool).unwrap()
                    })
                    .collect()
            };
            let DataVec::F32(a) = pool.read(ma) else {
                panic!()
            };
            let DataVec::F32(b) = pool.read(mb) else {
                panic!()
            };
            (stats, a, b)
        };
        let (ref_stats, ref_a, ref_b) = run(1, false);
        assert_eq!(ref_a[5], 15.0);
        assert_eq!(ref_b[5], 13.0);
        for threads in [1, 2, 4, 8] {
            let (stats, a, b) = run(threads, true);
            assert_eq!(ref_stats, stats, "stats differ at threads={threads}");
            assert_eq!(ref_a, a, "buffer a differs at threads={threads}");
            assert_eq!(ref_b, b, "buffer b differs at threads={threads}");
        }
    }

    /// A graph edge must order two launches touching the same buffer: the
    /// chained result `(x * 3) + 3` is only reachable when the scheduler
    /// honours the dependency, for every worker count.
    #[test]
    fn launch_graph_orders_hazard_edges() {
        use crate::pool::LaunchDag;
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let build = |m: &mut Module, name: &str, mul: bool| -> OpId {
            let (func, entry) = build_func(m, m.top(), name, &[acc.clone(), nd1.clone()], &[]);
            sdev::mark_kernel(m, func);
            let a = m.block_arg(entry, 0);
            let item = m.block_arg(entry, 1);
            let mut b = Builder::at_end(m, entry);
            let gid = sdev::global_id(&mut b, item, 0);
            let v = sdev::load_via_id(&mut b, a, &[gid]);
            let f32t = b.ctx().f32_type();
            let k = arith::constant_float(&mut b, 3.0, f32t);
            let out = if mul {
                arith::mulf(&mut b, v, k)
            } else {
                arith::addf(&mut b, v, k)
            };
            sdev::store_via_id(&mut b, out, a, &[gid]);
            build_return(&mut b, &[]);
            func
        };
        let scale = build(&mut m, "scale", true);
        let offset = build(&mut m, "offset", false);

        let n = 256_i64;
        let nd = NdRangeSpec::d1(n, 4); // many small groups: chunked claiming
        let dag = LaunchDag::chain(2);
        let run = |threads: usize| {
            let mut pool = MemoryPool::new();
            let ma = pool.alloc(DataVec::F32((0..n).map(|i| i as f32).collect()));
            let device = Device::with_engine(Engine::Plan).threads(threads);
            let batch = vec![
                BatchLaunch::kernel(scale, vec![accessor(ma, n)], nd),
                BatchLaunch::kernel(offset, vec![accessor(ma, n)], nd),
            ];
            let stats = device.launch_graph(&m, &batch, &dag, &mut pool).unwrap();
            let DataVec::F32(a) = pool.read(ma) else {
                panic!()
            };
            (stats, a)
        };
        let (ref_stats, ref_a) = run(1);
        assert_eq!(ref_a[5], 5.0 * 3.0 + 3.0);
        for threads in [2, 4, 8] {
            let (stats, a) = run(threads);
            assert_eq!(ref_stats, stats, "stats differ at threads={threads}");
            assert_eq!(ref_a, a, "buffer differs at threads={threads}");
        }
    }

    /// An empty nd-range (zero global extent) is a legal no-op launch on
    /// both engines, and an empty launch in the middle of a dependency
    /// chain must not stall its successors — the scheduler retires it
    /// eagerly (there is no work-group whose completion could).
    #[test]
    fn empty_launches_are_noops_and_do_not_stall_chains() {
        use crate::pool::LaunchDag;
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let build = |m: &mut Module, name: &str, mul: bool| -> OpId {
            let (func, entry) = build_func(m, m.top(), name, &[acc.clone(), nd1.clone()], &[]);
            sdev::mark_kernel(m, func);
            let a = m.block_arg(entry, 0);
            let item = m.block_arg(entry, 1);
            let mut b = Builder::at_end(m, entry);
            let gid = sdev::global_id(&mut b, item, 0);
            let v = sdev::load_via_id(&mut b, a, &[gid]);
            let f32t = b.ctx().f32_type();
            let k = arith::constant_float(&mut b, 3.0, f32t);
            let out = if mul {
                arith::mulf(&mut b, v, k)
            } else {
                arith::addf(&mut b, v, k)
            };
            sdev::store_via_id(&mut b, out, a, &[gid]);
            build_return(&mut b, &[]);
            func
        };
        let scale = build(&mut m, "scale", true);
        let offset = build(&mut m, "offset", false);
        let n = 64_i64;

        // A single empty launch is a no-op on both engines.
        for engine in [Engine::TreeWalk, Engine::Plan] {
            let mut pool = MemoryPool::new();
            let ma = pool.alloc(DataVec::F32(vec![1.0; n as usize]));
            let device = Device::with_engine(engine);
            let stats = device
                .launch(
                    &m,
                    scale,
                    &[accessor(ma, n)],
                    NdRangeSpec::d1(0, 16),
                    &mut pool,
                )
                .unwrap_or_else(|e| panic!("empty launch on {}: {e}", engine.name()));
            assert_eq!(stats.work_groups, 0);
            assert_eq!(stats.work_items, 0);
            assert_eq!(stats.global_accesses, 0);
            let DataVec::F32(a) = pool.read(ma) else {
                panic!()
            };
            assert_eq!(a, vec![1.0_f32; n as usize], "no-op left the buffer alone");
        }

        // scale -> (empty) -> offset over one buffer: the chain must
        // complete (no deadlock) and the successor must see the
        // predecessor's writes, for every worker count.
        let dag = LaunchDag::chain(3);
        for threads in [1_usize, 2, 4, 8] {
            let mut pool = MemoryPool::new();
            let ma = pool.alloc(DataVec::F32((0..n).map(|i| i as f32).collect()));
            let device = Device::with_engine(Engine::Plan).threads(threads);
            let batch = vec![
                BatchLaunch::kernel(scale, vec![accessor(ma, n)], NdRangeSpec::d1(n, 4)),
                BatchLaunch::kernel(offset, vec![accessor(ma, n)], NdRangeSpec::d1(0, 4)),
                BatchLaunch::kernel(offset, vec![accessor(ma, n)], NdRangeSpec::d1(n, 4)),
            ];
            let stats = device.launch_graph(&m, &batch, &dag, &mut pool).unwrap();
            assert_eq!(stats.len(), 3, "threads={threads}");
            assert_eq!(stats[1].work_groups, 0, "threads={threads}");
            let DataVec::F32(a) = pool.read(ma) else {
                panic!()
            };
            assert_eq!(a[5], 5.0 * 3.0 + 3.0, "threads={threads}");
        }
    }

    /// With failing work-groups in several launches, the error of the
    /// lexicographically smallest `(launch, group)` must be reported —
    /// independent of thread count and schedule. Launch 0 diverges from
    /// group 3 on; launch 1 diverges everywhere; the reported group must
    /// be launch 0's group 3.
    #[test]
    fn launch_graph_reports_lexicographically_first_error() {
        use crate::pool::LaunchDag;
        let c = ctx();
        let mut m = Module::new(&c);
        let nd1 = nd_item_type(&c, 1);
        // Diverges when group_id >= `from`: only work-item 0 of such a
        // group reaches the barrier.
        let build = |m: &mut Module, name: &str, from: i64| -> OpId {
            let (func, entry) = build_func(m, m.top(), name, std::slice::from_ref(&nd1), &[]);
            sdev::mark_kernel(m, func);
            let item = m.block_arg(entry, 0);
            let mut b = Builder::at_end(m, entry);
            let lid = sdev::local_id(&mut b, item, 0);
            let gid = sdev::group_id(&mut b, item, 0);
            let zero = constant_index(&mut b, 0);
            let thr = constant_index(&mut b, from);
            let leader = arith::cmpi(&mut b, "eq", lid, zero);
            let late = arith::cmpi(&mut b, "sge", gid, thr);
            let cond = b.build_value("arith.andi", &[leader, late], b.ctx().i1_type(), vec![]);
            let g = sdev::get_group(&mut b, item);
            sycl_mlir_dialects::scf::build_if(
                &mut b,
                cond,
                &[],
                |inner| {
                    sdev::group_barrier(inner, g);
                    vec![]
                },
                |_| vec![],
            );
            build_return(&mut b, &[]);
            func
        };
        let bad_late = build(&mut m, "bad_late", 3);
        let bad_all = build(&mut m, "bad_all", 0);
        let nd = NdRangeSpec::d1(64, 8); // 8 groups each
        for threads in [1, 2, 4, 8] {
            let mut pool = MemoryPool::new();
            let device = Device::with_engine(Engine::Plan).threads(threads);
            let batch = vec![
                BatchLaunch::kernel(bad_late, vec![], nd),
                BatchLaunch::kernel(bad_all, vec![], nd),
            ];
            let err = device
                .launch_graph(&m, &batch, &LaunchDag::independent(2), &mut pool)
                .unwrap_err();
            assert!(
                err.message().contains("[3, 0, 0]"),
                "threads={threads}: expected launch 0 group 3's error, got: {err}"
            );
        }
    }

    /// Uncoalesced (column-striding) accesses cost many more transactions
    /// than coalesced ones.
    #[test]
    fn coalescing_distinguishes_row_and_column_access() {
        let c = ctx();
        let n = 16_i64;
        let build = |by_row: bool| -> (Module, OpId) {
            let mut m = Module::new(&c);
            let acc = accessor_type(&c, c.f32_type(), 2, AccessMode::Read, Target::Global);
            let nd1 = nd_item_type(&c, 1);
            let top = m.top();
            let (func, entry) = build_func(&mut m, top, "k", &[acc, nd1], &[]);
            sdev::mark_kernel(&mut m, func);
            let a = m.block_arg(entry, 0);
            let item = m.block_arg(entry, 1);
            {
                let mut b = Builder::at_end(&mut m, entry);
                let gid = sdev::global_id(&mut b, item, 0);
                let zero = constant_index(&mut b, 0);
                let idx = if by_row { [zero, gid] } else { [gid, zero] };
                sdev::load_via_id(&mut b, a, &idx);
                build_return(&mut b, &[]);
            }
            (m, func)
        };
        let device = Device::new();

        let (m_row, k_row) = build(true);
        let mut pool = MemoryPool::new();
        let ma = pool.alloc(DataVec::F32(vec![0.0; (n * n) as usize]));
        let acc = RtValue::Accessor(AccessorVal {
            mem: ma,
            range: [n, n, 1],
            offset: [0; 3],
            rank: 2,
            constant: false,
        });
        let row_stats = device
            .launch(&m_row, k_row, &[acc], NdRangeSpec::d1(n, 16), &mut pool)
            .unwrap();

        let (m_col, k_col) = build(false);
        let mut pool2 = MemoryPool::new();
        let ma2 = pool2.alloc(DataVec::F32(vec![0.0; (n * n) as usize]));
        let acc2 = RtValue::Accessor(AccessorVal {
            mem: ma2,
            range: [n, n, 1],
            offset: [0; 3],
            rank: 2,
            constant: false,
        });
        let col_stats = device
            .launch(&m_col, k_col, &[acc2], NdRangeSpec::d1(n, 16), &mut pool2)
            .unwrap();

        // Row access: 16 consecutive f32 = 1 transaction. Column access:
        // every lane its own segment = 16 transactions.
        assert_eq!(row_stats.global_transactions, 1);
        assert_eq!(col_stats.global_transactions, 16);
    }

    /// Coalescing pairs accesses by *instance* — each item's own visit
    /// count at the site — not by when they happen. One sub-group, two
    /// barrier rounds; in round `r` an even item loads `a[32r + lid]` and
    /// an odd item that and `a[32r + 16 + lid]`: an even item's second
    /// visit to the site comes a barrier round after the odd items'.
    #[test]
    fn coalescing_pairs_divergent_items_by_instance_across_a_barrier() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 1, AccessMode::Read, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[acc, nd1], &[]);
        sdev::mark_kernel(&mut m, func);
        let a = m.block_arg(entry, 0);
        let item = m.block_arg(entry, 1);
        {
            use sycl_mlir_dialects::scf::build_for;
            let mut b = Builder::at_end(&mut m, entry);
            let lid = sdev::local_id(&mut b, item, 0);
            let group = sdev::get_group(&mut b, item);
            let [zero, one, two, sixteen] = [0, 1, 2, 16].map(|v| constant_index(&mut b, v));
            let odd = arith::remsi(&mut b, lid, two);
            let trips = arith::addi(&mut b, odd, one);
            build_for(&mut b, zero, two, one, &[], |round, r, _| {
                build_for(round, zero, trips, one, &[], |body, k, _| {
                    let row = arith::muli(body, r, two);
                    let row = arith::addi(body, row, k);
                    let base = arith::muli(body, row, sixteen);
                    let idx = arith::addi(body, base, lid);
                    sdev::load_via_id(body, a, &[idx]);
                    vec![]
                });
                sdev::group_barrier(round, group);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let stats = [Engine::Plan, Engine::TreeWalk].map(|engine| {
            let mut pool = MemoryPool::new();
            let args = [accessor(pool.alloc(DataVec::F32(vec![0.0; 64])), 64)];
            let nd = NdRangeSpec::d1(16, 16);
            let device = Device::with_engine(engine);
            device.launch(&m, func, &args, nd, &mut pool).unwrap()
        });
        assert_eq!(stats[0], stats[1], "plan engine vs tree walk");
        assert_eq!(stats[0].global_accesses, 8 * 2 + 8 * 4);
        // Instance 1: all sixteen at `a[lid]`, one segment. Instance 2:
        // the odd items' `a[16 + lid]` (round 0) and the even items'
        // `a[32 + lid]` (round 1), two. Instances 3, 4: the odd items'
        // round 1, one each — `a[32 + lid]` again, at another instance.
        assert_eq!(stats[0].global_transactions, 1 + 2 + 1 + 1);
    }
}
