//! The simulated device: ND-range scheduling of work-groups and work-items
//! with co-operative barrier semantics, engine/thread selection and the
//! cross-launch kernel-plan cache.

use crate::cost::{CostModel, ExecStats};
use crate::interp::{enclosing_module, ExecCtx, Stop, WorkItemState};
use crate::limits::{CancelToken, ExecLimits, FaultPlan, FaultSite, OpMeter};
use crate::memory::MemoryPool;
use crate::plan::{decode_kernel, fuse_plan, profile_summary, ItemQ, KernelPlan};
use crate::pool::{run_plan_graph_report, HostNode, HostView, LaunchDag, PlanLaunch, SharedPool};
use crate::value::RtValue;
use crate::verify::{verify_plan, PlanFacts};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use sycl_mlir_ir::{Module, OpId};

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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
/// proofs, barrier uniformity; [`PlanFacts::NONE`] when the verifier
/// reported findings).
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
    /// Count executed plan instructions ([`Device::profile_report`]).
    pub profile: bool,
    /// Per-launch execution limits ([`ExecLimits`]): weighted-operation
    /// budget, memory cap, wall-clock deadline, cancellation token and
    /// injected fault. All off by default, in which case the executors
    /// skip metering entirely. Independent of the plan cache — changing
    /// limits never re-decodes a kernel.
    pub limits: ExecLimits,
    plan_cache: RefCell<HashMap<(u64, OpId), CachedPlan>>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    verify_stats: RefCell<VerifyCounters>,
    /// The first finding of every plan the verifier flagged, as
    /// `kernel: finding` ([`Device::profile_report`] lists them).
    findings: RefCell<BTreeSet<String>>,
    profile_sums: RefCell<ProfileSums>,
}

/// What `--profile` runs have counted so far ([`Device::profile_report`]).
#[derive(Clone, Debug, Default)]
struct ProfileSums {
    ops: BTreeMap<&'static str, u64>,
    pairs: BTreeMap<(&'static str, &'static str), u64>,
    /// Per kernel name: lane-instructions executed, and the dispatches
    /// that executed them.
    kernels: BTreeMap<String, (u64, u64)>,
}

/// Aggregated decode-time verifier statistics of one device
/// ([`Device::verify_counters`]): what the static-analysis passes proved
/// across every plan verified so far, and what that cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyCounters {
    /// Plans the verifier ran over (once per decode, not per launch).
    pub plans: u64,
    /// Accessor/memref access sites seen across verified plans.
    pub sites_total: u64,
    /// Sites with a symbolic in-bounds proof (the unchecked-path
    /// candidates; actual elision is decided per launch when the proof
    /// is instantiated against concrete geometry and buffer lengths).
    pub sites_proven: u64,
    /// `sycl.group.barrier` ops seen across verified plans' source IR.
    pub barriers_total: u64,
    /// Barriers the IR uniformity analysis proved to sit in uniform
    /// control flow (a reported fact; the group driver checks every
    /// barrier round for divergence regardless).
    pub barriers_uniform: u64,
    /// Total wall time spent in the verifier, in nanoseconds.
    pub verify_ns: u64,
    /// Kernels the plan decoder refused.
    pub rejected: u64,
    /// Individual verifier findings; a plan with findings runs with every
    /// runtime check in place.
    pub lint_findings: u64,
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
            cache_hits: Cell::new(0),
            cache_misses: Cell::new(0),
            verify_stats: RefCell::new(VerifyCounters::default()),
            findings: RefCell::default(),
            profile_sums: RefCell::default(),
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
    /// this many weighted operations. Superinstructions charge the
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

    /// Builder-style cancellation token: flip the token from any thread
    /// and in-flight launches stop at their next check boundary with
    /// [`LimitKind::Cancelled`](crate::LimitKind::Cancelled).
    pub fn cancel_token(mut self, token: CancelToken) -> Device {
        self.limits.cancel = Some(token);
        self
    }

    /// Builder-style injected fault ([`FaultPlan`]) for testing the
    /// failure paths: cancellation cascade, error ordering and
    /// post-failure device usability.
    pub fn fault(mut self, fault: FaultPlan) -> Device {
        self.limits.fault = Some(fault);
        self
    }

    /// Builder-style override of the whole limit set ([`ExecLimits`]).
    pub fn limits(mut self, limits: ExecLimits) -> Device {
        self.limits = limits;
        self
    }

    /// Aggregated decode-time verifier statistics so far
    /// ([`VerifyCounters`]).
    pub fn verify_counters(&self) -> VerifyCounters {
        *self.verify_stats.borrow()
    }

    /// `(hits, misses)` of the cross-launch plan cache so far. A hit means
    /// a launch reused a previously cached decode outcome (including a
    /// cached decode error or rejection); a miss means the decoder ran (first
    /// launch, or the module mutated in between).
    pub fn plan_cache_counters(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }

    /// The decoded plan for `kernel` — plus the decode-time verifier's
    /// facts ([`PlanFacts`]) — reused from the cache when the module's
    /// mutation epoch still matches. `Err` when the kernel is not
    /// plan-decodable (a `plan decode error`). Every outcome is cached —
    /// an iterative workload with an undecodable kernel pays the decode
    /// attempt once per epoch, not once per launch, and every relaunch
    /// reports the identical error.
    fn cached_plan(&self, m: &Module, kernel: OpId) -> Result<PlanEntry, SimError> {
        let key = (m.module_id(), kernel);
        let epoch = m.mutation_epoch();
        if let Some(cached) = self.plan_cache.borrow().get(&key) {
            if cached.epoch == epoch {
                self.cache_hits.set(self.cache_hits.get() + 1);
                return cached.outcome.clone();
            }
        }
        // Miss: decode, verify (pre-fusion — fusion preserves site ids,
        // so in-bounds proofs transfer to the fused plan unchanged),
        // then fuse.
        self.cache_misses.set(self.cache_misses.get() + 1);
        let outcome = match decode_kernel(m, kernel) {
            Ok(mut plan) => {
                let facts = self.verify_decoded(m, kernel, &plan);
                fuse_plan(&mut plan);
                Ok((Arc::new(plan), Arc::new(facts)))
            }
            Err(undecodable) => {
                self.verify_stats.borrow_mut().rejected += 1;
                Err(SimError::from(undecodable))
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
    /// (pre-fusion) plan: the structural, type-consistency and
    /// barrier-placement passes plus the interval abstract interpreter
    /// ([`verify_plan`]), then the IR-level barrier-uniformity pass.
    /// A plan with findings gets [`PlanFacts::NONE`] — so it runs with
    /// every check in place — and its first finding is kept for the
    /// profile report.
    fn verify_decoded(&self, m: &Module, kernel: OpId, plan: &KernelPlan) -> PlanFacts {
        let start = Instant::now();
        match verify_plan(plan) {
            Ok(mut facts) => {
                let (total, uniform) = barrier_uniformity(m, kernel);
                facts.barriers_total = total;
                facts.barriers_uniform = uniform;
                facts.verify_ns = start.elapsed().as_nanos() as u64;
                let mut vs = self.verify_stats.borrow_mut();
                vs.plans += 1;
                vs.sites_total += facts.sites_total as u64;
                vs.sites_proven += facts.sites_proven as u64;
                vs.barriers_total += total as u64;
                vs.barriers_uniform += uniform as u64;
                vs.verify_ns += facts.verify_ns;
                facts
            }
            Err(errs) => {
                let mut vs = self.verify_stats.borrow_mut();
                vs.plans += 1;
                vs.verify_ns += start.elapsed().as_nanos() as u64;
                vs.lint_findings += errs.len() as u64;
                let name = m.symbol_name(kernel).unwrap_or("?");
                let mut first = format!("{name}: {}", errs[0]);
                if errs.len() > 1 {
                    first.push_str(&format!(" (+{} more)", errs.len() - 1));
                }
                self.findings.borrow_mut().insert(first);
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
    /// the decoder rejects fails the graph with its `plan decode error`,
    /// stamped with the launch's index, before anything runs.
    /// Under [`Engine::TreeWalk`]
    /// the launches run one at a time in slice order, which the caller
    /// must arrange to be a valid topological order of `dag` (the
    /// runtime's submission order always is). Either way each launch's
    /// statistics — and the buffers it writes — are bit-identical to
    /// sequential execution; only wall time differs.
    ///
    /// With [`Device::profile`] on, plan-engine runs additionally count
    /// every executed instruction into [`Device::profile_report`].
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
        if self.engine == Engine::Plan {
            // Decode first — the launches below borrow the plans this
            // holds: `Some((plan, facts))` per kernel entry, `None` per
            // host node. An undecodable kernel fails the whole graph,
            // stamped with the offending launch index.
            let plans: Vec<Option<PlanEntry>> = batch
                .iter()
                .enumerate()
                .map(|(li, b)| match b {
                    BatchLaunch::Kernel { kernel, .. } => {
                        let entry = self.cached_plan(m, *kernel);
                        entry.map(Some).map_err(|e| e.at(li, 0))
                    }
                    BatchLaunch::Host(_) => Ok(None),
                })
                .collect::<Result<_, _>>()?;
            let launches: Vec<PlanLaunch<'_>> = plans
                .iter()
                .zip(batch)
                .map(|(entry, b)| match (b, entry) {
                    (BatchLaunch::Kernel { args, nd, .. }, Some((plan, facts))) => {
                        PlanLaunch::Kernel {
                            plan,
                            args,
                            nd: *nd,
                            facts,
                        }
                    }
                    (BatchLaunch::Host(node), _) => PlanLaunch::Host(node),
                    (BatchLaunch::Kernel { .. }, None) => {
                        unreachable!("every kernel entry was decoded above")
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
            )?
            .into_result()?;
            if let Some(profile) = &out.profile {
                let sums = &mut *self.profile_sums.borrow_mut();
                for ((entry, counts), b) in plans.iter().zip(profile).zip(batch) {
                    if let (Some((plan, _)), BatchLaunch::Kernel { kernel, .. }) = (entry, b) {
                        profile_summary(plan, counts, &mut sums.ops, &mut sums.pairs);
                        let (lanes, dispatches) = counts.split_at(plan.instr_count());
                        let name = m.symbol_name(*kernel).unwrap_or("?").to_string();
                        let row = sums.kernels.entry(name).or_default();
                        row.0 += lanes.iter().sum::<u64>();
                        row.1 += dispatches[0];
                    }
                }
            }
            return Ok(out.stats);
        }
        // The tree-walk engine runs the launches sequentially in slice
        // order (identical results, no launch overlap). Limits and
        // injected faults still apply, with
        // the whole batch sharing one deadline and the fault targeting
        // the same launch index as under the graph scheduler.
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
                    run_host_serial(node, pool, &self.limits, deadline, li).map_err(|e| e.at(li, 0))
                }
            })
            .collect()
    }

    /// Render the per-instruction execution counts accumulated by
    /// `--profile` runs: total executions per opcode, then the hottest
    /// dataflow-adjacent instruction pairs — the ranked candidates for
    /// the next [`crate::plan::fuse_plan`] superinstruction. `None` until a profiled
    /// plan-engine launch ran on this device.
    pub fn profile_report(&self) -> Option<String> {
        let ProfileSums {
            ops,
            pairs,
            kernels,
        } = &*self.profile_sums.borrow();
        if ops.is_empty() {
            return None;
        }
        let mut out = String::from("== instruction profile (plan engine) ==\n");
        out.push_str(&format!("{:>16}  opcode\n", "executions"));
        let mut rows: Vec<(&'static str, u64)> = ops.iter().map(|(&k, &v)| (k, v)).collect();
        // Descending by count; the BTreeMap already fixed the tie order.
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (name, count) in rows {
            out.push_str(&format!("{count:>16}  {name}\n"));
        }
        if !pairs.is_empty() {
            out.push_str("\n== hottest dataflow-adjacent pairs (fusion candidates) ==\n");
            out.push_str(&format!("{:>16}  pair\n", "executions"));
            let mut rows: Vec<((&'static str, &'static str), u64)> =
                pairs.iter().map(|(&k, &v)| (k, v)).collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for ((a, b), count) in rows.into_iter().take(16) {
                out.push_str(&format!("{count:>16}  {a} -> {b}\n"));
            }
        }
        // The lockstep gauge: how many dispatches executed the
        // lane-instructions above, and so how well lanes stayed together.
        out.push_str("\n== lockstep dispatch ==\n");
        out.push_str("  lane-instructions        dispatches  lanes/dispatch  kernel\n");
        let sweep = kernels.values().fold((0, 0), |s, k| (s.0 + k.0, s.1 + k.1));
        let rows = kernels.iter().map(|(name, counts)| (name.as_str(), counts));
        for (name, &(lanes, dispatches)) in std::iter::once(("(sweep)", &sweep)).chain(rows) {
            let mean = lanes as f64 / dispatches.max(1) as f64;
            out.push_str(&format!(
                "{lanes:>19}{dispatches:>18}{mean:>16.2}  {name}\n"
            ));
        }
        let vs = self.verify_counters();
        if vs.plans > 0 || vs.rejected > 0 {
            out.push_str("\n== static analysis ==\n");
            out.push_str(&format!("{:>16}  plans verified\n", vs.plans));
            out.push_str(&format!(
                "{:>10}/{:<5}  access sites proven in-bounds\n",
                vs.sites_proven, vs.sites_total
            ));
            out.push_str(&format!(
                "{:>10}/{:<5}  barriers statically uniform\n",
                vs.barriers_uniform, vs.barriers_total
            ));
            out.push_str(&format!("{:>16}  verify time (us)\n", vs.verify_ns / 1_000));
            if vs.rejected > 0 {
                out.push_str(&format!("{:>16}  plans undecodable\n", vs.rejected));
            }
            if vs.lint_findings > 0 {
                out.push_str(&format!("{:>16}  lint findings\n", vs.lint_findings));
                for first in self.findings.borrow().iter() {
                    out.push_str(&format!("{:>18}{first}\n", ""));
                }
            }
        }
        Some(out)
    }
}

/// Count the `sycl.group.barrier` ops of `kernel` and its transitive
/// callees in the source IR, and how many of them the uniformity
/// analysis ([`UniformityAnalysis`]) places in provably uniform control
/// flow (reported in [`VerifyCounters`]; nothing at run time depends on
/// it). Per-function
/// analysis runs only for functions that actually contain barriers;
/// anything unresolvable stays counted but unproven (conservative).
fn barrier_uniformity(m: &Module, kernel: OpId) -> (u32, u32) {
    use std::collections::HashMap;
    use sycl_mlir_analysis::uniformity::UniformityAnalysis;

    /// Every op nested under `f`'s regions, depth-first.
    fn nested_ops(m: &Module, f: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut stack: Vec<OpId> = Vec::new();
        for &r in m.op_regions(f) {
            for &b in m.region_blocks(r) {
                stack.extend(m.block_ops(b).iter().copied());
            }
        }
        while let Some(op) = stack.pop() {
            out.push(op);
            for &r in m.op_regions(op) {
                for &b in m.region_blocks(r) {
                    stack.extend(m.block_ops(b).iter().copied());
                }
            }
        }
        out
    }

    // Fixpoint over the call graph: `div[f]` is true when *some* path
    // from the kernel reaches `f` through divergent control flow (a
    // divergent call site, or a divergent caller) — barriers in such a
    // function must stay unproven, whatever their local placement.
    let mut analyses: HashMap<OpId, UniformityAnalysis> = HashMap::new();
    let mut div: HashMap<OpId, bool> = HashMap::new();
    div.insert(kernel, false);
    let mut work = vec![kernel];
    while let Some(f) = work.pop() {
        let fdiv = div[&f];
        for op in nested_ops(m, f) {
            if &*m.op_name_str(op) != "func.call" {
                continue;
            }
            let Some(callee) =
                sycl_mlir_dialects::func::resolve_callee(m, op, enclosing_module(m, f))
            else {
                continue;
            };
            let ua = analyses
                .entry(f)
                .or_insert_with(|| UniformityAnalysis::compute(m, f));
            let cdiv = fdiv || ua.is_divergent_at(m, op, f);
            match div.get_mut(&callee) {
                None => {
                    div.insert(callee, cdiv);
                    work.push(callee);
                }
                Some(prev) if cdiv && !*prev => {
                    *prev = true;
                    work.push(callee);
                }
                Some(_) => {}
            }
        }
    }
    let (mut total, mut uniform) = (0_u32, 0_u32);
    for (&f, &fdiv) in &div {
        let barriers: Vec<OpId> = nested_ops(m, f)
            .into_iter()
            .filter(|&op| &*m.op_name_str(op) == "sycl.group.barrier")
            .collect();
        total += barriers.len() as u32;
        if barriers.is_empty() || fdiv {
            continue;
        }
        let ua = analyses
            .entry(f)
            .or_insert_with(|| UniformityAnalysis::compute(m, f));
        uniform += barriers
            .iter()
            .filter(|&&b| !ua.is_divergent_at(m, b, f))
            .count() as u32;
    }
    (total, uniform)
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
        /// Kernel arguments, excluding the trailing item parameter.
        args: Vec<RtValue>,
        /// Launch geometry.
        nd: NdRangeSpec,
    },
    /// A host task.
    Host(HostNode),
}

impl BatchLaunch {
    /// A kernel launch entry.
    pub fn kernel(kernel: OpId, args: Vec<RtValue>, nd: NdRangeSpec) -> BatchLaunch {
        BatchLaunch::Kernel { kernel, args, nd }
    }

    /// A host-task entry: one logical 1×1 work-group running `node`.
    pub fn host_node(node: HostNode) -> BatchLaunch {
        BatchLaunch::Host(node)
    }
}

/// One tree-walk launch under execution limits: the serial twin of the
/// plan scheduler's launch path. `launch` is the launch's index within its
/// graph (0 for single launches) — injected faults target it and limit
/// errors are stamped with it; `deadline` is the enclosing graph's
/// absolute deadline, shared by every launch of a serial batch.
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
    // The tree walk has no decode stage; an injected decode fault fires
    // before any work-group runs, like a plan decode would.
    if let Some(FaultSite::Decode) = limits.fault_at(launch) {
        return Err(FaultPlan {
            launch,
            site: FaultSite::Decode,
        }
        .error()
        .at(launch, 0));
    }
    pool.check_args(args)
        .map_err(|fault| SimError::from(fault).at(launch, 0))?;
    let claim_fault = match limits.fault_at(launch) {
        Some(FaultSite::Claim(n)) => n,
        _ => u64::MAX,
    };
    let groups = nd.groups();
    let mut ctx = ExecCtx::new(m, pool, cost, nd);
    if !limits.is_none() {
        let budget = limits.launch_budget();
        ctx.limits = Some(Box::new(OpMeter::new(limits, budget, deadline, launch)));
    }

    let total = (groups[0] * groups[1] * groups[2]) as usize;
    for gi in 0..total {
        if gi as u64 == claim_fault {
            let site = FaultSite::Claim(gi as u64);
            return Err(FaultPlan { launch, site }.error().at(launch, gi));
        }
        run_work_group(m, kernel, args, nd.group_at(gi), &mut ctx).map_err(|e| e.at(launch, gi))?;
        ctx.next_work_group();
    }
    let mut stats = ctx.stats;
    stats.work_groups = total as u64;
    stats.work_items = nd.work_items() as u64;
    stats.charge(cost);
    Ok(stats)
}

/// The tree-walk engine's twin of the graph scheduler's host-node
/// execution: honour the decode and claim fault sites, admit the node
/// through the limits ([`OpMeter::charge_host_node`]), then run the
/// closure against a [`HostView`] of the pool. Errors are returned
/// unstamped; the caller stamps the `(launch, group)` position.
fn run_host_serial(
    node: &HostNode,
    pool: &mut MemoryPool,
    limits: &ExecLimits,
    deadline: Option<Instant>,
    launch: usize,
) -> Result<ExecStats, SimError> {
    // A host node spans one logical work-group, so only claim 0 can fire
    // (matching the graph scheduler's claim accounting).
    if let Some(site @ (FaultSite::Decode | FaultSite::Claim(0))) = limits.fault_at(launch) {
        return Err(FaultPlan { launch, site }.error());
    }
    if let Some(meter) = OpMeter::for_launch(limits, limits.launch_budget(), deadline, launch) {
        meter.charge_host_node(node.weight)?;
    }
    let shared = SharedPool::new(pool);
    node.run(&HostView::new(&shared))?;
    Ok(ExecStats::default())
}

/// Drive a work-group's `items` work-items in co-operative rounds: `round`
/// runs every live one to its next barrier or to completion and says how
/// many wait at a barrier; mixing the two within a group is the
/// divergent-barrier deadlock. The one round loop, shared by
/// both engines (and every plan worker thread), whatever the verifier
/// proved about the kernel's barriers — so the scheduling policy (and its
/// error message) cannot drift, and a wrong "statically uniform" is this
/// error rather than a silent mis-execution.
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
        let DataVec::F32(out) = pool.data(ma) else {
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
        let DataVec::I64(out_data) = pool.data(mo) else {
            panic!()
        };
        // Each group sums 0..15 = 120.
        assert_eq!(out_data, &vec![120; 4]);
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

        device
            .launch(&m, func, &[accessor(ma, n)], nd, &mut pool)
            .unwrap();
        assert_eq!(device.plan_cache_counters(), (0, 1), "first launch decodes");

        device
            .launch(&m, func, &[accessor(ma, n)], nd, &mut pool)
            .unwrap();
        assert_eq!(
            device.plan_cache_counters(),
            (1, 1),
            "unmutated relaunch hits"
        );

        // Any IR mutation (here: an attribute edit, like JIT
        // re-specialization would make) invalidates the cached plan.
        m.set_attr(func, "specialized", sycl_mlir_ir::Attribute::Int(1));
        device
            .launch(&m, func, &[accessor(ma, n)], nd, &mut pool)
            .unwrap();
        assert_eq!(
            device.plan_cache_counters(),
            (1, 2),
            "mutated relaunch re-decodes"
        );

        device
            .launch(&m, func, &[accessor(ma, n)], nd, &mut pool)
            .unwrap();
        assert_eq!(device.plan_cache_counters(), (2, 2), "then hits again");

        let DataVec::F32(out) = pool.data(ma) else {
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
            let DataVec::F32(out) = pool.data(ma) else {
                panic!()
            };
            (stats, out.clone())
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
            let DataVec::F32(a) = pool.data(ma) else {
                panic!()
            };
            let DataVec::F32(b) = pool.data(mb) else {
                panic!()
            };
            (stats, a.clone(), b.clone())
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
            let DataVec::F32(a) = pool.data(ma) else {
                panic!()
            };
            (stats, a.clone())
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
            let DataVec::F32(a) = pool.data(ma) else {
                panic!()
            };
            assert_eq!(a, &vec![1.0_f32; n as usize], "no-op left the buffer alone");
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
            let DataVec::F32(a) = pool.data(ma) else {
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
