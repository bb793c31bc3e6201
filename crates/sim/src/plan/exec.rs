//! The executor: per-worker [`PlanCtx`], a work-group's lane groups
//! ([`PlanWorkGroup`]) and the one bytecode loop, `run_impl`, which
//! dispatches an instruction once per lane group and runs it for every
//! lane of the group.

use super::instr::{DimSrc, FloatBin, Instr, IntBin, MathOp};
use super::slot::{put, Slot};
use super::KernelPlan;
use crate::device::NdRangeSpec;
use crate::interp::{KernelFault, SimError, Stop};
use crate::limits::MAX_STEPS;
use crate::memory::MemFault;
use crate::pool::PlanExecCtx;
use crate::value::{MemRefVal, RtValue, Space, VecVal};
use std::cell::Cell;

thread_local! {
    /// Whether graph runs launched from this thread run under audit
    /// ([`audit_on_this_thread`]).
    static AUDIT: Cell<bool> = const { Cell::new(false) };
}

/// Test-only, not a knob: graph runs launched from the calling thread
/// from now on run **under audit** (`on`) or normally. Under audit a
/// site the interval prover marked in-bounds still runs its bounds
/// check — a failing one is the audit's own, distinct error — and the
/// sub-groups of a work-group, and the two halves of every split, run in
/// the opposite order. Every result must equal the normal run's.
#[doc(hidden)]
pub fn audit_on_this_thread(on: bool) {
    AUDIT.set(on);
}

/// Whether the calling thread's graph runs are audit runs.
pub(crate) fn audit_requested() -> bool {
    AUDIT.get()
}

/// Per-worker mutable state of the plan engine, layered on the worker's
/// [`PlanExecCtx`] (memory interface, cost model, stats, work-group
/// tracker). A worker keeps one across its launches
/// (`PlanCtx::rebind`).
#[derive(Default)]
pub struct PlanCtx {
    /// Materialized dense constants, shared across the worker's groups
    /// (mirrors the tree-walk `const_pool`; under parallel execution each
    /// worker materializes its own arena copy).
    dense_cache: Vec<Option<MemRefVal>>,
    /// Work-group-shared `sycl.local.alloca` results, reset per group.
    local_allocs: Vec<Option<MemRefVal>>,
    /// Execution counters, as [`Self::take_profile`] lays them out
    /// (`--profile` runs only).
    profile: Option<Box<[u64]>>,
    /// Execution-limit meter (limited runs only).
    limits: Option<Box<crate::limits::OpMeter>>,
    /// Per-site proven-in-bounds bitset from the decode-time verifier,
    /// instantiated against the current launch (empty = no fast paths;
    /// see [`crate::verify::PlanFacts::instantiate`]). Proven sites take
    /// the unchecked pool path; unproven sites keep the checked path and
    /// its exact error text.
    proven: std::sync::Arc<[u64]>,
    /// Run under audit (see [`audit_on_this_thread`]).
    pub(crate) audit: bool,
}

impl PlanCtx {
    /// Size this context for a launch of `plan` (dense cache,
    /// local-alloca sites), re-using its storage: no meter, and — with
    /// `profiled` — every executed instruction counted (drained with
    /// [`PlanCtx::take_profile`]). The audit flag and the proven-site
    /// bitset stay; [`Self::set_proven`] gives the launch its own.
    pub(crate) fn rebind(&mut self, plan: &KernelPlan, profiled: bool) {
        self.dense_cache.clear();
        self.dense_cache.resize(plan.dense_consts.len(), None);
        self.local_allocs.clear();
        self.local_allocs.resize(plan.local_sites as usize, None);
        self.profile = profiled.then(|| vec![0; plan.code.len() + 1].into());
        self.limits = None;
    }

    /// Attach the launch-instantiated proven-site bitset: the sites
    /// whose bounds check [`crate::memory::Buf`] skips — so it must come
    /// from [`crate::verify::PlanFacts::instantiate`] for this launch.
    /// Launches that share a bitset share the one `Arc`, so this takes a
    /// reference only when it is another one.
    pub(crate) fn set_proven(&mut self, proven: &std::sync::Arc<[u64]>) {
        if !std::sync::Arc::ptr_eq(&self.proven, proven) {
            self.proven = proven.clone();
        }
    }

    /// Whether memory site `site` was proven in-bounds for this launch.
    #[inline(always)]
    fn site_proven(&self, site: u32) -> bool {
        let w = self.proven.get((site >> 6) as usize).copied().unwrap_or(0);
        (w >> (site & 63)) & 1 != 0
    }

    /// `fault` at `site` as the launch reports it: under audit, a fault
    /// where the prover saw none is the audit's finding, not the kernel's.
    #[cold]
    fn fault_at(&self, site: u32, fault: MemFault) -> SimError {
        if self.audit && self.site_proven(site) {
            return SimError::msg(format!(
                "proof audit: site {site} is proven in bounds, but: {fault}"
            ));
        }
        fault.into()
    }

    /// Attach an execution-limit meter: subsequent runs through this
    /// context charge every instruction's weight against it.
    pub(crate) fn set_meter(&mut self, meter: crate::limits::OpMeter) {
        self.limits = Some(Box::new(meter));
    }

    /// The execution counts accumulated so far, if this context was
    /// bound `profiled`: how many lanes executed the instruction
    /// at pc `i`, then — one slot past the last pc — how many dispatches
    /// did it. Counts are plain sums, so per-worker buffers merge by
    /// element-wise addition in any order.
    pub fn take_profile(&mut self) -> Option<Box<[u64]>> {
        self.profile.take()
    }

    /// Reset work-group-shared state (call between work-groups). Also the
    /// meter's settle point: unspent op-budget grant returns to the
    /// launch's shared budget.
    pub fn next_work_group(&mut self) {
        self.local_allocs.iter_mut().for_each(|s| *s = None);
        if let Some(m) = self.limits.as_deref_mut() {
            m.settle();
        }
    }
}

/// One sub-group's storage: every register and visit counter once per
/// lane, and where its lanes are. Register `r` is, for lane `l` of a file
/// `width` lanes wide, entry `r * width + l`.
#[derive(Default)]
struct LaneFile {
    /// Lanes per register: the cost model's sub-group size, clipped by
    /// the work-group.
    width: usize,
    regs: Vec<Slot>,
    /// Payloads of the registers tagged [`Slot::Vec`], [`Slot::MemRef`]
    /// and [`Slot::NdRange`], at the register's entry. A bank grows to
    /// the highest entry written and is never cleared: a payload is
    /// reachable only through a tag, written after it.
    vecs: Vec<VecVal>,
    memrefs: Vec<MemRefVal>,
    nd_ranges: Vec<(VecVal, VecVal)>,
    /// Per-site visit counters feeding the coalescing log (same instance
    /// numbering as the tree-walk interpreter's per-op visits), entry
    /// `site * width + l`.
    visits: Vec<u32>,
    /// The launch geometry and the work-group: with a lane's local linear
    /// id, `sub * width + lane`, what its item queries answer.
    nd: NdRangeSpec,
    group: [i64; 3],
}

/// One register of a [`LaneFile`] across its lanes: the cells, and where
/// they start in the file (and the payloads in the banks).
#[derive(Clone, Copy)]
struct Row<'a> {
    cells: &'a [Cell<Slot>],
    at: usize,
}

/// A lane group: the work-items of one sub-group that share a `pc`, and so
/// execute each instruction in one dispatch.
#[derive(Default)]
struct LaneGroup {
    /// The sub-group the lanes belong to — which [`LaneFile`] and which
    /// coalescing logs are theirs.
    sub: u32,
    /// The lanes, ascending.
    lanes: Vec<u32>,
    /// Where the lanes go on.
    pc: u32,
    /// Dispatches so far (the runaway-loop guard).
    steps: u64,
    /// Stopped at a barrier (not finished, not emptied by a fault).
    at_barrier: bool,
}

/// The `(sub-group, lane)` that failed first in item order among those
/// that failed this round, and its error.
type Fault = Option<((u32, u32), SimError)>;

/// Record `error` of the lane `at` if no earlier item failed.
#[cold]
fn note_fault(first: &mut Fault, at: (u32, u32), error: SimError) {
    if first.as_ref().is_none_or(|f| at < f.0) {
        *first = Some((at, error));
    }
}

/// One work-group's resumable execution state over a [`KernelPlan`]: a
/// register file per sub-group and the lane groups over them. A worker
/// keeps one across work-groups and launches and re-binds it
/// (`reset`), so the steady state allocates nothing per
/// work-group, split, merge or round.
#[derive(Default)]
pub struct PlanWorkGroup {
    files: Vec<LaneFile>,
    pool: GroupPool,
    /// The launch the files hold bound, if its binding completed
    /// ([`Self::reset`]).
    bound: Option<Binding>,
}

/// A bound launch, by identity: the plan, the argument list (address and
/// length), the sub-group width and the sub-group count. A worker's state
/// lives within one graph run, whose plans and argument lists outlive it,
/// so an address names one plan or list throughout.
type Binding = (*const KernelPlan, *const RtValue, usize, usize, usize);

/// The sub-group width and count of a work-group of `items` work-items.
fn sub_groups(items: usize, subgroup_size: usize) -> (usize, usize) {
    let width = subgroup_size.min(items);
    (width, items.div_ceil(width))
}

/// A work-group's lane groups, and the first fault of the round.
#[derive(Default)]
struct GroupPool {
    /// The first `live` are this work-group's; the rest are spares whose
    /// vectors keep their storage.
    groups: Vec<LaneGroup>,
    live: usize,
    fault: Fault,
}

/// An empty vector of a work-group's state with 2 KB of room. These are
/// short — a group's lanes, a file's visit counters — and the
/// allocator would keep their storage, once freed at the end of a graph
/// run, in its per-thread cache: uncoalesced chunks in the middle of the
/// heap the launching thread builds its next module in (`launch_dag`'s
/// `peak_rss_mb` read 25 MB instead of 20 on five runs of eight). Above
/// the cache's size limit freed storage rejoins the heap around it.
fn roomy<T>() -> Vec<T> {
    Vec::with_capacity(2048 / std::mem::size_of::<T>())
}

/// The first spare group of `groups`, `live` of which are in use, its lane
/// list emptied.
fn spare(groups: &mut Vec<LaneGroup>, live: usize) -> &mut LaneGroup {
    if live == groups.len() {
        groups.push(LaneGroup {
            lanes: roomy(),
            ..LaneGroup::default()
        });
    }
    groups[live].lanes.clear();
    &mut groups[live]
}

impl PlanWorkGroup {
    /// Rebind to work-group `group` of a launch of the plan's kernel over
    /// `nd`: bind the launch — clear the register files and write the
    /// parameters and the plan's bound constants into every lane — when
    /// the files hold another, then enter the group. `plan` is verified
    /// ([`crate::verify::PlanFacts`]), so what a work-group (finished,
    /// suspended at a barrier or failed) leaves in its registers no later
    /// one reads: every register a work-item reads it has written first,
    /// or the launch bound and nothing writes. `subgroup_size` is the
    /// cost model's.
    pub(crate) fn reset(
        &mut self,
        plan: &KernelPlan,
        args: &[RtValue],
        nd: NdRangeSpec,
        group: [i64; 3],
        subgroup_size: usize,
    ) {
        let (width, subs) = sub_groups(nd.group_size(), subgroup_size);
        let launch = (plan as *const _, args.as_ptr(), args.len(), width, subs);
        if self.bound != Some(launch) {
            self.bind(plan, args, width, subs);
            self.bound = Some(launch);
        }
        self.enter(nd, group, width, subs);
    }

    /// Bind a launch to the first `subs` register files, `width` lanes
    /// each: clear them, then write into every lane what the launch fixes
    /// and no instruction writes — `args`, which the launch checked
    /// against the parameters' classes (`MemoryPool::check_args`), to the
    /// parameters, each lane's item to the item parameter, and the plan's
    /// bound constants.
    fn bind(&mut self, plan: &KernelPlan, args: &[RtValue], width: usize, subs: usize) {
        if self.files.capacity() == 0 {
            (self.files, self.pool.groups) = (roomy(), roomy());
        }
        if self.files.len() < subs {
            self.files.resize_with(subs, || LaneFile {
                visits: roomy(),
                ..LaneFile::default()
            });
        }
        let entries = plan.reg_count as usize * width;
        for file in &mut self.files[..subs] {
            file.width = width;
            file.regs.clear();
            file.regs.resize(entries, Slot::Unit);
            // One allocation per bank, made next to the registers': banks
            // grown entry by entry leave the heap in pieces.
            file.vecs.reserve(entries.saturating_sub(file.vecs.len()));
            file.memrefs
                .reserve(entries.saturating_sub(file.memrefs.len()));
            file.visits.clear();
            file.visits.resize(plan.mem_sites as usize * width, 0);
            for (i, (&(p, _), a)) in plan.params.iter().zip(args).enumerate() {
                for at in p as usize * width..(p as usize + 1) * width {
                    file.regs[at] = match *a {
                        RtValue::Vec(v) => {
                            put(&mut file.vecs, at, v);
                            Slot::Vec
                        }
                        RtValue::MemRef(v) => {
                            put(&mut file.memrefs, at, v);
                            Slot::MemRef
                        }
                        RtValue::NdRange(g, l) => {
                            put(&mut file.nd_ranges, at, (g, l));
                            Slot::NdRange
                        }
                        RtValue::Accessor(_) => Slot::Accessor(i as u32),
                        // A kernel sees one item, its own.
                        RtValue::Item => Slot::Item,
                        RtValue::Unit => Slot::Unit,
                        RtValue::Int(v) => Slot::Int(v),
                        RtValue::F32(v) => Slot::F32(v),
                        RtValue::F64(v) => Slot::F64(v),
                    };
                }
            }
            let bound = plan.consts.iter().copied();
            for (r, val) in plan.item.map(|r| (r, Slot::Item)).into_iter().chain(bound) {
                let row = r as usize * width;
                file.regs[row..row + width].fill(val);
            }
        }
    }

    /// Enter work-group `group` of the launch over `nd` the files hold
    /// bound: its position, zeroed visit counters, and one lane group per
    /// sub-group, all its lanes at pc 0.
    fn enter(&mut self, nd: NdRangeSpec, group: [i64; 3], width: usize, subs: usize) {
        let items = nd.group_size();
        (self.pool.live, self.pool.fault) = (0, None);
        for (sub, file) in self.files[..subs].iter_mut().enumerate() {
            (file.nd, file.group) = (nd, group);
            file.visits.fill(0);
            let g = spare(&mut self.pool.groups, self.pool.live);
            g.lanes.extend(0..width.min(items - sub * width) as u32);
            (g.sub, g.pc, g.steps) = (sub as u32, 0, 0);
            self.pool.live += 1;
        }
    }

    /// One co-operative round: run every lane group until its next
    /// barrier or completion — the groups it splits off too — then merge
    /// the groups that wait at one barrier. Returns how many work-items
    /// wait at a barrier. `args` are the launch's arguments, the ones
    /// `reset` bound.
    ///
    /// A lane that faults leaves its group and takes the lanes after it
    /// in item order — the rest of its sub-group and every later one —
    /// with it; the lanes before it run on, and the round fails with the
    /// error of the first lane in item order that faulted: the one serial
    /// item order reports.
    pub fn round(
        &mut self,
        plan: &KernelPlan,
        args: &[RtValue],
        ctx: &mut PlanExecCtx<'_, '_>,
        pctx: &mut PlanCtx,
    ) -> Result<usize, SimError> {
        let first = self.pool.live;
        for gi in 0..first {
            let gi = if pctx.audit { first - 1 - gi } else { gi };
            self.run(gi, plan, args, ctx, pctx);
        }
        let mut gi = first;
        while gi < self.pool.live {
            self.run(gi, plan, args, ctx, pctx);
            gi += 1;
        }
        if let Some((_, error)) = self.pool.fault.take() {
            return Err(error);
        }
        // Keep the groups that wait at a barrier; merge those of one
        // sub-group that wait at the same one the same way.
        let (mut barriers, mut gi) = (0, 0);
        while gi < self.pool.live {
            if self.pool.groups[gi].at_barrier {
                barriers += self.pool.groups[gi].lanes.len();
                gi += 1;
            } else {
                self.pool.live -= 1;
                self.pool.groups.swap(gi, self.pool.live);
            }
        }
        for gi in 0..self.pool.live {
            let mut other = gi + 1;
            while other < self.pool.live {
                let (head, rest) = self.pool.groups.split_at_mut(other);
                let (into, g) = (&mut head[gi], &mut rest[0]);
                if (g.sub, g.pc) == (into.sub, into.pc) {
                    into.lanes.extend_from_slice(&g.lanes);
                    into.lanes.sort_unstable();
                    into.steps = into.steps.max(g.steps);
                    self.pool.live -= 1;
                    self.pool.groups.swap(other, self.pool.live);
                } else {
                    other += 1;
                }
            }
        }
        Ok(barriers)
    }

    /// Run group `gi` until it stops, less the lanes a fault recorded
    /// this round has taken with it.
    fn run(
        &mut self,
        gi: usize,
        plan: &KernelPlan,
        args: &[RtValue],
        ctx: &mut PlanExecCtx<'_, '_>,
        pctx: &mut PlanCtx,
    ) {
        let mut g = std::mem::take(&mut self.pool.groups[gi]);
        if let Some((first, _)) = &self.pool.fault {
            g.lanes.retain(|&l| (g.sub, l) < *first);
        }
        let (file, pool) = (&mut self.files[g.sub as usize], &mut self.pool);
        let stop = run_impl(&mut g, file, pool, plan, args, ctx, pctx);
        g.at_barrier = stop == Stop::Barrier;
        self.pool.groups[gi] = g;
    }
}

/// Run the lanes of `g` — a group of `file`'s sub-group, taken out of
/// `pool` — until their next barrier or completion, or until none is left.
///
/// An arm reads what it needs of its instruction, and turns registers into
/// rows of the file, before its lane loop: the loop's stores could alias
/// either as far as the compiler knows, and would have it read both again
/// per lane.
fn run_impl(
    g: &mut LaneGroup,
    file: &mut LaneFile,
    pool: &mut GroupPool,
    plan: &KernelPlan,
    args: &[RtValue],
    ctx: &mut PlanExecCtx<'_, '_>,
    pctx: &mut PlanCtx,
) -> Stop {
    let (sub, lanes, resume, steps) = (g.sub, &mut g.lanes, &mut g.pc, &mut g.steps);
    let (groups, live, fault) = (&mut pool.groups, &mut pool.live, &mut pool.fault);
    let (vecs, memrefs, nd_ranges) = (&mut file.vecs, &mut file.memrefs, &mut file.nd_ranges);
    let (w, visits) = (file.width, &mut file.visits[..]);
    // The local linear id of the sub-group's lane 0.
    let (nd, group, first) = (file.nd, file.group, (sub as usize * w) as i64);
    // The registers, as cells — an arm holds the rows of its operands side
    // by side, whichever of them are one register.
    let cells = Cell::from_mut(&mut file.regs[..]).as_slice_of_cells();
    let (code, mut pc) = (&plan.code[..], *resume as usize);
    // The lane a step body runs for.
    let mut lane: usize;

    // Run `$body` — a step body, which may fail — once per lane, in lane
    // order. A lane that fails leaves the group with the lanes after it;
    // the lanes before it have completed the instruction.
    macro_rules! each_lane {
        ($body:block) => {{
            let mut left = usize::MAX;
            for (pos, &l) in lanes.iter().enumerate() {
                lane = l as usize;
                #[allow(clippy::redundant_closure_call)]
                let done = (|| -> Result<(), SimError> {
                    $body;
                    Ok(())
                })();
                if let Err(e) = done {
                    note_fault(fault, (sub, l), e);
                    left = pos;
                    break;
                }
            }
            if left != usize::MAX {
                lanes.truncate(left);
            }
        }};
    }
    // The arm of an instruction that gives its `$dst` the value of `$value`
    // — a step body over the rows `$src`, the fields `$field` of the
    // instruction read beforehand — and counts `$ops` arithmetic ops.
    macro_rules! alu {
        ($($ops:literal;)? $dst:ident($($src:ident),* $(; $($field:ident),+)?) => $value:expr) => {{
            $(ctx.stats.arith_ops += $ops * lanes.len() as u64;)?
            $($(let $field = *$field;)+)?
            let $dst = rows!($dst);
            $(let $src = rows!($src);)*
            each_lane!({
                let value = $value;
                reg!($dst).set(value)
            })
        }};
    }
    // The whole group fails with `$e`.
    macro_rules! fail {
        ($e:expr) => {{
            note_fault(fault, (sub, lanes[0]), $e);
            lanes.clear();
            return Stop::Finished;
        }};
    }
    // The rows of the registers `$r`: a row's entry for the lane at hand
    // is the lane's register.
    macro_rules! rows {
        ($($r:expr),+) => {
            ($({
                let at = *$r as usize * w;
                Row { cells: &cells[at..at + w], at }
            }),+)
        };
    }
    macro_rules! reg {
        ($row:expr) => {
            $row.cells[lane]
        };
    }
    // An operand of the class the verifier proved its register holds:
    // a verified plan launched on checked arguments finds no other there
    // (`Slot::mistyped`).
    macro_rules! int {
        ($row:expr) => {
            reg!($row).get().int()
        };
    }
    // The first `$n` of the rows `$rows` as integers, in order, then 0s:
    // constant subscripts, so the three stay in registers.
    macro_rules! ints {
        ($rows:expr, $n:expr) => {{
            let n = $n as usize;
            assert!(n <= 3, "at most 3 dimensions");
            [
                if n > 0 { int!($rows[0]) } else { 0 },
                if n > 1 { int!($rows[1]) } else { 0 },
                if n > 2 { int!($rows[2]) } else { 0 },
            ]
        }};
    }
    macro_rules! flt {
        ($row:expr) => {
            reg!($row).get().float()
        };
    }
    // An aggregate operand or result: the tag in the slot, the payload
    // in the tag's bank (for an accessor, in the launch's arguments).
    macro_rules! payload {
        ($tag:ident in $bank:ident, $row:expr) => {
            match reg!($row).get() {
                Slot::$tag => $bank[$row.at + lane],
                _ => Slot::mistyped(),
            }
        };
    }
    macro_rules! put {
        ($tag:ident in $bank:ident, $row:expr, $v:expr) => {{
            let v = $v;
            put($bank, $row.at + lane, v);
            reg!($row).set(Slot::$tag);
        }};
    }
    macro_rules! accessor_of {
        ($row:expr) => {
            match reg!($row).get() {
                // Bound from an accessor argument, by its index.
                Slot::Accessor(i) => args[i as usize].as_accessor().expect("an accessor"),
                _ => Slot::mistyped(),
            }
        };
    }
    macro_rules! dim {
        ($dim:expr) => {
            match $dim {
                DimSrc::Const(d) => d as usize,
                DimSrc::Reg(r) => {
                    let d = int!(rows!(&r));
                    if !(0..3).contains(&d) {
                        return Err(SimError::msg(format!("dimension {d} out of range")));
                    }
                    d as usize
                }
            }
        };
    }
    // Whole-register move between entries: the destination gets its own
    // copy of an out-of-line payload, so overwriting the source later does
    // not reach it.
    macro_rules! mov {
        ($dst:expr, $src:expr) => {{
            let (dst, src) = ($dst, $src);
            let s = cells[src].get();
            match s {
                Slot::Vec => put(vecs, dst, vecs[src]),
                Slot::MemRef => put(memrefs, dst, memrefs[src]),
                Slot::NdRange => put(nd_ranges, dst, nd_ranges[src]),
                _ => {}
            }
            cells[dst].set(s);
        }};
    }
    // Steps: the body of every primitive the superinstruction contains,
    // written once and expanded by the primitive's own arm and by the
    // window's. A step runs for one lane: it takes its operands as values
    // (or as the row to read them from, where the read can fail) and
    // yields its result as a value; which register the result lands in, if
    // any, is the arm's business. Errors come in the order the steps are
    // expanded, so the window, naming its members in order, replays them
    // exactly; the `arith_ops` they count are the arm's, once for all
    // lanes.
    macro_rules! vec_ctor {
        ($comps:expr, $rank:expr) => {{
            VecVal {
                data: ints!($comps, $rank),
                rank: $rank as u32,
            }
        }};
    }
    macro_rules! subscript_by {
        ($acc:expr, $id:expr) => {{
            let a = accessor_of!($acc);
            let id: VecVal = $id;
            MemRefVal {
                mem: a.mem,
                offset: a.linearize(&id.data[..id.rank as usize]),
                shape: [-1, 1, 1],
                rank: 1,
                space: if a.constant {
                    Space::Constant
                } else {
                    Space::Global
                },
            }
        }};
    }
    // What a dispatch finds once for all lanes of access site `$site`: its
    // coalescing log (the lanes that share an instance share its entry),
    // whether its bounds check is elided, and the site.
    macro_rules! site {
        ($at:ident, $site:expr) => {
            let site = $site;
            let elide = pctx.site_proven(site) && !pctx.audit;
            let mut $at = (ctx.coalescer.site(site, sub), elide, site);
        };
    }
    // One access step: the buffer of `$mr` and the address of
    // `$mr[$idx[..$rank]]` in it, with the access counted (the tree
    // walk's instance numbering, keyed by plan site). The bounds check is
    // the `Buf`'s: elided per site where the verifier's proof was
    // instantiated for this launch; every other site keeps the exact
    // out-of-bounds fault and position.
    macro_rules! access {
        ($mr:expr, $idx:expr, $rank:expr, $at:ident) => {{
            let indices = ints!($idx, $rank);
            let addr = $mr.linearize(&indices[..$rank as usize]);
            let buf = ctx.pool.resolve($mr.mem)?;
            let bytes = buf.dtype().bytes();
            let visits = &mut visits[$at.2 as usize * w + lane];
            $at.0.event(&mut ctx.stats, visits, &$mr, addr, bytes);
            (buf, addr)
        }};
    }
    macro_rules! load_at {
        ($mr:expr, $idx:expr, $rank:expr, $at:ident) => {{
            let mr: MemRefVal = $mr;
            let (buf, addr) = access!(mr, $idx, $rank, $at);
            let loaded = buf.load_at($at.1, addr);
            Slot::from(loaded.map_err(|f| pctx.fault_at($at.2, f))?)
        }};
    }
    // The lanes for which `$jumps` holds go on at `$target`, the others at
    // the next instruction. Lanes that disagree split the group in two
    // over the same register file: this one keeps the lanes that fall
    // through (under audit, the ones that jump), the other runs later in
    // the round.
    macro_rules! branch {
        ($target:expr, $jumps:block) => {{
            let target = $target;
            let other = spare(groups, *live);
            each_lane!({
                if $jumps {
                    other.lanes.push(lane as u32);
                }
            });
            if other.lanes.len() == lanes.len() {
                pc = target as usize;
            } else if !other.lanes.is_empty() {
                let mut jump = other.lanes.iter().peekable();
                lanes.retain(|l| jump.next_if_eq(&l).is_none());
                (other.sub, other.pc, other.steps) = (sub, target, *steps);
                if pctx.audit {
                    std::mem::swap(lanes, &mut other.lanes);
                    other.pc = pc as u32;
                    pc = target as usize;
                }
                *live += 1;
            }
        }};
    }

    loop {
        let n = lanes.len() as u64;
        if n == 0 {
            return Stop::Finished;
        }
        *steps += 1;
        if *steps > MAX_STEPS {
            fail!(KernelFault::StepBudgetExceeded.into());
        }
        let instr = &code[pc];
        // Profiling and metering are a test per dispatch, not per lane.
        if let Some(counts) = &mut pctx.profile {
            counts[pc] += n;
            *counts.last_mut().expect("the dispatch count") += 1;
        }
        if let Some(meter) = pctx.limits.as_deref_mut() {
            if let Err(e) = meter.charge(instr.op_weight() * n) {
                fail!(e);
            }
        }
        pc += 1;
        match instr {
            Instr::ConstDense { dst, idx } => {
                let dst = rows!(dst);
                each_lane!({
                    put!(MemRef in memrefs, dst, materialize_dense(plan, ctx, pctx, *idx)?)
                });
            }
            Instr::Copy { dst, src } => {
                let (dst, src) = rows!(dst, src);
                each_lane!({ mov!(dst.at + lane, src.at + lane) });
            }
            Instr::BinInt { op, dst, l, r } => alu!(1; dst(l, r; op) => {
                let l = int!(l);
                let r = int!(r);
                Slot::Int(match op {
                    IntBin::Add => l.wrapping_add(r),
                    IntBin::Sub => l.wrapping_sub(r),
                    IntBin::Mul => l.wrapping_mul(r),
                    IntBin::DivS if r == 0 => return Err(KernelFault::DivisionByZero.into()),
                    IntBin::DivS => l.wrapping_div(r),
                    IntBin::RemS if r == 0 => return Err(KernelFault::RemainderByZero.into()),
                    IntBin::RemS => l.wrapping_rem(r),
                    IntBin::And => l & r,
                    IntBin::Or => l | r,
                    IntBin::Xor => l ^ r,
                    IntBin::MinS => l.min(r),
                    IntBin::MaxS => l.max(r),
                })
            }),
            Instr::BinFloat {
                op,
                dst,
                l,
                r,
                f32_out,
            } => alu!(1; dst(l, r; op, f32_out) => {
                let l = flt!(l);
                let r = flt!(r);
                let out = match op {
                    FloatBin::Add => l + r,
                    FloatBin::Sub => l - r,
                    FloatBin::Mul => l * r,
                    FloatBin::Div => l / r,
                    FloatBin::Min => l.min(r),
                    FloatBin::Max => l.max(r),
                };
                if f32_out { Slot::F32(out as f32) } else { Slot::F64(out) }
            }),
            Instr::NegF { dst, x } => alu!(1; dst(x) => match reg!(x).get() {
                Slot::F32(v) => Slot::F32(-v),
                Slot::F64(v) => Slot::F64(-v),
                _ => Slot::mistyped(),
            }),
            Instr::CmpI { pred, dst, l, r } => alu!(1; dst(l, r; pred) => {
                let l = int!(l);
                let r = int!(r);
                Slot::Int(pred.eval_int(l, r) as i64)
            }),
            Instr::CmpF { pred, dst, l, r } => alu!(1; dst(l, r; pred) => {
                let l = flt!(l);
                let r = flt!(r);
                Slot::Int(pred.eval_float(l, r) as i64)
            }),
            Instr::Select { dst, c, t, f } => {
                ctx.stats.arith_ops += n;
                let (dst, c, t, f) = rows!(dst, c, t, f);
                each_lane!({
                    let src = if int!(c) != 0 { t } else { f };
                    mov!(dst.at + lane, src.at + lane);
                });
            }
            Instr::SiToFp { dst, x, f32_out } => alu!(1; dst(x; f32_out) => {
                let v = int!(x);
                if f32_out { Slot::F32(v as f32) } else { Slot::F64(v as f64) }
            }),
            Instr::FpToSi { dst, x } => alu!(1; dst(x) => Slot::Int(flt!(x) as i64)),
            Instr::TruncF { dst, x } => alu!(dst(x) => Slot::F32(flt!(x) as f32)),
            Instr::ExtF { dst, x } => alu!(dst(x) => Slot::F64(flt!(x))),
            Instr::Math {
                op,
                dst,
                x,
                y,
                f32_out,
            } => alu!(4; dst(x, y; op, f32_out) => { // transcendental ops are pricier
                let xv = flt!(x);
                let out = match op {
                    MathOp::Sqrt => xv.sqrt(),
                    MathOp::Exp => xv.exp(),
                    MathOp::Log => xv.ln(),
                    MathOp::Absf => xv.abs(),
                    MathOp::Sin => xv.sin(),
                    MathOp::Cos => xv.cos(),
                    MathOp::Floor => xv.floor(),
                    MathOp::Rsqrt => 1.0 / xv.sqrt(),
                    MathOp::Powf => xv.powf(flt!(y)),
                };
                if f32_out { Slot::F32(out as f32) } else { Slot::F64(out) }
            }),
            Instr::Alloca {
                dst,
                elem,
                shape,
                rank,
                len,
            } => {
                let dst = rows!(dst);
                each_lane!({
                    let mem = ctx.pool.alloc_zeroed(elem, *len)?;
                    let mr = MemRefVal {
                        mem,
                        offset: 0,
                        shape: *shape,
                        rank: *rank,
                        space: Space::Private,
                    };
                    put!(MemRef in memrefs, dst, mr);
                });
            }
            Instr::LocalAlloca {
                dst,
                site,
                elem,
                shape,
                rank,
                len,
            } => {
                let dst = rows!(dst);
                each_lane!({
                    let mr = match pctx.local_allocs[*site as usize] {
                        Some(existing) => existing,
                        None => {
                            let mem = ctx.pool.alloc_zeroed(elem, *len)?;
                            let mr = MemRefVal {
                                mem,
                                offset: 0,
                                shape: *shape,
                                rank: *rank,
                                space: Space::Local,
                            };
                            pctx.local_allocs[*site as usize] = Some(mr);
                            mr
                        }
                    };
                    put!(MemRef in memrefs, dst, mr);
                });
            }
            Instr::Load {
                dst,
                mem,
                idx,
                rank,
                site,
            } => {
                site!(at, *site);
                let (rank, idx, (dst, mem)) = (*rank, idx.map(|r| rows!(&r)), rows!(dst, mem));
                each_lane!({
                    let mr = payload!(MemRef in memrefs, mem);
                    reg!(dst).set(load_at!(mr, idx, rank, at));
                });
            }
            Instr::Store {
                val,
                mem,
                idx,
                rank,
                site,
            } => {
                site!(at, *site);
                let (rank, idx, (val, mem)) = (*rank, idx.map(|r| rows!(&r)), rows!(val, mem));
                each_lane!({
                    // A scalar of the view's element class, as the verifier
                    // proved.
                    let v = match reg!(val).get() {
                        Slot::Int(v) => RtValue::Int(v),
                        Slot::F32(v) => RtValue::F32(v),
                        Slot::F64(v) => RtValue::F64(v),
                        _ => Slot::mistyped(),
                    };
                    let mr = payload!(MemRef in memrefs, mem);
                    let (buf, addr) = access!(mr, idx, rank, at);
                    buf.store_at(at.1, addr, v)
                        .map_err(|f| pctx.fault_at(at.2, f))?;
                });
            }
            Instr::VecCtor { dst, comps, rank } => {
                ctx.stats.arith_ops += n;
                let (rank, comps, dst) = (*rank, comps.map(|r| rows!(&r)), rows!(dst));
                each_lane!({ put!(Vec in vecs, dst, vec_ctor!(comps, rank)) });
            }
            Instr::NdRangeCtor { dst, g, l } => {
                let (dst, g, l) = rows!(dst, g, l);
                each_lane!({
                    let g = payload!(Vec in vecs, g);
                    let l = payload!(Vec in vecs, l);
                    put!(NdRange in nd_ranges, dst, (g, l));
                });
            }
            Instr::VecGet { dst, v, dim } => alu!(1; dst(v; dim) => {
                let v = payload!(Vec in vecs, v);
                Slot::Int(v.data[dim!(dim)])
            }),
            Instr::RangeSize { dst, v } => alu!(1; dst(v) => {
                let v = payload!(Vec in vecs, v);
                Slot::Int(v.data[..v.rank as usize].iter().product())
            }),
            Instr::ItemQuery { dst, q, dim } => alu!(1; dst(; q, dim) => {
                let d = dim!(dim);
                Slot::Int(nd.item_query(group, first + lane as i64, q, d))
            }),
            Instr::GlobalLinearId { dst } => {
                alu!(1; dst() => Slot::Int(nd.global_linear_id(group, first + lane as i64)))
            }
            Instr::LocalLinearId { dst } => alu!(1; dst() => Slot::Int(first + lane as i64)),
            Instr::ItemSelf { dst } => alu!(dst() => Slot::Item),
            Instr::AccSubscript { dst, acc, id } => {
                ctx.stats.arith_ops += n;
                let (dst, acc, id) = rows!(dst, acc, id);
                each_lane!({
                    let view = subscript_by!(acc, payload!(Vec in vecs, id));
                    put!(MemRef in memrefs, dst, view);
                });
            }
            Instr::AccRange { dst, acc, dim } => alu!(1; dst(acc; dim) => {
                let acc = accessor_of!(acc);
                Slot::Int(acc.range[dim!(dim)])
            }),
            Instr::AccBase { dst, acc } => alu!(1; dst(acc) => {
                let acc = accessor_of!(acc);
                Slot::Int(((acc.mem.0 as i64) << 32) | acc.linearize(&[0, 0, 0]))
            }),
            Instr::Barrier => {
                ctx.stats.barriers += n;
                *resume = pc as u32;
                return Stop::Barrier;
            }
            Instr::Jump { target } => pc = *target as usize,
            Instr::BranchIfFalse { cond, target } => {
                ctx.stats.arith_ops += n;
                let cond = rows!(cond);
                branch!(*target, { int!(cond) == 0 });
            }
            Instr::ForEnter {
                lb,
                ub,
                step,
                iv,
                exit,
            } => {
                ctx.stats.arith_ops += n;
                let (lb, ub, step, iv) = rows!(lb, ub, step, iv);
                branch!(*exit, {
                    let lb = int!(lb);
                    let ub = int!(ub);
                    let step = int!(step);
                    if step <= 0 {
                        return Err(KernelFault::NonPositiveLoopStep.into());
                    }
                    reg!(iv).set(Slot::Int(lb));
                    lb >= ub
                });
            }
            Instr::ForNext { iv, step, ub, body } => {
                let (iv, step, ub) = rows!(iv, step, ub);
                branch!(*body, {
                    let cur = int!(iv);
                    let step = int!(step);
                    let ub = int!(ub);
                    // Past `i64::MAX` is past `ub`: overflow ends the loop.
                    let next = cur.checked_add(step).filter(|&next| next < ub);
                    if let Some(next) = next {
                        reg!(iv).set(Slot::Int(next));
                    }
                    next.is_some()
                });
            }
            // The superinstruction: its members' steps in window order,
            // lane by lane, each member's result passed straight to the
            // next step.
            Instr::AccLoadIndexed {
                dst,
                acc,
                comps,
                comps_rank,
                idx,
                rank,
                site,
            } => {
                ctx.stats.arith_ops += 2 * n;
                site!(at, *site);
                let (comps_rank, comps, rank, idx) = (
                    *comps_rank,
                    comps.map(|r| rows!(&r)),
                    *rank,
                    idx.map(|r| rows!(&r)),
                );
                let (dst, acc) = rows!(dst, acc);
                each_lane!({
                    let id = vec_ctor!(comps, comps_rank);
                    let view = subscript_by!(acc, id);
                    reg!(dst).set(load_at!(view, idx, rank, at));
                });
            }
            Instr::Return => return Stop::Finished,
        }
    }
}

fn materialize_dense(
    plan: &KernelPlan,
    ctx: &mut PlanExecCtx<'_, '_>,
    pctx: &mut PlanCtx,
    idx: u32,
) -> Result<MemRefVal, SimError> {
    if let Some(existing) = pctx.dense_cache[idx as usize] {
        return Ok(existing);
    }
    let c = &plan.dense_consts[idx as usize];
    let mem = ctx.pool.alloc(c.data.clone())?;
    let mr = MemRefVal {
        mem,
        offset: 0,
        shape: c.shape,
        rank: c.rank,
        space: Space::Constant,
    };
    pctx.dense_cache[idx as usize] = Some(mr);
    Ok(mr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemId;

    /// A worker's work-group state outlives launches: re-bound to a kernel
    /// with fewer registers it must show nothing of the aggregates the
    /// previous kernel left in its banks in the registers it binds — in
    /// any lane.
    #[test]
    fn reset_for_a_smaller_kernel_sees_no_stale_aggregate() {
        let kernel = |reg_count, params: Vec<u32>| KernelPlan {
            code: vec![Instr::Return],
            reg_count,
            params: params.into_iter().map(|p| (p, None)).collect(),
            item: None,
            consts: Vec::new(),
            dense_consts: Vec::new(),
            mem_sites: 0,
            local_sites: 0,
        };
        let nd = NdRangeSpec::d1(3, 3);
        let id = VecVal {
            data: [7, 8, 9],
            rank: 3,
        };
        let view = MemRefVal {
            mem: MemId(3),
            offset: 5,
            shape: [4, 1, 1],
            rank: 1,
            space: Space::Global,
        };
        let big = [
            RtValue::Vec(id),
            RtValue::MemRef(view),
            RtValue::NdRange(id, id),
        ];
        let mut wg = PlanWorkGroup::default();
        wg.reset(&kernel(6, vec![1, 3, 5]), &big, nd, [0; 3], 16);
        let row = |s| [s; 3];
        let expect = [
            row(Slot::Unit),
            row(Slot::Vec),
            row(Slot::Unit),
            row(Slot::MemRef),
            row(Slot::Unit),
            row(Slot::NdRange),
        ];
        let f = &wg.files[0];
        assert_eq!(f.regs, expect.concat());
        assert_eq!(
            (&f.vecs[3..6], &f.memrefs[9..12]),
            (&[id; 3][..], &[view; 3][..])
        );
        assert_eq!(f.nd_ranges[15..18], [(id, id); 3]);

        wg.reset(&kernel(2, vec![1]), &[RtValue::Int(4)], nd, [0; 3], 16);
        let mut expect = [row(Slot::Unit); 2];
        expect[1] = row(Slot::Int(4));
        assert_eq!(wg.files[0].regs, expect.concat());
    }
}
