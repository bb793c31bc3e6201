//! Program compilation + execution: ties the compiler flows, the runtime
//! state and the simulated device together.
//!
//! [`run`] works per distinct command group, not per submission: it
//! resolves each kernel name and reads its launch facts once per run,
//! and binds each distinct `(kernel, argument values)` once into an
//! argument list its launches share (the class key is
//! [`crate::hostgen`]'s `BindKey`, finer than the host IR's command-group
//! key because run-time scalars and USM pointers bind by value). The
//! device then looks each kernel up once per graph and instantiates its
//! proofs once per binding. A [`Ledger`] on the [`Program`] times each
//! phase of that path and counts the work exactly; the test-only
//! [`audit_facts_on_this_thread`] checks every launch against the facts
//! its kernel carries.

use crate::buffer::BufferId;
use crate::buffer::SyclRuntime;
use crate::hostgen::BindKey;
use crate::queue::{CgArg, HostOp, Queue};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sycl_mlir_core::{CompileOutcome, Flow, FlowKind};
use sycl_mlir_ir::{Attribute, FxHashMap, Module, OpId};
use sycl_mlir_sim::{
    AccessorVal, BatchLaunch, Device, Dtype, ExecStats, HostNode, Ledger, MemId, MemoryPool,
    RtValue, SharedPool, SimError,
};
use sycl_mlir_sycl::facts;

/// A compiled SYCL application (joint module + flow that produced it).
pub struct Program {
    /// The compiled joint module.
    pub module: Module,
    /// The flow that compiled it.
    pub flow: Flow,
    /// Pipeline diagnostics recorded during compilation.
    pub outcome: CompileOutcome,
    /// Where [`run`]'s launch path spends its time: `None` (the default)
    /// times nothing; a [`Ledger`] put here is added to by every run.
    pub ledger: Option<Ledger>,
    jit_done: HashSet<String>,
}

/// Compile the joint module under the given flow.
///
/// # Errors
///
/// Propagates pipeline failures (pass errors, verifier reports).
pub fn compile_program(kind: FlowKind, mut module: Module) -> Result<Program, String> {
    let flow = Flow::new(kind);
    let outcome = flow.compile(&mut module)?;
    Ok(Program {
        module,
        flow,
        outcome,
        ledger: None,
        jit_done: HashSet::new(),
    })
}

/// Execution record of one kernel launch.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Kernel name as submitted.
    pub kernel: String,
    /// Dynamic statistics of the launch, cycles charged.
    pub stats: ExecStats,
    /// Host-side launch overhead (reduced by dead-argument elimination).
    pub launch_cycles: f64,
    /// One-time JIT cost charged at this launch (AdaptiveCpp first run).
    pub jit_cycles: f64,
}

/// Execution record of a full queue.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// One record per command group, in submission order.
    pub kernel_runs: Vec<KernelRun>,
}

impl RunReport {
    /// Device + launch cycles — the quantity the paper's figures compare
    /// (after the warm-up run absorbed JIT costs, §VIII).
    pub fn measured_cycles(&self) -> f64 {
        self.kernel_runs
            .iter()
            .map(|k| k.stats.device_cycles + k.launch_cycles)
            .sum()
    }

    /// Including one-time JIT costs (what the discarded warm-up run pays).
    pub fn cold_cycles(&self) -> f64 {
        self.measured_cycles() + self.kernel_runs.iter().map(|k| k.jit_cycles).sum::<f64>()
    }

    /// Sum of the per-kernel statistics.
    pub fn total_stats(&self) -> ExecStats {
        let mut s = ExecStats::default();
        for k in &self.kernel_runs {
            s.add(&k.stats);
        }
        s
    }
}

/// Execute every command group of `queue` on `device`, reading/writing the
/// runtime's buffers.
///
/// The whole program is ONE launch graph: every command group — kernel
/// or host task — is a node, ordered by the queue's hazard edges
/// ([`Queue::dep_graph`]), and the graph is handed to
/// [`Device::launch_graph`]. The plan engine runs it out of order (a
/// launch starts the moment its own dependencies retire); the tree-walk
/// engine is the serial reference and runs the nodes in submission order.
/// Both produce bit-identical buffers, statistics and report tables; only
/// wall time differs.
///
/// Host tasks ([`crate::queue::HostOp`]) are first-class graph nodes
/// ([`HostNode`]): hazard-tracked and metered at a fixed weight like any
/// kernel launch — kernels with no hazard on a host task overlap it
/// freely.
///
/// # Errors
///
/// Fails on unresolved kernels, interpreter errors, or divergent barriers.
/// With several failing work-groups anywhere in the program, the error of
/// the lexicographically smallest `(submission, work-group)` position is
/// reported, identically under both engines and every thread count. Every
/// error — limit trips, kernel failures and host-task failures alike —
/// carries the **submission index** of the offending command group
/// (launch index and submission index coincide in the whole-program
/// graph); a wedged kernel program fails instead of hanging, and the
/// device stays usable for the next run.
///
/// With a [`Program::ledger`], the run adds its launch path's phases and
/// counts to it.
pub fn run(
    program: &mut Program,
    runtime: &mut SyclRuntime,
    queue: &Queue,
    device: &Device,
) -> Result<RunReport, SimError> {
    let mut ledger = program.ledger.take();
    let started = ledger.is_some().then(Instant::now);
    let report = run_ledgered(program, runtime, queue, device, ledger.as_mut());
    if let (Some(ledger), Some(t)) = (ledger.as_mut(), started) {
        ledger.total += t.elapsed();
    }
    program.ledger = ledger;
    report
}

/// A span of the [`Ledger`] that [`run`] times itself.
type Span = fn(&mut Ledger) -> &mut Duration;

fn run_ledgered(
    program: &mut Program,
    runtime: &mut SyclRuntime,
    queue: &Queue,
    device: &Device,
    mut ledger: Option<&mut Ledger>,
) -> Result<RunReport, SimError> {
    // The ledger's clock: a lap adds the time since the previous one to
    // the span it names (the device times its own spans).
    let mut last = ledger.is_some().then(Instant::now);
    let mut lap = |ledger: &mut Option<&mut Ledger>, span: Option<Span>| {
        if let (Some(ledger), Some(t)) = (ledger.as_deref_mut(), last.as_mut()) {
            let now = Instant::now();
            if let Some(span) = span {
                *span(ledger) += now - *t;
            }
            *t = now;
        }
    };
    let mut pool = MemoryPool::new();
    let (buf_mems, usm_mems) = runtime.upload_to_device(&mut pool);

    // Resolve and (for AdaptiveCpp) JIT-specialize every kernel in
    // **submission order**, before any launch. Specialization reads only
    // the module and the seeding command group's geometry/buffer ids —
    // never execution results — so hoisting it is unobservable; doing it
    // in submission order guarantees the same command group seeds a
    // kernel's one-shot specialization however the scheduler reorders
    // execution (a kernel name can appear at several dependency levels).
    // A name is looked up in the module once per run.
    let mut resolved: FxHashMap<&str, OpId> = FxHashMap::default();
    let mut kernels: Vec<Option<OpId>> = Vec::with_capacity(queue.groups.len());
    let mut jit_cycles_of: Vec<f64> = Vec::with_capacity(queue.groups.len());
    for cg in &queue.groups {
        if cg.host.is_some() {
            kernels.push(None);
            jit_cycles_of.push(0.0);
            continue;
        }
        let kernel = match resolved.get(cg.kernel.as_str()) {
            Some(&kernel) => kernel,
            None => {
                let kernel = resolve_kernel(&program.module, &cg.kernel).ok_or_else(|| {
                    SimError::msg(format!(
                        "kernel `{}` not found in the device module",
                        cg.kernel
                    ))
                })?;
                resolved.insert(&cg.kernel, kernel);
                kernel
            }
        };

        // AdaptiveCpp: JIT-specialize on first launch with runtime
        // context.
        let mut jit_cycles = 0.0;
        if program.flow.kind == FlowKind::AdaptiveCpp && !program.jit_done.contains(&cg.kernel) {
            let ids: Vec<i64> = cg
                .args
                .iter()
                .map(|a| match a {
                    CgArg::Acc { buffer, .. } => buffer.0 as i64,
                    _ => -1,
                })
                .collect();
            let rank = cg.nd.rank as usize;
            program
                .flow
                .jit_specialize(
                    &mut program.module,
                    kernel,
                    &cg.nd.global[..rank],
                    &cg.nd.local[..rank],
                    &ids,
                )
                .map_err(|e| SimError::msg(format!("JIT specialization failed: {e}")))?;
            program.jit_done.insert(cg.kernel.clone());
            jit_cycles = device.cost.jit_compile;
        }
        kernels.push(Some(kernel));
        jit_cycles_of.push(jit_cycles);
    }
    // A kernel's launch facts, read once per run, after every JIT
    // specialization above (they may have refreshed them).
    let launch_facts: FxHashMap<OpId, LaunchFacts> = (resolved.values())
        .map(|&k| (k, LaunchFacts::of(&program.module, k)))
        .collect();
    if audit_requested() {
        audit_host_facts(&program.module, runtime, queue, &kernels)?;
    }
    lap(&mut ledger, Some(|l| &mut l.bind));
    let dag = queue.dep_graph();
    lap(&mut ledger, Some(|l| &mut l.dep_graph));

    // One launch-graph node per command group. Launches that bind equal
    // arguments ([`BindKey`]) share one bound list; host nodes carry none
    // — their closures captured the buffer ids.
    let mut bound: FxHashMap<BindKey<'_>, Arc<[RtValue]>> = FxHashMap::default();
    let mut launches: Vec<BatchLaunch> = Vec::with_capacity(queue.groups.len());
    for (cg, kernel) in queue.groups.iter().zip(&kernels) {
        let Some(kernel) = *kernel else {
            let op = cg.host.expect("a command group is a kernel or a host task");
            launches.push(BatchLaunch::host_node(host_node_of(op, &buf_mems)));
            continue;
        };
        let key = BindKey {
            kernel,
            args: &cg.args,
        };
        let args = bound.entry(key).or_insert_with(|| {
            let const_args = &launch_facts[&kernel].const_args;
            bind_args(&cg.args, const_args, runtime, &buf_mems, &usm_mems)
        });
        launches.push(BatchLaunch::kernel(kernel, args.clone(), cg.nd));
    }
    if let Some(ledger) = ledger.as_deref_mut() {
        ledger.counts.launches += kernels.iter().flatten().count() as u64;
        ledger.counts.distinct_bindings += bound.len() as u64;
    }
    lap(&mut ledger, Some(|l| &mut l.bind));

    // Errors come back stamped by the device with the launch's index in
    // this graph — which IS the submission index.
    let stats = device.launch_graph_ledgered(
        &program.module,
        &launches,
        &dag,
        &mut pool,
        ledger.as_deref_mut(),
    )?;
    lap(&mut ledger, None);

    // Report rows in submission order (the graph's node order), so
    // downstream sums (f64 cycle totals) are bit-identical under both
    // engines and every thread count.
    let kernel_runs = (queue.groups.iter().zip(&kernels))
        .zip(stats.into_iter().zip(jit_cycles_of))
        .map(|((cg, kernel), (stats, jit_cycles))| match kernel {
            Some(kernel) => {
                // Launch overhead: DAE-marked arguments are not passed
                // (§VII-B).
                let passed = cg.args.len().saturating_sub(launch_facts[kernel].dead);
                let launch_cycles =
                    device.cost.launch_base + device.cost.launch_per_arg * passed as f64;
                KernelRun {
                    kernel: cg.kernel.clone(),
                    stats,
                    launch_cycles,
                    jit_cycles,
                }
            }
            // Host rows: zeroed stats and no launch overhead.
            None => KernelRun {
                kernel: cg.kernel.clone(),
                stats: ExecStats::default(),
                launch_cycles: 0.0,
                jit_cycles: 0.0,
            },
        })
        .collect();
    let report = RunReport { kernel_runs };
    lap(&mut ledger, Some(|l| &mut l.rows));
    runtime.download_from_device(&pool, &buf_mems, &usm_mems);
    lap(&mut ledger, Some(|l| &mut l.readback));
    Ok(report)
}

/// What binding and the launch cost read of a kernel's launch facts.
struct LaunchFacts {
    /// Arguments served from the constant cache.
    const_args: Vec<i64>,
    /// How many arguments dead-argument elimination removed.
    dead: usize,
}

impl LaunchFacts {
    fn of(m: &Module, kernel: OpId) -> LaunchFacts {
        LaunchFacts {
            const_args: facts::CONST_ARGS
                .get(m, kernel)
                .unwrap_or_default()
                .to_vec(),
            dead: facts::DEAD_ARGS.get(m, kernel).map_or(0, <[i64]>::len),
        }
    }
}

/// The device values of one launch's arguments.
fn bind_args(
    args: &[CgArg],
    const_args: &[i64],
    runtime: &SyclRuntime,
    buf_mems: &[MemId],
    usm_mems: &[MemId],
) -> Arc<[RtValue]> {
    (args.iter().enumerate())
        .map(|(i, a)| match a {
            CgArg::Acc { buffer, .. } => {
                let info = &runtime.buffers[buffer.0];
                RtValue::Accessor(AccessorVal {
                    mem: buf_mems[buffer.0],
                    range: info.range,
                    offset: [0; 3],
                    rank: info.rank,
                    constant: const_args.contains(&(i as i64)),
                })
            }
            CgArg::ScalarI64(v) | CgArg::RuntimeI64(v) => RtValue::Int(*v),
            CgArg::ScalarF64(v) | CgArg::RuntimeF64(v) => RtValue::F64(*v),
            CgArg::ScalarF32(v) => RtValue::F32(*v),
            CgArg::Usm { id, len } => RtValue::Accessor(AccessorVal {
                mem: usm_mems[id.0],
                range: [*len, 1, 1],
                offset: [0; 3],
                rank: 1,
                constant: false,
            }),
        })
        .collect()
}

thread_local! {
    /// Whether runs on this thread audit their host facts
    /// ([`audit_facts_on_this_thread`]).
    static AUDIT_FACTS: Cell<bool> = const { Cell::new(false) };
    /// How many facts the audit checked on this thread since the last
    /// [`audit_facts_on_this_thread`] call.
    static AUDITED_FACTS: Cell<u64> = const { Cell::new(0) };
}

/// Test-only, not a knob: [`run`]s on the calling thread from now on
/// check every kernel launch against the launch facts its kernel carries
/// ([`sycl_mlir_sycl::facts`]) before anything runs — not one launch per
/// binding class, every one:
///
/// * its nd-range equals the propagated global and local ranges;
/// * each accessor's range equals its propagated range, where one is
///   known;
/// * which of its accessors share a buffer is what the propagated buffer
///   ids say;
/// * no constant-array argument reads a buffer an earlier command group
///   wrote, or writes it itself;
/// * each scalar constant host-device propagation folded into the kernel
///   is the launch's scalar, compared as printed forms are
///   ([`Attribute::same_constant`]);
/// * the kernel's plan reads no register of a dead argument (the runtime
///   does not pass those).
///
/// A fact that does not hold fails the run with a `host-fact audit:`
/// error naming the launch. Returns how many facts — one per launch per
/// range, known accessor range, buffer id, constant array, folded scalar
/// and dead argument — the audit checked on this thread since the
/// previous call.
#[doc(hidden)]
pub fn audit_facts_on_this_thread(on: bool) -> u64 {
    AUDIT_FACTS.set(on);
    AUDITED_FACTS.replace(0)
}

fn audit_requested() -> bool {
    AUDIT_FACTS.get()
}

/// The audit [`audit_facts_on_this_thread`] switches on, over every kernel
/// launch of `queue` (`kernels` as `run` resolved them).
fn audit_host_facts(
    m: &Module,
    runtime: &SyclRuntime,
    queue: &Queue,
    kernels: &[Option<OpId>],
) -> Result<(), SimError> {
    // Per kernel: the argument registers its plan reads, decoded once.
    let mut read: FxHashMap<OpId, Option<Vec<bool>>> = FxHashMap::default();
    // Buffers some command group before the current one may write.
    let mut written: HashSet<BufferId> = HashSet::new();
    for (li, (cg, kernel)) in queue.groups.iter().zip(kernels).enumerate() {
        if let Some(kernel) = *kernel {
            let read = read.entry(kernel).or_insert_with(|| args_read(m, kernel));
            let checked =
                audit_launch(m, kernel, cg, runtime, &written, read.as_deref()).map_err(|why| {
                    SimError::msg(format!(
                        "host-fact audit: launch {li} (`{}`): {why}",
                        cg.kernel
                    ))
                })?;
            AUDITED_FACTS.set(AUDITED_FACTS.get() + checked);
        }
        let writes = cg.args.iter().filter_map(CgArg::accessor);
        written.extend(writes.filter(|(_, mode)| mode.can_write()).map(|(b, _)| b));
    }
    Ok(())
}

/// Which parameters of `kernel` its plan reads, by index; `None` when the
/// kernel does not decode (its launch fails with the decoder's error).
fn args_read(m: &Module, kernel: OpId) -> Option<Vec<bool>> {
    let plan = sycl_mlir_sim::decode_kernel(m, kernel).ok()?;
    let mut read = vec![false; plan.reg_count as usize];
    for instr in &plan.code {
        instr.reads(|r| read[r as usize] = true);
    }
    Some(plan.params.iter().map(|&p| read[p as usize]).collect())
}

/// One launch against its kernel's facts and the parameters its plan
/// reads ([`args_read`]): how many it checked, or which fails.
fn audit_launch(
    m: &Module,
    kernel: OpId,
    cg: &crate::queue::CommandGroup,
    runtime: &SyclRuntime,
    written: &HashSet<BufferId>,
    args_read: Option<&[bool]>,
) -> Result<u64, String> {
    let mut checked = 0;
    let rank = cg.nd.rank as usize;
    let ranges = [
        ("global", facts::GLOBAL_RANGE, &cg.nd.global[..rank]),
        ("local", facts::LOCAL_RANGE, &cg.nd.local[..rank]),
    ];
    for (what, fact, actual) in ranges {
        if let Some(fact) = fact.get(m, kernel) {
            checked += 1;
            if fact != actual {
                return Err(format!("{what} range {actual:?}, propagated {fact:?}"));
            }
        }
    }
    let buffer = |i: usize| cg.args.get(i).and_then(CgArg::accessor).map(|(b, _)| b);
    let no_accessor =
        |i: usize, what: &str| format!("argument {i} has a propagated {what} but is no accessor");
    for (i, fact) in facts::arg_ranges(m, kernel)
        .into_iter()
        .flatten()
        .enumerate()
    {
        let Some(fact) = fact else { continue };
        checked += 1;
        let b = buffer(i).ok_or_else(|| no_accessor(i, "range"))?;
        let info = &runtime.buffers[b.0];
        let actual = &info.range[..info.rank as usize];
        if actual != fact {
            return Err(format!(
                "argument {i} has range {actual:?}, propagated {fact:?}"
            ));
        }
    }
    let ids = facts::BUFFER_IDS.get(m, kernel).unwrap_or_default();
    for (i, &id) in ids.iter().enumerate().filter(|(_, &id)| id >= 0) {
        checked += 1;
        let b = buffer(i).ok_or_else(|| no_accessor(i, "buffer id"))?;
        for (j, &other) in ids
            .iter()
            .enumerate()
            .skip(i + 1)
            .filter(|(_, &id)| id >= 0)
        {
            let c = buffer(j).ok_or_else(|| no_accessor(j, "buffer id"))?;
            if (id == other) != (b == c) {
                return Err(format!(
                    "arguments {i} and {j} are buffers {} and {}, propagated ids {id} and {other}",
                    b.0, c.0
                ));
            }
        }
    }
    for &i in facts::CONST_ARGS.get(m, kernel).unwrap_or_default() {
        checked += 1;
        let Some((b, mode)) = cg.args.get(i as usize).and_then(CgArg::accessor) else {
            return Err(no_accessor(i as usize, "constant array"));
        };
        if mode.can_write() || written.contains(&b) {
            return Err(format!(
                "constant-array argument {i} reads buffer {}, which is written before it",
                b.0
            ));
        }
    }
    for (i, folded) in facts::folded_args(m, kernel)
        .into_iter()
        .flatten()
        .enumerate()
    {
        let Some(folded) = folded else { continue };
        checked += 1;
        let actual = match cg.args.get(i) {
            Some(CgArg::ScalarI64(v) | CgArg::RuntimeI64(v)) => Attribute::Int(*v),
            Some(CgArg::ScalarF64(v) | CgArg::RuntimeF64(v)) => Attribute::Float(*v),
            Some(CgArg::ScalarF32(v)) => Attribute::Float(*v as f64),
            _ => {
                return Err(format!(
                    "argument {i} has a folded constant but is no scalar"
                ))
            }
        };
        if !actual.same_constant(folded) {
            return Err(format!(
                "scalar argument {i} is {actual}, propagated {folded}"
            ));
        }
    }
    let dead = facts::DEAD_ARGS.get(m, kernel).unwrap_or_default();
    if let Some(read) = args_read {
        for &i in dead {
            checked += 1;
            match read.get(i as usize) {
                Some(false) => {}
                Some(true) => return Err(format!("the plan reads dead argument {i}")),
                None => return Err(format!("dead argument {i} is no parameter")),
            }
        }
    }
    Ok(checked)
}

/// Build the [`HostNode`] closure of a host task over the device-resident
/// buffers. Element updates go through `f64` for every element type (with
/// the exact legacy conversions: `i32` elements saturate through `as i32`
/// before the truncating store), so the result is deterministic and
/// independent of the schedule position granted by the hazard DAG. A
/// type-mismatched `AddInto` reports a structured [`SimError`] with
/// pinned text instead of panicking a worker. Each run of the closure
/// resolves its buffers once, not once per element.
fn host_node_of(op: HostOp, buf_mems: &[MemId]) -> HostNode {
    let apply = |mem: MemId, f: Box<dyn Fn(f64) -> f64 + Send + Sync>| {
        HostNode::new(move |pool: &SharedPool<'_>| {
            let buf = pool.resolve(mem)?;
            let load = |i| buf.load(i).map(RtValue::from);
            let n = buf.len() as i64;
            match buf.dtype() {
                Dtype::F32 => {
                    for i in 0..n {
                        let RtValue::F32(x) = load(i)? else {
                            unreachable!("f32 buffer loads f32")
                        };
                        buf.store(i, RtValue::F32(f(x as f64) as f32))?;
                    }
                }
                Dtype::F64 => {
                    for i in 0..n {
                        let RtValue::F64(x) = load(i)? else {
                            unreachable!("f64 buffer loads f64")
                        };
                        buf.store(i, RtValue::F64(f(x)))?;
                    }
                }
                Dtype::I32 => {
                    for i in 0..n {
                        let RtValue::Int(x) = load(i)? else {
                            unreachable!("i32 buffer loads int")
                        };
                        buf.store(i, RtValue::Int(f(x as f64) as i32 as i64))?;
                    }
                }
                Dtype::I64 => {
                    for i in 0..n {
                        let RtValue::Int(x) = load(i)? else {
                            unreachable!("i64 buffer loads int")
                        };
                        buf.store(i, RtValue::Int(f(x as f64) as i64))?;
                    }
                }
            }
            Ok(())
        })
    };
    match op {
        HostOp::Scale { buffer, factor } => {
            apply(buf_mems[buffer.0], Box::new(move |x| x * factor))
        }
        HostOp::Shift { buffer, delta } => apply(buf_mems[buffer.0], Box::new(move |x| x + delta)),
        HostOp::AddInto { dst, src } => {
            let (dst, src) = (buf_mems[dst.0], buf_mems[src.0]);
            HostNode::new(move |pool: &SharedPool<'_>| {
                let (dst, src) = (pool.resolve(dst)?, pool.resolve(src)?);
                if dst.dtype() != src.dtype() {
                    return Err(SimError::msg(format!(
                        "host AddInto over mismatched element types {} -> {}",
                        src.dtype().name(),
                        dst.dtype().name()
                    )));
                }
                // The legacy zip clamps to the shorter buffer.
                let n = dst.len().min(src.len()) as i64;
                for i in 0..n {
                    match (dst.load(i)?.into(), src.load(i)?.into()) {
                        (RtValue::F32(d), RtValue::F32(s)) => dst.store(i, RtValue::F32(d + s))?,
                        (RtValue::F64(d), RtValue::F64(s)) => dst.store(i, RtValue::F64(d + s))?,
                        // i32 sums stay in range in i64 and the store
                        // truncates — exactly i32 wrapping addition.
                        (RtValue::Int(d), RtValue::Int(s)) => {
                            dst.store(i, RtValue::Int(d.wrapping_add(s)))?
                        }
                        _ => unreachable!("element types checked equal above"),
                    }
                }
                Ok(())
            })
        }
    }
}

fn resolve_kernel(m: &Module, name: &str) -> Option<OpId> {
    let device = m.lookup_symbol(m.top(), sycl_mlir_sycl::DEVICE_MODULE_SYM)?;
    m.lookup_symbol(device, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostgen::generate_host_ir;
    use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
    use sycl_mlir_sycl::types::AccessMode;

    /// End-to-end: build a vadd application, compile with each flow, run,
    /// and check all three produce identical results.
    #[test]
    fn vadd_end_to_end_all_flows() {
        let n = 64_i64;
        for kind in FlowKind::all() {
            let ctx = full_context();
            let mut kb = KernelModuleBuilder::new(&ctx);
            let sig = KernelSig::new("vadd", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Read)
                .accessor(ctx.f32_type(), 1, AccessMode::Read)
                .accessor(ctx.f32_type(), 1, AccessMode::Write);
            kb.add_kernel(&sig, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                let va = sycl_mlir_sycl::device::load_via_id(b, args[0], &[gid]);
                let vb = sycl_mlir_sycl::device::load_via_id(b, args[1], &[gid]);
                let sum = sycl_mlir_dialects::arith::addf(b, va, vb);
                sycl_mlir_sycl::device::store_via_id(b, sum, args[2], &[gid]);
            });

            let mut rt = SyclRuntime::new();
            let a = rt.buffer_f32((0..n).map(|i| i as f32).collect(), &[n]);
            let b_buf = rt.buffer_f32(vec![100.0; n as usize], &[n]);
            let c_buf = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let mut q = Queue::new();
            q.submit(|h| {
                h.accessor(a, AccessMode::Read)
                    .accessor(b_buf, AccessMode::Read)
                    .accessor(c_buf, AccessMode::Write);
                h.parallel_for_nd("vadd", &[n], &[16]);
            });
            generate_host_ir(kb.module(), &rt, &q);
            let module = kb.finish();

            let mut program =
                compile_program(kind, module).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let device = Device::new();
            let report = run(&mut program, &mut rt, &q, &device)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));

            let out = rt.read_f32(c_buf);
            assert_eq!(out[0], 100.0, "{}", kind.name());
            assert_eq!(out[63], 163.0, "{}", kind.name());
            assert!(report.measured_cycles() > 0.0);
            if kind == FlowKind::AdaptiveCpp {
                assert!(report.cold_cycles() > report.measured_cycles());
            }
        }
    }

    /// A kernel name appearing at *different dependency levels* must be
    /// JIT-specialized by the same (submission-order-first) command group
    /// whether the scheduler reorders execution (plan engine, 4 workers)
    /// or not (the tree-walk serial reference) — otherwise the two
    /// schedules would bake different geometries into the kernel and the
    /// bit-identical contract of [`run`] would break. Exercises
    /// AdaptiveCpp (the only flow that JIT-specializes) with kernel `k`
    /// submitted at level 1 first (reads what `p` wrote) and at level 0
    /// second.
    #[test]
    fn batching_preserves_jit_specialization_order() {
        use sycl_mlir_sim::Engine;
        let n = 32_i64;
        let build_and_run = |engine: Engine| {
            let ctx = full_context();
            let mut kb = KernelModuleBuilder::new(&ctx);
            let sig_p = KernelSig::new("p", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Write)
                .scalar(ctx.f32_type());
            kb.add_kernel(&sig_p, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                sycl_mlir_sycl::device::store_via_id(b, args[1], args[0], &[gid]);
            });
            let sig_k = KernelSig::new("k", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Read)
                .accessor(ctx.f32_type(), 1, AccessMode::Write);
            kb.add_kernel(&sig_k, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                let v = sycl_mlir_sycl::device::load_via_id(b, args[0], &[gid]);
                let d = sycl_mlir_dialects::arith::addf(b, v, v);
                sycl_mlir_sycl::device::store_via_id(b, d, args[1], &[gid]);
            });

            let mut rt = SyclRuntime::new();
            let a = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let b_buf = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let c_buf = rt.buffer_f32(vec![1.0; n as usize], &[n]);
            let d_buf = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let mut q = Queue::new();
            // CG0: p writes a (level 0).
            q.submit(|h| {
                h.accessor(a, AccessMode::Write).scalar_f32(2.5);
                h.parallel_for_nd("p", &[n], &[16]);
            });
            // CG1: k reads a — level 1, but first submission of `k`, so it
            // must seed the JIT specialization under the scheduler too.
            q.submit(|h| {
                h.accessor(a, AccessMode::Read)
                    .accessor(b_buf, AccessMode::Write);
                h.parallel_for_nd("k", &[n], &[16]);
            });
            // CG2: k again, over unrelated buffers — level 0, i.e. the
            // scheduler may *execute* it before CG1.
            q.submit(|h| {
                h.accessor(c_buf, AccessMode::Read)
                    .accessor(d_buf, AccessMode::Write);
                h.parallel_for_nd("k", &[n], &[16]);
            });
            generate_host_ir(kb.module(), &rt, &q);
            let module = kb.finish();

            let mut program = compile_program(FlowKind::AdaptiveCpp, module).unwrap();
            let device = Device::with_engine(engine).threads(4);
            let report = run(&mut program, &mut rt, &q, &device).unwrap();
            let per_kernel: Vec<(String, f64, sycl_mlir_sim::ExecStats)> = report
                .kernel_runs
                .iter()
                .map(|k| (k.kernel.clone(), k.jit_cycles, k.stats.clone()))
                .collect();
            (
                per_kernel,
                rt.read_f32(b_buf).to_vec(),
                rt.read_f32(d_buf).to_vec(),
            )
        };
        let (seq_runs, seq_b, seq_d) = build_and_run(Engine::TreeWalk);
        let (bat_runs, bat_b, bat_d) = build_and_run(Engine::Plan);
        assert_eq!(seq_b, bat_b, "level-1 output differs under the scheduler");
        assert_eq!(seq_d, bat_d, "level-0 output differs under the scheduler");
        assert_eq!(seq_runs, bat_runs, "per-kernel reports differ");
        // The JIT cost lands on CG1 — `k`'s first *submission* — not CG2.
        assert!(seq_runs[1].1 > 0.0, "CG1 must carry k's JIT cost");
        assert_eq!(seq_runs[2].1, 0.0, "CG2 must not re-specialize");
    }

    /// DAE shrinks the launch cost: a kernel with an unused accessor
    /// argument launches cheaper under SYCL-MLIR than under DPC++.
    #[test]
    fn dead_argument_elimination_reduces_launch_cost() {
        let n = 32_i64;
        let mut cycles = Vec::new();
        for kind in [FlowKind::Dpcpp, FlowKind::SyclMlir] {
            let ctx = full_context();
            let mut kb = KernelModuleBuilder::new(&ctx);
            let sig = KernelSig::new("writer", 1, true)
                .accessor(ctx.f32_type(), 1, AccessMode::Write)
                .accessor(ctx.f32_type(), 1, AccessMode::Read) // never used
                .scalar(ctx.f32_type());
            kb.add_kernel(&sig, |b, args, item| {
                let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
                sycl_mlir_sycl::device::store_via_id(b, args[2], args[0], &[gid]);
            });
            let mut rt = SyclRuntime::new();
            let out = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let unused = rt.buffer_f32(vec![0.0; n as usize], &[n]);
            let mut q = Queue::new();
            q.submit(|h| {
                h.accessor(out, AccessMode::Write)
                    .accessor(unused, AccessMode::Read)
                    .scalar_f32(7.5);
                h.parallel_for_nd("writer", &[n], &[16]);
            });
            generate_host_ir(kb.module(), &rt, &q);
            let module = kb.finish();
            let mut program = compile_program(kind, module).unwrap();
            let device = Device::new();
            let report = run(&mut program, &mut rt, &q, &device).unwrap();
            assert_eq!(rt.read_f32(out)[5], 7.5);
            cycles.push(report.kernel_runs[0].launch_cycles);
        }
        assert!(
            cycles[1] < cycles[0],
            "SYCL-MLIR launch {} should be cheaper than DPC++ {}",
            cycles[1],
            cycles[0]
        );
    }
}
