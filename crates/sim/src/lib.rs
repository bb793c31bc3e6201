//! # sycl-mlir-sim — an ND-range GPU simulator executing device MLIR
//!
//! The substitute for the paper's Intel Data Center GPU Max 1100 (§VIII):
//! a simulator that *runs* device kernels through a resumable interpreter
//! and charges an analytic cost model. It models the parts of the machine
//! the paper's optimizations act on:
//!
//! * an **ND-range execution model** — work-groups of work-items with
//!   co-operative scheduling around `sycl.group.barrier` (including
//!   detection of the divergent-barrier deadlock §V-C worries about);
//! * a **memory hierarchy** — global memory with per-sub-group transaction
//!   coalescing, fast work-group local memory, private memory and a
//!   constant cache (for host-propagated constant arrays, §VII-B);
//! * **launch costs** — a fixed host-side cost plus a per-argument cost
//!   (the quantity dead-argument elimination reduces) and a one-time JIT
//!   cost for SSCP-style flows (AdaptiveCpp, §IX).
//!
//! Simulated time is deterministic, so the harness needs no warm-up/repeat
//! protocol; EXPERIMENTS.md documents this deviation from §VIII.
//!
//! ## Execution engines
//!
//! The simulator ships two interchangeable engines behind
//! [`device::Engine`]:
//!
//! * **Tree walk** ([`interp`]) — the reference implementation. A resumable
//!   interpreter directly over the structured IR: an explicit frame stack
//!   per work-item, `ValueId`-indexed environment, string-dispatched
//!   opcodes. Simple, obviously faithful to the IR, and the behavioural
//!   baseline every optimization is differentially tested against.
//! * **Plan** ([`plan`]) — the fast path and the default. A **decode
//!   stage** runs once per launch and lowers the kernel (plus transitively
//!   called functions) into a [`KernelPlan`]: a flat `Vec` of integer-opcode
//!   instructions with operands pre-resolved to dense per-function register
//!   slots, constants pre-materialized, `cmpi`/`cmpf` predicates and
//!   dimension operands pre-parsed, call targets pre-resolved, and
//!   `scf.for`/`scf.if` lowered to explicit jump/loop instructions. The
//!   **decode-time verifier** ([`verify_plan`]) then proves what it can
//!   about the plan once — accessor sites in bounds, barriers in uniform
//!   control flow — and a plan with findings runs with every check in
//!   place. Last, the **peephole fusion pass** ([`fuse_plan`]) rewrites
//!   hot instruction windows — the load-accumulate pair, bounded
//!   three-instruction **chains** (the indexed accessor load
//!   `vec.ctor`+`acc.subscript`+`Load`, fused multiply-accumulate
//!   `Load`+`mulf`+`addf`) and the un-CSE'd four-instruction accessor
//!   read — into superinstructions with identical semantics and
//!   statistics. Verification and fusion are what the plan engine does,
//!   not settings.
//!
//! The bytecode loop (`plan::run_impl`, driven by
//! [`plan::PlanWorkGroup::round`]) is the plan engine's only executor, and
//! it runs a sub-group's work-items in **lockstep**: an instruction is
//! dispatched once for all the lanes that share a frame stack and a `pc`.
//! Executed instruction semantics are written once, there
//! (ARCHITECTURE.md, "One plan executor", records why) — a
//! superinstruction's arm is composed of the same steps as its members'
//! arms, never a restatement of them.
//!
//! **Register allocation** is per function: every SSA value (block argument
//! or op result) receives a dense slot at decode time, and each call frame
//! owns a contiguous window of its sub-group's flat file of 16-byte
//! [`plan::Slot`]s, one entry per register and lane — loop back-edges and
//! operand reads are array indexing, no hashing and no allocation.
//!
//! **Threading model of a shared plan:** the decoded [`KernelPlan`] is
//! immutable, `Send + Sync` (compile-time asserted) and shared by
//! reference across all work-items, all work-groups and — with
//! [`Device::threads`] `> 1` — all worker threads of a launch. All mutable
//! state lives outside the plan: each work-item owns its register file,
//! frame stack and per-site visit counters (slots a worker re-binds from
//! work-group to work-group and launch to launch, so the steady state
//! allocates nothing per work-item). Its position is not state: both
//! engines answer its item queries from the launch's [`NdRangeSpec`], its
//! work-group and its local linear id ([`NdRangeSpec::item_query`]). Each
//! worker owns its statistics, its dense-constant materializations and its
//! per-work-group state (`sycl.local.alloca` results, the coalescing
//! tracker). Work-items
//! of a group are co-operatively scheduled between barrier points exactly
//! as under the tree-walk engine; the *work-group* axis is what the
//! [`pool`] scheduler parallelizes, with statistics merged so that results
//! are bit-identical for every worker count.
//!
//! **Launch-level parallelism:** on top of the work-group axis, the
//! scheduler accepts whole **launch graphs** — kernel launches plus the
//! hazard DAG ordering them ([`Device::launch_graph`], over
//! [`run_plan_graph_report`]; a batch of independent launches is the
//! edge-free graph). The runtime's queue
//! exports its full dependency DAG and the executor runs it **out of
//! order**: each launch carries a remaining-dependency counter, the worker
//! that retires a launch's last work-group publishes newly-ready
//! successors to a shared ready set, and work-groups are claimed in
//! per-worker chunks — no level barrier, so one slow launch never stalls
//! independent successors. The ready set drains by precomputed
//! **critical-path length** (ties broken by submission index), and **host
//! tasks** run as first-class graph nodes ([`HostNode`], one logical
//! work-group, hazard-tracked and metered like any launch). This is the
//! one schedule of the plan engine; the tree-walk engine is the serial
//! reference, running launches in submission order. A run's workers are
//! scoped threads — the calling thread plus up to `threads − 1` spawned
//! for the run and joined before it returns: a program is one graph run,
//! so no pool of threads is kept between runs (ARCHITECTURE.md, "Pool
//! and arena design"). Per-worker scratch
//! arenas are recycled across work-groups and launches to cut
//! private-alloca churn. A `--profile`
//! mode (`SYCL_MLIR_SIM_PROFILE=on`) counts every executed instruction
//! and ranks dataflow-adjacent pairs as fusion candidates
//! ([`Device::profile_report`]).
//!
//! **Cross-launch plan cache:** a [`Device`] memoizes decoded plans keyed
//! by `(module id, kernel)` and validated against the module's mutation
//! epoch, so re-launching an unmutated kernel (the common case in the
//! evaluation's repeat protocol) skips the decode; any IR mutation — e.g.
//! AdaptiveCpp JIT re-specialization — transparently re-decodes.
//!
//! A kernel the decoder does not understand fails its launch with a
//! position-stamped `plan decode error`: the
//! decoder and the tree walk cover the same ops, and a silent fallback
//! would serialise the whole launch graph. The
//! differential suite (`tests/differential.rs`) holds the two engines to
//! bit-identical outputs, statistics and cycle counts over the entire
//! benchsuite (sequentially and at `threads=4`); the repo benchmark
//! (`benchmark/run.sh`) times the plan engine, and `repro_all --quick
//! --engine=tree` next to the default run shows the gap
//! (order-of-magnitude on loop-heavy kernels, ~6.5x on the full sweep).
//!
//! ## Configuration
//!
//! Every knob of a [`Device`] — engine, threads, profile and the three
//! execution limits — is one row of the table in
//! [`config`]: environment variables, `--name=value` flags, help text and
//! the `Display` of the effective configuration all derive from it, and a
//! setting that does not parse is a [`ConfigError`].

#![deny(missing_docs)]

pub mod config;
pub mod cost;
pub mod device;
pub mod interp;
pub mod limits;
pub mod memory;
pub mod plan;
pub mod pool;
pub mod value;
pub mod verify;

pub use config::{knob_table, ConfigError};
pub use cost::{Coalescer, CostModel, ExecStats};
pub use device::{
    auto_threads, BatchLaunch, Device, Engine, NdRangeSpec, SimError, VerifyCounters,
};
pub use interp::LimitKind;
pub use limits::{CancelToken, ExecLimits, FaultPlan, FaultSite};
pub use memory::{Buf, DataVec, Dtype, Elem, MemFault, MemId, MemoryPool};
pub use plan::{decode_kernel, fuse_plan, profile_summary, DecodeError, KernelPlan};
pub use pool::{
    run_plan_graph_report, GraphReport, HostNode, HostView, LaunchDag, LaunchStatus, PlanExecCtx,
    PlanLaunch, PlanPool, SharedPool, HOST_NODE_WEIGHT,
};
pub use value::{AccessorVal, MemRefVal, RtValue, Space};
pub use verify::{verify_plan, PlanFacts, SiteProof, VerifyError};
