//! The launch-path ledger: where one program run's launch path spends its
//! time, phase by phase, next to exact counts of the work each phase did.
//!
//! A [`Ledger`] is a sink a caller opts into — `exec::run` fills one only
//! when its program carries it, and [`Device::launch_graph_ledgered`]
//! only when handed one; with none, nothing is timed. The counts are
//! deterministic (equal at every thread count and on every machine) and
//! are what [`LedgerCounts`]'s `PartialEq` compares; the durations are
//! wall time and compare nowhere.
//!
//! [`Device::launch_graph_ledgered`]: crate::Device::launch_graph_ledgered

use std::fmt;
use std::time::Duration;

/// Exact work counts of the launch path, summed over the runs a
/// [`Ledger`] saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Kernel launches (host nodes excluded).
    pub launches: u64,
    /// Argument lists bound: one per distinct `(kernel, argument values)`
    /// of a run.
    pub distinct_bindings: u64,
    /// Plan-cache lookups (each a decode, verify and fuse on a miss).
    pub plans_looked_up: u64,
    /// Proven-site bitsets instantiated from a plan's facts.
    pub instantiations: u64,
}

/// One worker's wall time inside a graph run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerTimes {
    /// Claiming and running work-groups and host nodes.
    pub busy: Duration,
    /// Waiting for a ready launch (the ready-set lock and the park).
    pub claim_wait: Duration,
    /// The rest of the graph run: spawn, join and setup.
    pub idle: Duration,
}

/// See the [module documentation](self).
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// The exact counts.
    pub counts: LedgerCounts,
    /// All of `exec::run`, upload to readback.
    pub total: Duration,
    /// Uploading the buffers, resolving kernel names, AdaptiveCpp's JIT
    /// (and, under audit, the host-fact audit) and binding arguments.
    pub bind: Duration,
    /// Building the hazard DAG (`Queue::dep_graph`).
    pub dep_graph: Duration,
    /// Plan lookups, with decode, verify and fuse on a miss.
    pub plan_lookup: Duration,
    /// Instantiating the proven-site bitsets.
    pub instantiate: Duration,
    /// The graph run's wall time, from worker spawn to join.
    pub graph_run: Duration,
    /// Per worker, in worker order (worker 0 is the launching thread).
    pub workers: Vec<WorkerTimes>,
    /// Running host-node closures, summed over workers (part of `busy`).
    pub host_nodes: Duration,
    /// Writing the report rows (launch cycles, dead arguments).
    pub rows: Duration,
    /// Copying the buffers back to the host.
    pub readback: Duration,
}

impl Ledger {
    /// Fold one graph run's worker times in, worker by worker.
    pub(crate) fn add_workers(&mut self, times: &[WorkerTimes]) {
        if self.workers.len() < times.len() {
            self.workers.resize(times.len(), WorkerTimes::default());
        }
        for (sum, t) in self.workers.iter_mut().zip(times) {
            sum.busy += t.busy;
            sum.claim_wait += t.claim_wait;
            sum.idle += t.idle;
        }
    }
}

impl fmt::Display for LedgerCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "launches {}, distinct bindings {}, plans looked up {}, instantiations {}",
            self.launches, self.distinct_bindings, self.plans_looked_up, self.instantiations
        )
    }
}

/// The per-phase table: one row per span in milliseconds, then the counts.
impl fmt::Display for Ledger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut row = |name: &str, d: Duration| writeln!(f, "{name:<22} {:>9.3} ms", ms(d));
        row("exec::run", self.total)?;
        row("  resolve/jit/bind", self.bind)?;
        row("  dep_graph", self.dep_graph)?;
        row("  plan lookup", self.plan_lookup)?;
        row("  instantiate", self.instantiate)?;
        row("  graph run", self.graph_run)?;
        for (i, w) in self.workers.iter().enumerate() {
            row(&format!("    worker {i} busy"), w.busy)?;
            row(&format!("    worker {i} claim-wait"), w.claim_wait)?;
            row(&format!("    worker {i} idle"), w.idle)?;
        }
        row("    host nodes", self.host_nodes)?;
        row("  report rows", self.rows)?;
        row("  readback", self.readback)?;
        write!(f, "{}", self.counts)
    }
}
