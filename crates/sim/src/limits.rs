//! Per-launch execution safety limits, cooperative cancellation and
//! deterministic fault injection.
//!
//! The safety model mirrors the one rhai documents for embedded
//! interpreters — a hard operation budget, a wall-clock deadline, a memory
//! cap and a cooperative cancel token — so the simulator can execute
//! kernel programs it does not trust without letting them spin forever,
//! exhaust the arena or wedge the scheduler.
//!
//! All limits are **off by default**, and a launch no limit applies to
//! has no meter (`OpMeter::for_launch`): the plan executor tests for one
//! once per dispatch — per sub-group, not per work-item — so the
//! unlimited hot path pays next to nothing. When limits are on, the operation budget is
//! drawn from a per-launch shared counter in amortized blocks
//! (`OpMeter`): a worker reserves up to `OP_BLOCK` weighted operations
//! at a time and settles the unspent remainder back when it leaves the
//! launch, so the per-dispatch cost is one subtraction. Deadlines and
//! cancellation are only polled at block and work-group boundaries.
//!
//! A tripped limit surfaces as
//! [`SimError::LimitExceeded`] — a
//! structured error, not a panic — with the scheduler stamping the
//! `(launch, group)` position when it records the failure.

use crate::interp::{LimitKind, SimError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-launch execution limits and fault configuration.
///
/// The default ([`ExecLimits::none`]) enforces nothing. Construct one via
/// the [`Device`](crate::Device) builder knobs (`max_ops`, `mem_cap`,
/// `deadline_ms`, `cancel_token`, `fault`); the first three are also
/// rows of the knob table (`--max-ops`, `--mem-cap`, `--deadline-ms`).
#[derive(Clone, Debug, Default)]
pub struct ExecLimits {
    /// Weighted-operation budget per launch. Superinstructions charge the
    /// weight of the instructions they replace, so the budget counts the
    /// same whether a window was fused or not.
    pub max_ops: Option<u64>,
    /// Cap, in bytes, on kernel-driven allocation growth (private/local
    /// allocas, materialized dense constants) per worker per launch.
    pub mem_cap: Option<u64>,
    /// Wall-clock deadline for a whole launch graph, in milliseconds,
    /// measured from submission.
    pub deadline_ms: Option<u64>,
    /// Cooperative cancellation: flip the token from any thread and every
    /// in-flight launch stops at its next check boundary.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for testing the failure paths.
    pub fault: Option<FaultPlan>,
}

impl ExecLimits {
    /// No limits: every check compiles out of the plan executor.
    pub fn none() -> ExecLimits {
        ExecLimits::default()
    }

    /// Whether nothing is limited (the executor skips all metering).
    pub fn is_none(&self) -> bool {
        self.max_ops.is_none()
            && self.mem_cap.is_none()
            && self.deadline_ms.is_none()
            && self.cancel.is_none()
            && self.fault.is_none()
    }

    /// The absolute deadline for a graph submitted now.
    pub(crate) fn deadline_instant(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// The fault site armed for `launch`, if any.
    pub(crate) fn fault_at(&self, launch: usize) -> Option<FaultSite> {
        match &self.fault {
            Some(f) if f.launch == launch => Some(f.site),
            _ => None,
        }
    }

    /// A launch's operation budget, full (`None` without `max_ops`).
    pub(crate) fn launch_budget(&self) -> Option<Arc<AtomicU64>> {
        self.max_ops.map(|ops| Arc::new(AtomicU64::new(ops)))
    }
}

/// A shared cancellation flag. Clone it, hand one side to another thread,
/// and [`cancel`](CancelToken::cancel) stops every launch using it at the
/// next check boundary with
/// [`LimitKind::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation (sticky; safe from any thread).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A deterministic synthetic failure, injected at a chosen point of a
/// chosen launch, for testing error ordering, what a failure stops and
/// post-failure device usability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index of the launch (within its graph) to fail.
    pub launch: usize,
    /// Where inside that launch the failure trips.
    pub site: FaultSite,
}

/// Where a [`FaultPlan`] trips inside its launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Fail before the launch runs at all (as if its plan failed to
    /// decode).
    Decode,
    /// Fail work-group `n` at the claim boundary, before it executes.
    Claim(u64),
    /// Fail each work-group once it has executed `n` weighted operations.
    Instr(u64),
}

impl FaultPlan {
    /// The deterministic error this fault produces — identical text under
    /// both engines and every thread count.
    pub fn error(&self) -> SimError {
        SimError::Injected {
            fault: *self,
            at: None,
        }
    }
}

/// The fault as its error reads.
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let launch = self.launch;
        match self.site {
            FaultSite::Decode => write!(f, "injected fault: decode of launch {launch}"),
            FaultSite::Claim(n) => write!(f, "injected fault: claim {n} of launch {launch}"),
            FaultSite::Instr(n) => write!(f, "injected fault: instruction {n} of launch {launch}"),
        }
    }
}

/// The limit that has tripped by now, if either has: the cancel token, the
/// wall-clock deadline. Polled by the meter at op-block boundaries and by
/// the scheduler at claim-chunk boundaries.
pub(crate) fn tripped(
    cancel: Option<&CancelToken>,
    deadline: Option<Instant>,
) -> Option<LimitKind> {
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return Some(LimitKind::Cancelled);
    }
    deadline
        .is_some_and(|d| Instant::now() >= d)
        .then_some(LimitKind::Deadline)
}

/// Ops reserved from the shared budget per refill. Large enough that the
/// per-instruction cost is one subtraction, small enough that deadlines
/// and cancellation are polled every fraction of a millisecond.
pub(crate) const OP_BLOCK: u64 = 65_536;

/// Reserve up to `want` units from a shared budget; returns what was
/// actually obtained (0 when the budget is exhausted).
fn reserve(budget: &AtomicU64, want: u64) -> u64 {
    let mut cur = budget.load(Ordering::Relaxed);
    loop {
        let take = cur.min(want);
        if take == 0 {
            return 0;
        }
        match budget.compare_exchange_weak(cur, cur - take, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(now) => cur = now,
        }
    }
}

/// Per-worker, per-launch metering state: amortized operation budgeting,
/// deadline/cancellation polling, the per-worker memory cap, and the
/// `Instr(n)` fault countdown.
///
/// The hot path is [`charge`](OpMeter::charge): one compare and one
/// subtraction against a prepaid block. Everything else happens in the
/// cold [`boundary`](OpMeter::boundary) refill.
///
/// Both engines drive the same meter: the tree walk charges 1 per
/// executed op, the plan engine `Instr::op_weight` per executed
/// instruction. A superinstruction's weight is the sum of its fused
/// members', so a budget trips at the same weighted-op count, hence the
/// same work-group, fused or not
/// (`tests/plan_fuzz.rs::op_budget_trips_are_fuse_invariant`).
pub(crate) struct OpMeter {
    /// Prepaid weighted ops still executable before the next boundary.
    granted: u64,
    /// Value of `granted` just after the last boundary (so the boundary
    /// can compute how much was spent since).
    last_grant: u64,
    /// The launch's shared operation budget (absent when `max_ops` is
    /// off — boundaries then only poll deadline/cancellation).
    shared: Option<Arc<AtomicU64>>,
    /// Absolute wall-clock deadline for the enclosing graph.
    deadline: Option<Instant>,
    /// Cooperative cancellation flag.
    cancel: Option<CancelToken>,
    /// `Instr(n)` fault threshold per work-group (`u64::MAX` = unarmed).
    fault_n: u64,
    /// Weighted ops left until the armed fault trips in this work-group.
    fault_left: u64,
    /// Bytes of kernel-driven allocation left under the memory cap
    /// (`u64::MAX` = uncapped).
    mem_left: u64,
    /// Launch index, for the injected-fault error text.
    launch: usize,
}

impl OpMeter {
    /// A meter for `launch` drawing from `budget` under `limits`.
    pub(crate) fn new(
        limits: &ExecLimits,
        budget: Option<Arc<AtomicU64>>,
        deadline: Option<Instant>,
        launch: usize,
    ) -> OpMeter {
        let fault_n = match limits.fault_at(launch) {
            Some(FaultSite::Instr(n)) => n,
            _ => u64::MAX,
        };
        OpMeter {
            granted: 0,
            last_grant: 0,
            shared: budget,
            deadline,
            cancel: limits.cancel.clone(),
            fault_n,
            fault_left: fault_n,
            mem_left: limits.mem_cap.unwrap_or(u64::MAX),
            launch,
        }
    }

    /// The meter `launch` executes under, or `None` when nothing a meter
    /// polls is on for it: no op budget, no deadline, no cancel token and
    /// no `instr` fault. (Claim-site faults are the scheduler's, the plan
    /// engine's memory cap its workers' pools'.)
    pub(crate) fn for_launch(
        limits: &ExecLimits,
        budget: Option<Arc<AtomicU64>>,
        deadline: Option<Instant>,
        launch: usize,
    ) -> Option<OpMeter> {
        let metered = limits.max_ops.is_some()
            || limits.deadline_ms.is_some()
            || limits.cancel.is_some()
            || matches!(limits.fault_at(launch), Some(FaultSite::Instr(_)));
        metered.then(|| OpMeter::new(limits, budget, deadline, launch))
    }

    /// Admit a host node through its launch's meter: a closure is opaque
    /// to the instruction meter, so it pays a flat `weight` (op budget,
    /// deadline/cancellation poll and the `instr` fault site all
    /// honoured) before it runs, and the unspent remainder of the metered
    /// block settles back so budgets stay exact.
    pub(crate) fn charge_host_node(mut self, weight: u64) -> Result<(), SimError> {
        let metered = self.charge(weight);
        self.settle();
        metered
    }

    /// Pay for one instruction of weight `w`. `Err` when a limit (or the
    /// armed fault) trips at the refill boundary.
    #[inline]
    pub(crate) fn charge(&mut self, w: u64) -> Result<(), SimError> {
        if self.granted < w {
            self.boundary(w)?;
        }
        self.granted -= w;
        Ok(())
    }

    /// Refill the prepaid block: settle fault accounting, poll
    /// cancellation and the deadline, then reserve the next block from
    /// the shared budget.
    #[cold]
    fn boundary(&mut self, w: u64) -> Result<(), SimError> {
        if self.fault_left != u64::MAX {
            // `granted` never exceeds `fault_left` (the grant below is
            // capped), so this cannot underflow.
            self.fault_left -= self.last_grant - self.granted;
            self.last_grant = self.granted;
            if self.fault_left < w {
                return Err(FaultPlan {
                    launch: self.launch,
                    site: FaultSite::Instr(self.fault_n),
                }
                .error());
            }
        }
        if let Some(kind) = tripped(self.cancel.as_ref(), self.deadline) {
            return Err(SimError::limit(kind));
        }
        let mut take = OP_BLOCK.max(w) - self.granted;
        if self.fault_left != u64::MAX {
            take = take.min(self.fault_left - self.granted);
        }
        if let Some(b) = &self.shared {
            take = reserve(b, take);
        }
        self.granted += take;
        self.last_grant = self.granted;
        if self.granted < w {
            return Err(SimError::limit(LimitKind::Ops));
        }
        Ok(())
    }

    /// Start a new work-group: settle the unspent grant back to the
    /// shared budget (so budgets stay exact under sequential execution)
    /// and re-arm the per-group fault countdown. The next charge hits a
    /// boundary, which also gives each work-group a deadline poll.
    pub(crate) fn begin_group(&mut self) {
        self.settle();
        self.fault_left = self.fault_n;
    }

    /// Return any unspent grant to the shared budget.
    pub(crate) fn settle(&mut self) {
        if self.granted > 0 {
            if let Some(b) = &self.shared {
                b.fetch_add(self.granted, Ordering::Relaxed);
            }
        }
        self.granted = 0;
        self.last_grant = 0;
    }

    /// Pay for `bytes` of kernel-driven allocation growth.
    pub(crate) fn charge_mem(&mut self, bytes: u64) -> Result<(), SimError> {
        if self.mem_left < bytes {
            return Err(SimError::limit(LimitKind::Memory));
        }
        self.mem_left -= bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_trips_ops_exactly_under_sequential_settling() {
        let limits = ExecLimits {
            max_ops: Some(10),
            ..ExecLimits::none()
        };
        let budget = Arc::new(AtomicU64::new(10));
        let mut m = OpMeter::new(&limits, Some(budget.clone()), None, 0);
        for _ in 0..10 {
            m.charge(1).unwrap();
        }
        let err = m.charge(1).unwrap_err();
        assert_eq!(err.limit_kind(), Some(LimitKind::Ops));
        // Settling returns the (empty) remainder; the budget is spent.
        m.settle();
        assert_eq!(budget.load(Ordering::Relaxed), 0);
    }

    /// The trip point depends only on the cumulative *weight*, not on
    /// how the charges are grouped — a superinstruction charges the
    /// summed weight of its members at once, and fused and unfused plans
    /// must trip at the same weighted count.
    #[test]
    fn meter_trip_point_is_weight_grouping_invariant() {
        let limits = ExecLimits {
            max_ops: Some(12),
            ..ExecLimits::none()
        };
        // Unfused shape: twelve weight-1 charges, then a trip.
        let budget = Arc::new(AtomicU64::new(12));
        let mut m = OpMeter::new(&limits, Some(budget), None, 0);
        for _ in 0..12 {
            m.charge(1).unwrap();
        }
        assert_eq!(m.charge(1).unwrap_err().limit_kind(), Some(LimitKind::Ops));
        // Fused shape: the same weight in 2s and 3s (four 2-weight and
        // one 3-weight superinstruction, 11 total) still has room for
        // exactly one more unit op and trips on weight 2.
        let budget = Arc::new(AtomicU64::new(12));
        let mut m = OpMeter::new(&limits, Some(budget), None, 0);
        for w in [2, 2, 3, 2, 2] {
            m.charge(w).unwrap();
        }
        m.charge(1).unwrap();
        assert_eq!(m.charge(2).unwrap_err().limit_kind(), Some(LimitKind::Ops));
    }

    #[test]
    fn meter_settles_unspent_grant_back() {
        let limits = ExecLimits {
            max_ops: Some(1000),
            ..ExecLimits::none()
        };
        let budget = Arc::new(AtomicU64::new(1000));
        let mut m = OpMeter::new(&limits, Some(budget.clone()), None, 0);
        m.charge(3).unwrap();
        m.begin_group();
        assert_eq!(budget.load(Ordering::Relaxed), 997);
    }

    #[test]
    fn meter_trips_instr_fault_at_threshold() {
        let limits = ExecLimits {
            fault: Some(FaultPlan {
                launch: 0,
                site: FaultSite::Instr(5),
            }),
            ..ExecLimits::none()
        };
        let mut m = OpMeter::new(&limits, None, None, 0);
        for _ in 0..5 {
            m.charge(1).unwrap();
        }
        let err = m.charge(1).unwrap_err();
        assert!(err
            .message()
            .contains("injected fault: instruction 5 of launch 0"));
        // The next work-group re-arms and trips at the same point.
        m.begin_group();
        for _ in 0..5 {
            m.charge(1).unwrap();
        }
        assert!(m.charge(1).is_err());
    }

    #[test]
    fn meter_charges_memory_against_the_cap() {
        let limits = ExecLimits {
            mem_cap: Some(64),
            ..ExecLimits::none()
        };
        let mut m = OpMeter::new(&limits, None, None, 0);
        m.charge_mem(40).unwrap();
        m.charge_mem(24).unwrap();
        let err = m.charge_mem(1).unwrap_err();
        assert_eq!(err.limit_kind(), Some(LimitKind::Memory));
    }

    #[test]
    fn cancel_token_trips_at_the_next_boundary() {
        let token = CancelToken::new();
        let limits = ExecLimits {
            cancel: Some(token.clone()),
            ..ExecLimits::none()
        };
        let mut m = OpMeter::new(&limits, None, None, 0);
        m.charge(1).unwrap();
        token.cancel();
        // Within the prepaid block nothing trips; the group boundary does.
        m.begin_group();
        let err = m.charge(1).unwrap_err();
        assert_eq!(err.limit_kind(), Some(LimitKind::Cancelled));
    }
}
