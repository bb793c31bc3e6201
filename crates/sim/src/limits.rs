//! Per-launch execution safety limits.
//!
//! The safety model mirrors the one rhai documents for embedded
//! interpreters — a hard operation budget, a wall-clock deadline and a
//! memory cap — so the simulator can execute kernel programs it does not
//! trust without letting them spin forever or exhaust the arena.
//!
//! All limits are **off by default**, and a launch no limit applies to
//! has no meter (`OpMeter::for_launch`): the plan executor tests for one
//! once per dispatch — per sub-group, not per work-item — so the
//! unlimited hot path pays next to nothing. When limits are on, the operation budget is
//! drawn from a per-launch shared counter in amortized blocks
//! (`OpMeter`): a worker reserves up to `OP_BLOCK` weighted operations
//! at a time and settles the unspent remainder back when it leaves the
//! launch, so the per-dispatch cost is one subtraction. The deadline is
//! only polled at block and work-group boundaries.
//!
//! A tripped limit surfaces as
//! [`SimError::LimitExceeded`] — a
//! structured error, not a panic — with the scheduler stamping the
//! `(launch, group)` position when it records the failure.

use crate::interp::{LimitKind, SimError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-launch execution limits.
///
/// The default ([`ExecLimits::none`]) enforces nothing. Construct one via
/// the [`Device`](crate::Device) builder knobs (`max_ops`, `mem_cap`,
/// `deadline_ms`), which are also rows of the knob table (`--max-ops`,
/// `--mem-cap`, `--deadline-ms`).
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
}

impl ExecLimits {
    /// No limits: every check compiles out of the plan executor.
    pub fn none() -> ExecLimits {
        ExecLimits::default()
    }

    /// Whether nothing is limited (the executor skips all metering).
    pub fn is_none(&self) -> bool {
        self.max_ops.is_none() && self.mem_cap.is_none() && self.deadline_ms.is_none()
    }

    /// The absolute deadline for a graph submitted now.
    pub(crate) fn deadline_instant(&self) -> Option<Instant> {
        self.deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms))
    }

    /// A launch's operation budget, full (`None` without `max_ops`).
    pub(crate) fn launch_budget(&self) -> Option<Arc<AtomicU64>> {
        self.max_ops.map(|ops| Arc::new(AtomicU64::new(ops)))
    }
}

/// The runaway-loop backstop, on whether or not any limit is set: a
/// work-item that takes more than this many steps fails with
/// [`KernelFault::StepBudgetExceeded`](crate::KernelFault). Each engine
/// counts steps in its own unit — the tree walk one per IR op of a
/// work-item, the plan engine one per dispatch of a lane group — so the
/// two need not trip it at the same point; `--max-ops`
/// ([`ExecLimits::max_ops`]) is the limit they agree on.
pub(crate) const MAX_STEPS: u64 = 500_000_000;

/// `Err` with [`LimitKind::Deadline`] once the wall-clock deadline has
/// passed. Polled by the meter at op-block boundaries and by the
/// scheduler at claim-chunk boundaries.
pub(crate) fn check_deadline(deadline: Option<Instant>) -> Result<(), SimError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(SimError::limit(LimitKind::Deadline)),
        _ => Ok(()),
    }
}

/// Ops reserved from the shared budget per refill. Large enough that the
/// per-instruction cost is one subtraction, small enough that the
/// deadline is polled every fraction of a millisecond.
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
/// deadline polling and the per-worker memory cap.
///
/// The hot path is [`charge`](OpMeter::charge): one compare and one
/// subtraction against a prepaid block. Everything else happens in the
/// cold [`boundary`](OpMeter::boundary) refill.
///
/// Both engines drive the same meter: the tree walk charges 1 per
/// executed op, the plan engine `Instr::op_weight` per executed
/// instruction. The two counts differ: a scalar constant, a cast and a
/// loop result are registers of the plan, not instructions, so the plan
/// engine charges nothing for them, while its loop and branch
/// instructions and parallel copies have no op of their own. A
/// superinstruction's weight is the sum of its fused members', so a
/// budget trips at the same weighted-op count, hence the same
/// work-group, fused or not
/// (`tests/plan_fuzz.rs::op_budget_trips_are_fuse_invariant`).
pub(crate) struct OpMeter {
    /// Prepaid weighted ops still executable before the next boundary.
    granted: u64,
    /// The launch's shared operation budget (absent when `max_ops` is
    /// off — boundaries then only poll the deadline).
    shared: Option<Arc<AtomicU64>>,
    /// Absolute wall-clock deadline for the enclosing graph.
    deadline: Option<Instant>,
    /// Bytes of kernel-driven allocation left under the memory cap
    /// (`u64::MAX` = uncapped).
    mem_left: u64,
}

impl OpMeter {
    /// A meter drawing from `budget` under `limits`.
    pub(crate) fn new(
        limits: &ExecLimits,
        budget: Option<Arc<AtomicU64>>,
        deadline: Option<Instant>,
    ) -> OpMeter {
        OpMeter {
            granted: 0,
            shared: budget,
            deadline,
            mem_left: limits.mem_cap.unwrap_or(u64::MAX),
        }
    }

    /// The meter a launch executes under, or `None` when nothing a meter
    /// polls is on: no op budget and no deadline. (The plan engine's
    /// memory cap is its workers' pools'.)
    pub(crate) fn for_launch(
        limits: &ExecLimits,
        budget: Option<Arc<AtomicU64>>,
        deadline: Option<Instant>,
    ) -> Option<OpMeter> {
        let metered = limits.max_ops.is_some() || limits.deadline_ms.is_some();
        metered.then(|| OpMeter::new(limits, budget, deadline))
    }

    /// Admit a host node through its launch's meter: a closure is opaque
    /// to the instruction meter, so it pays a flat `weight` (op budget and
    /// deadline poll honoured) before it runs, and the unspent remainder
    /// of the metered block settles back so budgets stay exact.
    pub(crate) fn charge_host_node(mut self, weight: u64) -> Result<(), SimError> {
        let metered = self.charge(weight);
        self.settle();
        metered
    }

    /// Pay for one instruction of weight `w`. `Err` when a limit trips at
    /// the refill boundary.
    #[inline]
    pub(crate) fn charge(&mut self, w: u64) -> Result<(), SimError> {
        if self.granted < w {
            self.boundary(w)?;
        }
        self.granted -= w;
        Ok(())
    }

    /// Refill the prepaid block: poll the deadline, then reserve the next
    /// block from the shared budget.
    #[cold]
    fn boundary(&mut self, w: u64) -> Result<(), SimError> {
        check_deadline(self.deadline)?;
        let mut take = OP_BLOCK.max(w) - self.granted;
        if let Some(b) = &self.shared {
            take = reserve(b, take);
        }
        self.granted += take;
        if self.granted < w {
            return Err(SimError::limit(LimitKind::Ops));
        }
        Ok(())
    }

    /// Return any unspent grant to the shared budget (so budgets stay
    /// exact under sequential execution). Called between work-groups, so
    /// the next charge hits a boundary, which gives each work-group a
    /// deadline poll.
    pub(crate) fn settle(&mut self) {
        if self.granted > 0 {
            if let Some(b) = &self.shared {
                b.fetch_add(self.granted, Ordering::Relaxed);
            }
        }
        self.granted = 0;
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
        let mut m = OpMeter::new(&limits, Some(budget.clone()), None);
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
        let mut m = OpMeter::new(&limits, Some(budget), None);
        for _ in 0..12 {
            m.charge(1).unwrap();
        }
        assert_eq!(m.charge(1).unwrap_err().limit_kind(), Some(LimitKind::Ops));
        // Fused shape: the same weight in 2s and 3s (four 2-weight and
        // one 3-weight superinstruction, 11 total) still has room for
        // exactly one more unit op and trips on weight 2.
        let budget = Arc::new(AtomicU64::new(12));
        let mut m = OpMeter::new(&limits, Some(budget), None);
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
        let mut m = OpMeter::new(&limits, Some(budget.clone()), None);
        m.charge(3).unwrap();
        m.settle();
        assert_eq!(budget.load(Ordering::Relaxed), 997);
    }

    #[test]
    fn meter_charges_memory_against_the_cap() {
        let limits = ExecLimits {
            mem_cap: Some(64),
            ..ExecLimits::none()
        };
        let mut m = OpMeter::new(&limits, None, None);
        m.charge_mem(40).unwrap();
        m.charge_mem(24).unwrap();
        let err = m.charge_mem(1).unwrap_err();
        assert_eq!(err.limit_kind(), Some(LimitKind::Memory));
    }

    /// The deadline is polled only at boundaries: a meter whose deadline
    /// has already passed still charges inside its prepaid block, and
    /// trips at the next work-group boundary.
    #[test]
    fn passed_deadline_trips_at_the_next_boundary() {
        let mut m = OpMeter::new(&ExecLimits::none(), None, None);
        m.charge(1).unwrap();
        // The deadline passes while the meter holds a prepaid block.
        m.deadline = Some(Instant::now());
        // Within the prepaid block nothing trips; the group boundary does.
        m.charge(1).unwrap();
        m.settle();
        let err = m.charge(1).unwrap_err();
        assert_eq!(err.limit_kind(), Some(LimitKind::Deadline));
    }
}
