//! The analytic cost model.
//!
//! Abstract cycles per dynamic event; the defaults approximate the relative
//! magnitudes on a data-centre GPU (global DRAM transaction ≫ local/SLM
//! access ≫ ALU op). Absolute numbers are irrelevant for the reproduction —
//! the paper's figures are *speedups*, driven by the ratios.

use crate::memory::MemId;
use crate::value::{MemRefVal, Space};

/// Tunable cost constants.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cycles per 64-byte global memory transaction.
    pub global_transaction: f64,
    /// Cycles per work-group local memory access.
    pub local_access: f64,
    /// Cycles per constant-cache access (host-propagated constant arrays).
    pub constant_access: f64,
    /// Cycles per private (register/stack) access.
    pub private_access: f64,
    /// Cycles per arithmetic / query op.
    pub arith: f64,
    /// Cycles per work-group barrier.
    pub barrier: f64,
    /// Bytes per global transaction.
    pub transaction_bytes: usize,
    /// Work-items coalesced together (sub-group size).
    pub subgroup_size: usize,
    /// Compute units executing work-groups in parallel (PVC 1100 ≈ 56 Xe
    /// cores).
    pub compute_units: usize,
    /// Host-side cycles per kernel launch.
    pub launch_base: f64,
    /// Host-side cycles per kernel argument at launch (what DAE saves).
    pub launch_per_arg: f64,
    /// One-time JIT compilation cycles for SSCP flows (per kernel).
    pub jit_compile: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            global_transaction: 16.0,
            local_access: 1.0,
            constant_access: 0.5,
            private_access: 0.5,
            arith: 1.0,
            barrier: 2.0,
            transaction_bytes: 64,
            subgroup_size: 16,
            compute_units: 56,
            launch_base: 20_000.0,
            launch_per_arg: 1_500.0,
            jit_compile: 50_000_000.0,
        }
    }
}

/// Dynamic event counters for one kernel execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Arithmetic and position-query ops executed.
    pub arith_ops: u64,
    /// Global-memory element accesses.
    pub global_accesses: u64,
    /// Coalesced global-memory transactions (64-byte segments).
    pub global_transactions: u64,
    /// Work-group local memory accesses.
    pub local_accesses: u64,
    /// Constant-cache accesses (host-propagated constant arrays).
    pub constant_accesses: u64,
    /// Private (register/stack) memory accesses.
    pub private_accesses: u64,
    /// Work-group barriers executed.
    pub barriers: u64,
    /// Work-groups launched.
    pub work_groups: u64,
    /// Work-items launched.
    pub work_items: u64,
    /// Simulated device cycles (excludes host launch overhead).
    pub device_cycles: f64,
}

impl ExecStats {
    /// Accumulate `other`'s counters into these.
    pub fn add(&mut self, other: &ExecStats) {
        self.arith_ops += other.arith_ops;
        self.global_accesses += other.global_accesses;
        self.global_transactions += other.global_transactions;
        self.local_accesses += other.local_accesses;
        self.constant_accesses += other.constant_accesses;
        self.private_accesses += other.private_accesses;
        self.barriers += other.barriers;
        self.work_groups += other.work_groups;
        self.work_items += other.work_items;
        self.device_cycles += other.device_cycles;
    }

    /// Device cycles implied by the counters under `cost`, assuming the
    /// counters describe `work_groups` homogeneous work-groups spread over
    /// the machine's compute units.
    pub fn charge(&mut self, cost: &CostModel) {
        let serial = self.arith_ops as f64 * cost.arith
            + self.global_transactions as f64 * cost.global_transaction
            + self.local_accesses as f64 * cost.local_access
            + self.constant_accesses as f64 * cost.constant_access
            + self.private_accesses as f64 * cost.private_access
            + self.barriers as f64 * cost.barrier;
        let groups = self.work_groups.max(1) as f64;
        let waves = (groups / cost.compute_units as f64).ceil();
        self.device_cycles = serial / groups * waves;
    }
}

/// The memory half of the cost model, the one access counter of both engines
/// (`SiteLog::event`):
/// counts an access by address space and, for global memory, decides
/// whether it opens a new transaction. A sub-group's items that reach one
/// access site for the `n`-th time ("instance" `n`; each item counts its
/// own visits) coalesce: the first of them to touch a `transaction_bytes`
/// segment pays for it, the others ride along.
///
/// First touch is decided by a log per (sub-group, site), indexed by
/// instance. An item records each (site, instance) once and a sub-group
/// has `subgroup_size` items, so an entry is a count and at most that
/// many segments, scanned linearly — exact, no hashing, no overflow set.
pub struct Coalescer {
    /// `log2(transaction_bytes)` when that is a power of two.
    shift: Option<u32>,
    transaction_bytes: i64,
    /// Words per log entry: the count, then up to `subgroup_size` segments.
    stride: usize,
    /// `logs[subgroup][site]`, one entry per instance; storage survives
    /// [`Self::reset`].
    logs: Vec<Vec<Vec<u64>>>,
    /// The `(subgroup, site)` logs written since the last reset.
    touched: Vec<(u32, u32)>,
    /// The set the log replaced, kept beside it in debug builds: every
    /// `record` of every `cargo test` run must agree with it.
    #[cfg(debug_assertions)]
    reference: std::collections::HashSet<(u32, u32, u32, u64)>,
}

thread_local! {
    /// The cleared logs of the thread's last tracker, for its next one: a
    /// tracker lives for one graph run, and growing ~50 small buffers anew
    /// per run cost `exec_irregular` 4% of its time and 1 MB of heap.
    static SPARE_LOGS: std::cell::Cell<Vec<Vec<Vec<u64>>>> = const { std::cell::Cell::new(Vec::new()) };
}

impl Drop for Coalescer {
    fn drop(&mut self) {
        self.reset();
        let logs = std::mem::take(&mut self.logs);
        let words = |log: &Vec<u64>| 3 + log.capacity();
        // Up to 256 KB: a deep loop's logs (GEMM's are 1 MB) are not held.
        if logs.iter().flatten().map(words).sum::<usize>() <= 32 << 10 {
            let _ = SPARE_LOGS.try_with(|spare| spare.set(logs));
        }
    }
}

impl Coalescer {
    /// An empty tracker for `cost`'s transaction width and sub-group size.
    pub fn new(cost: &CostModel) -> Coalescer {
        let bytes = cost.transaction_bytes;
        Coalescer {
            shift: bytes.is_power_of_two().then(|| bytes.trailing_zeros()),
            transaction_bytes: bytes as i64,
            stride: 1 + cost.subgroup_size,
            logs: SPARE_LOGS.take(),
            touched: Vec::new(),
            #[cfg(debug_assertions)]
            reference: Default::default(),
        }
    }

    /// The log of `(site, subgroup)`, for the accesses one dispatch makes
    /// to it: `site` is the access site (an `OpId` index or a plan site
    /// id, by engine), `subgroup` the accessing items' sub-group.
    #[inline]
    pub(crate) fn site(&mut self, site: u32, subgroup: u32) -> SiteLog<'_> {
        let (sg, st) = (subgroup as usize, site as usize);
        if self.logs.len() <= sg {
            self.logs.resize_with(sg + 1, Vec::new);
        }
        if self.logs[sg].len() <= st {
            self.logs[sg].resize_with(st + 1, Vec::new);
        }
        SiteLog {
            of: self,
            key: (subgroup, site),
            entry: (0, 0),
            last: 0,
        }
    }

    /// Forget the work-group's accesses, keeping the logs' storage.
    pub(crate) fn reset(&mut self) {
        for (subgroup, site) in self.touched.drain(..) {
            self.logs[subgroup as usize][site as usize].clear();
        }
        #[cfg(debug_assertions)]
        self.reference.clear();
    }
}

/// One `(sub-group, site)` log of a [`Coalescer`], held for the accesses
/// of one dispatch: the lanes of a sub-group that reach the site at the
/// same instance share the entry, which is found once.
pub(crate) struct SiteLog<'a> {
    of: &'a mut Coalescer,
    /// `(subgroup, site)`, as `touched` names the log.
    key: (u32, u32),
    /// The instance whose entry was found last, and where it starts.
    entry: (u32, usize),
    /// The segment recorded last, at that instance: the next lane's, more
    /// often than not.
    last: u64,
}

impl SiteLog<'_> {
    /// Count one item's access to element `addr` of the buffer behind
    /// `mr`, whose elements are `elem_bytes` wide; `visits` is that item's
    /// visit counter for the site.
    #[inline(always)]
    pub(crate) fn event(
        &mut self,
        stats: &mut ExecStats,
        visits: &mut u32,
        mr: &MemRefVal,
        addr: i64,
        elem_bytes: usize,
    ) {
        match mr.space {
            Space::Private => stats.private_accesses += 1,
            Space::Constant => stats.constant_accesses += 1,
            Space::Local => stats.local_accesses += 1,
            Space::Global => {
                stats.global_accesses += 1;
                *visits += 1;
                let segment = self.segment(mr.mem, addr, elem_bytes);
                if self.record(*visits, segment) {
                    stats.global_transactions += 1;
                }
            }
        }
    }

    /// The transaction segment of element `addr`: a shift when the width
    /// is a power of two and the byte address non-negative, the same
    /// (truncating) division otherwise.
    #[inline(always)]
    fn segment(&self, mem: MemId, addr: i64, elem_bytes: usize) -> u64 {
        let byte = addr.wrapping_mul(elem_bytes as i64);
        let within = match self.of.shift {
            Some(shift) if byte >= 0 => byte >> shift,
            _ => byte / self.of.transaction_bytes,
        };
        ((mem.0 as u64) << 40) | within as u64
    }

    /// Whether `segment` is new to the sub-group at `instance >= 1`.
    #[inline(always)]
    fn record(&mut self, instance: u32, segment: u64) -> bool {
        let (stride, (subgroup, site)) = (self.of.stride, self.key);
        if self.entry.0 == instance && segment == self.last {
            return false;
        }
        let log = &mut self.of.logs[subgroup as usize][site as usize];
        if self.entry.0 != instance {
            if log.is_empty() {
                self.of.touched.push(self.key);
            }
            let at = (instance as usize - 1) * stride;
            if log.len() < at + stride {
                log.resize(at + stride, 0);
            }
            self.entry = (instance, at);
        }
        self.last = segment;
        let entry = &mut log[self.entry.1..self.entry.1 + stride];
        let held = entry[0] as usize;
        let new = !entry[1..=held].contains(&segment);
        if new {
            entry[held + 1] = segment;
            entry[0] += 1;
        }
        #[cfg(debug_assertions)]
        assert_eq!(
            new,
            self.of.reference.insert((site, instance, subgroup, segment)),
            "coalescing log disagrees with the reference set at site {site}, instance {instance}, sub-group {subgroup}, segment {segment:#x}"
        );
        new
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_scales_with_waves() {
        let cost = CostModel {
            compute_units: 4,
            ..CostModel::default()
        };
        let mut s = ExecStats {
            arith_ops: 800,
            work_groups: 8,
            ..ExecStats::default()
        };
        s.charge(&cost);
        // 8 groups over 4 CUs = 2 waves; 100 arith per group.
        assert_eq!(s.device_cycles, 200.0);
        let mut s1 = ExecStats {
            arith_ops: 800,
            work_groups: 4,
            ..ExecStats::default()
        };
        s1.charge(&cost);
        assert_eq!(s1.device_cycles, 200.0);
    }

    #[test]
    fn global_traffic_dominates_defaults() {
        let cost = CostModel::default();
        assert!(cost.global_transaction > 8.0 * cost.local_access);
        assert!(cost.local_access >= cost.arith);
    }

    /// Every `record` answers as the set the log replaced does — over items
    /// that visit sites a varying number of times, sub-groups that share
    /// sites and segments, and a reset between work-groups that must forget
    /// everything (an odd group replays the accesses of the one before).
    #[test]
    fn log_agrees_with_the_reference_set_on_every_record() {
        fn next(rng: &mut u64, below: u64) -> u64 {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % below
        }
        let cost = CostModel {
            subgroup_size: 4,
            ..CostModel::default()
        };
        let mut log = Coalescer::new(&cost);
        let (mut records, mut new) = (0, 0);
        for group in 0..6_u64 {
            let mut reference = std::collections::HashSet::new();
            let rng = &mut (0x9E37_79B9_7F4A_7C15 + group / 2);
            for item in 0..12_u32 {
                let subgroup = item / cost.subgroup_size as u32;
                for site in [0_u32, 3, 1] {
                    for instance in 1..=1 + next(rng, 5) as u32 {
                        // Few segments, so ride-alongs are common.
                        let segment = next(rng, 6) | ((site as u64 % 2) << 40);
                        let expect = reference.insert((site, instance, subgroup, segment));
                        let got = log.site(site, subgroup).record(instance, segment);
                        assert_eq!(got, expect, "group {group}, item {item}, site {site}");
                        records += 1;
                        new += expect as u32;
                    }
                }
            }
            log.reset();
        }
        assert!(new > 100 && records - new > 100, "{new} new of {records}");
    }

    /// The segment of an address is `(addr * bytes) / width` whatever the
    /// width and the sign: shifted where that is the same thing.
    #[test]
    fn segment_is_the_truncating_division() {
        for (width, bytes) in [(64_usize, 4_usize), (64, 8), (48, 4), (1, 8), (128, 4)] {
            let cost = CostModel {
                transaction_bytes: width,
                ..CostModel::default()
            };
            let mut log = Coalescer::new(&cost);
            for addr in [0_i64, 1, 15, 16, 17, 1 << 33, -1, -16, -17] {
                let expect = (7 << 40) | ((addr * bytes as i64) / width as i64) as u64;
                assert_eq!(log.site(0, 0).segment(MemId(7), addr, bytes), expect);
            }
        }
    }
}
