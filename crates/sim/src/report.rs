//! The device report: everything a [`Device`](crate::Device) counts, as
//! one plain value — plan-cache traffic, the decode-time verifier's
//! totals, and the `--profile` execution sums. Its `Display`
//! is the `--profile=on` dump; a caller that wants a number reads a field.
//! This module is the only reader of the flat count layout of
//! [`PlanCtx::take_profile`](crate::plan::PlanCtx::take_profile).

use crate::plan::{Instr, KernelPlan};
use std::collections::BTreeMap;
use std::fmt;

/// A snapshot of what one device has counted so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceReport {
    /// Launches that reused a cached decode outcome (including a cached
    /// decode error or rejection).
    pub cache_hits: u64,
    /// Launches that ran the decoder (first launch, or the module mutated
    /// in between).
    pub cache_misses: u64,
    /// The decode-time verifier's totals.
    pub verify: VerifyCounters,
    /// `--profile` runs: lane-instructions executed per opcode mnemonic.
    pub ops: BTreeMap<&'static str, u64>,
    /// `--profile` runs: executions of dataflow-adjacent instruction pairs
    /// (the second reads the first's result and is no jump target: the
    /// shape [`fuse_plan`](crate::fuse_plan) fuses, so the hottest pairs
    /// are the ranked candidates for the next superinstruction).
    pub pairs: BTreeMap<(&'static str, &'static str), u64>,
    /// `--profile` runs: per kernel name, the lane-instructions executed
    /// and the dispatches that executed them.
    pub kernels: BTreeMap<String, LaneSums>,
}

/// Lane-instructions and the dispatches that executed them: how well a
/// kernel's lanes stayed together (the lockstep gauge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneSums {
    /// Instructions executed, counted once per lane.
    pub lanes: u64,
    /// Instruction dispatches, each covering one or more lanes.
    pub dispatches: u64,
}

/// Aggregated decode-time verifier statistics of one device
/// ([`DeviceReport::verify`]): what the static-analysis passes proved
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
    /// Total wall time spent in the verifier and the fusion that
    /// follows it, in nanoseconds.
    pub verify_ns: u64,
    /// Kernels the plan engine refused: recursive, not decodable, or
    /// faulted by the verifier.
    pub rejected: u64,
    /// Individual verifier findings, over the plans refused for them;
    /// their launches fail with the first (`plan verify error`).
    pub lint_findings: u64,
}

impl DeviceReport {
    /// Fold one profiled launch of `plan`, kernel `kernel`, into the
    /// `--profile` sums. `counts` is laid out as
    /// [`PlanCtx::take_profile`](crate::plan::PlanCtx::take_profile) says:
    /// lanes per instruction, then dispatches.
    pub(crate) fn add_profile(&mut self, kernel: &str, plan: &KernelPlan, counts: &[u64]) {
        let code = &plan.code;
        let (lanes, dispatches) = counts.split_at(code.len());
        let row = self.kernels.entry(kernel.to_string()).or_default();
        row.lanes += lanes.iter().sum::<u64>();
        row.dispatches += dispatches[0];
        let mut is_target = vec![false; code.len() + 1];
        for t in code.iter().filter_map(Instr::target) {
            is_target[t as usize] = true;
        }
        for (i, instr) in code.iter().enumerate() {
            let c = lanes[i];
            if c == 0 {
                continue;
            }
            *self.ops.entry(instr.mnemonic()).or_insert(0) += c;
            if i + 1 >= code.len() || is_target[i + 1] {
                continue;
            }
            let next = &code[i + 1];
            let c2 = lanes[i + 1];
            if c2 == 0 {
                continue;
            }
            let mut adjacent = false;
            instr.writes(|d| next.reads(|r| adjacent |= r == d));
            if adjacent {
                *self
                    .pairs
                    .entry((instr.mnemonic(), next.mnemonic()))
                    .or_insert(0) += c.min(c2);
            }
        }
    }
}

impl fmt::Display for DeviceReport {
    /// The `--profile=on` dump: executions per opcode, the hottest
    /// dataflow-adjacent pairs, the lockstep gauge per kernel and for the
    /// sweep, then the verifier's totals. Empty until a
    /// profiled plan-engine launch ran.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return Ok(());
        }
        writeln!(f, "== instruction profile (plan engine) ==")?;
        writeln!(f, "{:>16}  opcode", "executions")?;
        for (name, count) in by_count(&self.ops) {
            writeln!(f, "{count:>16}  {name}")?;
        }
        if !self.pairs.is_empty() {
            let head = "== hottest dataflow-adjacent pairs (fusion candidates) ==";
            writeln!(f, "\n{head}\n{:>16}  pair", "executions")?;
            for ((a, b), count) in by_count(&self.pairs).into_iter().take(16) {
                writeln!(f, "{count:>16}  {a} -> {b}")?;
            }
        }
        // The lockstep gauge: how many dispatches executed the
        // lane-instructions above, and so how well lanes stayed together.
        let head = "  lane-instructions        dispatches  lanes/dispatch  kernel";
        writeln!(f, "\n== lockstep dispatch ==\n{head}")?;
        let mut sweep = LaneSums::default();
        for k in self.kernels.values() {
            sweep.lanes += k.lanes;
            sweep.dispatches += k.dispatches;
        }
        let rows = self.kernels.iter().map(|(k, &s)| (k.as_str(), s));
        for (name, LaneSums { lanes, dispatches }) in [("(sweep)", sweep)].into_iter().chain(rows) {
            let mean = lanes as f64 / dispatches.max(1) as f64;
            writeln!(f, "{lanes:>19}{dispatches:>18}{mean:>16.2}  {name}")?;
        }
        let vs = &self.verify;
        if vs.plans > 0 || vs.rejected > 0 {
            writeln!(f, "\n== static analysis ==")?;
            writeln!(f, "{:>16}  plans verified", vs.plans)?;
            let (proven, total) = (vs.sites_proven, vs.sites_total);
            writeln!(f, "{proven:>10}/{total:<5}  access sites proven in-bounds")?;
            writeln!(f, "{:>16}  verify time (us)", vs.verify_ns / 1_000)?;
            if vs.rejected > 0 {
                writeln!(f, "{:>16}  plans refused", vs.rejected)?;
            }
            if vs.lint_findings > 0 {
                writeln!(f, "{:>16}  lint findings", vs.lint_findings)?;
            }
        }
        Ok(())
    }
}

/// `map`'s entries by descending count: a stable sort, so ties keep the
/// map's key order.
fn by_count<K: Copy>(map: &BTreeMap<K, u64>) -> Vec<(K, u64)> {
    let mut rows: Vec<(K, u64)> = map.iter().map(|(&k, &n)| (k, n)).collect();
    rows.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    rows
}
