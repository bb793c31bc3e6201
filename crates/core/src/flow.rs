//! Compilation flows (Fig. 1 of the paper).

use sycl_mlir_ir::{Attribute, Module, OpId, PassManager, PassStats};
use sycl_mlir_transform::{
    CanonicalizePass, CsePass, DeadArgumentEliminationPass, DetectReductionPass,
    HostDeviceConstantPropagationPass, LicmPass, LoopInternalizationPass, RaiseHostPass,
};

/// Which SYCL implementation's compiler to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FlowKind {
    /// Intel's LLVM-based DPC++ (SMCP, device compiled in isolation).
    Dpcpp,
    /// AdaptiveCpp (SSCP: generic AOT + JIT specialization at launch).
    AdaptiveCpp,
    /// The paper's MLIR-based compiler (joint host/device compilation).
    SyclMlir,
}

impl FlowKind {
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Dpcpp => "DPC++",
            FlowKind::AdaptiveCpp => "AdaptiveCpp",
            FlowKind::SyclMlir => "SYCL-MLIR",
        }
    }

    /// All three, in the paper's presentation order.
    pub fn all() -> [FlowKind; 3] {
        [FlowKind::Dpcpp, FlowKind::AdaptiveCpp, FlowKind::SyclMlir]
    }
}

/// Summary of a compilation.
#[derive(Debug, Default, Clone)]
pub struct CompileOutcome {
    pub pass_stats: PassStats,
    /// Human-readable notes per optimization (counts of reductions
    /// rewritten, refs prefetched, …).
    pub notes: Vec<String>,
    /// IR dumps per pipeline stage, when requested (Fig. 1 reproduction).
    pub dumps: Vec<(String, String)>,
}

/// A compiler for one [`FlowKind`].
#[derive(Clone, Copy, Debug)]
pub struct Flow {
    pub kind: FlowKind,
    /// Capture IR after every pass (used by the Fig. 1 harness).
    pub dump_stages: bool,
}

impl Flow {
    pub fn new(kind: FlowKind) -> Flow {
        Flow {
            kind,
            dump_stages: false,
        }
    }

    /// Names of the passes this flow runs at compile time.
    pub fn pipeline_description(&self) -> Vec<&'static str> {
        match self.kind {
            FlowKind::Dpcpp => vec!["canonicalize", "cse", "licm (conservative)"],
            FlowKind::AdaptiveCpp => {
                vec![
                    "canonicalize",
                    "cse",
                    "(JIT at launch: nd-range constants, detect-reduction)",
                ]
            }
            FlowKind::SyclMlir => vec![
                "raise-host",
                "host-device-constprop",
                "canonicalize",
                "cse",
                "licm (with versioning)",
                "detect-reduction",
                "loop-internalization",
                "canonicalize",
                "cse",
                "sycl-dae",
            ],
        }
    }

    /// Run the compile-time pipeline on the joint module.
    ///
    /// # Errors
    ///
    /// Propagates pass failures and verifier reports.
    pub fn compile(&self, module: &mut Module) -> Result<CompileOutcome, String> {
        let mut outcome = CompileOutcome::default();
        match self.kind {
            FlowKind::Dpcpp => {
                let mut pm = PassManager::new();
                pm.add_pass(CanonicalizePass);
                pm.add_pass(CsePass);
                // No SYCL semantics: only memory-effect-free hoisting.
                pm.add_pass(LicmPass::new(false));
                self.run_pipeline(pm, module, &mut outcome)?;
            }
            FlowKind::AdaptiveCpp => {
                let mut pm = PassManager::new();
                pm.add_pass(CanonicalizePass);
                pm.add_pass(CsePass);
                // Generic LICM (no SYCL semantics), like any LLVM pipeline.
                pm.add_pass(LicmPass::new(false));
                self.run_pipeline(pm, module, &mut outcome)?;
                outcome
                    .notes
                    .push("device IR embedded for JIT specialization at launch".into());
            }
            FlowKind::SyclMlir => {
                let mut raise = RaiseHostPass::default();
                let mut constprop = HostDeviceConstantPropagationPass::default();
                let mut licm = LicmPass::new(true);
                let mut reduction = DetectReductionPass::default();
                let mut internalize = LoopInternalizationPass::default();
                let mut dae = DeadArgumentEliminationPass::default();

                // The passes with statistics are lent to the pipeline and
                // read back for the notes below.
                let mut pm = PassManager::new();
                pm.add_pass(&mut raise);
                pm.add_pass(&mut constprop);
                pm.add_pass(CanonicalizePass);
                pm.add_pass(CsePass);
                pm.add_pass(&mut licm);
                pm.add_pass(&mut reduction);
                pm.add_pass(&mut internalize);
                pm.add_pass(CanonicalizePass);
                pm.add_pass(CsePass);
                pm.add_pass(&mut dae);
                self.run_pipeline(pm, module, &mut outcome)?;

                outcome.notes.push(format!(
                    "raised {} constructors, {} kernel schedules ({} unmatched runtime calls)",
                    raise.stats.constructors_raised,
                    raise.stats.kernels_raised,
                    raise.stats.unmatched_sycl_calls
                ));
                outcome.notes.push(format!(
                    "propagated {} nd-ranges, {} scalars, {} const arrays; folded {} getters",
                    constprop.stats.nd_ranges_propagated,
                    constprop.stats.scalars_propagated,
                    constprop.stats.const_array_args,
                    constprop.stats.getters_folded
                ));
                outcome.notes.push(format!(
                    "licm: {} pure, {} loads hoisted, {} loops guarded, {} runtime-versioned",
                    licm.stats.pure_hoisted,
                    licm.stats.loads_hoisted,
                    licm.stats.guarded_loops,
                    licm.stats.versioned_loops
                ));
                outcome
                    .notes
                    .push(format!("reductions rewritten: {}", reduction.rewritten));
                outcome.notes.push(format!(
                    "internalized {} loops ({} refs prefetched, {} skipped divergent, {} stores skipped)",
                    internalize.stats.internalized_loops,
                    internalize.stats.prefetched_refs,
                    internalize.stats.skipped_divergent,
                    internalize.stats.skipped_stores
                ));
                outcome
                    .notes
                    .push(format!("dead kernel arguments: {}", dae.dead_args_found));
            }
        }
        Ok(outcome)
    }

    /// Run `pm` over the module and move its statistics and stage dumps into
    /// `outcome`. Consumes the pipeline, which ends its borrows of the passes.
    fn run_pipeline(
        &self,
        mut pm: PassManager<'_>,
        module: &mut Module,
        outcome: &mut CompileOutcome,
    ) -> Result<(), String> {
        pm.dump_after_each = self.dump_stages;
        outcome.pass_stats = pm.run(module)?;
        outcome.dumps = pm.dumps;
        Ok(())
    }

    /// AdaptiveCpp's launch-time JIT specialization (§IX): the runtime
    /// knows the concrete ND-range and argument buffer identities, injects
    /// them, and re-optimizes the kernel. Returns whether anything changed.
    ///
    /// # Errors
    ///
    /// Propagates pass failures.
    pub fn jit_specialize(
        &self,
        module: &mut Module,
        kernel: OpId,
        global: &[i64],
        local: &[i64],
        arg_buffer_ids: &[i64],
    ) -> Result<bool, String> {
        debug_assert_eq!(self.kind, FlowKind::AdaptiveCpp);
        module.set_attr(
            kernel,
            sycl_mlir_sycl::KERNEL_GLOBAL_RANGE_ATTR,
            Attribute::DenseI64(global.to_vec()),
        );
        module.set_attr(
            kernel,
            sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR,
            Attribute::DenseI64(local.to_vec()),
        );
        module.set_attr(
            kernel,
            sycl_mlir_analysis::alias::ARG_BUFFER_IDS_ATTR,
            Attribute::DenseI64(arg_buffer_ids.to_vec()),
        );
        // Fold the now-known queries, then run the JIT-level optimizations.
        fold_range_queries(module, kernel);
        let mut pm = PassManager::new();
        pm.add_pass(CanonicalizePass);
        pm.add_pass(CsePass);
        // LLVM-level LICM + load/store promotion: with run-time pointer
        // identities, the JIT can prove the accumulator disjoint and
        // promote it to a register (what gives AdaptiveCpp its polybench
        // wins, e.g. ~3x on SYR2K, §VIII).
        pm.add_pass(LicmPass::new(false));
        pm.add_pass(DetectReductionPass::default());
        pm.add_pass(CanonicalizePass);
        let stats = pm.run(module)?;
        Ok(stats.any_changed())
    }
}

/// Fold `get_global_range`/`get_local_range`/`get_group_range` against the
/// kernel's (JIT-known) range attributes.
fn fold_range_queries(m: &mut Module, kernel: OpId) {
    let global = m
        .attr(kernel, sycl_mlir_sycl::KERNEL_GLOBAL_RANGE_ATTR)
        .and_then(|a| a.as_dense_i64())
        .map(|v| v.to_vec());
    let local = m
        .attr(kernel, sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR)
        .and_then(|a| a.as_dense_i64())
        .map(|v| v.to_vec());
    let mut targets = Vec::new();
    m.walk(kernel, &mut |op| {
        let name = m.op_name_str(op);
        let dim = m
            .op_operands(op)
            .get(1)
            .and_then(|&d| sycl_mlir_dialects::arith::const_int_of(m, d))
            .unwrap_or(-1) as usize;
        let value = match &*name {
            "sycl.nd_item.get_global_range" | "sycl.item.get_range" => {
                global.as_ref().and_then(|g| g.get(dim).copied())
            }
            "sycl.nd_item.get_local_range" => local.as_ref().and_then(|l| l.get(dim).copied()),
            "sycl.nd_item.get_group_range" => match (&global, &local) {
                (Some(g), Some(l)) => g.get(dim).zip(l.get(dim)).map(|(&g, &l)| g / l),
                _ => None,
            },
            _ => None,
        };
        if let Some(v) = value {
            targets.push((op, v));
        }
        sycl_mlir_ir::WalkControl::Advance
    });
    for (op, value) in targets {
        let block = m.op_parent_block(op).expect("attached");
        let index = m.op_index_in_block(op);
        let name = m.ctx().op("arith.constant");
        let ty = m.value_type(m.op_result(op, 0));
        let cst = m.create_op(
            name,
            &[],
            &[ty],
            vec![("value".into(), Attribute::Int(value))],
        );
        m.insert_op(block, index, cst);
        let new_v = m.op_result(cst, 0);
        m.replace_all_uses(m.op_result(op, 0), new_v);
        m.erase_op(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_ir::Context;

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    #[test]
    fn pipelines_run_on_empty_module() {
        let c = ctx();
        for kind in FlowKind::all() {
            let mut m = Module::new(&c);
            let flow = Flow::new(kind);
            flow.compile(&mut m).unwrap();
            assert!(!flow.pipeline_description().is_empty());
        }
    }

    /// The stage names `pass_stats.per_pass` reports are what the passes
    /// call themselves; the repo benchmark reads them by these names.
    #[test]
    fn sycl_mlir_stage_names() {
        let mut m = Module::new(&ctx());
        let out = Flow::new(FlowKind::SyclMlir).compile(&mut m).unwrap();
        let stages: Vec<&str> = out.pass_stats.per_pass.iter().map(|s| &*s.0).collect();
        assert_eq!(
            stages,
            [
                "raise-host",
                "host-device-constprop",
                "canonicalize",
                "cse",
                "licm",
                "detect-reduction",
                "loop-internalization",
                "canonicalize",
                "cse",
                "sycl-dae",
            ]
        );
    }

    #[test]
    fn flow_names() {
        assert_eq!(FlowKind::Dpcpp.name(), "DPC++");
        assert_eq!(FlowKind::AdaptiveCpp.name(), "AdaptiveCpp");
        assert_eq!(FlowKind::SyclMlir.name(), "SYCL-MLIR");
    }
}
