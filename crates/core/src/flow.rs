//! Compilation flows (Fig. 1 of the paper).

use sycl_mlir_ir::{Attribute, Module, OpId, Pass, PassManager, PassStats};
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

/// One stage of a compile-time pipeline: the name the pass gives itself
/// (what `pass_stats.per_pass` reports), what the pipeline description
/// adds to it, and the pass.
type StageDef = (&'static str, &'static str, fn() -> Box<dyn Pass>);

fn stage<P: Pass + Default + 'static>() -> Box<dyn Pass> {
    Box::<P>::default()
}

/// DPC++ and AdaptiveCpp compile the device code with no SYCL semantics:
/// LICM hoists only what is free of memory effects, like any LLVM
/// pipeline.
const GENERIC_STAGES: &[StageDef] = &[
    ("canonicalize", "", stage::<CanonicalizePass>),
    ("cse", "", stage::<CsePass>),
    ("licm", " (conservative)", || Box::new(LicmPass::new(false))),
];

const SYCL_MLIR_STAGES: &[StageDef] = &[
    ("raise-host", "", stage::<RaiseHostPass>),
    (
        "host-device-constprop",
        "",
        stage::<HostDeviceConstantPropagationPass>,
    ),
    ("canonicalize", "", stage::<CanonicalizePass>),
    ("cse", "", stage::<CsePass>),
    ("licm", " (with versioning)", || {
        Box::new(LicmPass::new(true))
    }),
    ("detect-reduction", "", stage::<DetectReductionPass>),
    ("loop-internalization", "", stage::<LoopInternalizationPass>),
    ("canonicalize", "", stage::<CanonicalizePass>),
    ("cse", "", stage::<CsePass>),
    ("sycl-dae", "", stage::<DeadArgumentEliminationPass>),
];

impl FlowKind {
    /// The flow's compile-time pipeline, in order: what [`Flow::compile`]
    /// runs, [`Flow::pipeline_description`] prints and
    /// [`Flow::pipeline_with`] rebuilds.
    fn stages(self) -> &'static [StageDef] {
        match self {
            FlowKind::Dpcpp | FlowKind::AdaptiveCpp => GENERIC_STAGES,
            FlowKind::SyclMlir => SYCL_MLIR_STAGES,
        }
    }
}

impl Flow {
    pub fn new(kind: FlowKind) -> Flow {
        Flow {
            kind,
            dump_stages: false,
        }
    }

    /// The passes this flow runs at compile time, as text.
    pub fn pipeline_description(&self) -> Vec<String> {
        let stages = self.kind.stages().iter();
        let mut lines: Vec<String> = stages
            .map(|(name, more, _)| format!("{name}{more}"))
            .collect();
        if self.kind == FlowKind::AdaptiveCpp {
            lines.push("(JIT at launch: nd-range constants, detect-reduction)".into());
        }
        lines
    }

    /// The flow's compile-time pipeline, each stage's pass chosen by `pick`.
    fn pipeline(&self, mut pick: impl FnMut(&StageDef) -> Box<dyn Pass>) -> PassManager<'static> {
        let mut pm = PassManager::new();
        pm.dump_after_each = self.dump_stages;
        for stage in self.kind.stages() {
            pm.add_boxed_pass(pick(stage));
        }
        pm
    }

    /// The flow's compile-time pipeline with every stage named `stage`
    /// replaced by a pass from `substitute` — a reference implementation
    /// to compare against, or a no-op to ablate the stage.
    pub fn pipeline_with<P: Pass + 'static>(
        &self,
        stage: &str,
        substitute: impl Fn() -> P,
    ) -> PassManager<'static> {
        self.pipeline(|(name, _, make)| {
            if *name == stage {
                Box::new(substitute())
            } else {
                make()
            }
        })
    }

    /// Run the compile-time pipeline on the joint module.
    ///
    /// # Errors
    ///
    /// Propagates pass failures and verifier reports.
    pub fn compile(&self, module: &mut Module) -> Result<CompileOutcome, String> {
        let mut pm = self.pipeline(|(_, _, make)| make());
        let pass_stats = pm.run(module)?;
        let mut notes = pm.notes();
        if self.kind == FlowKind::AdaptiveCpp {
            notes.push("device IR embedded for JIT specialization at launch".into());
        }
        Ok(CompileOutcome {
            pass_stats,
            notes,
            dumps: pm.dumps,
        })
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

    /// The stage names `pass_stats.per_pass` reports are the ones the
    /// flow's stage list carries — the passes' own — and for SYCL-MLIR the
    /// ones the repo benchmark reads them by.
    #[test]
    fn sycl_mlir_stage_names() {
        for kind in FlowKind::all() {
            let mut m = Module::new(&ctx());
            let out = Flow::new(kind).compile(&mut m).unwrap();
            let ran: Vec<&str> = out.pass_stats.per_pass.iter().map(|s| &*s.0).collect();
            let listed: Vec<&str> = kind.stages().iter().map(|s| s.0).collect();
            assert_eq!(ran, listed, "{}", kind.name());
        }
        let names: Vec<&str> = SYCL_MLIR_STAGES.iter().map(|s| s.0).collect();
        assert_eq!(
            names,
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
