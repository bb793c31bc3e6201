//! Compilation flows (Fig. 1 of the paper).

use sycl_mlir_ir::{Module, OpId, Pass, PassManager, PassStats};
use sycl_mlir_sycl::facts;
use sycl_mlir_transform::hostdev::fold_device_queries;
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
        facts::GLOBAL_RANGE.set(module, kernel, global.to_vec());
        facts::LOCAL_RANGE.set(module, kernel, local.to_vec());
        facts::BUFFER_IDS.set(module, kernel, arg_buffer_ids.to_vec());
        // Fold the now-known queries (no accessor ranges are known, so
        // `accessor.get_range` stays), then run the JIT-level
        // optimizations.
        fold_device_queries(module, kernel);
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

    /// AdaptiveCpp's launch-time JIT folds the range queries of the launch
    /// it specialises for, and leaves `accessor.get_range`: the launch
    /// tells it no accessor ranges.
    #[test]
    fn jit_specialize_folds_the_range_queries() {
        use sycl_mlir_dialects::arith::{const_int_of, constant_int};
        use sycl_mlir_dialects::func::{build_func, build_return};
        use sycl_mlir_ir::Builder;
        use sycl_mlir_sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

        let c = ctx();
        let mut m = Module::new(&c);
        let acc = accessor_type(&c, c.f32_type(), 2, AccessMode::Read, Target::Global);
        let index = c.index_type();
        let top = m.top();
        let results = vec![index.clone(); 7];
        let (kernel, entry) = build_func(&mut m, top, "k", &[acc, nd_item_type(&c, 2)], &results);
        sycl_mlir_sycl::device::mark_kernel(&mut m, kernel);
        let (acc, item) = (m.block_arg(entry, 0), m.block_arg(entry, 1));
        let mut b = Builder::at_end(&mut m, entry);
        let queries = [
            ("sycl.nd_item.get_global_range", item, 0),
            ("sycl.nd_item.get_global_range", item, 1),
            ("sycl.nd_item.get_local_range", item, 0),
            ("sycl.nd_item.get_local_range", item, 1),
            ("sycl.nd_item.get_group_range", item, 0),
            ("sycl.nd_item.get_group_range", item, 1),
            ("sycl.accessor.get_range", acc, 1),
        ];
        let values: Vec<_> = queries
            .iter()
            .map(|&(name, obj, dim)| {
                let i32t = b.ctx().i32_type();
                let dim = constant_int(&mut b, dim, i32t);
                b.build_value(name, &[obj, dim], index.clone(), vec![])
            })
            .collect();
        build_return(&mut b, &values);

        Flow::new(FlowKind::AdaptiveCpp)
            .jit_specialize(&mut m, kernel, &[64, 48], &[16, 8], &[0, -1])
            .unwrap();
        let ret = *m.block_ops(entry).last().unwrap();
        let returned = m.op_operands(ret);
        let folded: Vec<_> = returned.iter().map(|&v| const_int_of(&m, v)).collect();
        assert_eq!(
            folded,
            [
                Some(64),
                Some(48),
                Some(16),
                Some(8),
                Some(4),
                Some(6),
                None
            ]
        );
        let get_range = m.def_op(returned[6]).unwrap();
        assert!(m.op_is(get_range, "sycl.accessor.get_range"));
    }

    #[test]
    fn flow_names() {
        assert_eq!(FlowKind::Dpcpp.name(), "DPC++");
        assert_eq!(FlowKind::AdaptiveCpp.name(), "AdaptiveCpp");
        assert_eq!(FlowKind::SyclMlir.name(), "SYCL-MLIR");
    }
}
