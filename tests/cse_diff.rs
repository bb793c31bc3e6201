//! CSE against its reference.
//!
//! `CsePass` finds equal expressions by a structural hash confirmed against
//! the op in the module; the pass it replaced formatted every attribute of
//! every pure op into a `String` and compared those. That one lives on as
//! `common::reference_cse`, and on every registered program under every
//! flow the two must leave byte-identical IR after every pass of the flow's
//! compile-time pipeline — CSE runs at a different point of each, on
//! different IR.

mod common;

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::benchsuite::all_workloads;
use sycl_mlir_repro::core::{Flow, FlowKind};
use sycl_mlir_repro::ir::{Module, Pass, PassStats};
use sycl_mlir_repro::transform::CsePass;

struct ReferenceCse;

impl Pass for ReferenceCse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        Ok(common::reference_cse(m))
    }
}

#[test]
fn every_pipeline_stage_of_every_program_and_flow_agrees() {
    let mut merged = 0;
    for w in all_workloads() {
        for kind in FlowKind::all() {
            let label = format!("{} [{}]", w.name, kind.name());
            let mut with_new = (w.build)(quick_size(&w)).module;
            let mut with_reference = (w.build)(quick_size(&w)).module;

            // The flow's own pipeline, dumping after every pass, once as
            // it is and once with the reference in `CsePass`'s place.
            let flow = Flow {
                kind,
                dump_stages: true,
            };
            let mut new = flow.pipeline_with("cse", || CsePass);
            let mut reference = flow.pipeline_with("cse", || ReferenceCse);
            let new_stats = new.run(&mut with_new).expect("compiles");
            let reference_stats = reference.run(&mut with_reference).expect("compiles");

            let stages = |stats: &PassStats| -> Vec<(String, bool)> {
                let per_pass = stats.per_pass.iter();
                per_pass.map(|(name, _, c)| (name.clone(), *c)).collect()
            };
            let new_stages = stages(&new_stats);
            assert_eq!(new_stages, stages(&reference_stats), "{label}");
            for (n, r) in new.dumps.iter().zip(&reference.dumps) {
                assert!(n == r, "{label}: IR differs after `{}`", n.0);
            }
            let cse_changed = |(name, changed): &&(String, bool)| name == "cse" && *changed;
            merged += new_stages.iter().filter(cse_changed).count();
        }
    }
    assert!(merged > 100, "CSE merged something in only {merged} runs");
}
