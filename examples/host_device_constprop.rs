//! Host raising + host-device constant propagation (Listings 8 → 9 and
//! §VII-B of the paper).
//!
//! Builds a Sobel7-style application whose filter is a `const` array on the
//! host, shows the low-level host IR (`llvm.call`s), the raised
//! `sycl.host.*` form, and the device kernel attributes after the joint
//! analysis: constant ND-range, buffer identities, and the constant-array
//! argument that makes the filter loads constant-memory accesses.
//!
//! ```sh
//! cargo run --example host_device_constprop
//! ```

use sycl_mlir_repro::core::{Flow, FlowKind};
use sycl_mlir_repro::ir::{print_module, print_op};
use sycl_mlir_repro::sycl::facts;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = sycl_mlir_repro::benchsuite::all_workloads()
        .into_iter()
        .find(|w| w.name == "Sobel7")
        .expect("Sobel7 registered");
    let app = (spec.build)(32);
    let mut module = app.module;

    println!("== host IR before raising (Listing 8 after clang + mlir-translate) ==\n");
    let host_funcs = module.funcs_in(module.top());
    for &f in &host_funcs {
        println!("{}", print_op(&module, f));
    }

    let mut flow = Flow::new(FlowKind::SyclMlir);
    flow.dump_stages = true;
    let outcome = flow
        .compile(&mut module)
        .map_err(|e| format!("compile: {e}"))?;

    println!("\n== host IR after raising (Listing 9) ==\n");
    let raised = &outcome.dumps.first().expect("raise-host dump").1;
    for line in raised.lines().filter(|l| l.contains("sycl.host.")) {
        println!("{}", line.trim());
    }

    println!("\n== device kernel attributes after host-device propagation ==\n");
    let device = module
        .lookup_symbol(module.top(), sycl_mlir_repro::sycl::DEVICE_MODULE_SYM)
        .expect("device module");
    let kernel = module.funcs_in(device)[0];
    for (key, value) in module.op_attrs(kernel) {
        let key = module.attr_key_str(*key);
        if key.starts_with("sycl.") {
            println!("  {key} = {value}");
        }
    }
    assert!(
        facts::CONST_ARGS.get(&module, kernel).is_some(),
        "filter marked constant"
    );
    assert!(
        facts::GLOBAL_RANGE.get(&module, kernel).is_some(),
        "ND-range propagated"
    );
    println!("\nJoint analysis confirmed: constant filter + ND-range propagated to the device.");
    let _ = print_module(&module);
    Ok(())
}
