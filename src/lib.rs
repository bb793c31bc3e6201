//! # sycl-mlir-repro — facade crate
//!
//! Re-exports the whole SYCL-MLIR reproduction stack under one roof. See the
//! README for the architecture overview and the `examples/` directory for
//! runnable walkthroughs of the public API.

// The workspace lint forbids `unsafe` in every crate under crates/; this
// package does not inherit it (a test's counting allocator implements the
// unsafe `GlobalAlloc` trait), so its library forbids it here.
#![forbid(unsafe_code)]

pub use sycl_mlir_analysis as analysis;
pub use sycl_mlir_benchsuite as benchsuite;
pub use sycl_mlir_core as core;
pub use sycl_mlir_dialects as dialects;
pub use sycl_mlir_frontend as frontend;
pub use sycl_mlir_ir as ir;
pub use sycl_mlir_runtime as runtime;
pub use sycl_mlir_sim as sim;
pub use sycl_mlir_sycl as sycl;
pub use sycl_mlir_transform as transform;
