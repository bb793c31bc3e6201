//! # sycl-mlir-runtime — the SYCL runtime substrate
//!
//! The paper keeps "the runtime component of the SYCL implementation …
//! completely unchanged" across compilers (§VIII); this crate is that
//! shared runtime:
//!
//! * [`buffer`] — buffers (the buffer/accessor model of §II-A) and USM
//!   allocations, with host↔device transfer bookkeeping; a seeded input
//!   is a recipe that a run executes when it uploads the allocation;
//! * [`queue`] — queues, command groups and the dependency-tracking
//!   scheduler (RAW/WAR/WAW edges between command groups over buffers);
//! * [`hostgen`] — emits the low-level `llvm`-dialect host IR a
//!   clang + `mlir-translate` pipeline would produce for the recorded
//!   command groups (the input to host raising, §VII-A);
//! * [`exec`] — compiles the joint module with a [`sycl_mlir_core::Flow`]
//!   and executes command groups on the simulated device, honouring
//!   dead-argument elimination at launch and performing AdaptiveCpp's JIT
//!   specialization on first launch.

#![deny(missing_docs)]

pub mod buffer;
pub mod exec;
pub mod hostgen;
pub mod queue;

pub use buffer::{Alloc, BufferId, SyclRuntime, UsmId};
pub use exec::{compile_program, Program, RunReport};
pub use queue::{CgArg, CommandGroup, Handler, HostOp, Queue};
