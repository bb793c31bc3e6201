//! Pre-decoded kernel execution plans: a register-file bytecode shared by
//! every work-item of a launch.
//!
//! The tree-walk interpreter in [`crate::interp`] re-resolves *everything*
//! on every step of every work-item: op names through `Rc<str>` string
//! dispatch, operands through `ValueId` environment lookups, attributes
//! through linear key scans, and loop re-entry through fresh `to_vec()`
//! allocations. A launch touching millions of dynamic ops pays those costs
//! millions of times for structure that never changes.
//!
//! This module lowers the structured IR of a kernel (and its callees)
//! **once per launch** into a [`KernelPlan`]:
//!
//! * every operation becomes an [`Instr`] — a plain Rust enum with an
//!   integer opcode, no strings anywhere on the execution path;
//! * every SSA value gets a dense **register slot**, assigned per function
//!   at decode time; work-items execute against a flat file of 16-byte
//!   [`Slot`]s instead of a `ValueId`-keyed environment;
//! * constants are pre-materialized ([`Instr::Const`]), `cmpi`/`cmpf`
//!   predicates and dimension operands are pre-parsed, and `func.call`
//!   targets are pre-resolved to plan-internal function indices;
//! * `scf.for`/`scf.if` structure is lowered to explicit jump and loop
//!   instructions ([`Instr::ForEnter`]/[`Instr::ForNext`]/
//!   [`Instr::BranchIfFalse`]), so loop back-edges are two integer ops.
//!
//! The plan is immutable and shared by reference across all work-items and
//! work-groups of the launch. Decoding is itself string-free on the hot
//! path: a private `OpKindTable` maps interned [`sycl_mlir_ir::OpName`]
//! ids to opcodes once per decode, and attribute keys are resolved
//! through the pre-interned [`sycl_mlir_ir::CommonKeys`].
//!
//! Any op the decoder does not understand aborts the decode with
//! [`DecodeError`], which fails the launch: the decoder's op table and the
//! tree-walk interpreter's cover the same ops, and the interpreter stays
//! behaviourally authoritative (the differential suite in
//! `tests/differential.rs` holds the two engines bit-identical).
//!
//! The module is five files along its seams: `slot` (registers), `instr`
//! (the instruction set and its one operand table), `decode`, `fuse`
//! (the matcher and the profile summary) and `exec`.

mod decode;
mod exec;
mod fuse;
mod instr;
mod slot;
#[cfg(test)]
mod tests;

pub use decode::{decode_kernel, DecodeError};
pub(crate) use exec::audit_requested;
pub use exec::{audit_on_this_thread, PlanCtx, PlanWorkGroup};
pub use fuse::{fuse_plan, profile_summary};
pub use instr::{Class, CmpPred, DimSrc, FloatBin, Instr, IntBin, ItemQ, MathOp, Role};
pub use slot::{Reg, Slot};

use crate::memory::DataVec;

/// One decoded function: flat code plus its register-file size.
#[derive(Clone, Debug)]
pub struct FuncPlan {
    /// Flat instruction stream.
    pub code: Vec<Instr>,
    /// Size of the register file a frame of this function needs.
    pub reg_count: u32,
    /// Registers of the entry block's parameters (kernel arguments for the
    /// entry function, call parameters otherwise).
    pub params: Vec<Reg>,
    /// Whether the trailing parameter is the SYCL item (kernels only).
    pub has_item_param: bool,
}

/// A dense-constant template, cloned into the pool on first use.
#[derive(Clone, Debug)]
pub struct DenseConst {
    /// The constant data, cloned into an arena on materialization.
    pub data: DataVec,
    /// Static shape, padded with 1s to rank 3.
    pub shape: [i64; 3],
    /// Number of meaningful dimensions.
    pub rank: u32,
}

/// The immutable decode of one kernel launch: the kernel function at index
/// 0 plus every transitively called function.
///
/// A plan is fully self-contained at run time (interned `Type` handles are
/// `Arc`-backed) and is shared by reference across all work-items, all
/// work-groups and — under `--threads=N` — all worker threads of a launch,
/// as well as across launches through the device's plan cache.
#[derive(Clone, Debug)]
pub struct KernelPlan {
    /// Decoded functions; index 0 is the kernel.
    pub funcs: Vec<FuncPlan>,
    /// Dense-constant templates referenced by `Instr::ConstDense`.
    pub dense_consts: Vec<DenseConst>,
    /// Number of memory-access sites (load/store instrs) across all
    /// functions; sizes the per-work-item visit counters that feed the
    /// coalescing tracker.
    pub mem_sites: u32,
    /// Number of `sycl.local.alloca` sites across all functions.
    pub local_sites: u32,
}

/// [`KernelPlan`] must stay `Send + Sync`: the parallel work-group
/// scheduler shares one plan by reference across worker threads, and the
/// device's cross-launch cache hands out `Arc<KernelPlan>`. This assertion
/// fails to compile if a non-thread-safe handle (an `Rc`, a `RefCell`)
/// ever sneaks back into the plan representation.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KernelPlan>();
};

/// Aggregate decode statistics, exposed for tests and diagnostics.
impl KernelPlan {
    /// Total instruction count across all functions (tests/diagnostics).
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// The superinstructions [`fuse_plan`] put into the plan, in code
    /// order (tests/diagnostics count them by [`Instr::mnemonic`]).
    pub fn superinstructions(&self) -> impl Iterator<Item = &Instr> {
        self.funcs
            .iter()
            .flat_map(|f| &f.code)
            .filter(|i| i.op_weight() > 1)
    }
}
