//! # sycl-mlir-sycl — the SYCL dialect
//!
//! The central contribution of the paper (§III–§IV): MLIR types and
//! operations capturing the SYCL programming model, on the device *and* the
//! host side.
//!
//! * [`types`] — `!sycl.id<n>`, `!sycl.range<n>`, `!sycl.item<n>`,
//!   `!sycl.nd_item<n>`, `!sycl.nd_range<n>`, `!sycl.group<n>`,
//!   `!sycl.accessor<elem, n, mode, target>` and `!sycl.buffer<elem, n>`.
//! * [`device`] — work-item queries (`sycl.nd_item.get_global_id`, …),
//!   accessor subscripting, object constructors and the work-group barrier.
//!   Query ops carry the `NON_UNIFORM_SOURCE` trait consumed by the
//!   uniformity analysis (§V-C) and declare memory effects consumed by the
//!   reaching-definition analysis (§V-B).
//! * [`host`] — `sycl.host.constructor` and `sycl.host.schedule_kernel`,
//!   the targets of the host raising pass (§VII-A, Listing 9).
//! * [`facts`] — the launch facts host-device propagation (§VII-B) and
//!   AdaptiveCpp's launch-time JIT (§IX) write onto a kernel: global and
//!   local range, buffer ids, accessor ranges, constant-array and dead
//!   arguments. It is the one owner of their attribute keys and shapes;
//!   every pass, analysis and runtime reader goes through its getters.
//!
//! One deliberate deviation from the paper's listings: SYCL objects (`id`,
//! `range`, …) are modelled as *SSA values* rather than in-memory objects
//! behind `memref`s. Polygeist emits the memref form because C++ objects live
//! in allocas; the value form carries identical information with simpler
//! use-def chains. DESIGN.md records this substitution.
//!
//! ```
//! use sycl_mlir_ir::Context;
//! let ctx = Context::new();
//! sycl_mlir_dialects::register_all(&ctx);
//! sycl_mlir_sycl::register(&ctx);
//! let acc = sycl_mlir_sycl::types::accessor_type(
//!     &ctx,
//!     ctx.f32_type(),
//!     2,
//!     sycl_mlir_sycl::types::AccessMode::Read,
//!     sycl_mlir_sycl::types::Target::Global,
//! );
//! assert_eq!(acc.to_string(), "!sycl.accessor<f32, 2, read, global>");
//! ```

pub mod device;
pub mod facts;
pub mod host;
pub mod types;

use sycl_mlir_ir::Context;

/// The SYCL dialect registration handle.
pub struct SyclDialect;

impl sycl_mlir_ir::Dialect for SyclDialect {
    fn name(&self) -> &'static str {
        "sycl"
    }

    fn register(&self, ctx: &Context) {
        types::register_type_parser(ctx);
        device::register_ops(ctx);
        host::register_ops(ctx);
    }
}

/// Register the SYCL dialect (idempotent).
pub fn register(ctx: &Context) {
    ctx.register_dialect(&SyclDialect);
}

/// Attribute key marking a `func.func` as a SYCL kernel entry point.
pub const KERNEL_ATTR: &str = "sycl.kernel";

/// Symbol name of the nested device module inside a joint host/device
/// module (Fig. 1's dashed path).
pub const DEVICE_MODULE_SYM: &str = "device";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let ctx = Context::new();
        sycl_mlir_dialects::register_all(&ctx);
        register(&ctx);
        register(&ctx);
        assert!(ctx.lookup_op("sycl.nd_item.get_global_id").is_some());
        assert!(ctx.lookup_op("sycl.host.schedule_kernel").is_some());
    }
}
