//! # sycl-mlir-dialects — the built-in dialect subset used by SYCL-MLIR
//!
//! Rust implementations of the upstream-MLIR dialects the paper's compilation
//! flow relies on (§II-B, §IV):
//!
//! * [`func`] — functions, calls and returns;
//! * [`arith`] — integer/float arithmetic with constant folding;
//! * [`math`] — transcendental functions used by the benchmark kernels;
//! * [`memref`] — stack allocation plus load/store with memory effects;
//! * [`scf`] — structured control flow (`scf.for`, `scf.if`);
//! * [`affine`] — affine loops and memory ops (`affine.for`, `affine.load`);
//! * [`llvm`] — the low-level dialect host code is translated into before
//!   raising (§VII-A).
//!
//! [`register_all`] installs everything into a [`Context`].
//!
//! ```
//! use sycl_mlir_ir::Context;
//! let ctx = Context::new();
//! sycl_mlir_dialects::register_all(&ctx);
//! assert!(ctx.lookup_op("arith.addi").is_some());
//! assert!(ctx.lookup_op("scf.for").is_some());
//! ```

pub mod affine;
pub mod arith;
pub mod func;
pub mod llvm;
pub mod math;
pub mod memref;
pub mod scf;

use sycl_mlir_ir::Context;

/// Register every built-in dialect (idempotent).
pub fn register_all(ctx: &Context) {
    ctx.register_dialect(&func::FuncDialect);
    ctx.register_dialect(&arith::ArithDialect);
    ctx.register_dialect(&math::MathDialect);
    ctx.register_dialect(&memref::MemRefDialect);
    ctx.register_dialect(&scf::ScfDialect);
    ctx.register_dialect(&affine::AffineDialect);
    ctx.register_dialect(&llvm::LlvmDialect);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_all_is_idempotent() {
        let ctx = Context::new();
        register_all(&ctx);
        register_all(&ctx);
        assert!(ctx.lookup_op("memref.load").is_some());
        assert!(ctx.lookup_op("affine.for").is_some());
        assert!(ctx.lookup_op("llvm.call").is_some());
        assert!(ctx.registered_dialects().len() >= 7);
    }

    /// A loop, an `if` or a function whose region has no block is
    /// reported by the structural walk; its hook, which opens the block,
    /// does not run.
    #[test]
    fn a_region_without_a_block_is_reported_not_opened() {
        use sycl_mlir_ir::{verify, Attribute, Builder, Module};
        for name in ["scf.for", "affine.for", "scf.if", "func.func"] {
            let ctx = Context::new();
            register_all(&ctx);
            let mut m = Module::new(&ctx);
            let top = m.top();
            let op = if name == "func.func" {
                let fty = ctx.function_type(&[], &[]);
                let attrs = [
                    ("sym_name", ctx.str_attr("f")),
                    ("function_type", Attribute::Type(fty)),
                ];
                let op = m.create_op(ctx.op(name), &[], &[], attrs);
                m.append_op(m.top_block(), op);
                op
            } else {
                let (_, entry) = func::build_func(&mut m, top, "f", &[], &[]);
                let mut b = Builder::at_end(&mut m, entry);
                let operands = if name == "scf.if" {
                    vec![arith::constant_int(&mut b, 1, ctx.i1_type())]
                } else {
                    vec![arith::constant_index(&mut b, 0); 3]
                };
                let op = b.build(name, &operands, &[], vec![]);
                func::build_return(&mut b, &[]);
                op
            };
            m.add_region(op);
            let messages = verify(&m).expect_err(name).messages;
            let want = format!(
                "`{name}`: region #0 must contain exactly one block (structured IR), found 0"
            );
            assert_eq!(messages, [want], "{name}");
        }
    }
}
