//! The `llvm` dialect (minimal subset): the low-level form host code takes
//! after `mlir-translate` in the paper's flow (§IV, Fig. 1).
//!
//! Host modules arrive as `func.func`s whose bodies consist of `llvm.*` ops:
//! opaque-pointer allocas, loads/stores, GEPs and calls into the SYCL runtime
//! (`llvm.call` with mangled-ish callee names). The host raising pass
//! (§VII-A) pattern-matches those calls and rewrites them into `sycl.host.*`
//! operations.

use sycl_mlir_ir::dialect::{traits, Constraint::*, Effect, OpInfo, Signature};
use sycl_mlir_ir::{Builder, Context, Dialect, Module, OpId, Type, ValueId};

/// Dialect registration handle.
pub struct LlvmDialect;

impl Dialect for LlvmDialect {
    fn name(&self) -> &'static str {
        "llvm"
    }

    fn register(&self, ctx: &Context) {
        // Calls have unknown effects by default — exactly why raw host IR is
        // "too low-level for analysis" (§VII-A) until raised.
        ctx.register_op(
            OpInfo::new("llvm.call")
                .with_signature(crate::func::CALL)
                .with_verify(crate::func::verify_callee),
        );
        ctx.register_op(
            OpInfo::new("llvm.alloca")
                .with_signature(Signature::new(&[], &[Ptr]))
                .with_effects(|m, op| vec![Effect::alloc(m.op_result(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("llvm.load")
                .with_signature(Signature::new(&[Ptr], &[Any]))
                .with_effects(|m, op| vec![Effect::read(m.op_operand(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("llvm.store")
                .with_signature(Signature::new(&[Any, Ptr], &[]))
                .with_effects(|m, op| vec![Effect::write(m.op_operand(op, 1))]),
        );
        ctx.register_op(
            OpInfo::new("llvm.gep")
                .with_traits(traits::PURE)
                .with_signature(Signature::new(&[Ptr], &[Ptr]).variadic(IntOrIndex)),
        );
        ctx.register_op(
            OpInfo::new("llvm.undef")
                .with_traits(traits::PURE)
                .with_signature(Signature::new(&[], &[Any])),
        );
    }
}

/// Stack slot for a host object; `object` names the C++ type for
/// readability of the raised IR (e.g. `"sycl::buffer"`).
pub fn alloca(b: &mut Builder<'_>, object: &str) -> ValueId {
    let ptr = b.ctx().ptr_type();
    b.build_value(
        "llvm.alloca",
        &[],
        ptr,
        [("object", b.ctx().str_attr(object))],
    )
}

/// Call a runtime function by mangled name.
pub fn call(b: &mut Builder<'_>, callee: &str, args: &[ValueId], results: &[Type]) -> OpId {
    b.build(
        "llvm.call",
        args,
        results,
        [("callee", b.ctx().symbol_attr(&[callee]))],
    )
}

/// The callee of an `llvm.call`, borrowed from its interned symbol. Calls
/// name flat symbols (`@sycl_range_ctor`); a nested path is no callee.
pub fn callee_name(m: &Module, op: OpId) -> Option<&str> {
    match m
        .attr_by_id(op, m.ctx().common_keys().callee)?
        .as_symbol_ref()?
    {
        [name] => Some(name),
        _ => None,
    }
}

pub fn load(b: &mut Builder<'_>, ptr: ValueId, ty: Type) -> ValueId {
    b.build_value("llvm.load", &[ptr], ty, vec![])
}

pub fn store(b: &mut Builder<'_>, value: ValueId, ptr: ValueId) -> OpId {
    b.build("llvm.store", &[value, ptr], &[], vec![])
}

pub fn gep(b: &mut Builder<'_>, ptr: ValueId, indices: &[ValueId]) -> ValueId {
    let ptr_ty = b.ctx().ptr_type();
    let mut operands = vec![ptr];
    operands.extend_from_slice(indices);
    b.build_value("llvm.gep", &operands, ptr_ty, vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_ir::dialect::memory_effects;
    use sycl_mlir_ir::{verify, Module};

    #[test]
    fn calls_have_unknown_effects() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let call_op = {
            let mut b = Builder::at_end(&mut m, block);
            let buf = alloca(&mut b, "sycl::buffer");
            call(&mut b, "sycl_buffer_ctor", &[buf], &[])
        };
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        // The whole point of raising: this is opaque to analyses.
        assert_eq!(memory_effects(&m, call_op), None);
        assert_eq!(callee_name(&m, call_op), Some("sycl_buffer_ctor"));
    }

    #[test]
    fn missing_callee_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            b.build("llvm.call", &[], &[], vec![]);
        }
        assert!(verify(&m).is_err());
    }
}
