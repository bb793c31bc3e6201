//! The `llvm` dialect (minimal subset): the low-level form host code takes
//! after `mlir-translate` in the paper's flow (§IV, Fig. 1).
//!
//! Host modules arrive as `func.func`s whose bodies consist of `llvm.*` ops:
//! opaque-pointer allocas, loads/stores, GEPs and calls into the SYCL runtime
//! (`llvm.call` with mangled-ish callee names). The host raising pass
//! (§VII-A) pattern-matches those calls and rewrites them into `sycl.host.*`
//! operations.

use sycl_mlir_ir::dialect::{traits, Effect, OpInfo};
use sycl_mlir_ir::{Attribute, Builder, Context, Dialect, Module, OpId, Type, ValueId};

/// Dialect registration handle.
pub struct LlvmDialect;

impl Dialect for LlvmDialect {
    fn name(&self) -> &'static str {
        "llvm"
    }

    fn register(&self, ctx: &Context) {
        // Calls have unknown effects by default — exactly why raw host IR is
        // "too low-level for analysis" (§VII-A) until raised.
        ctx.register_op(OpInfo::new("llvm.call").with_verify(verify_call));
        ctx.register_op(
            OpInfo::new("llvm.alloca")
                .with_verify(verify_alloca)
                .with_effects(|m, op| vec![Effect::alloc(m.op_result(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("llvm.load")
                .with_verify(verify_load)
                .with_effects(|m, op| vec![Effect::read(m.op_operand(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("llvm.store")
                .with_verify(verify_store)
                .with_effects(|m, op| vec![Effect::write(m.op_operand(op, 1))]),
        );
        ctx.register_op(
            OpInfo::new("llvm.gep")
                .with_traits(traits::PURE)
                .with_verify(verify_gep),
        );
        ctx.register_op(OpInfo::new("llvm.undef").with_traits(traits::PURE));
    }
}

fn verify_call(m: &Module, op: OpId) -> Result<(), String> {
    m.attr(op, "callee")
        .and_then(|a| a.as_symbol_ref())
        .map(|_| ())
        .ok_or_else(|| "missing `callee` symbol attribute".into())
}

fn verify_alloca(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_results(op).len() != 1
        || !matches!(
            m.value_type(m.op_result(op, 0)).kind(),
            sycl_mlir_ir::TypeKind::Ptr
        )
    {
        return Err("must produce a single `ptr` result".into());
    }
    Ok(())
}

fn verify_load(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).len() != 1 || m.op_results(op).len() != 1 {
        return Err("expects (ptr) -> value".into());
    }
    Ok(())
}

fn verify_store(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).len() != 2 || !m.op_results(op).is_empty() {
        return Err("expects (value, ptr) -> ()".into());
    }
    Ok(())
}

fn verify_gep(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).is_empty() || m.op_results(op).len() != 1 {
        return Err("expects (ptr, indices...) -> ptr".into());
    }
    Ok(())
}

/// Stack slot for a host object; `object` names the C++ type for
/// readability of the raised IR (e.g. `"sycl::buffer"`).
pub fn alloca(b: &mut Builder<'_>, object: &str) -> ValueId {
    let ptr = b.ctx().ptr_type();
    b.build_value(
        "llvm.alloca",
        &[],
        ptr,
        vec![("object", Attribute::Str(object.into()))],
    )
}

/// Call a runtime function by mangled name.
pub fn call(b: &mut Builder<'_>, callee: &str, args: &[ValueId], results: &[Type]) -> OpId {
    b.build(
        "llvm.call",
        args,
        results,
        vec![("callee", Attribute::symbol(callee))],
    )
}

/// The callee symbol of an `llvm.call`.
pub fn callee_name(m: &Module, op: OpId) -> Option<String> {
    m.attr(op, "callee")?.as_symbol_ref().map(|p| p.join("::"))
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
        assert_eq!(
            callee_name(&m, call_op).as_deref(),
            Some("sycl_buffer_ctor")
        );
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
