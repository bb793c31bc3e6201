//! The `memref` dialect: stack allocation and memory access with declared
//! memory effects — the effect interface is what the reaching-definition
//! analysis (§V-B) and LICM (§VI-A) consume.

use sycl_mlir_ir::dialect::{traits, Constraint::*, Effect, OpInfo, Signature};
use sycl_mlir_ir::{Builder, Context, Dialect, Module, OpId, Type, ValueId};

/// Dialect registration handle.
pub struct MemRefDialect;

impl Dialect for MemRefDialect {
    fn name(&self) -> &'static str {
        "memref"
    }

    fn register(&self, ctx: &Context) {
        ctx.register_op(
            OpInfo::new("memref.alloca")
                .with_signature(Signature::new(&[], &[MemRef]))
                .with_verify(verify_static_shape)
                .with_effects(|m, op| vec![Effect::alloc(m.op_result(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("memref.load")
                .with_signature(LOAD)
                .with_effects(|m, op| vec![Effect::read(m.op_operand(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("memref.store")
                .with_signature(STORE)
                .with_effects(|m, op| vec![Effect::write(m.op_operand(op, 1))]),
        );
        ctx.register_op(
            OpInfo::new("memref.cast")
                .with_traits(traits::PURE)
                .with_signature(Signature::new(&[MemRef], &[MemRef]))
                .with_verify(verify_cast),
        );
    }
}

/// `(memref, indices...) -> element`, for `memref.load` and `affine.load`.
pub(crate) const LOAD: Signature = Signature::new(&[MemRef], &[ElemOf(0)]).variadic(IndicesOf(0));

/// `(element, memref, indices...)`, for `memref.store` and `affine.store`.
pub(crate) const STORE: Signature =
    Signature::new(&[ElemOf(1), MemRef], &[]).variadic(IndicesOf(1));

/// A static shape for `memref.alloca` and `sycl.local.alloca`.
pub fn verify_static_shape(m: &Module, op: OpId) -> Result<(), String> {
    let ty = m.value_type(m.op_result(op, 0));
    if ty
        .memref_shape()
        .is_some_and(|shape| shape.iter().any(|&d| d < 0))
    {
        return Err(format!("allocation requires a static shape, got {ty}"));
    }
    Ok(())
}

/// A cast keeps the element type.
fn verify_cast(m: &Module, op: OpId) -> Result<(), String> {
    let src = m.value_type(m.op_operand(op, 0));
    let dst = m.value_type(m.op_result(op, 0));
    if src.memref_elem() != dst.memref_elem() {
        return Err(format!("cannot cast {src} to {dst}"));
    }
    Ok(())
}

/// Allocate a static-shaped memref in private (work-item) memory.
pub fn alloca(b: &mut Builder<'_>, elem: Type, shape: &[i64]) -> ValueId {
    let ty = b.ctx().memref_type(elem, shape);
    b.build_value("memref.alloca", &[], ty, vec![])
}

/// Load `memref[indices...]`.
pub fn load(b: &mut Builder<'_>, memref: ValueId, indices: &[ValueId]) -> ValueId {
    let elem = b
        .module()
        .value_type(memref)
        .memref_elem()
        .cloned()
        .expect("memref.load on non-memref value");
    let mut operands = vec![memref];
    operands.extend_from_slice(indices);
    b.build_value("memref.load", &operands, elem, vec![])
}

/// Store `value` into `memref[indices...]`.
pub fn store(b: &mut Builder<'_>, value: ValueId, memref: ValueId, indices: &[ValueId]) -> OpId {
    let mut operands = vec![value, memref];
    operands.extend_from_slice(indices);
    b.build("memref.store", &operands, &[], vec![])
}

/// `memref.cast` to another shape with the same element type.
pub fn cast(b: &mut Builder<'_>, memref: ValueId, to: Type) -> ValueId {
    b.build_value("memref.cast", &[memref], to, vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::constant_index;
    use sycl_mlir_ir::dialect::{memory_effects, EffectKind};
    use sycl_mlir_ir::{verify, Module};

    #[test]
    fn load_store_roundtrip_and_effects() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let (mem, v, store_op) = {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let mem = alloca(&mut b, f32t, &[4]);
            let i = constant_index(&mut b, 0);
            let v = load(&mut b, mem, &[i]);
            let store_op = store(&mut b, v, mem, &[i]);
            (mem, v, store_op)
        };
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        let load_op = m.def_op(v).unwrap();
        let load_effects = memory_effects(&m, load_op).unwrap();
        assert_eq!(load_effects, vec![sycl_mlir_ir::Effect::read(mem)]);
        let effects = memory_effects(&m, store_op).unwrap();
        assert_eq!(effects.len(), 1);
        assert_eq!(effects[0].kind, EffectKind::Write);
        assert_eq!(effects[0].value, Some(mem));
    }

    #[test]
    fn rank_mismatch_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let mem = alloca(&mut b, f32t.clone(), &[4, 4]);
            let i = constant_index(&mut b, 0);
            let mut operands = vec![mem, i];
            operands.truncate(2);
            b.build("memref.load", &operands, &[f32t], vec![]);
        }
        let err = verify(&m).unwrap_err();
        assert!(
            err.to_string()
                .contains("`memref.load`: rank-2 memref operand #0 takes 2 indices, got 1"),
            "{err}"
        );
    }

    #[test]
    fn dynamic_alloca_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let ty = b.ctx().memref_type(f32t, &[-1]);
            b.build("memref.alloca", &[], &[ty], vec![]);
        }
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("static shape"), "{err}");
    }

    #[test]
    fn cast_element_mismatch_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let f64t = b.ctx().f64_type();
            let mem = alloca(&mut b, f32t, &[4]);
            let bad = b.ctx().memref_type(f64t, &[-1]);
            b.build("memref.cast", &[mem], &[bad], vec![]);
        }
        assert!(verify(&m).is_err());
    }
}
