//! The `memref` dialect: stack allocation and memory access with declared
//! memory effects — the effect interface is what the reaching-definition
//! analysis (§V-B) and LICM (§VI-A) consume.

use sycl_mlir_ir::dialect::{traits, Effect, OpInfo};
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
                .with_verify(verify_alloca)
                .with_effects(|m, op| vec![Effect::alloc(m.op_result(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("memref.load")
                .with_verify(verify_load)
                .with_effects(|m, op| vec![Effect::read(m.op_operand(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("memref.store")
                .with_verify(verify_store)
                .with_effects(|m, op| vec![Effect::write(m.op_operand(op, 1))]),
        );
        ctx.register_op(
            OpInfo::new("memref.cast")
                .with_traits(traits::PURE)
                .with_verify(verify_cast),
        );
    }
}

fn verify_alloca(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_results(op).len() != 1 {
        return Err("must produce one memref result".into());
    }
    let ty = m.value_type(m.op_result(op, 0));
    let shape = ty.memref_shape().ok_or("result must be a memref")?;
    if shape.iter().any(|&d| d < 0) {
        return Err("alloca requires a static shape".into());
    }
    Ok(())
}

fn check_indices(m: &Module, memref_ty: &Type, indices: &[ValueId]) -> Result<(), String> {
    let shape = memref_ty
        .memref_shape()
        .ok_or("expected a memref operand")?;
    if indices.len() != shape.len() {
        return Err(format!(
            "{} indices supplied for a rank-{} memref",
            indices.len(),
            shape.len()
        ));
    }
    for (i, &idx) in indices.iter().enumerate() {
        let t = m.value_type(idx);
        if !t.is_int_or_index() {
            return Err(format!("index #{i} must be an integer/index, got {t}"));
        }
    }
    Ok(())
}

fn verify_load(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.is_empty() || m.op_results(op).len() != 1 {
        return Err("expects (memref, indices...) -> value".into());
    }
    let mem_ty = m.value_type(operands[0]);
    check_indices(m, mem_ty, &operands[1..])?;
    let elem = mem_ty
        .memref_elem()
        .ok_or("first operand must be a memref")?;
    let res = m.value_type(m.op_result(op, 0));
    if elem != res {
        return Err(format!(
            "result type {res} does not match element type {elem}"
        ));
    }
    Ok(())
}

fn verify_store(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.len() < 2 || !m.op_results(op).is_empty() {
        return Err("expects (value, memref, indices...) -> ()".into());
    }
    let mem_ty = m.value_type(operands[1]);
    check_indices(m, mem_ty, &operands[2..])?;
    let elem = mem_ty
        .memref_elem()
        .ok_or("second operand must be a memref")?;
    let val = m.value_type(operands[0]);
    if elem != val {
        return Err(format!(
            "stored type {val} does not match element type {elem}"
        ));
    }
    Ok(())
}

fn verify_cast(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).len() != 1 || m.op_results(op).len() != 1 {
        return Err("expects one operand and one result".into());
    }
    let src = m.value_type(m.op_operand(op, 0));
    let dst = m.value_type(m.op_result(op, 0));
    match (src.memref_elem(), dst.memref_elem()) {
        (Some(a), Some(b)) if a == b => Ok(()),
        _ => Err(format!("cannot cast {src} to {dst}")),
    }
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
        assert!(err.to_string().contains("indices supplied"), "{err}");
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
