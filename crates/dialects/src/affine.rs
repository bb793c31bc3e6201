//! The `affine` dialect: loops whose index arithmetic is amenable to the
//! memory access analysis of §V-D, plus `affine.load`/`affine.store`.
//!
//! Structurally `affine.for` matches `scf.for` (same operand/region shape);
//! the dialect distinction marks loops the polyhedral-style passes (reduction
//! detection §VI-B, loop internalization §VI-C) are allowed to reason about.

use sycl_mlir_ir::dialect::{traits, Effect, OpInfo};
use sycl_mlir_ir::{Builder, Context, Dialect, Module, OpId, ValueId};

/// Dialect registration handle.
pub struct AffineDialect;

impl Dialect for AffineDialect {
    fn name(&self) -> &'static str {
        "affine"
    }

    fn register(&self, ctx: &Context) {
        ctx.register_op(
            OpInfo::new("affine.for")
                .with_traits(traits::LOOP_LIKE | traits::RECURSIVE_EFFECTS)
                .with_verify(crate::scf::verify_loop_shape),
        );
        ctx.register_op(OpInfo::new("affine.yield").with_traits(traits::TERMINATOR));
        ctx.register_op(
            OpInfo::new("affine.load")
                .with_verify(verify_affine_load)
                .with_effects(|m, op| vec![Effect::read(m.op_operand(op, 0))]),
        );
        ctx.register_op(
            OpInfo::new("affine.store")
                .with_verify(verify_affine_store)
                .with_effects(|m, op| vec![Effect::write(m.op_operand(op, 1))]),
        );
    }
}

fn verify_affine_load(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.is_empty() || m.op_results(op).len() != 1 {
        return Err("expects (memref, indices...) -> value".into());
    }
    let ty = m.value_type(operands[0]);
    let elem = ty.memref_elem().ok_or("first operand must be a memref")?;
    if m.value_type(m.op_result(op, 0)) != elem {
        return Err("result type must match the memref element type".into());
    }
    Ok(())
}

fn verify_affine_store(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.len() < 2 || !m.op_results(op).is_empty() {
        return Err("expects (value, memref, indices...) -> ()".into());
    }
    let ty = m.value_type(operands[1]);
    let elem = ty.memref_elem().ok_or("second operand must be a memref")?;
    if m.value_type(operands[0]) != elem {
        return Err("stored type must match the memref element type".into());
    }
    Ok(())
}

/// Build an `affine.for`; see [`crate::scf::build_loop`] for the contract.
pub fn build_affine_for(
    b: &mut Builder<'_>,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
    inits: &[ValueId],
    body: impl FnOnce(&mut Builder<'_>, ValueId, &[ValueId]) -> Vec<ValueId>,
) -> OpId {
    crate::scf::build_loop(b, "affine.for", lb, ub, step, inits, body)
}

/// Load through `affine.load`.
pub fn load(b: &mut Builder<'_>, memref: ValueId, indices: &[ValueId]) -> ValueId {
    let elem = b
        .module()
        .value_type(memref)
        .memref_elem()
        .expect("affine.load on non-memref value");
    let mut operands = vec![memref];
    operands.extend_from_slice(indices);
    b.build_value("affine.load", &operands, elem, vec![])
}

/// Store through `affine.store`.
pub fn store(b: &mut Builder<'_>, value: ValueId, memref: ValueId, indices: &[ValueId]) -> OpId {
    let mut operands = vec![value, memref];
    operands.extend_from_slice(indices);
    b.build("affine.store", &operands, &[], vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{self, constant_index};
    use crate::func::{build_func, build_return};
    use sycl_mlir_ir::{print_module, verify, Module};

    /// Builds the reduction example of the paper's Listing 4:
    /// a loop loading and storing `%ptr[0]` every iteration.
    #[test]
    fn listing4_shape_builds_and_verifies() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let f32t = ctx.f32_type();
        let mem1 = ctx.memref_type(f32t.clone(), &[1]);
        let memd = ctx.memref_type(f32t.clone(), &[-1]);
        let top = m.top();
        let (_f, entry) = build_func(
            &mut m,
            top,
            "reduction",
            &[mem1, memd, ctx.index_type(), ctx.index_type()],
            &[],
        );
        let ptr = m.block_arg(entry, 0);
        let other = m.block_arg(entry, 1);
        let lb = m.block_arg(entry, 2);
        let ub = m.block_arg(entry, 3);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, lb, ub, one, &[], |inner, iv, _| {
                let zero = constant_index(inner, 0);
                let val = load(inner, ptr, &[zero]);
                let o = load(inner, other, &[iv]);
                let res = arith::addf(inner, val, o);
                store(inner, res, ptr, &[zero]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        assert!(verify(&m).is_ok(), "{}\n{:?}", print_module(&m), verify(&m));
        let text = print_module(&m);
        assert!(text.contains("affine.for"), "{text}");
        assert!(text.contains("affine.load"), "{text}");
        assert!(text.contains("affine.store"), "{text}");
    }

    #[test]
    fn affine_store_type_mismatch_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let f64t = b.ctx().f64_type();
            let f32t = b.ctx().f32_type();
            let v = arith::constant_float(&mut b, 1.0, f64t);
            let mem = crate::memref::alloca(&mut b, f32t, &[1]);
            let zero = constant_index(&mut b, 0);
            b.build("affine.store", &[v, mem, zero], &[], vec![]);
        }
        assert!(verify(&m).is_err());
    }
}
