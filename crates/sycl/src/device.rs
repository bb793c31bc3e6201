//! Device-side SYCL operations (§III): work-item position queries, accessor
//! subscripting, SYCL object constructors, local memory and the work-group
//! barrier.
//!
//! Traits carried by these ops drive the paper's analyses:
//!
//! * `NON_UNIFORM_SOURCE` on the id queries feeds the uniformity analysis
//!   (§V-C, Listing 2);
//! * memory effects on `sycl.accessor.subscript`-derived loads feed the
//!   reaching-definition analysis (§V-B);
//! * `BARRIER` on `sycl.group.barrier` is what makes divergence a legality
//!   concern for loop internalization (§VI-C).

use crate::types;
use sycl_mlir_ir::dialect::{traits, Effect, OpInfo};
use sycl_mlir_ir::{Attribute, Builder, Context, Module, OpId, Type, ValueId};

pub(crate) fn register_ops(ctx: &Context) {
    // Object constructors (pure value producers).
    for name in [
        "sycl.id.constructor",
        "sycl.range.constructor",
        "sycl.nd_range.constructor",
    ] {
        ctx.register_op(
            OpInfo::new(name)
                .with_traits(traits::PURE)
                .with_verify(verify_constructor),
        );
    }

    // Uniform queries.
    for name in [
        "sycl.id.get",
        "sycl.range.get",
        "sycl.range.size",
        "sycl.item.get_range",
        "sycl.nd_item.get_global_range",
        "sycl.nd_item.get_local_range",
        "sycl.nd_item.get_group_id",
        "sycl.nd_item.get_group_range",
        "sycl.group.get_id",
        "sycl.group.get_local_range",
        "sycl.accessor.get_range",
    ] {
        ctx.register_op(
            OpInfo::new(name)
                .with_traits(traits::PURE)
                .with_verify(verify_query),
        );
    }

    // Non-uniform queries: the sources of divergence (§V-C).
    for name in [
        "sycl.item.get_id",
        "sycl.item.get_linear_id",
        "sycl.nd_item.get_global_id",
        "sycl.nd_item.get_local_id",
        "sycl.nd_item.get_global_linear_id",
        "sycl.nd_item.get_local_linear_id",
    ] {
        ctx.register_op(
            OpInfo::new(name)
                .with_traits(traits::PURE | traits::NON_UNIFORM_SOURCE)
                .with_verify(verify_query),
        );
    }

    // get_group produces a (uniform) group handle.
    ctx.register_op(OpInfo::new("sycl.nd_item.get_group").with_traits(traits::PURE));

    // Accessor subscript: pure view computation; the memory effect lives on
    // the load/store that consumes the resulting memref.
    ctx.register_op(
        OpInfo::new("sycl.accessor.subscript")
            .with_traits(traits::PURE)
            .with_verify(verify_subscript),
    );

    // Identity of the memory behind an accessor (buffer id + byte offset,
    // as an index). Used by LICM's runtime no-alias loop versioning
    // (§VI-A): `base(a) != base(b)` proves disjointness of non-ranged
    // accessors at run time.
    ctx.register_op(
        OpInfo::new("sycl.accessor.base")
            .with_traits(traits::PURE)
            .with_verify(verify_query),
    );

    // Work-group local memory allocation (inserted by loop internalization).
    ctx.register_op(
        OpInfo::new("sycl.local.alloca")
            .with_verify(verify_local_alloca)
            .with_effects(|m, op| vec![Effect::alloc(m.op_result(op, 0))]),
    );

    // Work-group barrier: synchronizes; must not be hoisted or duplicated,
    // so it reads and writes unknown memory.
    ctx.register_op(
        OpInfo::new("sycl.group.barrier")
            .with_traits(traits::BARRIER)
            .with_effects(|_m, _op| vec![Effect::read_unknown(), Effect::write_unknown()]),
    );
}

fn verify_constructor(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_results(op).len() != 1 {
        return Err("must produce one result".into());
    }
    let ty = m.value_type(m.op_result(op, 0));
    let dim = types::sycl_dim(ty).ok_or("result must be a SYCL type")?;
    if m.op_is(op, "sycl.nd_range.constructor") {
        if m.op_operands(op).len() != 2 {
            return Err("nd_range takes (global range, local range)".into());
        }
        return Ok(());
    }
    if m.op_operands(op).len() != dim as usize {
        return Err(format!(
            "{}-dimensional value constructed from {} operands",
            dim,
            m.op_operands(op).len()
        ));
    }
    for (i, &v) in m.op_operands(op).iter().enumerate() {
        if !m.value_type(v).is_int_or_index() {
            return Err(format!("operand #{i} must be integer/index"));
        }
    }
    Ok(())
}

fn verify_query(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.is_empty() {
        return Err("expects the queried SYCL object as first operand".into());
    }
    let ty = m.value_type(operands[0]);
    if types::sycl_dim(ty).is_none() {
        return Err(format!("first operand must be a SYCL object, got {ty}"));
    }
    if m.op_results(op).len() != 1 {
        return Err("must produce one result".into());
    }
    Ok(())
}

fn verify_subscript(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.len() != 2 || m.op_results(op).len() != 1 {
        return Err("expects (accessor, id) -> memref".into());
    }
    let acc_ty = m.value_type(operands[0]);
    let acc = types::accessor_info(acc_ty).ok_or("first operand must be an accessor")?;
    let id_ty = m.value_type(operands[1]);
    let id = id_ty
        .dialect_type::<types::IdType>()
        .ok_or("second operand must be a !sycl.id")?;
    if id.dim != acc.dim {
        return Err(format!(
            "id dimensionality {} does not match accessor {}",
            id.dim, acc.dim
        ));
    }
    let res = m.value_type(m.op_result(op, 0));
    match res.memref_elem() {
        Some(e) if *e == acc.elem => Ok(()),
        _ => Err(format!("result must be memref of {}, got {res}", acc.elem)),
    }
}

fn verify_local_alloca(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_results(op).len() != 1 {
        return Err("must produce one memref result".into());
    }
    let ty = m.value_type(m.op_result(op, 0));
    let shape = ty.memref_shape().ok_or("result must be a memref")?;
    if shape.iter().any(|&d| d < 0) {
        return Err("local memory requires a static shape".into());
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Builder helpers
// ----------------------------------------------------------------------

fn dim_const(b: &mut Builder<'_>, dim: u32) -> ValueId {
    let i32t = b.ctx().i32_type();
    b.build_value(
        "arith.constant",
        &[],
        i32t,
        vec![("value", Attribute::Int(dim as i64))],
    )
}

fn query(b: &mut Builder<'_>, name: &str, obj: ValueId, dim: u32) -> ValueId {
    let d = dim_const(b, dim);
    let index = b.ctx().index_type();
    b.build_value(name, &[obj, d], index, vec![])
}

/// `item.get_id(dim)` — non-uniform global position.
pub fn item_get_id(b: &mut Builder<'_>, item: ValueId, dim: u32) -> ValueId {
    query(b, "sycl.item.get_id", item, dim)
}

/// `item.get_range(dim)`.
pub fn item_get_range(b: &mut Builder<'_>, item: ValueId, dim: u32) -> ValueId {
    query(b, "sycl.item.get_range", item, dim)
}

/// `nd_item.get_global_id(dim)` — the canonical non-uniform source
/// (Listing 2 of the paper).
pub fn global_id(b: &mut Builder<'_>, nd_item: ValueId, dim: u32) -> ValueId {
    query(b, "sycl.nd_item.get_global_id", nd_item, dim)
}

/// `nd_item.get_local_id(dim)`.
pub fn local_id(b: &mut Builder<'_>, nd_item: ValueId, dim: u32) -> ValueId {
    query(b, "sycl.nd_item.get_local_id", nd_item, dim)
}

/// `nd_item.get_group_id(dim)` (uniform within a work-group).
pub fn group_id(b: &mut Builder<'_>, nd_item: ValueId, dim: u32) -> ValueId {
    query(b, "sycl.nd_item.get_group_id", nd_item, dim)
}

/// `nd_item.get_global_range(dim)`.
pub fn global_range(b: &mut Builder<'_>, nd_item: ValueId, dim: u32) -> ValueId {
    query(b, "sycl.nd_item.get_global_range", nd_item, dim)
}

/// `nd_item.get_local_range(dim)` — the work-group size.
pub fn local_range(b: &mut Builder<'_>, nd_item: ValueId, dim: u32) -> ValueId {
    query(b, "sycl.nd_item.get_local_range", nd_item, dim)
}

/// `nd_item.get_group()` — group handle for barriers.
pub fn get_group(b: &mut Builder<'_>, nd_item: ValueId) -> ValueId {
    let ty = b.module().value_type(nd_item);
    let dim = types::sycl_dim(ty).expect("nd_item operand");
    let ctx = b.ctx();
    let group = types::group_type(ctx, dim);
    b.build_value("sycl.nd_item.get_group", &[nd_item], group, vec![])
}

/// Runtime identity of the memory behind an accessor (see
/// `sycl.accessor.base`).
pub fn accessor_base(b: &mut Builder<'_>, acc: ValueId) -> ValueId {
    let index = b.ctx().index_type();
    b.build_value("sycl.accessor.base", &[acc], index, vec![])
}

/// Construct a `!sycl.id<n>` from `n` indices.
pub fn make_id(b: &mut Builder<'_>, indices: &[ValueId]) -> ValueId {
    let ctx = b.ctx();
    let ty = types::id_type(ctx, indices.len() as u32);
    b.build_value("sycl.id.constructor", indices, ty, vec![])
}

/// `accessor[id]` — subscript an accessor, yielding a rank-1 dynamic memref
/// view positioned at the id (Listing 3 of the paper).
pub fn subscript(b: &mut Builder<'_>, acc: ValueId, id: ValueId) -> ValueId {
    let acc_ty = b.module().value_type(acc);
    let elem = types::accessor_info(acc_ty)
        .expect("accessor operand")
        .elem
        .clone();
    let ctx = b.ctx();
    let view = ctx.memref_type(elem, &[-1]);
    b.build_value("sycl.accessor.subscript", &[acc, id], view, vec![])
}

/// Convenience: subscript + `affine.load` in one call.
pub fn load_via_id(b: &mut Builder<'_>, acc: ValueId, indices: &[ValueId]) -> ValueId {
    let id = make_id(b, indices);
    let view = subscript(b, acc, id);
    let zero = sycl_mlir_dialects::arith::constant_index(b, 0);
    sycl_mlir_dialects::affine::load(b, view, &[zero])
}

/// Convenience: subscript + `affine.store` in one call.
pub fn store_via_id(b: &mut Builder<'_>, value: ValueId, acc: ValueId, indices: &[ValueId]) {
    let id = make_id(b, indices);
    let view = subscript(b, acc, id);
    let zero = sycl_mlir_dialects::arith::constant_index(b, 0);
    sycl_mlir_dialects::affine::store(b, value, view, &[zero]);
}

/// Allocate work-group local memory of the given static shape.
pub fn local_alloca(b: &mut Builder<'_>, elem: Type, shape: &[i64]) -> ValueId {
    let ty = b.ctx().memref_type(elem, shape);
    b.build_value("sycl.local.alloca", &[], ty, vec![])
}

/// Insert a work-group barrier.
pub fn group_barrier(b: &mut Builder<'_>, group: ValueId) -> OpId {
    b.build("sycl.group.barrier", &[group], &[], vec![])
}

/// `true` if `func_op` is a SYCL kernel entry point.
pub fn is_kernel(m: &Module, func_op: OpId) -> bool {
    m.attr(func_op, crate::KERNEL_ATTR).is_some()
}

/// Mark a function as a SYCL kernel entry point.
pub fn mark_kernel(m: &mut Module, func_op: OpId) {
    m.set_attr(func_op, crate::KERNEL_ATTR, Attribute::Unit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{accessor_type, nd_item_type, AccessMode, Target};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_ir::{print_module, verify, Module};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        crate::register(&c);
        c
    }

    /// Builds the essence of the paper's Listing 2 prologue: a global-id
    /// query and a comparison on it.
    #[test]
    fn global_id_query_builds() {
        let c = ctx();
        let mut m = Module::new(&c);
        let nd2 = nd_item_type(&c, 2);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[nd2], &[]);
        mark_kernel(&mut m, func);
        let item = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = global_id(&mut b, item, 0);
            let zero = sycl_mlir_dialects::arith::constant_index(&mut b, 0);
            sycl_mlir_dialects::arith::cmpi(&mut b, "sgt", gid, zero);
            build_return(&mut b, &[]);
        }
        assert!(verify(&m).is_ok(), "{}\n{:?}", print_module(&m), verify(&m));
        assert!(is_kernel(&m, func));
        let text = print_module(&m);
        assert!(text.contains("sycl.nd_item.get_global_id"), "{text}");
    }

    #[test]
    fn subscript_checks_dimensions() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc2 = accessor_type(&c, c.f32_type(), 2, AccessMode::Read, Target::Global);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "k", &[acc2], &[]);
        let acc = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let i = sycl_mlir_dialects::arith::constant_index(&mut b, 1);
            // 1-d id against 2-d accessor: must be rejected.
            let id1 = make_id(&mut b, &[i]);
            let f32t = b.ctx().f32_type();
            let view = b.ctx().memref_type(f32t, &[-1]);
            b.build("sycl.accessor.subscript", &[acc, id1], &[view], vec![]);
            build_return(&mut b, &[]);
        }
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("does not match accessor"), "{err}");
    }

    #[test]
    fn load_store_via_id_roundtrip() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc1 = accessor_type(&c, c.f64_type(), 1, AccessMode::ReadWrite, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "copy", &[acc1, nd1], &[]);
        mark_kernel(&mut m, func);
        let acc = m.block_arg(entry, 0);
        let item = m.block_arg(entry, 1);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid = global_id(&mut b, item, 0);
            let v = load_via_id(&mut b, acc, &[gid]);
            store_via_id(&mut b, v, acc, &[gid]);
            build_return(&mut b, &[]);
        }
        assert!(verify(&m).is_ok(), "{}\n{:?}", print_module(&m), verify(&m));
    }

    #[test]
    fn barrier_has_blocking_effects() {
        let c = ctx();
        let mut m = Module::new(&c);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "k", &[nd1], &[]);
        let item = m.block_arg(entry, 0);
        let barrier = {
            let mut b = Builder::at_end(&mut m, entry);
            let g = get_group(&mut b, item);
            let op = group_barrier(&mut b, g);
            build_return(&mut b, &[]);
            op
        };
        let effects = sycl_mlir_ir::dialect::memory_effects(&m, barrier).unwrap();
        assert_eq!(effects.len(), 2);
        assert!(!sycl_mlir_ir::dialect::is_memory_effect_free(&m, barrier));
        assert!(m.op_has_trait(barrier, traits::BARRIER));
    }

    #[test]
    fn local_alloca_requires_static_shape() {
        let c = ctx();
        let mut m = Module::new(&c);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let bad = b.ctx().memref_type(f32t, &[-1, 16]);
            b.build("sycl.local.alloca", &[], &[bad], vec![]);
        }
        assert!(verify(&m).is_err());
    }
}
