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
use sycl_mlir_ir::dialect::{traits, Constraint, Constraint::*, Effect, OpInfo, Signature};
use sycl_mlir_ir::{Attribute, Builder, Context, DialectTypeImpl, Module, OpId, Type, ValueId};

/// `true` for a `T`: the predicate of a [`Constraint::Is`].
fn is<T: DialectTypeImpl>(t: &Type) -> bool {
    t.dialect_type::<T>().is_some()
}

/// Any dimension-parameterised SYCL object.
const OBJECT: Constraint = Is(|t| types::sycl_dim(t).is_some(), "a SYCL object");
const ACCESSOR: Constraint = Is(is::<types::AccessorType>, "a !sycl.accessor");
const ID: Constraint = Is(is::<types::IdType>, "a !sycl.id");
const RANGE: Constraint = Is(is::<types::RangeType>, "a !sycl.range");
const ND_RANGE: Constraint = Is(is::<types::NdRangeType>, "a !sycl.nd_range");
const ITEM: Constraint = Is(types::is_item_like, "a !sycl.item or !sycl.nd_item");
const GROUP: Constraint = Is(is::<types::GroupType>, "a !sycl.group");

/// `(object, dimension) -> index`.
const DIM_QUERY: Signature = Signature::new(&[OBJECT, IntOrIndex], &[Index]);
/// `(object) -> index`: linear ids and sizes.
const LINEAR_QUERY: Signature = Signature::new(&[OBJECT], &[Index]);

pub(crate) fn register_ops(ctx: &Context) {
    let op = |name: &str, traits: u32, sig: Signature| {
        OpInfo::new(name).with_traits(traits).with_signature(sig)
    };
    let (pure, divergent) = (traits::PURE, traits::PURE | traits::NON_UNIFORM_SOURCE);
    for (name, traits, sig) in [
        (
            "sycl.nd_range.constructor",
            pure,
            Signature::new(&[RANGE, RANGE], &[ND_RANGE]),
        ),
        // Uniform queries.
        ("sycl.id.get", pure, DIM_QUERY),
        ("sycl.range.get", pure, DIM_QUERY),
        ("sycl.range.size", pure, LINEAR_QUERY),
        ("sycl.item.get_range", pure, DIM_QUERY),
        ("sycl.nd_item.get_global_range", pure, DIM_QUERY),
        ("sycl.nd_item.get_local_range", pure, DIM_QUERY),
        ("sycl.nd_item.get_group_id", pure, DIM_QUERY),
        ("sycl.nd_item.get_group_range", pure, DIM_QUERY),
        ("sycl.group.get_id", pure, DIM_QUERY),
        ("sycl.group.get_local_range", pure, DIM_QUERY),
        ("sycl.accessor.get_range", pure, DIM_QUERY),
        // Non-uniform queries: the sources of divergence (§V-C).
        ("sycl.item.get_id", divergent, DIM_QUERY),
        ("sycl.nd_item.get_global_id", divergent, DIM_QUERY),
        ("sycl.nd_item.get_local_id", divergent, DIM_QUERY),
        ("sycl.item.get_linear_id", divergent, LINEAR_QUERY),
        ("sycl.nd_item.get_global_linear_id", divergent, LINEAR_QUERY),
        ("sycl.nd_item.get_local_linear_id", divergent, LINEAR_QUERY),
        // get_group produces a (uniform) group handle.
        (
            "sycl.nd_item.get_group",
            pure,
            Signature::new(&[ITEM], &[GROUP]),
        ),
        // Identity of the memory behind an accessor (buffer id + byte
        // offset, as an index). Used by LICM's runtime no-alias loop
        // versioning (§VI-A): `base(a) != base(b)` proves disjointness of
        // non-ranged accessors at run time.
        (
            "sycl.accessor.base",
            pure,
            Signature::new(&[ACCESSOR], &[Index]),
        ),
    ] {
        ctx.register_op(op(name, traits, sig));
    }

    // Object constructors: an id or a range from one index per dimension.
    for name in ["sycl.id.constructor", "sycl.range.constructor"] {
        let sig = Signature::new(&[], &[OBJECT]).variadic(IntOrIndex);
        ctx.register_op(op(name, pure, sig).with_verify(verify_constructor));
    }

    // Accessor subscript: pure view computation; the memory effect lives on
    // the load/store that consumes the resulting memref.
    let sig = Signature::new(&[ACCESSOR, ID], &[MemRef]);
    ctx.register_op(op("sycl.accessor.subscript", pure, sig).with_verify(verify_subscript));

    // Work-group local memory allocation (inserted by loop internalization).
    ctx.register_op(
        op("sycl.local.alloca", 0, Signature::new(&[], &[MemRef]))
            .with_verify(sycl_mlir_dialects::memref::verify_static_shape)
            .with_effects(|m, op| vec![Effect::alloc(m.op_result(op, 0))]),
    );

    // Work-group barrier: synchronizes; must not be hoisted or duplicated,
    // so it reads and writes unknown memory.
    ctx.register_op(
        op(
            "sycl.group.barrier",
            traits::BARRIER,
            Signature::new(&[GROUP], &[]),
        )
        .with_effects(|_m, _op| vec![Effect::read_unknown(), Effect::write_unknown()]),
    );
}

/// An n-dimensional id or range takes n indices.
fn verify_constructor(m: &Module, op: OpId) -> Result<(), String> {
    let dim = types::sycl_dim(m.value_type(m.op_result(op, 0))).expect("a SYCL object");
    let operands = m.op_operands(op).len();
    if operands != dim as usize {
        return Err(format!(
            "{dim}-dimensional value constructed from {operands} operands"
        ));
    }
    Ok(())
}

/// An accessor takes an id of its own dimension and gives a view of its
/// elements.
fn verify_subscript(m: &Module, op: OpId) -> Result<(), String> {
    let acc = types::accessor_info(m.value_type(m.op_operand(op, 0))).expect("an accessor");
    let id = m
        .value_type(m.op_operand(op, 1))
        .dialect_type::<types::IdType>()
        .expect("an id");
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

// ----------------------------------------------------------------------
// Builder helpers
// ----------------------------------------------------------------------

fn dim_const(b: &mut Builder<'_>, dim: u32) -> ValueId {
    let i32t = b.ctx().i32_type();
    b.build_value(
        "arith.constant",
        &[],
        i32t,
        [("value", Attribute::Int(dim as i64))],
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
