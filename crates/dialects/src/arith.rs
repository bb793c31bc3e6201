//! The `arith` dialect: constants, integer/float arithmetic, comparisons.
//!
//! All ops are pure; binary ops fold when both operands are constants, and a
//! few algebraic identities (`x + 0`, `x * 1`, `x * 0`) fold as well. The
//! dialect registers the context-wide *constant materializer* used by the
//! greedy folding driver.

use sycl_mlir_ir::dialect::{traits, FoldOut, OpInfo};
use sycl_mlir_ir::{Attribute, Builder, Context, Dialect, Module, OpId, Type, TypeKind, ValueId};

/// Dialect registration handle.
pub struct ArithDialect;

/// Comparison predicates for `arith.cmpi` / `arith.cmpf` (stored as the
/// `predicate` string attribute).
pub mod predicate {
    pub const EQ: &str = "eq";
    pub const NE: &str = "ne";
    pub const SLT: &str = "slt";
    pub const SLE: &str = "sle";
    pub const SGT: &str = "sgt";
    pub const SGE: &str = "sge";
}

impl Dialect for ArithDialect {
    fn name(&self) -> &'static str {
        "arith"
    }

    fn register(&self, ctx: &Context) {
        ctx.register_op(
            OpInfo::new("arith.constant")
                .with_traits(traits::CONSTANT_LIKE | traits::PURE)
                .with_verify(verify_constant),
        );
        for name in [
            "arith.addi",
            "arith.subi",
            "arith.muli",
            "arith.divsi",
            "arith.remsi",
            "arith.andi",
            "arith.ori",
            "arith.xori",
            "arith.minsi",
            "arith.maxsi",
        ] {
            ctx.register_op(
                OpInfo::new(name)
                    .with_traits(traits::PURE)
                    .with_verify(verify_same_type_binary)
                    .with_fold(fold_int_binary),
            );
        }
        for name in [
            "arith.addf",
            "arith.subf",
            "arith.mulf",
            "arith.divf",
            "arith.minf",
            "arith.maxf",
        ] {
            ctx.register_op(
                OpInfo::new(name)
                    .with_traits(traits::PURE)
                    .with_verify(verify_same_type_binary)
                    .with_fold(fold_float_binary),
            );
        }
        ctx.register_op(
            OpInfo::new("arith.negf")
                .with_traits(traits::PURE)
                .with_fold(fold_negf),
        );
        ctx.register_op(
            OpInfo::new("arith.cmpi")
                .with_traits(traits::PURE)
                .with_verify(verify_cmp)
                .with_fold(fold_cmpi),
        );
        ctx.register_op(
            OpInfo::new("arith.cmpf")
                .with_traits(traits::PURE)
                .with_verify(verify_cmp)
                .with_fold(fold_cmpf),
        );
        ctx.register_op(
            OpInfo::new("arith.select")
                .with_traits(traits::PURE)
                .with_fold(fold_select),
        );
        ctx.register_op(
            OpInfo::new("arith.index_cast")
                .with_traits(traits::PURE)
                .with_fold(fold_cast_int),
        );
        ctx.register_op(
            OpInfo::new("arith.trunci")
                .with_traits(traits::PURE)
                .with_fold(fold_cast_int),
        );
        ctx.register_op(
            OpInfo::new("arith.extsi")
                .with_traits(traits::PURE)
                .with_fold(fold_cast_int),
        );
        ctx.register_op(
            OpInfo::new("arith.sitofp")
                .with_traits(traits::PURE)
                .with_fold(fold_sitofp),
        );
        ctx.register_op(
            OpInfo::new("arith.fptosi")
                .with_traits(traits::PURE)
                .with_fold(fold_fptosi),
        );
        ctx.register_op(OpInfo::new("arith.truncf").with_traits(traits::PURE));
        ctx.register_op(OpInfo::new("arith.extf").with_traits(traits::PURE));
        ctx.register_constant_materializer(|m, block, index, attr, ty| {
            let name = m.ctx().lookup_op("arith.constant")?;
            let op = m.create_op(
                name,
                &[],
                std::slice::from_ref(ty),
                vec![("value".into(), attr.clone())],
            );
            m.insert_op(block, index, op);
            Some(m.op_result(op, 0))
        });
    }
}

// ----------------------------------------------------------------------
// Verifiers
// ----------------------------------------------------------------------

fn verify_constant(m: &Module, op: OpId) -> Result<(), String> {
    let value = m.attr(op, "value").ok_or("missing `value` attribute")?;
    if m.op_results(op).len() != 1 {
        return Err("must produce exactly one result".into());
    }
    let ty = m.value_type(m.op_result(op, 0));
    match (value, ty.kind()) {
        (Attribute::Int(_), TypeKind::Int(_) | TypeKind::Index) => Ok(()),
        (Attribute::Bool(_), TypeKind::Int(1)) => Ok(()),
        (Attribute::Float(_), TypeKind::F32 | TypeKind::F64) => Ok(()),
        (Attribute::DenseI64(_) | Attribute::DenseF64(_), TypeKind::MemRef { .. }) => Ok(()),
        _ => Err(format!(
            "value attribute {value} incompatible with result type {ty}"
        )),
    }
}

fn verify_same_type_binary(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).len() != 2 || m.op_results(op).len() != 1 {
        return Err("expects two operands and one result".into());
    }
    let l = m.value_type(m.op_operand(op, 0));
    let r = m.value_type(m.op_operand(op, 1));
    let res = m.value_type(m.op_result(op, 0));
    if l != r || l != res {
        return Err(format!(
            "operand/result types must match, got ({l}, {r}) -> {res}"
        ));
    }
    Ok(())
}

fn verify_cmp(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).len() != 2 || m.op_results(op).len() != 1 {
        return Err("expects two operands and one result".into());
    }
    let res = m.value_type(m.op_result(op, 0));
    if res.int_width() != Some(1) {
        return Err(format!("result must be i1, got {res}"));
    }
    let pred = m
        .attr(op, "predicate")
        .and_then(|a| a.as_str())
        .ok_or("missing `predicate`")?;
    match pred {
        "eq" | "ne" | "slt" | "sle" | "sgt" | "sge" => Ok(()),
        other => Err(format!("unknown predicate `{other}`")),
    }
}

// ----------------------------------------------------------------------
// Folding
// ----------------------------------------------------------------------

/// The constant attribute behind a value, if it is produced by a
/// constant-like op.
pub fn const_of(m: &Module, v: ValueId) -> Option<Attribute> {
    let op = m.def_op(v)?;
    if !m.op_has_trait(op, traits::CONSTANT_LIKE) {
        return None;
    }
    m.attr(op, "value").cloned()
}

/// Integer constant behind a value, if any.
pub fn const_int_of(m: &Module, v: ValueId) -> Option<i64> {
    const_of(m, v)?.as_int()
}

/// Float constant behind a value, if any.
pub fn const_float_of(m: &Module, v: ValueId) -> Option<f64> {
    const_of(m, v)?.as_float()
}

fn fold_int_binary(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let name = m.op_name_str(op);
    let lhs = m.op_operand(op, 0);
    let rhs = m.op_operand(op, 1);
    let lc = const_int_of(m, lhs);
    let rc = const_int_of(m, rhs);
    // Algebraic identities first (no materialization needed).
    match (&*name, lc, rc) {
        ("arith.addi", Some(0), _) => return Some(vec![FoldOut::Value(rhs)]),
        ("arith.addi", _, Some(0)) => return Some(vec![FoldOut::Value(lhs)]),
        ("arith.subi", _, Some(0)) => return Some(vec![FoldOut::Value(lhs)]),
        ("arith.muli", Some(1), _) => return Some(vec![FoldOut::Value(rhs)]),
        ("arith.muli", _, Some(1)) => return Some(vec![FoldOut::Value(lhs)]),
        ("arith.muli", Some(0), _) | ("arith.muli", _, Some(0)) => {
            return Some(vec![FoldOut::Attr(Attribute::Int(0))])
        }
        _ => {}
    }
    let (l, r) = (lc?, rc?);
    let out = match &*name {
        "arith.addi" => l.wrapping_add(r),
        "arith.subi" => l.wrapping_sub(r),
        "arith.muli" => l.wrapping_mul(r),
        "arith.divsi" => {
            if r == 0 {
                return None;
            }
            l.wrapping_div(r)
        }
        "arith.remsi" => {
            if r == 0 {
                return None;
            }
            l.wrapping_rem(r)
        }
        "arith.andi" => l & r,
        "arith.ori" => l | r,
        "arith.xori" => l ^ r,
        "arith.minsi" => l.min(r),
        "arith.maxsi" => l.max(r),
        _ => return None,
    };
    Some(vec![FoldOut::Attr(Attribute::Int(out))])
}

fn fold_float_binary(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let name = m.op_name_str(op);
    let l = const_float_of(m, m.op_operand(op, 0))?;
    let r = const_float_of(m, m.op_operand(op, 1))?;
    let out = match &*name {
        "arith.addf" => l + r,
        "arith.subf" => l - r,
        "arith.mulf" => l * r,
        "arith.divf" => l / r,
        "arith.minf" => l.min(r),
        "arith.maxf" => l.max(r),
        _ => return None,
    };
    Some(vec![FoldOut::Attr(Attribute::Float(out))])
}

fn fold_negf(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let v = const_float_of(m, m.op_operand(op, 0))?;
    Some(vec![FoldOut::Attr(Attribute::Float(-v))])
}

fn eval_int_predicate(pred: &str, l: i64, r: i64) -> Option<bool> {
    Some(match pred {
        "eq" => l == r,
        "ne" => l != r,
        "slt" => l < r,
        "sle" => l <= r,
        "sgt" => l > r,
        "sge" => l >= r,
        _ => return None,
    })
}

fn fold_cmpi(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let l = const_int_of(m, m.op_operand(op, 0))?;
    let r = const_int_of(m, m.op_operand(op, 1))?;
    let pred = m.attr(op, "predicate")?.as_str()?.to_string();
    let out = eval_int_predicate(&pred, l, r)?;
    Some(vec![FoldOut::Attr(Attribute::Bool(out))])
}

fn fold_cmpf(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let l = const_float_of(m, m.op_operand(op, 0))?;
    let r = const_float_of(m, m.op_operand(op, 1))?;
    let pred = m.attr(op, "predicate")?.as_str()?.to_string();
    let out = match pred.as_str() {
        "eq" => l == r,
        "ne" => l != r,
        "slt" => l < r,
        "sle" => l <= r,
        "sgt" => l > r,
        "sge" => l >= r,
        _ => return None,
    };
    Some(vec![FoldOut::Attr(Attribute::Bool(out))])
}

fn fold_select(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let cond = const_of(m, m.op_operand(op, 0))?;
    let cond = cond.as_bool().or_else(|| cond.as_int().map(|v| v != 0))?;
    let chosen = if cond {
        m.op_operand(op, 1)
    } else {
        m.op_operand(op, 2)
    };
    Some(vec![FoldOut::Value(chosen)])
}

fn fold_cast_int(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let v = const_int_of(m, m.op_operand(op, 0))?;
    Some(vec![FoldOut::Attr(Attribute::Int(v))])
}

fn fold_sitofp(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let v = const_int_of(m, m.op_operand(op, 0))?;
    Some(vec![FoldOut::Attr(Attribute::Float(v as f64))])
}

fn fold_fptosi(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let v = const_float_of(m, m.op_operand(op, 0))?;
    Some(vec![FoldOut::Attr(Attribute::Int(v as i64))])
}

// ----------------------------------------------------------------------
// Builder helpers
// ----------------------------------------------------------------------

/// Build an integer constant of the given type.
pub fn constant_int(b: &mut Builder<'_>, value: i64, ty: Type) -> ValueId {
    b.build_value(
        "arith.constant",
        &[],
        ty,
        vec![("value".into(), Attribute::Int(value))],
    )
}

/// Build an `index` constant.
pub fn constant_index(b: &mut Builder<'_>, value: i64) -> ValueId {
    let ty = b.ctx().index_type();
    constant_int(b, value, ty)
}

/// Build a floating-point constant of the given type.
pub fn constant_float(b: &mut Builder<'_>, value: f64, ty: Type) -> ValueId {
    b.build_value(
        "arith.constant",
        &[],
        ty,
        vec![("value".into(), Attribute::Float(value))],
    )
}

fn binary(b: &mut Builder<'_>, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let ty = b.module().value_type(lhs);
    b.build_value(name, &[lhs, rhs], ty, vec![])
}

pub fn addi(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.addi", l, r)
}

pub fn subi(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.subi", l, r)
}

pub fn muli(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.muli", l, r)
}

pub fn divsi(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.divsi", l, r)
}

pub fn remsi(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.remsi", l, r)
}

pub fn minsi(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.minsi", l, r)
}

pub fn maxsi(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.maxsi", l, r)
}

pub fn addf(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.addf", l, r)
}

pub fn subf(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.subf", l, r)
}

pub fn mulf(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.mulf", l, r)
}

pub fn divf(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.divf", l, r)
}

pub fn minf(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.minf", l, r)
}

pub fn maxf(b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
    binary(b, "arith.maxf", l, r)
}

pub fn negf(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    let ty = b.module().value_type(v);
    b.build_value("arith.negf", &[v], ty, vec![])
}

/// Integer/index comparison; `pred` is one of the [`predicate`] constants.
pub fn cmpi(b: &mut Builder<'_>, pred: &str, l: ValueId, r: ValueId) -> ValueId {
    let i1 = b.ctx().i1_type();
    b.build_value(
        "arith.cmpi",
        &[l, r],
        i1,
        vec![("predicate".into(), Attribute::Str(pred.into()))],
    )
}

/// Float comparison; `pred` is one of the [`predicate`] constants.
pub fn cmpf(b: &mut Builder<'_>, pred: &str, l: ValueId, r: ValueId) -> ValueId {
    let i1 = b.ctx().i1_type();
    b.build_value(
        "arith.cmpf",
        &[l, r],
        i1,
        vec![("predicate".into(), Attribute::Str(pred.into()))],
    )
}

pub fn select(b: &mut Builder<'_>, cond: ValueId, t: ValueId, f: ValueId) -> ValueId {
    let ty = b.module().value_type(t);
    b.build_value("arith.select", &[cond, t, f], ty, vec![])
}

/// `arith.index_cast` between `index` and integer types.
pub fn index_cast(b: &mut Builder<'_>, v: ValueId, to: Type) -> ValueId {
    b.build_value("arith.index_cast", &[v], to, vec![])
}

pub fn sitofp(b: &mut Builder<'_>, v: ValueId, to: Type) -> ValueId {
    b.build_value("arith.sitofp", &[v], to, vec![])
}

pub fn fptosi(b: &mut Builder<'_>, v: ValueId, to: Type) -> ValueId {
    b.build_value("arith.fptosi", &[v], to, vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_ir::{apply_patterns_greedily, verify, Module};

    fn setup() -> (Context, Module) {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let m = Module::new(&ctx);
        (ctx, m)
    }

    #[test]
    fn constants_verify() {
        let (_ctx, mut m) = setup();
        let block = m.top_block();
        let mut b = Builder::at_end(&mut m, block);
        let i32t = b.ctx().i32_type();
        let f32t = b.ctx().f32_type();
        constant_int(&mut b, 42, i32t);
        constant_float(&mut b, 1.5, f32t);
        constant_index(&mut b, 7);
        assert!(verify(&m).is_ok());
    }

    #[test]
    fn mismatched_binary_rejected() {
        let (ctx, mut m) = setup();
        let block = m.top_block();
        let mut b = Builder::at_end(&mut m, block);
        let i32t = ctx.i32_type();
        let i64t = ctx.i64_type();
        let a = constant_int(&mut b, 1, i32t);
        let c = constant_int(&mut b, 2, i64t.clone());
        b.build("arith.addi", &[a, c], &[i64t], vec![]);
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("types must match"), "{err}");
    }

    #[test]
    fn constant_folding_add() {
        let (ctx, mut m) = setup();
        let block = m.top_block();
        // Keep the result alive with a user that doesn't fold.
        let v = {
            let mut b = Builder::at_end(&mut m, block);
            let i64t = ctx.i64_type();
            let a = constant_int(&mut b, 20, i64t.clone());
            let c = constant_int(&mut b, 22, i64t);
            addi(&mut b, a, c)
        };
        {
            let mut b = Builder::at_end(&mut m, block);
            b.build("llvm.store", &[v, v], &[], vec![]); // operand types unchecked here
        }
        let top = m.top();
        apply_patterns_greedily(&mut m, top, &[]);
        // The add must be gone; a constant 42 must feed the store.
        let ops: Vec<String> = m
            .block_ops(m.top_block())
            .iter()
            .map(|&o| m.op_name_str(o).to_string())
            .collect();
        assert!(!ops.contains(&"arith.addi".to_string()), "{ops:?}");
        let store = *m.block_ops(m.top_block()).last().unwrap();
        let operand = m.op_operand(store, 0);
        assert_eq!(const_int_of(&m, operand), Some(42));
    }

    #[test]
    fn identity_folds() {
        let (ctx, mut m) = setup();
        let block = m.top_block();
        let (x, sum) = {
            let mut b = Builder::at_end(&mut m, block);
            let i64t = ctx.i64_type();
            let x = b.build_value("llvm.undef", &[], i64t.clone(), vec![]);
            let zero = constant_int(&mut b, 0, i64t);
            let sum = addi(&mut b, x, zero);
            (x, sum)
        };
        {
            let mut b = Builder::at_end(&mut m, block);
            b.build("llvm.store", &[sum, sum], &[], vec![]);
        }
        let top = m.top();
        apply_patterns_greedily(&mut m, top, &[]);
        let store = *m.block_ops(m.top_block()).last().unwrap();
        assert_eq!(m.op_operand(store, 0), x);
    }

    #[test]
    fn cmp_and_select_fold() {
        let (ctx, mut m) = setup();
        let block = m.top_block();
        let sel = {
            let mut b = Builder::at_end(&mut m, block);
            let i64t = ctx.i64_type();
            let a = constant_int(&mut b, 3, i64t.clone());
            let c = constant_int(&mut b, 5, i64t.clone());
            let cond = cmpi(&mut b, predicate::SLT, a, c);
            let x = constant_int(&mut b, 100, i64t.clone());
            let y = constant_int(&mut b, 200, i64t);
            select(&mut b, cond, x, y)
        };
        {
            let mut b = Builder::at_end(&mut m, block);
            b.build("llvm.store", &[sel, sel], &[], vec![]);
        }
        let top = m.top();
        apply_patterns_greedily(&mut m, top, &[]);
        let store = *m.block_ops(m.top_block()).last().unwrap();
        assert_eq!(const_int_of(&m, m.op_operand(store, 0)), Some(100));
    }
}
