//! The `arith` dialect: constants, integer/float arithmetic, comparisons.
//!
//! All ops are pure; binary ops fold when both operands are constants, and a
//! few algebraic identities (`x + 0`, `x * 1`, `x * 0`) fold as well. The
//! dialect registers the context-wide *constant materializer* used by the
//! greedy folding driver.

use sycl_mlir_ir::dialect::{traits, Constraint::*, FoldFn, FoldOut, OpInfo, Signature};
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

/// `(x, x) -> x` over integers or `index`.
const INT_BINARY: Signature = Signature::new(&[IntOrIndex, Same(0)], &[Same(0)]);
/// `(x, x) -> x` over floats.
const FLOAT_BINARY: Signature = Signature::new(&[Float, Same(0)], &[Same(0)]);
/// `x -> x` over floats; `math`'s unary functions too.
pub(crate) const FLOAT_UNARY: Signature = Signature::new(&[Float], &[Same(0)]);
/// `(i1, x, x) -> x`.
const SELECT: Signature = Signature::new(&[I1, Any, Same(1)], &[Same(1)]);
const SITOFP: Signature = Signature::new(&[IntOrIndex], &[Float]);
const FPTOSI: Signature = Signature::new(&[Float], &[IntOrIndex]);
/// A cast between integer widths or to and from `index`.
const INT_CAST: Signature = Signature::new(&[IntOrIndex], &[IntOrIndex]);
/// `truncf` / `extf`: the direction is the hook's.
const FLOAT_CAST: Signature = Signature::new(&[Float], &[Float]);

impl Dialect for ArithDialect {
    fn name(&self) -> &'static str {
        "arith"
    }

    fn register(&self, ctx: &Context) {
        let pure = |name: &str, sig: Signature| {
            OpInfo::new(name)
                .with_traits(traits::PURE)
                .with_signature(sig)
        };
        let folded: [(&str, Signature, FoldFn); 23] = [
            ("arith.addi", INT_BINARY, fold_int_binary),
            ("arith.subi", INT_BINARY, fold_int_binary),
            ("arith.muli", INT_BINARY, fold_int_binary),
            ("arith.divsi", INT_BINARY, fold_int_binary),
            ("arith.remsi", INT_BINARY, fold_int_binary),
            ("arith.andi", INT_BINARY, fold_int_binary),
            ("arith.ori", INT_BINARY, fold_int_binary),
            ("arith.xori", INT_BINARY, fold_int_binary),
            ("arith.minsi", INT_BINARY, fold_int_binary),
            ("arith.maxsi", INT_BINARY, fold_int_binary),
            ("arith.addf", FLOAT_BINARY, fold_float_binary),
            ("arith.subf", FLOAT_BINARY, fold_float_binary),
            ("arith.mulf", FLOAT_BINARY, fold_float_binary),
            ("arith.divf", FLOAT_BINARY, fold_float_binary),
            ("arith.minf", FLOAT_BINARY, fold_float_binary),
            ("arith.maxf", FLOAT_BINARY, fold_float_binary),
            ("arith.negf", FLOAT_UNARY, fold_negf),
            ("arith.select", SELECT, fold_select),
            ("arith.index_cast", INT_CAST, fold_cast_int),
            ("arith.trunci", INT_CAST, fold_cast_int),
            ("arith.extsi", INT_CAST, fold_cast_int),
            ("arith.sitofp", SITOFP, fold_sitofp),
            ("arith.fptosi", FPTOSI, fold_fptosi),
        ];
        for (name, sig, fold) in folded {
            ctx.register_op(pure(name, sig).with_fold(fold));
        }
        ctx.register_op(
            OpInfo::new("arith.constant")
                .with_traits(traits::CONSTANT_LIKE | traits::PURE)
                .with_signature(Signature::new(&[], &[Any]))
                .with_verify(verify_constant),
        );
        let cmpi = Signature::new(&[IntOrIndex, Same(0)], &[I1]);
        let cmpf = Signature::new(&[Float, Same(0)], &[I1]);
        for (name, sig, fold) in [
            ("arith.cmpi", cmpi, fold_cmp::<false> as FoldFn),
            ("arith.cmpf", cmpf, fold_cmp::<true>),
        ] {
            ctx.register_op(
                pure(name, sig)
                    .with_verify(verify_predicate)
                    .with_fold(fold),
            );
        }
        ctx.register_op(pure("arith.truncf", FLOAT_CAST).with_verify(verify_float_cast::<true>));
        ctx.register_op(pure("arith.extf", FLOAT_CAST).with_verify(verify_float_cast::<false>));
        ctx.register_constant_materializer(|m, block, index, attr, ty| {
            let name = m.ctx().lookup_op("arith.constant")?;
            let op = m.create_op(
                name,
                &[],
                std::slice::from_ref(ty),
                [("value", attr.clone())],
            );
            m.insert_op(block, index, op);
            Some(m.op_result(op, 0))
        });
    }
}

// ----------------------------------------------------------------------
// Verifiers
// ----------------------------------------------------------------------

/// The `value` attribute fits the result type.
fn verify_constant(m: &Module, op: OpId) -> Result<(), String> {
    let value = m
        .attr_by_id(op, m.ctx().common_keys().value)
        .ok_or("missing `value` attribute")?;
    let ty = m.value_type(m.op_result(op, 0));
    match (value, ty.kind()) {
        (Attribute::Int(v), TypeKind::Int(_)) if !fits(*v, ty) => {
            Err(format!("value {v} is out of range for {ty}"))
        }
        (Attribute::Int(_), TypeKind::Int(_) | TypeKind::Index) => Ok(()),
        (Attribute::Bool(_), TypeKind::Int(1)) => Ok(()),
        (Attribute::Float(_), TypeKind::F32 | TypeKind::F64) => Ok(()),
        (Attribute::DenseI64(_) | Attribute::DenseF64(_), TypeKind::MemRef { .. }) => Ok(()),
        _ => Err(format!(
            "value attribute {value} incompatible with result type {ty}"
        )),
    }
}

/// Whether `v` is an `iN` value in the signed or the unsigned `N`-bit
/// range; `index` and `i64` hold every value.
fn fits(v: i64, ty: &Type) -> bool {
    match ty.int_width() {
        Some(w @ 1..=63) => (-(1_i64 << (w - 1))..1_i64 << w).contains(&v),
        _ => true,
    }
}

/// `v` as the folded integer result of `op`, unless it is out of the
/// result type's range: the engines keep integers as `i64` and do not
/// wrap, so such an op stays unfolded.
fn fold_int(m: &Module, op: OpId, v: i64) -> Option<Vec<FoldOut>> {
    let fit = fits(v, m.value_type(m.op_result(op, 0)));
    fit.then(|| vec![FoldOut::Attr(Attribute::Int(v))])
}

/// `cmpi` / `cmpf` name one of the [`predicate`]s.
fn verify_predicate(m: &Module, op: OpId) -> Result<(), String> {
    let pred = m
        .attr_by_id(op, m.ctx().common_keys().predicate)
        .and_then(|a| a.as_str())
        .ok_or("missing `predicate`")?;
    match eval_predicate(pred, 0, 0) {
        Some(_) => Ok(()),
        None => Err(format!("unknown predicate `{pred}`")),
    }
}

/// `arith.truncf` (`NARROW`) does not widen its float and `arith.extf`
/// does not narrow it.
fn verify_float_cast<const NARROW: bool>(m: &Module, op: OpId) -> Result<(), String> {
    let from = m.value_type(m.op_operand(op, 0));
    let to = m.value_type(m.op_result(op, 0));
    let wide = |t: &Type| matches!(t.kind(), TypeKind::F64);
    match (NARROW, wide(from), wide(to)) {
        (true, false, true) => Err(format!("truncf must not widen {from} to {to}")),
        (false, true, false) => Err(format!("extf must not narrow {from} to {to}")),
        _ => Ok(()),
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
    fold_int(m, op, out)
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

/// `l <pred> r`, or `None` for a name that is no [`predicate`].
fn eval_predicate<T: PartialOrd>(pred: &str, l: T, r: T) -> Option<bool> {
    Some(match pred {
        predicate::EQ => l == r,
        predicate::NE => l != r,
        predicate::SLT => l < r,
        predicate::SLE => l <= r,
        predicate::SGT => l > r,
        predicate::SGE => l >= r,
        _ => return None,
    })
}

/// `cmpi` (`FLOAT` false) or `cmpf` of two constants.
fn fold_cmp<const FLOAT: bool>(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let pred = m
        .attr_by_id(op, m.ctx().common_keys().predicate)?
        .as_str()?;
    let (l, r) = (m.op_operand(op, 0), m.op_operand(op, 1));
    let out = if FLOAT {
        eval_predicate(pred, const_float_of(m, l)?, const_float_of(m, r)?)
    } else {
        eval_predicate(pred, const_int_of(m, l)?, const_int_of(m, r)?)
    };
    Some(vec![FoldOut::Attr(Attribute::Bool(out?))])
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
    fold_int(m, op, const_int_of(m, m.op_operand(op, 0))?)
}

fn fold_sitofp(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let v = const_int_of(m, m.op_operand(op, 0))?;
    Some(vec![FoldOut::Attr(Attribute::Float(v as f64))])
}

fn fold_fptosi(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    fold_int(m, op, const_float_of(m, m.op_operand(op, 0))? as i64)
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
        [("value", Attribute::Int(value))],
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
        [("value", Attribute::Float(value))],
    )
}

fn binary(b: &mut Builder<'_>, name: &str, lhs: ValueId, rhs: ValueId) -> ValueId {
    let ty = b.module().value_type(lhs).clone();
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
    let ty = b.module().value_type(v).clone();
    b.build_value("arith.negf", &[v], ty, vec![])
}

/// Integer/index comparison; `pred` is one of the [`predicate`] constants.
pub fn cmpi(b: &mut Builder<'_>, pred: &str, l: ValueId, r: ValueId) -> ValueId {
    let i1 = b.ctx().i1_type();
    b.build_value(
        "arith.cmpi",
        &[l, r],
        i1,
        [("predicate", b.ctx().str_attr(pred))],
    )
}

/// Float comparison; `pred` is one of the [`predicate`] constants.
pub fn cmpf(b: &mut Builder<'_>, pred: &str, l: ValueId, r: ValueId) -> ValueId {
    let i1 = b.ctx().i1_type();
    b.build_value(
        "arith.cmpf",
        &[l, r],
        i1,
        [("predicate", b.ctx().str_attr(pred))],
    )
}

pub fn select(b: &mut Builder<'_>, cond: ValueId, t: ValueId, f: ValueId) -> ValueId {
    let ty = b.module().value_type(t).clone();
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

    /// Integer ops and `cmpi` read integers or `index`, float ops and
    /// `cmpf` floats: `arith.addi` over `f32` does not verify. `truncf`
    /// and `extf` take a float to a float, `truncf` not widening it and
    /// `extf` not narrowing it.
    #[test]
    fn ops_verify_their_operand_class() {
        let verdict = |name: &str, float: bool| {
            let (ctx, mut m) = setup();
            let block = m.top_block();
            let mut b = Builder::at_end(&mut m, block);
            let ty = if float {
                ctx.f32_type()
            } else {
                ctx.index_type()
            };
            let (l, r) = if float {
                let l = constant_float(&mut b, 1.0, ty.clone());
                (l, constant_float(&mut b, 2.0, ty.clone()))
            } else {
                (constant_index(&mut b, 1), constant_index(&mut b, 2))
            };
            let (result, attrs) = if name.starts_with("arith.cmp") {
                (ctx.i1_type(), vec![("predicate", ctx.str_attr("eq"))])
            } else {
                (ty, vec![])
            };
            b.build(name, &[l, r], &[result], attrs);
            verify(&m).map_err(|e| e.to_string())
        };
        for (name, class) in [
            ("arith.addi", "integer or index"),
            ("arith.cmpi", "integer or index"),
            ("arith.mulf", "float"),
            ("arith.cmpf", "float"),
        ] {
            let float = class == "float";
            assert_eq!(verdict(name, float), Ok(()), "{name}");
            let err = verdict(name, !float).expect_err(name);
            assert!(
                err.contains(&format!("operand #0 must be {class}, got ")),
                "{name}: {err}"
            );
        }
        let cast = |name: &str, from: &str, to: &str| {
            let (ctx, mut m) = setup();
            let block = m.top_block();
            let mut b = Builder::at_end(&mut m, block);
            let ty = |t: &str| match t {
                "f32" => ctx.f32_type(),
                "f64" => ctx.f64_type(),
                _ => ctx.index_type(),
            };
            let x = match ty(from) {
                t if t.is_float() => constant_float(&mut b, 1.0, t),
                _ => constant_index(&mut b, 1),
            };
            b.build(name, &[x], &[ty(to)], vec![]);
            verify(&m).map_err(|e| e.to_string())
        };
        for (name, from, to, refused) in [
            ("arith.truncf", "f64", "f32", None),
            ("arith.truncf", "f32", "f32", None),
            (
                "arith.truncf",
                "f32",
                "f64",
                Some("truncf must not widen f32 to f64"),
            ),
            (
                "arith.truncf",
                "index",
                "f32",
                Some("`arith.truncf`: operand #0 must be float, got index"),
            ),
            ("arith.extf", "f32", "f64", None),
            (
                "arith.extf",
                "f64",
                "f32",
                Some("extf must not narrow f64 to f32"),
            ),
            (
                "arith.extf",
                "f32",
                "index",
                Some("`arith.extf`: result #0 must be float, got index"),
            ),
        ] {
            match (cast(name, from, to), refused) {
                (Ok(()), None) => {}
                (Err(err), Some(why)) => assert!(err.contains(why), "{name}: {err}"),
                (verdict, _) => panic!("{name} {from} -> {to}: {verdict:?}"),
            }
        }
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
        assert!(
            err.to_string()
                .contains("`arith.addi`: operand #1 must be i32 like operand #0, got i64"),
            "{err}"
        );
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
            let sink = crate::llvm::alloca(&mut b, "sink");
            crate::llvm::store(&mut b, v, sink);
        }
        let top = m.top();
        apply_patterns_greedily(&mut m, top);
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

    /// `trunci` of a constant folds only when the constant fits the
    /// narrower type: the engines keep integers as `i64`, so `trunci 300 :
    /// i32 to i8` computes 300, and a folded `arith.constant 300 : i8`
    /// would not verify. A constant verifies in the signed or the unsigned
    /// range of its width.
    #[test]
    fn trunci_folds_only_what_fits() {
        let folded = |value: i64| {
            let (ctx, mut m) = setup();
            let block = m.top_block();
            let mut b = Builder::at_end(&mut m, block);
            let wide = constant_int(&mut b, value, ctx.i32_type());
            let narrow = b.build_value("arith.trunci", &[wide], ctx.int_type(8), vec![]);
            let sink = crate::llvm::alloca(&mut b, "sink");
            crate::llvm::store(&mut b, narrow, sink);
            let top = m.top();
            apply_patterns_greedily(&mut m, top);
            assert!(verify(&m).is_ok(), "{value}: {:?}", verify(&m));
            let store = *m.block_ops(m.top_block()).last().unwrap();
            const_int_of(&m, m.op_operand(store, 0))
        };
        assert_eq!(folded(100), Some(100));
        assert_eq!(folded(-128), Some(-128));
        assert_eq!(folded(255), Some(255));
        assert_eq!(folded(300), None, "300 does not fit i8");
        assert_eq!(folded(-129), None, "-129 does not fit i8");

        let verdict = |value: i64| {
            let (ctx, mut m) = setup();
            let block = m.top_block();
            let mut b = Builder::at_end(&mut m, block);
            constant_int(&mut b, value, ctx.int_type(8));
            verify(&m).map_err(|e| e.messages.join("; "))
        };
        assert!(verdict(-128).is_ok() && verdict(255).is_ok());
        assert_eq!(
            verdict(300),
            Err("`arith.constant`: value 300 is out of range for i8".to_string())
        );
        assert!(verdict(-129).is_err());
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
            let sink = crate::llvm::alloca(&mut b, "sink");
            crate::llvm::store(&mut b, sum, sink);
        }
        let top = m.top();
        apply_patterns_greedily(&mut m, top);
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
            let sink = crate::llvm::alloca(&mut b, "sink");
            crate::llvm::store(&mut b, sel, sink);
        }
        let top = m.top();
        apply_patterns_greedily(&mut m, top);
        let store = *m.block_ops(m.top_block()).last().unwrap();
        assert_eq!(const_int_of(&m, m.op_operand(store, 0)), Some(100));
    }
}
