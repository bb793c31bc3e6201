//! The `math` dialect: transcendental functions used by the SYCL-Bench
//! kernels (square roots in MolDyn/NBody/Correlation, `exp` in the kernels
//! derived from statistics workloads, …). All ops are pure and fold on
//! constant input.

use sycl_mlir_ir::dialect::{traits, FoldOut, OpInfo};
use sycl_mlir_ir::{Attribute, Builder, Context, Dialect, Module, OpId, ValueId};

/// Dialect registration handle.
pub struct MathDialect;

const UNARY_OPS: [&str; 8] = [
    "math.sqrt",
    "math.exp",
    "math.log",
    "math.absf",
    "math.sin",
    "math.cos",
    "math.floor",
    "math.rsqrt",
];

impl Dialect for MathDialect {
    fn name(&self) -> &'static str {
        "math"
    }

    fn register(&self, ctx: &Context) {
        for name in UNARY_OPS {
            ctx.register_op(
                OpInfo::new(name)
                    .with_traits(traits::PURE)
                    .with_verify(verify_unary)
                    .with_fold(fold_unary),
            );
        }
        ctx.register_op(
            OpInfo::new("math.powf")
                .with_traits(traits::PURE)
                .with_fold(fold_powf),
        );
    }
}

fn verify_unary(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).len() != 1 || m.op_results(op).len() != 1 {
        return Err("expects one operand and one result".into());
    }
    let in_ty = m.value_type(m.op_operand(op, 0));
    let out_ty = m.value_type(m.op_result(op, 0));
    if !in_ty.is_float() || in_ty != out_ty {
        return Err(format!(
            "expects matching float types, got {in_ty} -> {out_ty}"
        ));
    }
    Ok(())
}

/// Evaluate a `math` unary op on a concrete `f64`; shared with the
/// interpreter in the simulator crate.
pub fn eval_unary(name: &str, x: f64) -> Option<f64> {
    Some(match name {
        "math.sqrt" => x.sqrt(),
        "math.exp" => x.exp(),
        "math.log" => x.ln(),
        "math.absf" => x.abs(),
        "math.sin" => x.sin(),
        "math.cos" => x.cos(),
        "math.floor" => x.floor(),
        "math.rsqrt" => 1.0 / x.sqrt(),
        _ => return None,
    })
}

fn fold_unary(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let x = crate::arith::const_float_of(m, m.op_operand(op, 0))?;
    let name = m.op_name_str(op);
    let out = eval_unary(&name, x)?;
    Some(vec![FoldOut::Attr(Attribute::Float(out))])
}

fn fold_powf(m: &Module, op: OpId) -> Option<Vec<FoldOut>> {
    let x = crate::arith::const_float_of(m, m.op_operand(op, 0))?;
    let y = crate::arith::const_float_of(m, m.op_operand(op, 1))?;
    Some(vec![FoldOut::Attr(Attribute::Float(x.powf(y)))])
}

fn unary(b: &mut Builder<'_>, name: &str, v: ValueId) -> ValueId {
    let ty = b.module().value_type(v);
    b.build_value(name, &[v], ty, vec![])
}

pub fn sqrt(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    unary(b, "math.sqrt", v)
}

pub fn exp(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    unary(b, "math.exp", v)
}

pub fn log(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    unary(b, "math.log", v)
}

pub fn absf(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    unary(b, "math.absf", v)
}

pub fn sin(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    unary(b, "math.sin", v)
}

pub fn cos(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    unary(b, "math.cos", v)
}

pub fn floor(b: &mut Builder<'_>, v: ValueId) -> ValueId {
    unary(b, "math.floor", v)
}

pub fn powf(b: &mut Builder<'_>, x: ValueId, y: ValueId) -> ValueId {
    let ty = b.module().value_type(x);
    b.build_value("math.powf", &[x, y], ty, vec![])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{const_float_of, constant_float};
    use sycl_mlir_ir::{apply_patterns_greedily, verify, Module};

    #[test]
    fn sqrt_folds_on_constant() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let root = m.top();
        {
            let mut b = Builder::at_end(&mut m, block);
            let f64t = b.ctx().f64_type();
            let nine = constant_float(&mut b, 9.0, f64t);
            let r = sqrt(&mut b, nine);
            b.build("llvm.store", &[r, r], &[], vec![]);
        }
        apply_patterns_greedily(&mut m, root);
        let store = *m.block_ops(m.top_block()).last().unwrap();
        assert_eq!(const_float_of(&m, m.op_operand(store, 0)), Some(3.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let f32t = b.ctx().f32_type();
            let f64t = b.ctx().f64_type();
            let x = constant_float(&mut b, 1.0, f32t);
            b.build("math.sqrt", &[x], &[f64t], vec![]);
        }
        assert!(verify(&m).is_err());
    }
}
