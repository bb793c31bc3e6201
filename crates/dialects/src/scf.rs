//! The `scf` dialect: structured control flow (`scf.for`, `scf.if`,
//! `scf.yield`) with closure-based region builders.

use sycl_mlir_ir::dialect::{traits, OpInfo};
use sycl_mlir_ir::{Builder, Context, Dialect, Module, OpId, Type, ValueId};

/// Dialect registration handle.
pub struct ScfDialect;

impl Dialect for ScfDialect {
    fn name(&self) -> &'static str {
        "scf"
    }

    fn register(&self, ctx: &Context) {
        ctx.register_op(
            OpInfo::new("scf.for")
                .with_traits(traits::LOOP_LIKE | traits::RECURSIVE_EFFECTS)
                .with_verify(verify_for),
        );
        ctx.register_op(
            OpInfo::new("scf.if")
                .with_traits(traits::BRANCH_LIKE | traits::RECURSIVE_EFFECTS)
                .with_verify(verify_if),
        );
        ctx.register_op(OpInfo::new("scf.yield").with_traits(traits::TERMINATOR));
    }
}

/// Shared structural checks for `scf.for` / `affine.for`, which have the same
/// shape: `(lb, ub, step, inits...)`, one region whose block takes
/// `(iv, iters...)`, and results matching the `inits`.
pub(crate) fn verify_loop_shape(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.len() < 3 {
        return Err("expects at least (lb, ub, step)".into());
    }
    for (i, &v) in operands[..3].iter().enumerate() {
        if !m.value_type(v).is_int_or_index() {
            return Err(format!(
                "bound #{i} must be integer/index, got {}",
                m.value_type(v)
            ));
        }
    }
    let num_iters = operands.len() - 3;
    if m.op_results(op).len() != num_iters {
        return Err(format!(
            "{} iter_args but {} results",
            num_iters,
            m.op_results(op).len()
        ));
    }
    if m.op_regions(op).len() != 1 {
        return Err("expects exactly one region".into());
    }
    let block = m.op_region_block(op, 0);
    let args = m.block_args(block);
    if args.len() != 1 + num_iters {
        return Err(format!(
            "body block takes {} arguments, expected {} (iv + iter_args)",
            args.len(),
            1 + num_iters
        ));
    }
    if !m.value_type(args[0]).is_int_or_index() {
        return Err("induction variable must be integer/index".into());
    }
    for i in 0..num_iters {
        let iter_ty = m.value_type(args[1 + i]);
        let init_ty = m.value_type(operands[3 + i]);
        let res_ty = m.value_type(m.op_result(op, i));
        if iter_ty != init_ty || iter_ty != res_ty {
            return Err(format!(
                "iter_arg #{i}: init {init_ty}, carried {iter_ty}, result {res_ty} must all match"
            ));
        }
    }
    // Yield must match iter types.
    if let Some(term) = m.block_terminator(block) {
        let yielded = m.op_operands(term);
        if yielded.len() != num_iters {
            return Err(format!(
                "loop yields {} values but has {} iter_args",
                yielded.len(),
                num_iters
            ));
        }
    }
    Ok(())
}

fn verify_for(m: &Module, op: OpId) -> Result<(), String> {
    verify_loop_shape(m, op)
}

fn verify_if(m: &Module, op: OpId) -> Result<(), String> {
    let operands = m.op_operands(op);
    if operands.len() != 1 {
        return Err("expects exactly one condition operand".into());
    }
    if m.value_type(operands[0]).int_width() != Some(1) {
        return Err(format!(
            "condition must be i1, got {}",
            m.value_type(operands[0])
        ));
    }
    if m.op_regions(op).len() != 2 {
        return Err("expects a `then` and an `else` region".into());
    }
    for ri in 0..2 {
        let block = m.op_region_block(op, ri);
        if !m.block_args(block).is_empty() {
            return Err("if regions take no arguments".into());
        }
        if let Some(term) = m.block_terminator(block) {
            if m.op_operands(term).len() != m.op_results(op).len() {
                return Err(format!(
                    "region #{ri} yields {} values but the op has {} results",
                    m.op_operands(term).len(),
                    m.op_results(op).len()
                ));
            }
        }
    }
    Ok(())
}

/// Loop accessors shared by `scf.for` and `affine.for`.
pub mod loop_info {
    use super::*;

    pub fn lower_bound(m: &Module, op: OpId) -> ValueId {
        m.op_operand(op, 0)
    }

    pub fn upper_bound(m: &Module, op: OpId) -> ValueId {
        m.op_operand(op, 1)
    }

    pub fn step(m: &Module, op: OpId) -> ValueId {
        m.op_operand(op, 2)
    }

    pub fn iter_args(m: &Module, op: OpId) -> Vec<ValueId> {
        m.block_args(m.op_region_block(op, 0))[1..].to_vec()
    }

    pub fn body_block(m: &Module, op: OpId) -> sycl_mlir_ir::BlockId {
        m.op_region_block(op, 0)
    }

    /// `true` for any op with the `LOOP_LIKE` trait.
    pub fn is_loop(m: &Module, op: OpId) -> bool {
        m.op_has_trait(op, traits::LOOP_LIKE)
    }
}

/// Build a loop op (used for both `scf.for` and `affine.for`). The body
/// closure receives a builder positioned in the loop body, the induction
/// variable and the iteration arguments, and must return the values to
/// yield.
pub fn build_loop(
    b: &mut Builder<'_>,
    op_name: &str,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
    inits: &[ValueId],
    body: impl FnOnce(&mut Builder<'_>, ValueId, &[ValueId]) -> Vec<ValueId>,
) -> OpId {
    let result_types: Vec<Type> = inits.iter().map(|&v| b.module().value_type(v)).collect();
    let mut operands = vec![lb, ub, step];
    operands.extend_from_slice(inits);
    let op = b.build(op_name, &operands, &result_types, vec![]);
    let index_ty = b.ctx().index_type();
    let m = b.module();
    let region = m.add_region(op);
    let mut arg_types = vec![index_ty];
    arg_types.extend(result_types);
    let block = m.add_block(region, &arg_types);
    let iv = m.block_arg(block, 0);
    let iters: Vec<ValueId> = m.block_args(block)[1..].to_vec();
    let yields = {
        let mut inner = Builder::at_end(m, block);
        body(&mut inner, iv, &iters)
    };
    let yield_name = if op_name.starts_with("affine.") {
        "affine.yield"
    } else {
        "scf.yield"
    };
    let mut inner = Builder::at_end(m, block);
    inner.build(yield_name, &yields, &[], vec![]);
    op
}

/// Build an `scf.for`. See [`build_loop`] for the body contract.
pub fn build_for(
    b: &mut Builder<'_>,
    lb: ValueId,
    ub: ValueId,
    step: ValueId,
    inits: &[ValueId],
    body: impl FnOnce(&mut Builder<'_>, ValueId, &[ValueId]) -> Vec<ValueId>,
) -> OpId {
    build_loop(b, "scf.for", lb, ub, step, inits, body)
}

/// Build an `scf.if` with both branches; each closure returns its yields.
pub fn build_if(
    b: &mut Builder<'_>,
    cond: ValueId,
    result_types: &[Type],
    then_body: impl FnOnce(&mut Builder<'_>) -> Vec<ValueId>,
    else_body: impl FnOnce(&mut Builder<'_>) -> Vec<ValueId>,
) -> OpId {
    let op = b.build("scf.if", &[cond], result_types, vec![]);
    let m = b.module();
    for body in [
        Box::new(then_body) as Box<dyn FnOnce(&mut Builder<'_>) -> Vec<ValueId>>,
        Box::new(else_body),
    ] {
        let region = m.add_region(op);
        let block = m.add_block(region, &[]);
        let yields = {
            let mut inner = Builder::at_end(m, block);
            body(&mut inner)
        };
        let mut inner = Builder::at_end(m, block);
        inner.build("scf.yield", &yields, &[], vec![]);
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::{self, constant_index};
    use crate::func::{build_func, build_return};
    use sycl_mlir_ir::{print_module, verify, Module};

    #[test]
    fn build_for_with_iter_args() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let f64t = ctx.f64_type();
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "sum", &[], std::slice::from_ref(&f64t));
        {
            let mut b = Builder::at_end(&mut m, entry);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 10);
            let one = constant_index(&mut b, 1);
            let init = arith::constant_float(&mut b, 0.0, f64t);
            let loop_op = build_for(&mut b, zero, n, one, &[init], |inner, _iv, iters| {
                let one_f = arith::constant_float(inner, 1.0, inner.ctx().f64_type());
                let next = arith::addf(inner, iters[0], one_f);
                vec![next]
            });
            let result = b.module().op_result(loop_op, 0);
            build_return(&mut b, &[result]);
        }
        assert!(verify(&m).is_ok(), "{}\n{:?}", print_module(&m), verify(&m));
        let text = print_module(&m);
        assert!(text.contains("scf.for"), "{text}");
        assert!(text.contains("scf.yield"), "{text}");
    }

    #[test]
    fn build_if_with_results() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let i64t = ctx.i64_type();
        let top = m.top();
        let (_f, entry) = build_func(
            &mut m,
            top,
            "pick",
            &[ctx.i1_type()],
            std::slice::from_ref(&i64t),
        );
        let cond = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let if_op = build_if(
                &mut b,
                cond,
                std::slice::from_ref(&i64t),
                |inner| {
                    let one = arith::constant_int(inner, 1, inner.ctx().i64_type());
                    vec![one]
                },
                |inner| {
                    let two = arith::constant_int(inner, 2, inner.ctx().i64_type());
                    vec![two]
                },
            );
            let v = b.module().op_result(if_op, 0);
            build_return(&mut b, &[v]);
        }
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
    }

    #[test]
    fn loop_shape_violation_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let zero = constant_index(&mut b, 0);
            b.build("scf.for", &[zero], &[], vec![]);
        }
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("at least (lb, ub, step)"), "{err}");
    }

    #[test]
    fn loop_info_accessors() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "f", &[], &[]);
        let loop_op = {
            let mut b = Builder::at_end(&mut m, entry);
            let lb = constant_index(&mut b, 2);
            let ub = constant_index(&mut b, 8);
            let step = constant_index(&mut b, 2);
            let op = build_for(&mut b, lb, ub, step, &[], |_inner, _iv, _| vec![]);
            build_return(&mut b, &[]);
            op
        };
        assert!(loop_info::is_loop(&m, loop_op));
        assert_eq!(
            arith::const_int_of(&m, loop_info::lower_bound(&m, loop_op)),
            Some(2)
        );
        assert_eq!(
            arith::const_int_of(&m, loop_info::upper_bound(&m, loop_op)),
            Some(8)
        );
        assert!(loop_info::iter_args(&m, loop_op).is_empty());
    }
}
