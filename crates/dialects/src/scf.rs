//! The `scf` dialect: structured control flow (`scf.for`, `scf.if`,
//! `scf.yield`) with closure-based region builders.

use sycl_mlir_ir::dialect::{traits, Constraint::*, OpInfo, Signature};
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
                .with_signature(LOOP)
                .with_verify(verify_loop_shape),
        );
        ctx.register_op(
            OpInfo::new("scf.if")
                .with_traits(traits::BRANCH_LIKE | traits::RECURSIVE_EFFECTS)
                .with_signature(Signature::new(&[I1], &[]).variadic_results(Any))
                .with_verify(verify_if),
        );
        ctx.register_op(
            OpInfo::new("scf.yield")
                .with_traits(traits::TERMINATOR)
                .with_signature(YIELD)
                .with_verify(|m, op| yield_in(m, op, &["scf.for", "scf.if"])),
        );
    }
}

/// `scf.for` / `affine.for`: `(lb, ub, step, inits...)` -> one per init.
pub(crate) const LOOP: Signature = Signature::new(&[IntOrIndex, IntOrIndex, IntOrIndex], &[])
    .variadic(Any)
    .variadic_results(Any);

/// `scf.yield` / `affine.yield`, which the parent's hook checks.
pub(crate) const YIELD: Signature = Signature::new(&[], &[]).variadic(Any);

/// A yield ends a region of the op that consumes it, one of `parents`.
pub(crate) fn yield_in(m: &Module, op: OpId, parents: &[&str]) -> Result<(), String> {
    match m.op_parent_op(op) {
        Some(p) if !parents.iter().any(|&name| m.op_is(p, name)) => Err(format!(
            "must be nested directly in `{}`",
            parents.join("` or `")
        )),
        _ => Ok(()),
    }
}

/// `scf.for` / `affine.for`: one region taking `(iv, iters...)`, iters,
/// inits and results of one type each, and a yield of those types.
pub(crate) fn verify_loop_shape(m: &Module, op: OpId) -> Result<(), String> {
    let inits = &m.op_operands(op)[3..];
    let results = m.op_results(op);
    if results.len() != inits.len() {
        return Err(format!(
            "{} iter_args but {} results",
            inits.len(),
            results.len()
        ));
    }
    if m.op_regions(op).len() != 1 {
        return Err("expects exactly one region".into());
    }
    let args = m.block_args(m.op_region_block(op, 0));
    if args.len() != 1 + inits.len() {
        return Err(format!(
            "body block takes {} arguments, expected {} (iv + iter_args)",
            args.len(),
            1 + inits.len()
        ));
    }
    if !m.value_type(args[0]).is_int_or_index() {
        return Err("induction variable must be integer/index".into());
    }
    for (i, ((&iter, &init), &res)) in args[1..].iter().zip(inits).zip(results).enumerate() {
        let [iter_ty, init_ty, res_ty] = [iter, init, res].map(|v| m.value_type(v));
        if iter_ty != init_ty || iter_ty != res_ty {
            return Err(format!(
                "iter_arg #{i}: init {init_ty}, carried {iter_ty}, result {res_ty} must all match"
            ));
        }
    }
    verify_yield(m, op, 0)
}

/// Region `region` of `op` yields one value of each result's type.
fn verify_yield(m: &Module, op: OpId, region: usize) -> Result<(), String> {
    let block = m.op_region_block(op, region);
    let Some(term) = m
        .block_terminator(block)
        .filter(|&t| m.op_has_trait(t, traits::TERMINATOR))
    else {
        return Ok(()); // the structural walk reports the missing terminator
    };
    let (yielded, results) = (m.op_operands(term), m.op_results(op));
    if yielded.len() != results.len() {
        return Err(format!(
            "region #{region} yields {} values but the op has {} results",
            yielded.len(),
            results.len()
        ));
    }
    for (i, (&y, &r)) in yielded.iter().zip(results).enumerate() {
        let (got, want) = (m.value_type(y), m.value_type(r));
        if got != want {
            return Err(format!(
                "region #{region} yields {got} as value #{i}, but result #{i} is {want}"
            ));
        }
    }
    Ok(())
}

/// A `then` and an `else` region without arguments, each yielding.
fn verify_if(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_regions(op).len() != 2 {
        return Err("expects a `then` and an `else` region".into());
    }
    for ri in 0..2 {
        if !m.block_args(m.op_region_block(op, ri)).is_empty() {
            return Err("if regions take no arguments".into());
        }
        verify_yield(m, op, ri)?;
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
    let result_types: Vec<Type> = inits
        .iter()
        .map(|&v| b.module().value_type(v).clone())
        .collect();
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
        assert!(
            err.to_string()
                .contains("`scf.for`: expects at least 3 operands, got 1"),
            "{err}"
        );
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
