//! The `func` dialect: `func.func`, `func.return`, `func.call`.

use sycl_mlir_ir::dialect::{traits, OpInfo};
use sycl_mlir_ir::{Attribute, Builder, Context, Dialect, Module, OpId, Type, ValueId};

/// Dialect registration handle.
pub struct FuncDialect;

impl Dialect for FuncDialect {
    fn name(&self) -> &'static str {
        "func"
    }

    fn register(&self, ctx: &Context) {
        ctx.register_op(
            OpInfo::new("func.func")
                .with_traits(traits::ISOLATED_FROM_ABOVE | traits::SYMBOL)
                .with_verify(verify_func),
        );
        ctx.register_op(
            OpInfo::new("func.return")
                .with_traits(traits::TERMINATOR)
                .with_verify(verify_return),
        );
        ctx.register_op(OpInfo::new("func.call").with_verify(verify_call));
    }
}

fn verify_func(m: &Module, op: OpId) -> Result<(), String> {
    let fty = m
        .attr(op, "function_type")
        .and_then(|a| a.as_type())
        .ok_or("missing `function_type` attribute")?;
    let (inputs, _) = fty
        .function_signature()
        .ok_or("`function_type` must be a function type")?;
    if m.symbol_name(op).is_none() {
        return Err("missing `sym_name` attribute".into());
    }
    if m.op_regions(op).len() != 1 {
        return Err("must have exactly one region".into());
    }
    let block = m.op_region_block(op, 0);
    let args = m.block_args(block);
    if args.len() != inputs.len() {
        return Err(format!(
            "entry block has {} arguments but the function type lists {}",
            args.len(),
            inputs.len()
        ));
    }
    for (i, (&a, t)) in args.iter().zip(inputs).enumerate() {
        if m.value_type(a) != t {
            return Err(format!(
                "entry argument #{i} has type {} but the function type lists {t}",
                m.value_type(a)
            ));
        }
    }
    Ok(())
}

fn verify_return(m: &Module, op: OpId) -> Result<(), String> {
    let Some(func) = m.op_parent_op(op) else {
        return Ok(());
    };
    if !m.op_is(func, "func.func") {
        return Err("must be nested directly in a `func.func`".into());
    }
    let fty = m
        .attr(func, "function_type")
        .and_then(|a| a.as_type())
        .ok_or("enclosing function missing `function_type`")?;
    let (_, results) = fty.function_signature().ok_or("bad function type")?;
    let operands = m.op_operands(op);
    if operands.len() != results.len() {
        return Err(format!(
            "returns {} values but the function type lists {}",
            operands.len(),
            results.len()
        ));
    }
    for (i, (&v, t)) in operands.iter().zip(results).enumerate() {
        if m.value_type(v) != t {
            return Err(format!(
                "returned value #{i} has type {} but the function returns {t}",
                m.value_type(v)
            ));
        }
    }
    Ok(())
}

fn verify_call(m: &Module, op: OpId) -> Result<(), String> {
    m.attr(op, "callee")
        .and_then(|a| a.as_symbol_ref())
        .map(|_| ())
        .ok_or_else(|| "missing `callee` symbol attribute".into())
}

/// Create a `func.func` named `name` inside `parent_module`'s block and
/// return `(func op, entry block)`.
pub fn build_func(
    m: &mut Module,
    parent_module: OpId,
    name: &str,
    inputs: &[Type],
    results: &[Type],
) -> (OpId, sycl_mlir_ir::BlockId) {
    let fty = m.ctx().function_type(inputs, results);
    let op_name = m.ctx().op("func.func");
    let op = m.create_op(
        op_name,
        &[],
        &[],
        [
            ("sym_name", m.ctx().str_attr(name)),
            ("function_type", Attribute::Type(fty)),
        ],
    );
    let region = m.add_region(op);
    let block = m.add_block(region, inputs);
    let parent_block = m.op_region_block(parent_module, 0);
    m.append_op(parent_block, op);
    (op, block)
}

/// Terminate the current block with `func.return`.
pub fn build_return(b: &mut Builder<'_>, values: &[ValueId]) -> OpId {
    b.build("func.return", values, &[], vec![])
}

/// Build a direct `func.call` to `callee` with the given result types.
pub fn build_call(b: &mut Builder<'_>, callee: &str, args: &[ValueId], results: &[Type]) -> OpId {
    b.build(
        "func.call",
        args,
        results,
        [("callee", b.ctx().symbol_attr(&[callee]))],
    )
}

/// Resolve a `func.call`'s callee within `scope` (usually the enclosing
/// module op).
pub fn resolve_callee(m: &Module, call: OpId, scope: OpId) -> Option<OpId> {
    m.lookup_symbol_path(scope, m.attr(call, "callee")?.as_symbol_ref()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_ir::verify;

    #[test]
    fn build_and_verify_function() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let top = m.top();
        let (func, entry) = build_func(
            &mut m,
            top,
            "id",
            std::slice::from_ref(&i32t),
            std::slice::from_ref(&i32t),
        );
        let arg = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            build_return(&mut b, &[arg]);
        }
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        assert_eq!(m.symbol_name(func), Some("id"));
        assert_eq!(m.lookup_symbol(m.top(), "id"), Some(func));
    }

    #[test]
    fn return_type_mismatch_rejected() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let i64t = ctx.i64_type();
        let top = m.top();
        let (_, entry) = build_func(&mut m, top, "bad", &[i64t], &[i32t]);
        let arg = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            build_return(&mut b, &[arg]);
        }
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("returned value #0"), "{err}");
    }

    #[test]
    fn call_resolution() {
        let ctx = Context::new();
        crate::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let top = m.top();
        let (callee, entry) = build_func(&mut m, top, "f", &[], &[]);
        {
            let mut b = Builder::at_end(&mut m, entry);
            build_return(&mut b, &[]);
        }
        let (_, entry2) = build_func(&mut m, top, "g", &[], &[]);
        let call = {
            let mut b = Builder::at_end(&mut m, entry2);
            let call = build_call(&mut b, "f", &[], &[]);
            build_return(&mut b, &[]);
            call
        };
        assert_eq!(resolve_callee(&m, call, m.top()), Some(callee));
    }
}
