//! Host-side SYCL operations (§VII-A, Listing 9): the raised representation
//! of command-group functions.
//!
//! Before raising, a CGF is `llvm.call`s into the runtime; after raising it
//! contains:
//!
//! * `sycl.host.constructor(%dst, args…) {type = !sycl.buffer<…>}` — the
//!   construction of a buffer / accessor / range / id object at `%dst`;
//! * `sycl.host.schedule_kernel(%handler, %range…, args…)
//!   {kernel = @device::@K}` — the kernel submission with its invocation
//!   context.

use sycl_mlir_ir::dialect::{Effect, OpInfo};
use sycl_mlir_ir::{Attribute, Builder, Context, Module, OpId, Type, ValueId};

/// Value of the `form` attribute on `sycl.host.schedule_kernel` for a
/// `parallel_for(range)` submission (runtime picks the work-group size).
pub const FORM_RANGE: &str = "range";

/// Value of the `form` attribute for a `parallel_for(nd_range)` submission.
pub const FORM_ND_RANGE: &str = "nd_range";

pub(crate) fn register_ops(ctx: &Context) {
    ctx.register_op(
        OpInfo::new("sycl.host.constructor")
            .with_verify(verify_constructor)
            .with_effects(|m, op| {
                let mut effects = vec![Effect::write(m.op_operand(op, 0))];
                for &v in &m.op_operands(op)[1..] {
                    effects.push(Effect::read(v));
                }
                effects
            }),
    );
    ctx.register_op(
        OpInfo::new("sycl.host.schedule_kernel")
            .with_verify(verify_schedule)
            .with_effects(|m, op| {
                // Reads every operand; writes unknown memory (the device).
                let mut effects: Vec<Effect> =
                    m.op_operands(op).iter().map(|&v| Effect::read(v)).collect();
                effects.push(Effect::write_unknown());
                effects
            }),
    );
}

fn verify_constructor(m: &Module, op: OpId) -> Result<(), String> {
    if m.op_operands(op).is_empty() {
        return Err("expects the destination pointer as first operand".into());
    }
    m.attr(op, "type")
        .and_then(|a| a.as_type())
        .map(|_| ())
        .ok_or_else(|| "missing `type` attribute naming the constructed SYCL type".into())
}

fn verify_schedule(m: &Module, op: OpId) -> Result<(), String> {
    let path = m
        .attr(op, "kernel")
        .and_then(|a| a.as_symbol_ref())
        .ok_or("missing `kernel` symbol attribute")?;
    if path.is_empty() {
        return Err("empty kernel symbol".into());
    }
    let form = m
        .attr(op, "form")
        .and_then(|a| a.as_str())
        .ok_or("missing `form` attribute")?;
    let min_operands = match form {
        FORM_RANGE => 2,    // handler, global range
        FORM_ND_RANGE => 3, // handler, global range, local range
        other => return Err(format!("unknown form `{other}`")),
    };
    if m.op_operands(op).len() < min_operands {
        return Err(format!(
            "form `{form}` requires at least {min_operands} operands, got {}",
            m.op_operands(op).len()
        ));
    }
    Ok(())
}

/// Build a `sycl.host.constructor` writing an object of SYCL type `ty` to
/// `dst` from `args`.
pub fn constructor(b: &mut Builder<'_>, dst: ValueId, args: &[ValueId], ty: Type) -> OpId {
    let mut operands = vec![dst];
    operands.extend_from_slice(args);
    b.build(
        "sycl.host.constructor",
        &operands,
        &[],
        [("type", Attribute::Type(ty))],
    )
}

/// Build a `sycl.host.schedule_kernel` for a `parallel_for(range)`.
pub fn schedule_range(
    b: &mut Builder<'_>,
    handler: ValueId,
    global_range: ValueId,
    args: &[ValueId],
    kernel_path: &[&str],
) -> OpId {
    let mut operands = vec![handler, global_range];
    operands.extend_from_slice(args);
    b.build(
        "sycl.host.schedule_kernel",
        &operands,
        &[],
        [
            ("kernel", b.ctx().symbol_attr(kernel_path)),
            ("form", b.ctx().str_attr(FORM_RANGE)),
        ],
    )
}

/// Accessors for a `sycl.host.schedule_kernel` op.
pub mod schedule_info {
    use super::*;
    use std::sync::Arc;

    pub fn kernel_path(m: &Module, op: OpId) -> Option<&[Arc<str>]> {
        m.attr(op, "kernel")?.as_symbol_ref()
    }

    pub fn form(m: &Module, op: OpId) -> Option<&str> {
        m.attr(op, "form")?.as_str()
    }

    pub fn handler(m: &Module, op: OpId) -> ValueId {
        m.op_operand(op, 0)
    }

    pub fn global_range(m: &Module, op: OpId) -> ValueId {
        m.op_operand(op, 1)
    }

    pub fn local_range(m: &Module, op: OpId) -> Option<ValueId> {
        if form(m, op) == Some(FORM_ND_RANGE) {
            Some(m.op_operand(op, 2))
        } else {
            None
        }
    }

    /// The kernel arguments (everything after handler + range operands).
    pub fn kernel_args(m: &Module, op: OpId) -> Vec<ValueId> {
        let skip = if form(m, op) == Some(FORM_ND_RANGE) {
            3
        } else {
            2
        };
        m.op_operands(op)[skip..].to_vec()
    }

    /// Resolve the scheduled kernel function inside the joint module.
    pub fn resolve_kernel(m: &Module, op: OpId) -> Option<OpId> {
        m.lookup_symbol_path(m.top(), kernel_path(m, op)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{buffer_type, range_type};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::llvm;
    use sycl_mlir_ir::{verify, Module};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        crate::register(&c);
        c
    }

    /// Builds the shape of the paper's Listing 9 and checks the accessors.
    #[test]
    fn listing9_shape() {
        let c = ctx();
        let mut m = Module::new(&c);
        let ptr = c.ptr_type();
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "cgf", &[ptr.clone(), ptr.clone(), ptr], &[]);
        let cgh = m.block_arg(entry, 0);
        let buf_a = m.block_arg(entry, 1);
        let schedule = {
            let mut b = Builder::at_end(&mut m, entry);
            let i64t = b.ctx().i64_type();
            let f32t = b.ctx().f32_type();
            let range_ty = range_type(b.ctx(), 1);
            let buffer_ty = buffer_type(b.ctx(), f32t, 1);
            let range = llvm::alloca(&mut b, "sycl::range");
            let size = sycl_mlir_dialects::arith::constant_int(&mut b, 1024, i64t);
            constructor(&mut b, range, &[size], range_ty);
            let acc = llvm::alloca(&mut b, "sycl::accessor");
            constructor(&mut b, acc, &[buf_a, cgh, range], buffer_ty);
            let op = schedule_range(&mut b, cgh, range, &[acc], &["device", "K"]);
            build_return(&mut b, &[]);
            op
        };
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        let path = schedule_info::kernel_path(&m, schedule).unwrap();
        assert_eq!(
            path.iter().map(|p| &**p).collect::<Vec<_>>(),
            ["device", "K"]
        );
        assert_eq!(schedule_info::form(&m, schedule), Some(FORM_RANGE));
        assert_eq!(schedule_info::kernel_args(&m, schedule).len(), 1);
        assert!(schedule_info::local_range(&m, schedule).is_none());
    }

    #[test]
    fn schedule_requires_kernel_attr() {
        let c = ctx();
        let mut m = Module::new(&c);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let h = llvm::alloca(&mut b, "handler");
            let r = llvm::alloca(&mut b, "range");
            b.build("sycl.host.schedule_kernel", &[h, r], &[], vec![]);
        }
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("kernel"), "{err}");
    }

    #[test]
    fn constructor_requires_type_attr() {
        let c = ctx();
        let mut m = Module::new(&c);
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let dst = llvm::alloca(&mut b, "obj");
            b.build("sycl.host.constructor", &[dst], &[], vec![]);
        }
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("type"), "{err}");
    }
}
