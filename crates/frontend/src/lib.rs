//! # sycl-mlir-frontend — the device-code frontend (Polygeist stand-in)
//!
//! The paper compiles SYCL device code through a Polygeist fork (§IV).
//! This crate is the corresponding substrate: a builder API producing the
//! *same device MLIR a C++ frontend would emit*, so every downstream pass
//! operates on genuine IR. It provides:
//!
//! * [`KernelModuleBuilder`] — assembles the joint host/device module of
//!   Fig. 1: a top-level module for host functions plus a nested
//!   `builtin.module @device` for kernels;
//! * [`KernelSig`] — declarative kernel signatures (accessors, scalars,
//!   trailing `item`/`nd_item`).

use sycl_mlir_ir::{Attribute, Builder, Context, Module, OpId, Type, ValueId};
use sycl_mlir_sycl::types::{self, AccessMode, Target};

/// One kernel parameter in a [`KernelSig`].
#[derive(Clone, Debug)]
pub enum KernelParam {
    /// A global accessor of the given element type, rank and mode.
    Accessor {
        elem: Type,
        rank: u32,
        mode: AccessMode,
    },
    /// A scalar passed by value.
    Scalar(Type),
}

/// Declarative kernel signature: parameters plus the index-space rank and
/// form (`item` for `parallel_for(range)`, `nd_item` for nd-range kernels).
#[derive(Clone, Debug)]
pub struct KernelSig {
    pub name: String,
    pub params: Vec<KernelParam>,
    pub rank: u32,
    pub nd: bool,
}

impl KernelSig {
    pub fn new(name: &str, rank: u32, nd: bool) -> KernelSig {
        KernelSig {
            name: name.into(),
            params: Vec::new(),
            rank,
            nd,
        }
    }

    pub fn accessor(mut self, elem: Type, rank: u32, mode: AccessMode) -> KernelSig {
        self.params.push(KernelParam::Accessor { elem, rank, mode });
        self
    }

    pub fn scalar(mut self, ty: Type) -> KernelSig {
        self.params.push(KernelParam::Scalar(ty));
        self
    }
}

/// Builds the joint host/device module.
pub struct KernelModuleBuilder {
    module: Module,
    device: OpId,
}

impl KernelModuleBuilder {
    /// Create an empty joint module (host top-level + nested `@device`).
    pub fn new(ctx: &Context) -> KernelModuleBuilder {
        let mut module = Module::new(ctx);
        let name = ctx.op("builtin.module");
        let device = module.create_op(
            name,
            &[],
            &[],
            vec![(
                "sym_name",
                Attribute::Str(sycl_mlir_sycl::DEVICE_MODULE_SYM.into()),
            )],
        );
        let region = module.add_region(device);
        module.add_block(region, &[]);
        let top_block = module.top_block();
        module.append_op(top_block, device);
        KernelModuleBuilder { module, device }
    }

    /// The nested device module op.
    pub fn device_module(&self) -> OpId {
        self.device
    }

    pub fn module(&mut self) -> &mut Module {
        &mut self.module
    }

    /// Add a kernel with the given signature; `body` receives a builder at
    /// the entry block, the parameter values (accessors/scalars) and the
    /// trailing item value.
    pub fn add_kernel(
        &mut self,
        sig: &KernelSig,
        body: impl FnOnce(&mut Builder<'_>, &[ValueId], ValueId),
    ) -> OpId {
        let ctx = self.module.ctx().clone();
        let mut param_types: Vec<Type> = sig
            .params
            .iter()
            .map(|p| match p {
                KernelParam::Accessor { elem, rank, mode } => {
                    types::accessor_type(&ctx, elem.clone(), *rank, *mode, Target::Global)
                }
                KernelParam::Scalar(ty) => ty.clone(),
            })
            .collect();
        let item_ty = if sig.nd {
            types::nd_item_type(&ctx, sig.rank)
        } else {
            types::item_type(&ctx, sig.rank)
        };
        param_types.push(item_ty);
        let (func, entry) = sycl_mlir_dialects::func::build_func(
            &mut self.module,
            self.device,
            &sig.name,
            &param_types,
            &[],
        );
        sycl_mlir_sycl::device::mark_kernel(&mut self.module, func);
        let args: Vec<ValueId> = self.module.block_args(entry)[..sig.params.len()].to_vec();
        let item = self.module.block_arg(entry, sig.params.len());
        {
            let mut b = Builder::at_end(&mut self.module, entry);
            body(&mut b, &args, item);
            sycl_mlir_dialects::func::build_return(&mut b, &[]);
        }
        func
    }

    /// Finish and return the joint module.
    pub fn finish(self) -> Module {
        self.module
    }
}

thread_local! {
    /// This thread's registered context; see [`full_context`].
    static FULL_CONTEXT: Context = {
        let ctx = Context::new();
        sycl_mlir_dialects::register_all(&ctx);
        sycl_mlir_sycl::register(&ctx);
        ctx
    };
}

/// The standard context, with every dialect of this project registered: a
/// handle to the calling thread's one such context, built and registered on
/// the thread's first call.
///
/// Every module a thread builds from it shares its interned types, op names
/// and attribute keys — types of two such modules compare by pointer, and a
/// program pays for dialect registration once per thread, not once per
/// build. Nothing about a module depends on what was interned before it was
/// built (`tests/ir_golden.rs` holds that). Contexts and modules are
/// `!Send`, so the sharing never crosses a thread; a test that wants a
/// context nobody else has touched builds one with [`Context::new`].
///
/// ```
/// use sycl_mlir_frontend::full_context;
/// let (a, b) = (full_context(), full_context());
/// assert_eq!(a.f32_type(), b.f32_type());
/// assert!(a.lookup_op("sycl.host.schedule_kernel").is_some());
/// ```
pub fn full_context() -> Context {
    FULL_CONTEXT.with(Context::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_ir::verify;

    #[test]
    fn joint_module_shape() {
        let ctx = full_context();
        let mut kb = KernelModuleBuilder::new(&ctx);
        let sig = KernelSig::new("vadd", 1, true)
            .accessor(ctx.f32_type(), 1, AccessMode::ReadWrite)
            .accessor(ctx.f32_type(), 1, AccessMode::Read)
            .scalar(ctx.i64_type());
        let func = kb.add_kernel(&sig, |b, args, item| {
            let gid = sycl_mlir_sycl::device::global_id(b, item, 0);
            let va = sycl_mlir_sycl::device::load_via_id(b, args[0], &[gid]);
            let vb = sycl_mlir_sycl::device::load_via_id(b, args[1], &[gid]);
            let sum = sycl_mlir_dialects::arith::addf(b, va, vb);
            sycl_mlir_sycl::device::store_via_id(b, sum, args[0], &[gid]);
        });
        let m = kb.finish();
        verify(&m).unwrap();
        // The kernel lives under @device and is resolvable by path.
        let found = m
            .lookup_symbol_path(m.top(), &["device".into(), "vadd".into()])
            .unwrap();
        assert_eq!(found, func);
        assert!(sycl_mlir_sycl::device::is_kernel(&m, func));
    }
}
