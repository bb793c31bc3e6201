//! Host raising (§VII-A of the paper, Listings 8→9).
//!
//! Host code arrives as `func.func`s full of `llvm.call`s into the SYCL
//! runtime — "too low-level for analysis". This pass pattern-matches the
//! runtime entry points and rewrites them into `sycl.host.*` operations
//! carrying the semantics:
//!
//! | runtime symbol (simplified mangling)        | raised form |
//! |---------------------------------------------|-------------|
//! | `sycl_range_ctor` / `sycl_id_ctor`          | `sycl.host.constructor {type = !sycl.range<n>}` |
//! | `sycl_buffer_ctor_<elem>_<rank>`            | `sycl.host.constructor {type = !sycl.buffer<…>}` |
//! | `sycl_accessor_ctor_<elem>_<rank>_<mode>`   | `sycl.host.constructor {type = !sycl.accessor<…>}` |
//! | `sycl_local_accessor_ctor_<elem>_<rank>`    | `sycl.host.constructor {type = !sycl.accessor<…, local>}` |
//! | `sycl_parallel_for_nd_<kernel>`             | `sycl.host.schedule_kernel {form = "nd_range"}` |
//! | `sycl_parallel_for_range_<kernel>`          | `sycl.host.schedule_kernel {form = "range"}` |
//!
//! As the paper notes, this matching is inherently *fragile*: a runtime
//! symbol the pass does not recognize is left as an opaque call (counted in
//! [`RaiseStats::unmatched_sycl_calls`]) and keeps poisoning host analyses,
//! which is exactly the failure mode described at the end of §IV.

use sycl_mlir_ir::{Attribute, Module, OpId, Pass, Type, WalkControl};
use sycl_mlir_sycl::types::{self, AccessMode, Target};

/// Statistics of one raising run.
#[derive(Debug, Default, Clone)]
pub struct RaiseStats {
    pub constructors_raised: usize,
    pub kernels_raised: usize,
    /// `sycl_`-prefixed calls the patterns did not recognize (fragility
    /// indicator, §IV).
    pub unmatched_sycl_calls: usize,
}

/// The host raising pass.
#[derive(Default)]
pub struct RaiseHostPass {
    pub stats: RaiseStats,
}

impl Pass for RaiseHostPass {
    fn name(&self) -> &'static str {
        "raise-host"
    }

    fn note(&self) -> Option<String> {
        Some(format!(
            "raised {} constructors, {} kernel schedules ({} unmatched runtime calls)",
            self.stats.constructors_raised,
            self.stats.kernels_raised,
            self.stats.unmatched_sycl_calls
        ))
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        // Host functions: everything directly under the top module (the
        // device module is nested and untouched).
        let Some(llvm_call) = m.ctx().lookup_op("llvm.call") else {
            return Ok(false);
        };
        let mut calls = Vec::new();
        for func in m.funcs_in(m.top()) {
            m.walk(func, &mut |op| {
                if m.op_name(op) == llvm_call {
                    calls.push(op);
                }
                WalkControl::Advance
            });
        }
        let mut changed = false;
        for call in calls {
            if m.op_is_erased(call) {
                continue;
            }
            let Some(callee) = sycl_mlir_dialects::llvm::callee_name(m, call) else {
                continue;
            };
            match self.raise_call(m, call, &callee) {
                Some(()) => changed = true,
                None => {
                    if callee.starts_with("sycl_") {
                        self.stats.unmatched_sycl_calls += 1;
                    }
                }
            }
        }
        Ok(changed)
    }
}

impl RaiseHostPass {
    fn raise_call(&mut self, m: &mut Module, call: OpId, callee: &str) -> Option<()> {
        if callee == "sycl_range_ctor" || callee == "sycl_id_ctor" {
            let rank = (m.op_operands(call).len() - 1) as u32;
            let ctx = m.ctx().clone();
            let ty = if callee == "sycl_range_ctor" {
                types::range_type(&ctx, rank)
            } else {
                types::id_type(&ctx, rank)
            };
            self.replace_with_constructor(m, call, ty);
            return Some(());
        }
        if let Some(rest) = callee.strip_prefix("sycl_buffer_ctor_") {
            let (elem, rank) = parse_elem_rank(m, rest)?;
            let ctx = m.ctx().clone();
            let ty = types::buffer_type(&ctx, elem, rank);
            self.replace_with_constructor(m, call, ty);
            return Some(());
        }
        if let Some(rest) = callee.strip_prefix("sycl_local_accessor_ctor_") {
            let (elem, rank) = parse_elem_rank(m, rest)?;
            let ctx = m.ctx().clone();
            let ty = types::accessor_type(&ctx, elem, rank, AccessMode::ReadWrite, Target::Local);
            self.replace_with_constructor(m, call, ty);
            return Some(());
        }
        if let Some(rest) = callee.strip_prefix("sycl_accessor_ctor_") {
            let mut parts = rest.splitn(3, '_');
            let elem_s = parts.next()?;
            let rank_s = parts.next()?;
            let mode_s = parts.next()?;
            let elem = parse_elem(m, elem_s)?;
            let rank: u32 = rank_s.parse().ok()?;
            let mode = AccessMode::parse(mode_s)?;
            let ctx = m.ctx().clone();
            let ty = types::accessor_type(&ctx, elem, rank, mode, Target::Global);
            self.replace_with_constructor(m, call, ty);
            return Some(());
        }
        if let Some(kernel) = callee.strip_prefix("sycl_parallel_for_nd_") {
            self.replace_with_schedule(m, call, kernel, sycl_mlir_sycl::host::FORM_ND_RANGE);
            return Some(());
        }
        if let Some(kernel) = callee.strip_prefix("sycl_parallel_for_range_") {
            self.replace_with_schedule(m, call, kernel, sycl_mlir_sycl::host::FORM_RANGE);
            return Some(());
        }
        None
    }

    fn replace_with_constructor(&mut self, m: &mut Module, call: OpId, ty: Type) {
        let operands = m.op_operands(call).to_vec();
        let callee_key = m.ctx().common_keys().callee;
        let mut attrs: Vec<(sycl_mlir_ir::AttrKey, Attribute)> = m
            .op_attrs(call)
            .iter()
            .filter(|(k, _)| *k != callee_key)
            .cloned()
            .collect();
        attrs.push((m.ctx().attr_key("type"), Attribute::Type(ty)));
        let name = m.ctx().op("sycl.host.constructor");
        let block = m.op_parent_block(call).expect("attached call");
        let index = m.op_index_in_block(call);
        let new = m.create_op_interned(name, &operands, &[], attrs);
        m.insert_op(block, index, new);
        m.erase_op(call);
        self.stats.constructors_raised += 1;
    }

    fn replace_with_schedule(&mut self, m: &mut Module, call: OpId, kernel: &str, form: &str) {
        let operands = m.op_operands(call).to_vec();
        let attrs = vec![
            (
                "kernel",
                Attribute::SymbolRef(vec![
                    sycl_mlir_sycl::DEVICE_MODULE_SYM.to_string(),
                    kernel.to_string(),
                ]),
            ),
            ("form", Attribute::Str(form.into())),
        ];
        let name = m.ctx().op("sycl.host.schedule_kernel");
        let block = m.op_parent_block(call).expect("attached call");
        let index = m.op_index_in_block(call);
        let new = m.create_op(name, &operands, &[], attrs);
        m.insert_op(block, index, new);
        m.erase_op(call);
        self.stats.kernels_raised += 1;
    }
}

fn parse_elem(m: &Module, s: &str) -> Option<Type> {
    let ctx = m.ctx();
    Some(match s {
        "f32" => ctx.f32_type(),
        "f64" => ctx.f64_type(),
        "i32" => ctx.i32_type(),
        "i64" => ctx.i64_type(),
        _ => return None,
    })
}

fn parse_elem_rank(m: &Module, s: &str) -> Option<(Type, u32)> {
    let (elem_s, rank_s) = s.rsplit_once('_')?;
    let elem = parse_elem(m, elem_s)?;
    let rank: u32 = rank_s.parse().ok()?;
    Some((elem, rank))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::arith::constant_int;
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::llvm;
    use sycl_mlir_ir::{print_module, verify, Builder, Context, Module};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    /// The Listing 8 CGF: three accessors over three buffers plus a
    /// parallel_for — raising must produce the Listing 9 shape.
    #[test]
    fn listing8_raises_to_listing9() {
        let c = ctx();
        let mut m = Module::new(&c);
        let ptr = c.ptr_type();
        let top = m.top();
        let (func, entry) = build_func(
            &mut m,
            top,
            "cgf",
            &[ptr.clone(), ptr.clone(), ptr.clone(), ptr],
            &[],
        );
        let cgh = m.block_arg(entry, 0);
        let bufs = [
            m.block_arg(entry, 1),
            m.block_arg(entry, 2),
            m.block_arg(entry, 3),
        ];
        {
            let mut b = Builder::at_end(&mut m, entry);
            let i64t = b.ctx().i64_type();
            let range = llvm::alloca(&mut b, "sycl::range<1>");
            let size = constant_int(&mut b, 1024, i64t);
            llvm::call(&mut b, "sycl_range_ctor", &[range, size], &[]);
            let mut accs = Vec::new();
            for (i, &buf) in bufs.iter().enumerate() {
                let acc = llvm::alloca(&mut b, "sycl::accessor");
                let mode = if i == 2 { "write" } else { "read" };
                llvm::call(
                    &mut b,
                    &format!("sycl_accessor_ctor_f32_1_{mode}"),
                    &[acc, buf, cgh],
                    &[],
                );
                accs.push(acc);
            }
            let mut args = vec![cgh, range];
            args.extend(&accs);
            llvm::call(&mut b, "sycl_parallel_for_range_K", &args, &[]);
            build_return(&mut b, &[]);
        }
        let mut pass = RaiseHostPass::default();
        let changed = pass.run(&mut m).unwrap();
        assert!(changed);
        assert_eq!(pass.stats.constructors_raised, 4);
        assert_eq!(pass.stats.kernels_raised, 1);
        assert_eq!(pass.stats.unmatched_sycl_calls, 0);
        verify(&m).unwrap_or_else(|e| panic!("{e}\n{}", print_module(&m)));
        let text = print_module(&m);
        assert!(text.contains("sycl.host.constructor"), "{text}");
        assert!(text.contains("!sycl.range<1>"), "{text}");
        assert!(
            text.contains("!sycl.accessor<f32, 1, read, global>"),
            "{text}"
        );
        assert!(
            text.contains("!sycl.accessor<f32, 1, write, global>"),
            "{text}"
        );
        assert!(text.contains("sycl.host.schedule_kernel"), "{text}");
        assert!(text.contains("@device::@K"), "{text}");
        assert!(!text.contains("llvm.call"), "{text}");
        let _ = func;
    }

    /// An unknown runtime symbol stays opaque and is counted — the
    /// fragility the paper warns about when the runtime changes.
    #[test]
    fn unknown_runtime_symbol_left_unraised() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "cgf", &[c.ptr_type()], &[]);
        let cgh = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            llvm::call(&mut b, "sycl_handler_depends_on_v2", &[cgh], &[]);
            build_return(&mut b, &[]);
        }
        let mut pass = RaiseHostPass::default();
        pass.run(&mut m).unwrap();
        assert_eq!(pass.stats.unmatched_sycl_calls, 1);
        let text = print_module(&m);
        assert!(text.contains("llvm.call"), "{text}");
    }
}
