//! Generic clean-up passes: canonicalization (folding + DCE via the greedy
//! driver) and common-subexpression elimination.

use std::collections::HashMap;
use std::rc::Rc;
use sycl_mlir_ir::dialect::traits;
use sycl_mlir_ir::{apply_patterns_greedily, Attribute, Module, OpId, Pass, ValueId};

/// Folding + dead-code elimination to a fixed point.
#[derive(Default)]
pub struct CanonicalizePass;

impl Pass for CanonicalizePass {
    fn name(&self) -> &'static str {
        "canonicalize"
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        let top = m.top();
        Ok(apply_patterns_greedily(m, top, &[]))
    }
}

/// Structural key for CSE: op name + operands + attributes + result types
/// (two `arith.constant 1`s of type `i32` and `index` must not merge).
#[derive(PartialEq, Eq, Hash)]
struct CseKey {
    name: u32,
    operands: Vec<ValueId>,
    attrs: Vec<(u32, String)>,
    result_types: Vec<sycl_mlir_ir::Type>,
}

fn cse_key(m: &Module, op: OpId) -> CseKey {
    CseKey {
        name: m.op_name(op).0,
        operands: m.op_operands(op).to_vec(),
        attrs: m
            .op_attrs(op)
            .iter()
            .map(|(k, v)| (k.0, format!("{v}")))
            .collect(),
        result_types: m.op_results(op).iter().map(|&r| m.value_type(r)).collect(),
    }
}

/// The expressions available at the op being visited, scoped by dominance:
/// a block sees what the blocks around it bound, and what it binds itself
/// is dropped again when it ends.
#[derive(Default)]
struct CseScope {
    available: HashMap<Rc<CseKey>, Vec<ValueId>>,
    /// Every key in `available`, in insertion order; a block truncates it
    /// back to its entry length on exit.
    bound: Vec<Rc<CseKey>>,
}

/// Common-subexpression elimination over pure, region-free operations,
/// scoped by dominance (outer definitions are visible in nested regions).
#[derive(Default)]
pub struct CsePass;

impl Pass for CsePass {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        let top = m.top();
        let mut changed = false;
        cse_region_op(m, top, &mut CseScope::default(), &mut changed);
        Ok(changed)
    }
}

fn cse_region_op(m: &mut Module, op: OpId, scope: &mut CseScope, changed: &mut bool) {
    let regions = m.op_regions(op).to_vec();
    for region in regions {
        let blocks = m.region_blocks(region).to_vec();
        for block in blocks {
            let entry = scope.bound.len();
            let ops = m.block_ops(block).to_vec();
            for inner in ops {
                if m.op_is_erased(inner) {
                    continue;
                }
                let pure = m.op_has_trait(inner, traits::PURE | traits::CONSTANT_LIKE);
                if pure && m.op_regions(inner).is_empty() && !m.op_results(inner).is_empty() {
                    let key = cse_key(m, inner);
                    if let Some(existing) = scope.available.get(&key) {
                        let replacements = existing.clone();
                        m.replace_op(inner, &replacements);
                        *changed = true;
                        continue;
                    }
                    let key = Rc::new(key);
                    scope
                        .available
                        .insert(key.clone(), m.op_results(inner).to_vec());
                    scope.bound.push(key);
                }
                cse_region_op(m, inner, scope, changed);
            }
            // Nested scopes see outer bindings but cannot leak theirs out.
            for key in scope.bound.drain(entry..) {
                scope.available.remove(&key);
            }
        }
    }
}

/// Tag helper shared by tests and examples: label an op so it can be found
/// again after transformation.
pub fn tag(m: &mut Module, op: OpId, label: &str) {
    m.set_attr(op, "tag", Attribute::Str(label.into()));
}

/// Find an op by its tag under `root`.
pub fn find_tagged(m: &Module, root: OpId, label: &str) -> Option<OpId> {
    let mut found = None;
    m.walk(root, &mut |op| {
        if m.attr(op, "tag").and_then(|a| a.as_str()) == Some(label) {
            found = Some(op);
            return sycl_mlir_ir::WalkControl::Interrupt;
        }
        sycl_mlir_ir::WalkControl::Advance
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::arith::{addi, constant_index};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::scf::build_for;
    use sycl_mlir_ir::{Builder, Context, Module, PassManager};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    #[test]
    fn cse_merges_duplicate_pure_ops() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "f", &[c.index_type()], &[]);
        let x = m.block_arg(entry, 0);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let one_a = constant_index(&mut b, 1);
            let one_b = constant_index(&mut b, 1);
            let s1 = addi(&mut b, x, one_a);
            let s2 = addi(&mut b, x, one_b);
            // Keep both alive.
            b.build("llvm.store", &[s1, s1], &[], vec![]);
            b.build("llvm.store", &[s2, s2], &[], vec![]);
            build_return(&mut b, &[]);
        }
        let mut pm = PassManager::new();
        pm.add_pass(CsePass);
        pm.add_pass(CanonicalizePass);
        pm.run(&mut m).unwrap();
        let adds = m
            .nested_ops(m.top())
            .into_iter()
            .filter(|&o| !m.op_is_erased(o) && m.op_is(o, "arith.addi"))
            .count();
        assert_eq!(adds, 1);
    }

    #[test]
    fn cse_respects_region_scoping() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "f", &[], &[]);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let lb = constant_index(&mut b, 0);
            let ub = constant_index(&mut b, 4);
            let step = constant_index(&mut b, 1);
            // Two sibling loops each defining iv+iv: they must NOT CSE into
            // each other (different regions, no dominance).
            for _ in 0..2 {
                build_for(&mut b, lb, ub, step, &[], |inner, iv, _| {
                    let s = addi(inner, iv, iv);
                    inner.build("llvm.store", &[s, s], &[], vec![]);
                    vec![]
                });
            }
            build_return(&mut b, &[]);
        }
        let mut pm = PassManager::new();
        pm.add_pass(CsePass);
        pm.run(&mut m).unwrap();
        let adds = m
            .nested_ops(m.top())
            .into_iter()
            .filter(|&o| !m.op_is_erased(o) && m.op_is(o, "arith.addi"))
            .count();
        assert_eq!(adds, 2);
    }
}
