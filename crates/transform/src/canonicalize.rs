//! Generic clean-up passes: canonicalization (folding + DCE via the greedy
//! driver) and common-subexpression elimination.

use std::hash::{Hash, Hasher};
use sycl_mlir_ir::dialect::traits;
use sycl_mlir_ir::{apply_patterns_greedily, Attribute, FxHashMap, FxHasher, Module, OpId, Pass};

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

/// Hash of what makes a pure op an expression: op name, operands,
/// attributes and result types (two `arith.constant 1`s of type `i32` and
/// `index` must not merge). [`same_expression`] ops hash alike.
fn expression_hash(m: &Module, op: OpId) -> u64 {
    let mut h = FxHasher::default();
    m.op_name(op).hash(&mut h);
    m.op_operands(op).hash(&mut h);
    for (key, value) in m.op_attrs(op) {
        key.hash(&mut h);
        value.hash_constant(&mut h);
    }
    for &r in m.op_results(op) {
        m.value_type(r).hash(&mut h);
    }
    h.finish()
}

/// `true` if `a` and `b` compute the same values: same name, operands and
/// result types (interned, so compared by identity) and the same attributes
/// in the same order, constants compared as [`Attribute::same_constant`]
/// does — `0.0` is not `-0.0`, `1 : i32` is not `1 : index`.
fn same_expression(m: &Module, a: OpId, b: OpId) -> bool {
    let (attrs_a, attrs_b) = (m.op_attrs(a), m.op_attrs(b));
    let (results_a, results_b) = (m.op_results(a), m.op_results(b));
    m.op_name(a) == m.op_name(b)
        && m.op_operands(a) == m.op_operands(b)
        && attrs_a.len() == attrs_b.len()
        && attrs_a
            .iter()
            .zip(attrs_b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.same_constant(vb))
        && results_a.len() == results_b.len()
        && results_a
            .iter()
            .zip(results_b)
            .all(|(&ra, &rb)| m.value_type(ra) == m.value_type(rb))
}

/// An available expression: the op computing it, still in the module.
struct Bound {
    hash: u64,
    op: OpId,
    /// The entry of `CseScope::bound` this one took the `heads` slot of.
    shadowed: Option<u32>,
}

/// The expressions available at the op being visited, scoped by dominance:
/// a block sees what the blocks around it bound, and what it binds itself
/// is dropped again when it ends. A hash table chained through `bound`, so
/// binding or probing an expression allocates nothing.
#[derive(Default)]
struct CseScope {
    /// Expression hash → the innermost entry of `bound` with that hash.
    heads: FxHashMap<u64, u32>,
    /// Every available expression, in binding order.
    bound: Vec<Bound>,
}

impl CseScope {
    /// The available op computing the same expression as `op`, whose hash
    /// is `hash`.
    fn lookup(&self, m: &Module, hash: u64, op: OpId) -> Option<OpId> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            let bound = &self.bound[i as usize];
            if same_expression(m, bound.op, op) {
                return Some(bound.op);
            }
            at = bound.shadowed;
        }
        None
    }

    fn bind(&mut self, hash: u64, op: OpId) {
        let shadowed = self.heads.insert(hash, self.bound.len() as u32);
        self.bound.push(Bound { hash, op, shadowed });
    }

    /// Drop every expression bound since `bound` was `len` long.
    fn truncate(&mut self, len: usize) {
        while self.bound.len() > len {
            let last = self.bound.pop().expect("longer than `len`");
            match last.shadowed {
                Some(i) => self.heads.insert(last.hash, i),
                None => self.heads.remove(&last.hash),
            };
        }
    }
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
                    let hash = expression_hash(m, inner);
                    if let Some(existing) = scope.lookup(m, hash, inner) {
                        let replacements = m.op_results(existing).to_vec();
                        m.replace_op(inner, &replacements);
                        *changed = true;
                        continue;
                    }
                    scope.bind(hash, inner);
                }
                cse_region_op(m, inner, scope, changed);
            }
            // Nested scopes see outer bindings but cannot leak theirs out.
            scope.truncate(entry);
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
    use sycl_mlir_ir::{Builder, Context, Module, OpInfo, PassManager, Type};

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

    /// The expressions CSE may and may not merge are those the printed
    /// attribute and the result type tell apart.
    #[test]
    fn cse_tells_constants_apart_as_their_printed_form_does() {
        let c = Context::new();
        c.register_op(OpInfo::new("t.const").with_traits(traits::CONSTANT_LIKE));
        c.register_op(OpInfo::new("t.use"));
        // How many of two `t.const` ops, one per `(value, type)`, are left.
        let constants_left = |first: (Attribute, &Type), second: (Attribute, &Type)| {
            let mut m = Module::new(&c);
            let block = m.top_block();
            let mut b = Builder::at_end(&mut m, block);
            let values = [first, second].map(|(value, ty)| {
                b.build_value("t.const", &[], ty.clone(), vec![("value".into(), value)])
            });
            b.build("t.use", &values, &[], vec![]);
            CsePass.run(&mut m).unwrap();
            let ops = m.block_ops(block);
            ops.iter().filter(|&&o| m.op_is(o, "t.const")).count()
        };
        let (f64t, i32t, index, i1) = (c.f64_type(), c.i32_type(), c.index_type(), c.i1_type());
        let float = Attribute::Float;
        let nan_payload = f64::from_bits(f64::NAN.to_bits() | 1);
        let dense = |last: f64| Attribute::DenseF64(vec![1.0, 2.0, last]);
        // Merged.
        assert_eq!(constants_left((float(0.0), &f64t), (float(0.0), &f64t)), 1);
        assert_eq!(
            constants_left((float(f64::NAN), &f64t), (float(nan_payload), &f64t)),
            1
        );
        assert_eq!(constants_left((dense(3.0), &f64t), (dense(3.0), &f64t)), 1);
        assert_eq!(
            constants_left((dense(f64::NAN), &f64t), (dense(nan_payload), &f64t)),
            1
        );
        // Kept apart.
        assert_eq!(constants_left((float(0.0), &f64t), (float(-0.0), &f64t)), 2);
        assert_eq!(
            constants_left((Attribute::Int(1), &i32t), (Attribute::Int(1), &index)),
            2
        );
        assert_eq!(
            constants_left((Attribute::Int(1), &i1), (Attribute::Bool(true), &i1)),
            2
        );
        assert_eq!(constants_left((dense(3.0), &f64t), (dense(3.5), &f64t)), 2);
        assert_eq!(constants_left((dense(0.0), &f64t), (dense(-0.0), &f64t)), 2);
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
