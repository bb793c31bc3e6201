//! Structural SSA value equivalence.
//!
//! Two values are *structurally equivalent* when they are the same SSA value
//! or results of identical pure operations over structurally equivalent
//! operands. The alias analysis uses this to prove that two
//! `sycl.accessor.subscript` views address the same element (must-alias) or
//! provably different constant elements (no-alias).

use sycl_mlir_ir::dialect::traits;
use sycl_mlir_ir::{Module, ValueDef, ValueId};

const MAX_DEPTH: usize = 16;

/// `true` if `a` and `b` are structurally equivalent (conservative: `false`
/// means "unknown", not "different").
pub fn values_equivalent(m: &Module, a: ValueId, b: ValueId) -> bool {
    values_equivalent_rec(m, a, b, MAX_DEPTH)
}

fn values_equivalent_rec(m: &Module, a: ValueId, b: ValueId, depth: usize) -> bool {
    if a == b {
        return true;
    }
    if depth == 0 {
        return false;
    }
    let (ValueDef::OpResult { op: oa, index: ia }, ValueDef::OpResult { op: ob, index: ib }) =
        (m.value_def(a), m.value_def(b))
    else {
        return false;
    };
    if ia != ib || m.op_name(oa) != m.op_name(ob) {
        return false;
    }
    if !m.op_has_trait(oa, traits::PURE | traits::CONSTANT_LIKE) {
        return false;
    }
    if m.op_attrs(oa) != m.op_attrs(ob) {
        return false;
    }
    let opa = m.op_operands(oa);
    let opb = m.op_operands(ob);
    if opa.len() != opb.len() {
        return false;
    }
    opa.iter()
        .zip(opb.iter())
        .all(|(&x, &y)| values_equivalent_rec(m, x, y, depth - 1))
}

/// `true` if `a` and `b` are *provably different* integer values (both
/// constants with different values). `false` means "unknown".
pub fn values_provably_different(m: &Module, a: ValueId, b: ValueId) -> bool {
    let ca = sycl_mlir_dialects::arith::const_int_of(m, a);
    let cb = sycl_mlir_dialects::arith::const_int_of(m, b);
    matches!((ca, cb), (Some(x), Some(y)) if x != y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::arith::{addi, constant_index};
    use sycl_mlir_ir::{Builder, Context, Module};

    #[test]
    fn identical_expression_trees_are_equivalent() {
        let ctx = Context::new();
        sycl_mlir_dialects::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let (s1, s2, s3) = {
            let mut b = Builder::at_end(&mut m, block);
            let x = constant_index(&mut b, 4);
            let y = constant_index(&mut b, 4);
            let z = constant_index(&mut b, 5);
            let one_a = constant_index(&mut b, 1);
            let one_b = constant_index(&mut b, 1);
            let s1 = addi(&mut b, x, one_a);
            let s2 = addi(&mut b, y, one_b);
            let s3 = addi(&mut b, z, one_b);
            (s1, s2, s3)
        };
        assert!(values_equivalent(&m, s1, s2));
        assert!(!values_equivalent(&m, s1, s3));
    }

    #[test]
    fn constants_provably_different() {
        let ctx = Context::new();
        sycl_mlir_dialects::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let (a, b_, c) = {
            let mut b = Builder::at_end(&mut m, block);
            let a = constant_index(&mut b, 1);
            let b_ = constant_index(&mut b, 2);
            let c = addi(&mut b, a, b_);
            (a, b_, c)
        };
        assert!(values_provably_different(&m, a, b_));
        assert!(!values_provably_different(&m, a, c)); // non-constant
    }
}
