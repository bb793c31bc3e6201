//! Structural utilities over the single-block-region IR: dominance,
//! enclosing-loop/branch queries.

use sycl_mlir_ir::dialect::traits;
use sycl_mlir_ir::{Module, OpId, ValueId};

/// `true` if `a` strictly dominates `b` (executes before it on every path).
/// In the structured regime this reduces to "an ancestor-or-self of `b`
/// appears after `a` in `a`'s block".
pub fn dominates(m: &Module, a: OpId, b: OpId) -> bool {
    let Some(a_block) = m.op_parent_block(a) else {
        return false;
    };
    let mut cur = Some(b);
    while let Some(c) = cur {
        if c == a {
            return false;
        }
        if m.op_parent_block(c) == Some(a_block) {
            return m.op_index_in_block(a) < m.op_index_in_block(c);
        }
        cur = m.op_parent_op(c);
    }
    false
}

/// All `LOOP_LIKE` ancestors of `op`, innermost first, stopping at `scope`.
pub fn enclosing_loops(m: &Module, op: OpId, scope: OpId) -> Vec<OpId> {
    let mut out = Vec::new();
    let mut cur = m.op_parent_op(op);
    while let Some(c) = cur {
        if c == scope {
            break;
        }
        if m.op_has_trait(c, traits::LOOP_LIKE) {
            out.push(c);
        }
        cur = m.op_parent_op(c);
    }
    out
}

/// The innermost enclosing loop of `op` within `scope`, if any.
pub fn enclosing_loop(m: &Module, op: OpId, scope: OpId) -> Option<OpId> {
    enclosing_loops(m, op, scope).first().copied()
}

/// Conditions of all `BRANCH_LIKE` ancestors of `op` up to (exclusive)
/// `scope` — the "dominating branch conditions" of §V-C.
pub fn enclosing_branch_conditions(m: &Module, op: OpId, scope: OpId) -> Vec<ValueId> {
    let mut out = Vec::new();
    let mut cur = m.op_parent_op(op);
    while let Some(c) = cur {
        if c == scope {
            break;
        }
        if m.op_has_trait(c, traits::BRANCH_LIKE) {
            out.push(m.op_operand(c, 0));
        }
        cur = m.op_parent_op(c);
    }
    out
}

/// The enclosing `func.func` of an op, if any.
pub fn enclosing_func(m: &Module, op: OpId) -> Option<OpId> {
    let mut cur = Some(op);
    while let Some(c) = cur {
        if m.op_is(c, "func.func") {
            return Some(c);
        }
        cur = m.op_parent_op(c);
    }
    None
}

/// `true` if a loop nest rooted at `outer` is *perfectly nested* down to
/// `inner`: every level contains only the next loop (plus index arithmetic
/// that is memory-effect free) and its terminator.
pub fn perfectly_nested(m: &Module, outer: OpId, inner: OpId) -> bool {
    if outer == inner {
        return true;
    }
    let block = m.op_region_block(outer, 0);
    let mut next_loop = None;
    for &op in m.block_ops(block) {
        if m.op_has_trait(op, traits::LOOP_LIKE) {
            if next_loop.is_some() {
                return false; // two sibling loops
            }
            next_loop = Some(op);
        } else if m.op_has_trait(op, traits::TERMINATOR) {
            continue;
        } else if !sycl_mlir_ir::dialect::is_memory_effect_free(m, op) {
            return false;
        }
    }
    match next_loop {
        Some(l) => perfectly_nested(m, l, inner),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::arith::constant_index;
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_dialects::scf::{build_for, build_if};
    use sycl_mlir_ir::{Builder, Context, Module};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        c
    }

    #[test]
    fn dominance_in_nested_regions() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "f", &[], &[]);
        let (first, loop_op) = {
            let mut b = Builder::at_end(&mut m, entry);
            let zero = constant_index(&mut b, 0);
            let ten = constant_index(&mut b, 10);
            let one = constant_index(&mut b, 1);
            let first = b.module().def_op(zero).unwrap();
            let loop_op = build_for(&mut b, zero, ten, one, &[], |inner, _iv, _| {
                constant_index(inner, 5);
                vec![]
            });
            build_return(&mut b, &[]);
            (first, loop_op)
        };
        let body = sycl_mlir_dialects::scf::loop_info::body_block(&m, loop_op);
        let inner_op = m.block_ops(body)[0];
        assert!(dominates(&m, first, inner_op));
        assert!(!dominates(&m, inner_op, first));
        assert!(dominates(&m, first, loop_op));
        assert_eq!(enclosing_loops(&m, inner_op, func), vec![loop_op]);
        assert!(enclosing_loops(&m, loop_op, func).is_empty());
    }

    #[test]
    fn branch_conditions_collected() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "f", &[c.i1_type()], &[]);
        let cond = m.block_arg(entry, 0);
        let if_op = {
            let mut b = Builder::at_end(&mut m, entry);
            let op = build_if(
                &mut b,
                cond,
                &[],
                |inner| {
                    constant_index(inner, 1);
                    vec![]
                },
                |_| vec![],
            );
            build_return(&mut b, &[]);
            op
        };
        let then_block = m.op_region_block(if_op, 0);
        let inner_op = m.block_ops(then_block)[0];
        assert_eq!(enclosing_branch_conditions(&m, inner_op, func), vec![cond]);
        assert_eq!(enclosing_func(&m, inner_op), Some(func));
    }

    #[test]
    fn perfect_nesting_detection() {
        let c = ctx();
        let mut m = Module::new(&c);
        let top = m.top();
        let (_f, entry) = build_func(&mut m, top, "f", &[], &[]);
        let outer = {
            let mut b = Builder::at_end(&mut m, entry);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 8);
            let one = constant_index(&mut b, 1);
            let outer = build_for(&mut b, zero, n, one, &[], |inner, _iv, _| {
                let z = constant_index(inner, 0);
                let k = constant_index(inner, 8);
                let s = constant_index(inner, 1);
                build_for(inner, z, k, s, &[], |_i2, _iv, _| vec![]);
                vec![]
            });
            build_return(&mut b, &[]);
            outer
        };
        let body = sycl_mlir_dialects::scf::loop_info::body_block(&m, outer);
        let inner = *m
            .block_ops(body)
            .iter()
            .find(|&&o| m.op_is(o, "scf.for"))
            .unwrap();
        assert!(perfectly_nested(&m, outer, inner));
        assert!(perfectly_nested(&m, outer, outer));
        assert!(!perfectly_nested(&m, inner, outer));
    }
}
