//! Greedy folding and dead-code elimination.
//!
//! [`apply_patterns_greedily`] folds ops through the folders registered
//! with their [`crate::dialect::OpInfo`] and erases dead pure ops until a
//! fixed point is reached — the greedy driver MLIR's canonicalization
//! uses, the mechanism behind the "gradual lowering through pattern
//! rewriting" process described in §II-B of the paper. Here an op's
//! folder is its only rewrite rule: no pass of this reproduction needs a
//! rewrite pattern beyond one, so the driver takes no pattern set.

use crate::dialect::{traits, FoldOut};
use crate::module::{Module, OpId, WalkControl};

const MAX_ROUNDS: usize = 64;

/// Apply the registered folders and trivial dead-code elimination
/// greedily under `root` until fixpoint. Returns whether anything changed.
pub fn apply_patterns_greedily(m: &mut Module, root: OpId) -> bool {
    let mut changed_any = false;
    for _round in 0..MAX_ROUNDS {
        let mut changed = false;

        // Dead-code elimination: erase unused pure ops (bottom-up).
        let mut ops: Vec<OpId> = Vec::new();
        m.walk(root, &mut |op| {
            if op != root {
                ops.push(op);
            }
            WalkControl::Advance
        });
        for &op in ops.iter().rev() {
            if m.op_is_erased(op) {
                continue;
            }
            if m.op_has_trait(op, traits::PURE | traits::CONSTANT_LIKE)
                && !m.op_results(op).is_empty()
                && m.op_results(op).iter().all(|&r| !m.value_has_uses(r))
                && m.op_regions(op).is_empty()
            {
                m.erase_op(op);
                changed = true;
            }
        }

        // Folding (top-down).
        for &op in &ops {
            if !m.op_is_erased(op) && try_fold(m, op) {
                changed = true;
            }
        }

        if !changed {
            break;
        }
        changed_any = true;
    }
    changed_any
}

/// Attempt to fold a single op using its registered folder; constants are
/// materialized through the context's constant materializer.
pub fn try_fold(m: &mut Module, op: OpId) -> bool {
    let Some(fold) = m.ctx().with_op_info(m.op_name(op), |info| info.fold) else {
        return false;
    };
    let Some(outs) = fold(m, op) else {
        return false;
    };
    debug_assert_eq!(outs.len(), m.op_results(op).len());
    let block = match m.op_parent_block(op) {
        Some(b) => b,
        None => return false,
    };
    let index = m.op_index_in_block(op);
    let mut replacements = Vec::with_capacity(outs.len());
    for (i, out) in outs.into_iter().enumerate() {
        match out {
            FoldOut::Value(v) => {
                // Folding to one of the op's own results is a no-op signal.
                if m.op_results(op).contains(&v) {
                    return false;
                }
                replacements.push(v);
            }
            FoldOut::Attr(attr) => {
                let ty = m.value_type(m.op_result(op, i)).clone();
                let Some(materialize) = m.ctx().constant_materializer() else {
                    return false;
                };
                let Some(v) = materialize(m, block, index, &attr, &ty) else {
                    return false;
                };
                replacements.push(v);
            }
        }
    }
    m.replace_op(op, &replacements);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{traits, OpInfo};
    use crate::{Attribute, Builder, Context, Module};

    fn setup() -> (Context, Module) {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("t.b").with_traits(traits::PURE));
        ctx.register_op(OpInfo::new("t.use"));
        let m = Module::new(&ctx);
        (ctx, m)
    }

    #[test]
    fn dce_erases_unused_pure_ops() {
        let (ctx, mut m) = setup();
        let block = m.top_block();
        {
            let mut b = Builder::at_end(&mut m, block);
            let i32t = ctx.i32_type();
            let _unused = b.build_value("t.b", &[], i32t, vec![]);
        }
        let top = m.top();
        let changed = apply_patterns_greedily(&mut m, top);
        assert!(changed);
        assert!(m.block_ops(m.top_block()).is_empty());
    }

    #[test]
    fn folding_materializes_constants() {
        let ctx = Context::new();
        // A fake "always folds to 7" op plus a constant op + materializer.
        ctx.register_op(OpInfo::new("t.const").with_traits(traits::CONSTANT_LIKE));
        ctx.register_op(
            OpInfo::new("t.seven")
                .with_traits(traits::PURE)
                .with_fold(|_m, _op| Some(vec![crate::FoldOut::Attr(Attribute::Int(7))])),
        );
        ctx.register_op(OpInfo::new("t.use"));
        ctx.register_constant_materializer(|m, block, index, attr, ty| {
            let name = m.ctx().op("t.const");
            let op = m.create_op(
                name,
                &[],
                std::slice::from_ref(ty),
                [("value", attr.clone())],
            );
            m.insert_op(block, index, op);
            Some(m.op_result(op, 0))
        });
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let v = {
            let mut b = Builder::at_end(&mut m, block);
            let i32t = ctx.i32_type();
            b.build_value("t.seven", &[], i32t, vec![])
        };
        {
            let mut b = Builder::at_end(&mut m, block);
            b.build("t.use", &[v], &[], vec![]);
        }
        let top = m.top();
        assert!(apply_patterns_greedily(&mut m, top));
        let ops = m.block_ops(m.top_block()).to_vec();
        assert_eq!(ops.len(), 2);
        assert!(m.op_is(ops[0], "t.const"));
        assert_eq!(m.attr(ops[0], "value").and_then(|a| a.as_int()), Some(7));
    }
}
