//! Structural IR verifier.
//!
//! Checks, for every operation in a module:
//!
//! * per-op invariants registered via [`crate::OpInfo::verify`];
//! * terminator placement — only the last op of a block may carry the
//!   `TERMINATOR` trait, and every region of a non-module op must end in one;
//! * SSA dominance (within the structured single-block-region discipline);
//! * the `ISOLATED_FROM_ABOVE` trait (no captured values).
//!
//! The pass manager runs this between passes, so it is one pre-order walk
//! that costs O(ops + operands): a table indexed by [`ValueId`] says which
//! values are in scope at the op being visited and how many isolated ops
//! enclose their definition. Dominance is one read of that table, a capture
//! is a comparison with the number of isolated ops around the use. Only an
//! operand that is *not* in scope — already a violation, or an erased value —
//! takes the structural route over parent links (`value_dominates`,
//! [`Module::value_defined_outside`]), which scans blocks.

use crate::dialect::traits;
use crate::module::{Module, OpId, ValueDef};
use crate::{OpName, ValueId};
use std::fmt;

/// A verification failure, with one message per violation found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    pub messages: Vec<String>,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, msg) in self.messages.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "verifier: {msg}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// Verify the whole module. Returns all violations at once: each op's own
/// violations in pre-order, an isolated op's captures (its whole subtree,
/// pre-order) right after that op's own.
///
/// # Errors
///
/// Returns a [`VerifyError`] listing every violated invariant.
pub fn verify(m: &Module) -> Result<(), VerifyError> {
    let mut walk = Walk {
        m,
        module_name: m.ctx().op("builtin.module"),
        visible: vec![0; m.value_capacity()],
        defs: Vec::new(),
        frames: Vec::new(),
        messages: Vec::new(),
    };
    walk.op(m.top());
    if walk.messages.is_empty() {
        Ok(())
    } else {
        Err(VerifyError {
            messages: walk.messages,
        })
    }
}

/// An `ISOLATED_FROM_ABOVE` op whose regions the walk is inside.
struct Frame {
    op: OpId,
    /// Where this op's capture messages go in [`Walk::messages`]: right
    /// after the op's own, before those of the ops nested in it.
    insert_at: usize,
    captures: Vec<String>,
}

struct Walk<'m> {
    m: &'m Module,
    module_name: OpName,
    /// Per value: `0` when not in scope at the op being visited, else `1 +`
    /// the number of isolated ops enclosing the definition — which are the
    /// first that many entries of `frames`, the walk being inside the
    /// definition's block for as long as the value is in scope.
    visible: Vec<u32>,
    /// The values in scope, in the order they entered; a block truncates it
    /// back to its entry length on exit.
    defs: Vec<ValueId>,
    frames: Vec<Frame>,
    messages: Vec<String>,
}

impl Walk<'_> {
    fn op(&mut self, op: OpId) {
        let m = self.m;
        let (op_traits, hook) = m
            .ctx()
            .with_op_info(m.op_name(op), |info| (info.traits, info.verify));

        if let Some(f) = hook {
            if let Err(e) = f(m, op) {
                self.messages.push(format!("`{}`: {e}", m.op_name_str(op)));
            }
        }

        // Terminator placement inside each region of this op.
        let is_module_like = m.op_name(op) == self.module_name;
        for (ri, &region) in m.op_regions(op).iter().enumerate() {
            let blocks = m.region_blocks(region);
            if blocks.len() != 1 {
                self.messages.push(format!(
                    "`{}`: region #{ri} must contain exactly one block (structured IR), found {}",
                    m.op_name_str(op),
                    blocks.len()
                ));
                continue;
            }
            let ops = m.block_ops(blocks[0]);
            let mut ends_in_terminator = false;
            for (i, &inner) in ops.iter().enumerate() {
                ends_in_terminator = m.op_has_trait(inner, traits::TERMINATOR);
                if ends_in_terminator && i + 1 != ops.len() {
                    self.messages.push(format!(
                        "`{}` inside `{}`: terminator is not the last operation of its block",
                        m.op_name_str(inner),
                        m.op_name_str(op)
                    ));
                }
            }
            if !is_module_like && !ends_in_terminator {
                let name = m.op_name_str(op);
                self.messages.push(match ops.last() {
                    Some(&last) => format!(
                        "`{name}`: region #{ri} does not end with a terminator (ends with `{}`)",
                        m.op_name_str(last)
                    ),
                    None => format!("`{name}`: region #{ri} has an empty block"),
                });
            }
        }

        // Operand validity, dominance and captures.
        for (i, &v) in m.op_operands(op).iter().enumerate() {
            let depth = self.visible[v.0 as usize] as usize;
            if depth != 0 {
                // In scope, hence dominated; captured by exactly the
                // isolated ops entered since its definition.
                for frame in &mut self.frames[depth - 1..] {
                    frame.captures.push(capture_message(m, op, frame.op, i));
                }
                continue;
            }
            let name = m.op_name_str(op);
            if m.value_is_erased(v) {
                self.messages
                    .push(format!("`{name}`: operand #{i} refers to an erased value"));
            } else if !value_dominates(m, v, op) {
                self.messages.push(format!(
                    "`{name}`: operand #{i} is not dominated by its definition"
                ));
            }
            for frame in &mut self.frames {
                if m.value_defined_outside(v, frame.op) {
                    frame.captures.push(capture_message(m, op, frame.op, i));
                }
            }
        }

        let isolated = op_traits & traits::ISOLATED_FROM_ABOVE != 0;
        if isolated {
            self.frames.push(Frame {
                op,
                insert_at: self.messages.len(),
                captures: Vec::new(),
            });
        }
        for &region in m.op_regions(op) {
            for &block in m.region_blocks(region) {
                let entry = self.defs.len();
                for &arg in m.block_args(block) {
                    self.define(arg);
                }
                for &inner in m.block_ops(block) {
                    self.op(inner);
                    for &result in m.op_results(inner) {
                        self.define(result);
                    }
                }
                for v in self.defs.drain(entry..) {
                    self.visible[v.0 as usize] = 0;
                }
            }
        }
        if isolated {
            let frame = self.frames.pop().expect("pushed above");
            self.messages
                .splice(frame.insert_at..frame.insert_at, frame.captures);
        }
    }

    /// Bring `v` into scope at the current isolation depth. An erased value
    /// never is: a use of one takes the structural path, which reports it.
    fn define(&mut self, v: ValueId) {
        if !self.m.value_is_erased(v) {
            self.visible[v.0 as usize] = self.frames.len() as u32 + 1;
            self.defs.push(v);
        }
    }
}

fn capture_message(m: &Module, user: OpId, isolated: OpId, operand: usize) -> String {
    format!(
        "`{}` inside isolated `{}`: operand #{operand} captures a value from above",
        m.op_name_str(user),
        m.op_name_str(isolated)
    )
}

/// Dominance in the structured regime: the definition must appear earlier in
/// the same block as `op` or in a block of a (transitive) ancestor op.
/// Scans blocks for positions — the walk asks only about operands that are
/// not in scope.
fn value_dominates(m: &Module, v: ValueId, op: OpId) -> bool {
    match m.value_def(v) {
        ValueDef::BlockArg { block, .. } => {
            // A block argument dominates every op nested under its block.
            let mut cur = Some(op);
            while let Some(c) = cur {
                if m.op_parent_block(c) == Some(block) {
                    return true;
                }
                cur = m.op_parent_op(c);
            }
            false
        }
        ValueDef::OpResult { op: def_op, .. } => {
            let Some(def_block) = m.op_parent_block(def_op) else {
                return false; // detached definition
            };
            // Find the ancestor of `op` (possibly `op` itself) attached to
            // the definition's block; the def must come strictly before it.
            let mut cur = Some(op);
            while let Some(c) = cur {
                if c == def_op {
                    return false; // use nested inside its own definition
                }
                if m.op_parent_block(c) == Some(def_block) {
                    return m.op_index_in_block(def_op) < m.op_index_in_block(c);
                }
                cur = m.op_parent_op(c);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{traits, OpInfo};
    use crate::{Builder, Context, Module};

    fn ctx_with(names: &[(&str, u32)]) -> Context {
        let ctx = Context::new();
        for (n, t) in names {
            ctx.register_op(OpInfo::new(n).with_traits(*t));
        }
        ctx
    }

    #[test]
    fn empty_module_verifies() {
        let ctx = Context::new();
        let m = Module::new(&ctx);
        assert!(verify(&m).is_ok());
    }

    #[test]
    fn misplaced_terminator_rejected() {
        let ctx = ctx_with(&[("t.ret", traits::TERMINATOR), ("t.op", 0), ("t.wrap", 0)]);
        let mut m = Module::new(&ctx);
        let wrap = m.create_op(ctx.op("t.wrap"), &[], &[], vec![]);
        let region = m.add_region(wrap);
        let block = m.add_block(region, &[]);
        {
            let mut b = Builder::at_end(&mut m, block);
            b.build("t.ret", &[], &[], vec![]);
            b.build("t.op", &[], &[], vec![]);
        }
        let top = m.top_block();
        m.append_op(top, wrap);
        let err = verify(&m).unwrap_err();
        assert!(
            err.to_string().contains("terminator is not the last"),
            "{err}"
        );
    }

    #[test]
    fn missing_terminator_rejected() {
        let ctx = ctx_with(&[("t.op", 0), ("t.wrap", 0)]);
        let mut m = Module::new(&ctx);
        let wrap = m.create_op(ctx.op("t.wrap"), &[], &[], vec![]);
        let region = m.add_region(wrap);
        let block = m.add_block(region, &[]);
        {
            let mut b = Builder::at_end(&mut m, block);
            b.build("t.op", &[], &[], vec![]);
        }
        let top = m.top_block();
        m.append_op(top, wrap);
        let err = verify(&m).unwrap_err();
        assert!(
            err.to_string().contains("does not end with a terminator"),
            "{err}"
        );
    }

    #[test]
    fn use_before_def_rejected() {
        let ctx = ctx_with(&[("t.make", 0), ("t.use", 0)]);
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let make = m.create_op(ctx.op("t.make"), &[], &[i32t], vec![]);
        let v = m.op_result(make, 0);
        let use_op = m.create_op(ctx.op("t.use"), &[v], &[], vec![]);
        let top = m.top_block();
        // use appears before def
        m.append_op(top, use_op);
        m.append_op(top, make);
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("not dominated"), "{err}");
    }

    #[test]
    fn isolation_violation_rejected() {
        let ctx = ctx_with(&[("t.make", 0), ("t.use", 0)]);
        let iso = {
            let info = OpInfo::new("t.iso").with_traits(traits::ISOLATED_FROM_ABOVE);
            ctx.register_op(info)
        };
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let make = m.create_op(ctx.op("t.make"), &[], &[i32t], vec![]);
        let v = m.op_result(make, 0);
        let wrap = m.create_op(iso, &[], &[], vec![]);
        let region = m.add_region(wrap);
        let block = m.add_block(region, &[]);
        let use_op = m.create_op(ctx.op("t.use"), &[v], &[], vec![]);
        m.append_op(block, use_op);
        let top = m.top_block();
        m.append_op(top, make);
        m.append_op(top, wrap);
        let err = verify(&m).unwrap_err();
        assert!(
            err.to_string().contains("captures a value from above"),
            "{err}"
        );
    }
}
