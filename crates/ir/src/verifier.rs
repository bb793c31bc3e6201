//! Structural IR verifier.
//!
//! Checks, for every operation in a module:
//!
//! * its declared [`Signature`] ([`check_signature`]), then the per-op
//!   invariants of [`crate::OpInfo::verify`], a hook that runs only on an
//!   op that meets its signature and whose every region is one block, and
//!   so never counts operands or opens a missing block;
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
//!
//! The table is kept per thread between runs and reused, so a run
//! allocates only for a module with more values than any this thread
//! verified before.

use crate::dialect::{traits, Constraint, Signature};
use crate::module::{Module, OpId, ValueDef};
use crate::{OpName, Type, TypeKind, ValueId};
use std::cell::Cell;
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
    verify_counting(m, m.top()).0
}

/// [`verify`] of `root` and everything nested in it: the same walk, begun
/// at one op (a function) instead of the module, so it reports what
/// [`verify`] reports of those ops, less the captures of ops around `root`.
///
/// # Errors
///
/// Returns a [`VerifyError`] listing every violated invariant.
pub fn verify_op(m: &Module, root: OpId) -> Result<(), VerifyError> {
    verify_counting(m, root).0
}

/// [`verify_op`], plus the number of ops the walk visited (the root
/// included): the pass manager's [`crate::PassStats::verify_ops`].
pub(crate) fn verify_counting(m: &Module, root: OpId) -> (Result<(), VerifyError>, u64) {
    // The scope table is *taken* for the walk, not borrowed across it: a
    // verify hook may call `verify` again, and that inner walk then takes
    // (and returns) a table of its own.
    let mut scope = SCOPE.try_with(Cell::take).unwrap_or_default();
    if scope.visible.len() < m.value_capacity() {
        scope.visible.resize(m.value_capacity(), 0);
    }
    let mut walk = Walk {
        m,
        module_name: m.ctx().op("builtin.module"),
        scope,
        messages: Vec::new(),
        visited: 0,
    };
    walk.op(root);
    let Walk {
        scope,
        messages,
        visited,
        ..
    } = walk;
    // Every block clears what it defined on exit, so the table goes back
    // all zeros, ready for a module of any size on this thread.
    debug_assert!(scope.defs.is_empty() && scope.frames.is_empty());
    let _ = SCOPE.try_with(|s| s.set(scope));
    let verdict = if messages.is_empty() {
        Ok(())
    } else {
        Err(VerifyError { messages })
    };
    (verdict, visited)
}

/// The walk's working tables, kept per thread between runs so that a run
/// allocates only when a module outgrows every one verified before it.
/// Between runs `visible` is all zeros and the two stacks are empty.
#[derive(Default)]
struct Scope {
    /// Per value: `0` when not in scope at the op being visited, else `1 +`
    /// the number of isolated ops enclosing the definition — which are the
    /// first that many entries of `frames`, the walk being inside the
    /// definition's block for as long as the value is in scope.
    visible: Vec<u32>,
    /// The values in scope, in the order they entered; a block truncates it
    /// back to its entry length on exit.
    defs: Vec<ValueId>,
    frames: Vec<Frame>,
}

thread_local! {
    static SCOPE: Cell<Scope> = Cell::default();
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
    scope: Scope,
    messages: Vec<String>,
    /// Ops visited so far.
    visited: u64,
}

impl Walk<'_> {
    fn op(&mut self, op: OpId) {
        let m = self.m;
        self.visited += 1;
        let (op_traits, declared, hook) = m.ctx().with_op_info(m.op_name(op), |info| {
            let sig = info.signature.as_ref();
            let declared = sig.map_or(Ok(()), |sig| check_signature(m, op, sig));
            (info.traits, declared, info.verify)
        });
        // The hook runs only on a sound op: one that meets its signature
        // and whose every region is one block, which a hook may then open.
        let regions = m.op_regions(op);
        let one_block_each = regions.iter().all(|&r| m.region_blocks(r).len() == 1);
        let checked = declared.and_then(|()| match hook {
            Some(f) if one_block_each => f(m, op),
            _ => Ok(()),
        });
        if let Err(e) = checked {
            self.messages.push(format!("`{}`: {e}", m.op_name_str(op)));
        }

        // Terminator placement inside each region of this op.
        let is_module_like = m.op_name(op) == self.module_name;
        for (ri, &region) in regions.iter().enumerate() {
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
            let depth = self.scope.visible[v.0 as usize] as usize;
            if depth != 0 {
                // In scope, hence dominated; captured by exactly the
                // isolated ops entered since its definition.
                for frame in &mut self.scope.frames[depth - 1..] {
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
            for frame in &mut self.scope.frames {
                if m.value_defined_outside(v, frame.op) {
                    frame.captures.push(capture_message(m, op, frame.op, i));
                }
            }
        }

        let isolated = op_traits & traits::ISOLATED_FROM_ABOVE != 0;
        if isolated {
            self.scope.frames.push(Frame {
                op,
                insert_at: self.messages.len(),
                captures: Vec::new(),
            });
        }
        for &region in m.op_regions(op) {
            for &block in m.region_blocks(region) {
                let entry = self.scope.defs.len();
                for &arg in m.block_args(block) {
                    self.define(arg);
                }
                for &inner in m.block_ops(block) {
                    self.op(inner);
                    for &result in m.op_results(inner) {
                        self.define(result);
                    }
                }
                for v in self.scope.defs.drain(entry..) {
                    self.scope.visible[v.0 as usize] = 0;
                }
            }
        }
        if isolated {
            let frame = self.scope.frames.pop().expect("pushed above");
            self.messages
                .splice(frame.insert_at..frame.insert_at, frame.captures);
        }
    }

    /// Bring `v` into scope at the current isolation depth. An erased value
    /// never is: a use of one takes the structural path, which reports it.
    fn define(&mut self, v: ValueId) {
        if !self.m.value_is_erased(v) {
            self.scope.visible[v.0 as usize] = self.scope.frames.len() as u32 + 1;
            self.scope.defs.push(v);
        }
    }
}

/// Check `op` against its declared signature: the operand and result
/// counts, then every operand and every result in order against its
/// constraint. The first violation is the answer, as `operand #i must be
/// <what>, got <type>` (or `result #i …`); a relational constraint whose
/// referenced operand is no memref (`ElemOf`, `IndicesOf`) is a violation
/// of that operand, in the same words.
///
/// # Errors
///
/// Returns the message of the first violation.
pub fn check_signature(m: &Module, op: OpId, sig: &Signature) -> Result<(), String> {
    let (operands, results) = (m.op_operands(op), m.op_results(op));
    match sig.variadic {
        Some(Constraint::IndicesOf(i)) if i < operands.len() => {
            let t = m.value_type(operands[i]);
            let rank = t.memref_shape().map(<[i64]>::len);
            let rank = rank.ok_or_else(|| format!("operand #{i} must be a memref, got {t}"))?;
            let given = operands.len().saturating_sub(sig.operands.len());
            if given != rank {
                return Err(format!(
                    "rank-{rank} memref operand #{i} takes {rank} indices, got {given}"
                ));
            }
        }
        _ => arity("operand", operands.len(), sig.operands, sig.variadic)?,
    }
    arity("result", results.len(), sig.results, sig.variadic_results)?;
    let rows = [
        ("operand", operands, sig.operands, sig.variadic),
        ("result", results, sig.results, sig.variadic_results),
    ];
    for (role, values, row, tail) in rows {
        for (k, &v) in values.iter().enumerate() {
            let c = row.get(k).copied().or(tail).expect("counted above");
            let t = m.value_type(v);
            if !meets(m, operands, c, t) {
                return Err(violation(m, operands, (role, k), c, t));
            }
        }
    }
    Ok(())
}

/// `true` if `t` meets `c` among `operands`.
fn meets(m: &Module, operands: &[ValueId], c: Constraint, t: &Type) -> bool {
    match c {
        Constraint::Any => true,
        Constraint::IntOrIndex => t.is_int_or_index(),
        Constraint::Index | Constraint::IndicesOf(_) => t.is_index(),
        Constraint::I1 => t.int_width() == Some(1),
        Constraint::Float => t.is_float(),
        Constraint::MemRef => t.is_memref(),
        Constraint::Ptr => matches!(t.kind(), TypeKind::Ptr),
        Constraint::Same(i) => t == m.value_type(operands[i]),
        Constraint::ElemOf(i) => m.value_type(operands[i]).memref_elem() == Some(t),
        Constraint::Is(accepts, _) => accepts(t),
    }
}

/// The message for a `t` at `(role, k)` that does not meet `c`.
#[cold]
fn violation(
    m: &Module,
    operands: &[ValueId],
    (role, k): (&str, usize),
    c: Constraint,
    t: &Type,
) -> String {
    let what = match c {
        Constraint::Same(i) => format!("{} like operand #{i}", m.value_type(operands[i])),
        Constraint::ElemOf(i) => match m.value_type(operands[i]) {
            of if of.is_memref() => format!(
                "{}, the element type of operand #{i}",
                of.memref_elem().expect("a memref")
            ),
            of => return format!("operand #{i} must be a memref, got {of}"),
        },
        Constraint::Any => "any type".into(),
        Constraint::IntOrIndex => "integer or index".into(),
        Constraint::Index | Constraint::IndicesOf(_) => "index".into(),
        Constraint::I1 => "i1".into(),
        Constraint::Float => "float".into(),
        Constraint::MemRef => "a memref".into(),
        Constraint::Ptr => "ptr".into(),
        Constraint::Is(_, what) => what.into(),
    };
    format!("{role} #{k} must be {what}, got {t}")
}

/// `found` operands (or results) against a row, which a variadic tail
/// lets grow.
fn arity(
    role: &str,
    found: usize,
    row: &[Constraint],
    tail: Option<Constraint>,
) -> Result<(), String> {
    let (declared, variadic) = (row.len(), tail.is_some());
    if found == declared || (variadic && found > declared) {
        return Ok(());
    }
    let at_least = if variadic { "at least " } else { "" };
    let plural = if declared == 1 { "" } else { "s" };
    Err(format!(
        "expects {at_least}{declared} {role}{plural}, got {found}"
    ))
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
    use crate::module::BlockId;
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

    thread_local! {
        /// Set while [`reenter`] runs its inner walk, so that walk's own
        /// visit of the hook does not recurse again.
        static REENTERED: Cell<bool> = const { Cell::new(false) };
    }

    /// A verify hook that verifies its whole module again, once, and
    /// reports what that inner walk found.
    fn reenter(m: &Module, _op: OpId) -> Result<(), String> {
        if REENTERED.with(|r| r.replace(true)) {
            return Ok(());
        }
        let inner = verify(m);
        REENTERED.with(|r| r.set(false));
        inner.map_err(|e| format!("re-entrant verify: {}", e.messages.join("; ")))
    }

    /// Append a `t.make` with `operands` and one `i32` result to `block`.
    fn make(m: &mut Module, block: BlockId, operands: &[ValueId]) -> ValueId {
        let (name, i32t) = (m.ctx().op("t.make"), m.ctx().i32_type());
        let op = m.create_op(name, operands, &[i32t], vec![]);
        m.append_op(block, op);
        m.op_result(op, 0)
    }

    /// Append a `name` op with one region of one block with `args` `i32`
    /// arguments to `block`.
    fn region_op(m: &mut Module, block: BlockId, name: &str, args: usize) -> BlockId {
        let op = m.create_op(m.ctx().op(name), &[], &[], vec![]);
        m.append_op(block, op);
        let region = m.add_region(op);
        let types = vec![m.ctx().i32_type(); args];
        m.add_block(region, &types)
    }

    fn terminate(m: &mut Module, block: BlockId, operands: &[ValueId]) {
        let op = m.create_op(m.ctx().op("t.ret"), operands, &[], vec![]);
        m.append_op(block, op);
    }

    /// What the reuse test verifies in turn, built alike on every thread: a
    /// large valid module; a small broken one; a valid one whose value ids
    /// overlap the broken one's; one whose hook verifies it re-entrantly.
    fn reuse_corpus() -> Vec<Module> {
        let ctx = ctx_with(&[
            ("t.make", 0),
            ("t.ret", traits::TERMINATOR),
            ("t.wrap", 0),
            ("t.iso", traits::ISOLATED_FROM_ABOVE),
        ]);
        ctx.register_op(OpInfo::new("t.reenter").with_verify(reenter));

        let mut large = Module::new(&ctx);
        let top = large.top_block();
        let mut outer = make(&mut large, top, &[]);
        for k in 0..200 {
            let name = if k % 4 == 0 { "t.iso" } else { "t.wrap" };
            let body = region_op(&mut large, top, name, 1);
            let mut v = large.block_arg(body, 0);
            for _ in 0..50 {
                v = make(&mut large, body, &[v]);
            }
            terminate(&mut large, body, &[v]);
            outer = make(&mut large, top, &[outer]);
        }

        let mut broken = Module::new(&ctx);
        let top = broken.top_block();
        // An erased operand.
        let gone = make(&mut broken, top, &[]);
        let gone_op = broken.def_op(gone).expect("an op result");
        broken.erase_op(gone_op);
        make(&mut broken, top, &[gone]);
        // A capture.
        let above = make(&mut broken, top, &[]);
        let iso = region_op(&mut broken, top, "t.iso", 0);
        make(&mut broken, iso, &[above]);
        terminate(&mut broken, iso, &[]);
        // A misplaced terminator.
        let wrap = region_op(&mut broken, top, "t.wrap", 0);
        terminate(&mut broken, wrap, &[]);
        make(&mut broken, wrap, &[]);

        let mut valid = Module::new(&ctx);
        let top = valid.top_block();
        let a = make(&mut valid, top, &[]);
        let body = region_op(&mut valid, top, "t.wrap", 1);
        let arg = valid.block_arg(body, 0);
        let b = make(&mut valid, body, &[a, arg]);
        terminate(&mut valid, body, &[b]);
        make(&mut valid, top, &[a]);

        let mut reentrant = Module::new(&ctx);
        let top = reentrant.top_block();
        let probe = reentrant.create_op(ctx.op("t.reenter"), &[], &[], vec![]);
        reentrant.append_op(top, probe);
        let body = region_op(&mut reentrant, top, "t.wrap", 1);
        let inner = make(&mut reentrant, body, &[]);
        terminate(&mut reentrant, body, &[]);
        // A use of a value whose block has ended.
        make(&mut reentrant, top, &[inner]);

        vec![large, broken, valid, reentrant]
    }

    /// The verifier keeps its scope table per thread between runs. Each
    /// verdict of a sequence on one thread must equal the verdict of a
    /// fresh thread that verifies that module alone: a table left dirty by
    /// an earlier module (a value still marked in scope) would hide the
    /// erased operand, the capture or the dominance violation.
    #[test]
    fn reusing_the_scope_table_changes_no_verdict() {
        let in_turn: Vec<_> = reuse_corpus().iter().map(verify).collect();
        for (i, verdict) in in_turn.iter().enumerate() {
            let fresh = std::thread::spawn(move || verify(&reuse_corpus()[i]))
                .join()
                .expect("verify does not panic");
            assert_eq!(verdict, &fresh, "module #{i}");
        }
        let messages = |i: usize| in_turn[i].clone().unwrap_err().messages;
        assert!(in_turn[0].is_ok() && in_turn[2].is_ok());
        assert_eq!(
            messages(1),
            [
                // An erased definition is under no op, so the root module
                // reports it as a capture too.
                "`t.make` inside isolated `builtin.module`: operand #0 captures a value from above",
                "`t.make`: operand #0 refers to an erased value",
                "`t.make` inside isolated `t.iso`: operand #0 captures a value from above",
                "`t.ret` inside `t.wrap`: terminator is not the last operation of its block",
                "`t.wrap`: region #0 does not end with a terminator (ends with `t.make`)",
            ]
        );
        let dominance = "`t.make`: operand #0 is not dominated by its definition";
        assert_eq!(
            messages(3),
            [
                format!("`t.reenter`: re-entrant verify: {dominance}").as_str(),
                dominance
            ]
        );
    }
}
