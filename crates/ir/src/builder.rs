//! [`Builder`]: cursor-style op insertion.

use crate::attrs::Attribute;
use crate::context::Context;
use crate::dialect::OpName;
use crate::module::{BlockId, Module, OpId, ValueId};
use crate::types::Type;

/// An insertion cursor into a block of a [`Module`].
///
/// The builder owns a mutable borrow of the module; create ops through it and
/// they are inserted at the cursor, which advances past each new op.
///
/// ```
/// use sycl_mlir_ir::{Builder, Context, Module, OpInfo};
/// let ctx = Context::new();
/// ctx.register_op(OpInfo::new("test.thing"));
/// let mut m = Module::new(&ctx);
/// let block = m.top_block();
/// let mut b = Builder::at_end(&mut m, block);
/// let op = b.build("test.thing", &[], &[], vec![]);
/// assert_eq!(m.block_ops(block), &[op]);
/// ```
pub struct Builder<'m> {
    module: &'m mut Module,
    block: BlockId,
    index: usize,
}

impl<'m> Builder<'m> {
    /// Position the cursor at the end of `block`.
    pub fn at_end(module: &'m mut Module, block: BlockId) -> Builder<'m> {
        let index = module.block_ops(block).len();
        Builder {
            module,
            block,
            index,
        }
    }

    /// Position the cursor at `index` within `block`.
    pub fn at(module: &'m mut Module, block: BlockId, index: usize) -> Builder<'m> {
        Builder {
            module,
            block,
            index,
        }
    }

    /// Position the cursor immediately before `op`.
    pub fn before(module: &'m mut Module, op: OpId) -> Builder<'m> {
        let block = module.op_parent_block(op).expect("op must be attached");
        let index = module.op_index_in_block(op);
        Builder {
            module,
            block,
            index,
        }
    }

    pub fn module(&mut self) -> &mut Module {
        self.module
    }

    pub fn ctx(&self) -> Context {
        self.module.ctx().clone()
    }

    pub fn block(&self) -> BlockId {
        self.block
    }

    pub fn index(&self) -> usize {
        self.index
    }

    /// Create an op by registered [`OpName`] and insert it at the cursor.
    pub fn build_named(
        &mut self,
        name: OpName,
        operands: &[ValueId],
        result_types: &[Type],
        attrs: Vec<(String, Attribute)>,
    ) -> OpId {
        let op = self.module.create_op(name, operands, result_types, attrs);
        self.module.insert_op(self.block, self.index, op);
        self.index += 1;
        op
    }

    /// Create an op by full name string and insert it at the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the op name is not registered.
    pub fn build(
        &mut self,
        name: &str,
        operands: &[ValueId],
        result_types: &[Type],
        attrs: Vec<(String, Attribute)>,
    ) -> OpId {
        let name = self.module.ctx().op(name);
        self.build_named(name, operands, result_types, attrs)
    }

    /// Build and return the op's only result.
    ///
    /// # Panics
    ///
    /// Panics if the op does not produce exactly one result.
    pub fn build_value(
        &mut self,
        name: &str,
        operands: &[ValueId],
        result_type: Type,
        attrs: Vec<(String, Attribute)>,
    ) -> ValueId {
        let op = self.build(name, operands, &[result_type], attrs);
        self.module.op_result(op, 0)
    }

    /// Insert an already-created (detached) op at the cursor.
    pub fn insert(&mut self, op: OpId) {
        self.module.insert_op(self.block, self.index, op);
        self.index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::OpInfo;

    #[test]
    fn cursor_advances() {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("t.a"));
        ctx.register_op(OpInfo::new("t.b"));
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let mut b = Builder::at_end(&mut m, block);
        let a = b.build("t.a", &[], &[], vec![]);
        let bb = b.build("t.b", &[], &[], vec![]);
        assert_eq!(m.block_ops(block), &[a, bb]);
    }

    #[test]
    fn before_inserts_in_front() {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("t.a"));
        ctx.register_op(OpInfo::new("t.b"));
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let a = {
            let mut b = Builder::at_end(&mut m, block);
            b.build("t.a", &[], &[], vec![])
        };
        let inserted = {
            let mut b = Builder::before(&mut m, a);
            b.build("t.b", &[], &[], vec![])
        };
        assert_eq!(m.block_ops(block), &[inserted, a]);
    }
}
