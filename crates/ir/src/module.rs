//! Arena-based IR storage: operations, regions, blocks and SSA values.
//!
//! A [`Module`] owns every IR entity of one compilation unit, addressed by
//! typed ids. The root is a `builtin.module` operation; host and device code
//! live side by side by nesting a second `builtin.module` inside it — the
//! joint host/device representation at the heart of the paper's compilation
//! flow (§IV, Fig. 1).
//!
//! Use-def chains are maintained incrementally: every [`ValueId`] knows its
//! uses, so queries like "is this loop-invariant" (LICM, §VI-A) and
//! `replace_all_uses` are cheap.

use crate::attrs::{AttrKey, Attribute};
use crate::context::Context;
use crate::dialect::{OpInfo, OpName};
use crate::types::Type;
use std::collections::HashMap;

/// Identifies an operation within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OpId(pub u32);

/// Identifies a block within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifies a region within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Identifies an SSA value (op result or block argument) within a [`Module`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Where a value comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValueDef {
    OpResult { op: OpId, index: u32 },
    BlockArg { block: BlockId, index: u32 },
}

/// One use of a value: operand `index` of operation `op`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Use {
    pub op: OpId,
    pub index: u32,
}

/// Traversal control for [`Module::walk`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkControl {
    /// Continue into nested regions.
    Advance,
    /// Do not descend into this op's regions.
    Skip,
    /// Abort the walk.
    Interrupt,
}

struct OpData {
    name: OpName,
    operands: Vec<ValueId>,
    results: Vec<ValueId>,
    attrs: Vec<(AttrKey, Attribute)>,
    regions: Vec<RegionId>,
    parent: Option<BlockId>,
    erased: bool,
}

struct BlockData {
    args: Vec<ValueId>,
    ops: Vec<OpId>,
    region: RegionId,
    erased: bool,
}

struct RegionData {
    blocks: Vec<BlockId>,
    parent_op: OpId,
    erased: bool,
}

struct ValueData {
    ty: Type,
    def: ValueDef,
    uses: Vec<Use>,
    erased: bool,
}

/// Registers the `builtin` dialect (just `builtin.module`). Called by
/// [`Context::new`].
pub(crate) fn register_builtin(ctx: &Context) {
    use crate::dialect::traits;
    ctx.register_op(
        OpInfo::new("builtin.module").with_traits(traits::ISOLATED_FROM_ABOVE | traits::SYMBOL),
    );
}

/// Owner of all IR entities for one compilation unit.
///
/// Every module carries a process-unique [`Module::module_id`] and a
/// monotonically increasing [`Module::mutation_epoch`] bumped by every
/// mutating operation. Together they key caches of artifacts derived from
/// the IR (the simulator's cross-launch kernel-plan cache): a cached
/// artifact is valid exactly while the epoch it was built at is current.
///
/// ```
/// use sycl_mlir_ir::{Context, Module};
/// let ctx = Context::new();
/// let m = Module::new(&ctx);
/// assert_eq!(m.block_ops(m.top_block()).len(), 0);
/// ```
pub struct Module {
    ctx: Context,
    ops: Vec<OpData>,
    blocks: Vec<BlockData>,
    regions: Vec<RegionData>,
    values: Vec<ValueData>,
    top: OpId,
    id: u64,
    epoch: u64,
}

/// Source of process-unique module ids.
static NEXT_MODULE_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl std::fmt::Debug for Module {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", crate::printer::print_module(self))
    }
}

impl Module {
    /// Create an empty module: a root `builtin.module` with one region and
    /// one (empty) block.
    pub fn new(ctx: &Context) -> Module {
        let mut m = Module {
            ctx: ctx.clone(),
            ops: Vec::new(),
            blocks: Vec::new(),
            regions: Vec::new(),
            values: Vec::new(),
            top: OpId(0),
            id: NEXT_MODULE_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            epoch: 0,
        };
        let name = ctx.op("builtin.module");
        let top = m.create_op(name, &[], &[], vec![]);
        let region = m.add_region(top);
        m.add_block(region, &[]);
        m.top = top;
        m
    }

    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    /// Process-unique identity of this module; never reused, so it can key
    /// caches that outlive any single module.
    pub fn module_id(&self) -> u64 {
        self.id
    }

    /// Monotonic counter bumped by every IR mutation (op/block/region
    /// creation, attachment, attribute and operand edits, erasure). Two
    /// reads returning the same epoch guarantee the IR did not change in
    /// between — the invalidation signal for derived-artifact caches.
    pub fn mutation_epoch(&self) -> u64 {
        self.epoch
    }

    /// Record an IR mutation. Called by every `&mut self` editing method;
    /// over-approximating (bumping for an edit that turns out to be a
    /// no-op) is fine, missing a real mutation is not.
    #[inline]
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The root `builtin.module` operation.
    pub fn top(&self) -> OpId {
        self.top
    }

    /// The single block of the root module's region.
    pub fn top_block(&self) -> BlockId {
        self.regions[self.ops[self.top.0 as usize].regions[0].0 as usize].blocks[0]
    }

    // ------------------------------------------------------------------
    // Creation
    // ------------------------------------------------------------------

    /// Create a detached operation. Attach it with [`Module::append_op`] or
    /// [`Module::insert_op`].
    pub fn create_op(
        &mut self,
        name: OpName,
        operands: &[ValueId],
        result_types: &[Type],
        attrs: Vec<(String, Attribute)>,
    ) -> OpId {
        let interned = attrs
            .into_iter()
            .map(|(k, v)| (self.ctx.attr_key(&k), v))
            .collect();
        self.create_op_interned(name, operands, result_types, interned)
    }

    /// Like [`Module::create_op`] but with pre-interned attribute keys
    /// (e.g. when cloning or rebuilding an existing op's attributes).
    pub fn create_op_interned(
        &mut self,
        name: OpName,
        operands: &[ValueId],
        result_types: &[Type],
        attrs: Vec<(AttrKey, Attribute)>,
    ) -> OpId {
        self.bump_epoch();
        let op = OpId(self.ops.len() as u32);
        let mut results = Vec::with_capacity(result_types.len());
        for (i, ty) in result_types.iter().enumerate() {
            let v = ValueId(self.values.len() as u32);
            self.values.push(ValueData {
                ty: ty.clone(),
                def: ValueDef::OpResult {
                    op,
                    index: i as u32,
                },
                uses: Vec::new(),
                erased: false,
            });
            results.push(v);
        }
        self.ops.push(OpData {
            name,
            operands: operands.to_vec(),
            results,
            attrs,
            regions: Vec::new(),
            parent: None,
            erased: false,
        });
        for (i, &v) in operands.iter().enumerate() {
            self.values[v.0 as usize].uses.push(Use {
                op,
                index: i as u32,
            });
        }
        op
    }

    /// Add an (empty) region to an operation.
    pub fn add_region(&mut self, op: OpId) -> RegionId {
        self.bump_epoch();
        let region = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData {
            blocks: Vec::new(),
            parent_op: op,
            erased: false,
        });
        self.ops[op.0 as usize].regions.push(region);
        region
    }

    /// Add a block with the given argument types to a region.
    pub fn add_block(&mut self, region: RegionId, arg_types: &[Type]) -> BlockId {
        self.bump_epoch();
        let block = BlockId(self.blocks.len() as u32);
        let mut args = Vec::with_capacity(arg_types.len());
        for (i, ty) in arg_types.iter().enumerate() {
            let v = ValueId(self.values.len() as u32);
            self.values.push(ValueData {
                ty: ty.clone(),
                def: ValueDef::BlockArg {
                    block,
                    index: i as u32,
                },
                uses: Vec::new(),
                erased: false,
            });
            args.push(v);
        }
        self.blocks.push(BlockData {
            args,
            ops: Vec::new(),
            region,
            erased: false,
        });
        self.regions[region.0 as usize].blocks.push(block);
        block
    }

    /// Attach a detached op at the end of a block.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        self.bump_epoch();
        debug_assert!(
            self.ops[op.0 as usize].parent.is_none(),
            "op already attached"
        );
        self.ops[op.0 as usize].parent = Some(block);
        self.blocks[block.0 as usize].ops.push(op);
    }

    /// Attach a detached op at position `index` of a block.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        self.bump_epoch();
        debug_assert!(
            self.ops[op.0 as usize].parent.is_none(),
            "op already attached"
        );
        self.ops[op.0 as usize].parent = Some(block);
        self.blocks[block.0 as usize].ops.insert(index, op);
    }

    /// Detach an op from its parent block without erasing it.
    pub fn detach_op(&mut self, op: OpId) {
        self.bump_epoch();
        if let Some(block) = self.ops[op.0 as usize].parent.take() {
            let ops = &mut self.blocks[block.0 as usize].ops;
            if let Some(pos) = ops.iter().position(|&o| o == op) {
                ops.remove(pos);
            }
        }
    }

    /// Move an attached op so it sits immediately before `before` in the
    /// latter's block.
    pub fn move_op_before(&mut self, op: OpId, before: OpId) {
        self.detach_op(op);
        let block = self
            .op_parent_block(before)
            .expect("`before` must be attached");
        let index = self.op_index_in_block(before);
        self.insert_op(block, index, op);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn op_name(&self, op: OpId) -> OpName {
        self.ops[op.0 as usize].name
    }

    /// Registered metadata for this op (a clone: two `Arc<str>` plus the
    /// hooks). Callers that only test traits use [`Module::op_has_trait`].
    pub fn op_info(&self, op: OpId) -> OpInfo {
        self.ctx.op_info(self.ops[op.0 as usize].name)
    }

    /// The op's registered [`crate::dialect::traits`] bit set.
    pub fn op_traits(&self, op: OpId) -> u32 {
        self.ctx
            .with_op_info(self.ops[op.0 as usize].name, |info| info.traits)
    }

    /// `true` if the op carries any of the trait bits in `t`.
    pub fn op_has_trait(&self, op: OpId, t: u32) -> bool {
        self.op_traits(op) & t != 0
    }

    /// Full textual name, e.g. `"arith.addi"`.
    pub fn op_name_str(&self, op: OpId) -> std::sync::Arc<str> {
        self.ctx.op_name_str(self.ops[op.0 as usize].name)
    }

    /// `true` if the op's full name equals `name`.
    pub fn op_is(&self, op: OpId, name: &str) -> bool {
        self.ctx
            .with_op_info(self.ops[op.0 as usize].name, |info| &*info.name == name)
    }

    pub fn op_operands(&self, op: OpId) -> &[ValueId] {
        &self.ops[op.0 as usize].operands
    }

    pub fn op_operand(&self, op: OpId, index: usize) -> ValueId {
        self.ops[op.0 as usize].operands[index]
    }

    pub fn op_results(&self, op: OpId) -> &[ValueId] {
        &self.ops[op.0 as usize].results
    }

    /// The `index`-th result value.
    ///
    /// # Panics
    ///
    /// Panics if the op has fewer results.
    pub fn op_result(&self, op: OpId, index: usize) -> ValueId {
        self.ops[op.0 as usize].results[index]
    }

    /// The op's attributes under their interned keys; resolve names with
    /// [`Module::attr_key_str`].
    pub fn op_attrs(&self, op: OpId) -> &[(AttrKey, Attribute)] {
        &self.ops[op.0 as usize].attrs
    }

    /// Attribute lookup by name: compares `key` against the names of the
    /// few keys the op carries, so it hashes nothing and an op without
    /// attributes never reaches the context.
    pub fn attr<'a>(&'a self, op: OpId, key: &str) -> Option<&'a Attribute> {
        let attrs = &self.ops[op.0 as usize].attrs;
        if attrs.is_empty() {
            return None;
        }
        self.ctx
            .with_attr_key_names(|names| attrs.iter().find(|(k, _)| &*names[k.0 as usize] == key))
            .map(|(_, v)| v)
    }

    /// Attribute lookup by pre-interned key — integer compares only; the
    /// fast path for decode loops and passes that resolve keys once.
    pub fn attr_by_id(&self, op: OpId, key: AttrKey) -> Option<&Attribute> {
        self.ops[op.0 as usize]
            .attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Textual name of an interned attribute key.
    pub fn attr_key_str(&self, key: AttrKey) -> std::sync::Arc<str> {
        self.ctx.attr_key_str(key)
    }

    pub fn set_attr(&mut self, op: OpId, key: &str, value: Attribute) {
        let key = self.ctx.attr_key(key);
        self.set_attr_by_id(op, key, value);
    }

    pub fn set_attr_by_id(&mut self, op: OpId, key: AttrKey, value: Attribute) {
        self.bump_epoch();
        let attrs = &mut self.ops[op.0 as usize].attrs;
        if let Some(slot) = attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            attrs.push((key, value));
        }
    }

    pub fn remove_attr(&mut self, op: OpId, key: &str) -> Option<Attribute> {
        let key = self.ctx.lookup_attr_key(key)?;
        let attrs = &mut self.ops[op.0 as usize].attrs;
        let pos = attrs.iter().position(|(k, _)| *k == key)?;
        let removed = attrs.remove(pos).1;
        self.bump_epoch();
        Some(removed)
    }

    pub fn op_regions(&self, op: OpId) -> &[RegionId] {
        &self.ops[op.0 as usize].regions
    }

    /// The single block of the op's `index`-th region.
    ///
    /// # Panics
    ///
    /// Panics if the region is missing or empty.
    pub fn op_region_block(&self, op: OpId, index: usize) -> BlockId {
        self.regions[self.ops[op.0 as usize].regions[index].0 as usize].blocks[0]
    }

    pub fn region_blocks(&self, region: RegionId) -> &[BlockId] {
        &self.regions[region.0 as usize].blocks
    }

    pub fn region_parent_op(&self, region: RegionId) -> OpId {
        self.regions[region.0 as usize].parent_op
    }

    pub fn block_ops(&self, block: BlockId) -> &[OpId] {
        &self.blocks[block.0 as usize].ops
    }

    pub fn block_args(&self, block: BlockId) -> &[ValueId] {
        &self.blocks[block.0 as usize].args
    }

    pub fn block_arg(&self, block: BlockId, index: usize) -> ValueId {
        self.blocks[block.0 as usize].args[index]
    }

    pub fn block_region(&self, block: BlockId) -> RegionId {
        self.blocks[block.0 as usize].region
    }

    /// The last op of a block (its terminator, in verified IR).
    pub fn block_terminator(&self, block: BlockId) -> Option<OpId> {
        self.blocks[block.0 as usize].ops.last().copied()
    }

    pub fn op_parent_block(&self, op: OpId) -> Option<BlockId> {
        self.ops[op.0 as usize].parent
    }

    /// The operation whose region contains this op.
    pub fn op_parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.ops[op.0 as usize].parent?;
        Some(self.regions[self.blocks[block.0 as usize].region.0 as usize].parent_op)
    }

    /// Position of an attached op within its block.
    ///
    /// # Panics
    ///
    /// Panics if the op is detached.
    pub fn op_index_in_block(&self, op: OpId) -> usize {
        let block = self.ops[op.0 as usize].parent.expect("op is detached");
        self.blocks[block.0 as usize]
            .ops
            .iter()
            .position(|&o| o == op)
            .expect("op not found in its parent block")
    }

    pub fn value_type(&self, v: ValueId) -> Type {
        self.values[v.0 as usize].ty.clone()
    }

    pub fn value_def(&self, v: ValueId) -> ValueDef {
        self.values[v.0 as usize].def
    }

    /// The op defining `v`, or `None` for block arguments.
    pub fn def_op(&self, v: ValueId) -> Option<OpId> {
        match self.values[v.0 as usize].def {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    /// Current uses of a value, in no particular order.
    pub fn value_uses(&self, v: ValueId) -> &[Use] {
        &self.values[v.0 as usize].uses
    }

    pub fn value_has_uses(&self, v: ValueId) -> bool {
        !self.values[v.0 as usize].uses.is_empty()
    }

    pub fn value_is_erased(&self, v: ValueId) -> bool {
        self.values[v.0 as usize].erased
    }

    pub fn op_is_erased(&self, op: OpId) -> bool {
        self.ops[op.0 as usize].erased
    }

    /// Total number of (live) operations — a convenience for statistics.
    pub fn live_op_count(&self) -> usize {
        self.ops.iter().filter(|o| !o.erased).count()
    }

    /// Upper bound on `ValueId` indices (including erased slots); lets
    /// consumers build dense side tables.
    pub fn value_capacity(&self) -> usize {
        self.values.len()
    }

    /// Upper bound on `OpId` indices (including erased slots).
    pub fn op_capacity(&self) -> usize {
        self.ops.len()
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Replace operand `index` of `op`, maintaining use lists.
    pub fn set_operand(&mut self, op: OpId, index: usize, new: ValueId) {
        let old = self.ops[op.0 as usize].operands[index];
        if old == new {
            return;
        }
        self.bump_epoch();
        let uses = &mut self.values[old.0 as usize].uses;
        if let Some(pos) = uses
            .iter()
            .position(|u| u.op == op && u.index == index as u32)
        {
            uses.remove(pos);
        }
        self.ops[op.0 as usize].operands[index] = new;
        self.values[new.0 as usize].uses.push(Use {
            op,
            index: index as u32,
        });
    }

    /// Append an operand to `op`.
    pub fn push_operand(&mut self, op: OpId, v: ValueId) {
        self.bump_epoch();
        let index = self.ops[op.0 as usize].operands.len() as u32;
        self.ops[op.0 as usize].operands.push(v);
        self.values[v.0 as usize].uses.push(Use { op, index });
    }

    /// Remove operand `index` from `op`, shifting later operands down.
    pub fn erase_operand(&mut self, op: OpId, index: usize) {
        self.bump_epoch();
        let old = self.ops[op.0 as usize].operands.remove(index);
        let uses = &mut self.values[old.0 as usize].uses;
        if let Some(pos) = uses
            .iter()
            .position(|u| u.op == op && u.index == index as u32)
        {
            uses.remove(pos);
        }
        // Reindex the remaining uses of all shifted operands.
        for i in index..self.ops[op.0 as usize].operands.len() {
            let v = self.ops[op.0 as usize].operands[i];
            for u in &mut self.values[v.0 as usize].uses {
                if u.op == op && u.index == (i + 1) as u32 {
                    u.index = i as u32;
                    break;
                }
            }
        }
    }

    /// Rewrite every use of `old` to `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        if old == new {
            return;
        }
        self.bump_epoch();
        let uses = std::mem::take(&mut self.values[old.0 as usize].uses);
        for u in &uses {
            self.ops[u.op.0 as usize].operands[u.index as usize] = new;
        }
        self.values[new.0 as usize].uses.extend(uses);
    }

    /// Erase an attached or detached op, recursively erasing nested regions.
    ///
    /// # Panics
    ///
    /// Panics if any result still has uses outside the erased subtree.
    pub fn erase_op(&mut self, op: OpId) {
        self.bump_epoch();
        self.detach_op(op);
        self.erase_op_inner(op);
    }

    fn erase_op_inner(&mut self, op: OpId) {
        // Erase nested ops bottom-up first.
        let regions = self.ops[op.0 as usize].regions.clone();
        for region in regions {
            let blocks = self.regions[region.0 as usize].blocks.clone();
            for block in blocks {
                let ops = std::mem::take(&mut self.blocks[block.0 as usize].ops);
                for inner in ops.into_iter().rev() {
                    self.ops[inner.0 as usize].parent = None;
                    self.erase_op_inner(inner);
                }
                for &arg in &self.blocks[block.0 as usize].args.clone() {
                    assert!(
                        self.values[arg.0 as usize].uses.is_empty(),
                        "erasing block with used arguments"
                    );
                    self.values[arg.0 as usize].erased = true;
                }
                self.blocks[block.0 as usize].erased = true;
            }
            self.regions[region.0 as usize].erased = true;
        }
        // Drop this op's operand uses.
        let operands = self.ops[op.0 as usize].operands.clone();
        for (i, v) in operands.into_iter().enumerate() {
            let uses = &mut self.values[v.0 as usize].uses;
            if let Some(pos) = uses.iter().position(|u| u.op == op && u.index == i as u32) {
                uses.remove(pos);
            }
        }
        for &r in &self.ops[op.0 as usize].results.clone() {
            assert!(
                self.values[r.0 as usize].uses.is_empty(),
                "erasing op `{}` whose result is still used",
                self.op_name_str(op)
            );
            self.values[r.0 as usize].erased = true;
        }
        self.ops[op.0 as usize].erased = true;
    }

    /// Replace an op with existing values: all uses of each result are
    /// rewritten to the corresponding value, then the op is erased.
    pub fn replace_op(&mut self, op: OpId, replacements: &[ValueId]) {
        let results = self.ops[op.0 as usize].results.clone();
        assert_eq!(
            results.len(),
            replacements.len(),
            "replacement arity mismatch"
        );
        for (r, n) in results.iter().zip(replacements) {
            self.replace_all_uses(*r, *n);
        }
        self.erase_op(op);
    }

    // ------------------------------------------------------------------
    // Cloning
    // ------------------------------------------------------------------

    /// Deep-clone `op` (with nested regions) as a new *detached* op.
    /// Operands are remapped through `mapping` (falling back to the original
    /// value); `mapping` is extended with result and block-arg equivalences.
    pub fn clone_op(&mut self, op: OpId, mapping: &mut HashMap<ValueId, ValueId>) -> OpId {
        let name = self.ops[op.0 as usize].name;
        let operands: Vec<ValueId> = self.ops[op.0 as usize]
            .operands
            .iter()
            .map(|v| *mapping.get(v).unwrap_or(v))
            .collect();
        let result_types: Vec<Type> = self.ops[op.0 as usize]
            .results
            .iter()
            .map(|&r| self.values[r.0 as usize].ty.clone())
            .collect();
        let attrs = self.ops[op.0 as usize].attrs.clone();
        let new_op = self.create_op_interned(name, &operands, &result_types, attrs);
        for i in 0..result_types.len() {
            let old_r = self.ops[op.0 as usize].results[i];
            let new_r = self.ops[new_op.0 as usize].results[i];
            mapping.insert(old_r, new_r);
        }
        let regions = self.ops[op.0 as usize].regions.clone();
        for region in regions {
            let new_region = self.add_region(new_op);
            let blocks = self.regions[region.0 as usize].blocks.clone();
            for block in blocks {
                let arg_types: Vec<Type> = self.blocks[block.0 as usize]
                    .args
                    .iter()
                    .map(|&a| self.values[a.0 as usize].ty.clone())
                    .collect();
                let new_block = self.add_block(new_region, &arg_types);
                for i in 0..arg_types.len() {
                    let old_a = self.blocks[block.0 as usize].args[i];
                    let new_a = self.blocks[new_block.0 as usize].args[i];
                    mapping.insert(old_a, new_a);
                }
                let inner_ops = self.blocks[block.0 as usize].ops.clone();
                for inner in inner_ops {
                    let new_inner = self.clone_op(inner, mapping);
                    self.append_op(new_block, new_inner);
                }
            }
        }
        new_op
    }

    // ------------------------------------------------------------------
    // Traversal
    // ------------------------------------------------------------------

    /// Pre-order walk of `root` and all nested ops.
    pub fn walk(&self, root: OpId, f: &mut dyn FnMut(OpId) -> WalkControl) -> WalkControl {
        match f(root) {
            WalkControl::Interrupt => return WalkControl::Interrupt,
            WalkControl::Skip => return WalkControl::Advance,
            WalkControl::Advance => {}
        }
        for &region in self.op_regions(root) {
            for &block in self.region_blocks(region) {
                for &op in self.block_ops(block) {
                    if self.walk(op, f) == WalkControl::Interrupt {
                        return WalkControl::Interrupt;
                    }
                }
            }
        }
        WalkControl::Advance
    }

    /// Collect all ops under `root` (pre-order, excluding `root` itself).
    pub fn nested_ops(&self, root: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk(root, &mut |op| {
            if op != root {
                out.push(op);
            }
            WalkControl::Advance
        });
        out
    }

    /// `true` if `ancestor` (an op) transitively contains `op`.
    pub fn is_ancestor(&self, ancestor: OpId, op: OpId) -> bool {
        let mut cur = Some(op);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = self.op_parent_op(c);
        }
        false
    }

    /// `true` if value `v` is defined outside the subtree rooted at `op`
    /// (i.e. its defining op/block is not contained in `op`).
    pub fn value_defined_outside(&self, v: ValueId, op: OpId) -> bool {
        match self.value_def(v) {
            ValueDef::OpResult { op: def, .. } => !self.is_ancestor(op, def),
            ValueDef::BlockArg { block, .. } => {
                let owner = self.regions[self.blocks[block.0 as usize].region.0 as usize].parent_op;
                !(owner == op || self.is_ancestor(op, owner))
            }
        }
    }

    // ------------------------------------------------------------------
    // Symbols
    // ------------------------------------------------------------------

    /// Symbol name of an op (its `sym_name` attribute).
    pub fn symbol_name(&self, op: OpId) -> Option<&str> {
        self.attr_by_id(op, self.ctx.common_keys().sym_name)
            .and_then(|a| a.as_str())
    }

    /// Find a directly nested op with the given `sym_name` in `scope`'s
    /// first region.
    pub fn lookup_symbol(&self, scope: OpId, name: &str) -> Option<OpId> {
        let region = *self.op_regions(scope).first()?;
        for &block in self.region_blocks(region) {
            for &op in self.block_ops(block) {
                if self.symbol_name(op) == Some(name) {
                    return Some(op);
                }
            }
        }
        None
    }

    /// Resolve a possibly nested symbol path (e.g. `["device", "kernel"]`)
    /// starting at `scope`.
    pub fn lookup_symbol_path(&self, scope: OpId, path: &[String]) -> Option<OpId> {
        let mut cur = scope;
        for part in path {
            cur = self.lookup_symbol(cur, part)?;
        }
        Some(cur)
    }

    /// All `func.func` ops directly inside `scope` (a module op).
    pub fn funcs_in(&self, scope: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let Some(func) = self.ctx.lookup_op("func.func") else {
            return out;
        };
        if let Some(&region) = self.op_regions(scope).first() {
            for &block in self.region_blocks(region) {
                for &op in self.block_ops(block) {
                    if self.op_name(op) == func {
                        out.push(op);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::OpInfo;

    fn test_ctx() -> Context {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("test.producer"));
        ctx.register_op(OpInfo::new("test.consumer"));
        ctx.register_op(OpInfo::new("test.region_op"));
        ctx
    }

    #[test]
    fn create_and_use_values() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let p = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let v = m.op_result(p, 0);
        let c = m.create_op(ctx.op("test.consumer"), &[v, v], &[], vec![]);
        let top = m.top_block();
        m.append_op(top, p);
        m.append_op(top, c);
        assert_eq!(m.value_uses(v).len(), 2);
        assert_eq!(m.op_operands(c), &[v, v]);
        assert_eq!(m.def_op(v), Some(p));
        assert_eq!(m.op_parent_op(c), Some(m.top()));
    }

    #[test]
    fn replace_all_uses_moves_use_list() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let p1 = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let p2 = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let v1 = m.op_result(p1, 0);
        let v2 = m.op_result(p2, 0);
        let c = m.create_op(ctx.op("test.consumer"), &[v1], &[], vec![]);
        let top = m.top_block();
        m.append_op(top, p1);
        m.append_op(top, p2);
        m.append_op(top, c);
        m.replace_all_uses(v1, v2);
        assert!(!m.value_has_uses(v1));
        assert_eq!(m.value_uses(v2).len(), 1);
        assert_eq!(m.op_operand(c, 0), v2);
    }

    #[test]
    fn erase_op_recursively() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let outer = m.create_op(ctx.op("test.region_op"), &[], &[], vec![]);
        let region = m.add_region(outer);
        let block = m.add_block(region, std::slice::from_ref(&i32t));
        let arg = m.block_arg(block, 0);
        let inner = m.create_op(ctx.op("test.consumer"), &[arg], &[], vec![]);
        m.append_op(block, inner);
        let top = m.top_block();
        m.append_op(top, outer);
        assert_eq!(m.live_op_count(), 3); // builtin.module + outer + inner
        m.erase_op(outer);
        assert_eq!(m.live_op_count(), 1);
        assert!(m.op_is_erased(outer));
        assert!(m.op_is_erased(inner));
        assert!(m.value_is_erased(arg));
    }

    #[test]
    #[should_panic(expected = "still used")]
    fn erase_used_op_panics() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let p = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let v = m.op_result(p, 0);
        let c = m.create_op(ctx.op("test.consumer"), &[v], &[], vec![]);
        let top = m.top_block();
        m.append_op(top, p);
        m.append_op(top, c);
        m.erase_op(p);
    }

    #[test]
    fn clone_op_remaps_nested_values() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let outer = m.create_op(ctx.op("test.region_op"), &[], &[], vec![]);
        let region = m.add_region(outer);
        let block = m.add_block(region, std::slice::from_ref(&i32t));
        let arg = m.block_arg(block, 0);
        let inner = m.create_op(ctx.op("test.consumer"), &[arg], &[], vec![]);
        m.append_op(block, inner);
        let top = m.top_block();
        m.append_op(top, outer);

        let mut mapping = HashMap::new();
        let cloned = m.clone_op(outer, &mut mapping);
        m.append_op(top, cloned);
        let cloned_block = m.op_region_block(cloned, 0);
        let cloned_arg = m.block_arg(cloned_block, 0);
        let cloned_inner = m.block_ops(cloned_block)[0];
        assert_ne!(cloned_inner, inner);
        assert_eq!(m.op_operand(cloned_inner, 0), cloned_arg);
        assert_eq!(mapping.get(&arg), Some(&cloned_arg));
    }

    #[test]
    fn erase_operand_reindexes_uses() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let p = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let q = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let v = m.op_result(p, 0);
        let w = m.op_result(q, 0);
        let c = m.create_op(ctx.op("test.consumer"), &[v, w], &[], vec![]);
        let top = m.top_block();
        m.append_op(top, p);
        m.append_op(top, q);
        m.append_op(top, c);
        m.erase_operand(c, 0);
        assert_eq!(m.op_operands(c), &[w]);
        assert!(!m.value_has_uses(v));
        let uses = m.value_uses(w);
        assert_eq!(uses.len(), 1);
        assert_eq!(uses[0].index, 0);
    }

    #[test]
    fn walk_orders_and_controls() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let outer = m.create_op(ctx.op("test.region_op"), &[], &[], vec![]);
        let region = m.add_region(outer);
        let block = m.add_block(region, &[]);
        let inner = m.create_op(ctx.op("test.producer"), &[], &[ctx.i32_type()], vec![]);
        m.append_op(block, inner);
        let top = m.top_block();
        m.append_op(top, outer);

        let mut seen = Vec::new();
        m.walk(m.top(), &mut |op| {
            seen.push(op);
            WalkControl::Advance
        });
        assert_eq!(seen, vec![m.top(), outer, inner]);

        let mut seen_skip = Vec::new();
        m.walk(m.top(), &mut |op| {
            seen_skip.push(op);
            if op == outer {
                WalkControl::Skip
            } else {
                WalkControl::Advance
            }
        });
        assert_eq!(seen_skip, vec![m.top(), outer]);
    }

    #[test]
    fn mutation_epoch_tracks_edits_and_module_ids_are_unique() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let m2 = Module::new(&ctx);
        assert_ne!(m.module_id(), m2.module_id());

        let e0 = m.mutation_epoch();
        let i32t = ctx.i32_type();
        let p = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let top = m.top_block();
        m.append_op(top, p);
        let e1 = m.mutation_epoch();
        assert!(e1 > e0, "creation and attachment must advance the epoch");

        // Pure reads leave the epoch unchanged.
        let _ = m.op_operands(p);
        let _ = m.value_type(m.op_result(p, 0));
        assert_eq!(m.mutation_epoch(), e1);

        m.set_attr(p, "note", Attribute::Int(1));
        let e2 = m.mutation_epoch();
        assert!(e2 > e1, "attribute edits must advance the epoch");
        m.erase_op(p);
        assert!(m.mutation_epoch() > e2, "erasure must advance the epoch");
    }

    #[test]
    fn value_defined_outside() {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let i32t = ctx.i32_type();
        let p = m.create_op(
            ctx.op("test.producer"),
            &[],
            std::slice::from_ref(&i32t),
            vec![],
        );
        let outer = m.create_op(ctx.op("test.region_op"), &[], &[], vec![]);
        let region = m.add_region(outer);
        let block = m.add_block(region, std::slice::from_ref(&i32t));
        let arg = m.block_arg(block, 0);
        let v = m.op_result(p, 0);
        let inner = m.create_op(ctx.op("test.consumer"), &[v, arg], &[], vec![]);
        m.append_op(block, inner);
        let top = m.top_block();
        m.append_op(top, p);
        m.append_op(top, outer);
        assert!(m.value_defined_outside(v, outer));
        assert!(!m.value_defined_outside(arg, outer));
    }
}
