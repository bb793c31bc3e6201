//! Memory access analysis (§V-D of the paper, after Kaeli et al. \[14\]).
//!
//! For every SYCL memory access inside an affine loop the analysis recovers
//! an *access matrix* `M` and *offset vector* `o` such that the accessed
//! index vector equals `M · d + o`, where `d` stacks the work-item ids and
//! loop induction variables. Listing 3's access `[gid_x+1, 2*i, 2*i+2+gid_y]`
//! yields
//!
//! ```text
//! | 1 0 0 |   | gid_x |   | 1 |
//! | 0 0 2 | x | gid_y | + | 0 |
//! | 0 1 2 |   |   i   |   | 2 |
//! ```
//!
//! Loop internalization (§VI-C) consumes two derived facts:
//!
//! * the **inter-work-item** sub-matrix (loop-iv columns removed) decides
//!   whether the access coalesces (`Linear` / `ReverseLinear` per \[14\]);
//! * the **intra-work-item** sub-matrix (thread columns removed) being
//!   non-zero signals temporal locality worth staging in local memory.

use std::ops::{Add, Mul};
use sycl_mlir_ir::affine::{AffineExpr, AffineMap};
use sycl_mlir_ir::{Module, OpId, ValueDef, ValueId, WalkControl};

/// What a dimension of the access space stands for.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum DimKind {
    /// `get_global_id(d)` / `item.get_id(d)`.
    GlobalId(u32),
    /// `get_local_id(d)`.
    LocalId(u32),
    /// A loop induction variable (op id of the loop, nesting depth order).
    LoopIv(OpId),
}

impl DimKind {
    /// `true` for work-item (thread) dimensions.
    pub fn is_thread(self) -> bool {
        matches!(self, DimKind::GlobalId(_) | DimKind::LocalId(_))
    }
}

/// Load or store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    Load,
    Store,
}

/// Coalescing classification of \[14\].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoalescingClass {
    /// Consecutive work-items touch consecutive addresses.
    Linear,
    /// Consecutive work-items touch consecutive addresses in reverse.
    ReverseLinear,
    /// The fastest thread dimension does not appear: all work-items in a row
    /// read the same element (a broadcast — serviced by one transaction).
    Broadcast,
    /// Strided / scattered: transactions do not coalesce.
    NonCoalesced,
}

/// One analyzed memory access.
#[derive(Clone, Debug)]
pub struct AccessInfo {
    /// The `affine.load` / `affine.store` op.
    pub op: OpId,
    pub kind: AccessKind,
    /// The accessor (or raw memref) being indexed.
    pub base: ValueId,
    /// Dimension meanings, column order of [`AccessInfo::matrix`].
    pub dims: Vec<DimKind>,
    /// Representative SSA value for each dimension (the id query result or
    /// the loop induction variable), aligned with [`AccessInfo::dims`].
    pub dim_values: Vec<ValueId>,
    /// Access matrix: one row per subscript.
    pub matrix: Vec<Vec<i64>>,
    /// Offset vector: one entry per subscript.
    pub offsets: Vec<i64>,
    /// The affine map the matrix was derived from.
    pub map: AffineMap,
    /// The kernel's fastest-varying thread dimension index (SYCL linearizes
    /// row-major, so this is `kernel_rank - 1`). `None` when the enclosing
    /// kernel's rank could not be determined.
    pub fastest_dim_index: Option<u32>,
}

impl AccessInfo {
    /// Column indices of thread dimensions.
    pub fn thread_columns(&self) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_thread())
            .map(|(i, _)| i)
            .collect()
    }

    /// Column indices of loop induction variables.
    pub fn loop_columns(&self) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_thread())
            .map(|(i, _)| i)
            .collect()
    }

    fn submatrix(&self, keep: &[usize]) -> Vec<Vec<i64>> {
        self.matrix
            .iter()
            .map(|row| keep.iter().map(|&c| row[c]).collect())
            .collect()
    }

    /// Inter-work-item access matrix: loop-iv columns removed (§VI-C).
    pub fn inter_workitem_matrix(&self) -> Vec<Vec<i64>> {
        self.submatrix(&self.thread_columns())
    }

    /// Intra-work-item access matrix: thread columns removed (§VI-C).
    pub fn intra_workitem_matrix(&self) -> Vec<Vec<i64>> {
        self.submatrix(&self.loop_columns())
    }

    /// Temporal reuse: the intra-work-item matrix is not the zero matrix
    /// (the element sequence revisits/marches under the loop while the
    /// work-group shares tiles — the §VI-C criterion).
    pub fn has_temporal_reuse(&self) -> bool {
        self.intra_workitem_matrix()
            .iter()
            .any(|row| row.iter().any(|&x| x != 0))
    }

    /// The kernel's fastest-varying thread dimension index: the recorded
    /// kernel rank's last dimension, falling back to the largest thread
    /// dimension index present in this access.
    pub fn fastest_dim(&self) -> Option<u32> {
        self.fastest_dim_index.or_else(|| {
            self.dims
                .iter()
                .filter_map(|d| match d {
                    DimKind::GlobalId(i) | DimKind::LocalId(i) => Some(*i),
                    DimKind::LoopIv(_) => None,
                })
                .max()
        })
    }

    /// Classify coalescing following \[14\]. Consecutive work-items differ in
    /// the kernel's *fastest* thread dimension; the access is `Linear` when
    /// that dimension appears with coefficient 1 in the last (fastest)
    /// subscript and nowhere else, `ReverseLinear` for -1, and `Broadcast`
    /// when it appears nowhere (every work-item in a row touches the same
    /// element — one transaction).
    pub fn coalescing_class(&self) -> CoalescingClass {
        let Some(fastest) = self.fastest_dim() else {
            return CoalescingClass::Broadcast;
        };
        let cols: Vec<usize> = self
            .dims
            .iter()
            .enumerate()
            .filter(
                |(_, d)| matches!(d, DimKind::GlobalId(i) | DimKind::LocalId(i) if *i == fastest),
            )
            .map(|(i, _)| i)
            .collect();
        if cols.is_empty() {
            return CoalescingClass::Broadcast;
        }
        let last_row = self.matrix.len() - 1;
        let mut class = CoalescingClass::Broadcast;
        for col in cols {
            for (r, row) in self.matrix.iter().enumerate() {
                let c = row[col];
                if r == last_row {
                    class = match (c, class) {
                        (0, cls) => cls,
                        (1, CoalescingClass::Broadcast | CoalescingClass::Linear) => {
                            CoalescingClass::Linear
                        }
                        (-1, CoalescingClass::Broadcast | CoalescingClass::ReverseLinear) => {
                            CoalescingClass::ReverseLinear
                        }
                        _ => return CoalescingClass::NonCoalesced,
                    };
                } else if c != 0 {
                    return CoalescingClass::NonCoalesced;
                }
            }
        }
        class
    }
}

/// Memory access analysis over a loop nest (or any op subtree).
#[derive(Debug, Default)]
pub struct MemoryAccessAnalysis {
    pub accesses: Vec<AccessInfo>,
}

impl MemoryAccessAnalysis {
    /// Analyze every `affine.load` / `affine.store` under `root`.
    /// Accesses whose subscripts are not affine in work-item ids and loop
    /// ivs are skipped (they are simply not candidates, §VI-C).
    pub fn analyze(m: &Module, root: OpId) -> MemoryAccessAnalysis {
        let kernel_rank = kernel_rank_of(m, root);
        let fastest = kernel_rank.map(|r| r.saturating_sub(1));
        let mut accesses = Vec::new();
        m.walk(root, &mut |op| {
            if m.op_is(op, "affine.load") {
                if let Some(mut info) = analyze_access(m, op, AccessKind::Load) {
                    info.fastest_dim_index = fastest;
                    accesses.push(info);
                }
            } else if m.op_is(op, "affine.store") {
                if let Some(mut info) = analyze_access(m, op, AccessKind::Store) {
                    info.fastest_dim_index = fastest;
                    accesses.push(info);
                }
            }
            WalkControl::Advance
        });
        MemoryAccessAnalysis { accesses }
    }

    /// Accesses on a specific base value.
    pub fn for_base(&self, base: ValueId) -> Vec<&AccessInfo> {
        self.accesses.iter().filter(|a| a.base == base).collect()
    }
}

fn analyze_access(m: &Module, op: OpId, kind: AccessKind) -> Option<AccessInfo> {
    let (mem, indices) = match kind {
        AccessKind::Load => {
            let ops = m.op_operands(op);
            (ops[0], ops[1..].to_vec())
        }
        AccessKind::Store => {
            let ops = m.op_operands(op);
            (ops[1], ops[2..].to_vec())
        }
    };
    // Peel a subscript: base becomes the accessor, subscripts the id
    // components (the paper's Listing 3 pattern).
    let (base, subscripts) = match m.def_op(mem) {
        Some(d) if m.op_is(d, "sycl.accessor.subscript") => {
            let acc = m.op_operand(d, 0);
            let id = m.op_operand(d, 1);
            let id_def = m.def_op(id)?;
            if !m.op_is(id_def, "sycl.id.constructor") {
                return None;
            }
            // The residual indices on the view must be the constant 0.
            for &i in &indices {
                if sycl_mlir_dialects::arith::const_int_of(m, i) != Some(0) {
                    return None;
                }
            }
            (acc, m.op_operands(id_def).to_vec())
        }
        _ => (mem, indices),
    };

    // Pass 1: discover the dimensions used.
    let mut dims: Vec<(DimKind, ValueId)> = Vec::new();
    for &s in &subscripts {
        discover_dims(m, s, &mut dims, 0)?;
    }
    // Canonical column order: global ids, local ids, then loop ivs
    // outermost-first (matches the paper's (gid_x, gid_y, i) ordering).
    dims.sort_by_key(|(k, _)| match *k {
        DimKind::GlobalId(d) => (0, d as i64),
        DimKind::LocalId(d) => (1, d as i64),
        DimKind::LoopIv(l) => (2, loop_depth(m, l)),
    });
    dims.dedup_by_key(|(k, _)| *k);

    // Pass 2: build the affine expressions against the fixed order.
    let mut exprs = Vec::with_capacity(subscripts.len());
    for &s in &subscripts {
        exprs.push(expr_of(m, s, &dims, 0)?);
    }
    let map = AffineMap::new(dims.len(), exprs);
    let (matrix, offsets) = map.as_matrix()?;
    let (kinds, values): (Vec<DimKind>, Vec<ValueId>) = dims.into_iter().unzip();
    Some(AccessInfo {
        op,
        kind,
        base,
        dims: kinds,
        dim_values: values,
        matrix,
        offsets,
        map,
        fastest_dim_index: None,
    })
}

/// The rank of the kernel's index space, read from the item-like parameter
/// of the enclosing function.
fn kernel_rank_of(m: &Module, root: OpId) -> Option<u32> {
    let func = if m.op_is(root, "func.func") {
        root
    } else {
        crate::structure::enclosing_func(m, root)?
    };
    let entry = m.op_region_block(func, 0);
    m.block_args(entry).iter().rev().find_map(|&a| {
        let ty = m.value_type(a);
        if sycl_mlir_sycl::types::is_item_like(&ty) {
            sycl_mlir_sycl::types::sycl_dim(&ty)
        } else {
            None
        }
    })
}

fn loop_depth(m: &Module, loop_op: OpId) -> i64 {
    let mut depth = 0;
    let mut cur = m.op_parent_op(loop_op);
    while let Some(c) = cur {
        depth += 1;
        cur = m.op_parent_op(c);
    }
    depth
}

const MAX_DEPTH: usize = 24;

fn dim_source(m: &Module, v: ValueId) -> Option<DimKind> {
    match m.value_def(v) {
        ValueDef::BlockArg { block, index: 0 } => {
            let owner = m.region_parent_op(m.block_region(block));
            if m.op_has_trait(owner, sycl_mlir_ir::traits::LOOP_LIKE) {
                return Some(DimKind::LoopIv(owner));
            }
            None
        }
        ValueDef::BlockArg { .. } => None,
        ValueDef::OpResult { op, .. } => {
            let name = m.op_name_str(op);
            let dim_of = || {
                m.op_operands(op)
                    .get(1)
                    .and_then(|&d| sycl_mlir_dialects::arith::const_int_of(m, d))
                    .map(|d| d as u32)
            };
            match &*name {
                "sycl.nd_item.get_global_id" | "sycl.item.get_id" => {
                    Some(DimKind::GlobalId(dim_of()?))
                }
                "sycl.nd_item.get_local_id" => Some(DimKind::LocalId(dim_of()?)),
                _ => None,
            }
        }
    }
}

fn discover_dims(
    m: &Module,
    v: ValueId,
    dims: &mut Vec<(DimKind, ValueId)>,
    depth: usize,
) -> Option<()> {
    if depth > MAX_DEPTH {
        return None;
    }
    if let Some(kind) = dim_source(m, v) {
        if !dims.iter().any(|(k, _)| *k == kind) {
            dims.push((kind, v));
        }
        return Some(());
    }
    if sycl_mlir_dialects::arith::const_int_of(m, v).is_some() {
        return Some(());
    }
    let op = m.def_op(v)?;
    let name = m.op_name_str(op);
    match &*name {
        "arith.addi" | "arith.subi" | "arith.muli" => {
            discover_dims(m, m.op_operand(op, 0), dims, depth + 1)?;
            discover_dims(m, m.op_operand(op, 1), dims, depth + 1)
        }
        "arith.index_cast" | "arith.extsi" | "arith.trunci" => {
            discover_dims(m, m.op_operand(op, 0), dims, depth + 1)
        }
        _ => None,
    }
}

fn expr_of(
    m: &Module,
    v: ValueId,
    dims: &[(DimKind, ValueId)],
    depth: usize,
) -> Option<AffineExpr> {
    if depth > MAX_DEPTH {
        return None;
    }
    if let Some(kind) = dim_source(m, v) {
        let idx = dims.iter().position(|(k, _)| *k == kind)?;
        return Some(AffineExpr::Dim(idx));
    }
    if let Some(c) = sycl_mlir_dialects::arith::const_int_of(m, v) {
        return Some(AffineExpr::Const(c));
    }
    let op = m.def_op(v)?;
    let name = m.op_name_str(op);
    match &*name {
        "arith.addi" => Some(
            expr_of(m, m.op_operand(op, 0), dims, depth + 1)?.add(expr_of(
                m,
                m.op_operand(op, 1),
                dims,
                depth + 1,
            )?),
        ),
        "arith.subi" => Some(
            expr_of(m, m.op_operand(op, 0), dims, depth + 1)?
                .add(expr_of(m, m.op_operand(op, 1), dims, depth + 1)?.mul(AffineExpr::Const(-1))),
        ),
        "arith.muli" => Some(
            expr_of(m, m.op_operand(op, 0), dims, depth + 1)?.mul(expr_of(
                m,
                m.op_operand(op, 1),
                dims,
                depth + 1,
            )?),
        ),
        "arith.index_cast" | "arith.extsi" | "arith.trunci" => {
            expr_of(m, m.op_operand(op, 0), dims, depth + 1)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::affine::build_affine_for;
    use sycl_mlir_dialects::arith::{addi, constant_index, muli};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_ir::{Builder, Context, Module};
    use sycl_mlir_sycl::device::{global_id, make_id, mark_kernel, subscript};
    use sycl_mlir_sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    /// The paper's Listing 3: access `[gid_x+1, 2*i, 2*i+2+gid_y]` inside a
    /// 64-iteration loop; the analysis must recover exactly the matrix and
    /// offsets printed in §V-D.
    #[test]
    fn paper_listing3_matrix_recovered() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc3 = accessor_type(&c, c.f32_type(), 3, AccessMode::Read, Target::Global);
        let item2 = sycl_mlir_sycl::types::item_type(&c, 2);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "mem_acc", &[acc3, item2], &[]);
        mark_kernel(&mut m, func);
        let acc = m.block_arg(entry, 0);
        let item = m.block_arg(entry, 1);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let gid_x = sycl_mlir_sycl::device::item_get_id(&mut b, item, 0);
            let gid_y = sycl_mlir_sycl::device::item_get_id(&mut b, item, 1);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 64);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, zero, n, one, &[], |inner, i, _| {
                let c1 = constant_index(inner, 1);
                let c2 = constant_index(inner, 2);
                let add1 = addi(inner, gid_x, c1);
                let mul1 = muli(inner, i, c2);
                let add1a = addi(inner, mul1, c2);
                let add1b = addi(inner, add1a, gid_y);
                let id = make_id(inner, &[add1, mul1, add1b]);
                let view = subscript(inner, acc, id);
                let z = constant_index(inner, 0);
                sycl_mlir_dialects::affine::load(inner, view, &[z]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let maa = MemoryAccessAnalysis::analyze(&m, func);
        assert_eq!(maa.accesses.len(), 1);
        let a = &maa.accesses[0];
        assert_eq!(a.base, acc);
        assert_eq!(a.dims.len(), 3);
        assert_eq!(a.dims[0], DimKind::GlobalId(0));
        assert_eq!(a.dims[1], DimKind::GlobalId(1));
        assert!(matches!(a.dims[2], DimKind::LoopIv(_)));
        assert_eq!(a.matrix, vec![vec![1, 0, 0], vec![0, 0, 2], vec![0, 1, 2]]);
        assert_eq!(a.offsets, vec![1, 0, 2]);
        // §VI-C: the inter-work-item submatrix is the first two columns.
        assert_eq!(
            a.inter_workitem_matrix(),
            vec![vec![1, 0], vec![0, 0], vec![0, 1]]
        );
        assert!(a.has_temporal_reuse());
    }

    /// GEMM-shaped accesses (Listing 6): `A[i][k]` has temporal reuse and is
    /// a broadcast; `B[k][j]` has temporal reuse and coalesces; `C[i][j]`
    /// has no temporal reuse (not a prefetch candidate).
    #[test]
    fn gemm_classification() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc2 = accessor_type(&c, c.f32_type(), 2, AccessMode::Read, Target::Global);
        let nd2 = nd_item_type(&c, 2);
        let top = m.top();
        let (func, entry) = build_func(
            &mut m,
            top,
            "gemm",
            &[acc2.clone(), acc2.clone(), acc2, nd2],
            &[],
        );
        mark_kernel(&mut m, func);
        let a_acc = m.block_arg(entry, 0);
        let b_acc = m.block_arg(entry, 1);
        let c_acc = m.block_arg(entry, 2);
        let item = m.block_arg(entry, 3);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let i = global_id(&mut b, item, 0);
            let j = global_id(&mut b, item, 1);
            let zero = constant_index(&mut b, 0);
            let n = constant_index(&mut b, 1024);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, zero, n, one, &[], |inner, k, _| {
                let id_a = make_id(inner, &[i, k]);
                let va = subscript(inner, a_acc, id_a);
                let z = constant_index(inner, 0);
                let la = sycl_mlir_dialects::affine::load(inner, va, &[z]);
                let id_b = make_id(inner, &[k, j]);
                let vb = subscript(inner, b_acc, id_b);
                let lb = sycl_mlir_dialects::affine::load(inner, vb, &[z]);
                let prod = sycl_mlir_dialects::arith::mulf(inner, la, lb);
                let id_c = make_id(inner, &[i, j]);
                let vc = subscript(inner, c_acc, id_c);
                let lc = sycl_mlir_dialects::affine::load(inner, vc, &[z]);
                let sum = sycl_mlir_dialects::arith::addf(inner, lc, prod);
                sycl_mlir_dialects::affine::store(inner, sum, vc, &[z]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        let maa = MemoryAccessAnalysis::analyze(&m, func);
        let a_info = &maa.for_base(a_acc)[0];
        let b_info = &maa.for_base(b_acc)[0];
        let c_loads: Vec<_> = maa
            .for_base(c_acc)
            .into_iter()
            .filter(|x| x.kind == AccessKind::Load)
            .cloned()
            .collect();
        let c_info = &c_loads[0];

        // A[i][k]: j (the fastest thread dim) absent -> broadcast; k moves
        // under the loop -> temporal reuse. Prefetch candidate.
        assert_eq!(a_info.coalescing_class(), CoalescingClass::Broadcast);
        assert!(a_info.has_temporal_reuse());
        // B[k][j]: coalesced over j, temporal reuse over k. Candidate.
        assert_eq!(b_info.coalescing_class(), CoalescingClass::Linear);
        assert!(b_info.has_temporal_reuse());
        // C[i][j]: coalesced but no loop-iv involvement -> no reuse.
        assert_eq!(c_info.coalescing_class(), CoalescingClass::Linear);
        assert!(!c_info.has_temporal_reuse());
    }

    #[test]
    fn non_affine_access_skipped() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc1 = accessor_type(&c, c.f32_type(), 1, AccessMode::Read, Target::Global);
        let nd1 = nd_item_type(&c, 1);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "k", &[acc1, nd1], &[]);
        mark_kernel(&mut m, func);
        let acc = m.block_arg(entry, 0);
        let item = m.block_arg(entry, 1);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let i = global_id(&mut b, item, 0);
            // i*i is not affine.
            let sq = muli(&mut b, i, i);
            let id = make_id(&mut b, &[sq]);
            let view = subscript(&mut b, acc, id);
            let z = constant_index(&mut b, 0);
            sycl_mlir_dialects::affine::load(&mut b, view, &[z]);
            build_return(&mut b, &[]);
        }
        let maa = MemoryAccessAnalysis::analyze(&m, func);
        assert!(maa.accesses.is_empty());
    }
}
