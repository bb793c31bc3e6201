//! Loop internalization (§VI-C of the paper, Listings 6→7).
//!
//! Tiles a kernel's innermost affine loop by the work-group size `M`,
//! prefetches temporally-reused global accesses into `M × M` work-group
//! local tiles, and injects the two group barriers of Listing 7. Gating
//! conditions, straight from the paper:
//!
//! * the memory access analysis (§V-D) classifies each load's coalescing
//!   and temporal reuse; only *loads* with temporal reuse are candidates
//!   (stores are excluded — the paper's stated limitation);
//! * the uniformity analysis (§V-C) must prove the loop is **not** in a
//!   divergent region, or the barriers would deadlock (this is what keeps
//!   Gramschmidt unoptimized, §VIII);
//! * the work-group size must be a compile-time constant — propagated from
//!   the host by the joint analysis (§VII-B) — square, and divide the loop
//!   trip count.

use std::collections::HashMap;
use sycl_mlir_analysis::memaccess::{AccessInfo, AccessKind, DimKind, MemoryAccessAnalysis};
use sycl_mlir_analysis::uniformity::UniformityAnalysis;
use sycl_mlir_ir::dialect::traits;
use sycl_mlir_ir::{Attribute, Builder, Module, OpId, Pass, ValueId, WalkControl};
use sycl_mlir_sycl::device;

/// Statistics of one internalization run.
#[derive(Debug, Default, Clone)]
pub struct InternalizeStats {
    /// Loops tiled (one per kernel loop with ≥1 candidate).
    pub internalized_loops: usize,
    /// Array references prefetched to local memory (GEMM: 2, SYR2K: 4 —
    /// §VIII).
    pub prefetched_refs: usize,
    /// Candidate loops skipped because they sit in divergent regions
    /// (Gramschmidt, §VIII).
    pub skipped_divergent: usize,
    /// Store accesses that would have been candidates but for the
    /// loads-only limitation (§VIII).
    pub skipped_stores: usize,
}

/// The loop-internalization pass.
#[derive(Default)]
pub struct LoopInternalizationPass {
    pub stats: InternalizeStats,
}

impl Pass for LoopInternalizationPass {
    fn name(&self) -> &'static str {
        "loop-internalization"
    }

    fn note(&self) -> Option<String> {
        Some(format!(
            "internalized {} loops ({} refs prefetched, {} skipped divergent, {} stores skipped)",
            self.stats.internalized_loops,
            self.stats.prefetched_refs,
            self.stats.skipped_divergent,
            self.stats.skipped_stores
        ))
    }

    fn run(&mut self, m: &mut Module) -> Result<bool, String> {
        let mut kernels = Vec::new();
        m.walk(m.top(), &mut |op| {
            if m.op_is(op, "func.func") && device::is_kernel(m, op) {
                kernels.push(op);
            }
            WalkControl::Advance
        });
        let mut changed = false;
        for k in kernels {
            changed |= self.run_on_kernel(m, k);
        }
        Ok(changed)
    }
}

struct Candidate {
    load: OpId,
    base: ValueId,
    /// Subscript position carrying the loop induction variable.
    k_pos: usize,
    /// The global-id axis used by the thread subscript (GEMM's `A[i][k]`
    /// uses axis 0; SYR2K's `A[j][k]` uses axis 1).
    thread_axis: u32,
    info: AccessInfo,
}

impl LoopInternalizationPass {
    fn run_on_kernel(&mut self, m: &mut Module, func: OpId) -> bool {
        // Work-group size must be known and square (Listing 6 uses
        // `wg_size(M, M)`).
        let Some(local) = m
            .attr(func, sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR)
            .and_then(|a| a.as_dense_i64())
            .map(|v| v.to_vec())
        else {
            return false;
        };
        if local.len() != 2 || local[0] != local[1] || local[0] < 2 {
            return false;
        }
        let tile = local[0];

        // The kernel's nd_item parameter (needed for local ids + barrier).
        let entry = m.op_region_block(func, 0);
        let Some(item) = m.block_args(entry).iter().rev().copied().find(|&a| {
            m.value_type(a)
                .dialect_type::<sycl_mlir_sycl::types::NdItemType>()
                .map(|t| t.dim == 2)
                .is_some_and(|x| x)
        }) else {
            return false;
        };

        // Innermost affine loops.
        let mut loops = Vec::new();
        m.walk(func, &mut |op| {
            if m.op_is(op, "affine.for") {
                loops.push(op);
            }
            WalkControl::Advance
        });
        let uniformity = UniformityAnalysis::compute(m, func);

        let mut changed = false;
        for l in loops {
            if m.op_is_erased(l) {
                continue;
            }
            // Innermost only, and barrier-free.
            let mut innermost = true;
            let mut has_barrier = false;
            m.walk(l, &mut |op| {
                if op != l && m.op_has_trait(op, traits::LOOP_LIKE) {
                    innermost = false;
                }
                if m.op_has_trait(op, traits::BARRIER) {
                    has_barrier = true;
                }
                WalkControl::Advance
            });
            if !innermost || has_barrier {
                continue;
            }
            // Constant bounds, step 1, trip count divisible by the tile.
            let lb = sycl_mlir_dialects::arith::const_int_of(m, m.op_operand(l, 0));
            let ub = sycl_mlir_dialects::arith::const_int_of(m, m.op_operand(l, 1));
            let step = sycl_mlir_dialects::arith::const_int_of(m, m.op_operand(l, 2));
            let (Some(lb), Some(ub), Some(1)) = (lb, ub, step) else {
                continue;
            };
            if (ub - lb) % tile != 0 || ub <= lb {
                continue;
            }
            let candidates = self.collect_candidates(m, func, l);
            if candidates.is_empty() {
                continue;
            }
            // Barrier legality: not in a divergent region (§V-C).
            if uniformity.is_divergent_at(m, l, func) {
                self.stats.skipped_divergent += 1;
                continue;
            }
            self.stats.prefetched_refs += candidates.len();
            self.stats.internalized_loops += 1;
            internalize(m, l, item, tile, candidates);
            changed = true;
        }
        changed
    }

    fn collect_candidates(&mut self, m: &Module, _func: OpId, loop_op: OpId) -> Vec<Candidate> {
        let maa = MemoryAccessAnalysis::analyze(m, loop_op);
        let mut out = Vec::new();
        let body = m.op_region_block(loop_op, 0);
        for a in maa.accesses {
            if !a.has_temporal_reuse() {
                continue;
            }
            if a.kind == AccessKind::Store {
                self.stats.skipped_stores += 1;
                continue;
            }
            // Base must be a rank-2 global accessor.
            let base_ty = m.value_type(a.base);
            let Some(acc) = sycl_mlir_sycl::types::accessor_info(&base_ty) else {
                continue;
            };
            if acc.dim != 2 || acc.target != sycl_mlir_sycl::types::Target::Local {
                // rank-2 global accessors only
                if acc.dim != 2 {
                    continue;
                }
            }
            if acc.target == sycl_mlir_sycl::types::Target::Local {
                continue;
            }
            // The load must sit directly in the loop body.
            if m.op_parent_block(a.load_op()) != Some(body) {
                continue;
            }
            let Some(k_pos) = k_position(&a, loop_op) else {
                continue;
            };
            // The other subscript must involve exactly one global-id axis
            // (its coefficients define the tile mapping) and no local ids
            // or loop ivs.
            let q = 1 - k_pos;
            let mut thread_axis: Option<u32> = None;
            let mut ok = true;
            for (&c, d) in a.matrix[q].iter().zip(&a.dims) {
                if c == 0 {
                    continue;
                }
                match d {
                    DimKind::GlobalId(ax) => {
                        if thread_axis.is_some() && thread_axis != Some(*ax) {
                            ok = false;
                        }
                        thread_axis = Some(*ax);
                    }
                    DimKind::LocalId(_) | DimKind::LoopIv(_) => ok = false,
                }
            }
            let Some(thread_axis) = thread_axis else {
                continue;
            };
            // All dim values (gids) must be defined outside the loop.
            let defined_outside = a.dim_values.iter().zip(&a.dims).all(|(&v, d)| {
                matches!(d, DimKind::LoopIv(_)) || m.value_defined_outside(v, loop_op)
            });
            if ok && defined_outside {
                out.push(Candidate {
                    load: a.op,
                    base: a.base,
                    k_pos,
                    thread_axis,
                    info: a,
                });
            }
        }
        out
    }
}

/// The subscript position where this loop's induction variable appears with
/// coefficient exactly 1 (and nowhere else).
fn k_position(a: &AccessInfo, loop_op: OpId) -> Option<usize> {
    let col = a
        .dims
        .iter()
        .position(|d| matches!(d, DimKind::LoopIv(l) if *l == loop_op))?;
    let mut pos = None;
    for (row, coeffs) in a.matrix.iter().enumerate() {
        match coeffs[col] {
            0 => {}
            1 if pos.is_none() => pos = Some(row),
            _ => return None,
        }
    }
    if a.matrix.len() != 2 {
        return None;
    }
    pos
}

trait AccessInfoExt {
    fn load_op(&self) -> OpId;
}

impl AccessInfoExt for AccessInfo {
    fn load_op(&self) -> OpId {
        self.op
    }
}

/// Materialize `Σ coeff_j · dim_j + offset` at the builder's position,
/// substituting `subst` for selected dimensions.
fn materialize_row(
    b: &mut Builder<'_>,
    info: &AccessInfo,
    row: usize,
    subst: &HashMap<usize, ValueId>,
) -> ValueId {
    let mut acc: Option<ValueId> = None;
    for (j, &coeff) in info.matrix[row].iter().enumerate() {
        if coeff == 0 {
            continue;
        }
        let dim_v = subst.get(&j).copied().unwrap_or(info.dim_values[j]);
        let term = if coeff == 1 {
            dim_v
        } else {
            let cst = sycl_mlir_dialects::arith::constant_index(b, coeff);
            sycl_mlir_dialects::arith::muli(b, dim_v, cst)
        };
        acc = Some(match acc {
            None => term,
            Some(prev) => sycl_mlir_dialects::arith::addi(b, prev, term),
        });
    }
    let offset = info.offsets[row];
    match (acc, offset) {
        (Some(v), 0) => v,
        (Some(v), o) => {
            let cst = sycl_mlir_dialects::arith::constant_index(b, o);
            sycl_mlir_dialects::arith::addi(b, v, cst)
        }
        (None, o) => sycl_mlir_dialects::arith::constant_index(b, o),
    }
}

/// Perform the Listing 6 → Listing 7 rewrite.
fn internalize(
    m: &mut Module,
    loop_op: OpId,
    item: ValueId,
    tile: i64,
    candidates: Vec<Candidate>,
) {
    let old_operands = m.op_operands(loop_op).to_vec();
    let old_results = m.op_results(loop_op).to_vec();
    let old_body = m.op_region_block(loop_op, 0);
    let old_args = m.block_args(old_body).to_vec();
    let old_iv = old_args[0];
    let old_yield = m.block_terminator(old_body).expect("terminator");
    let old_yield_operands = m.op_operands(old_yield).to_vec();
    let result_types: Vec<_> = old_results.iter().map(|&r| m.value_type(r)).collect();

    // Prologue before the loop: local ids, group handle, tiles.
    let (lx, ly, g0, g1, group, tiles, m_step) = {
        let mut b = Builder::before(m, loop_op);
        let lx = device::local_id(&mut b, item, 0);
        let ly = device::local_id(&mut b, item, 1);
        let g0 = device::group_id(&mut b, item, 0);
        let g1 = device::group_id(&mut b, item, 1);
        let group = device::get_group(&mut b, item);
        let mut tiles = Vec::new();
        for c in &candidates {
            let elem = sycl_mlir_sycl::types::accessor_info(&b.module().value_type(c.base))
                .expect("accessor base")
                .elem
                .clone();
            let t = device::local_alloca(&mut b, elem, &[tile, tile]);
            tiles.push(t);
        }
        let m_step = sycl_mlir_dialects::arith::constant_index(&mut b, tile);
        (lx, ly, g0, g1, group, tiles, m_step)
    };

    // Outer tile loop: `for t = lb to ub step M`.
    let outer_name = m.ctx().op("affine.for");
    let mut outer_operands = vec![old_operands[0], old_operands[1], m_step];
    outer_operands.extend_from_slice(&old_operands[3..]);
    let outer = m.create_op(outer_name, &outer_operands, &result_types, vec![]);
    {
        let block = m.op_parent_block(loop_op).expect("attached");
        let index = m.op_index_in_block(loop_op);
        m.insert_op(block, index, outer);
    }
    let outer_region = m.add_region(outer);
    let mut outer_arg_types = vec![m.ctx().index_type()];
    outer_arg_types.extend(result_types.iter().cloned());
    let outer_body = m.add_block(outer_region, &outer_arg_types);
    let t_iv = m.block_arg(outer_body, 0);
    let outer_iters: Vec<ValueId> = m.block_args(outer_body)[1..].to_vec();

    // Prefetch phase + first barrier (Listing 7 lines 14–16).
    {
        let mut b = Builder::at_end(m, outer_body);
        for (c, &tile_mem) in candidates.iter().zip(&tiles) {
            // Tile coordinates: position p (the k subscript) is enumerated
            // by one local axis, position q (the thread subscript) by the
            // other; the work-group covers the thread axis via
            // `group(a)*M + lid`.
            let lid_k = if c.k_pos == 0 { lx } else { ly };
            let lid_q = if c.k_pos == 0 { ly } else { lx };
            let k_sub = sycl_mlir_dialects::arith::addi(&mut b, t_iv, lid_k);
            let ga = if c.thread_axis == 0 { g0 } else { g1 };
            let base = sycl_mlir_dialects::arith::muli(&mut b, ga, m_step);
            let gid_sub = sycl_mlir_dialects::arith::addi(&mut b, base, lid_q);
            let k_col = c
                .info
                .dims
                .iter()
                .position(|d| matches!(d, DimKind::LoopIv(l) if *l == loop_op))
                .expect("loop dim");
            let gid_col = c
                .info
                .dims
                .iter()
                .position(|d| matches!(d, DimKind::GlobalId(ax) if *ax == c.thread_axis))
                .expect("thread dim");
            let mut subst = HashMap::new();
            subst.insert(k_col, k_sub);
            subst.insert(gid_col, gid_sub);
            let sub0 = materialize_row(&mut b, &c.info, 0, &subst);
            let sub1 = materialize_row(&mut b, &c.info, 1, &subst);
            let id = device::make_id(&mut b, &[sub0, sub1]);
            let view = device::subscript(&mut b, c.base, id);
            let zero = sycl_mlir_dialects::arith::constant_index(&mut b, 0);
            let val = sycl_mlir_dialects::affine::load(&mut b, view, &[zero]);
            // Tile layout: dim 0 indexes the k offset, dim 1 the thread
            // offset within the group's thread-axis window.
            sycl_mlir_dialects::affine::store(&mut b, val, tile_mem, &[lid_k, lid_q]);
        }
        device::group_barrier(&mut b, group);
    }

    // Inner loop over the tile (Listing 7 lines 17–18).
    let inner = {
        let mut b = Builder::at_end(m, outer_body);
        let zero = sycl_mlir_dialects::arith::constant_index(&mut b, 0);
        let tile_c = sycl_mlir_dialects::arith::constant_index(&mut b, tile);
        let one = sycl_mlir_dialects::arith::constant_index(&mut b, 1);
        let inner_name = b.ctx().op("affine.for");
        let mut inner_operands = vec![zero, tile_c, one];
        inner_operands.extend_from_slice(&outer_iters);
        let m = b.module();
        let inner = m.create_op(inner_name, &inner_operands, &result_types, vec![]);
        b.insert(inner);
        inner
    };
    let inner_region = m.add_region(inner);
    let mut inner_arg_types = vec![m.ctx().index_type()];
    inner_arg_types.extend(result_types.iter().cloned());
    let inner_body = m.add_block(inner_region, &inner_arg_types);
    let kk = m.block_arg(inner_body, 0);

    // Clone the original body into the inner loop.
    let mut mapping: HashMap<ValueId, ValueId> = HashMap::new();
    // old iv -> t + kk
    {
        let mut b = Builder::at_end(m, inner_body);
        let k_global = sycl_mlir_dialects::arith::addi(&mut b, t_iv, kk);
        mapping.insert(old_iv, k_global);
    }
    for (i, &old_iter) in old_args[1..].iter().enumerate() {
        mapping.insert(old_iter, m.block_arg(inner_body, 1 + i));
    }
    let candidate_of = |op: OpId| candidates.iter().position(|c| c.load == op);
    for &op in m.block_ops(old_body).to_vec().iter() {
        if op == old_yield {
            continue;
        }
        if let Some(ci) = candidate_of(op) {
            // Replace the global load with a tile load (Listing 7 line 18):
            // tile[kk][own offset along the access's thread axis].
            let c = &candidates[ci];
            let tile_mem = tiles[ci];
            let mut b = Builder::at_end(m, inner_body);
            let own = if c.thread_axis == 0 { lx } else { ly };
            let v = sycl_mlir_dialects::affine::load(&mut b, tile_mem, &[kk, own]);
            mapping.insert(m.op_result(c.load, 0), v);
            continue;
        }
        let cloned = m.clone_op(op, &mut mapping);
        m.append_op(inner_body, cloned);
    }
    {
        let yname = m.ctx().op("affine.yield");
        let mapped: Vec<ValueId> = old_yield_operands
            .iter()
            .map(|v| *mapping.get(v).unwrap_or(v))
            .collect();
        let y = m.create_op(yname, &mapped, &[], vec![]);
        m.append_op(inner_body, y);
    }

    // Second barrier + outer yield (Listing 7 lines 19–20).
    {
        let inner_results = m.op_results(inner).to_vec();
        let mut b = Builder::at_end(m, outer_body);
        device::group_barrier(&mut b, group);
        let yname = b.ctx().op("affine.yield");
        let m = b.module();
        let y = m.create_op(yname, &inner_results, &[], vec![]);
        m.append_op(outer_body, y);
    }

    // Rewire and drop the original loop.
    for (i, &r) in old_results.iter().enumerate() {
        let n = m.op_result(outer, i);
        m.replace_all_uses(r, n);
    }
    m.erase_op(loop_op);
    m.set_attr(outer, "sycl.internalized", Attribute::Unit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::affine::build_affine_for;
    use sycl_mlir_dialects::arith::{self, constant_index};
    use sycl_mlir_dialects::func::{build_func, build_return};
    use sycl_mlir_ir::{print_module, verify, Context, Module};
    use sycl_mlir_sycl::device::{global_id, make_id, mark_kernel, subscript};
    use sycl_mlir_sycl::types::{accessor_type, nd_item_type, AccessMode, Target};

    fn ctx() -> Context {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        sycl_mlir_sycl::register(&c);
        c
    }

    /// Build the Listing 6 matmul kernel: C[i][j] += A[i][k] * B[k][j].
    fn build_matmul(m: &mut Module, n: i64, wg: i64) -> OpId {
        let c = m.ctx().clone();
        let acc2r = accessor_type(&c, c.f32_type(), 2, AccessMode::Read, Target::Global);
        let acc2w = accessor_type(&c, c.f32_type(), 2, AccessMode::ReadWrite, Target::Global);
        let nd2 = nd_item_type(&c, 2);
        let top = m.top();
        let (func, entry) = build_func(
            m,
            top,
            "matrix_multiply",
            &[acc2r.clone(), acc2r, acc2w, nd2],
            &[],
        );
        mark_kernel(m, func);
        m.set_attr(
            func,
            sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR,
            Attribute::DenseI64(vec![wg, wg]),
        );
        m.set_attr(
            func,
            sycl_mlir_analysis::alias::ARG_BUFFER_IDS_ATTR,
            Attribute::DenseI64(vec![0, 1, 2, -1]),
        );
        let a_acc = m.block_arg(entry, 0);
        let b_acc = m.block_arg(entry, 1);
        let c_acc = m.block_arg(entry, 2);
        let item = m.block_arg(entry, 3);
        {
            let mut b = Builder::at_end(m, entry);
            let i = global_id(&mut b, item, 0);
            let j = global_id(&mut b, item, 1);
            let zero = constant_index(&mut b, 0);
            let nn = constant_index(&mut b, n);
            let one = constant_index(&mut b, 1);
            build_affine_for(&mut b, zero, nn, one, &[], |inner, k, _| {
                let z = constant_index(inner, 0);
                let id_a = make_id(inner, &[i, k]);
                let va = subscript(inner, a_acc, id_a);
                let la = sycl_mlir_dialects::affine::load(inner, va, &[z]);
                let id_b = make_id(inner, &[k, j]);
                let vb = subscript(inner, b_acc, id_b);
                let lb = sycl_mlir_dialects::affine::load(inner, vb, &[z]);
                let prod = arith::mulf(inner, la, lb);
                let id_c = make_id(inner, &[i, j]);
                let vc = subscript(inner, c_acc, id_c);
                let lc = sycl_mlir_dialects::affine::load(inner, vc, &[z]);
                let sum = arith::addf(inner, lc, prod);
                sycl_mlir_dialects::affine::store(inner, sum, vc, &[z]);
                vec![]
            });
            build_return(&mut b, &[]);
        }
        func
    }

    /// Listing 6 → Listing 7: two refs prefetched, two barriers, tiled loop.
    #[test]
    fn matmul_is_internalized() {
        let c = ctx();
        let mut m = Module::new(&c);
        build_matmul(&mut m, 64, 16);
        let mut pass = LoopInternalizationPass::default();
        let changed = pass.run(&mut m).unwrap();
        assert!(changed);
        assert_eq!(pass.stats.internalized_loops, 1);
        assert_eq!(pass.stats.prefetched_refs, 2);
        verify(&m).unwrap_or_else(|e| panic!("{e}\n{}", print_module(&m)));
        let text = print_module(&m);
        assert_eq!(text.matches("sycl.group.barrier").count(), 2, "{text}");
        assert_eq!(text.matches("sycl.local.alloca").count(), 2, "{text}");
        // Nested tiling: outer (step M) + inner loops.
        assert_eq!(text.matches("affine.for").count(), 2, "{text}");
    }

    /// No local-range attribute (host analysis didn't run): no transform.
    #[test]
    fn unknown_wg_size_blocks_internalization() {
        let c = ctx();
        let mut m = Module::new(&c);
        let func = build_matmul(&mut m, 64, 16);
        m.remove_attr(func, sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR);
        let mut pass = LoopInternalizationPass::default();
        let changed = pass.run(&mut m).unwrap();
        assert!(!changed);
    }

    /// A candidate loop inside a divergent branch is skipped — the
    /// Gramschmidt case of §VIII.
    #[test]
    fn divergent_region_blocks_internalization() {
        let c = ctx();
        let mut m = Module::new(&c);
        let acc2 = accessor_type(&c, c.f32_type(), 2, AccessMode::Read, Target::Global);
        let acc2w = accessor_type(&c, c.f32_type(), 2, AccessMode::ReadWrite, Target::Global);
        let nd2 = nd_item_type(&c, 2);
        let top = m.top();
        let (func, entry) = build_func(&mut m, top, "gram", &[acc2.clone(), acc2, acc2w, nd2], &[]);
        mark_kernel(&mut m, func);
        m.set_attr(
            func,
            sycl_mlir_sycl::KERNEL_LOCAL_RANGE_ATTR,
            Attribute::DenseI64(vec![16, 16]),
        );
        let a_acc = m.block_arg(entry, 0);
        let b_acc = m.block_arg(entry, 1);
        let c_acc = m.block_arg(entry, 2);
        let item = m.block_arg(entry, 3);
        {
            let mut b = Builder::at_end(&mut m, entry);
            let i = global_id(&mut b, item, 0);
            let j = global_id(&mut b, item, 1);
            let zero = constant_index(&mut b, 0);
            // Divergent guard: if (gid0 > 0) { candidate loop }.
            let div_cond = arith::cmpi(&mut b, "sgt", i, zero);
            sycl_mlir_dialects::scf::build_if(
                &mut b,
                div_cond,
                &[],
                |inner| {
                    let z = constant_index(inner, 0);
                    let nn = constant_index(inner, 64);
                    let one = constant_index(inner, 1);
                    build_affine_for(inner, z, nn, one, &[], |body, k, _| {
                        let z2 = constant_index(body, 0);
                        let id_a = make_id(body, &[i, k]);
                        let va = subscript(body, a_acc, id_a);
                        let la = sycl_mlir_dialects::affine::load(body, va, &[z2]);
                        let id_b = make_id(body, &[k, j]);
                        let vb = subscript(body, b_acc, id_b);
                        let lb = sycl_mlir_dialects::affine::load(body, vb, &[z2]);
                        let prod = arith::mulf(body, la, lb);
                        let id_c = make_id(body, &[i, j]);
                        let vc = subscript(body, c_acc, id_c);
                        let lc = sycl_mlir_dialects::affine::load(body, vc, &[z2]);
                        let sum = arith::addf(body, lc, prod);
                        sycl_mlir_dialects::affine::store(body, sum, vc, &[z2]);
                        vec![]
                    });
                    vec![]
                },
                |_| vec![],
            );
            build_return(&mut b, &[]);
        }
        let mut pass = LoopInternalizationPass::default();
        let changed = pass.run(&mut m).unwrap();
        assert!(!changed);
        assert_eq!(pass.stats.skipped_divergent, 1);
        let text = print_module(&m);
        assert!(!text.contains("sycl.group.barrier"), "{text}");
    }

    /// Trip count not divisible by the tile: no transform.
    #[test]
    fn indivisible_trip_count_blocks_internalization() {
        let c = ctx();
        let mut m = Module::new(&c);
        build_matmul(&mut m, 65, 16);
        let mut pass = LoopInternalizationPass::default();
        assert!(!pass.run(&mut m).unwrap());
    }
}
