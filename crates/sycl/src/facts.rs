//! Launch facts: what the host knows about a kernel's launches, stored on
//! the kernel's `func.func`.
//!
//! Host-device propagation (§VII-B) and AdaptiveCpp's launch-time JIT
//! (§IX) write these facts; the device passes, the alias analysis and the
//! runtime read them. This module alone knows their attribute keys and
//! shapes:
//!
//! | fact | key | shape |
//! |---|---|---|
//! | global range | `sycl.global_range` | dense `[gx, gy, gz]` (rank entries) |
//! | local range | `sycl.local_range` | dense `[lx, ly, lz]` (rank entries) |
//! | buffer ids | `sycl.arg_buffer_ids` | dense, one per argument, `-1` unknown |
//! | accessor ranges | `sycl.arg_ranges` | array, one per argument: dense extents or `-1` |
//! | constant-array arguments | `sycl.const_args` | dense argument indices |
//! | dead arguments | `sycl.dead_args` | dense argument indices |
//! | folded scalars | `sycl.folded_args` | array, one per argument: the folded constant or `unit` |
//!
//! The five dense facts are [`DenseFact`] constants with a `get` and a
//! `set`; the accessor ranges have [`arg_ranges`] and [`set_arg_ranges`],
//! the folded scalars [`folded_args`] and [`set_folded_args`]. Getters
//! borrow from the module; setters replace the fact.

use sycl_mlir_ir::{Attribute, Module, OpId};

/// A launch fact stored as one dense list of `i64`s.
#[derive(Clone, Copy, Debug)]
pub struct DenseFact(&'static str);

impl DenseFact {
    /// The fact on `kernel`, if it was written.
    pub fn get(self, m: &Module, kernel: OpId) -> Option<&[i64]> {
        m.attr(kernel, self.0).and_then(Attribute::as_dense_i64)
    }

    /// Write the fact onto `kernel`, replacing what was there.
    pub fn set(self, m: &mut Module, kernel: OpId, value: Vec<i64>) {
        m.set_attr(kernel, self.0, Attribute::DenseI64(value));
    }
}

/// The global range every launch of the kernel uses (§VII-B "constant
/// ND-range propagation").
pub const GLOBAL_RANGE: DenseFact = DenseFact("sycl.global_range");

/// The work-group size every launch of the kernel uses.
pub const LOCAL_RANGE: DenseFact = DenseFact("sycl.local_range");

/// Per-argument buffer identity, `-1` for a non-accessor or unknown
/// argument: accessors with distinct ids cannot alias.
pub const BUFFER_IDS: DenseFact = DenseFact("sycl.arg_buffer_ids");

/// Read-only accessor arguments over constant host data, whose loads the
/// device may serve from constant memory.
pub const CONST_ARGS: DenseFact = DenseFact("sycl.const_args");

/// Arguments SYCL Dead Argument Elimination proved unused (§VII-B); the
/// runtime skips passing them.
pub const DEAD_ARGS: DenseFact = DenseFact("sycl.dead_args");

const ARG_RANGES: &str = "sycl.arg_ranges";

/// Per-argument accessor range, one entry per argument: `None` where the
/// range is unknown or the argument is no accessor.
pub fn arg_ranges(m: &Module, kernel: OpId) -> Option<impl Iterator<Item = Option<&[i64]>> + '_> {
    let ranges = m.attr(kernel, ARG_RANGES)?.as_array()?;
    Some(ranges.iter().map(Attribute::as_dense_i64))
}

/// Write the per-argument accessor ranges, `None` where unknown.
pub fn set_arg_ranges(m: &mut Module, kernel: OpId, ranges: Vec<Option<Vec<i64>>>) {
    let ranges = ranges
        .into_iter()
        .map(|r| r.map_or(Attribute::Int(-1), Attribute::DenseI64))
        .collect();
    m.set_attr(kernel, ARG_RANGES, Attribute::Array(ranges));
}

const FOLDED_ARGS: &str = "sycl.folded_args";

/// Per-argument scalar constant that host-device propagation folded into
/// the kernel (§VII-B), one entry per argument: `None` where nothing was
/// folded. A launch must pass each folded argument as its constant.
pub fn folded_args(
    m: &Module,
    kernel: OpId,
) -> Option<impl Iterator<Item = Option<&Attribute>> + '_> {
    let folded = m.attr(kernel, FOLDED_ARGS)?.as_array()?;
    Some(folded.iter().map(|c| (c != &Attribute::Unit).then_some(c)))
}

/// Write the per-argument folded constants, `None` where nothing was
/// folded.
pub fn set_folded_args(m: &mut Module, kernel: OpId, folded: Vec<Option<Attribute>>) {
    let folded = folded
        .into_iter()
        .map(|c| c.unwrap_or(Attribute::Unit))
        .collect();
    m.set_attr(kernel, FOLDED_ARGS, Attribute::Array(folded));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::func::build_func;
    use sycl_mlir_ir::{print_module, Context};

    /// A module with one function, `f` applied to it.
    fn with_kernel(f: impl FnOnce(&mut Module, OpId)) -> (Module, OpId) {
        let c = Context::new();
        sycl_mlir_dialects::register_all(&c);
        let mut m = Module::new(&c);
        let top = m.top();
        let (kernel, _) = build_func(&mut m, top, "k", &[], &[]);
        f(&mut m, kernel);
        (m, kernel)
    }

    /// Each setter prints what the raw `set_attr` it stands for prints,
    /// and each getter reads back what was written.
    #[test]
    fn setters_print_the_raw_attribute_and_getters_read_it_back() {
        let dense = |v: &[i64]| Attribute::DenseI64(v.to_vec());
        let rows = [
            ("sycl.global_range", GLOBAL_RANGE),
            ("sycl.local_range", LOCAL_RANGE),
            ("sycl.arg_buffer_ids", BUFFER_IDS),
            ("sycl.const_args", CONST_ARGS),
            ("sycl.dead_args", DEAD_ARGS),
        ];
        let value = [64, 16, -1];
        for (key, fact) in rows {
            let (raw, _) = with_kernel(|m, k| m.set_attr(k, key, dense(&value)));
            let (typed, kernel) = with_kernel(|m, k| {
                assert_eq!(fact.get(m, k), None, "{key}");
                fact.set(m, k, value.to_vec());
            });
            assert!(print_module(&raw).contains(key), "{key}");
            assert_eq!(print_module(&typed), print_module(&raw), "{key}");
            assert_eq!(fact.get(&typed, kernel), Some(&value[..]), "{key}");
        }

        let (raw, _) = with_kernel(|m, k| {
            let ranges = vec![dense(&[32, 8]), Attribute::Int(-1)];
            m.set_attr(k, "sycl.arg_ranges", Attribute::Array(ranges));
        });
        let (typed, kernel) = with_kernel(|m, k| {
            assert!(arg_ranges(m, k).is_none());
            set_arg_ranges(m, k, vec![Some(vec![32, 8]), None]);
        });
        assert_eq!(print_module(&typed), print_module(&raw));
        let read: Vec<_> = arg_ranges(&typed, kernel).unwrap().collect();
        assert_eq!(read, [Some(&[32, 8][..]), None]);

        let (raw, _) = with_kernel(|m, k| {
            let folded = vec![Attribute::Unit, Attribute::Float(-0.0)];
            m.set_attr(k, "sycl.folded_args", Attribute::Array(folded));
        });
        let (typed, kernel) = with_kernel(|m, k| {
            assert!(folded_args(m, k).is_none());
            set_folded_args(m, k, vec![None, Some(Attribute::Float(-0.0))]);
        });
        assert_eq!(print_module(&typed), print_module(&raw));
        let read: Vec<_> = folded_args(&typed, kernel).unwrap().collect();
        assert_eq!(read, [None, Some(&Attribute::Float(-0.0))]);
    }
}
