//! Device memory: typed buffers addressed by [`MemId`].

use crate::interp::SimError;
use crate::value::RtValue;

/// Handle to one allocation in a [`MemoryPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MemId(pub u32);

/// Typed storage of one allocation.
#[derive(Clone, Debug, PartialEq)]
pub enum DataVec {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit integers (and narrower).
    I32(Vec<i32>),
    /// 64-bit integers (plus `index` and wider).
    I64(Vec<i64>),
}

impl DataVec {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DataVec::F32(v) => v.len(),
            DataVec::F64(v) => v.len(),
            DataVec::I32(v) => v.len(),
            DataVec::I64(v) => v.len(),
        }
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element size in bytes (drives transaction coalescing).
    pub fn elem_bytes(&self) -> usize {
        match self {
            DataVec::F32(_) | DataVec::I32(_) => 4,
            DataVec::F64(_) | DataVec::I64(_) => 8,
        }
    }

    /// The element at `i` as a runtime value.
    pub fn get(&self, i: usize) -> RtValue {
        match self {
            DataVec::F32(v) => RtValue::F32(v[i]),
            DataVec::F64(v) => RtValue::F64(v[i]),
            DataVec::I32(v) => RtValue::Int(v[i] as i64),
            DataVec::I64(v) => RtValue::Int(v[i]),
        }
    }

    /// Store `value` at `i`, coercing between float widths; panics on an
    /// int/float mismatch.
    pub fn set(&mut self, i: usize, value: RtValue) {
        match (self, value) {
            (DataVec::F32(v), RtValue::F32(x)) => v[i] = x,
            (DataVec::F32(v), RtValue::F64(x)) => v[i] = x as f32,
            (DataVec::F64(v), RtValue::F64(x)) => v[i] = x,
            (DataVec::F64(v), RtValue::F32(x)) => v[i] = x as f64,
            (DataVec::I32(v), RtValue::Int(x)) => v[i] = x as i32,
            (DataVec::I64(v), RtValue::Int(x)) => v[i] = x,
            (slot, v) => panic!("type-mismatched store of {v:?} into {slot:?}"),
        }
    }

    /// Like [`DataVec::set`], but an int/float mismatch is a structured
    /// [`SimError`] (same text as the panic) instead of a panic — the
    /// form kernel-reachable stores use.
    pub(crate) fn try_set(&mut self, i: usize, value: RtValue) -> Result<(), SimError> {
        match (&mut *self, value) {
            (DataVec::F32(v), RtValue::F32(x)) => v[i] = x,
            (DataVec::F32(v), RtValue::F64(x)) => v[i] = x as f32,
            (DataVec::F64(v), RtValue::F64(x)) => v[i] = x,
            (DataVec::F64(v), RtValue::F32(x)) => v[i] = x as f64,
            (DataVec::I32(v), RtValue::Int(x)) => v[i] = x as i32,
            (DataVec::I64(v), RtValue::Int(x)) => v[i] = x,
            (slot, v) => {
                return Err(SimError::msg(format!(
                    "type-mismatched store of {v:?} into {slot:?}"
                )))
            }
        }
        Ok(())
    }
}

/// Storage class an MLIR element type maps to — the single authoritative
/// mapping shared by [`MemoryPool::alloc_zeroed`] and the plan engine's
/// scratch arenas, so both engines always allocate the same [`DataVec`]
/// variant for a given element type.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dtype {
    F32,
    F64,
    I32,
    I64,
}

/// The storage class of the MLIR type `elem` (f32/f64/i32/i64/index/i1).
pub(crate) fn dtype_of(elem: &sycl_mlir_ir::Type) -> Dtype {
    match elem.kind() {
        sycl_mlir_ir::TypeKind::F32 => Dtype::F32,
        sycl_mlir_ir::TypeKind::F64 => Dtype::F64,
        sycl_mlir_ir::TypeKind::Int(w) if *w <= 32 => Dtype::I32,
        _ => Dtype::I64,
    }
}

/// The storage class of an existing buffer.
pub(crate) fn dtype_of_data(data: &DataVec) -> Dtype {
    match data {
        DataVec::F32(_) => Dtype::F32,
        DataVec::F64(_) => Dtype::F64,
        DataVec::I32(_) => Dtype::I32,
        DataVec::I64(_) => Dtype::I64,
    }
}

/// Zero-filled storage for `len` elements of storage class `dt`.
pub(crate) fn zeroed_data(dt: Dtype, len: usize) -> DataVec {
    match dt {
        Dtype::F32 => DataVec::F32(vec![0.0; len]),
        Dtype::F64 => DataVec::F64(vec![0.0; len]),
        Dtype::I32 => DataVec::I32(vec![0; len]),
        Dtype::I64 => DataVec::I64(vec![0; len]),
    }
}

/// All device allocations of one simulation.
#[derive(Default, Debug)]
pub struct MemoryPool {
    buffers: Vec<DataVec>,
}

impl MemoryPool {
    /// An empty pool.
    pub fn new() -> MemoryPool {
        MemoryPool::default()
    }

    /// Allocate and take ownership of `data`.
    pub fn alloc(&mut self, data: DataVec) -> MemId {
        let id = MemId(self.buffers.len() as u32);
        self.buffers.push(data);
        id
    }

    /// Allocate a zero-filled buffer of `len` elements shaped like `proto`.
    pub fn alloc_zeroed_like(&mut self, proto: &DataVec, len: usize) -> MemId {
        let data = match proto {
            DataVec::F32(_) => DataVec::F32(vec![0.0; len]),
            DataVec::F64(_) => DataVec::F64(vec![0.0; len]),
            DataVec::I32(_) => DataVec::I32(vec![0; len]),
            DataVec::I64(_) => DataVec::I64(vec![0; len]),
        };
        self.alloc(data)
    }

    /// Allocate zero-filled storage for `len` elements of the MLIR type
    /// `elem` (f32/f64/i32/i64/index/i1).
    pub fn alloc_zeroed(&mut self, elem: &sycl_mlir_ir::Type, len: usize) -> MemId {
        self.alloc(zeroed_data(dtype_of(elem), len))
    }

    /// Mutable access to every buffer, in [`MemId`] order. Used by the
    /// parallel launch path to build its shared buffer views.
    pub(crate) fn buffers_mut(&mut self) -> &mut [DataVec] {
        &mut self.buffers
    }

    /// Borrow one allocation's storage.
    pub fn data(&self, id: MemId) -> &DataVec {
        &self.buffers[id.0 as usize]
    }

    /// Mutably borrow one allocation's storage.
    pub fn data_mut(&mut self, id: MemId) -> &mut DataVec {
        &mut self.buffers[id.0 as usize]
    }

    /// Bounds check with the same panic message as the parallel path's
    /// `SharedPool`, so an out-of-bounds kernel fails with identical text
    /// under both engines.
    #[inline]
    fn check(&self, id: MemId, index: i64) {
        let len = self.buffers[id.0 as usize].len();
        assert!(
            (index as usize) < len,
            "device memory access out of bounds: index {index} of buffer {} (len {len})",
            id.0,
        );
    }

    /// Load the element at `index` of allocation `id`.
    pub fn load(&self, id: MemId, index: i64) -> RtValue {
        self.check(id, index);
        self.buffers[id.0 as usize].get(index as usize)
    }

    /// Store `value` at `index` of allocation `id`.
    pub fn store(&mut self, id: MemId, index: i64, value: RtValue) {
        self.check(id, index);
        self.buffers[id.0 as usize].set(index as usize, value);
    }

    /// Bounds check as a structured error, with text identical to
    /// [`MemoryPool::check`]'s panic — so an out-of-bounds kernel fails
    /// with the same message under both engines.
    #[inline]
    fn check_kernel(&self, id: MemId, index: i64) -> Result<(), SimError> {
        let len = self.buffers[id.0 as usize].len();
        if index < 0 || index as usize >= len {
            return Err(SimError::msg(format!(
                "device memory access out of bounds: index {index} of buffer {} (len {len})",
                id.0,
            )));
        }
        Ok(())
    }

    /// Like [`MemoryPool::load`], but out-of-bounds is a structured
    /// [`SimError`] — the form kernel-reachable accesses use, so hostile
    /// input cannot panic the host.
    pub fn try_load(&self, id: MemId, index: i64) -> Result<RtValue, SimError> {
        self.check_kernel(id, index)?;
        Ok(self.buffers[id.0 as usize].get(index as usize))
    }

    /// Like [`MemoryPool::store`], but out-of-bounds and type-mismatch
    /// are structured [`SimError`]s — the form kernel-reachable accesses
    /// use.
    pub fn try_store(&mut self, id: MemId, index: i64, value: RtValue) -> Result<(), SimError> {
        self.check_kernel(id, index)?;
        self.buffers[id.0 as usize].try_set(index as usize, value)
    }

    /// Number of allocations made so far.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// Whether no allocation has been made.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_dtypes() {
        let mut pool = MemoryPool::new();
        let f = pool.alloc(DataVec::F32(vec![0.0; 4]));
        let d = pool.alloc(DataVec::F64(vec![0.0; 4]));
        let i = pool.alloc(DataVec::I32(vec![0; 4]));
        let l = pool.alloc(DataVec::I64(vec![0; 4]));
        pool.store(f, 1, RtValue::F32(1.5));
        pool.store(d, 2, RtValue::F64(2.5));
        pool.store(i, 3, RtValue::Int(-7));
        pool.store(l, 0, RtValue::Int(1 << 40));
        assert_eq!(pool.load(f, 1), RtValue::F32(1.5));
        assert_eq!(pool.load(d, 2), RtValue::F64(2.5));
        assert_eq!(pool.load(i, 3), RtValue::Int(-7));
        assert_eq!(pool.load(l, 0), RtValue::Int(1 << 40));
        assert_eq!(pool.data(f).elem_bytes(), 4);
        assert_eq!(pool.data(l).elem_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "type-mismatched")]
    fn mismatched_store_panics() {
        let mut pool = MemoryPool::new();
        let f = pool.alloc(DataVec::F32(vec![0.0; 1]));
        pool.store(f, 0, RtValue::Int(1));
    }
}
