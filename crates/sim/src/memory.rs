//! Device memory: typed buffers addressed by [`MemId`].

use crate::interp::SimError;
use crate::value::RtValue;

/// Handle to one allocation in a [`MemoryPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct MemId(pub u32);

/// Storage class of a device buffer's elements — the one place element
/// size and the `"f32"`… names come from, and the single authoritative
/// mapping from MLIR element types ([`Dtype::of`]), so both engines always
/// allocate the same [`DataVec`] variant for a given element type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dtype {
    /// 32-bit floats.
    F32,
    /// 64-bit floats.
    F64,
    /// 32-bit integers (and narrower).
    I32,
    /// 64-bit integers (plus `index` and wider).
    I64,
}

impl Dtype {
    /// The storage class of the MLIR type `elem` (f32/f64/i32/i64/index/i1).
    pub fn of(elem: &sycl_mlir_ir::Type) -> Dtype {
        match elem.kind() {
            sycl_mlir_ir::TypeKind::F32 => Dtype::F32,
            sycl_mlir_ir::TypeKind::F64 => Dtype::F64,
            sycl_mlir_ir::TypeKind::Int(w) if *w <= 32 => Dtype::I32,
            _ => Dtype::I64,
        }
    }

    /// Element size in bytes (drives transaction coalescing).
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            Dtype::F32 | Dtype::I32 => 4,
            Dtype::F64 | Dtype::I64 => 8,
        }
    }

    /// `"f32"`, `"f64"`, `"i32"` or `"i64"`.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
            Dtype::I32 => "i32",
            Dtype::I64 => "i64",
        }
    }

    /// Zero-filled storage for `len` elements of this class.
    pub(crate) fn zeroed(self, len: usize) -> DataVec {
        match self {
            Dtype::F32 => DataVec::F32(vec![0.0; len]),
            Dtype::F64 => DataVec::F64(vec![0.0; len]),
            Dtype::I32 => DataVec::I32(vec![0; len]),
            Dtype::I64 => DataVec::I64(vec![0; len]),
        }
    }
}

/// A faulting device-memory access, reported as a value by every access
/// path of both engines. `buffer` is `None` for a kernel-private (alloca)
/// buffer, which has no pool-wide id.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemFault {
    /// `index` lies outside the buffer's `len` elements.
    OutOfBounds {
        /// The buffer accessed.
        buffer: Option<MemId>,
        /// The linearized element index of the access.
        index: i64,
        /// The buffer's element count.
        len: usize,
    },
    /// A store of a value no coercion maps onto the buffer's elements.
    TypeMismatch {
        /// The buffer stored to.
        buffer: Option<MemId>,
        /// The buffer's storage class.
        dtype: Dtype,
        /// [`RtValue::kind`] of the value stored.
        value: &'static str,
    },
    /// An access (or a launch argument) naming a buffer the pool does not
    /// hold.
    UnknownBuffer {
        /// The id that resolves to nothing.
        id: MemId,
    },
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let named = |buffer: &Option<MemId>| match buffer {
            Some(id) => format!("buffer {}", id.0),
            None => "a kernel-private buffer".to_string(),
        };
        match self {
            MemFault::OutOfBounds { buffer, index, len } => write!(
                f,
                "device memory access out of bounds: index {index} of {} (len {len})",
                named(buffer)
            ),
            MemFault::TypeMismatch {
                buffer,
                dtype,
                value,
            } => write!(
                f,
                "type-mismatched store of {value} into {} ({})",
                named(buffer),
                dtype.name()
            ),
            MemFault::UnknownBuffer { id } => write!(f, "unknown device buffer {}", id.0),
        }
    }
}

impl From<MemFault> for SimError {
    // Faults are rare: keep the formatting out of the executors' loops.
    #[cold]
    fn from(fault: MemFault) -> SimError {
        SimError::msg(fault.to_string())
    }
}

/// The bounds check of every device-memory access: `index` as an element
/// position of a buffer of `len` elements.
#[inline]
pub(crate) fn check_index(
    buffer: Option<MemId>,
    index: i64,
    len: usize,
) -> Result<usize, MemFault> {
    if index < 0 || index as usize >= len {
        return Err(MemFault::OutOfBounds { buffer, index, len });
    }
    Ok(index as usize)
}

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

    /// The storage class of the elements.
    #[inline]
    pub fn dtype(&self) -> Dtype {
        match self {
            DataVec::F32(_) => Dtype::F32,
            DataVec::F64(_) => Dtype::F64,
            DataVec::I32(_) => Dtype::I32,
            DataVec::I64(_) => Dtype::I64,
        }
    }

    /// Element size in bytes (drives transaction coalescing).
    #[inline]
    pub fn elem_bytes(&self) -> usize {
        self.dtype().bytes()
    }

    /// The element at position `i < len` as a runtime value.
    #[inline]
    pub fn get(&self, i: usize) -> RtValue {
        match self {
            DataVec::F32(v) => RtValue::F32(v[i]),
            DataVec::F64(v) => RtValue::F64(v[i]),
            DataVec::I32(v) => RtValue::Int(v[i] as i64),
            DataVec::I64(v) => RtValue::Int(v[i]),
        }
    }

    /// Write `value` at position `i < len`, coercing between float widths
    /// and truncating integers; an int/float mismatch is a
    /// [`MemFault::TypeMismatch`] naming `buffer` (`None` = kernel-private).
    #[inline]
    pub fn set(&mut self, buffer: Option<MemId>, i: usize, value: RtValue) -> Result<(), MemFault> {
        match (&mut *self, value) {
            (DataVec::F32(v), RtValue::F32(x)) => v[i] = x,
            (DataVec::F32(v), RtValue::F64(x)) => v[i] = x as f32,
            (DataVec::F64(v), RtValue::F64(x)) => v[i] = x,
            (DataVec::F64(v), RtValue::F32(x)) => v[i] = x as f64,
            (DataVec::I32(v), RtValue::Int(x)) => v[i] = x as i32,
            (DataVec::I64(v), RtValue::Int(x)) => v[i] = x,
            (slot, v) => {
                return Err(MemFault::TypeMismatch {
                    buffer,
                    dtype: slot.dtype(),
                    value: v.kind(),
                })
            }
        }
        Ok(())
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
        self.alloc(proto.dtype().zeroed(len))
    }

    /// Allocate zero-filled storage for `len` elements of the MLIR type
    /// `elem` (f32/f64/i32/i64/index/i1).
    pub fn alloc_zeroed(&mut self, elem: &sycl_mlir_ir::Type, len: usize) -> MemId {
        self.alloc(Dtype::of(elem).zeroed(len))
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

    /// Load the element at `index` of allocation `id`.
    pub fn load(&self, id: MemId, index: i64) -> Result<RtValue, MemFault> {
        let buf = self.buffers.get(id.0 as usize);
        let buf = buf.ok_or(MemFault::UnknownBuffer { id })?;
        Ok(buf.get(check_index(Some(id), index, buf.len())?))
    }

    /// Store `value` at `index` of allocation `id`.
    pub fn store(&mut self, id: MemId, index: i64, value: RtValue) -> Result<(), MemFault> {
        let buf = self.buffers.get_mut(id.0 as usize);
        let buf = buf.ok_or(MemFault::UnknownBuffer { id })?;
        buf.set(Some(id), check_index(Some(id), index, buf.len())?, value)
    }

    /// Check that every accessor and memref among the launch arguments
    /// `args` names a buffer of this pool — the one place outside ids
    /// enter a launch, so accesses inside it resolve their buffer
    /// unconditionally.
    pub(crate) fn check_args(&self, args: &[RtValue]) -> Result<(), MemFault> {
        for arg in args {
            let id = match arg {
                RtValue::Accessor(a) => a.mem,
                RtValue::MemRef(m) => m.mem,
                _ => continue,
            };
            if id.0 as usize >= self.buffers.len() {
                return Err(MemFault::UnknownBuffer { id });
            }
        }
        Ok(())
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
    use crate::pool::SharedPool;

    #[test]
    fn roundtrip_all_dtypes() {
        let mut pool = MemoryPool::new();
        let f = pool.alloc(DataVec::F32(vec![0.0; 4]));
        let d = pool.alloc(DataVec::F64(vec![0.0; 4]));
        let i = pool.alloc(DataVec::I32(vec![0; 4]));
        let l = pool.alloc(DataVec::I64(vec![0; 4]));
        pool.store(f, 1, RtValue::F32(1.5)).unwrap();
        pool.store(d, 2, RtValue::F64(2.5)).unwrap();
        pool.store(i, 3, RtValue::Int(-7)).unwrap();
        pool.store(l, 0, RtValue::Int(1 << 40)).unwrap();
        assert_eq!(pool.load(f, 1), Ok(RtValue::F32(1.5)));
        assert_eq!(pool.load(d, 2), Ok(RtValue::F64(2.5)));
        assert_eq!(pool.load(i, 3), Ok(RtValue::Int(-7)));
        assert_eq!(pool.load(l, 0), Ok(RtValue::Int(1 << 40)));
        assert_eq!(pool.data(f).elem_bytes(), 4);
        assert_eq!(pool.data(l).elem_bytes(), 8);
    }

    #[test]
    fn mismatched_store_is_a_fault() {
        let mut pool = MemoryPool::new();
        let f = pool.alloc(DataVec::F32(vec![0.0; 1]));
        let (buffer, dtype, value) = (Some(f), Dtype::F32, "int");
        let mismatch = MemFault::TypeMismatch {
            buffer,
            dtype,
            value,
        };
        assert_eq!(pool.store(f, 0, RtValue::Int(1)), Err(mismatch));
        assert_eq!(pool.load(f, 0), Ok(RtValue::F32(0.0)), "nothing stored");
        let id = MemId(7);
        assert_eq!(pool.load(id, 0), Err(MemFault::UnknownBuffer { id }));
    }

    /// The `Vec`-backed pool and the pointer-backed launch view report
    /// every access alike: equal values in range, equal faults — and
    /// fault text — at `len`, `-1` and `i64::MAX`, for every storage class.
    #[test]
    fn vec_and_pointer_storage_fault_alike() {
        let protos = [
            (
                DataVec::F32(vec![1.5; 3]),
                RtValue::F32(2.5),
                RtValue::Int(1),
            ),
            (
                DataVec::F64(vec![1.5; 3]),
                RtValue::F32(2.5),
                RtValue::Int(1),
            ),
            (DataVec::I32(vec![7; 3]), RtValue::Int(9), RtValue::F32(1.0)),
            (DataVec::I64(vec![7; 3]), RtValue::Int(9), RtValue::F64(1.0)),
        ];
        let id = MemId(1);
        for (proto, good, bad) in protos {
            let fresh = || {
                let mut pool = MemoryPool::new();
                pool.alloc(DataVec::I32(Vec::new()));
                assert_eq!(pool.alloc(proto.clone()), id);
                pool
            };
            for index in [1, 3, -1, i64::MAX] {
                let (mut vec_backed, mut viewed) = (fresh(), fresh());
                let shared = SharedPool::new(&mut viewed);
                let loaded = vec_backed.load(id, index);
                let stored = vec_backed.store(id, index, good);
                let refused = vec_backed.store(id, index, bad);
                assert_eq!(shared.load(id, index), loaded, "{proto:?}[{index}]");
                assert_eq!(shared.store(id, index, good), stored, "{proto:?}[{index}]");
                assert_eq!(shared.store(id, index, bad), refused, "{proto:?}[{index}]");
                assert_eq!(shared.load(id, index), vec_backed.load(id, index));
                let (fault, text) = if index == 1 {
                    assert_eq!((loaded, stored), (Ok(proto.get(1)), Ok(())));
                    assert_ne!(vec_backed.load(id, index), loaded, "the store landed");
                    let (dtype, value) = (proto.dtype(), bad.kind());
                    let buffer = Some(id);
                    (
                        MemFault::TypeMismatch {
                            buffer,
                            dtype,
                            value,
                        },
                        format!(
                            "type-mismatched store of {value} into buffer 1 ({})",
                            dtype.name()
                        ),
                    )
                } else {
                    let buffer = Some(id);
                    let oob = MemFault::OutOfBounds {
                        buffer,
                        index,
                        len: 3,
                    };
                    assert_eq!((loaded, stored), (Err(oob), Err(oob)));
                    (
                        oob, // bounds are checked before the type
                        format!(
                            "device memory access out of bounds: index {index} of buffer 1 (len 3)"
                        ),
                    )
                };
                assert_eq!(refused, Err(fault));
                assert_eq!(fault.to_string(), text);
            }
        }
        // Kernel-private storage has no id to name.
        let (buffer, index, len) = (None, 2, 2);
        assert_eq!(
            MemFault::OutOfBounds { buffer, index, len }.to_string(),
            "device memory access out of bounds: index 2 of a kernel-private buffer (len 2)"
        );
    }
}
