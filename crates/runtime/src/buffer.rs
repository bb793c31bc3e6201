//! Buffers, USM allocations and the runtime's host-side state.

use sycl_mlir_sim::{DataVec, MemoryPool};

/// Handle to a SYCL buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BufferId(pub usize);

/// Handle to a USM allocation (`malloc_device`-style, §II-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct UsmId(pub usize);

/// One buffer: host data plus range metadata.
#[derive(Clone, Debug)]
pub struct BufferData {
    /// Host copy of the buffer contents.
    pub data: DataVec,
    /// Extents, padded with 1s to rank 3.
    pub range: [i64; 3],
    /// Number of meaningful dimensions.
    pub rank: u32,
    /// Host data is a compile-time constant (e.g. `const float filter[]`
    /// captured into the kernel — the Sobel case of §VIII).
    pub const_init: bool,
}

/// The runtime's host-side state: buffers, USM allocations and transfer
/// counters.
#[derive(Default, Debug)]
pub struct SyclRuntime {
    /// All buffers, indexed by [`BufferId`].
    pub buffers: Vec<BufferData>,
    /// All USM allocations, indexed by [`UsmId`].
    pub usm: Vec<DataVec>,
    /// Host→device and device→host bytes moved (the buffer/accessor model
    /// automates these transfers, §II-A).
    pub bytes_to_device: u64,
    /// Device→host bytes moved.
    pub bytes_to_host: u64,
}

fn range3(range: &[i64]) -> ([i64; 3], u32) {
    let mut r = [1_i64; 3];
    for (i, &x) in range.iter().enumerate() {
        r[i] = x;
    }
    (r, range.len() as u32)
}

impl SyclRuntime {
    /// A runtime with no buffers or allocations.
    pub fn new() -> SyclRuntime {
        SyclRuntime::default()
    }

    fn add_buffer(&mut self, data: DataVec, range: &[i64], const_init: bool) -> BufferId {
        let len: i64 = range.iter().product();
        assert_eq!(
            len as usize,
            data.len(),
            "buffer data does not match its range"
        );
        let (r, rank) = range3(range);
        let id = BufferId(self.buffers.len());
        self.buffers.push(BufferData {
            data,
            range: r,
            rank,
            const_init,
        });
        id
    }

    /// An `f32` buffer over `data` with the given range.
    pub fn buffer_f32(&mut self, data: Vec<f32>, range: &[i64]) -> BufferId {
        self.add_buffer(DataVec::F32(data), range, false)
    }

    /// An `f64` buffer over `data` with the given range.
    pub fn buffer_f64(&mut self, data: Vec<f64>, range: &[i64]) -> BufferId {
        self.add_buffer(DataVec::F64(data), range, false)
    }

    /// An `i32` buffer over `data` with the given range.
    pub fn buffer_i32(&mut self, data: Vec<i32>, range: &[i64]) -> BufferId {
        self.add_buffer(DataVec::I32(data), range, false)
    }

    /// An `i64` buffer over `data` with the given range.
    pub fn buffer_i64(&mut self, data: Vec<i64>, range: &[i64]) -> BufferId {
        self.add_buffer(DataVec::I64(data), range, false)
    }

    /// A buffer over data the host program declares `const` — candidate
    /// for host→device constant propagation (§VII-B, Sobel filter).
    pub fn buffer_const_f32(&mut self, data: Vec<f32>, range: &[i64]) -> BufferId {
        self.add_buffer(DataVec::F32(data), range, true)
    }

    /// See [`SyclRuntime::buffer_const_f32`].
    pub fn buffer_const_f64(&mut self, data: Vec<f64>, range: &[i64]) -> BufferId {
        self.add_buffer(DataVec::F64(data), range, true)
    }

    /// USM device allocation: the user manages transfers manually (§II-A).
    pub fn usm_alloc_f32(&mut self, data: Vec<f32>) -> UsmId {
        let id = UsmId(self.usm.len());
        self.usm.push(DataVec::F32(data));
        id
    }

    /// See [`SyclRuntime::usm_alloc_f32`].
    pub fn usm_alloc_f64(&mut self, data: Vec<f64>) -> UsmId {
        let id = UsmId(self.usm.len());
        self.usm.push(DataVec::F64(data));
        id
    }

    /// Read an `f32` buffer back (panics on a type mismatch).
    pub fn read_f32(&self, id: BufferId) -> &[f32] {
        match &self.buffers[id.0].data {
            DataVec::F32(v) => v,
            other => panic!("buffer {id:?} is not f32: {other:?}"),
        }
    }

    /// Read an `f64` buffer back (panics on a type mismatch).
    pub fn read_f64(&self, id: BufferId) -> &[f64] {
        match &self.buffers[id.0].data {
            DataVec::F64(v) => v,
            other => panic!("buffer {id:?} is not f64: {other:?}"),
        }
    }

    /// Read an `i32` buffer back (panics on a type mismatch).
    pub fn read_i32(&self, id: BufferId) -> &[i32] {
        match &self.buffers[id.0].data {
            DataVec::I32(v) => v,
            other => panic!("buffer {id:?} is not i32: {other:?}"),
        }
    }

    /// Read an `i64` buffer back (panics on a type mismatch).
    pub fn read_i64(&self, id: BufferId) -> &[i64] {
        match &self.buffers[id.0].data {
            DataVec::I64(v) => v,
            other => panic!("buffer {id:?} is not i64: {other:?}"),
        }
    }

    /// Read an `f32` USM allocation back (panics on a type mismatch).
    pub fn usm_read_f32(&self, id: UsmId) -> &[f32] {
        match &self.usm[id.0] {
            DataVec::F32(v) => v,
            other => panic!("usm {id:?} is not f32: {other:?}"),
        }
    }

    /// Read an `f64` USM allocation back (panics on a type mismatch).
    pub fn usm_read_f64(&self, id: UsmId) -> &[f64] {
        match &self.usm[id.0] {
            DataVec::F64(v) => v,
            other => panic!("usm {id:?} is not f64: {other:?}"),
        }
    }

    /// Upload all buffers/USM allocations into a fresh device pool;
    /// returns per-buffer and per-USM device memory ids.
    pub(crate) fn upload_to_device(
        &mut self,
        pool: &mut MemoryPool,
    ) -> (Vec<sycl_mlir_sim::MemId>, Vec<sycl_mlir_sim::MemId>) {
        let mut buf_ids = Vec::with_capacity(self.buffers.len());
        for b in &self.buffers {
            self.bytes_to_device += (b.data.len() * b.data.elem_bytes()) as u64;
            buf_ids.push(pool.alloc(b.data.clone()));
        }
        let mut usm_ids = Vec::with_capacity(self.usm.len());
        for u in &self.usm {
            self.bytes_to_device += (u.len() * u.elem_bytes()) as u64;
            usm_ids.push(pool.alloc(u.clone()));
        }
        (buf_ids, usm_ids)
    }

    /// Write device memory back to the host copies.
    pub(crate) fn download_from_device(
        &mut self,
        pool: &MemoryPool,
        buf_ids: &[sycl_mlir_sim::MemId],
        usm_ids: &[sycl_mlir_sim::MemId],
    ) {
        for (b, &mem) in self.buffers.iter_mut().zip(buf_ids) {
            self.bytes_to_host += (b.data.len() * b.data.elem_bytes()) as u64;
            b.data = pool.data(mem).clone();
        }
        for (u, &mem) in self.usm.iter_mut().zip(usm_ids) {
            self.bytes_to_host += (u.len() * u.elem_bytes()) as u64;
            *u = pool.data(mem).clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_roundtrip() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(rt.read_f32(b), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(rt.buffers[b.0].rank, 2);
        assert_eq!(rt.buffers[b.0].range, [2, 2, 1]);
        assert!(!rt.buffers[b.0].const_init);
        let c = rt.buffer_const_f32(vec![0.5], &[1]);
        assert!(rt.buffers[c.0].const_init);
    }

    #[test]
    #[should_panic(expected = "does not match its range")]
    fn mismatched_range_panics() {
        let mut rt = SyclRuntime::new();
        rt.buffer_f32(vec![1.0; 3], &[2, 2]);
    }

    #[test]
    fn device_roundtrip_moves_bytes() {
        let mut rt = SyclRuntime::new();
        let b = rt.buffer_f64(vec![1.0; 8], &[8]);
        let mut pool = MemoryPool::new();
        let (bufs, _) = rt.upload_to_device(&mut pool);
        assert_eq!(rt.bytes_to_device, 64);
        pool.store(bufs[b.0], 3, sycl_mlir_sim::RtValue::F64(9.0))
            .unwrap();
        rt.download_from_device(&pool, &bufs, &[]);
        assert_eq!(rt.read_f64(b)[3], 9.0);
        assert_eq!(rt.bytes_to_host, 64);
    }
}
