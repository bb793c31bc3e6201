//! The `launch_dag` application: a seeded host-task DAG in the shape of
//! `repro_hostdag`, sized so that the scheduler is the bottleneck.
//!
//! Every kernel is one work-group of a two-trip loop, so the instruction
//! loop has almost nothing to do; what takes the time is recording 2400
//! command groups, raising one host function with 2400 launches, building
//! the hazard graph and draining it through the worker pool.

use sycl_mlir_benchsuite::App;
use sycl_mlir_dialects::{arith, scf};
use sycl_mlir_frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_runtime::hostgen::generate_host_ir;
use sycl_mlir_runtime::{HostOp, Queue, SyclRuntime};
use sycl_mlir_sycl::device as sdev;
use sycl_mlir_sycl::types::AccessMode;

/// Buffers the rounds rotate over (the fan-out width of the DAG).
pub const BUFS: usize = 8;
/// Elements per buffer: one work-group of 64.
pub const N: i64 = 64;
/// Inner-loop trips of the kernel.
pub const TRIPS: i64 = 2;
/// Each round submits one host task and `KERNELS_PER_ROUND` kernels.
pub const ROUNDS: usize = 600;
pub const KERNELS_PER_ROUND: usize = 3;

const MUL: f32 = 1.0001;
const ADD: f32 = 0.001;

pub fn sizes() -> Vec<(String, i64)> {
    vec![
        ("launch_dag.buffers".into(), BUFS as i64),
        ("launch_dag.n".into(), N),
        ("launch_dag.trips".into(), TRIPS),
        ("launch_dag.rounds".into(), ROUNDS as i64),
        (
            "launch_dag.kernels_per_round".into(),
            KERNELS_PER_ROUND as i64,
        ),
    ]
}

/// splitmix64: the benchmark's only random source, so inputs depend on
/// nothing but `--seed`.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One submission, by buffer index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    Scale { buf: usize, factor: f64 },
    Shift { buf: usize, delta: f64 },
    AddInto { dst: usize, src: usize },
    Churn { buf: usize },
}

/// The seeded submission list: per round one host task on a seeded buffer
/// and three kernels on other seeded buffers, so most kernels are
/// independent of the round's host task and the graph is wide.
pub fn steps(seed: u64) -> Vec<Step> {
    let mut rng = Rng(seed);
    let mut steps = Vec::with_capacity(ROUNDS * (1 + KERNELS_PER_ROUND));
    for _ in 0..ROUNDS {
        let hb = rng.below(BUFS);
        // The two scale factors multiply to 1, so values stay finite over
        // 600 rounds whatever the seed draws.
        steps.push(match rng.below(4) {
            0 => Step::Scale {
                buf: hb,
                factor: 1.25,
            },
            1 => Step::Scale {
                buf: hb,
                factor: 0.8,
            },
            2 => Step::Shift {
                buf: hb,
                delta: 0.125,
            },
            _ => Step::AddInto {
                dst: hb,
                src: (hb + 1 + rng.below(BUFS - 1)) % BUFS,
            },
        });
        for _ in 0..KERNELS_PER_ROUND {
            steps.push(Step::Churn {
                buf: (hb + 1 + rng.below(BUFS - 1)) % BUFS,
            });
        }
    }
    steps
}

fn initial(buf: usize) -> Vec<f32> {
    (0..N)
        .map(|i| 0.5 + (i + buf as i64) as f32 * 0.01)
        .collect()
}

/// What the buffers must hold after all steps ran in submission order —
/// computed on the host with plain Rust arithmetic, independently of the
/// compiler and the simulator. Any schedule that respects the hazards gives
/// these exact bits.
pub fn reference(steps: &[Step]) -> Vec<Vec<f32>> {
    let mut bufs: Vec<Vec<f32>> = (0..BUFS).map(initial).collect();
    for step in steps {
        match *step {
            Step::Scale { buf, factor } => {
                for x in &mut bufs[buf] {
                    *x = (f64::from(*x) * factor) as f32;
                }
            }
            Step::Shift { buf, delta } => {
                for x in &mut bufs[buf] {
                    *x = (f64::from(*x) + delta) as f32;
                }
            }
            Step::AddInto { dst, src } => {
                let src = bufs[src].clone();
                for (d, s) in bufs[dst].iter_mut().zip(src) {
                    *d += s;
                }
            }
            Step::Churn { buf } => {
                for x in &mut bufs[buf] {
                    for _ in 0..TRIPS {
                        *x = *x * MUL + ADD;
                    }
                }
            }
        }
    }
    bufs
}

/// Order-sensitive fold over exact bits, as `repro_hostdag` prints.
pub fn checksum(data: &[f32]) -> u64 {
    data.iter()
        .fold(0u64, |acc, x| acc.rotate_left(7) ^ u64::from(x.to_bits()))
}

pub fn build(seed: u64) -> App {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    let sig = KernelSig::new("churn", 1, true).accessor(f32t, 1, AccessMode::ReadWrite);
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let v = sdev::load_via_id(b, args[0], &[gid]);
        let zero = arith::constant_index(b, 0);
        let one = arith::constant_index(b, 1);
        let end = arith::constant_index(b, TRIPS);
        let lp = scf::build_for(b, zero, end, one, &[v], |inner, _iv, iters| {
            let f32t = inner.ctx().f32_type();
            let c0 = arith::constant_float(inner, f64::from(MUL), f32t.clone());
            let c1 = arith::constant_float(inner, f64::from(ADD), f32t);
            let t = arith::mulf(inner, iters[0], c0);
            vec![arith::addf(inner, t, c1)]
        });
        let out = b.module().op_result(lp, 0);
        sdev::store_via_id(b, out, args[0], &[gid]);
    });

    let mut runtime = SyclRuntime::new();
    let bufs: Vec<_> = (0..BUFS)
        .map(|bi| runtime.buffer_f32(initial(bi), &[N]))
        .collect();

    let steps = steps(seed);
    let mut queue = Queue::new();
    for step in &steps {
        match *step {
            Step::Scale { buf, factor } => {
                let op = HostOp::Scale {
                    buffer: bufs[buf],
                    factor,
                };
                queue.submit(|h| h.host_task(op));
            }
            Step::Shift { buf, delta } => {
                let op = HostOp::Shift {
                    buffer: bufs[buf],
                    delta,
                };
                queue.submit(|h| h.host_task(op));
            }
            Step::AddInto { dst, src } => {
                let op = HostOp::AddInto {
                    dst: bufs[dst],
                    src: bufs[src],
                };
                queue.submit(|h| h.host_task(op));
            }
            Step::Churn { buf } => {
                queue.submit(|h| {
                    h.accessor(bufs[buf], AccessMode::ReadWrite);
                    h.parallel_for_nd("churn", &[N], &[N]);
                });
            }
        }
    }
    generate_host_ir(kb.module(), &runtime, &queue);

    let validate = Box::new(move |rt: &SyclRuntime| {
        for (bi, want) in reference(&steps).iter().enumerate() {
            let got = rt.read_f32(bufs[bi]);
            if want.iter().any(|x| !x.is_finite()) {
                return Err(format!("launch_dag buffer {bi}: reference is not finite"));
            }
            if checksum(got) != checksum(want) {
                return Err(format!(
                    "launch_dag buffer {bi}: checksum {:#018x}, reference {:#018x}",
                    checksum(got),
                    checksum(want)
                ));
            }
        }
        Ok(())
    });
    App {
        module: kb.finish(),
        runtime,
        queue,
        validate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_checksum(q: &Queue) -> u64 {
        // Kernel names, nd-ranges, arguments and host ops, in order.
        let text: String = q.groups.iter().map(|g| format!("{g:?}")).collect();
        text.bytes()
            .fold(0u64, |acc, b| acc.rotate_left(5) ^ u64::from(b))
    }

    #[test]
    fn same_seed_same_graph_and_reference() {
        let (a, b) = (build(7), build(7));
        assert_eq!(a.queue.groups.len(), ROUNDS * (1 + KERNELS_PER_ROUND));
        assert_eq!(queue_checksum(&a.queue), queue_checksum(&b.queue));
        assert_eq!(a.queue.dependencies(), b.queue.dependencies());
        let sums = |seed| -> Vec<u64> {
            reference(&steps(seed))
                .iter()
                .map(|b| checksum(b))
                .collect()
        };
        assert_eq!(sums(7), sums(7));
    }

    #[test]
    fn different_seed_different_edges() {
        let (a, b) = (build(7), build(8));
        assert_ne!(a.queue.dependencies(), b.queue.dependencies());
        assert_ne!(queue_checksum(&a.queue), queue_checksum(&b.queue));
    }

    #[test]
    fn reference_stays_finite() {
        for seed in 0..20 {
            for buf in reference(&steps(seed)) {
                assert!(buf.iter().all(|x| x.is_finite()), "seed {seed}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_seeded() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng(3).shuffle(&mut a);
        Rng(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..50).collect();
        Rng(4).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
