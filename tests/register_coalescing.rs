//! A generative check of the plan decoder's register sharing: a cast
//! takes its operand's register, an `scf.for` result its carry's, and a
//! yielded value its carry's where nothing reads the carry after the
//! value is computed (`plan/decode.rs`, `in_place_yields`).
//!
//! A seeded builder writes kernels through the frontend and the host-IR
//! generator that stress exactly what that sharing must get right:
//! nested `scf.for` loops whose `iter_args` swap and rotate, carries read
//! after the value yielded in their place is defined, one value yielded
//! for two carries, casts of parameters and of loop values, `scf.if`
//! results that feed carries, and a callee containing a loop, inlined
//! twice. Lanes leave the loops at different trips. Every program runs
//! under the tree walk — which has no registers to share — and under the
//! plan engine on 1 and 4 workers and under both audits (the proof and
//! order audit and the host-fact audit); buffers and every `ExecStats`
//! field must be equal across all four runs.
//!
//! Programs whose yields are all computed in place also hold a work
//! property: the plan engine moves no register per loop trip, so the
//! copies it executes do not grow with the trip count.

use proptest::test_runner::TestRng;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::func::{build_call, build_func, build_return};
use sycl_mlir_repro::dialects::{arith, scf};
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::ir::{Builder, Module, ValueId};
use sycl_mlir_repro::runtime::exec::{audit_facts_on_this_thread, run};
use sycl_mlir_repro::runtime::{
    compile_program, hostgen::generate_host_ir, BufferId, Program, Queue, SyclRuntime,
};
use sycl_mlir_repro::sim::plan::audit_on_this_thread;
use sycl_mlir_repro::sim::{Device, Engine, ExecStats};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

/// Work-items per launch and per work-group: one full sub-group of 16
/// and one partial one per group.
const GLOBAL: i64 = 48;
const LOCAL: i64 = 24;

/// The kernel every program defines.
const KERNEL: &str = "coalesce";

/// Seeds of the general family; the in-place family takes as many.
const SEEDS: u64 = 24;

/// Builds one kernel body from a seed.
struct Gen<'a> {
    rng: &'a mut TestRng,
}

impl Gen<'_> {
    fn coin(&mut self) -> bool {
        self.rng.below(2) == 0
    }

    fn pick(&mut self, pool: &[ValueId]) -> ValueId {
        pool[self.rng.below(pool.len())]
    }

    fn f32_const(&mut self, b: &mut Builder<'_>) -> ValueId {
        let c = [0.5, 0.25, -0.75, 1.5][self.rng.below(4)];
        arith::constant_float(b, c, b.ctx().f32_type())
    }

    /// A float op over `l` and `r` that keeps values moderate.
    fn fop(&mut self, b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
        match self.rng.below(5) {
            0 => arith::addf(b, l, r),
            1 => arith::subf(b, l, r),
            2 => arith::maxf(b, l, r),
            3 => arith::minf(b, l, r),
            _ => {
                let c = self.f32_const(b);
                let scaled = arith::mulf(b, l, c);
                arith::addf(b, scaled, r)
            }
        }
    }

    /// `(f32) (i64) v` for an index `v`: two casts and a conversion.
    fn index_to_f32(b: &mut Builder<'_>, v: ValueId) -> ValueId {
        let (i64t, f32t) = (b.ctx().i64_type(), b.ctx().f32_type());
        let wide = arith::index_cast(b, v, i64t);
        arith::sitofp(b, wide, f32t)
    }

    /// A nested loop over two float carries whose yields swap, rotate or
    /// are computed in place; its two results.
    fn inner_loop(
        &mut self,
        b: &mut Builder<'_>,
        inits: [ValueId; 2],
        outer: &[ValueId],
    ) -> [ValueId; 2] {
        let (zero, one) = (arith::constant_index(b, 0), arith::constant_index(b, 1));
        let trips = arith::constant_index(b, 1 + self.rng.below(3) as i64);
        let shape = self.rng.below(4);
        let outer = outer.to_vec();
        let op = scf::build_for(b, zero, trips, one, &inits, |b, j, us| {
            let (u, v) = (us[0], us[1]);
            let jf = Gen::index_to_f32(b, j);
            let w = self.pick(&outer);
            let u2 = self.fop(b, u, jf);
            match shape {
                // u' computed, then u read after it: u' stays apart.
                0 => vec![u2, u],
                // A plain swap.
                1 => vec![v, u],
                // Both in place.
                2 => {
                    let v2 = self.fop(b, v, w);
                    vec![u2, v2]
                }
                // One value for both carries.
                _ => vec![u2, u2],
            }
        });
        let m = b.module();
        [m.op_result(op, 0), m.op_result(op, 1)]
    }

    /// The general family: an outer loop of `trips` over three float
    /// carries and an index carry whose yields are chosen per slot —
    /// computed at the top level (in any order, reading any carry before
    /// or after), another slot's carry, an `scf.if` result, a nested
    /// loop's result — and sometimes rotated as a whole. Its results.
    fn outer_loop(
        &mut self,
        b: &mut Builder<'_>,
        trips: ValueId,
        inits: [ValueId; 4],
        live: &[ValueId],
    ) -> Vec<ValueId> {
        let (zero, one) = (arith::constant_index(b, 0), arith::constant_index(b, 1));
        let live = live.to_vec();
        let op = scf::build_for(b, zero, trips, one, &inits, |b, i, cs| {
            let (carries, k) = (&cs[..3], cs[3]);
            // A loop value cast, read before or after `k` is updated.
            let late_cast = self.coin();
            let kf = (!late_cast).then(|| Gen::index_to_f32(b, k));
            let mut pool: Vec<ValueId> = carries.iter().chain(&live).copied().collect();
            pool.extend(kf);
            let mut yields: Vec<Option<ValueId>> = vec![None; 3];
            let mut order = [0_usize, 1, 2];
            order.swap(0, self.rng.below(3));
            order.swap(1, 1 + self.rng.below(2));
            let mut computed = Vec::new();
            for slot in order {
                let y = match self.rng.below(6) {
                    0 => carries[(slot + 1 + self.rng.below(2)) % 3],
                    1 => {
                        let cond = {
                            let two = arith::constant_index(b, 2);
                            let m = arith::remsi(b, i, two);
                            arith::cmpi(b, "eq", m, zero)
                        };
                        let f32t = b.ctx().f32_type();
                        let (t, e) = (self.pick(&pool), self.pick(&pool));
                        let then_op = self.rng.below(5);
                        let if_op = scf::build_if(
                            b,
                            cond,
                            &[f32t],
                            |b| vec![Gen::op_of(then_op, b, t, e)],
                            |_| vec![e],
                        );
                        b.module().op_result(if_op, 0)
                    }
                    2 => {
                        let inits = [self.pick(carries), self.pick(&pool)];
                        let [r0, r1] = self.inner_loop(b, inits, &pool);
                        if self.coin() {
                            r0
                        } else {
                            r1
                        }
                    }
                    3 if !computed.is_empty() => self.pick(&computed),
                    _ => {
                        let (l, r) = (self.pick(&pool), self.pick(&pool));
                        self.fop(b, l, r)
                    }
                };
                computed.push(y);
                pool.push(y);
                yields[slot] = Some(y);
            }
            let mut yields: Vec<ValueId> = yields.into_iter().map(Option::unwrap).collect();
            if self.rng.below(4) == 0 {
                yields.rotate_left(1 + self.rng.below(2));
            }
            let k2 = match self.rng.below(3) {
                0 => arith::addi(b, k, i),
                1 => k,
                // A cast chain: index → i64, + 1, → index.
                _ => {
                    let i64t = b.ctx().i64_type();
                    let wide = arith::index_cast(b, k, i64t.clone());
                    let one64 = arith::constant_int(b, 1, i64t);
                    let next = arith::addi(b, wide, one64);
                    let index = b.ctx().index_type();
                    arith::index_cast(b, next, index)
                }
            };
            if late_cast {
                // Reads `k` (through its casts) after `k2` is defined.
                let kf = Gen::index_to_f32(b, k);
                yields[0] = self.fop(b, yields[0], kf);
            }
            yields.push(k2);
            yields
        });
        b.module().op_results(op).to_vec()
    }

    /// One of [`Gen::fop`]'s ops without its constant, for a branch body
    /// built outside `self`'s borrow.
    fn op_of(op: usize, b: &mut Builder<'_>, l: ValueId, r: ValueId) -> ValueId {
        match op {
            0 => arith::addf(b, l, r),
            1 => arith::subf(b, l, r),
            2 => arith::maxf(b, l, r),
            3 => arith::minf(b, l, r),
            _ => arith::mulf(b, l, r),
        }
    }

    /// The in-place family: every carry's next value is computed at the
    /// top level from its own carry, and nothing reads a carry after its
    /// next value is defined — no yield needs a copy.
    fn in_place_loop(
        &mut self,
        b: &mut Builder<'_>,
        trips: ValueId,
        inits: [ValueId; 4],
        live: &[ValueId],
    ) -> Vec<ValueId> {
        let (zero, one) = (arith::constant_index(b, 0), arith::constant_index(b, 1));
        let live = live.to_vec();
        let op = scf::build_for(b, zero, trips, one, &inits, |b, _, cs| {
            let kf = Gen::index_to_f32(b, cs[3]);
            let mut yields = Vec::new();
            for &c in &cs[..3] {
                let other = if self.coin() { kf } else { self.pick(&live) };
                yields.push(self.fop(b, c, other));
            }
            yields.push(arith::addi(b, cs[3], one));
            yields
        });
        b.module().op_results(op).to_vec()
    }
}

/// `helper(v, m)`: `m` trips of `acc = acc * 0.5 + 1` from `v`, a callee
/// with a loop that every kernel calls twice.
fn add_helper(kb: &mut KernelModuleBuilder) {
    let device = kb.device_module();
    let m = kb.module();
    let (f32t, index) = (m.ctx().f32_type(), m.ctx().index_type());
    let (_, entry) = build_func(
        m,
        device,
        "helper",
        &[f32t.clone(), index],
        std::slice::from_ref(&f32t),
    );
    let (v, trips) = (m.block_arg(entry, 0), m.block_arg(entry, 1));
    let mut b = Builder::at_end(m, entry);
    let (zero, one) = (
        arith::constant_index(&mut b, 0),
        arith::constant_index(&mut b, 1),
    );
    let op = scf::build_for(&mut b, zero, trips, one, &[v], |b, _, acc| {
        let (half, unit) = (
            arith::constant_float(b, 0.5, f32t.clone()),
            arith::constant_float(b, 1.0, f32t.clone()),
        );
        let scaled = arith::mulf(b, acc[0], half);
        vec![arith::addf(b, scaled, unit)]
    });
    let result = b.module().op_result(op, 0);
    build_return(&mut b, &[result]);
}

/// The program of `seed`: `coalesce(input: read, out: write, n: i64, s:
/// f32)` runs `n + gid % 3` trips of a generated loop nest from the
/// item's input, the scalar `s` and constants, folds the loop's results
/// through `helper` twice and stores the sum.
fn module(seed: u64, in_place: bool, rt: &SyclRuntime, q: &Queue) -> Module {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    add_helper(&mut kb);
    let sig = KernelSig::new(KERNEL, 1, true)
        .accessor(ctx.f32_type(), 1, AccessMode::Read)
        .accessor(ctx.f32_type(), 1, AccessMode::Write)
        .scalar(ctx.i64_type())
        .scalar(ctx.f32_type());
    let mut rng = TestRng::new(seed);
    kb.add_kernel(&sig, |b, args, item| {
        let mut g = Gen { rng: &mut rng };
        let gid = sdev::global_id(b, item, 0);
        let x = sdev::load_via_id(b, args[0], &[gid]);
        let index = b.ctx().index_type();
        // A cast of a parameter, and per-lane trip counts.
        let n = arith::index_cast(b, args[2], index);
        let three = arith::constant_index(b, 3);
        let spread = arith::remsi(b, gid, three);
        let trips = arith::addi(b, n, spread);
        let c = g.f32_const(b);
        let zero = arith::constant_index(b, 0);
        let inits = [x, args[3], c, zero];
        let live = [x, args[3]];
        let results = if in_place {
            g.in_place_loop(b, trips, inits, &live)
        } else {
            g.outer_loop(b, trips, inits, &live)
        };
        let mut sum = Gen::index_to_f32(b, results[3]);
        for &r in &results[..3] {
            sum = arith::addf(b, sum, r);
        }
        let f32t = b.ctx().f32_type();
        let two = arith::constant_index(b, 2);
        let once = build_call(b, "helper", &[sum, two], std::slice::from_ref(&f32t));
        let once = b.module().op_result(once, 0);
        let twice = build_call(b, "helper", &[once, trips], &[f32t]);
        let twice = b.module().op_result(twice, 0);
        sdev::store_via_id(b, twice, args[1], &[gid]);
    });
    generate_host_ir(kb.module(), rt, q);
    kb.finish()
}

/// The input and output buffers, fresh.
fn runtime() -> SyclRuntime {
    let mut rt = SyclRuntime::new();
    rt.buffer_f32(
        (0..GLOBAL).map(|i| 0.5 + i as f32 * 0.25).collect(),
        &[GLOBAL],
    );
    rt.buffer_f32(vec![0.0; GLOBAL as usize], &[GLOBAL]);
    rt
}

/// One launch of the kernel with `n` base trips.
fn queue(n: i64) -> Queue {
    let mut q = Queue::new();
    q.submit(|h| {
        h.accessor(BufferId(0), AccessMode::Read)
            .accessor(BufferId(1), AccessMode::Write)
            .runtime_i64(n)
            .scalar_f32(0.75);
        h.parallel_for_nd(KERNEL, &[GLOBAL], &[LOCAL]);
    });
    q
}

/// What a run leaves: the launch's statistics and the output, bit for
/// bit.
type Outcome = (Vec<ExecStats>, Vec<u32>);

fn observe(program: &mut Program, q: &Queue, device: &Device, audited: bool) -> Outcome {
    let mut rt = runtime();
    audit_on_this_thread(audited);
    audit_facts_on_this_thread(audited);
    let report = run(program, &mut rt, q, device);
    audit_on_this_thread(false);
    audit_facts_on_this_thread(false);
    let report = report.unwrap_or_else(|e| panic!("the program fails: {e}"));
    let stats = report.kernel_runs.iter().map(|k| k.stats.clone()).collect();
    let out = rt
        .read_f32(BufferId(1))
        .iter()
        .map(|x| x.to_bits())
        .collect();
    (stats, out)
}

/// The program of `seed` under both compile flows: the tree walk's
/// outcome, held equal by the plan engine on 1 and 4 workers and under
/// audit.
fn check(seed: u64, in_place: bool, n: i64) {
    let q = queue(n);
    for flow in [FlowKind::Dpcpp, FlowKind::SyclMlir] {
        let what = format!("seed {seed}, in place: {in_place}, {}", flow.name());
        let mut program = compile_program(flow, module(seed, in_place, &runtime(), &q))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let tree = observe(
            &mut program,
            &q,
            &Device::with_engine(Engine::TreeWalk),
            false,
        );
        let runs = [
            ("1 worker", 1, false),
            ("4 workers", 4, false),
            ("4 workers under audit", 4, true),
        ];
        for (name, threads, audited) in runs {
            let device = Device::with_engine(Engine::Plan).threads(threads);
            let plan = observe(&mut program, &q, &device, audited);
            assert!(tree == plan, "{what}, {name}: differs from the tree walk");
        }
    }
}

/// Every generated program leaves the tree walk's buffers and statistics
/// under the plan engine.
#[test]
fn generated_loop_nests_match_the_tree_walk() {
    for seed in 0..SEEDS {
        check(seed, false, 2);
    }
}

/// Loops whose every yield is computed in place: equal everywhere, and
/// the plan engine executes as many register copies at 2 base trips as
/// at 5 — the copies into the loop's carries before it, the calls' and
/// none per trip.
#[test]
fn in_place_carries_move_no_register_per_trip() {
    for seed in 0..SEEDS {
        check(seed, true, 2);
        let module = module(seed, true, &runtime(), &queue(2));
        let mut program = compile_program(FlowKind::Dpcpp, module).expect("compiles");
        let mut copies = |n| {
            let device = Device::with_engine(Engine::Plan).profile(true);
            observe(&mut program, &queue(n), &device, false);
            device.report().ops.get("copy").copied().unwrap_or(0)
        };
        let (few, many) = (copies(2), copies(5));
        assert_eq!(few, many, "seed {seed}: copies grow with the trip count");
    }
}
