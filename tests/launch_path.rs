//! The launch path per distinct command group: `exec::run` binds each
//! distinct `(kernel, argument values)` once, the device looks each
//! kernel up once per graph and instantiates its facts once per binding,
//! and a worker runs the single-chunk launch its retire made ready.
//!
//! These tests hold that sharing to the serial reference: every field a
//! binding reads splits the class, a chain-heavy failing graph fails as
//! the serial reference does, the host-propagated launch facts hold at
//! every launch (the host-fact audit) — over the suite, over
//! `repro_hostdag`'s graph and over the repo benchmark's `launch_dag`
//! graph — and the launch ledger's exact counts over the quick sweep and
//! the host-task graph are pinned.

use sycl_mlir_bench::{hostdag, quick_size, HostDag};
use sycl_mlir_repro::benchsuite::all_workloads;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::arith;
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::runtime::exec::{audit_facts_on_this_thread, run};
use sycl_mlir_repro::runtime::{
    compile_program, hostgen::generate_host_ir, BufferId, Handler, HostOp, Queue, SyclRuntime,
    UsmId,
};
use sycl_mlir_repro::sim::{Device, Engine, ExecStats, Ledger, LedgerCounts, SimError};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

/// The repo benchmark's `launch_dag` application, read from its source
/// (the benchmark is a package of its own, outside the workspace).
#[allow(dead_code)]
#[path = "../benchmark/src/launch_dag.rs"]
mod launch_dag;

const N: i64 = 64;

/// `mix` and `mix_again` (one body, two names) over
/// `(y: read-write, x: read, a: f32, r: f64, k: i64, u: USM)`:
/// `y[g] += a * x[g] + 1 / a + (f32)(i64)(4 r) + (f32) k + u[g]; u[g] += 1`.
/// Every argument reaches the result, so a launch bound with another
/// launch's arguments shows up in the buffers — `a`'s sign too, through
/// `1 / a`, where `a` is a zero.
fn module(rt: &SyclRuntime, q: &Queue, host_ir_of: Option<&Queue>) -> sycl_mlir_repro::ir::Module {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    for name in ["mix", "mix_again"] {
        let sig = KernelSig::new(name, 1, true)
            .accessor(f32t.clone(), 1, AccessMode::ReadWrite)
            .accessor(f32t.clone(), 1, AccessMode::Read)
            .scalar(f32t.clone())
            .scalar(ctx.f64_type())
            .scalar(ctx.i64_type())
            .accessor(f32t.clone(), 1, AccessMode::ReadWrite);
        kb.add_kernel(&sig, |b, args, item| {
            let gid = sdev::global_id(b, item, 0);
            let (f32t, f64t, i64t) = (b.ctx().f32_type(), b.ctx().f64_type(), b.ctx().i64_type());
            let y = sdev::load_via_id(b, args[0], &[gid]);
            let x = sdev::load_via_id(b, args[1], &[gid]);
            let ax = arith::mulf(b, args[2], x);
            let one = arith::constant_float(b, 1.0, f32t.clone());
            let inv = arith::divf(b, one, args[2]);
            let four = arith::constant_float(b, 4.0, f64t);
            let r4 = arith::mulf(b, args[3], four);
            let r4 = arith::fptosi(b, r4, i64t);
            let r4 = arith::sitofp(b, r4, f32t.clone());
            let k = arith::sitofp(b, args[4], f32t.clone());
            let u = sdev::load_via_id(b, args[5], &[gid]);
            let mut sum = arith::addf(b, y, ax);
            for term in [inv, r4, k, u] {
                sum = arith::addf(b, sum, term);
            }
            sdev::store_via_id(b, sum, args[0], &[gid]);
            let one = arith::constant_float(b, 1.0, f32t);
            let u1 = arith::addf(b, u, one);
            sdev::store_via_id(b, u1, args[5], &[gid]);
        });
    }
    generate_host_ir(kb.module(), rt, host_ir_of.unwrap_or(q));
    kb.finish()
}

/// The buffers and allocations the tests' command groups name.
struct Data {
    rt: SyclRuntime,
    bufs: [BufferId; 4],
    usms: [UsmId; 2],
}

fn data() -> Data {
    let mut rt = SyclRuntime::new();
    let init = |s: f32| (0..N).map(|i| s + i as f32 * 0.25).collect::<Vec<_>>();
    let bufs = [1.0, 2.0, 3.0, 4.0].map(|s| rt.buffer_f32(init(s), &[N]));
    let usms = [5.0, 6.0].map(|s| rt.usm_alloc_f32(init(s)));
    Data { rt, bufs, usms }
}

/// One `mix` command group; the fields are what its binding reads.
#[derive(Clone, Copy)]
struct Mix {
    kernel: &'static str,
    y: usize,
    x: usize,
    a: f32,
    r: f64,
    k: i64,
    u: usize,
    len: i64,
}

const BASE: Mix = Mix {
    kernel: "mix",
    y: 0,
    x: 1,
    a: 1.5,
    r: 0.5,
    k: 1,
    u: 0,
    len: N,
};

impl Mix {
    fn submit(self, d: &Data, q: &mut Queue) {
        q.submit(|h: &mut Handler| {
            h.accessor(d.bufs[self.y], AccessMode::ReadWrite)
                .accessor(d.bufs[self.x], AccessMode::Read)
                .scalar_f32(self.a)
                .runtime_f64(self.r)
                .runtime_i64(self.k)
                .usm(d.usms[self.u], self.len);
            h.parallel_for_nd(self.kernel, &[N], &[16]);
        });
    }
}

/// What a run leaves behind: per-launch statistics and launch cycles,
/// and every buffer and allocation, bit for bit.
type Outcome = (Vec<(ExecStats, u64)>, Vec<Vec<u32>>);

/// Run `q` on fresh data under `device`, with the host-fact audit on.
fn outcome(kind: FlowKind, q: &Queue, device: &Device) -> (Outcome, LedgerCounts) {
    let mut d = data();
    let mut program = compile_program(kind, module(&d.rt, q, None)).expect("compiles");
    program.ledger = Some(Ledger::default());
    audit_facts_on_this_thread(true);
    let report = run(&mut program, &mut d.rt, q, device);
    audit_facts_on_this_thread(false);
    let report = report.unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    let rows = (report.kernel_runs.iter())
        .map(|k| (k.stats.clone(), k.launch_cycles.to_bits()))
        .collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut mem: Vec<Vec<u32>> = d.bufs.iter().map(|&b| bits(d.rt.read_f32(b))).collect();
    mem.extend(d.usms.iter().map(|&u| bits(d.rt.read_f32(u))));
    let counts = program.ledger.expect("kept").counts;
    ((rows, mem), counts)
}

/// The serial reference, then the plan engine on 1 and 4 workers.
fn engines() -> [(&'static str, Device); 3] {
    [
        ("tree", Device::with_engine(Engine::TreeWalk)),
        ("plan-t1", Device::with_engine(Engine::Plan).threads(1)),
        ("plan-t4", Device::with_engine(Engine::Plan).threads(4)),
    ]
}

/// Two submissions of one command group share one binding; a second
/// submission that differs in any field a binding reads gets its own —
/// and either way the plan engine at 1 and 4 workers leaves the buffers
/// and statistics the serial reference leaves, and every flow leaves the
/// buffers DPC++ leaves (which propagates nothing from the host).
/// Mirrors hostgen's `every_emitted_field_tells_command_groups_apart`,
/// for the finer binding key.
#[test]
fn every_bound_field_tells_launches_apart() {
    let nan = |bits: u32| f32::from_bits(bits);
    let variants = [
        ("the same command group", BASE, 1),
        (
            "kernel",
            Mix {
                kernel: "mix_again",
                ..BASE
            },
            2,
        ),
        ("read-write buffer", Mix { y: 2, ..BASE }, 2),
        ("read buffer", Mix { x: 3, ..BASE }, 2),
        ("scalar value", Mix { a: 2.5, ..BASE }, 2),
        ("-0.0 scalar", Mix { a: -0.0, ..BASE }, 2),
        ("run-time f64 value", Mix { r: 1.25, ..BASE }, 2),
        ("run-time i64 value", Mix { k: 2, ..BASE }, 2),
        ("USM allocation", Mix { u: 1, ..BASE }, 2),
        ("USM length", Mix { len: N / 2, ..BASE }, 2),
    ];
    let nan_bits = [
        (
            "NaN bits",
            Mix {
                a: nan(0x7fc0_0000),
                ..BASE
            },
            Mix {
                a: nan(0x7fc0_0001),
                ..BASE
            },
            2,
        ),
        (
            "one NaN",
            Mix {
                a: nan(0x7fc0_0001),
                ..BASE
            },
            Mix {
                a: nan(0x7fc0_0001),
                ..BASE
            },
            1,
        ),
        (
            "0.0 and -0.0",
            Mix { a: 0.0, ..BASE },
            Mix { a: -0.0, ..BASE },
            2,
        ),
    ];
    let pairs = (variants.into_iter().map(|(what, v, n)| (what, BASE, v, n))).chain(nan_bits);
    for (what, first, second, bindings) in pairs {
        let d = data();
        let mut q = Queue::new();
        first.submit(&d, &mut q);
        second.submit(&d, &mut q);
        // A third launch on the first's buffers reads what both wrote.
        first.submit(&d, &mut q);
        let mut dpcpp = None;
        for kind in FlowKind::all() {
            let mut reference = None;
            for (name, device) in engines() {
                let (got, counts) = outcome(kind, &q, &device);
                let ctx = format!("{what}, {}, {name}", kind.name());
                if device.engine == Engine::Plan {
                    assert_eq!(counts.distinct_bindings, bindings, "{ctx}");
                    assert_eq!(counts.launches, 3, "{ctx}");
                    assert_eq!(
                        counts.plans_looked_up,
                        1 + (what == "kernel") as u64,
                        "{ctx}"
                    );
                }
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert!(want == &got, "{ctx}: differs from the serial reference"),
                }
            }
            let (_, mem) = reference.expect("the serial reference ran");
            match &dpcpp {
                None => dpcpp = Some(mem),
                Some(want) => assert!(want == &mem, "{what}, {}: differs from DPC++", kind.name()),
            }
        }
    }
}

/// Launch sites agree on a scalar only where its constants print alike:
/// `out[g] = 1.0 / s`, submitted with `s = 0.0` and then `s = -0.0`,
/// writes `+inf` and then `-inf` under every flow. (Host-device
/// propagation once compared the sites' constants with `==`, which
/// equates the two zeros, and gave both launches the first one's `0.0`.)
#[test]
fn zero_and_negative_zero_scalars_are_two_constants() {
    let outcome = |kind: FlowKind| {
        let ctx = full_context();
        let mut kb = KernelModuleBuilder::new(&ctx);
        let f64t = ctx.f64_type();
        let sig = KernelSig::new("recip", 1, true)
            .accessor(f64t.clone(), 1, AccessMode::Write)
            .scalar(f64t);
        kb.add_kernel(&sig, |b, args, item| {
            let gid = sdev::global_id(b, item, 0);
            let one = arith::constant_float(b, 1.0, b.ctx().f64_type());
            let r = arith::divf(b, one, args[1]);
            sdev::store_via_id(b, r, args[0], &[gid]);
        });
        let mut rt = SyclRuntime::new();
        let outs = [0.0, -0.0].map(|s| (rt.buffer_f64(vec![0.0; N as usize], &[N]), s));
        let mut q = Queue::new();
        for (out, s) in outs {
            q.submit(|h: &mut Handler| {
                h.accessor(out, AccessMode::Write).scalar_f64(s);
                h.parallel_for_nd("recip", &[N], &[16]);
            });
        }
        generate_host_ir(kb.module(), &rt, &q);
        let mut program = compile_program(kind, kb.finish()).expect("compiles");
        let device = Device::with_engine(Engine::Plan);
        run(&mut program, &mut rt, &q, &device).expect("runs");
        outs.map(|(out, _)| (rt.read_f64(out).iter().map(|x| x.to_bits())).collect::<Vec<_>>())
    };
    let dpcpp = outcome(FlowKind::Dpcpp);
    let want = [f64::INFINITY, f64::NEG_INFINITY].map(|x| vec![x.to_bits(); N as usize]);
    assert_eq!(dpcpp, want, "DPC++");
    for kind in [FlowKind::AdaptiveCpp, FlowKind::SyclMlir] {
        assert_eq!(outcome(kind), dpcpp, "{} differs from DPC++", kind.name());
    }
}

/// A graph of long chains — every kernel on one of two buffers, a host
/// task among them — with two failing launches: the run reports the
/// first failure in submission order, the serial reference's, at every
/// worker count, although the handoff runs a chain's next launch on the
/// worker that retired its predecessor.
#[test]
fn a_chain_heavy_failing_graph_fails_as_the_serial_reference() {
    let mut d = data();
    // A buffer too short for the launch: `x[g]` faults from group 1 on.
    let short = d.rt.buffer_f32(vec![1.0; 16], &[16]);
    let mut q = Queue::new();
    for i in 0..48 {
        let y = i % 2;
        match i {
            17 => q.submit(|h| {
                h.host_task(HostOp::Scale {
                    buffer: d.bufs[0],
                    factor: 0.5,
                })
            }),
            29 | 41 => q.submit(|h| {
                h.accessor(d.bufs[y], AccessMode::ReadWrite)
                    .accessor(short, AccessMode::Read)
                    .scalar_f32(1.0)
                    .runtime_f64(0.0)
                    .runtime_i64(0)
                    .usm(d.usms[0], N);
                h.parallel_for_nd("mix", &[N], &[16]);
            }),
            _ => {
                Mix {
                    y,
                    x: 2 + y,
                    ..BASE
                }
                .submit(&d, &mut q);
                0
            }
        };
    }
    let module = module(&d.rt, &q, None);
    let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
    let errors: Vec<(String, SimError)> = (engines().into_iter())
        .chain((2..=3).map(|t| ("plan", Device::with_engine(Engine::Plan).threads(t))))
        .map(|(name, device)| {
            let mut rt = data().rt;
            rt.buffer_f32(vec![1.0; 16], &[16]);
            let err = run(&mut program, &mut rt, &q, &device).expect_err("the graph fails");
            (format!("{name} t{}", device.threads), err)
        })
        .collect();
    let (_, want) = &errors[0];
    assert!(
        want.message().contains("(launch 29, work-group 1)"),
        "{want}"
    );
    for (name, err) in &errors[1..] {
        assert_eq!(err, want, "{name}");
    }
}

/// Host IR that missed a launch — what hostgen emits if its command-group
/// key left out a field: the second submission below would look like the
/// first and get no function — lets host-device propagation pin a fact
/// the second launch breaks: a buffer partition (`x` aliases `y` there)
/// or a folded scalar (`a` is 2.5 there, folded as the first launch's
/// 1.5). The audit catches each; with the host IR of every distinct
/// command group it passes.
#[test]
fn the_audit_catches_host_ir_that_missed_a_launch() {
    let cases = [
        (
            Mix { x: 0, ..BASE },
            "host-fact audit: launch 1 (`mix`): arguments 0 and 1 are buffers 0 and 0, \
             propagated ids 0 and 1",
        ),
        (
            Mix { a: 2.5, ..BASE },
            "host-fact audit: launch 1 (`mix`): scalar argument 2 is 2.5, propagated 1.5",
        ),
    ];
    for (second, message) in cases {
        let d = data();
        let mut q = Queue::new();
        BASE.submit(&d, &mut q);
        second.submit(&d, &mut q);
        let mut first_only = Queue::new();
        BASE.submit(&d, &mut first_only);
        for (host_ir, audited) in [(&q, true), (&first_only, false)] {
            let mut rt = data().rt;
            let module = module(&d.rt, &q, Some(host_ir));
            let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
            audit_facts_on_this_thread(true);
            let outcome = run(
                &mut program,
                &mut rt,
                &q,
                &Device::with_engine(Engine::Plan),
            );
            audit_facts_on_this_thread(false);
            match outcome {
                Ok(_) => assert!(audited, "the audit missed the unsound fact: {message}"),
                Err(e) => {
                    assert!(!audited, "{e}");
                    assert_eq!(e.message(), message);
                }
            }
        }
    }
}

/// A scalar the kernel never reads is folded into nothing, whatever the
/// launch sites pass: two command groups that pass it as 3 and 5 run
/// under the audit. (The audit once took every dead argument that each
/// site passes as a constant as folded, held both launches to the first
/// site's 3, and failed this correct run.)
#[test]
fn an_unread_scalar_that_sites_pass_apart_is_not_folded() {
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    let f32t = ctx.f32_type();
    let sig = KernelSig::new("unread", 1, true)
        .accessor(f32t.clone(), 1, AccessMode::Write)
        .scalar(ctx.i64_type());
    kb.add_kernel(&sig, |b, args, item| {
        let gid = sdev::global_id(b, item, 0);
        let one = arith::constant_float(b, 1.0, b.ctx().f32_type());
        sdev::store_via_id(b, one, args[0], &[gid]);
    });
    let mut rt = SyclRuntime::new();
    let out = rt.buffer_f32(vec![0.0; N as usize], &[N]);
    let mut q = Queue::new();
    for s in [3, 5] {
        q.submit(|h: &mut Handler| {
            h.accessor(out, AccessMode::Write).scalar_i64(s);
            h.parallel_for_nd("unread", &[N], &[16]);
        });
    }
    generate_host_ir(kb.module(), &rt, &q);
    let mut program = compile_program(FlowKind::SyclMlir, kb.finish()).expect("compiles");
    audit_facts_on_this_thread(true);
    let outcome = run(
        &mut program,
        &mut rt,
        &q,
        &Device::with_engine(Engine::Plan),
    );
    audit_facts_on_this_thread(false);
    outcome.expect("the audit holds");
    assert_eq!(rt.read_f32(out), vec![1.0; N as usize]);
}

/// An argument that is a buffer at one launch site and a USM pointer at
/// another gets no propagated buffer id: at the second site it may alias
/// anything. (The random graphs of `tests/scheduler_stress.rs` found
/// host-device propagation giving it the first site's id.)
#[test]
fn an_argument_that_is_sometimes_usm_gets_no_buffer_id() {
    let mut d = data();
    let mut q = Queue::new();
    BASE.submit(&d, &mut q);
    q.submit(|h| {
        h.accessor(d.bufs[0], AccessMode::ReadWrite)
            .usm(d.usms[1], N)
            .scalar_f32(1.5)
            .runtime_f64(0.5)
            .runtime_i64(1)
            .usm(d.usms[0], N);
        h.parallel_for_nd("mix", &[N], &[16]);
    });
    let module = module(&d.rt, &q, None);
    let mut program = compile_program(FlowKind::SyclMlir, module).expect("compiles");
    audit_facts_on_this_thread(true);
    let outcome = run(
        &mut program,
        &mut d.rt,
        &q,
        &Device::with_engine(Engine::Plan),
    );
    audit_facts_on_this_thread(false);
    outcome.expect("the audit holds");
}

/// The host-fact audit over the repo benchmark's `launch_dag` graph (600
/// host tasks, 1,800 one-group kernels): seeds 1 and 4 under SYCL-MLIR,
/// on 1 and 2 workers. Every launch's three facts hold — its global and
/// local range and its accessor's buffer id — the count is pinned, and
/// every run then validates against the graph's host reference.
#[test]
fn the_host_fact_audit_holds_over_launch_dag() {
    for seed in [1, 4] {
        for threads in [1, 2] {
            let what = format!("launch_dag seed {seed}, {threads} workers");
            let mut app = launch_dag::build(seed);
            let mut program = compile_program(FlowKind::SyclMlir, app.module).expect("compiles");
            let device = Device::with_engine(Engine::Plan).threads(threads);
            audit_facts_on_this_thread(true);
            let outcome = run(&mut program, &mut app.runtime, &app.queue, &device);
            let facts = audit_facts_on_this_thread(false);
            outcome.unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(facts, 5_400, "{what}: host facts audited");
            (app.validate)(&app.runtime).unwrap_or_else(|e| panic!("{what}: {e}"));
        }
    }
}

/// Run `app`-like inputs under the audit with a ledger; the counts, and
/// how many facts the audit checked.
fn audited_counts(
    kind: FlowKind,
    module: sycl_mlir_repro::ir::Module,
    rt: &mut SyclRuntime,
    q: &Queue,
    what: &str,
) -> (LedgerCounts, u64) {
    let mut program = compile_program(kind, module).unwrap_or_else(|e| panic!("{what}: {e}"));
    program.ledger = Some(Ledger::default());
    audit_facts_on_this_thread(true);
    let outcome = run(&mut program, rt, q, &Device::with_engine(Engine::Plan));
    let facts = audit_facts_on_this_thread(false);
    outcome.unwrap_or_else(|e| panic!("{what}: {e}"));
    (program.ledger.expect("kept").counts, facts)
}

fn add(sum: &mut LedgerCounts, c: LedgerCounts) {
    sum.launches += c.launches;
    sum.distinct_bindings += c.distinct_bindings;
    sum.plans_looked_up += c.plans_looked_up;
    sum.instantiations += c.instantiations;
}

/// The host-fact audit holds at every launch of every workload under
/// every flow (quick sizes) and of `repro_hostdag`'s graph; the facts it
/// checks per flow over the suite, and the launch ledger's exact counts
/// over the quick sweep (the workloads `repro_all --quick` runs) and over
/// that graph, are pinned. The printed `launch_ledger:` line is the CI
/// gauge (`scripts/ci.sh`'s summary).
#[test]
fn launch_ledger_counts_under_the_host_fact_audit() {
    let mut sweep = LedgerCounts::default();
    let mut facts = [0_u64; 3];
    for w in all_workloads() {
        for (kind, facts) in FlowKind::all().into_iter().zip(&mut facts) {
            if kind == FlowKind::AdaptiveCpp && w.acpp_fails {
                continue;
            }
            let mut app = (w.build)(quick_size(&w));
            let what = format!("{} [{}]", w.name, kind.name());
            let (counts, checked) =
                audited_counts(kind, app.module, &mut app.runtime, &app.queue, &what);
            *facts += checked;
            if w.in_figure {
                add(&mut sweep, counts);
            }
        }
    }
    let HostDag {
        module, mut rt, q, ..
    } = hostdag(true);
    let (graph, graph_facts) = audited_counts(FlowKind::SyclMlir, module, &mut rt, &q, "hostdag");
    println!("launch_ledger: quick sweep: {sweep}; hostdag --quick: {graph}");
    let flows = FlowKind::all().map(|k| k.name());
    println!(
        "host_facts: audited over the suite: {} {}, {} {}, {} {}; hostdag --quick: {graph_facts}",
        flows[0], facts[0], flows[1], facts[1], flows[2], facts[2]
    );
    let pinned = |launches, distinct_bindings, plans_looked_up, instantiations| LedgerCounts {
        launches,
        distinct_bindings,
        plans_looked_up,
        instantiations,
    };
    assert_eq!(sweep, pinned(505, 201, 174, 201), "quick sweep");
    assert_eq!(graph, pinned(120, 8, 1, 8), "hostdag");
    assert_eq!(
        (facts, graph_facts),
        ([0, 459, 894], 360),
        "host facts audited"
    );
}
