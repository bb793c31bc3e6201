//! Every item query, on launches where a wrong dimension shows: an
//! nd-range 3-D launch whose three work-group extents differ (so its
//! sub-groups straddle rows), and a range-form 2-D launch whose work-group
//! the runtime picks. Each work-item writes what the six position queries
//! answer along all three dimensions, then its two linear ids; the tree
//! walk and the plan engine, on one worker and on four, must all write the
//! table the host computes from the geometry alone.

use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::dialects::arith;
use sycl_mlir_repro::frontend::{full_context, KernelModuleBuilder, KernelSig};
use sycl_mlir_repro::ir::{Builder, ValueId};
use sycl_mlir_repro::runtime::{
    compile_program, exec, hostgen::generate_host_ir, BufferId, Queue, SyclRuntime,
};
use sycl_mlir_repro::sim::{Device, Engine};
use sycl_mlir_repro::sycl::device as sdev;
use sycl_mlir_repro::sycl::types::AccessMode;

/// What a kernel asks its item (`false`) or the item's group (`true`):
/// global id, local id, group id, global range, local range, group range
/// along a dimension, then the global and the local linear id.
type Spellings = ([(&'static str, bool); 6], [&'static str; 2]);

/// The nd-range kernel's spellings.
const ND: Spellings = (
    [
        ("sycl.nd_item.get_global_id", false),
        ("sycl.nd_item.get_local_id", false),
        ("sycl.nd_item.get_group_id", false),
        ("sycl.nd_item.get_global_range", false),
        ("sycl.nd_item.get_local_range", false),
        ("sycl.nd_item.get_group_range", false),
    ],
    [
        "sycl.nd_item.get_global_linear_id",
        "sycl.nd_item.get_local_linear_id",
    ],
);

/// The range-form kernel's: the item's own spellings and the group
/// handle's where they exist, the nd-item's for the rest.
const RANGE: Spellings = (
    [
        ("sycl.item.get_id", false),
        ("sycl.nd_item.get_local_id", false),
        ("sycl.group.get_id", true),
        ("sycl.item.get_range", false),
        ("sycl.group.get_local_range", true),
        ("sycl.nd_item.get_group_range", false),
    ],
    [
        "sycl.item.get_linear_id",
        "sycl.nd_item.get_local_linear_id",
    ],
);

/// Values one work-item writes.
const ROW: i64 = 6 * 3 + 2;

/// One launch: its kernel, nd-range or range form, global range and — in
/// nd-range form — work-group.
#[derive(Clone, Copy)]
struct Launch {
    name: &'static str,
    nd: bool,
    global: &'static [i64],
    local: &'static [i64],
}

const LAUNCHES: [Launch; 2] = [
    Launch {
        name: "nd3",
        nd: true,
        global: &[4, 8, 16],
        local: &[2, 4, 8],
    },
    // The runtime picks a `[4, 8]` work-group: sub-groups of 16 span two
    // of its rows.
    Launch {
        name: "range2",
        nd: false,
        global: &[12, 40],
        local: &[],
    },
];

/// Store every answer of `spellings` for `item` to `out`, at the row of
/// its global linear id.
fn write_answers(b: &mut Builder<'_>, out: ValueId, item: ValueId, spellings: Spellings) {
    let (index, i32t, i64t) = (b.ctx().index_type(), b.ctx().i32_type(), b.ctx().i64_type());
    let group = sdev::get_group(b, item);
    let linear = spellings
        .1
        .map(|name| b.build_value(name, &[item], index.clone(), vec![]));
    let row = arith::constant_index(b, ROW);
    let base = arith::muli(b, linear[0], row);
    let mut answers = Vec::new();
    for (name, of_group) in spellings.0 {
        for d in 0..3 {
            let d = arith::constant_int(b, d, i32t.clone());
            let obj = if of_group { group } else { item };
            answers.push(b.build_value(name, &[obj, d], index.clone(), vec![]));
        }
    }
    for (k, v) in answers.into_iter().chain(linear).enumerate() {
        let k = arith::constant_index(b, k as i64);
        let at = arith::addi(b, base, k);
        let v = arith::index_cast(b, v, i64t.clone());
        sdev::store_via_id(b, v, out, &[at]);
    }
}

/// The coordinates of a row-major box of extents `n`, in order.
fn boxed(n: [i64; 3]) -> impl Iterator<Item = [i64; 3]> {
    (0..n[0]).flat_map(move |a| (0..n[1]).flat_map(move |b| (0..n[2]).map(move |c| [a, b, c])))
}

/// The table a launch over `global` in work-groups of `local` (both
/// padded with 1s) must write, enumerated rather than divided out.
fn expected(global: [i64; 3], local: [i64; 3]) -> Vec<i64> {
    let groups = [0, 1, 2].map(|d| global[d] / local[d]);
    let mut table = vec![-1; (global.iter().product::<i64>() * ROW) as usize];
    for g in boxed(groups) {
        for (local_linear, l) in boxed(local).enumerate() {
            let id = [0, 1, 2].map(|d| g[d] * local[d] + l[d]);
            let linear = (id[0] * global[1] + id[1]) * global[2] + id[2];
            let row = [id, l, g, global, local, groups].concat();
            let at = (linear * ROW) as usize;
            table[at..at + row.len()].copy_from_slice(&row);
            table[at + row.len()..at + ROW as usize]
                .copy_from_slice(&[linear, local_linear as i64]);
        }
    }
    table
}

#[test]
fn every_item_query_matches_the_host_table_on_asymmetric_launches() {
    let fresh = || {
        let mut rt = SyclRuntime::new();
        for launch in LAUNCHES {
            let len = launch.global.iter().product::<i64>() * ROW;
            rt.buffer_i64(vec![-1; len as usize], &[len]);
        }
        rt
    };
    let mut q = Queue::new();
    for (buffer, launch) in LAUNCHES.into_iter().enumerate() {
        q.submit(|h| {
            h.accessor(BufferId(buffer), AccessMode::Write);
            if launch.nd {
                h.parallel_for_nd(launch.name, launch.global, launch.local);
            } else {
                h.parallel_for(launch.name, launch.global);
            }
        });
    }
    let ctx = full_context();
    let mut kb = KernelModuleBuilder::new(&ctx);
    for Launch {
        name, nd, global, ..
    } in LAUNCHES
    {
        let rank = global.len() as u32;
        let sig = KernelSig::new(name, rank, nd).accessor(ctx.i64_type(), 1, AccessMode::Write);
        let spellings = if nd { ND } else { RANGE };
        kb.add_kernel(&sig, |b, args, item| {
            write_answers(b, args[0], item, spellings)
        });
    }
    generate_host_ir(kb.module(), &fresh(), &q);
    let mut program = compile_program(FlowKind::Dpcpp, kb.finish()).expect("compiles");

    let want: Vec<Vec<i64>> = (q.groups.iter())
        .map(|cg| expected(cg.nd.global, cg.nd.local))
        .collect();
    assert_eq!(q.groups[1].nd.local, [4, 8, 1], "the runtime's work-group");
    let devices = [
        ("tree walk", Device::with_engine(Engine::TreeWalk)),
        ("plan", Device::with_engine(Engine::Plan).threads(1)),
        (
            "plan, 4 workers",
            Device::with_engine(Engine::Plan).threads(4),
        ),
    ];
    for (what, device) in devices {
        let mut rt = fresh();
        exec::run(&mut program, &mut rt, &q, &device).unwrap_or_else(|e| panic!("{what}: {e}"));
        for (buffer, Launch { name, .. }) in LAUNCHES.into_iter().enumerate() {
            let (got, want) = (rt.read_i64(BufferId(buffer)), &want[buffer]);
            if let Some(at) = (0..want.len()).find(|&i| got[i] != want[i]) {
                panic!(
                    "{what}: `{name}` row {} answer {} is {} where the host table has {}",
                    at as i64 / ROW,
                    at as i64 % ROW,
                    got[at],
                    want[at]
                );
            }
        }
    }
}
