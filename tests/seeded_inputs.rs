//! Seeded inputs: what every benchsuite program's buffers start with, and
//! when those elements are generated.
//!
//! A builder hands the runtime a recipe for each seeded input instead of
//! its elements; the recipe draws from a clone of the builder's generator,
//! which then skips past the draws. Two things can go wrong unseen: a
//! stream that shifts (a data-independent program's cycles would not
//! show it, and a validator that regenerates the same shifted inputs
//! would still pass), and generation creeping back into building. The
//! first test pins every program's initial contents to hashes recorded
//! when the inputs were still generated eagerly; the second pins
//! [`SyclRuntime::bytes_generated`] over a compile-only pass and over
//! one run of each program (the printed `seeded_inputs:` line is the CI
//! gauge, `scripts/ci.sh`'s summary).

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::benchsuite::all_workloads;
use sycl_mlir_repro::core::FlowKind;
use sycl_mlir_repro::runtime::{compile_program, exec, SyclRuntime};
use sycl_mlir_repro::sim::{DataVec, Device};

/// FNV-1a over the length and the little-endian element bits of `data`.
fn feed(hash: &mut u64, data: &DataVec) {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&(data.len() as u64).to_le_bytes());
    match data {
        DataVec::F32(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
        DataVec::F64(v) => v.iter().for_each(|x| eat(&x.to_bits().to_le_bytes())),
        DataVec::I32(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
        DataVec::I64(v) => v.iter().for_each(|x| eat(&x.to_le_bytes())),
    }
}

/// Each program's buffers, then USM allocations, hashed in id order at
/// quick size, as the builders generated them eagerly before seeded inputs
/// became recipes.
const INITIAL: [(&str, u64); 48] = [
    ("KMeans (float32)", 0x4b194ddc5eefd860),
    ("KMeans (float64)", 0x81a4634bc12e8b62),
    ("LinReg (float32)", 0x9fd8e84be1ebbd23),
    ("LinReg (float64)", 0x8d0cde30f36a98a2),
    ("LinReg Coeff. (float32)", 0xb517f059a7dfa2c1),
    ("LinReg Coeff. (float64)", 0xf559ad23979f3b57),
    ("MolDyn", 0x4ca1dcb9c7fef238),
    ("NBody (float32)", 0xe2db9f39440ae541),
    ("NBody (float64)", 0x1193adebd751b6ac),
    ("ScalProd (float32)", 0x944161b289f1499a),
    ("ScalProd (float64)", 0xf622b2b44a3440ac),
    ("ScalProd (int32)", 0x30c6e5ca54ee675f),
    ("ScalProd (int64)", 0x352f951446696e67),
    ("Sobel3", 0x15098d567d90d5b4),
    ("Sobel5", 0xf7576452f1f937df),
    ("Sobel7", 0xd8478436465ce258),
    ("VecAdd (float32)", 0x6c18a782c7d2dcde),
    ("VecAdd (float64)", 0xa162f1bd0bc40eab),
    ("VecAdd (int32)", 0xbfc1b308bfbceeba),
    ("VecAdd (int64)", 0x33ce08334899f16a),
    ("2D Convolution", 0x62da8dc8bed34133),
    ("2mm", 0xa99f2c03371ec0ae),
    ("3mm", 0x7cc01902ebb2cf33),
    ("Atax", 0x2ecf2782e515db7a),
    ("Bicg", 0x69607d689f87dc80),
    ("Correlation", 0x0863db450cb4699c),
    ("Covariance", 0x775519ff7271e6c4),
    ("FDTD2D", 0x2fcf035569f5fe33),
    ("GEMM", 0x02d5caff070284bf),
    ("GESUMMV", 0xf95476fb93f3323a),
    ("Gramschmidt", 0x826fda8666d7c739),
    ("MVT", 0x910be919e746a30d),
    ("SYR2K", 0x653fd01ca86b1176),
    ("SYRK", 0x7e5c495684d685c8),
    ("3D Convolution", 0xbb02d30a578f3a0c),
    ("1D HeatTransfer (buffer)", 0xae1ba7ea2e3aea51),
    ("1D HeatTransfer (USM)", 0xae1ba7ea2e3aea51),
    ("iso2dfd", 0xc67eec13510e4a66),
    ("jacobi", 0xba6d7011c77804b5),
    ("TreeReduce (float32)", 0x5d9972219c8e0773),
    ("SegScan (float32)", 0x9754b93e63f667fd),
    ("DotProd (WG-local)", 0x2a4488f840a86caa),
    ("TreeReduce (dyn nd-range)", 0xd02c42cc38a28ca5),
    ("SpMV (CSR)", 0x872f79fd243849e5),
    ("Gather", 0x0098cff9c92980d1),
    ("Scatter", 0xdf49e1f5bd0568c3),
    ("Histogram (segmented)", 0xc8b57f9a62dafc24),
    ("Gather (dyn nd-range)", 0x4d7c15ec95748b5e),
];

/// The hash of `rt`'s initial contents: a seeded input's through its
/// recipe (`initial`), an allocation given its elements as given.
fn initial_hash(rt: &SyclRuntime) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for id in rt.allocs() {
        match rt.initial(id) {
            Some(data) => feed(&mut hash, &data),
            None => feed(&mut hash, rt.read(id)),
        }
    }
    hash
}

#[test]
fn every_program_starts_from_the_recorded_inputs() {
    let mut rows = Vec::new();
    for w in all_workloads() {
        let app = (w.build)(quick_size(&w));
        rows.push((w.name, initial_hash(&app.runtime)));
    }
    let table: String = (rows.iter())
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert!(rows == INITIAL, "initial contents moved; now:\n{table}");
}

/// Building and compiling generate no input; one run generates each
/// seeded input once, for its upload, and the recipes agree with what the
/// upload generated.
#[test]
fn seeded_inputs_are_generated_by_runs_only() {
    let device = Device::new();
    let (mut pairs, mut generated) = (0, 0);
    for w in all_workloads() {
        for kind in FlowKind::all() {
            if kind == FlowKind::AdaptiveCpp && w.acpp_fails {
                continue;
            }
            let app = (w.build)(quick_size(&w));
            let what = format!("{} [{}]", w.name, kind.name());
            compile_program(kind, app.module).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                app.runtime.bytes_generated(),
                0,
                "{what}: built and compiled"
            );
            pairs += 1;
        }
        let mut app = (w.build)(quick_size(&w));
        let mut program = compile_program(FlowKind::Dpcpp, app.module).expect("compiles");
        exec::run(&mut program, &mut app.runtime, &app.queue, &device).expect("runs");
        let rt = &app.runtime;
        let ran = rt.bytes_generated();
        let seeded: u64 = (rt.allocs())
            .filter_map(|id| rt.initial(id))
            .map(|d| (d.len() * d.elem_bytes()) as u64)
            .sum();
        assert_eq!(
            ran, seeded,
            "{}: one run generates each seeded input once",
            w.name
        );
        assert!(ran > 0, "{}: has a seeded input", w.name);
        generated += ran;
    }
    println!(
        "seeded_inputs: {pairs} (program, flow) pairs built and compiled generate 0 bytes; \
         one run of each of the 48 programs generates {generated}"
    );
    assert_eq!(pairs, 141, "the compile_only pass");
    assert_eq!(generated, 1_093_760, "one run of each program");
}
