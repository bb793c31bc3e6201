//! Golden printed IR of everything the repo benchmark compiles.
//!
//! For each of the 141 (program, flow) pairs of the `compile_only` workload
//! — 48 registered programs × 3 flows, less the three AdaptiveCpp rows the
//! paper reports as failed — at quick size: an FNV-1a-64 of `print_module`
//! as built and after `Flow::compile`. The table was recorded at the commit
//! *before* the shared context, the context-table hasher and the structural
//! CSE key went in, so it is the proof that none of them changed a single
//! character of IR. A PR that changes IR on purpose replaces the rows the
//! failure message prints. The DPC++ and AdaptiveCpp "as compiled" rows
//! were replaced when those flows began compiling the device module in
//! isolation: their compiled module is `@device` alone.
//!
//! Every module hashed here must also read back as itself: `parse_module`
//! of its printed form prints the same text.
//!
//! Also here: the one property a context shared by every module of a thread
//! must have — what was interned before a program is built must not show in
//! its IR.

mod common;

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::benchsuite::{all_workloads, WorkloadSpec};
use sycl_mlir_repro::core::{Flow, FlowKind};
use sycl_mlir_repro::ir::{print_module, Module};

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes of the printed module as built and as compiled, each printed
/// form checked to read back as itself.
fn hashes(w: &WorkloadSpec, kind: FlowKind) -> (u64, u64) {
    let what = format!("{} [{}]", w.name, kind.name());
    let mut app = (w.build)(quick_size(w));
    let hash = |m: &Module, stage: &str| {
        let text = print_module(m);
        common::assert_round_trips(m.ctx(), &text, &format!("{what} {stage}"));
        fnv1a64(&text)
    };
    let built = hash(&app.module, "as built");
    Flow::new(kind)
        .compile(&mut app.module)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    (built, hash(&app.module, "as compiled"))
}

/// One row per pair the benchmark compiles, in its order; built and
/// compiled in that order or, with `reversed`, last pair first.
fn suite_rows(reversed: bool) -> Vec<(String, u64, u64)> {
    let registry = all_workloads();
    let mut pairs: Vec<(&WorkloadSpec, FlowKind)> = registry
        .iter()
        .flat_map(|w| FlowKind::all().map(|kind| (w, kind)))
        .filter(|(w, kind)| !(*kind == FlowKind::AdaptiveCpp && w.acpp_fails))
        .collect();
    if reversed {
        pairs.reverse();
    }
    let mut rows: Vec<(String, u64, u64)> = pairs
        .into_iter()
        .map(|(w, kind)| {
            let (built, compiled) = hashes(w, kind);
            (format!("{} [{}]", w.name, kind.name()), built, compiled)
        })
        .collect();
    if reversed {
        rows.reverse();
    }
    rows
}

#[test]
fn printed_ir_of_every_program_and_flow_is_pinned() {
    let got = suite_rows(false);
    let moved: Vec<String> = (0..got.len().max(GOLDEN.len()))
        .filter(|&i| got.get(i).map(|g| (g.0.as_str(), g.1, g.2)) != GOLDEN.get(i).copied())
        .map(|i| match got.get(i) {
            Some(g) => format!("    ({:?}, {:#018x}, {:#018x}),", g.0, g.1, g.2),
            None => format!("    (row {i} is gone)"),
        })
        .collect();
    assert!(
        moved.is_empty(),
        "printed IR moved on {} of {} rows; as they read now:\n{}",
        moved.len(),
        GOLDEN.len(),
        moved.join("\n")
    );
}

/// The benchmark shuffles its op order every iteration and every module of
/// a thread shares one context: if the order in which types, op names or
/// attribute keys were interned leaked into the IR, a cycle count would
/// flake. Registry order and its reverse must print the same.
#[test]
fn shared_context_is_order_independent() {
    assert_eq!(suite_rows(false), suite_rows(true));
}

/// `(program [flow], as built, as compiled)`.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64); 141] = [
    ("KMeans (float32) [DPC++]", 0x2a293b701eb271a3, 0x40c22b676d3988b8),
    ("KMeans (float32) [AdaptiveCpp]", 0x2a293b701eb271a3, 0x40c22b676d3988b8),
    ("KMeans (float32) [SYCL-MLIR]", 0x2a293b701eb271a3, 0x33336503cc6d93c8),
    ("KMeans (float64) [DPC++]", 0xd241e68df21d0b01, 0x3b3cc989855bbbe2),
    ("KMeans (float64) [AdaptiveCpp]", 0xd241e68df21d0b01, 0x3b3cc989855bbbe2),
    ("KMeans (float64) [SYCL-MLIR]", 0xd241e68df21d0b01, 0xfc6f991f0a9015aa),
    ("LinReg (float32) [DPC++]", 0xabe25e4e04f3b039, 0x7ba9aec253d22adf),
    ("LinReg (float32) [AdaptiveCpp]", 0xabe25e4e04f3b039, 0x7ba9aec253d22adf),
    ("LinReg (float32) [SYCL-MLIR]", 0xabe25e4e04f3b039, 0x9091157b9dd79fc6),
    ("LinReg (float64) [DPC++]", 0x506045932544a6b8, 0xfda81328bf97f6f8),
    ("LinReg (float64) [AdaptiveCpp]", 0x506045932544a6b8, 0xfda81328bf97f6f8),
    ("LinReg (float64) [SYCL-MLIR]", 0x506045932544a6b8, 0xdeee21f1396a41ab),
    ("LinReg Coeff. (float32) [DPC++]", 0xc39a65aaccac0a01, 0xe48f3cf93fd2613b),
    ("LinReg Coeff. (float32) [AdaptiveCpp]", 0xc39a65aaccac0a01, 0xe48f3cf93fd2613b),
    ("LinReg Coeff. (float32) [SYCL-MLIR]", 0xc39a65aaccac0a01, 0x517ad18b5c85a572),
    ("LinReg Coeff. (float64) [DPC++]", 0xb5928b7a84eca635, 0xe5c8aef230847e33),
    ("LinReg Coeff. (float64) [AdaptiveCpp]", 0xb5928b7a84eca635, 0xe5c8aef230847e33),
    ("LinReg Coeff. (float64) [SYCL-MLIR]", 0xb5928b7a84eca635, 0x7fb29171d07daa2a),
    ("MolDyn [DPC++]", 0x3777900fcdf82425, 0xc9199ec6a463288f),
    ("MolDyn [AdaptiveCpp]", 0x3777900fcdf82425, 0xc9199ec6a463288f),
    ("MolDyn [SYCL-MLIR]", 0x3777900fcdf82425, 0x5fc49ceae3a5574b),
    ("NBody (float32) [DPC++]", 0x03cf47f735c5a252, 0x7134752cc72a7bba),
    ("NBody (float32) [AdaptiveCpp]", 0x03cf47f735c5a252, 0x7134752cc72a7bba),
    ("NBody (float32) [SYCL-MLIR]", 0x03cf47f735c5a252, 0x864ebf460f96c93f),
    ("NBody (float64) [DPC++]", 0x9bc29770e3e5fde4, 0x3be98bd62fa2dc40),
    ("NBody (float64) [AdaptiveCpp]", 0x9bc29770e3e5fde4, 0x3be98bd62fa2dc40),
    ("NBody (float64) [SYCL-MLIR]", 0x9bc29770e3e5fde4, 0x7ef7c470adbc6d05),
    ("ScalProd (float32) [DPC++]", 0xec7a9ee4d74a29c1, 0x6066525e19cb586f),
    ("ScalProd (float32) [AdaptiveCpp]", 0xec7a9ee4d74a29c1, 0x6066525e19cb586f),
    ("ScalProd (float32) [SYCL-MLIR]", 0xec7a9ee4d74a29c1, 0x1c8c77337c0fafdc),
    ("ScalProd (float64) [DPC++]", 0x2e7ca2423eb9dc49, 0x66101108790e521f),
    ("ScalProd (float64) [AdaptiveCpp]", 0x2e7ca2423eb9dc49, 0x66101108790e521f),
    ("ScalProd (float64) [SYCL-MLIR]", 0x2e7ca2423eb9dc49, 0x72ddef1e17ded0cc),
    ("ScalProd (int32) [DPC++]", 0xaa875ef88a49887e, 0x9d033b1ce0dd647e),
    ("ScalProd (int32) [AdaptiveCpp]", 0xaa875ef88a49887e, 0x9d033b1ce0dd647e),
    ("ScalProd (int32) [SYCL-MLIR]", 0xaa875ef88a49887e, 0x9b835802548b0f73),
    ("ScalProd (int64) [DPC++]", 0x00b398d6ddf6aa22, 0x6146c03b9c6e8e72),
    ("ScalProd (int64) [AdaptiveCpp]", 0x00b398d6ddf6aa22, 0x6146c03b9c6e8e72),
    ("ScalProd (int64) [SYCL-MLIR]", 0x00b398d6ddf6aa22, 0x7beda9ae97490f7b),
    ("Sobel3 [DPC++]", 0x784c43652188cb5d, 0x3c2f8fe88b810fc3),
    ("Sobel3 [AdaptiveCpp]", 0x784c43652188cb5d, 0x3c2f8fe88b810fc3),
    ("Sobel3 [SYCL-MLIR]", 0x784c43652188cb5d, 0x230e359d1ed2e340),
    ("Sobel5 [DPC++]", 0x939fe5618bb55138, 0xfa69610beb814c71),
    ("Sobel5 [AdaptiveCpp]", 0x939fe5618bb55138, 0xfa69610beb814c71),
    ("Sobel5 [SYCL-MLIR]", 0x939fe5618bb55138, 0x88030e4bafe66deb),
    ("Sobel7 [DPC++]", 0xf3cfc68b9e21e3c2, 0x33762c3939082f40),
    ("Sobel7 [AdaptiveCpp]", 0xf3cfc68b9e21e3c2, 0x33762c3939082f40),
    ("Sobel7 [SYCL-MLIR]", 0xf3cfc68b9e21e3c2, 0x0c8a4edb296d34db),
    ("VecAdd (float32) [DPC++]", 0xd57d51f78c611c6c, 0x156466fec28eb17f),
    ("VecAdd (float32) [AdaptiveCpp]", 0xd57d51f78c611c6c, 0x156466fec28eb17f),
    ("VecAdd (float32) [SYCL-MLIR]", 0xd57d51f78c611c6c, 0x8c396ae6193553b3),
    ("VecAdd (float64) [DPC++]", 0x0399267a6a6fd790, 0x24a75ec4d5e8419b),
    ("VecAdd (float64) [AdaptiveCpp]", 0x0399267a6a6fd790, 0x24a75ec4d5e8419b),
    ("VecAdd (float64) [SYCL-MLIR]", 0x0399267a6a6fd790, 0xd0055611ba79f39f),
    ("VecAdd (int32) [DPC++]", 0x8522eca8ecf2ced3, 0x1e95220b69a284f6),
    ("VecAdd (int32) [AdaptiveCpp]", 0x8522eca8ecf2ced3, 0x1e95220b69a284f6),
    ("VecAdd (int32) [SYCL-MLIR]", 0x8522eca8ecf2ced3, 0x9436d1cddca78664),
    ("VecAdd (int64) [DPC++]", 0x97af7039fd5b15f3, 0x29dd0d7f0163417e),
    ("VecAdd (int64) [AdaptiveCpp]", 0x97af7039fd5b15f3, 0x29dd0d7f0163417e),
    ("VecAdd (int64) [SYCL-MLIR]", 0x97af7039fd5b15f3, 0x7141626b739aa7c0),
    ("2D Convolution [DPC++]", 0x5442c55c16c118f0, 0x2b764fab857e6a1b),
    ("2D Convolution [AdaptiveCpp]", 0x5442c55c16c118f0, 0x2b764fab857e6a1b),
    ("2D Convolution [SYCL-MLIR]", 0x5442c55c16c118f0, 0x1e9612a7a90a05a4),
    ("2mm [DPC++]", 0x63605117bd73820b, 0xee267b17a421b024),
    ("2mm [AdaptiveCpp]", 0x63605117bd73820b, 0xee267b17a421b024),
    ("2mm [SYCL-MLIR]", 0x63605117bd73820b, 0xb65c5ee0147f958c),
    ("3mm [DPC++]", 0x8ec5267eb1f5c96c, 0xee267b17a421b024),
    ("3mm [AdaptiveCpp]", 0x8ec5267eb1f5c96c, 0xee267b17a421b024),
    ("3mm [SYCL-MLIR]", 0x8ec5267eb1f5c96c, 0x658293b7c5cef250),
    ("Atax [DPC++]", 0x35a539e6f4cb5ae7, 0xe64a5c95621f410e),
    ("Atax [AdaptiveCpp]", 0x35a539e6f4cb5ae7, 0xe64a5c95621f410e),
    ("Atax [SYCL-MLIR]", 0x35a539e6f4cb5ae7, 0x590cfe4adf9ee1c2),
    ("Bicg [DPC++]", 0x223a180a2e986365, 0x78ef3432adfa7ef4),
    ("Bicg [AdaptiveCpp]", 0x223a180a2e986365, 0x78ef3432adfa7ef4),
    ("Bicg [SYCL-MLIR]", 0x223a180a2e986365, 0x0d50e5d2793b4d04),
    ("Correlation [DPC++]", 0x05c474781ca0ddf7, 0x59e176e73e57e228),
    ("Correlation [AdaptiveCpp]", 0x05c474781ca0ddf7, 0x59e176e73e57e228),
    ("Correlation [SYCL-MLIR]", 0x05c474781ca0ddf7, 0x5a4c8dec41325a4a),
    ("Covariance [DPC++]", 0xe2e4005b59f33d46, 0x7af281a2d711ec87),
    ("Covariance [AdaptiveCpp]", 0xe2e4005b59f33d46, 0x7af281a2d711ec87),
    ("Covariance [SYCL-MLIR]", 0xe2e4005b59f33d46, 0xb4a7c6e8d6f8627b),
    ("FDTD2D [DPC++]", 0x25549e574a77d350, 0xa7a0dc0476afd55e),
    ("FDTD2D [AdaptiveCpp]", 0x25549e574a77d350, 0xa7a0dc0476afd55e),
    ("FDTD2D [SYCL-MLIR]", 0x25549e574a77d350, 0xeb61d265003bcb3b),
    ("GEMM [DPC++]", 0x7ecb765120ddd5fe, 0x8ddd5918e2d52b6c),
    ("GEMM [AdaptiveCpp]", 0x7ecb765120ddd5fe, 0x8ddd5918e2d52b6c),
    ("GEMM [SYCL-MLIR]", 0x7ecb765120ddd5fe, 0x20c884feb0e7d155),
    ("GESUMMV [DPC++]", 0x4194e20bac8dea08, 0x35c8ba27ebff404c),
    ("GESUMMV [AdaptiveCpp]", 0x4194e20bac8dea08, 0x35c8ba27ebff404c),
    ("GESUMMV [SYCL-MLIR]", 0x4194e20bac8dea08, 0x5e01ff92a44929cc),
    ("Gramschmidt [DPC++]", 0x83b19996c3bd5dc0, 0xdca7e8e6cacdfc65),
    ("Gramschmidt [AdaptiveCpp]", 0x83b19996c3bd5dc0, 0xdca7e8e6cacdfc65),
    ("Gramschmidt [SYCL-MLIR]", 0x83b19996c3bd5dc0, 0x343e00daf730510c),
    ("MVT [DPC++]", 0xdbc355087b55f5d9, 0x54c79c0874dd1d15),
    ("MVT [AdaptiveCpp]", 0xdbc355087b55f5d9, 0x54c79c0874dd1d15),
    ("MVT [SYCL-MLIR]", 0xdbc355087b55f5d9, 0xc95777e621e69a34),
    ("SYR2K [DPC++]", 0xbf1af52ee608bf3e, 0xdba48bed1ecc3cbe),
    ("SYR2K [AdaptiveCpp]", 0xbf1af52ee608bf3e, 0xdba48bed1ecc3cbe),
    ("SYR2K [SYCL-MLIR]", 0xbf1af52ee608bf3e, 0x493bfc767681dd27),
    ("SYRK [DPC++]", 0xca16ba8ca6ebfa0d, 0x56c388286a07ef4c),
    ("SYRK [AdaptiveCpp]", 0xca16ba8ca6ebfa0d, 0x56c388286a07ef4c),
    ("SYRK [SYCL-MLIR]", 0xca16ba8ca6ebfa0d, 0xa132e0f2af2fa449),
    ("3D Convolution [DPC++]", 0x73105faf617e04b6, 0x19f9a3e2155885d6),
    ("3D Convolution [AdaptiveCpp]", 0x73105faf617e04b6, 0x19f9a3e2155885d6),
    ("3D Convolution [SYCL-MLIR]", 0x73105faf617e04b6, 0x837f3e2d793db9ff),
    ("1D HeatTransfer (buffer) [DPC++]", 0x20b08fd21ced3387, 0xf7bee542c1919b9a),
    ("1D HeatTransfer (buffer) [SYCL-MLIR]", 0x20b08fd21ced3387, 0xa9b4cc76e26c2029),
    ("1D HeatTransfer (USM) [DPC++]", 0x57098120095f4309, 0xf7bee542c1919b9a),
    ("1D HeatTransfer (USM) [SYCL-MLIR]", 0x57098120095f4309, 0x3d931afcd4000214),
    ("iso2dfd [DPC++]", 0xe2977bae03ebe2e7, 0x4faa76017474134a),
    ("iso2dfd [AdaptiveCpp]", 0xe2977bae03ebe2e7, 0x4faa76017474134a),
    ("iso2dfd [SYCL-MLIR]", 0xe2977bae03ebe2e7, 0x637201dc907ea568),
    ("jacobi [DPC++]", 0x4826664af8a0274e, 0x38304d32588d87cb),
    ("jacobi [SYCL-MLIR]", 0x4826664af8a0274e, 0xeb25520bcb3f21b0),
    ("TreeReduce (float32) [DPC++]", 0x2c741d281b233aef, 0x7acc134b7e9994e4),
    ("TreeReduce (float32) [AdaptiveCpp]", 0x2c741d281b233aef, 0x7acc134b7e9994e4),
    ("TreeReduce (float32) [SYCL-MLIR]", 0x2c741d281b233aef, 0xd4da3ca286844215),
    ("SegScan (float32) [DPC++]", 0x7179794f1f05c7da, 0xcb61537062952e45),
    ("SegScan (float32) [AdaptiveCpp]", 0x7179794f1f05c7da, 0xcb61537062952e45),
    ("SegScan (float32) [SYCL-MLIR]", 0x7179794f1f05c7da, 0x3ad696f001a9b479),
    ("DotProd (WG-local) [DPC++]", 0x4c280acc8f6d4075, 0xdbe326580de1949a),
    ("DotProd (WG-local) [AdaptiveCpp]", 0x4c280acc8f6d4075, 0xdbe326580de1949a),
    ("DotProd (WG-local) [SYCL-MLIR]", 0x4c280acc8f6d4075, 0x34ac3dd8acd4715b),
    ("TreeReduce (dyn nd-range) [DPC++]", 0x6a56b50cd5808e61, 0x9a7d034e88a81165),
    ("TreeReduce (dyn nd-range) [AdaptiveCpp]", 0x6a56b50cd5808e61, 0x9a7d034e88a81165),
    ("TreeReduce (dyn nd-range) [SYCL-MLIR]", 0x6a56b50cd5808e61, 0x0ba83e940ce6dbfd),
    ("SpMV (CSR) [DPC++]", 0x1c30d51f9a02be40, 0xf5181758d1801656),
    ("SpMV (CSR) [AdaptiveCpp]", 0x1c30d51f9a02be40, 0xf5181758d1801656),
    ("SpMV (CSR) [SYCL-MLIR]", 0x1c30d51f9a02be40, 0x905e6137a2b9fe71),
    ("Gather [DPC++]", 0x00cb852974edc10f, 0xa5402d067eeaafe6),
    ("Gather [AdaptiveCpp]", 0x00cb852974edc10f, 0xa5402d067eeaafe6),
    ("Gather [SYCL-MLIR]", 0x00cb852974edc10f, 0x8b3e2cc7bee34cf2),
    ("Scatter [DPC++]", 0xe93bca681496e79f, 0xf9188565ed4f5b49),
    ("Scatter [AdaptiveCpp]", 0xe93bca681496e79f, 0xf9188565ed4f5b49),
    ("Scatter [SYCL-MLIR]", 0xe93bca681496e79f, 0xe4e1099cd61c2ab2),
    ("Histogram (segmented) [DPC++]", 0xd65856835a2023f6, 0xd5a130d3c62e9f54),
    ("Histogram (segmented) [AdaptiveCpp]", 0xd65856835a2023f6, 0xd5a130d3c62e9f54),
    ("Histogram (segmented) [SYCL-MLIR]", 0xd65856835a2023f6, 0x5202015882362dd6),
    ("Gather (dyn nd-range) [DPC++]", 0x225a059efd9a2cad, 0x75d861604a0a5030),
    ("Gather (dyn nd-range) [AdaptiveCpp]", 0x225a059efd9a2cad, 0x75d861604a0a5030),
    ("Gather (dyn nd-range) [SYCL-MLIR]", 0x225a059efd9a2cad, 0x2af1d7075c624bd0),
];
