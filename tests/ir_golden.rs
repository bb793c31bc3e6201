//! Golden printed IR of everything the repo benchmark compiles.
//!
//! For each of the 141 (program, flow) pairs of the `compile_only` workload
//! — 48 registered programs × 3 flows, less the three AdaptiveCpp rows the
//! paper reports as failed — at quick size: an FNV-1a-64 of `print_module`
//! as built and after `Flow::compile`. The table was recorded at the commit
//! *before* the shared context, the context-table hasher and the structural
//! CSE key went in, so it is the proof that none of them changed a single
//! character of IR. A PR that changes IR on purpose replaces the rows the
//! failure message prints.
//!
//! Also here: the one property a context shared by every module of a thread
//! must have — what was interned before a program is built must not show in
//! its IR.

use sycl_mlir_bench::quick_size;
use sycl_mlir_repro::benchsuite::{all_workloads, WorkloadSpec};
use sycl_mlir_repro::core::{Flow, FlowKind};
use sycl_mlir_repro::ir::print_module;

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes of the printed module as built and as compiled.
fn hashes(w: &WorkloadSpec, kind: FlowKind) -> (u64, u64) {
    let mut app = (w.build)(quick_size(w));
    let built = fnv1a64(&print_module(&app.module));
    Flow::new(kind)
        .compile(&mut app.module)
        .unwrap_or_else(|e| panic!("{} [{}]: {e}", w.name, kind.name()));
    (built, fnv1a64(&print_module(&app.module)))
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
    ("KMeans (float32) [DPC++]", 0xc55f6a1562e608a5, 0x76cb0cce312a61da),
    ("KMeans (float32) [AdaptiveCpp]", 0xc55f6a1562e608a5, 0x76cb0cce312a61da),
    ("KMeans (float32) [SYCL-MLIR]", 0xc55f6a1562e608a5, 0x679fd98f2c8ee24c),
    ("KMeans (float64) [DPC++]", 0xd35b4aa42421792d, 0x8d00871aca3e08d2),
    ("KMeans (float64) [AdaptiveCpp]", 0xd35b4aa42421792d, 0x8d00871aca3e08d2),
    ("KMeans (float64) [SYCL-MLIR]", 0xd35b4aa42421792d, 0xea85942af945a4a8),
    ("LinReg (float32) [DPC++]", 0xabe25e4e04f3b039, 0x49fae01a7eb1efea),
    ("LinReg (float32) [AdaptiveCpp]", 0xabe25e4e04f3b039, 0x49fae01a7eb1efea),
    ("LinReg (float32) [SYCL-MLIR]", 0xabe25e4e04f3b039, 0xe8c1be5623a752d4),
    ("LinReg (float64) [DPC++]", 0x506045932544a6b8, 0x841120e2d993d98b),
    ("LinReg (float64) [AdaptiveCpp]", 0x506045932544a6b8, 0x841120e2d993d98b),
    ("LinReg (float64) [SYCL-MLIR]", 0x506045932544a6b8, 0x37fb01f17e911bb5),
    ("LinReg Coeff. (float32) [DPC++]", 0xc39a65aaccac0a01, 0x563045339cfcb90e),
    ("LinReg Coeff. (float32) [AdaptiveCpp]", 0xc39a65aaccac0a01, 0x563045339cfcb90e),
    ("LinReg Coeff. (float32) [SYCL-MLIR]", 0xc39a65aaccac0a01, 0x517ad18b5c85a572),
    ("LinReg Coeff. (float64) [DPC++]", 0xb5928b7a84eca635, 0x3ab19cbc292350f6),
    ("LinReg Coeff. (float64) [AdaptiveCpp]", 0xb5928b7a84eca635, 0x3ab19cbc292350f6),
    ("LinReg Coeff. (float64) [SYCL-MLIR]", 0xb5928b7a84eca635, 0x7fb29171d07daa2a),
    ("MolDyn [DPC++]", 0x3777900fcdf82425, 0x93df8a263fcfb6ce),
    ("MolDyn [AdaptiveCpp]", 0x3777900fcdf82425, 0x93df8a263fcfb6ce),
    ("MolDyn [SYCL-MLIR]", 0x3777900fcdf82425, 0x5fc49ceae3a5574b),
    ("NBody (float32) [DPC++]", 0x03cf47f735c5a252, 0xf185c12cc0676a1b),
    ("NBody (float32) [AdaptiveCpp]", 0x03cf47f735c5a252, 0xf185c12cc0676a1b),
    ("NBody (float32) [SYCL-MLIR]", 0x03cf47f735c5a252, 0x864ebf460f96c93f),
    ("NBody (float64) [DPC++]", 0x9bc29770e3e5fde4, 0x1229ac201b6acdc5),
    ("NBody (float64) [AdaptiveCpp]", 0x9bc29770e3e5fde4, 0x1229ac201b6acdc5),
    ("NBody (float64) [SYCL-MLIR]", 0x9bc29770e3e5fde4, 0x7ef7c470adbc6d05),
    ("ScalProd (float32) [DPC++]", 0xec7a9ee4d74a29c1, 0x147de6009d9980b1),
    ("ScalProd (float32) [AdaptiveCpp]", 0xec7a9ee4d74a29c1, 0x147de6009d9980b1),
    ("ScalProd (float32) [SYCL-MLIR]", 0xec7a9ee4d74a29c1, 0x1c8c77337c0fafdc),
    ("ScalProd (float64) [DPC++]", 0x2e7ca2423eb9dc49, 0xd5425241cf47fdd1),
    ("ScalProd (float64) [AdaptiveCpp]", 0x2e7ca2423eb9dc49, 0xd5425241cf47fdd1),
    ("ScalProd (float64) [SYCL-MLIR]", 0x2e7ca2423eb9dc49, 0x72ddef1e17ded0cc),
    ("ScalProd (int32) [DPC++]", 0xaa875ef88a49887e, 0xd92bfe1a8f901eaa),
    ("ScalProd (int32) [AdaptiveCpp]", 0xaa875ef88a49887e, 0xd92bfe1a8f901eaa),
    ("ScalProd (int32) [SYCL-MLIR]", 0xaa875ef88a49887e, 0x9b835802548b0f73),
    ("ScalProd (int64) [DPC++]", 0x00b398d6ddf6aa22, 0x808ed7212338ec36),
    ("ScalProd (int64) [AdaptiveCpp]", 0x00b398d6ddf6aa22, 0x808ed7212338ec36),
    ("ScalProd (int64) [SYCL-MLIR]", 0x00b398d6ddf6aa22, 0x7beda9ae97490f7b),
    ("Sobel3 [DPC++]", 0x784c43652188cb5d, 0x2d4973a7874cce89),
    ("Sobel3 [AdaptiveCpp]", 0x784c43652188cb5d, 0x2d4973a7874cce89),
    ("Sobel3 [SYCL-MLIR]", 0x784c43652188cb5d, 0x230e359d1ed2e340),
    ("Sobel5 [DPC++]", 0x939fe5618bb55138, 0x79932bbb96c228ae),
    ("Sobel5 [AdaptiveCpp]", 0x939fe5618bb55138, 0x79932bbb96c228ae),
    ("Sobel5 [SYCL-MLIR]", 0x939fe5618bb55138, 0x88030e4bafe66deb),
    ("Sobel7 [DPC++]", 0xf3cfc68b9e21e3c2, 0x965c077bb452dc55),
    ("Sobel7 [AdaptiveCpp]", 0xf3cfc68b9e21e3c2, 0x965c077bb452dc55),
    ("Sobel7 [SYCL-MLIR]", 0xf3cfc68b9e21e3c2, 0x0c8a4edb296d34db),
    ("VecAdd (float32) [DPC++]", 0xd57d51f78c611c6c, 0xf17243295f0896b0),
    ("VecAdd (float32) [AdaptiveCpp]", 0xd57d51f78c611c6c, 0xf17243295f0896b0),
    ("VecAdd (float32) [SYCL-MLIR]", 0xd57d51f78c611c6c, 0x8c396ae6193553b3),
    ("VecAdd (float64) [DPC++]", 0x0399267a6a6fd790, 0xcbcce9c2c95851bc),
    ("VecAdd (float64) [AdaptiveCpp]", 0x0399267a6a6fd790, 0xcbcce9c2c95851bc),
    ("VecAdd (float64) [SYCL-MLIR]", 0x0399267a6a6fd790, 0xd0055611ba79f39f),
    ("VecAdd (int32) [DPC++]", 0x8522eca8ecf2ced3, 0xcb030868fc0720d3),
    ("VecAdd (int32) [AdaptiveCpp]", 0x8522eca8ecf2ced3, 0xcb030868fc0720d3),
    ("VecAdd (int32) [SYCL-MLIR]", 0x8522eca8ecf2ced3, 0x9436d1cddca78664),
    ("VecAdd (int64) [DPC++]", 0x97af7039fd5b15f3, 0xd7e0ee88f449e79b),
    ("VecAdd (int64) [AdaptiveCpp]", 0x97af7039fd5b15f3, 0xd7e0ee88f449e79b),
    ("VecAdd (int64) [SYCL-MLIR]", 0x97af7039fd5b15f3, 0x7141626b739aa7c0),
    ("2D Convolution [DPC++]", 0x5442c55c16c118f0, 0xc929be35c99def22),
    ("2D Convolution [AdaptiveCpp]", 0x5442c55c16c118f0, 0xc929be35c99def22),
    ("2D Convolution [SYCL-MLIR]", 0x5442c55c16c118f0, 0x1e9612a7a90a05a4),
    ("2mm [DPC++]", 0x63605117bd73820b, 0xd031584eb02ecf4a),
    ("2mm [AdaptiveCpp]", 0x63605117bd73820b, 0xd031584eb02ecf4a),
    ("2mm [SYCL-MLIR]", 0x63605117bd73820b, 0xb65c5ee0147f958c),
    ("3mm [DPC++]", 0x8ec5267eb1f5c96c, 0x540b03f7e6e2dd47),
    ("3mm [AdaptiveCpp]", 0x8ec5267eb1f5c96c, 0x540b03f7e6e2dd47),
    ("3mm [SYCL-MLIR]", 0x8ec5267eb1f5c96c, 0x658293b7c5cef250),
    ("Atax [DPC++]", 0x35a539e6f4cb5ae7, 0xb282f3c9df75354c),
    ("Atax [AdaptiveCpp]", 0x35a539e6f4cb5ae7, 0xb282f3c9df75354c),
    ("Atax [SYCL-MLIR]", 0x35a539e6f4cb5ae7, 0x590cfe4adf9ee1c2),
    ("Bicg [DPC++]", 0x223a180a2e986365, 0x96138ec292ed1850),
    ("Bicg [AdaptiveCpp]", 0x223a180a2e986365, 0x96138ec292ed1850),
    ("Bicg [SYCL-MLIR]", 0x223a180a2e986365, 0x0d50e5d2793b4d04),
    ("Correlation [DPC++]", 0x05c474781ca0ddf7, 0x3b65ea79a57087a9),
    ("Correlation [AdaptiveCpp]", 0x05c474781ca0ddf7, 0x3b65ea79a57087a9),
    ("Correlation [SYCL-MLIR]", 0x05c474781ca0ddf7, 0x5a4c8dec41325a4a),
    ("Covariance [DPC++]", 0xe2e4005b59f33d46, 0xbfd5a5d17514b23b),
    ("Covariance [AdaptiveCpp]", 0xe2e4005b59f33d46, 0xbfd5a5d17514b23b),
    ("Covariance [SYCL-MLIR]", 0xe2e4005b59f33d46, 0xb4a7c6e8d6f8627b),
    ("FDTD2D [DPC++]", 0xd9bf10824881db8e, 0xed76a234b4f0e302),
    ("FDTD2D [AdaptiveCpp]", 0xd9bf10824881db8e, 0xed76a234b4f0e302),
    ("FDTD2D [SYCL-MLIR]", 0xd9bf10824881db8e, 0x475df33aeb172bdc),
    ("GEMM [DPC++]", 0x7ecb765120ddd5fe, 0xfbf8d679e99896d3),
    ("GEMM [AdaptiveCpp]", 0x7ecb765120ddd5fe, 0xfbf8d679e99896d3),
    ("GEMM [SYCL-MLIR]", 0x7ecb765120ddd5fe, 0x20c884feb0e7d155),
    ("GESUMMV [DPC++]", 0x4194e20bac8dea08, 0x873e72becfda485c),
    ("GESUMMV [AdaptiveCpp]", 0x4194e20bac8dea08, 0x873e72becfda485c),
    ("GESUMMV [SYCL-MLIR]", 0x4194e20bac8dea08, 0xcbd7378f8befd4d4),
    ("Gramschmidt [DPC++]", 0x83b19996c3bd5dc0, 0x1dc044182f4e60e6),
    ("Gramschmidt [AdaptiveCpp]", 0x83b19996c3bd5dc0, 0x1dc044182f4e60e6),
    ("Gramschmidt [SYCL-MLIR]", 0x83b19996c3bd5dc0, 0x343e00daf730510c),
    ("MVT [DPC++]", 0xdbc355087b55f5d9, 0x74eb2710f2a33272),
    ("MVT [AdaptiveCpp]", 0xdbc355087b55f5d9, 0x74eb2710f2a33272),
    ("MVT [SYCL-MLIR]", 0xdbc355087b55f5d9, 0xc95777e621e69a34),
    ("SYR2K [DPC++]", 0xbf1af52ee608bf3e, 0xae28d12ae424e704),
    ("SYR2K [AdaptiveCpp]", 0xbf1af52ee608bf3e, 0xae28d12ae424e704),
    ("SYR2K [SYCL-MLIR]", 0xbf1af52ee608bf3e, 0x493bfc767681dd27),
    ("SYRK [DPC++]", 0xca16ba8ca6ebfa0d, 0xa891583e1791ac60),
    ("SYRK [AdaptiveCpp]", 0xca16ba8ca6ebfa0d, 0xa891583e1791ac60),
    ("SYRK [SYCL-MLIR]", 0xca16ba8ca6ebfa0d, 0xa132e0f2af2fa449),
    ("3D Convolution [DPC++]", 0x73105faf617e04b6, 0xfcdb3291c8ee9852),
    ("3D Convolution [AdaptiveCpp]", 0x73105faf617e04b6, 0xfcdb3291c8ee9852),
    ("3D Convolution [SYCL-MLIR]", 0x73105faf617e04b6, 0x837f3e2d793db9ff),
    ("1D HeatTransfer (buffer) [DPC++]", 0xbb87e8ca744c5e08, 0xa3cb0b2e94f07369),
    ("1D HeatTransfer (buffer) [SYCL-MLIR]", 0xbb87e8ca744c5e08, 0x05e783cb47e7809f),
    ("1D HeatTransfer (USM) [DPC++]", 0x6bd519c94f863bbb, 0x146c4622be1c20a9),
    ("1D HeatTransfer (USM) [SYCL-MLIR]", 0x6bd519c94f863bbb, 0x47b8b9c949c08012),
    ("iso2dfd [DPC++]", 0x8e1d550f4166d0cc, 0xdfce418f20981778),
    ("iso2dfd [AdaptiveCpp]", 0x8e1d550f4166d0cc, 0xdfce418f20981778),
    ("iso2dfd [SYCL-MLIR]", 0x8e1d550f4166d0cc, 0xe27acc8c8d418695),
    ("jacobi [DPC++]", 0x1349d79ba8fc6a63, 0x42f1ae1cc42f516f),
    ("jacobi [SYCL-MLIR]", 0x1349d79ba8fc6a63, 0xaae42bcd0810af1d),
    ("TreeReduce (float32) [DPC++]", 0x2c741d281b233aef, 0xed30181d921a4e1e),
    ("TreeReduce (float32) [AdaptiveCpp]", 0x2c741d281b233aef, 0xed30181d921a4e1e),
    ("TreeReduce (float32) [SYCL-MLIR]", 0x2c741d281b233aef, 0xd4da3ca286844215),
    ("SegScan (float32) [DPC++]", 0x7179794f1f05c7da, 0x10c48bd1c648aa19),
    ("SegScan (float32) [AdaptiveCpp]", 0x7179794f1f05c7da, 0x10c48bd1c648aa19),
    ("SegScan (float32) [SYCL-MLIR]", 0x7179794f1f05c7da, 0x3ad696f001a9b479),
    ("DotProd (WG-local) [DPC++]", 0x4c280acc8f6d4075, 0xb8da98e034f4884f),
    ("DotProd (WG-local) [AdaptiveCpp]", 0x4c280acc8f6d4075, 0xb8da98e034f4884f),
    ("DotProd (WG-local) [SYCL-MLIR]", 0x4c280acc8f6d4075, 0x34ac3dd8acd4715b),
    ("TreeReduce (dyn nd-range) [DPC++]", 0x6a56b50cd5808e61, 0xae2a1757eb295658),
    ("TreeReduce (dyn nd-range) [AdaptiveCpp]", 0x6a56b50cd5808e61, 0xae2a1757eb295658),
    ("TreeReduce (dyn nd-range) [SYCL-MLIR]", 0x6a56b50cd5808e61, 0x3dc5469ceb222e64),
    ("SpMV (CSR) [DPC++]", 0x1c30d51f9a02be40, 0xf40d4c4d4d5ead90),
    ("SpMV (CSR) [AdaptiveCpp]", 0x1c30d51f9a02be40, 0xf40d4c4d4d5ead90),
    ("SpMV (CSR) [SYCL-MLIR]", 0x1c30d51f9a02be40, 0x905e6137a2b9fe71),
    ("Gather [DPC++]", 0x00cb852974edc10f, 0x5c42c3139dbfeb0f),
    ("Gather [AdaptiveCpp]", 0x00cb852974edc10f, 0x5c42c3139dbfeb0f),
    ("Gather [SYCL-MLIR]", 0x00cb852974edc10f, 0x8b3e2cc7bee34cf2),
    ("Scatter [DPC++]", 0xe93bca681496e79f, 0x766dc8af77fe6e33),
    ("Scatter [AdaptiveCpp]", 0xe93bca681496e79f, 0x766dc8af77fe6e33),
    ("Scatter [SYCL-MLIR]", 0xe93bca681496e79f, 0xe4e1099cd61c2ab2),
    ("Histogram (segmented) [DPC++]", 0xd65856835a2023f6, 0xde095bc793956e43),
    ("Histogram (segmented) [AdaptiveCpp]", 0xd65856835a2023f6, 0xde095bc793956e43),
    ("Histogram (segmented) [SYCL-MLIR]", 0xd65856835a2023f6, 0x5202015882362dd6),
    ("Gather (dyn nd-range) [DPC++]", 0x225a059efd9a2cad, 0x1efdf0e121f75d54),
    ("Gather (dyn nd-range) [AdaptiveCpp]", 0x225a059efd9a2cad, 0x1efdf0e121f75d54),
    ("Gather (dyn nd-range) [SYCL-MLIR]", 0x225a059efd9a2cad, 0x35c5e183005a517c),
];
