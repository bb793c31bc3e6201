//! The quick sweep held to `data/paper_pins.txt`: both SYCL-Bench
//! geo-means within the file's tolerance of their pins, every SYCL-MLIR
//! speed-up in its pinned direction, and AdaptiveCpp's missing bars
//! exactly the injected ones.

use std::cmp::Ordering;
use sycl_mlir_bench::{geo_means, pins, run_category_on, speedup_sign, Row};
use sycl_mlir_benchsuite::{all_workloads, Category};
use sycl_mlir_sim::Device;

#[test]
fn the_quick_sweep_matches_its_pins() {
    let pins = pins();
    let device = Device::new();
    let categories = [
        Category::SingleKernel,
        Category::Polybench,
        Category::Stencil,
        Category::Reduction,
        Category::Sparse,
    ];
    let rows: Vec<(Category, Row)> = categories
        .into_iter()
        .flat_map(|c| {
            run_category_on(c, true, &device)
                .into_iter()
                .map(move |r| (c, r))
        })
        .collect();

    let sycl_bench = rows
        .iter()
        .filter(|(c, _)| matches!(c, Category::SingleKernel | Category::Polybench))
        .map(|(_, r)| r);
    let (sm, acpp) = geo_means(sycl_bench);
    println!("paper_pins: geo-means SYCL-MLIR {sm:.4}, AdaptiveCpp {acpp:.4}");
    for (flow, got, pin) in [
        ("SYCL-MLIR", sm, pins.sycl_mlir),
        ("AdaptiveCpp", acpp, pins.adaptivecpp),
    ] {
        assert!(
            (got - pin.reproduced).abs() <= pins.tolerance,
            "{flow} geo-mean {got:.4} is not within {} of its pin {} (paper: {})",
            pins.tolerance,
            pin.reproduced,
            pin.paper
        );
    }

    let mark = |o: Ordering| match o {
        Ordering::Greater => "+",
        Ordering::Less => "-",
        Ordering::Equal => "=",
    };
    let mut unpinned = Vec::new();
    for (_, r) in &rows {
        let s = r.speedup(2);
        let got = speedup_sign(s);
        match pins.signs.iter().find(|(name, _)| name == r.name) {
            Some((_, pinned)) => assert_eq!(
                got,
                *pinned,
                "{}: SYCL-MLIR speed-up {s:.4} is `{}`, pinned `{}`",
                r.name,
                mark(got),
                mark(*pinned)
            ),
            None => unpinned.push(format!("speed-up {} {}", mark(got), r.name)),
        }
    }
    assert!(
        unpinned.is_empty(),
        "workloads without a pinned direction; add to data/paper_pins.txt:\n{}",
        unpinned.join("\n")
    );
    assert_eq!(
        pins.signs.len(),
        rows.len(),
        "a pin names no workload of the sweep"
    );

    let missing: Vec<&str> = rows
        .iter()
        .filter(|(_, r)| r.speedup(1).is_nan())
        .map(|(_, r)| r.name)
        .collect();
    let injected: Vec<&str> = all_workloads()
        .into_iter()
        .filter(|w| w.in_figure && w.acpp_fails)
        .map(|w| w.name)
        .collect();
    assert_eq!(
        missing, injected,
        "AdaptiveCpp's missing bars are the injected failures"
    );
    assert_eq!(
        pins.acpp_injected, injected,
        "data/paper_pins.txt lists the injected failures"
    );
}
