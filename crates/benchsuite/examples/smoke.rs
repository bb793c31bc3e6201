use sycl_mlir_benchsuite::{all_workloads, run_workload};
use sycl_mlir_core::FlowKind;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    for w in all_workloads() {
        if !names.is_empty() && !names.iter().any(|n| w.name.contains(n.as_str())) {
            continue;
        }
        for kind in FlowKind::all() {
            let t = std::time::Instant::now();
            match run_workload(&w, w.scaled_size, kind) {
                Ok(r) => {
                    println!(
                        "{:-28} {:-12} cycles={:>14.0} valid={} wall={:?}",
                        w.name,
                        kind.name(),
                        r.cycles,
                        r.valid(),
                        t.elapsed()
                    );
                    if std::env::var("NOTES").is_ok() {
                        for n in &r.compile_notes {
                            println!("    note: {n}");
                        }
                        println!("    stats: {:?}", r.stats);
                    }
                }
                Err(e) => println!("{:-28} {:-12} ERROR: {e}", w.name, kind.name()),
            }
        }
    }
}
