//! Pass manager infrastructure.
//!
//! Mirrors MLIR's pass pipeline: passes run in order over a module, the
//! verifier runs between passes, and the IR can be dumped after each pass
//! (used by the Fig. 1 reproduction to show the compilation flow stage by
//! stage).

use crate::module::Module;
use crate::printer::print_module;
use crate::verifier::verify_counting;
use std::time::{Duration, Instant};

/// A module-level transformation.
pub trait Pass {
    /// Human-readable pass name (e.g. `"licm"`).
    fn name(&self) -> &'static str;

    /// Run on the module; return whether any change was made.
    ///
    /// # Errors
    ///
    /// Returns a message describing an unrecoverable pass failure.
    fn run(&mut self, module: &mut Module) -> Result<bool, String>;

    /// What the pass did over its runs so far, in one line — for passes
    /// that keep statistics.
    fn note(&self) -> Option<String> {
        None
    }
}

/// A borrowed pass is a pass: a pipeline can run passes its caller keeps,
/// to read their statistics afterwards.
impl<P: Pass + ?Sized> Pass for &mut P {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn run(&mut self, module: &mut Module) -> Result<bool, String> {
        (**self).run(module)
    }

    fn note(&self) -> Option<String> {
        (**self).note()
    }
}

/// Execution record for one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// `(pass name, wall time, changed)` per executed pass.
    pub per_pass: Vec<(String, Duration, bool)>,
    /// Wall time spent in the verifier between passes.
    pub verify_time: Duration,
    /// Passes after which the verifier ran.
    pub verifies_run: u32,
    /// Passes that left the module exactly as it was last verified, so the
    /// verifier did not run again.
    pub verifies_skipped: u32,
    /// Ops the verifier visited, summed over its runs: the verifier's work,
    /// as a count that does not move with machine load.
    pub verify_ops: u64,
}

impl PassStats {
    /// Whether any pass reported a change.
    pub fn any_changed(&self) -> bool {
        self.per_pass.iter().any(|(_, _, c)| *c)
    }
}

/// Ordered pipeline of passes, owned or borrowed for `'p`.
///
/// The module is verified after every pass that touched it. "Touched" is
/// read off [`Module::mutation_epoch`], never the pass's own `changed`
/// report: the verifier's verdict is a function of the module's content and
/// the op registry (whose entries never change once registered), so a
/// module at the epoch it was last verified at needs no second look.
///
/// ```
/// use sycl_mlir_ir::{Context, Module, Pass, PassManager};
///
/// struct Nop;
/// impl Pass for Nop {
///     fn name(&self) -> &'static str { "nop" }
///     fn run(&mut self, _m: &mut Module) -> Result<bool, String> { Ok(false) }
/// }
///
/// let ctx = Context::new();
/// let mut m = Module::new(&ctx);
/// let mut pm = PassManager::new();
/// pm.add_pass(Nop);
/// let stats = pm.run(&mut m).unwrap();
/// assert_eq!(stats.per_pass.len(), 1);
/// ```
pub struct PassManager<'p> {
    passes: Vec<Box<dyn Pass + 'p>>,
    /// Capture the IR after each pass into [`PassManager::dumps`].
    pub dump_after_each: bool,
    /// `(pass name, IR text)` captured when [`PassManager::dump_after_each`]
    /// is set.
    pub dumps: Vec<(String, String)>,
}

impl Default for PassManager<'_> {
    fn default() -> Self {
        PassManager::new()
    }
}

impl<'p> PassManager<'p> {
    pub fn new() -> Self {
        PassManager {
            passes: Vec::new(),
            dump_after_each: false,
            dumps: Vec::new(),
        }
    }

    /// Append a pass to the pipeline: a pass value, or `&mut pass` to keep
    /// the pass (and what it recorded) after the run.
    pub fn add_pass(&mut self, pass: impl Pass + 'p) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Append an already boxed pass (a pipeline assembled from a table of
    /// constructors), without boxing it again.
    pub fn add_boxed_pass(&mut self, pass: Box<dyn Pass + 'p>) -> &mut Self {
        self.passes.push(pass);
        self
    }

    /// The [`Pass::note`] of every pass that has one, in pipeline order.
    pub fn notes(&self) -> Vec<String> {
        self.passes.iter().filter_map(|p| p.note()).collect()
    }

    /// Names of the registered passes, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run the pipeline.
    ///
    /// # Errors
    ///
    /// Returns the failing pass's message, or the verifier's report if a
    /// pass broke the IR.
    pub fn run(&mut self, module: &mut Module) -> Result<PassStats, String> {
        let mut stats = PassStats::default();
        // `(module id, epoch)` of the last module state that verified; the
        // id covers a pass that swaps in a different module.
        let mut verified_at = None;
        for pass in &mut self.passes {
            let start = Instant::now();
            let changed = pass
                .run(module)
                .map_err(|e| format!("pass `{}` failed: {e}", pass.name()))?;
            stats
                .per_pass
                .push((pass.name().to_string(), start.elapsed(), changed));
            let state = Some((module.module_id(), module.mutation_epoch()));
            if verified_at == state {
                stats.verifies_skipped += 1;
            } else {
                let start = Instant::now();
                let (verdict, visited) = verify_counting(module, module.top());
                stats.verify_time += start.elapsed();
                stats.verifies_run += 1;
                stats.verify_ops += visited;
                verdict.map_err(|e| format!("IR invalid after pass `{}`:\n{e}", pass.name()))?;
                verified_at = state;
            }
            if self.dump_after_each {
                self.dumps
                    .push((pass.name().to_string(), print_module(module)));
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::OpInfo;
    use crate::{Builder, Context};

    struct AddOp;

    impl Pass for AddOp {
        fn name(&self) -> &'static str {
            "add-op"
        }

        fn run(&mut self, m: &mut Module) -> Result<bool, String> {
            let block = m.top_block();
            let mut b = Builder::at_end(m, block);
            b.build("t.mark", &[], &[], vec![]);
            Ok(true)
        }
    }

    struct Failing;

    impl Pass for Failing {
        fn name(&self) -> &'static str {
            "failing"
        }

        fn run(&mut self, _m: &mut Module) -> Result<bool, String> {
            Err("boom".into())
        }
    }

    #[test]
    fn runs_in_order_and_records_stats() {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("t.mark"));
        let mut m = Module::new(&ctx);
        let mut pm = PassManager::new();
        pm.add_pass(AddOp).add_pass(AddOp);
        let stats = pm.run(&mut m).unwrap();
        assert_eq!(stats.per_pass.len(), 2);
        assert!(stats.any_changed());
        assert_eq!(m.block_ops(m.top_block()).len(), 2);
    }

    #[test]
    fn failure_is_reported_with_pass_name() {
        let ctx = Context::new();
        let mut m = Module::new(&ctx);
        let mut pm = PassManager::new();
        pm.add_pass(Failing);
        let err = pm.run(&mut m).unwrap_err();
        assert!(err.contains("failing"), "{err}");
        assert!(err.contains("boom"), "{err}");
    }

    #[test]
    fn dumps_after_each_when_enabled() {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("t.mark"));
        let mut m = Module::new(&ctx);
        let mut pm = PassManager::new();
        pm.dump_after_each = true;
        pm.add_pass(AddOp);
        pm.run(&mut m).unwrap();
        assert_eq!(pm.dumps.len(), 1);
        assert!(pm.dumps[0].1.contains("t.mark"));
    }
    thread_local! {
        /// Calls of `t.probe`'s verify hook: one per verifier run over a
        /// module holding one such op.
        static VERIFIES_SEEN: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    /// A module holding one `t.probe`, whose verify hook counts.
    fn probed_module() -> Module {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("t.mark"));
        ctx.register_op(OpInfo::new("t.ret").with_traits(crate::traits::TERMINATOR));
        ctx.register_op(OpInfo::new("t.probe").with_verify(|_, _| {
            VERIFIES_SEEN.with(|n| n.set(n.get() + 1));
            Ok(())
        }));
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        Builder::at_end(&mut m, block).build("t.probe", &[], &[], vec![]);
        VERIFIES_SEEN.with(|n| n.set(0));
        m
    }

    /// Runs `edit` on the module and reports "no change" whatever it did.
    struct Quiet {
        name: &'static str,
        runs: u32,
        edit: fn(&mut Module),
    }

    impl Quiet {
        fn new(name: &'static str, edit: fn(&mut Module)) -> Quiet {
            Quiet {
                name,
                runs: 0,
                edit,
            }
        }
    }

    impl Pass for Quiet {
        fn name(&self) -> &'static str {
            self.name
        }

        fn run(&mut self, m: &mut Module) -> Result<bool, String> {
            self.runs += 1;
            (self.edit)(m);
            Ok(false)
        }
    }

    fn add_mark(m: &mut Module) {
        let block = m.top_block();
        Builder::at_end(m, block).build("t.mark", &[], &[], vec![]);
    }

    /// A terminator followed by another op: invalid.
    fn break_ir(m: &mut Module) {
        let block = m.top_block();
        Builder::at_end(m, block).build("t.ret", &[], &[], vec![]);
        add_mark(m);
    }

    #[test]
    fn verifier_runs_when_the_epoch_moved_whatever_the_pass_reports() {
        let mut m = probed_module();
        let mut pm = PassManager::new();
        pm.add_pass(Quiet::new("untouched-1", |_| {})) // first pass: always verified
            .add_pass(Quiet::new("untouched-2", |_| {})) // same module: skipped
            .add_pass(Quiet::new("silent-edit", add_mark)) // Ok(false), but edited: verified
            .add_pass(Quiet::new("untouched-3", |_| {})); // skipped
        let stats = pm.run(&mut m).unwrap();
        assert!(!stats.any_changed());
        assert_eq!((stats.verifies_run, stats.verifies_skipped), (2, 2));
        // The root and the probe, then the root, the probe and the mark.
        assert_eq!(stats.verify_ops, 2 + 3);
        assert_eq!(VERIFIES_SEEN.with(|n| n.get()), 2);
    }

    #[test]
    fn breakage_after_a_skipped_verify_names_the_breaking_pass() {
        let mut m = probed_module();
        let mut pm = PassManager::new();
        pm.add_pass(Quiet::new("untouched-1", |_| {}))
            .add_pass(Quiet::new("untouched-2", |_| {}))
            .add_pass(Quiet::new("breaker", break_ir))
            .add_pass(Quiet::new("never-runs", |_| {}));
        let err = pm.run(&mut m).unwrap_err();
        assert_eq!(
            err,
            "IR invalid after pass `breaker`:\n\
             verifier: `t.ret` inside `builtin.module`: terminator is not the last operation of its block"
        );
        assert_eq!(VERIFIES_SEEN.with(|n| n.get()), 2);
    }

    #[test]
    fn borrowed_passes_keep_their_state_for_the_caller() {
        let mut m = probed_module();
        let mut kept = Quiet::new("kept", add_mark);
        let mut pm = PassManager::new();
        pm.add_pass(&mut kept).add_pass(AddOp);
        assert_eq!(pm.pass_names(), ["kept", "add-op"]);
        let stats = pm.run(&mut m).unwrap();
        drop(pm);
        assert_eq!(kept.runs, 1);
        assert_eq!(stats.per_pass[0].0, "kept");
    }
}
