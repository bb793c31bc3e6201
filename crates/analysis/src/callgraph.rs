//! Call graph over `func.call` edges, used by the inter-procedural
//! uniformity analysis (§V-C: "the analysis works inter-procedurally by
//! using the call graph").

use sycl_mlir_ir::{FxHashMap, FxHashSet};
use sycl_mlir_ir::{Module, OpId, WalkControl};

/// Call graph for the functions directly inside one module op.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// caller func -> call ops within it
    pub calls_in: FxHashMap<OpId, Vec<OpId>>,
    /// callee func -> (caller func, call op)
    pub callers_of: FxHashMap<OpId, Vec<(OpId, OpId)>>,
    /// All functions in the scope, in program order.
    pub funcs: Vec<OpId>,
}

impl CallGraph {
    /// Build the call graph for all functions under `scope` (a module op).
    pub fn build(m: &Module, scope: OpId) -> CallGraph {
        let mut cg = CallGraph {
            funcs: m.funcs_in(scope),
            ..CallGraph::default()
        };
        for &func in &cg.funcs {
            let mut calls = Vec::new();
            m.walk(func, &mut |op| {
                if m.op_is(op, "func.call") {
                    calls.push(op);
                }
                WalkControl::Advance
            });
            for &call in &calls {
                if let Some(callee) = sycl_mlir_dialects::func::callee(m, call) {
                    cg.callers_of.entry(callee).or_default().push((func, call));
                }
            }
            cg.calls_in.insert(func, calls);
        }
        cg
    }

    /// Functions ordered callees-before-callers (reverse topological,
    /// cycles broken arbitrarily).
    pub fn bottom_up(&self) -> Vec<OpId> {
        let mut order = Vec::new();
        let mut visited = FxHashSet::default();
        // Count outgoing edges via callers_of inversion.
        let mut callees: FxHashMap<OpId, Vec<OpId>> = FxHashMap::default();
        for (&callee, callers) in &self.callers_of {
            for &(caller, _) in callers {
                callees.entry(caller).or_default().push(callee);
            }
        }
        fn visit(
            f: OpId,
            callees: &FxHashMap<OpId, Vec<OpId>>,
            visited: &mut FxHashSet<OpId>,
            order: &mut Vec<OpId>,
        ) {
            if !visited.insert(f) {
                return;
            }
            if let Some(cs) = callees.get(&f) {
                for &c in cs {
                    visit(c, callees, visited, order);
                }
            }
            order.push(f);
        }
        for &f in &self.funcs {
            visit(f, &callees, &mut visited, &mut order);
        }
        order
    }

    /// `true` if the function has no known callers inside the scope.
    pub fn is_root(&self, func: OpId) -> bool {
        self.callers_of.get(&func).is_none_or(|v| v.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_mlir_dialects::func::{build_call, build_func, build_return};
    use sycl_mlir_ir::{Builder, Context, Module};

    #[test]
    fn builds_edges_and_bottom_up_order() {
        let ctx = Context::new();
        sycl_mlir_dialects::register_all(&ctx);
        let mut m = Module::new(&ctx);
        let top = m.top();
        let (leaf, leaf_entry) = build_func(&mut m, top, "leaf", &[], &[]);
        {
            let mut b = Builder::at_end(&mut m, leaf_entry);
            build_return(&mut b, &[]);
        }
        let (root, root_entry) = build_func(&mut m, top, "root", &[], &[]);
        {
            let mut b = Builder::at_end(&mut m, root_entry);
            build_call(&mut b, "leaf", &[], &[]);
            build_return(&mut b, &[]);
        }
        let cg = CallGraph::build(&m, m.top());
        assert_eq!(cg.funcs.len(), 2);
        assert_eq!(cg.callers_of.get(&leaf).map(|v| v.len()), Some(1));
        assert!(cg.is_root(root));
        assert!(!cg.is_root(leaf));
        let order = cg.bottom_up();
        let leaf_pos = order.iter().position(|&f| f == leaf).unwrap();
        let root_pos = order.iter().position(|&f| f == root).unwrap();
        assert!(leaf_pos < root_pos);
    }
}
