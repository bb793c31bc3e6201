//! The hazard DAG over the launches of one graph run ([`LaunchDag`]) and
//! what the scheduler derives from its edges alone: structural
//! validation and the critical-path lengths that order the ready set.

use crate::interp::SimError;

/// The hazard DAG over a slice of launches: per-launch predecessor counts
/// and successor lists, indices parallel to the launch slice (for the
/// runtime's queue scheduler, submission order). Every edge points from
/// a smaller to a larger index (hazards respect submission order;
/// [`run_plan_graph_report`](super::run_plan_graph_report) rejects any
/// other), which makes the graph acyclic and puts every successor of a
/// launch after it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchDag {
    /// Number of incoming hazard edges per launch.
    pub preds: Vec<usize>,
    /// Outgoing hazard edges per launch (ascending target indices).
    pub succs: Vec<Vec<usize>>,
}

impl LaunchDag {
    /// A graph of `n` mutually independent launches (no edges).
    pub fn independent(n: usize) -> LaunchDag {
        LaunchDag {
            preds: vec![0; n],
            succs: vec![Vec::new(); n],
        }
    }

    /// A total order: launch `i` depends on launch `i - 1` — the
    /// submission-order serial schedule expressed as a graph.
    pub fn chain(n: usize) -> LaunchDag {
        let mut dag = LaunchDag::independent(n);
        for i in 1..n {
            dag.preds[i] = 1;
            dag.succs[i - 1].push(i);
        }
        dag
    }

    /// The graph over `n` launches with the given `(before, after)` edges
    /// (duplicates contribute duplicate counts and should be pre-deduped).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> LaunchDag {
        let mut dag = LaunchDag::independent(n);
        for &(i, j) in edges {
            dag.preds[j] += 1;
            dag.succs[i].push(j);
        }
        for s in &mut dag.succs {
            s.sort_unstable();
        }
        dag
    }

    /// Number of launches the graph ranges over.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Structural validation against a launch count: lengths match, every
    /// edge points forward to a launch in range, and predecessor counts
    /// agree with the successor lists.
    pub(super) fn validate(&self, n: usize) -> Result<(), SimError> {
        if self.preds.len() != n || self.succs.len() != n {
            return Err(SimError::msg(format!(
                "launch graph over {} launches given {} launches",
                self.preds.len(),
                n
            )));
        }
        let mut indeg = vec![0_usize; n];
        for (i, succ) in self.succs.iter().enumerate() {
            for &s in succ {
                if s <= i || s >= n {
                    return Err(SimError::msg(format!(
                        "edge {i} -> {s} does not point forward to one of {n} launches"
                    )));
                }
                indeg[s] += 1;
            }
        }
        if indeg != self.preds {
            return Err(SimError::msg(
                "predecessor counts disagree with successor lists",
            ));
        }
        Ok(())
    }
}

/// Per-launch critical-path lengths through `dag`: the longest
/// work-group-weighted path from each node to a sink, the priority key
/// of the ready set. Empty launches (and single-group host
/// nodes) weigh 1 so a chain of them still orders ahead of isolated
/// leaves. Walks the launches backwards: edges point forward, so every
/// successor's length is final before its predecessors read it.
pub(super) fn critical_paths(dag: &LaunchDag, geometry: &[([i64; 3], usize)]) -> Vec<u64> {
    let mut cp = vec![0_u64; dag.len()];
    for u in (0..dag.len()).rev() {
        let tail = dag.succs[u].iter().map(|&s| cp[s]).max().unwrap_or(0);
        cp[u] = (geometry[u].1.max(1) as u64).saturating_add(tail);
    }
    cp
}
