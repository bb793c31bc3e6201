//! The hazard DAG over the launches of one graph run ([`LaunchDag`]) and
//! what the scheduler derives from its edges alone: Kahn levels,
//! structural validation and the critical-path lengths that order the
//! ready set.

use crate::interp::SimError;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// The hazard DAG over a slice of launches: per-launch predecessor counts
/// and successor lists, indices parallel to the launch slice (for the
/// runtime's queue scheduler, submission order). Edges always point from
/// a smaller to a larger index in well-formed graphs (hazards respect
/// submission order), which is what makes them acyclic.
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

    /// Kahn's worklist over the graph: each node's longest-path level
    /// plus the number of nodes visited (`== len()` iff acyclic). The
    /// single traversal both [`LaunchDag::levels`] and
    /// [`LaunchDag::validate`] interpret, so the two can never disagree
    /// about what constitutes a cycle.
    fn kahn_levels(&self) -> (Vec<usize>, usize) {
        let n = self.len();
        let mut indeg = self.preds.clone();
        let mut level = vec![0_usize; n];
        let mut work: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0_usize;
        while let Some(u) = work.pop_front() {
            seen += 1;
            for &s in &self.succs[u] {
                level[s] = level[s].max(level[u] + 1);
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    work.push_back(s);
                }
            }
        }
        (level, seen)
    }

    /// Partition into **dependency levels** by longest path from a root:
    /// level `k` holds every launch all of whose predecessors sit in
    /// levels `< k`. Within a level, indices ascend.
    ///
    /// # Panics
    ///
    /// Debug-asserts acyclicity (hazard DAGs are acyclic by construction);
    /// nodes on a cycle would be dropped.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let (level, seen) = self.kahn_levels();
        debug_assert_eq!(seen, self.len(), "launch graph has a cycle");
        let depth = level.iter().copied().max().map_or(0, |d| d + 1);
        let mut levels = vec![Vec::new(); depth];
        for (i, &l) in level.iter().enumerate() {
            levels[l].push(i);
        }
        for l in &mut levels {
            l.sort_unstable();
        }
        levels
    }

    /// Structural validation against a launch count: lengths match, edge
    /// targets are in range, predecessor counts agree with the successor
    /// lists, and the graph is acyclic.
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
                if s >= n {
                    return Err(SimError::msg(format!(
                        "edge {i} -> {s} out of range ({n} launches)"
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
        // Kahn's walk visits every node iff the graph is acyclic. Safe to
        // run only now: it trusts `preds`, checked consistent above.
        let (_, seen) = self.kahn_levels();
        if seen != n {
            return Err(SimError::msg("launch graph has a cycle"));
        }
        Ok(())
    }
}

/// Per-launch critical-path lengths through `dag`: the longest
/// work-group-weighted path from each node to a sink, the priority key
/// of the ready set. Empty launches (and single-group host
/// nodes) weigh 1 so a chain of them still orders ahead of isolated
/// leaves. Processes nodes in decreasing Kahn level, so every
/// successor's length is final before its predecessors read it.
pub(super) fn critical_paths(dag: &LaunchDag, geometry: &[([i64; 3], usize)]) -> Vec<u64> {
    let (level, _) = dag.kahn_levels();
    let n = dag.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&i| Reverse(level[i]));
    let mut cp = vec![0_u64; n];
    for &u in &order {
        let tail = dag.succs[u].iter().map(|&s| cp[s]).max().unwrap_or(0);
        cp[u] = (geometry[u].1.max(1) as u64).saturating_add(tail);
    }
    cp
}
