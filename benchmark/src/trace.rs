//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the crates is instrumented: a span is two clock
//! reads in this package, kept in a `Vec` until the run ends.

use crate::json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for an iteration.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one (application, flow) attempt;
    /// 0 for spans above an op.
    pub op: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    /// Label of each op id, index `op - 1`.
    pub op_labels: Vec<String>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_labels: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn current_op(&self) -> u32 {
        self.stack
            .last()
            .map_or(0, |&id| self.spans[id as usize].op)
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str) -> u32 {
        let op = self.current_op();
        self.push(name, op, self.now_ns())
    }

    /// Open the root span of a new op and give it a fresh op id.
    pub fn open_op(&mut self, label: &str) -> u32 {
        self.op_labels.push(label.to_string());
        let op = self.op_labels.len() as u32;
        self.push("op", op, self.now_ns())
    }

    fn push(&mut self, name: &str, op: u32, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Close every span opened after `id`, then `id` itself: how an op that
    /// failed part-way leaves the stack as it found it.
    pub fn close_through(&mut self, id: u32) {
        while let Some(&top) = self.stack.last() {
            self.close(top);
            if top == id {
                return;
            }
        }
    }

    /// Record an already-measured child of the innermost open span, for
    /// durations a layer reports itself (per-pass times from `PassStats`).
    pub fn child(&mut self, name: &str, start_ns: u64, dur_ns: u64) {
        let op = self.current_op();
        let id = self.push(name, op, start_ns);
        self.stack.pop();
        self.spans[id as usize].end_ns = start_ns + dur_ns;
    }

    /// Self time of every span, indexed by id: its duration minus the part
    /// of that interval its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let covered = s
                    .end_ns
                    .min(parent.end_ns)
                    .saturating_sub(s.start_ns.max(parent.start_ns));
                own[p as usize] = own[p as usize].saturating_sub(covered);
            }
        }
        own
    }

    pub fn to_json(&self) -> Value {
        let num = |n: u64| Value::Num(n as f64);
        Value::obj(vec![
            ("unit", Value::str("ns since the tracer was created")),
            (
                "ops",
                Value::Arr(
                    self.op_labels
                        .iter()
                        .enumerate()
                        .map(|(i, label)| {
                            Value::obj(vec![
                                ("op", num(i as u64 + 1)),
                                ("label", Value::str(label.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::obj(vec![
                                ("id", num(u64::from(s.id))),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| num(u64::from(p))),
                                ),
                                ("op", num(u64::from(s.op))),
                                ("name", Value::str(s.name.as_str())),
                                ("start", num(s.start_ns)),
                                ("end", num(s.end_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer whose spans were given explicit times.
    fn fixed(spans: &[(Option<u32>, &str, u64, u64)]) -> Tracer {
        let mut t = Tracer::new();
        for (i, &(parent, name, start, end)) in spans.iter().enumerate() {
            t.spans.push(Span {
                id: i as u32,
                parent,
                op: 1,
                name: name.into(),
                start_ns: start,
                end_ns: end,
            });
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = fixed(&[
            (None, "op", 0, 100),
            (Some(0), "build", 5, 25),
            (Some(0), "compile", 30, 90),
            (Some(2), "pass.cse", 30, 50),
            (Some(2), "pass.licm", 50, 85),
        ]);
        assert_eq!(t.self_times_ns(), vec![20, 20, 5, 20, 35]);
    }

    #[test]
    fn a_child_past_its_parent_covers_only_the_overlap() {
        // Per-pass children are laid end to end from the compile start; if
        // rounding pushes the last one past the parent, self time stays 0.
        let t = fixed(&[(None, "compile", 0, 10), (Some(0), "pass.cse", 4, 14)]);
        assert_eq!(t.self_times_ns(), vec![4, 10]);
    }

    #[test]
    fn open_close_nesting_and_op_ids() {
        let mut t = Tracer::new();
        let it = t.open("iteration");
        let op = t.open_op("GEMM [SYCL-MLIR]");
        let b = t.open("build");
        t.close(b);
        t.child("pass.cse", 7, 3);
        let c = t.open("compile");
        // An op that fails inside `compile` unwinds to its own root.
        t.close_through(op);
        t.close(it);
        assert_eq!(t.spans[b as usize].parent, Some(op));
        assert_eq!(t.spans[b as usize].op, 1);
        assert_eq!(t.spans[3].parent, Some(op));
        assert_eq!((t.spans[3].start_ns, t.spans[3].end_ns), (7, 10));
        assert_eq!(t.spans[c as usize].op, 1);
        assert_eq!(t.spans[it as usize].op, 0);
        assert_eq!(t.op_labels, vec!["GEMM [SYCL-MLIR]".to_string()]);
        let parsed = crate::json::parse(&t.to_json().render()).unwrap();
        assert_eq!(parsed.get("spans").unwrap().as_arr().unwrap().len(), 5);
    }
}
