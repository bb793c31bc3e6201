//! Textual IR printer.
//!
//! The format mirrors MLIR's generic operation syntax with custom forms for
//! `builtin.module` and `func.func`:
//!
//! ```text
//! builtin.module {
//!   func.func @axpy(%0: f32, %1: memref<?xf32>) -> () {
//!     %2 = arith.constant() {value = 0} : () -> (index)
//!     %3 = memref.load(%1, %2) : (memref<?xf32>, index) -> (f32)
//!     ...
//!     func.return() : () -> ()
//!   }
//! }
//! ```
//!
//! Value names are globally unique (`%0`, `%1`, …) in print order, so the
//! output parses back with [`crate::parser::parse_module`].

use crate::module::{BlockId, Module, OpId, ValueId};
use std::collections::HashMap;
use std::fmt::Write;

struct Namer {
    names: HashMap<ValueId, String>,
    next: usize,
}

impl Namer {
    fn new() -> Namer {
        Namer {
            names: HashMap::new(),
            next: 0,
        }
    }

    fn name(&mut self, v: ValueId) -> String {
        if let Some(n) = self.names.get(&v) {
            return n.clone();
        }
        let n = format!("%{}", self.next);
        self.next += 1;
        self.names.insert(v, n.clone());
        n
    }
}

/// Print a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let mut namer = Namer::new();
    print_op_rec(m, m.top(), &mut namer, 0, &mut out);
    out
}

/// Print a single operation subtree (fresh value numbering).
pub fn print_op(m: &Module, op: OpId) -> String {
    let mut out = String::new();
    let mut namer = Namer::new();
    print_op_rec(m, op, &mut namer, 0, &mut out);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_attr_dict(m: &Module, op: OpId, skip: &[&str], out: &mut String) -> bool {
    let attrs: Vec<_> = m
        .op_attrs(op)
        .iter()
        .map(|(k, v)| (m.attr_key_str(*k), v))
        .filter(|(k, _)| !skip.contains(&&**k))
        .collect();
    if attrs.is_empty() {
        return false;
    }
    out.push('{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{k} = {v}");
    }
    out.push('}');
    true
}

fn print_region(
    m: &Module,
    op: OpId,
    region_index: usize,
    namer: &mut Namer,
    level: usize,
    out: &mut String,
) {
    let block = m.op_region_block(op, region_index);
    out.push_str(" {\n");
    print_block_body(m, block, namer, level + 1, out);
    indent(out, level);
    out.push('}');
}

fn print_block_body(m: &Module, block: BlockId, namer: &mut Namer, level: usize, out: &mut String) {
    let args = m.block_args(block).to_vec();
    if !args.is_empty() {
        indent(out, level);
        out.push_str("^(");
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let n = namer.name(*a);
            let _ = write!(out, "{n}: {}", m.value_type(*a));
        }
        out.push_str("):\n");
    }
    for &inner in m.block_ops(block) {
        print_op_rec(m, inner, namer, level, out);
    }
}

fn print_op_rec(m: &Module, op: OpId, namer: &mut Namer, level: usize, out: &mut String) {
    let name = m.op_name_str(op);
    indent(out, level);
    match &*name {
        "builtin.module" => {
            out.push_str("builtin.module");
            if let Some(sym) = m.symbol_name(op) {
                let _ = write!(out, " @{sym}");
            }
            out.push(' ');
            if print_attr_dict(m, op, &["sym_name"], out) {
                out.push(' ');
            }
            out.pop(); // balance: remove trailing space before region brace
            print_region(m, op, 0, namer, level, out);
            out.push('\n');
        }
        "func.func" => {
            let sym = m.symbol_name(op).unwrap_or("<anon>").to_string();
            let _ = write!(out, "func.func @{sym}(");
            let block = m.op_region_block(op, 0);
            let args = m.block_args(block).to_vec();
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let n = namer.name(*a);
                let _ = write!(out, "{n}: {}", m.value_type(*a));
            }
            out.push_str(") -> (");
            if let Some(fty) = m.attr(op, "function_type").and_then(|a| a.as_type()) {
                if let Some((_, results)) = fty.function_signature() {
                    for (i, t) in results.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{t}");
                    }
                }
            }
            out.push(')');
            let mut tmp = String::new();
            if print_attr_dict(m, op, &["sym_name", "function_type"], &mut tmp) {
                let _ = write!(out, " attributes {tmp}");
            }
            out.push_str(" {\n");
            // Do not reprint the block header: func args are in the signature.
            for &inner in m.block_ops(block) {
                print_op_rec(m, inner, namer, level + 1, out);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        _ => {
            let results = m.op_results(op).to_vec();
            for (i, r) in results.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let n = namer.name(*r);
                out.push_str(&n);
            }
            if !results.is_empty() {
                out.push_str(" = ");
            }
            out.push_str(&name);
            out.push('(');
            let operands = m.op_operands(op).to_vec();
            for (i, v) in operands.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let n = namer.name(*v);
                out.push_str(&n);
            }
            out.push_str(") ");
            if print_attr_dict(m, op, &[], out) {
                out.push(' ');
            }
            out.push_str(": (");
            for (i, v) in operands.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", m.value_type(*v));
            }
            out.push_str(") -> (");
            for (i, r) in results.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}", m.value_type(*r));
            }
            out.push(')');
            for i in 0..m.op_regions(op).len() {
                print_region(m, op, i, namer, level, out);
            }
            out.push('\n');
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dialect::OpInfo;
    use crate::{Attribute, Builder, Context, Module};

    #[test]
    fn prints_generic_ops() {
        let ctx = Context::new();
        ctx.register_op(OpInfo::new("test.make"));
        ctx.register_op(OpInfo::new("test.use"));
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let mut b = Builder::at_end(&mut m, block);
        let i32t = b.ctx().i32_type();
        let v = b.build_value("test.make", &[], i32t, vec![("k", Attribute::Int(3))]);
        b.build("test.use", &[v], &[], vec![]);
        let text = super::print_module(&m);
        assert!(
            text.contains("%0 = test.make() {k = 3} : () -> (i32)"),
            "got:\n{text}"
        );
        assert!(text.contains("test.use(%0) : (i32) -> ()"), "got:\n{text}");
        assert!(text.starts_with("builtin.module {"), "got:\n{text}");
    }
}
