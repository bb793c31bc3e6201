//! Attributes: compile-time constant data attached to operations.
//!
//! Unlike types, attributes are stored by value on operations (they are small
//! and rarely shared), matching how this reproduction uses them: constants,
//! symbol names, dense data for host-propagated arrays, and affine maps from
//! the memory access analysis.

use crate::affine::AffineMap;
use crate::types::Type;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Interned attribute key; index into the context's key table.
///
/// Operations store their attributes under interned keys, so hot paths (the
/// simulator's decode stage, CSE, folding) can look attributes up with an
/// integer compare instead of a string scan. Resolve a key once with
/// [`crate::Context::attr_key`] and reuse it via
/// [`crate::Module::attr_by_id`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct AttrKey(pub u32);

/// A compile-time constant value attached to an operation.
#[derive(Clone, PartialEq, Debug)]
pub enum Attribute {
    /// Presence-only marker.
    Unit,
    /// Boolean.
    Bool(bool),
    /// Signless integer constant (also used for `index`).
    Int(i64),
    /// Floating-point constant (stored as `f64`; `f32` constants round-trip).
    Float(f64),
    /// String.
    Str(String),
    /// A type as payload (e.g. `function_type` on `func.func`).
    Type(Type),
    /// Heterogeneous array.
    Array(Vec<Attribute>),
    /// Dense integer data (e.g. constant ND-ranges).
    DenseI64(Vec<i64>),
    /// Dense floating-point data (e.g. a host-propagated filter array).
    DenseF64(Vec<f64>),
    /// Possibly-nested symbol reference, e.g. `@device::@kernel`.
    SymbolRef(Vec<String>),
    /// An affine map (used by analysis results and tiling metadata).
    AffineMap(AffineMap),
}

impl Attribute {
    /// `true` if both attributes denote the same constant: the same variant
    /// with the same payload, floats by bit pattern. It is the equivalence
    /// of the printed form, hence what CSE may merge: `0.0` and `-0.0`
    /// differ, `Int(1)` and `Bool(true)` differ, a NaN is itself and no
    /// other NaN (the printed form keeps its sign and payload). (`==` is
    /// the numeric comparison: it equates the two zeros and no NaN with
    /// anything.)
    pub fn same_constant(&self, other: &Attribute) -> bool {
        let same_float = |a: &f64, b: &f64| a.to_bits() == b.to_bits();
        match (self, other) {
            (Attribute::Float(a), Attribute::Float(b)) => same_float(a, b),
            (Attribute::DenseF64(a), Attribute::DenseF64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_float(x, y))
            }
            (Attribute::Array(a), Attribute::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_constant(y))
            }
            _ => self == other,
        }
    }

    /// Feed `state` a hash under which [`Attribute::same_constant`]
    /// attributes collide.
    pub fn hash_constant<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Attribute::Unit => {}
            Attribute::Bool(b) => b.hash(state),
            Attribute::Int(v) => v.hash(state),
            Attribute::Float(v) => v.to_bits().hash(state),
            Attribute::Str(s) => s.hash(state),
            Attribute::Type(t) => t.hash(state),
            Attribute::Array(items) => {
                items.len().hash(state);
                for item in items {
                    item.hash_constant(state);
                }
            }
            Attribute::DenseI64(v) => v.hash(state),
            Attribute::DenseF64(v) => {
                v.len().hash(state);
                for x in v {
                    x.to_bits().hash(state);
                }
            }
            Attribute::SymbolRef(path) => path.hash(state),
            Attribute::AffineMap(map) => map.hash(state),
        }
    }

    /// Convenience constructor for a single-level symbol reference.
    pub fn symbol(name: impl Into<String>) -> Attribute {
        Attribute::SymbolRef(vec![name.into()])
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v) => Some(*v),
            Attribute::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attribute::Float(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_type(&self) -> Option<&Type> {
        match self {
            Attribute::Type(t) => Some(t),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Attribute]> {
        match self {
            Attribute::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_dense_i64(&self) -> Option<&[i64]> {
        match self {
            Attribute::DenseI64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_symbol_ref(&self) -> Option<&[String]> {
        match self {
            Attribute::SymbolRef(path) => Some(path),
            _ => None,
        }
    }

    pub fn as_affine_map(&self) -> Option<&AffineMap> {
        match self {
            Attribute::AffineMap(m) => Some(m),
            _ => None,
        }
    }
}

/// Write `x` so that the parser reads it back as the same `f64`, bit for
/// bit. A finite value prints as the shortest decimal that round-trips,
/// always with a point or an exponent (`1.0`, `0.1`, `-0.0`, `1e30`,
/// `5e-324`), so it never reads back as an integer. NaN and ±inf have no
/// decimal form: they print as their bit pattern in hexadecimal, as MLIR
/// prints them (`0x7FF0000000000000` is +inf), which keeps a NaN's sign
/// and payload.
fn write_f64(f: &mut fmt::Formatter<'_>, x: f64) -> fmt::Result {
    if x.is_finite() {
        write!(f, "{x:?}")
    } else {
        write!(f, "0x{:016X}", x.to_bits())
    }
}

/// Read one float as [`Attribute`]'s `Display` writes it: a decimal, or a
/// `0x` bit pattern.
pub(crate) fn parse_f64(text: &str) -> Result<f64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(bits) => u64::from_str_radix(bits, 16).ok().map(f64::from_bits),
        None => text.parse::<f64>().ok(),
    };
    parsed.ok_or_else(|| format!("bad float `{text}`"))
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Unit => write!(f, "unit"),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Int(v) => write!(f, "{v}"),
            Attribute::Float(v) => write_f64(f, *v),
            Attribute::Str(s) => write!(f, "{s:?}"),
            Attribute::Type(t) => write!(f, "{t}"),
            Attribute::Array(items) => {
                write!(f, "[")?;
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            Attribute::DenseI64(v) => {
                write!(f, "densei64<")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ">")
            }
            Attribute::DenseF64(v) => {
                write!(f, "densef64<")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write_f64(f, *x)?;
                }
                write!(f, ">")
            }
            Attribute::SymbolRef(path) => {
                for (i, p) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, "::")?;
                    }
                    write!(f, "@{p}")?;
                }
                Ok(())
            }
            Attribute::AffineMap(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_basics() {
        assert_eq!(Attribute::Int(42).to_string(), "42");
        assert_eq!(Attribute::Float(2.0).to_string(), "2.0");
        assert_eq!(Attribute::Float(2.5).to_string(), "2.5");
        assert_eq!(Attribute::Bool(true).to_string(), "true");
        assert_eq!(Attribute::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(
            Attribute::SymbolRef(vec!["device".into(), "k".into()]).to_string(),
            "@device::@k"
        );
        assert_eq!(
            Attribute::DenseI64(vec![1, 2]).to_string(),
            "densei64<1, 2>"
        );
    }

    /// `same_constant` against the printed form it stands in for, and
    /// `hash_constant` against `same_constant`.
    #[test]
    fn same_constant_is_equality_of_the_printed_form() {
        let ctx = crate::Context::new();
        let nan_payload = f64::from_bits(f64::NAN.to_bits() | 1);
        assert!(nan_payload.is_nan());
        let attrs = [
            Attribute::Unit,
            Attribute::Bool(true),
            Attribute::Int(1),
            Attribute::Int(0),
            Attribute::Float(1.0),
            Attribute::Float(0.0),
            Attribute::Float(-0.0),
            Attribute::Float(f64::NAN),
            Attribute::Float(nan_payload),
            Attribute::Float(-f64::NAN),
            Attribute::Float(f64::INFINITY),
            Attribute::Str("1".into()),
            Attribute::Type(ctx.i32_type()),
            Attribute::Type(ctx.index_type()),
            Attribute::Array(vec![Attribute::Float(0.0)]),
            Attribute::Array(vec![Attribute::Float(-0.0)]),
            Attribute::Array(vec![Attribute::Float(f64::NAN)]),
            Attribute::DenseI64(vec![1]),
            Attribute::DenseF64(vec![1.0]),
            Attribute::DenseF64(vec![1.0, 2.0]),
            Attribute::DenseF64(vec![1.0, 2.5]),
            Attribute::DenseF64(vec![f64::NAN]),
            Attribute::DenseF64(vec![nan_payload]),
            Attribute::symbol("k"),
            Attribute::AffineMap(AffineMap::new(1, vec![crate::AffineExpr::Dim(0)])),
        ];
        let hash = |a: &Attribute| {
            let mut h = crate::FxHasher::default();
            a.hash_constant(&mut h);
            h.finish()
        };
        for a in &attrs {
            for b in &attrs {
                let same = a.same_constant(b);
                assert_eq!(same, a.to_string() == b.to_string(), "{a} vs {b}");
                if same {
                    assert_eq!(hash(a), hash(b), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Attribute::Int(7).as_int(), Some(7));
        assert_eq!(Attribute::Bool(true).as_int(), Some(1));
        assert_eq!(Attribute::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Attribute::Str("x".into()).as_str(), Some("x"));
        assert!(Attribute::Unit.as_int().is_none());
        let arr = Attribute::Array(vec![Attribute::Int(1)]);
        assert_eq!(arr.as_array().unwrap().len(), 1);
    }
}
