//! Property-based tests on the IR kernel: printer/parser round-trips,
//! interning laws, and affine-expression linearity.

use proptest::prelude::*;
use std::ops::{Add, Mul};
use sycl_mlir_ir::affine::AffineExpr;
use sycl_mlir_ir::{parse_module, print_module, Attribute, Builder, Context, Module, OpInfo};

fn test_ctx() -> Context {
    let ctx = Context::new();
    ctx.register_op(
        OpInfo::new("func.func")
            .with_traits(sycl_mlir_ir::traits::ISOLATED_FROM_ABOVE | sycl_mlir_ir::traits::SYMBOL),
    );
    ctx.register_op(OpInfo::new("func.return").with_traits(sycl_mlir_ir::traits::TERMINATOR));
    ctx.register_op(OpInfo::new("t.op"));
    ctx
}

/// Floats over the whole range: small exact values, every bit pattern,
/// and by name ±0, the smallest subnormal, magnitudes whose decimal form
/// has no point (1e15, 2^63, 1e30), NaN and ±inf.
fn float_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1000..1000i64).prop_map(|v| v as f64 / 8.0),
        any::<u64>().prop_map(f64::from_bits),
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        Just(1e15),
        Just(9_223_372_036_854_775_808.0),
        Just(1e30),
        Just(-1e30),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Attributes whose `Display` form round-trips exactly.
fn attr_strategy() -> impl Strategy<Value = Attribute> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Attribute::Int),
        float_strategy().prop_map(Attribute::Float),
        proptest::collection::vec(float_strategy(), 0..4).prop_map(Attribute::DenseF64),
        any::<bool>().prop_map(Attribute::Bool),
        "[a-z][a-z0-9_]{0,8}".prop_map(Attribute::Str),
        Just(Attribute::Unit),
        proptest::collection::vec(any::<i64>(), 0..6).prop_map(Attribute::DenseI64),
        proptest::collection::vec("[a-z][a-z0-9_]{0,5}", 1..3).prop_map(Attribute::SymbolRef),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Attribute::Array)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print → parse → print is a fixed point for arbitrary attributes.
    #[test]
    fn attribute_roundtrip(attrs in proptest::collection::vec(attr_strategy(), 1..5)) {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let mut b = Builder::at_end(&mut m, block);
        let keys: Vec<String> = (0..attrs.len()).map(|i| format!("k{i}")).collect();
        let named = keys.iter().map(String::as_str).zip(attrs).collect();
        b.build("t.op", &[], &[], named);
        let printed = print_module(&m);
        let reparsed = parse_module(&ctx, &printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        prop_assert_eq!(print_module(&reparsed), printed);
    }

    /// A float attribute reads back as the same `f64`, bit for bit, and
    /// as a float, never an integer.
    #[test]
    fn float_roundtrip_is_bit_exact(x in float_strategy()) {
        let ctx = test_ctx();
        let mut m = Module::new(&ctx);
        let block = m.top_block();
        let mut b = Builder::at_end(&mut m, block);
        let attrs = vec![
            ("f", Attribute::Float(x)),
            ("d", Attribute::DenseF64(vec![x, -x])),
        ];
        let op = b.build("t.op", &[], &[], attrs);
        let printed = print_module(&m);
        let reparsed = parse_module(&ctx, &printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let op2 = reparsed.block_ops(reparsed.top_block())[0];
        let bits = |a: Option<&Attribute>| match a {
            Some(Attribute::Float(v)) => vec![v.to_bits()],
            Some(Attribute::DenseF64(v)) => v.iter().map(|v| v.to_bits()).collect(),
            other => panic!("not a float: {other:?}"),
        };
        prop_assert_eq!(bits(reparsed.attr(op2, "f")), bits(m.attr(op, "f")));
        prop_assert_eq!(bits(reparsed.attr(op2, "d")), bits(m.attr(op, "d")));
    }

    /// Interned types are pointer-equal iff structurally equal.
    #[test]
    fn type_interning_law(shape in proptest::collection::vec(-1..64i64, 0..3),
                          shape2 in proptest::collection::vec(-1..64i64, 0..3)) {
        let ctx = test_ctx();
        let a = ctx.memref_type(ctx.f32_type(), &shape);
        let b = ctx.memref_type(ctx.f32_type(), &shape);
        let c = ctx.memref_type(ctx.f32_type(), &shape2);
        prop_assert_eq!(a.clone(), b);
        prop_assert_eq!(shape == shape2, a == c);
    }

    /// `as_linear` agrees with `eval` on random linear expressions.
    #[test]
    fn affine_linear_matches_eval(coeffs in proptest::collection::vec(-50..50i64, 1..4),
                                  konst in -100..100i64,
                                  point in proptest::collection::vec(-20..20i64, 4)) {
        let n = coeffs.len();
        let mut expr = AffineExpr::Const(konst);
        for (i, &c) in coeffs.iter().enumerate() {
            expr = expr.add(AffineExpr::Dim(i).mul(AffineExpr::Const(c)));
        }
        let (got_coeffs, got_konst) = expr.as_linear(n).expect("linear by construction");
        prop_assert_eq!(&got_coeffs, &coeffs);
        prop_assert_eq!(got_konst, konst);
        let dims = &point[..n];
        let direct: i64 = coeffs.iter().zip(dims).map(|(c, d)| c * d).sum::<i64>() + konst;
        prop_assert_eq!(expr.eval(dims, &[]), direct);
    }
}
