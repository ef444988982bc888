//! Type-soundness smoke test: expressions generated to be well-typed by
//! construction must (a) be accepted by the checker at the expected type
//! and (b) evaluate — without type-shaped runtime failures — to a value
//! of that type. Division is generated with non-zero literal divisors, so
//! any runtime error at all is a soundness bug.

use dbpl_lang::{infer_expr, parse_expr, Session};
use dbpl_types::{Type, TypeEnv};
use proptest::prelude::*;

/// The scalar type a generated expression will have.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Bool,
    Str,
}

fn gen_expr(kind: Kind) -> BoxedStrategy<String> {
    fn int(depth: u32) -> BoxedStrategy<String> {
        if depth == 0 {
            return (0i64..50).prop_map(|i| i.to_string()).boxed();
        }
        prop_oneof![
            (0i64..50).prop_map(|i| i.to_string()),
            (int(depth - 1), int(depth - 1)).prop_map(|(a, b)| format!("({a} + {b})")),
            (int(depth - 1), int(depth - 1)).prop_map(|(a, b)| format!("({a} * {b})")),
            (int(depth - 1), int(depth - 1)).prop_map(|(a, b)| format!("({a} - {b})")),
            // Non-zero literal divisor keeps evaluation total.
            (int(depth - 1), 1i64..9).prop_map(|(a, b)| format!("({a} / {b})")),
            (boolean(depth - 1), int(depth - 1), int(depth - 1))
                .prop_map(|(c, t, e)| format!("(if {c} then {t} else {e})")),
            prop::collection::vec(int(depth - 1), 0..3)
                .prop_map(|xs| format!("len([{}])", xs.join(", "))),
            (int(depth - 1)).prop_map(|a| format!("(let v = {a} in v + v)")),
            // Shadowing: an inner `let`, a lambda parameter and a `case`
            // binder rebind `v`, a closure captures the outer `v` before
            // it is shadowed, and the generated operands may bind `v`
            // again inside each scope.
            (int(depth - 1), int(depth - 1))
                .prop_map(|(a, b)| format!("(let v = {a} in (let v = v + {b} in v * v) - v)")),
            (int(depth - 1), int(depth - 1))
                .prop_map(|(a, b)| format!("(let v = {a} in (fn(v: Int) => v * 2)({b}) + v)")),
            (int(depth - 1), int(depth - 1)).prop_map(|(a, b)| {
                format!("(let v = {a} in let f = fn(w: Int) => v + w in (let v = {b} in f(v)))")
            }),
            (int(depth - 1), int(depth - 1))
                .prop_map(|(a, b)| format!("(let v = {a} in case (tag A {b}) of A v => v - 1)")),
            (int(depth - 1), int(depth - 1)).prop_map(|(a, b)| {
                format!("(let v = {a} in let g = fn(x: Int, v: Int) => x * v in g(v)({b}))")
            }),
            (int(depth - 1), int(depth - 1))
                .prop_map(|(a, b)| format!("((fn(x: Int, y: Int) => x + y)({a}, {b}))")),
            (int(depth - 1)).prop_map(|a| format!("{{F = {a}}}.F")),
            (int(depth - 1)).prop_map(|a| format!("(coerce (dynamic {a}) to Int)")),
            (int(depth - 1), int(depth - 1))
                .prop_map(|(a, b)| format!("(case (tag A {a}) of A x => x + {b})")),
        ]
        .boxed()
    }
    fn boolean(depth: u32) -> BoxedStrategy<String> {
        if depth == 0 {
            return prop_oneof![Just("true".to_string()), Just("false".to_string())].boxed();
        }
        prop_oneof![
            Just("true".to_string()),
            Just("false".to_string()),
            (int(depth - 1), int(depth - 1)).prop_map(|(a, b)| format!("({a} < {b})")),
            (int(depth - 1), int(depth - 1)).prop_map(|(a, b)| format!("({a} == {b})")),
            (boolean(depth - 1), boolean(depth - 1)).prop_map(|(a, b)| format!("({a} and {b})")),
            (boolean(depth - 1), boolean(depth - 1)).prop_map(|(a, b)| format!("({a} or {b})")),
            boolean(depth - 1).prop_map(|a| format!("(not {a})")),
        ]
        .boxed()
    }
    fn string(depth: u32) -> BoxedStrategy<String> {
        if depth == 0 {
            return "[a-z]{0,4}".prop_map(|s| format!("'{s}'")).boxed();
        }
        prop_oneof![
            "[a-z]{0,4}".prop_map(|s| format!("'{s}'")),
            (string(depth - 1), string(depth - 1)).prop_map(|(a, b)| format!("({a} ++ {b})")),
            (boolean(depth - 1), string(depth - 1), string(depth - 1))
                .prop_map(|(c, t, e)| format!("(if {c} then {t} else {e})")),
            string(depth - 1).prop_map(|a| format!("(typeof (dynamic {a}))")),
        ]
        .boxed()
    }
    match kind {
        Kind::Int => int(3),
        Kind::Bool => boolean(3),
        Kind::Str => string(3),
    }
}

fn assert_sound(src: &str, kind: Kind) -> Result<(), TestCaseError> {
    let expr = parse_expr(src).unwrap_or_else(|e| panic!("generated unparseable `{src}`: {e}"));
    let env = TypeEnv::new();
    let ty = infer_expr(&expr, &env).unwrap_or_else(|e| panic!("generated ill-typed `{src}`: {e}"));
    let expected = match kind {
        Kind::Int => Type::Int,
        Kind::Bool => Type::Bool,
        Kind::Str => Type::Str,
    };
    prop_assert_eq!(&ty, &expected, "inferred {} for `{}`", ty, src);

    let mut session = Session::new().unwrap();
    let out = session
        .run(src)
        .unwrap_or_else(|e| panic!("well-typed `{src}` failed at runtime: {e}"));
    prop_assert_eq!(out.len(), 1, "`{}` printed {:?}", src, session.out);
    let printed = &out[0];
    match kind {
        Kind::Int => prop_assert!(
            printed.parse::<i64>().is_ok(),
            "`{}` printed non-Int {:?}",
            src,
            printed
        ),
        Kind::Bool => prop_assert!(
            printed == "true" || printed == "false",
            "`{}` printed non-Bool {:?}",
            src,
            printed
        ),
        Kind::Str => prop_assert!(
            printed.starts_with('\''),
            "`{}` printed non-Str {:?}",
            src,
            printed
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn int_expressions_are_sound(src in gen_expr(Kind::Int)) {
        assert_sound(&src, Kind::Int)?;
    }

    #[test]
    fn bool_expressions_are_sound(src in gen_expr(Kind::Bool)) {
        assert_sound(&src, Kind::Bool)?;
    }

    #[test]
    fn str_expressions_are_sound(src in gen_expr(Kind::Str)) {
        assert_sound(&src, Kind::Str)?;
    }
}
