//! Programs that nest too deeply fail with an error instead of
//! overflowing the stack, which would abort the whole process: deeply
//! nested program text is refused by the parser, and deep recursion by
//! the evaluator. Each case runs on a thread with a 2 MiB stack, the
//! default for a spawned thread, through both front ends, and the
//! session keeps working afterwards.

use dbpl_lang::{LangError, Phase, Server, Session};

const STACK: usize = 2 << 20;

const SUM_TO: &str = "fun sumTo(n: Int, acc: Int): Int = \
                      if n == 0 then acc else sumTo(n - 1, acc + n)";

/// Run `f` on a fresh thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn a test thread")
        .join()
        .expect("the test thread finished without panicking");
}

/// `1` in parentheses, nested `depth` levels deep: the outermost
/// expression is the first level, each pair of parentheses one more.
fn nested(depth: usize) -> String {
    format!("{}1{}", "(".repeat(depth - 1), ")".repeat(depth - 1))
}

/// Run `bad`, which must fail in `phase`, and then `1`, which must still
/// print, on one session of each front end.
fn fails_and_recovers(phase: Phase, bad: String) {
    on_small_stack(move || {
        let check = |front: &str, run: &mut dyn FnMut(&str) -> Result<Vec<String>, LangError>| {
            let err = run(&bad).expect_err(front);
            assert_eq!(err.phase, phase, "{front}: {err:?}");
            assert_eq!(run("1").unwrap(), ["1"], "{front}: the session still runs");
        };
        let mut s = Session::new().unwrap();
        check("Session", &mut |src| s.run(src));
        let server = Server::new().unwrap();
        let mut session = server.session();
        check("ServerSession", &mut |src| session.run(src));
    });
}

#[test]
fn deeply_nested_program_text_is_a_parse_error() {
    fails_and_recovers(Phase::Parse, nested(100_000));
}

/// `n` copies of `item` joined by `sep`.
fn joined(item: &str, sep: &str, n: usize) -> String {
    vec![item; n].join(sep)
}

#[test]
fn unary_chain_and_type_nesting_is_a_parse_error_too() {
    fails_and_recovers(Phase::Parse, format!("{}1", "- ".repeat(100_000)));
    // A chain builds a tree one level deeper per operator or postfix form.
    fails_and_recovers(Phase::Parse, joined("1", " + ", 100_000));
    fails_and_recovers(Phase::Parse, format!("{{a = 1}}{}", ".a".repeat(100_000)));
    fails_and_recovers(Phase::Parse, format!("max({})", joined("1", ", ", 100_000)));
    fails_and_recovers(
        Phase::Parse,
        format!(
            "let x: {}Int{} = []",
            "List[".repeat(100_000),
            "]".repeat(100_000)
        ),
    );
}

#[test]
fn text_at_the_nesting_limit_parses_checks_and_runs() {
    let depth = dbpl_lang::MAX_NESTING;
    // The call, `len` applied and its argument take three levels, each
    // list one more.
    let lists = format!("len({}1{})", "[".repeat(depth - 3), "]".repeat(depth - 3));
    let product = joined("1", " * ", depth);
    for src in [nested(depth), lists, product] {
        on_small_stack(move || {
            let mut s = Session::new().unwrap();
            assert_eq!(s.run(&src).unwrap(), ["1"]);
            let server = Server::new().unwrap();
            assert_eq!(server.session().run(&src).unwrap(), ["1"]);
        });
    }
    on_small_stack(move || {
        let err = Session::new().unwrap().run(&nested(depth + 1)).unwrap_err();
        assert!(err.msg.contains("nested more than"), "{err:?}");
    });
}

#[test]
fn deep_recursion_is_an_evaluation_error() {
    fails_and_recovers(Phase::Eval, format!("{SUM_TO} sumTo(100000, 0)"));
    // Recursion through a builtin's function argument.
    fails_and_recovers(
        Phase::Eval,
        "fun down(n: Int): Int = if n == 0 then 0 else head(map(fn(x: Int) => down(x), [n - 1])) \
         down(100000)"
            .to_string(),
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn a_thousand_nested_calls_still_run() {
    on_small_stack(|| {
        let mut s = Session::new().unwrap();
        assert_eq!(
            s.run(&format!("{SUM_TO} sumTo(1000, 0)")).unwrap(),
            ["500500"]
        );
    });
}
