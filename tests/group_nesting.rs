//! The limits a pattern meets on its way to a program, each on a 2 MiB
//! thread — Rust's default for a spawned thread, which the server's
//! connection threads use — in this unoptimized build, whose frames are
//! the largest:
//! - the parser's group-nesting limit: the deepest pattern it admits, in
//!   each shape a group takes (plain, an alternative, starred, optional),
//!   compiles, lowers to the host engine and runs, and one level deeper is
//!   a parse error in both front-ends;
//! - the ISA's 8,192-instruction wall: patterns whose counted quantifiers
//!   expand up to it compile, lower and run, and ones that multiply far
//!   past it are refused with an error while they are lowered.

use cicero::compiler::{compile, Compiler};
use cicero::frontend::parser::MAX_GROUP_NESTING;
use cicero::hostexec::{EngineKind, HostProgram};

/// Run `f` on a 2 MiB thread; a stack overflow aborts the test process.
fn on_a_2_mib_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let thread = std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap();
    thread.join().unwrap_or_else(|_| panic!("panicked on a 2 MiB thread"))
}

/// `depth` nested groups around `a`, opened by `open` and closed by `close`.
fn nested(depth: usize, open: &str, close: &str) -> String {
    format!("{}a{}", open.repeat(depth), close.repeat(depth))
}

const SHAPES: [(&str, &str); 4] = [("(", ")"), ("(b|", ")"), ("(", ")*"), ("(", ")?")];

#[test]
fn the_deepest_admitted_groups_compile_on_a_2_mib_thread() {
    for (open, close) in SHAPES {
        let pattern = nested(MAX_GROUP_NESTING, open, close);
        let run = on_a_2_mib_thread(move || {
            let program = compile(&pattern).expect("the deepest nesting compiles").into_program();
            let set = Compiler::new().compile_set(&[pattern.as_str(), "zz"]).expect("as a set");
            let host = HostProgram::compile(set.program());
            (HostProgram::compile(&program).run(b"xxaxx").accepted, host.run_all(b"xazz"))
        });
        assert!(run.0, "{open}…{close}");
        assert_eq!(run.1.matched_ids, [0, 1], "{open}…{close}");
    }
}

#[test]
fn one_level_deeper_is_a_parse_error_in_both_frontends() {
    for (open, close) in SHAPES {
        let pattern = nested(MAX_GROUP_NESTING + 1, open, close);
        let err = cicero::frontend::parse(&pattern).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{open}…{close}: {err}");
        assert!(cicero::legacy::parser::parse(&pattern).is_err(), "{open}…{close}");
        assert!(compile(&pattern).is_err(), "{open}…{close}");
    }
}

#[test]
fn patterns_expanding_up_to_the_instruction_wall_compile_lower_and_run_on_a_2_mib_thread() {
    let any = |n: usize| "x".repeat(n);
    let cases = [
        // The longest gap under the wall: 8,174 instructions.
        (format!("a{}.{{1000}}b", ".{1024}".repeat(7)), format!("a{}b", any(8_168))),
        ("(a{1024}){7}".to_owned(), "a".repeat(7_168)),
        ("((ab){1024}){3}".to_owned(), "ab".repeat(3_072)),
        ("a.{1024}.{976}b".to_owned(), format!("a{}b", any(2_000))),
    ];
    for (pattern, witness) in cases {
        let shown = pattern.chars().take(40).collect::<String>();
        let run = on_a_2_mib_thread(move || {
            let program = compile(&pattern).expect("compiles").into_program();
            let set = Compiler::new().compile_set(&[pattern.as_str(), "zz"]).expect("as a set");
            let (one, both) = (HostProgram::compile(&program), HostProgram::compile(set.program()));
            let input = [witness.as_bytes(), b"zz"].concat();
            let kinds = [one.engine_kind(), both.engine_kind()];
            (program.len(), kinds, one.run(witness.as_bytes()).accepted, both.run_all(&input))
        });
        assert!(run.0 <= 8_192, "{shown}: {} instructions", run.0);
        assert_eq!(run.1, [EngineKind::BitWide; 2], "{shown}");
        assert!(run.2, "{shown}");
        assert_eq!(run.3.matched_ids, [0, 1], "{shown}");
    }
}

#[test]
fn patterns_multiplying_past_the_instruction_wall_are_refused_on_a_2_mib_thread() {
    for pattern in ["(a{1024}){1024}", "((a{1024}){1024}){1024}"] {
        let errors = on_a_2_mib_thread(move || {
            let one = compile(pattern).map(|_| ()).unwrap_err().to_string();
            let set = Compiler::new().compile_set(&[pattern, "zz"]).map(|_| ()).unwrap_err();
            [one, set.to_string()]
        });
        for error in errors {
            assert!(error.contains("8192-instruction address space"), "{pattern}: {error}");
        }
    }
}
