//! The parser's group-nesting limit: the deepest pattern it admits, in
//! each shape a group takes (plain, an alternative, starred, optional),
//! compiles, lowers to the host engine and runs on a 2 MiB thread —
//! Rust's default for a spawned thread, which the server's connection
//! threads use — in this unoptimized build, whose frames are the
//! largest; and one level deeper is a parse error in both front-ends.

use cicero::compiler::{compile, Compiler};
use cicero::frontend::parser::MAX_GROUP_NESTING;
use cicero::hostexec::HostProgram;

/// `depth` nested groups around `a`, opened by `open` and closed by `close`.
fn nested(depth: usize, open: &str, close: &str) -> String {
    format!("{}a{}", open.repeat(depth), close.repeat(depth))
}

const SHAPES: [(&str, &str); 4] = [("(", ")"), ("(b|", ")"), ("(", ")*"), ("(", ")?")];

#[test]
fn the_deepest_admitted_groups_compile_on_a_2_mib_thread() {
    for (open, close) in SHAPES {
        let pattern = nested(MAX_GROUP_NESTING, open, close);
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let program =
                    compile(&pattern).expect("the deepest nesting compiles").into_program();
                let set = Compiler::new().compile_set(&[pattern.as_str(), "zz"]).expect("as a set");
                let host = HostProgram::compile(set.program());
                (HostProgram::compile(&program).run(b"xxaxx").accepted, host.run_all(b"xazz"))
            })
            .unwrap()
            .join()
            .unwrap_or_else(|_| panic!("{open}…{close} at depth {MAX_GROUP_NESTING} panicked"));
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
