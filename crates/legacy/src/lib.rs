//! The **old** Cicero compiler: a faithful reimplementation of the
//! original single-IR flow the paper uses as its baseline (§2.1, §5).
//!
//! Characteristics reproduced from the original:
//!
//! * **Premature lowering**: there is a single level of IR. Right after
//!   parsing, basic blocks are mapped to instruction memory and control
//!   instructions are generated with *absolute addresses*. All subsequent
//!   optimization happens on this mapped code and must re-patch addresses.
//! * **Code Restructuring** (§5, Figure 5): the only optimization. It
//!   reorganizes the root alternation's chain of `SPLIT`s into a balanced
//!   tree of minimal depth — treating the implicit `.*` prefix as one more
//!   leaf — which reduces jump count and split depth but scatters basic
//!   blocks, *hurting* code locality (Figure 6, Listing 2 middle column).
//! * **Dynamic implementation style**: the original compiler was written
//!   in Python. To model its constant factors honestly in a Rust
//!   workspace, this crate works on dynamically typed [`value::Value`]
//!   objects (tagged dictionaries and lists) throughout parsing, emission
//!   and restructuring, converting to the typed ISA representation only at
//!   the very end. See DESIGN.md for the substitution rationale.
//!
//! Without optimizations the old compiler emits the same layout as the new
//! one (Listing 2, left column); the compilers diverge only in what their
//! optimizations do and what they cost.
//!
//! # Example
//!
//! ```
//! use cicero_legacy::LegacyCompiler;
//!
//! let old = LegacyCompiler::new(true); // with Code Restructuring
//! let program = old.compile("ab|cd")?;
//! assert_eq!(program.total_jump_offset(), 21); // Listing 2, middle column
//! # Ok::<(), cicero_legacy::LegacyError>(())
//! ```

pub mod emit;
pub mod parser;
pub mod restructure;
pub mod value;

use std::fmt;

use cicero_isa::{Instruction, Program, ProgramError};

use value::Value;

/// A compile failure in the legacy flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegacyError {
    /// Human-readable description (the original reported plain strings).
    pub message: String,
}

impl LegacyError {
    pub(crate) fn new(message: impl Into<String>) -> LegacyError {
        LegacyError { message: message.into() }
    }
}

impl fmt::Display for LegacyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "legacy compiler error: {}", self.message)
    }
}

impl std::error::Error for LegacyError {}

impl From<ProgramError> for LegacyError {
    fn from(e: ProgramError) -> LegacyError {
        LegacyError::new(e.to_string())
    }
}

/// The old single-IR compiler.
#[derive(Debug, Clone, Copy)]
pub struct LegacyCompiler {
    optimize: bool,
}

impl LegacyCompiler {
    /// Create a compiler; `optimize` enables Code Restructuring.
    pub fn new(optimize: bool) -> LegacyCompiler {
        LegacyCompiler { optimize }
    }

    /// Compile a pattern.
    ///
    /// # Errors
    ///
    /// Returns a [`LegacyError`] for malformed patterns or programs
    /// exceeding instruction memory.
    pub fn compile(&self, pattern: &str) -> Result<Program, LegacyError> {
        let ast = parser::parse(pattern)?;
        let mut mapped = emit::emit(&ast)?;
        if self.optimize {
            restructure::code_restructuring(&mut mapped)?;
        }
        into_program(&mapped.code)
    }
}

/// Convert the dict-instruction list into a validated ISA program.
fn into_program(code: &[Value]) -> Result<Program, LegacyError> {
    let mut instructions = Vec::with_capacity(code.len());
    for (index, ins) in code.iter().enumerate() {
        let op = ins
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| LegacyError::new(format!("instruction {index} lacks an op")))?;
        let arg = || {
            ins.get("arg")
                .and_then(Value::as_int)
                .ok_or_else(|| LegacyError::new(format!("instruction {index} lacks an arg")))
        };
        let target = || -> Result<u16, LegacyError> {
            let raw = arg()?;
            u16::try_from(raw)
                .map_err(|_| LegacyError::new(format!("target {raw} out of range at {index}")))
        };
        let ch = || -> Result<u8, LegacyError> {
            let raw = arg()?;
            u8::try_from(raw)
                .map_err(|_| LegacyError::new(format!("char {raw} out of range at {index}")))
        };
        instructions.push(match op {
            "SPLIT" => Instruction::Split(target()?),
            "JMP" => Instruction::Jump(target()?),
            "MATCH" => Instruction::Match(ch()?),
            "NOT_MATCH" => Instruction::NotMatch(ch()?),
            "MATCH_ANY" => Instruction::MatchAny,
            "ACCEPT" => Instruction::Accept,
            "ACCEPT_PARTIAL" => Instruction::AcceptPartial,
            other => return Err(LegacyError::new(format!("unknown op `{other}` at {index}"))),
        });
    }
    Ok(Program::from_instructions(instructions)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unoptimized_matches_listing2_left_column() {
        use Instruction::*;
        let program = LegacyCompiler::new(false).compile("ab|cd").unwrap();
        assert_eq!(
            program.instructions(),
            &[
                Split(3),
                MatchAny,
                Jump(0),
                Split(8),
                Match(b'a'),
                Match(b'b'),
                Jump(7),
                AcceptPartial,
                Match(b'c'),
                Match(b'd'),
                Jump(7),
            ]
        );
        assert_eq!(program.total_jump_offset(), 14);
    }

    #[test]
    fn optimized_matches_listing2_middle_column() {
        use Instruction::*;
        let program = LegacyCompiler::new(true).compile("ab|cd").unwrap();
        assert_eq!(
            program.instructions(),
            &[
                Split(4),
                Match(b'a'),
                Match(b'b'),
                AcceptPartial,
                Split(8),
                Match(b'c'),
                Match(b'd'),
                Jump(3),
                MatchAny,
                Jump(0),
            ]
        );
        assert_eq!(program.total_jump_offset(), 21);
    }

    #[test]
    fn restructuring_balances_nested_alternations() {
        // Figure 5: (a|(b|(c|d))) — the tree of splits is balanced and the
        // number of JMPs reduced. Anchored to isolate the alternation.
        let unopt = LegacyCompiler::new(false).compile("^(a|(b|(c|d)))$").unwrap();
        let opt = LegacyCompiler::new(true).compile("^(a|(b|(c|d)))$").unwrap();
        let jumps = |p: &Program| {
            p.instructions().iter().filter(|i| matches!(i, Instruction::Jump(_))).count()
        };
        assert!(jumps(&opt) < jumps(&unopt), "{}\nvs\n{}", unopt, opt);
        // Split depth: longest chain of splits to reach any leaf is
        // log2(4) = 2 after balancing, versus 3 in the nested chain.
        assert_eq!(max_split_depth(&opt), 2, "{opt}");
        assert_eq!(max_split_depth(&unopt), 3, "{unopt}");
    }

    /// Depth of the split tree rooted at instruction 0: the maximum number
    /// of SPLITs traversed before reaching a non-control instruction.
    fn max_split_depth(p: &Program) -> usize {
        fn depth(p: &Program, at: u16, fuel: usize) -> usize {
            if fuel == 0 {
                return 0;
            }
            match p.get(at) {
                Some(Instruction::Split(t)) => {
                    1 + depth(p, at + 1, fuel - 1).max(depth(p, t, fuel - 1))
                }
                Some(Instruction::Jump(t)) => depth(p, t, fuel - 1),
                _ => 0,
            }
        }
        depth(p, 0, p.len())
    }

    #[test]
    fn both_modes_accept_the_same_inputs() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x01d);
        for pattern in [
            "ab|cd",
            "a|b|c|d|e",
            "th(is|at|ose)",
            "(ab)|c{3,6}d+",
            "x[abc]+y|z?w",
            "^exact$",
            "(a|(b|(c|d)))",
        ] {
            let unopt = LegacyCompiler::new(false).compile(pattern).unwrap();
            let opt = LegacyCompiler::new(true).compile(pattern).unwrap();
            let oracle = regex_oracle::Oracle::new(pattern).unwrap();
            for _ in 0..60 {
                let len = rng.random_range(0..16);
                let input: Vec<u8> = (0..len).map(|_| rng.random_range(b'a'..=b'f')).collect();
                let expected = oracle.is_match(&input);
                assert_eq!(cicero_isa::accepts(&unopt, &input), expected, "{pattern} unopt");
                assert_eq!(cicero_isa::accepts(&opt, &input), expected, "{pattern} opt");
            }
        }
    }

    #[test]
    fn agrees_with_new_compiler_unoptimized_layout() {
        // Figure 8's premise: without optimizations the two compilers
        // produce equivalent code.
        let new = cicero_core::Compiler::with_options(cicero_core::CompilerOptions::unoptimized());
        for pattern in ["ab|cd", "a+b*c?", "[^ab]x", "(one|two|three)+"] {
            let old_p = LegacyCompiler::new(false).compile(pattern).unwrap();
            let new_p = new.compile(pattern).unwrap();
            assert_eq!(old_p.instructions(), new_p.program().instructions(), "{pattern}");
        }
    }

    #[test]
    fn restructuring_hurts_locality_on_the_paper_example() {
        // Figure 6 / Listing 2: Code Restructuring *increases* D_offset.
        let unopt = LegacyCompiler::new(false).compile("ab|cd").unwrap();
        let opt = LegacyCompiler::new(true).compile("ab|cd").unwrap();
        assert!(opt.total_jump_offset() > unopt.total_jump_offset());
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["", "(", "a{3,1}", "[z-a]", "*"] {
            assert!(LegacyCompiler::new(true).compile(bad).is_err(), "{bad:?}");
        }
    }
}
