//! Validated Cicero programs and their textual assembly form.

use std::fmt;
use std::str::FromStr;

use crate::instruction::{render_char, Instruction, MAX_OPERAND};

/// A validated sequence of Cicero instructions.
///
/// Invariants (enforced by [`Program::from_instructions`]):
///
/// * at most `MAX_OPERAND + 1` instructions, so every address is encodable;
/// * every `Split`/`Jump` target lies inside the program;
/// * the program is non-empty and ends in a way that cannot run off the end
///   of instruction memory (the last instruction is an acceptance or an
///   unconditional jump, and no fall-through off the end exists anywhere).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    instructions: Vec<Instruction>,
}

/// Validation error for [`Program::from_instructions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Programs must contain at least one instruction.
    Empty,
    /// The program exceeds the 13-bit address space.
    TooLong {
        /// Actual number of instructions.
        len: usize,
    },
    /// A control-flow instruction targets an address outside the program.
    TargetOutOfRange {
        /// Address of the offending instruction.
        address: usize,
        /// Its out-of-range target.
        target: u16,
    },
    /// An instruction other than acceptance/jump would fall through past the
    /// end of instruction memory.
    FallsOffEnd {
        /// Address of the offending final instruction.
        address: usize,
    },
    /// An operand does not fit the 13-bit field (a multi-matching id above
    /// [`MAX_OPERAND`]).
    OperandTooWide {
        /// Address of the offending instruction.
        address: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Empty => write!(f, "program is empty"),
            ProgramError::TooLong { len } => write!(
                f,
                "program has {len} instructions, exceeding the {}-instruction address space",
                usize::from(MAX_OPERAND) + 1
            ),
            ProgramError::TargetOutOfRange { address, target } => {
                write!(f, "instruction at {address} targets out-of-range address {target}")
            }
            ProgramError::FallsOffEnd { address } => {
                write!(f, "instruction at {address} can fall through past the end of the program")
            }
            ProgramError::OperandTooWide { address } => {
                write!(f, "instruction at {address} has an operand wider than 13 bits")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Build a program, validating the invariants listed on [`Program`].
    ///
    /// # Errors
    ///
    /// See [`ProgramError`].
    pub fn from_instructions(instructions: Vec<Instruction>) -> Result<Program, ProgramError> {
        if instructions.is_empty() {
            return Err(ProgramError::Empty);
        }
        if instructions.len() > usize::from(MAX_OPERAND) + 1 {
            return Err(ProgramError::TooLong { len: instructions.len() });
        }
        for (address, ins) in instructions.iter().enumerate() {
            if let Some(target) = ins.branch_target() {
                if usize::from(target) >= instructions.len() {
                    return Err(ProgramError::TargetOutOfRange { address, target });
                }
            }
            if ins.operand() > MAX_OPERAND {
                return Err(ProgramError::OperandTooWide { address });
            }
        }
        let last_addr = instructions.len() - 1;
        let last = instructions[last_addr];
        if !(last.is_acceptance() || matches!(last, Instruction::Jump(_))) {
            return Err(ProgramError::FallsOffEnd { address: last_addr });
        }
        Ok(Program { instructions })
    }

    /// Build a program without validating; used by the disassembler, which
    /// performs its own word-level validation.
    pub(crate) fn from_instructions_unchecked(instructions: Vec<Instruction>) -> Program {
        Program { instructions }
    }

    /// The instruction sequence.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions — the paper's *code size* metric (Figure 8).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty (never true for validated programs).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Fetch the instruction at `address`, if in range.
    pub fn get(&self, address: u16) -> Option<Instruction> {
        self.instructions.get(usize::from(address)).copied()
    }

    /// Render the address-annotated assembly listing (Listing 2 style).
    ///
    /// `Split` is rendered with both successor addresses, e.g.
    /// `000: SPLIT {1,3}`.
    pub fn to_asm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (address, ins) in self.instructions.iter().enumerate() {
            let _ = write!(out, "{address:03}: ");
            match *ins {
                Instruction::Split(t) => {
                    let _ = writeln!(out, "SPLIT {{{},{}}}", address + 1, t);
                }
                Instruction::Match(c) => {
                    let _ = writeln!(out, "MATCH char {}", render_char(c));
                }
                Instruction::NotMatch(c) => {
                    let _ = writeln!(out, "NOT_MATCH char {}", render_char(c));
                }
                Instruction::Jump(t) => {
                    let _ = writeln!(out, "JMP to {t}");
                }
                Instruction::MatchAny => {
                    let _ = writeln!(out, "MATCH_ANY");
                }
                Instruction::Accept => {
                    let _ = writeln!(out, "ACCEPT");
                }
                Instruction::AcceptPartial => {
                    let _ = writeln!(out, "ACCEPT_PARTIAL");
                }
                Instruction::AcceptPartialId(id) => {
                    let _ = writeln!(out, "ACCEPT_ID {id}");
                }
            }
        }
        out
    }

    /// Total jump offset `D_offset` (Equation 1) — see [`crate::locality`].
    pub fn total_jump_offset(&self) -> u64 {
        crate::locality::total_jump_offset(self)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_asm())
    }
}

/// Error parsing the textual assembly form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based line number of the error.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

impl FromStr for Program {
    type Err = ParseAsmError;

    /// Parse the listing produced by [`Program::to_asm`]. Blank lines and
    /// `#` / `;` comment lines are ignored; the leading `NNN:` address is
    /// optional and, when present, must match the instruction's position.
    fn from_str(text: &str) -> Result<Program, ParseAsmError> {
        let mut instructions = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let err = |message: String| ParseAsmError { line: line_no, message };
            let mut line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(colon) = line.find(':') {
                let (addr_part, rest) = line.split_at(colon);
                if let Ok(addr) = addr_part.trim().parse::<usize>() {
                    if addr != instructions.len() {
                        return Err(err(format!(
                            "address label {addr} does not match position {}",
                            instructions.len()
                        )));
                    }
                    line = rest[1..].trim();
                }
            }
            let mut parts = line.split_whitespace();
            let mnemonic = parts.next().ok_or_else(|| err("missing mnemonic".into()))?;
            let rest: Vec<&str> = parts.collect();
            let ins = match mnemonic.to_ascii_uppercase().as_str() {
                "MATCH_ANY" => Instruction::MatchAny,
                "ACCEPT" => Instruction::Accept,
                "ACCEPT_PARTIAL" => Instruction::AcceptPartial,
                "ACCEPT_ID" => {
                    let id: u16 = rest
                        .first()
                        .and_then(|t| t.parse().ok())
                        .filter(|id| *id <= MAX_OPERAND)
                        .ok_or_else(|| err(format!("expected an id operand, got {rest:?}")))?;
                    Instruction::AcceptPartialId(id)
                }
                "MATCH" | "NOT_MATCH" => {
                    let c = parse_char_operand(&rest)
                        .ok_or_else(|| err(format!("expected `char <c>` operand, got {rest:?}")))?;
                    if mnemonic.eq_ignore_ascii_case("MATCH") {
                        Instruction::Match(c)
                    } else {
                        Instruction::NotMatch(c)
                    }
                }
                "JMP" => {
                    let t = parse_target(&rest)
                        .ok_or_else(|| err(format!("expected jump target, got {rest:?}")))?;
                    Instruction::Jump(t)
                }
                "SPLIT" => {
                    let t = parse_split_target(&rest, instructions.len())
                        .ok_or_else(|| err(format!("expected split target, got {rest:?}")))?;
                    Instruction::Split(t)
                }
                other => return Err(err(format!("unknown mnemonic `{other}`"))),
            };
            instructions.push(ins);
        }
        Program::from_instructions(instructions)
            .map_err(|e| ParseAsmError { line: 0, message: e.to_string() })
    }
}

fn parse_char_operand(rest: &[&str]) -> Option<u8> {
    let token = match rest {
        ["char", t] => t,
        [t] => t,
        _ => return None,
    };
    if let Some(hex) = token.strip_prefix("0x") {
        return u8::from_str_radix(hex, 16).ok();
    }
    let bytes = token.as_bytes();
    (bytes.len() == 1).then(|| bytes[0])
}

fn parse_target(rest: &[&str]) -> Option<u16> {
    let token = match rest {
        ["to", t] => t,
        [t] => t,
        _ => return None,
    };
    token.parse().ok()
}

/// Split renders as `{next,target}`; accept either that form or a bare target.
fn parse_split_target(rest: &[&str], address: usize) -> Option<u16> {
    let token = rest.first()?;
    if let Some(stripped) = token.strip_prefix('{').and_then(|t| t.strip_suffix('}')) {
        let (first, second) = stripped.split_once(',')?;
        let first: usize = first.trim().parse().ok()?;
        if first != address + 1 {
            return None;
        }
        return second.trim().parse().ok();
    }
    token.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing2_no_opt() -> Vec<Instruction> {
        vec![
            Instruction::Split(3),
            Instruction::MatchAny,
            Instruction::Jump(0),
            Instruction::Split(8),
            Instruction::Match(b'a'),
            Instruction::Match(b'b'),
            Instruction::Jump(7),
            Instruction::AcceptPartial,
            Instruction::Match(b'c'),
            Instruction::Match(b'd'),
            Instruction::Jump(7),
        ]
    }

    #[test]
    fn validation_accepts_listing2() {
        let p = Program::from_instructions(listing2_no_opt()).unwrap();
        assert_eq!(p.len(), 11);
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(Program::from_instructions(vec![]), Err(ProgramError::Empty));
    }

    #[test]
    fn out_of_range_target_rejected() {
        let err = Program::from_instructions(vec![Instruction::Jump(9), Instruction::Accept]);
        assert_eq!(err, Err(ProgramError::TargetOutOfRange { address: 0, target: 9 }));
    }

    #[test]
    fn fall_off_end_rejected() {
        let err = Program::from_instructions(vec![Instruction::Match(b'a')]);
        assert_eq!(err, Err(ProgramError::FallsOffEnd { address: 0 }));
    }

    #[test]
    fn jump_ending_accepted() {
        // Infinite loops are legal programs (the engine kills threads on
        // input exhaustion); `.*` with no acceptance is degenerate but valid.
        let p = Program::from_instructions(vec![Instruction::MatchAny, Instruction::Jump(0)]);
        assert!(p.is_ok());
    }

    #[test]
    fn asm_roundtrip() {
        let p = Program::from_instructions(listing2_no_opt()).unwrap();
        let text = p.to_asm();
        let back: Program = text.parse().unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn asm_rendering_matches_paper_style() {
        let p = Program::from_instructions(vec![
            Instruction::Split(3),
            Instruction::MatchAny,
            Instruction::Jump(0),
            Instruction::AcceptPartial,
        ])
        .unwrap();
        let asm = p.to_asm();
        assert!(asm.contains("000: SPLIT {1,3}"), "{asm}");
        assert!(asm.contains("002: JMP to 0"), "{asm}");
    }

    #[test]
    fn asm_parser_accepts_comments_and_blank_lines() {
        let text = "# header\n\n000: MATCH char a\n; trailer\n001: ACCEPT_PARTIAL\n";
        let p: Program = text.parse().unwrap();
        assert_eq!(p.instructions(), &[Instruction::Match(b'a'), Instruction::AcceptPartial]);
    }

    #[test]
    fn asm_parser_rejects_mismatched_address() {
        let text = "005: ACCEPT\n";
        let err = text.parse::<Program>().unwrap_err();
        assert!(err.message.contains("does not match position"));
    }

    #[test]
    fn asm_parser_rejects_unknown_mnemonic() {
        let err = "000: FROB 1\n".parse::<Program>().unwrap_err();
        assert!(err.message.contains("unknown mnemonic"));
    }

    #[test]
    fn hex_char_operand_roundtrip() {
        let p = Program::from_instructions(vec![
            Instruction::Match(0x00),
            Instruction::NotMatch(0xff),
            Instruction::Accept,
        ])
        .unwrap();
        let back: Program = p.to_asm().parse().unwrap();
        assert_eq!(back, p);
    }
}
