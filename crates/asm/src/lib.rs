//! Assembly text model and parser for the two ISAs the compiler emits.
//!
//! Consumers: the Ghidra-like lifter (assembly → C), the x86 emulator (runs
//! the real assembly for IO-equivalence), and the evaluation harness
//! (assembly-length features from Table I / Figures 8–9).
//!
//! The parser understands exactly the dialects `slade-compiler` produces:
//! GCC-flavoured AT&T x86-64 and AArch64. Unknown instructions are kept as
//! opaque [`Inst`]s — consumers decide whether that is an error (the lifter
//! treats unknown vector instructions as a lift failure, just as Ghidra
//! trips over what it cannot model).
//!
//! # Example
//!
//! ```
//! use slade_asm::{parse_asm, Isa};
//!
//! let text = "\t.text\nf:\n\tmovl %edi, %eax\n\tret\n";
//! let file = parse_asm(text, Isa::X86_64);
//! assert_eq!(file.functions.len(), 1);
//! assert_eq!(file.functions[0].name, "f");
//! assert_eq!(file.functions[0].instructions().count(), 2);
//! ```

#![warn(missing_docs)]

pub mod sem;

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Instruction-set architecture: the compiler's target and the dialect of
/// the assembly it emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Isa {
    /// x86-64, AT&T syntax (GCC default).
    X86_64,
    /// AArch64.
    Arm64,
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Isa::X86_64 => write!(f, "x86"),
            Isa::Arm64 => write!(f, "arm"),
        }
    }
}

/// The inverse of `Display`. Also reads `x86_64`, `x86-64`, `arm64` and
/// `aarch64`; every spelling matches in any case.
impl FromStr for Isa {
    type Err = ParseIsaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const NAMES: [(&str, Isa); 6] = [
            ("x86", Isa::X86_64),
            ("x86_64", Isa::X86_64),
            ("x86-64", Isa::X86_64),
            ("arm", Isa::Arm64),
            ("arm64", Isa::Arm64),
            ("aarch64", Isa::Arm64),
        ];
        NAMES
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, isa)| isa)
            .ok_or(ParseIsaError)
    }
}

/// The error [`Isa::from_str`] returns for a name it does not know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseIsaError;

impl fmt::Display for ParseIsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("unknown ISA (x86 or arm)")
    }
}

impl std::error::Error for ParseIsaError {}

impl Isa {
    /// How many integer and floating-point arguments the calling convention
    /// passes in registers (SysV: 6 / 8, AAPCS64: 8 / 8). The rest go on the
    /// stack, which neither the compiler nor the emulators implement.
    pub const fn arg_regs(self) -> (usize, usize) {
        match self {
            Isa::X86_64 => (6, 8),
            Isa::Arm64 => (8, 8),
        }
    }
}

/// `X86_64` — the paper's primary target, and the configuration assumed
/// for artifacts serialized before the target was recorded on them.
impl Default for Isa {
    fn default() -> Self {
        Isa::X86_64
    }
}

/// An operand of a parsed instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// Register, name without `%` (x86) or as written (ARM): `rax`, `w8`.
    Reg(String),
    /// Immediate (`$5` / `#5`).
    Imm(i64),
    /// x86 memory operand `disp(base,index,scale)`.
    Mem {
        /// Constant displacement.
        disp: i64,
        /// Base register, if present.
        base: Option<String>,
        /// Index register, if present.
        index: Option<String>,
        /// Index scale factor (1 when unwritten).
        scale: i64,
    },
    /// RIP-relative symbol: `sym(%rip)`.
    RipSym(String),
    /// ARM memory operand `[base, #off]` with optional pre-writeback (`!`).
    MemArm {
        /// Base register.
        base: String,
        /// Byte offset.
        off: i64,
        /// `[base, #off]!` pre-index writeback form.
        pre_writeback: bool,
    },
    /// Branch/call target or bare symbol.
    Sym(String),
    /// ARM `:lo12:sym` relocation operand.
    Lo12(String),
    /// ARM condition code operand (`lt` in `cset w8, lt`).
    Cond(String),
    /// ARM shifted-immediate modifier (`lsl #16`): the shift amount.
    Lsl(i64),
}

/// One parsed instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Inst {
    /// Lower-case mnemonic, including any `b.cond` suffix.
    pub mnemonic: String,
    /// Operands in source order.
    pub operands: Vec<Operand>,
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic)?;
        for (i, op) in self.operands.iter().enumerate() {
            write!(f, "{}{:?}", if i == 0 { " " } else { ", " }, op)?;
        }
        Ok(())
    }
}

/// A line in a function body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Line {
    /// Local label (`.L3:`).
    Label(String),
    /// Instruction.
    Inst(Inst),
}

/// A parsed function: name plus body lines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsmFunction {
    /// Symbol name.
    pub name: String,
    /// Body lines in order.
    pub lines: Vec<Line>,
}

impl AsmFunction {
    /// Iterates over instructions only.
    pub fn instructions(&self) -> impl Iterator<Item = &Inst> {
        self.lines.iter().filter_map(|l| match l {
            Line::Inst(i) => Some(i),
            Line::Label(_) => None,
        })
    }

    /// Index of each label within [`AsmFunction::lines`].
    pub fn label_positions(&self) -> HashMap<String, usize> {
        let mut out = HashMap::new();
        for (i, l) in self.lines.iter().enumerate() {
            if let Line::Label(name) = l {
                out.insert(name.clone(), i);
            }
        }
        out
    }
}

/// A parsed assembly file: functions plus rodata blobs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AsmFile {
    /// Functions in file order.
    pub functions: Vec<AsmFunction>,
    /// `label → bytes` (with trailing NUL) from `.string` directives.
    pub rodata: HashMap<String, Vec<u8>>,
}

impl AsmFile {
    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&AsmFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Parses assembly text into an [`AsmFile`]. Never fails: unknown syntax
/// degrades to opaque instructions, mirroring how binary tools skip what
/// they cannot model.
pub fn parse_asm(text: &str, isa: Isa) -> AsmFile {
    let mut file = AsmFile::default();
    let mut current: Option<AsmFunction> = None;
    let mut in_rodata = false;
    let mut last_label: Option<String> = None;
    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_suffix(':') {
            let name = rest.trim().to_string();
            if in_rodata {
                last_label = Some(name);
            } else if name.starts_with(".L") {
                if let Some(f) = &mut current {
                    f.lines.push(Line::Label(name));
                }
            } else {
                if let Some(f) = current.take() {
                    file.functions.push(f);
                }
                current = Some(AsmFunction { name, lines: Vec::new() });
            }
            continue;
        }
        if line.starts_with('.') {
            if line.starts_with(".section") {
                in_rodata = line.contains("rodata");
                continue;
            }
            if line.starts_with(".text") {
                in_rodata = false;
                continue;
            }
            if in_rodata {
                if let Some(rest) = line.strip_prefix(".string") {
                    if let Some(label) = last_label.take() {
                        file.rodata.insert(label, unescape_string(rest.trim()));
                    }
                }
            }
            // Other directives (.globl, .type, .cfi_*, .size) carry no
            // semantics for our consumers.
            continue;
        }
        let inst = parse_inst(line, isa);
        if let Some(f) = &mut current {
            f.lines.push(Line::Inst(inst));
        }
    }
    if let Some(f) = current.take() {
        file.functions.push(f);
    }
    file
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

fn parse_inst(line: &str, isa: Isa) -> Inst {
    let (mnemonic, rest) = match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], line[i..].trim()),
        None => (line, ""),
    };
    let operands = if rest.is_empty() {
        Vec::new()
    } else {
        split_operands(rest).into_iter().map(|tok| parse_operand(tok.trim(), isa)).collect()
    };
    Inst { mnemonic: mnemonic.to_lowercase(), operands }
}

/// Splits on commas that are not inside parentheses or brackets.
fn split_operands(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn parse_operand(tok: &str, isa: Isa) -> Operand {
    match isa {
        Isa::X86_64 => parse_x86_operand(tok),
        Isa::Arm64 => parse_arm_operand(tok),
    }
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        return i64::from_str_radix(hex, 16).ok();
    }
    if let Some(hex) = s.strip_prefix("-0x") {
        return i64::from_str_radix(hex, 16).ok().map(|v| -v);
    }
    s.parse().ok()
}

fn parse_x86_operand(tok: &str) -> Operand {
    if let Some(reg) = tok.strip_prefix('%') {
        return Operand::Reg(reg.to_string());
    }
    if let Some(imm) = tok.strip_prefix('$') {
        return Operand::Imm(parse_int(imm).unwrap_or(0));
    }
    if let Some(open) = tok.find('(') {
        let disp_str = &tok[..open];
        let inner = &tok[open + 1..tok.len().saturating_sub(1)];
        if inner == "%rip" {
            return Operand::RipSym(disp_str.to_string());
        }
        let disp = if disp_str.is_empty() { 0 } else { parse_int(disp_str).unwrap_or(0) };
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        let base = parts
            .first()
            .filter(|p| !p.is_empty())
            .map(|p| p.trim_start_matches('%').to_string());
        let index = parts
            .get(1)
            .filter(|p| !p.is_empty())
            .map(|p| p.trim_start_matches('%').to_string());
        let scale = parts.get(2).and_then(|p| parse_int(p)).unwrap_or(1);
        return Operand::Mem { disp, base, index, scale };
    }
    Operand::Sym(tok.to_string())
}

fn parse_arm_operand(tok: &str) -> Operand {
    if let Some(imm) = tok.strip_prefix('#') {
        return Operand::Imm(parse_int(imm).unwrap_or(0));
    }
    if let Some(rest) = tok.strip_prefix(":lo12:") {
        return Operand::Lo12(rest.to_string());
    }
    if tok.starts_with('[') {
        let pre_writeback = tok.ends_with('!');
        let inner = tok.trim_end_matches('!').trim_start_matches('[').trim_end_matches(']');
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        let base = parts[0].to_string();
        let off =
            parts.get(1).and_then(|p| p.strip_prefix('#')).and_then(parse_int).unwrap_or(0);
        return Operand::MemArm { base, off, pre_writeback };
    }
    if let Some(rest) = tok.strip_prefix("lsl #") {
        return Operand::Lsl(parse_int(rest).unwrap_or(0));
    }
    if is_arm_reg(tok) {
        return Operand::Reg(tok.to_string());
    }
    if is_arm_cond(tok) {
        return Operand::Cond(tok.to_string());
    }
    Operand::Sym(tok.to_string())
}

fn is_arm_reg(tok: &str) -> bool {
    if matches!(tok, "sp" | "xzr" | "wzr") {
        return true;
    }
    let mut chars = tok.chars();
    let Some(c) = chars.next() else { return false };
    if !matches!(c, 'w' | 'x' | 's' | 'd') {
        return false;
    }
    let rest: String = chars.collect();
    !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit())
}

fn is_arm_cond(tok: &str) -> bool {
    matches!(
        tok,
        "eq" | "ne" | "lt" | "le" | "gt" | "ge" | "lo" | "ls" | "hi" | "hs" | "mi" | "pl"
    )
}

fn unescape_string(s: &str) -> Vec<u8> {
    let s = s.trim().trim_start_matches('"').trim_end_matches('"');
    let mut out = Vec::new();
    let mut chars = s.bytes().peekable();
    while let Some(b) = chars.next() {
        if b != b'\\' {
            out.push(b);
            continue;
        }
        match chars.next() {
            Some(b'n') => out.push(b'\n'),
            Some(b't') => out.push(b'\t'),
            Some(b'r') => out.push(b'\r'),
            Some(b'"') => out.push(b'"'),
            Some(b'\\') => out.push(b'\\'),
            Some(d) if d.is_ascii_digit() => {
                let mut v = (d - b'0') as u32;
                for _ in 0..2 {
                    if let Some(&n) = chars.peek() {
                        if n.is_ascii_digit() {
                            v = v * 8 + (n - b'0') as u32;
                            chars.next();
                        }
                    }
                }
                out.push((v & 0xff) as u8);
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out.push(0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_x86_operand_forms() {
        assert_eq!(parse_x86_operand("%rax"), Operand::Reg("rax".into()));
        assert_eq!(parse_x86_operand("$42"), Operand::Imm(42));
        assert_eq!(parse_x86_operand("$-8"), Operand::Imm(-8));
        assert_eq!(
            parse_x86_operand("-16(%rbp)"),
            Operand::Mem { disp: -16, base: Some("rbp".into()), index: None, scale: 1 }
        );
        assert_eq!(parse_x86_operand("g(%rip)"), Operand::RipSym("g".into()));
        assert_eq!(parse_x86_operand(".L3"), Operand::Sym(".L3".into()));
    }

    #[test]
    fn parses_arm_operand_forms() {
        assert_eq!(parse_arm_operand("w8"), Operand::Reg("w8".into()));
        assert_eq!(parse_arm_operand("#42"), Operand::Imm(42));
        assert_eq!(
            parse_arm_operand("[x29, #16]"),
            Operand::MemArm { base: "x29".into(), off: 16, pre_writeback: false }
        );
        assert_eq!(
            parse_arm_operand("[sp, #-32]!"),
            Operand::MemArm { base: "sp".into(), off: -32, pre_writeback: true }
        );
        assert_eq!(parse_arm_operand(":lo12:g"), Operand::Lo12("g".into()));
        assert_eq!(parse_arm_operand("lt"), Operand::Cond("lt".into()));
    }

    #[test]
    fn splits_operands_respecting_brackets() {
        assert_eq!(split_operands("w8, [x29, #16]"), vec!["w8", " [x29, #16]"]);
        assert_eq!(split_operands("-8(%rbp), %eax"), vec!["-8(%rbp)", " %eax"]);
    }

    #[test]
    fn parses_whole_function_with_labels() {
        let text =
            "\t.text\n\t.globl f\nf:\n\tmovl %edi, %eax\n.L1:\n\taddl $1, %eax\n\tjmp .L1\n";
        let file = parse_asm(text, Isa::X86_64);
        let f = file.function("f").unwrap();
        assert_eq!(f.instructions().count(), 3);
        assert!(f.label_positions().contains_key(".L1"));
    }

    #[test]
    fn parses_rodata_strings() {
        let text = "\t.section .rodata\n.LC0:\n\t.string \"hi\\n\"\n\t.text\nf:\n\tret\n";
        let file = parse_asm(text, Isa::X86_64);
        assert_eq!(file.rodata.get(".LC0").unwrap(), &b"hi\n\0".to_vec());
    }

    #[test]
    fn unknown_lines_do_not_panic() {
        let file = parse_asm("f:\n\tsome_weird_insn %a, %b\n", Isa::X86_64);
        assert_eq!(file.functions[0].instructions().count(), 1);
    }

    #[test]
    fn isa_names_round_trip_and_parse_in_any_case() {
        for isa in [Isa::X86_64, Isa::Arm64] {
            assert_eq!(isa.to_string().parse(), Ok(isa));
        }
        for (name, want) in [
            ("x86", Ok(Isa::X86_64)),
            ("X86_64", Ok(Isa::X86_64)),
            ("x86-64", Ok(Isa::X86_64)),
            ("ARM", Ok(Isa::Arm64)),
            ("arm64", Ok(Isa::Arm64)),
            ("AArch64", Ok(Isa::Arm64)),
            ("", Err(ParseIsaError)),
            ("x64", Err(ParseIsaError)),
            (" x86", Err(ParseIsaError)),
            ("riscv", Err(ParseIsaError)),
        ] {
            assert_eq!(name.parse::<Isa>(), want, "{name:?}");
        }
    }
}
