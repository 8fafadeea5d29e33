//! Compiled code and the MiniC interpreter agree. Every call of the tables
//! below, compiled for x86-64 and for AArch64 at -O0 and -O3, must return
//! on its emulator what `minic::interp` returns and leave the same bytes in
//! its buffers:
//! - libc: for every builtin in the emulators' shared table, a one-line
//!   function that calls it;
//! - the agreement table (`agreement/mod.rs`): casts, memory widths,
//!   floats, wide constants, predicates, division, shifts, register
//!   arguments, `switch` and the vectorized loop, and beside it the
//!   compound-assignment and wide-shift tables. Its unordered float
//!   compares are checked on AArch64 only.
//!
//! The agreement tables have a third opinion, the lift column: every
//! function of the compiled file lifted to C by `slade_baselines::lift`
//! and run in `minic::interp` must observe the same. Its exceptions:
//! - the x86 `-O3` vectorized loop must fail to lift, with "vector" in the
//!   error, as Ghidra fails on what it cannot model;
//! - a `double` result is not compared: the lifted function returns the
//!   integer result register;
//! - the libc table is not lifted: the lifted code passes `unsigned long`
//!   registers to pointer parameters, and the interpreter has no int to
//!   pointer conversion.

mod agreement;

use agreement::{In, Row, COMPOUND, ROWS, UNORDERED, VECTOR_LOOP, WIDE_SHIFTS};
use slade_asm::{parse_asm, AsmFile};
use slade_compiler::{compile_all, CompileOpts, Isa, OptLevel};
use slade_emu::{Arg, ArmEmulator, Cpu, Emulator, Machine};
use slade_minic::{parse_program, Interpreter, Type, Value};

/// A call's observable behaviour: the return register as raw bits (an
/// `int` sign-extended) and every buffer argument afterwards.
type Observed = (u64, Vec<Vec<u8>>);

fn on_interpreter(src: &str, inputs: &[In]) -> Observed {
    let program = parse_program(src).expect("parses");
    let mut interp = Interpreter::new(&program).expect("checks");
    let mut bufs = Vec::new();
    let args: Vec<Value> = inputs
        .iter()
        .map(|input| match *input {
            In::Int(v) => Value::long(v),
            In::F64(v) => Value::F64(v),
            In::Buf(bytes) => {
                bufs.push((interp.alloc_buffer(bytes), bytes.len()));
                Value::Ptr(bufs[bufs.len() - 1].0)
            }
        })
        .collect();
    let ret = match interp.call("f", &args).expect("interpreter runs").ret {
        Some(Value::Int(v, _)) => v as u64,
        Some(Value::F64(v)) => v.to_bits(),
        other => panic!("unexpected return {other:?}"),
    };
    (ret, bufs.iter().map(|&(p, len)| interp.read_buffer(p, len).expect("in range")).collect())
}

/// The integer result register `int` as what `src` declares `f` to
/// return: a `long` whole, an `unsigned` zero-extended, an `int`
/// sign-extended.
fn as_declared(src: &str, int: u64) -> u64 {
    match src.split(' ').next() {
        Some("long") => int,
        Some("unsigned") => int as u32 as u64,
        _ => int as u32 as i32 as i64 as u64,
    }
}

/// The same on one emulator. What `src` declares `f` to return says which
/// of the ISA's result registers holds the result.
fn on_emulator<C: Cpu>(
    mut emu: Machine<C>,
    src: &str,
    inputs: &[In],
) -> Result<Observed, String> {
    let mut bufs = Vec::new();
    let args: Vec<Arg> = inputs
        .iter()
        .map(|input| match *input {
            In::Int(v) => Arg::Int(v as u64),
            In::F64(v) => Arg::F64(v),
            In::Buf(bytes) => {
                bufs.push((emu.alloc_buffer(bytes), bytes.len()));
                Arg::Int(bufs[bufs.len() - 1].0)
            }
        })
        .collect();
    let int = emu.call("f", &args).map_err(|e| e.to_string())?;
    let ret = match src.split(' ').next() {
        Some("double") => emu.ret_f64().to_bits(),
        _ => as_declared(src, int),
    };
    Ok((ret, bufs.iter().map(|&(p, len)| emu.read_buffer(p, len).expect("in range")).collect()))
}

/// `src` compiled for `isa` at `opt`, every function in one file.
fn compiled(src: &str, isa: Isa, opt: OptLevel) -> AsmFile {
    let program = parse_program(src).expect("parses");
    let funcs = compile_all(&program, CompileOpts::new(isa, opt)).expect("compiles");
    parse_asm(&funcs.into_iter().map(|(_, text)| text).collect::<String>(), isa)
}

fn on_both_isas(src: &str, inputs: &[In], opt: OptLevel) -> [Result<Observed, String>; 2] {
    [
        on_emulator(Emulator::new(compiled(src, Isa::X86_64, opt)), src, inputs),
        on_emulator(ArmEmulator::new(compiled(src, Isa::Arm64, opt)), src, inputs),
    ]
}

/// The same on the lifted C of every function in `file`. The lifted `f`
/// takes its integer and pointer arguments first, then its floating-point
/// ones, as many of each as it reads; a `double` row's result is not
/// compared (the lifted function returns the integer register), so it is
/// `want`'s.
fn on_lifted(
    file: &AsmFile,
    isa: Isa,
    src: &str,
    inputs: &[In],
    want: u64,
) -> Result<Observed, String> {
    let mut c = String::new();
    for func in &file.functions {
        c += &slade_baselines::lift(func, isa, &file.rodata).map_err(|e| e.to_string())?;
    }
    let program = parse_program(&c).map_err(|e| format!("{e}\n{c}"))?;
    let mut interp = Interpreter::new(&program).map_err(|e| format!("{e}\n{c}"))?;
    let params = &program.function("f").expect("lifted f").params;
    let nint = params.iter().filter(|(_, ty)| *ty != Type::Double).count();
    let mut bufs = Vec::new();
    let mut ints = Vec::new();
    let mut floats = Vec::new();
    for input in inputs {
        match *input {
            In::Int(v) => ints.push(Value::long(v)),
            In::F64(v) => floats.push(Value::F64(v)),
            In::Buf(bytes) => {
                bufs.push((interp.alloc_buffer(bytes), bytes.len()));
                ints.push(Value::Ptr(bufs[bufs.len() - 1].0));
            }
        }
    }
    ints.truncate(nint);
    floats.truncate(params.len() - nint);
    ints.extend(floats);
    let out = interp.call("f", &ints).map_err(|e| format!("{e}\n{c}"))?;
    let ret = match (src.starts_with("double"), out.ret) {
        (true, _) => want,
        (false, Some(Value::Int(v, _))) => as_declared(src, v as u64),
        (false, other) => return Err(format!("lifted f returned {other:?}\n{c}")),
    };
    let bufs = bufs.iter().map(|&(p, len)| interp.read_buffer(p, len).expect("in range"));
    Ok((ret, bufs.collect()))
}

#[test]
fn every_builtin_agrees_with_the_interpreter_on_both_isas() {
    const S: &[u8] = b"pear\0";
    const T: &[u8] = b"plum\0";
    let cases: &[(&str, &str, &[In])] = &[
        (
            "memcpy",
            "int f(char *d, char *s) { memcpy(d, s, 3); return d[1]; }",
            &[In::Buf(S), In::Buf(T)],
        ),
        (
            "memmove",
            "int f(char *d, char *s) { memmove(d, s, 4); return d[2]; }",
            &[In::Buf(S), In::Buf(T)],
        ),
        ("memset", "int f(char *d) { memset(d, 122, 2); return d[1]; }", &[In::Buf(S)]),
        ("strlen", "int f(char *s) { return strlen(s); }", &[In::Buf(S)]),
        (
            "strcmp",
            "int f(char *a, char *b) { return strcmp(a, b); }",
            &[In::Buf(S), In::Buf(T)],
        ),
        ("abs", "int f(int x) { return abs(x); }", &[In::Int(-41)]),
        ("labs", "long f(long x) { return labs(x); }", &[In::Int(-(1 << 40))]),
        ("sqrt", "double f(double x) { return sqrt(x); }", &[In::F64(1.75)]),
        ("fabs", "double f(double x) { return fabs(x); }", &[In::F64(-1.75)]),
        ("sin", "double f(double x) { return sin(x); }", &[In::F64(1.75)]),
        ("cos", "double f(double x) { return cos(x); }", &[In::F64(1.75)]),
        ("tan", "double f(double x) { return tan(x); }", &[In::F64(1.75)]),
        ("exp", "double f(double x) { return exp(x); }", &[In::F64(1.75)]),
        ("log", "double f(double x) { return log(x); }", &[In::F64(1.75)]),
        ("floor", "double f(double x) { return floor(x); }", &[In::F64(-1.75)]),
        ("ceil", "double f(double x) { return ceil(x); }", &[In::F64(-1.75)]),
        (
            "pow",
            "double f(double x, double y) { return pow(x, y); }",
            &[In::F64(1.75), In::F64(2.5)],
        ),
        (
            "fmod",
            "double f(double x, double y) { return fmod(x, y); }",
            &[In::F64(7.75), In::F64(2.5)],
        ),
        (
            "fmin",
            "double f(double x, double y) { return fmin(x, y); }",
            &[In::F64(1.75), In::F64(-2.5)],
        ),
        (
            "fmax",
            "double f(double x, double y) { return fmax(x, y); }",
            &[In::F64(1.75), In::F64(-2.5)],
        ),
        ("putchar", "int f(int c) { return putchar(c); }", &[In::Int(65)]),
        ("printf", "int f(void) { return printf(\"hi\"); }", &[]),
    ];
    assert_eq!(cases.len(), 22, "one case per row of `Machine::libc`");
    for &(name, src, inputs) in cases {
        assert!(src.contains(&format!("{name}(")), "{name}: the case calls its builtin");
        let want = Ok(on_interpreter(src, inputs));
        for opt in [OptLevel::O0, OptLevel::O3] {
            let [x86, arm] = on_both_isas(src, inputs, opt);
            assert_eq!(x86, want, "{name} on x86-64 at {opt}");
            assert_eq!(arm, want, "{name} on AArch64 at {opt}");
        }
    }
}

#[test]
fn a_name_outside_the_table_fails_the_same_way_on_both_isas() {
    let [x86, arm] =
        on_both_isas("int f(int x) { return isdigit(x); }", &[In::Int(55)], OptLevel::O0);
    assert_eq!(x86, Err("emulation error: call to undefined function `isdigit`".to_string()));
    assert_eq!(arm, x86);
}

/// Every call of `rows` on the interpreter, then on both ISAs at both
/// levels, on the emulator and lifted; `arm_only` leaves x86-64
/// unchecked.
fn agree(rows: &[Row], arm_only: bool) {
    let isas: &[Isa] = if arm_only { &[Isa::Arm64] } else { &[Isa::X86_64, Isa::Arm64] };
    for &(src, calls) in rows {
        for opt in [OptLevel::O0, OptLevel::O3] {
            for &isa in isas {
                let file = compiled(src, isa, opt);
                for &inputs in calls {
                    let want = on_interpreter(src, inputs);
                    let emu = match isa {
                        Isa::X86_64 => on_emulator(Emulator::new(file.clone()), src, inputs),
                        Isa::Arm64 => on_emulator(ArmEmulator::new(file.clone()), src, inputs),
                    };
                    assert_eq!(emu, Ok(want.clone()), "{isa:?} at {opt}: {src}");
                    let lifted = on_lifted(&file, isa, src, inputs, want.0);
                    if isa == Isa::X86_64 && opt == OptLevel::O3 && src == VECTOR_LOOP {
                        let err = lifted.expect_err("the vectorized loop lifts");
                        assert!(err.contains("vector"), "{err}");
                    } else {
                        assert_eq!(lifted, Ok(want), "lifted {isa:?} at {opt}: {src}");
                    }
                }
            }
        }
    }
}

#[test]
fn the_agreement_table_agrees_with_the_interpreter_on_both_isas() {
    agree(ROWS, false);
}

#[test]
fn compound_assignments_agree_with_the_interpreter_on_both_isas() {
    agree(COMPOUND, false);
}

/// The lowerer's label pre-scan once skipped `switch` arms, so a label in
/// one panicked the compiler. Not in a digest-pinned table: the compiler
/// before the fix could not compile it.
#[test]
fn a_label_inside_a_switch_arm_compiles_and_agrees() {
    let src =
        "int f(int x) { switch (x) { case 1: L: return 1; default: return 2; } return 0; }";
    agree(&[(src, &[&[In::Int(1)], &[In::Int(2)]])], false);
}

#[test]
fn wide_shifts_agree_with_the_interpreter_on_both_isas() {
    agree(WIDE_SHIFTS, false);
}

#[test]
fn unordered_float_compares_agree_with_the_interpreter_on_aarch64() {
    agree(UNORDERED, true);
}
