//! The agreement table: MiniC programs that together reach every cast kind,
//! every memory width, `float` arithmetic, constants too wide for one
//! immediate, every predicate both as a value and as a fused branch,
//! division, remainder and shifts at every width, the register-argument
//! shapes of both ABIs, `switch`, and the loop the x86 `-O3` vectorizer
//! rewrites.
//!
//! `tests/libc.rs` runs every call on both emulators at -O0 and -O3 against
//! `minic::interp`; `slade_compiler`'s `tests/emit_digest.rs` pins what the
//! compiler emits for every program.

/// One argument of a call to `f`.
#[derive(Clone, Copy)]
pub enum In {
    Int(i64),
    F64(f64),
    /// A fresh buffer holding these bytes; its address is the argument.
    Buf(&'static [u8]),
}

/// A program defining `f` (and whatever `f` calls), and the argument lists
/// of the calls made to `f`. What `f` returns — `int`, `unsigned`, `long`
/// or `double` — is the first word of the program.
pub type Row = (&'static str, &'static [&'static [In]]);

use In::{Buf, Int, F64};

const DOUBLE_VALUE: &str = "int f(double a, double b) { return (a == b) + 2 * (a != b) \
    + 4 * (a < b) + 8 * (a <= b) + 16 * (a > b) + 32 * (a >= b); }";
const DOUBLE_BRANCH: &str = "int f(double a, double b) { int r = 0; if (a == b) r += 1; \
    if (a != b) r += 2; if (a < b) r += 4; if (a <= b) r += 8; if (a > b) r += 16; \
    if (a >= b) r += 32; return r; }";
const FLOAT_VALUE: &str = "int f(double x, double y) { float a = x; float b = y; \
    return (a == b) + 2 * (a != b) + 4 * (a < b) + 8 * (a <= b) + 16 * (a > b) \
    + 32 * (a >= b); }";
const FLOAT_BRANCH: &str = "int f(double x, double y) { float a = x; float b = y; int r = 0; \
    if (a == b) r += 1; if (a != b) r += 2; if (a < b) r += 4; if (a <= b) r += 8; \
    if (a > b) r += 16; if (a >= b) r += 32; return r; }";

const ORDERED: &[&[In]] =
    &[&[F64(1.5), F64(2.5)], &[F64(2.5), F64(1.5)], &[F64(2.5), F64(2.5)]];
const INTS: &[&[In]] = &[&[Int(3), Int(3)], &[Int(-4), Int(3)], &[Int(3), Int(-4)]];
const UNSIGNEDS: &[&[In]] =
    &[&[Int(7), Int(7)], &[Int(0xffff_fff0), Int(3)], &[Int(3), Int(0xffff_fff0)]];

pub const ROWS: &[Row] = &[
    // Casts: all 17 kinds.
    ("long f(int x) { long y = x; return y * 3; }", &[&[Int(-5)]]),
    ("long f(unsigned x) { long y = x; return y + 1; }", &[&[Int(0xffff_fff0)]]),
    ("int f(long x) { int y = x; return y; }", &[&[Int(0x1_8765_4321)]]),
    ("int f(int x) { return (char)x; }", &[&[Int(200)]]),
    ("int f(int x) { return (unsigned char)x; }", &[&[Int(-56)]]),
    ("int f(int x) { return (short)x; }", &[&[Int(40000)]]),
    ("int f(int x) { return (unsigned short)x; }", &[&[Int(-1)]]),
    ("double f(int x) { float a = x; return a; }", &[&[Int(16_777_217)]]),
    ("double f(int x) { double d = x; return d / 4; }", &[&[Int(-7)]]),
    ("double f(long x) { float a = x; return a; }", &[&[Int(-(1 << 40) - 3)]]),
    ("double f(long x) { return x; }", &[&[Int((1 << 60) + 1)]]),
    ("double f(unsigned x) { return x; }", &[&[Int(0xffff_ffff)]]),
    ("int f(double x) { float a = x; return a; }", &[&[F64(-7.75)]]),
    ("int f(double x) { return x; }", &[&[F64(123.99)]]),
    ("long f(double x) { float a = x; return a; }", &[&[F64(-3e10)]]),
    ("long f(double x) { return x; }", &[&[F64(1e12 + 0.5)]]),
    // Narrow memory.
    (
        "int f(char *p) { p[1] = p[0] + 100; return p[1] * 3 + p[2]; }",
        &[&[Buf(&[100, 0, 240])]],
    ),
    (
        "int f(unsigned char *p) { p[2] = p[0] * 3; return p[2] + p[1]; }",
        &[&[Buf(&[200, 250, 0])]],
    ),
    (
        "int f(short *p) { p[1] = p[0] - 3; p[2] = p[1] * 2; return p[2]; }",
        &[&[Buf(&[0, 0x80, 0, 0, 0, 0])]],
    ),
    (
        "int f(unsigned short *p) { p[0] = p[0] + 1; return p[0] + p[1]; }",
        &[&[Buf(&[0xff, 0xff, 16, 0])]],
    ),
    // Float arithmetic and constants.
    (
        "double f(double x, double y) { float a = x; float b = y; \
         float c = a * b - a / b + 1.5f; return c; }",
        &[&[F64(1.25), F64(-3.5)]],
    ),
    (
        "double f(double x, double y) { return (x - y) / (x * y) + 0.1; }",
        &[&[F64(1.25), F64(-3.5)]],
    ),
    // Wide constants: movabsq, movz + movk.
    ("long f(long x) { return x + 81985529216486895; }", &[&[Int(-1)]]),
    ("long f(long x) { return x ^ -4294967296; }", &[&[Int(0x1234)]]),
    ("int f(int x) { return x + 305419896; }", &[&[Int(1)]]),
    // Predicates as values and as fused branches.
    (
        "int f(int a, int b) { return (a == b) + 2 * (a != b) + 4 * (a < b) \
         + 8 * (a <= b) + 16 * (a > b) + 32 * (a >= b); }",
        INTS,
    ),
    (
        "int f(int a, int b) { int r = 0; if (a == b) r += 1; if (a != b) r += 2; \
         if (a < b) r += 4; if (a <= b) r += 8; if (a > b) r += 16; if (a >= b) r += 32; \
         return r; }",
        INTS,
    ),
    (
        "int f(unsigned a, unsigned b) { return (a == b) + 2 * (a != b) + 4 * (a < b) \
         + 8 * (a <= b) + 16 * (a > b) + 32 * (a >= b); }",
        UNSIGNEDS,
    ),
    (
        "int f(unsigned a, unsigned b) { int r = 0; if (a == b) r += 1; if (a != b) r += 2; \
         if (a < b) r += 4; if (a <= b) r += 8; if (a > b) r += 16; if (a >= b) r += 32; \
         return r; }",
        UNSIGNEDS,
    ),
    (
        "int f(long a, long b) { int r = (a < b) + 2 * (a >= b); if (a > b) r += 4; \
         if (a <= b) r += 8; return r; }",
        &[&[Int(1 << 40), Int(-(1 << 40))], &[Int(-(1 << 40)), Int(1 << 40)]],
    ),
    (
        "int f(long x, long y) { unsigned long a = x; unsigned long b = y; \
         int r = (a < b) + 2 * (a >= b); if (a > b) r += 4; if (a <= b) r += 8; return r; }",
        &[&[Int(-1), Int(1 << 40)], &[Int(1 << 40), Int(-1)]],
    ),
    (DOUBLE_VALUE, ORDERED),
    (DOUBLE_BRANCH, ORDERED),
    (FLOAT_VALUE, ORDERED),
    (FLOAT_BRANCH, ORDERED),
    // Division, remainder and shifts.
    (
        "int f(int a, int b) { return a / b * 1000 + a % b; }",
        &[&[Int(-17), Int(5)], &[Int(17), Int(-5)]],
    ),
    (
        "unsigned f(unsigned a, unsigned b) { return a / b * 10 + a % b; }",
        &[&[Int(0xffff_fff3), Int(7)]],
    ),
    (
        "long f(long a, long b) { return a / b * 3 + a % b; }",
        &[&[Int(-(1 << 40) - 7), Int(1000)]],
    ),
    (
        "long f(long x, long y) { unsigned long a = x; unsigned long b = y; \
         return a / b + a % b; }",
        &[&[Int(-5), Int(3)]],
    ),
    (
        "int f(int a, int n) { return (a << n) + (a >> n) + (a & n) + (a | n) + (a ^ n); }",
        &[&[Int(-100), Int(3)]],
    ),
    (
        "unsigned f(unsigned a, int n) { return (a >> n) + (a << n); }",
        &[&[Int(0x8000_0001), Int(4)]],
    ),
    (
        "long f(long a, int n) { return (a << n) ^ (a >> n); }",
        &[&[Int(-(1 << 40) - 3), Int(5)]],
    ),
    ("long f(long x, int n) { unsigned long a = x; return a >> n; }", &[&[Int(-1), Int(7)]]),
    // Register arguments: six int, eight double, mixed; as parameters and
    // as a call's arguments.
    (
        "int g6(int a, int b, int c, int d, int e, int g) { \
         return a - b * 2 + c * 3 - d * 4 + e * 5 - g * 6; } \
         int f(int a, int b, int c, int d, int e, int g) { \
         return g6(g, e, c, a, b, d) * 7 + g6(a, b, c, d, e, g); }",
        &[&[Int(1), Int(-2), Int(3), Int(-4), Int(5), Int(-6)]],
    ),
    (
        "double h8(double a, double b, double c, double d, double e, double g, double h, \
         double k) { return a - b * 2 + c * 3 - d * 4 + e * 5 - g * 6 + h * 7 - k * 8; } \
         double f(double a, double b, double c, double d, double e, double g, double h, \
         double k) { return h8(k, h, g, e, d, c, b, a) * 0.5 + h8(a, b, c, d, e, g, h, k); }",
        &[&[
            F64(1.5),
            F64(-2.0),
            F64(3.25),
            F64(-4.0),
            F64(5.5),
            F64(-6.0),
            F64(7.75),
            F64(-8.0),
        ]],
    ),
    (
        "double mix(int a, double x, long b, double y, int c) { return a * x + b - y * c; } \
         double f(int a, double x, long b, double y, int c) { \
         return mix(c, y, b, x, a) * 3 + mix(a, x, b, y, c); }",
        &[&[Int(3), F64(1.5), Int(1 << 40), F64(-2.25), Int(-7)]],
    ),
    // Control flow: a switch with fall-through, and the vectorized loop.
    (
        "int f(int x) { int r = 1; switch (x) { case 1: r = 10; break; \
         case 2: case 3: r = 20; break; case 7: r = x * 5; default: r = r + x; } return r; }",
        &[&[Int(1)], &[Int(3)], &[Int(7)], &[Int(9)]],
    ),
    (
        "int f(int *list, int val, int n) { int i; \
         for (i = 0; i < n; ++i) { list[i] += val; } return n; }",
        &[&[
            Buf(&[1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0]),
            Int(7),
            Int(6),
        ]],
    ),
];

/// Float compares with an unordered (NaN) operand. They agree on AArch64
/// only: x86 codegen tests `ucomisd`'s carry and zero flags without the
/// parity flag, so an unordered `<`, `<=`, `==` or `!=` comes out wrong.
pub const UNORDERED: &[Row] =
    &[(DOUBLE_VALUE, NAN), (DOUBLE_BRANCH, NAN), (FLOAT_VALUE, NAN), (FLOAT_BRANCH, NAN)];

const NAN: &[&[In]] = &[&[F64(f64::NAN), F64(1.0)], &[F64(1.0), F64(f64::NAN)]];
