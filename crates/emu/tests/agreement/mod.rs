//! The agreement table: MiniC programs that together reach every cast kind,
//! every memory width, `float` arithmetic, constants too wide for one
//! immediate, every predicate both as a value and as a fused branch,
//! division, remainder and shifts at every width, the register-argument
//! shapes of both ABIs, `switch`, and the loop the x86 `-O3` vectorizer
//! rewrites; beside it, the compound-assignment and wide-shift tables.
//!
//! `tests/libc.rs` runs every call on both emulators at -O0 and -O3 against
//! `minic::interp`; `slade_compiler`'s `tests/emit_digest.rs` pins what the
//! compiler emits for every program, one digest per table. A new row goes
//! in a new table with its own digest, so the pinned ones stay put.

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

/// The loop the x86 `-O3` vectorizer rewrites.
pub const VECTOR_LOOP: &str = "int f(int *list, int val, int n) { int i; \
     for (i = 0; i < n; ++i) { list[i] += val; } return n; }";

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
        VECTOR_LOOP,
        &[&[
            Buf(&[1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0]),
            Int(7),
            Int(6),
        ]],
    ),
];

/// Compound assignment, which `ROWS` reaches only as `int +=`: every `op=`
/// on `char` / `unsigned char` / `short` / `unsigned short` targets, in
/// locals and in memory; signed / unsigned mixes; an `int` (and a narrow)
/// target with a `double` operand; a `float` target with integer operands;
/// narrow shifts; pointer `+=` / `-=`. `emit_digest.rs` pins this table
/// apart from `ROWS`.
pub const COMPOUND: &[Row] = &[
    (
        "int f(int x, int y) { char c = x; c += y; c -= 3; c *= y; c /= 3; c %= 7; \
         c &= 0x3c; c |= 0x41; c ^= y; return c; }",
        &[&[Int(100), Int(57)], &[Int(-100), Int(-9)]],
    ),
    (
        "int f(int x, int y) { unsigned char c = x; c += y; c -= 300; c *= y; c /= 3; \
         c %= 11; c <<= 2; c >>= 1; return c; }",
        &[&[Int(200), Int(77)], &[Int(-1), Int(3)]],
    ),
    (
        "int f(int x, int y) { short s = x; s += y; s *= 7; s -= 12345; s /= y; s %= 1000; \
         s ^= y; return s; }",
        &[&[Int(30000), Int(5000)], &[Int(-30000), Int(-7)]],
    ),
    (
        "unsigned f(int x, unsigned y) { unsigned short w = x; w += y; w -= 70000; w *= 3; \
         w /= y; w %= 4099; w |= 0x8000; return w; }",
        &[&[Int(65535), Int(3)], &[Int(-2), Int(0xffff_fff0)]],
    ),
    (
        "int f(char *p, short *q, int y) { p[0] += y; p[1] -= y; p[2] *= y; q[0] += y; \
         q[1] >>= 3; q[1] <<= 1; return p[0] + p[1] + p[2] + q[0] + q[1]; }",
        &[&[Buf(&[100, 200, 7]), Buf(&[0, 0x80, 0x34, 0x12]), Int(50)]],
    ),
    (
        "int f(unsigned char *p, unsigned short *q, int y) { p[0] += y; p[1] -= y; \
         p[2] /= y; q[0] *= y; q[1] %= y; return p[0] * 3 + p[1] + p[2] + q[0] + q[1]; }",
        &[&[Buf(&[250, 3, 99]), Buf(&[0xff, 0xff, 0x10, 0x27]), Int(7)]],
    ),
    // Signed / unsigned mixes.
    (
        "unsigned f(unsigned a, int b) { a += b; a -= b * 3; a /= b; a %= b + 10; return a; }",
        &[&[Int(100), Int(-7)], &[Int(0xffff_fff0), Int(9)]],
    ),
    (
        "int f(int a, unsigned b) { a += b; a /= b; a %= b; a -= b; return a; }",
        &[&[Int(-100), Int(7)], &[Int(100), Int(0xffff_fff0)]],
    ),
    (
        "long f(long a, unsigned b) { a += b; a -= b * 2; a /= b; a %= b; return a; }",
        &[&[Int(-1000), Int(7)]],
    ),
    (
        "long f(long x, long y) { unsigned long a = x; a += y; a -= 5; a /= y; a %= y + 3; \
         return a; }",
        &[&[Int(-1), Int(3)]],
    ),
    (
        "int f(int a, long y) { unsigned long u = y; a -= u; a += u / 2; return a; }",
        &[&[Int(5), Int(-3)]],
    ),
    // Integer targets with a floating operand, floating targets with
    // integer operands.
    (
        "int f(int a, double x) { a += x; a *= x; a -= x; a /= x; return a; }",
        &[&[Int(7), F64(2.5)], &[Int(-7), F64(2.5)], &[Int(1000), F64(-0.75)]],
    ),
    (
        "int f(int a, double x) { char c = a; unsigned short w = a; c += x; c *= x; \
         w -= x; w /= x; return c * 100000 + w; }",
        &[&[Int(10), F64(2.5)]],
    ),
    ("long f(long a, double x) { a += x; a *= x; return a; }", &[&[Int(1 << 40), F64(1.5)]]),
    (
        "double f(double x, int n) { float a = x; a += n; a *= n; a -= n; a /= n; return a; }",
        &[&[F64(1.25), Int(3)], &[F64(-0.1), Int(-7)]],
    ),
    (
        "double f(double x, int n) { float a = x; unsigned u = n; long l = n; a += u; \
         a -= l * 3; a *= 2; return a; }",
        &[&[F64(1.5), Int(1000)]],
    ),
    // Narrow shifts: right shifts of any sign, left shifts of non-negative
    // values.
    (
        "int f(int x, int n) { char c = x; unsigned char u = x; short s = x; \
         unsigned short w = x; c >>= n; u >>= n; s >>= n; w >>= n; \
         return c + 3 * u + 5 * s + 7 * w; }",
        &[&[Int(-100), Int(3)], &[Int(0x7f7f), Int(5)], &[Int(200), Int(1)]],
    ),
    (
        "int f(int x, int n) { char c = x; unsigned char u = x; short s = x; \
         unsigned short w = x; c <<= n; u <<= n; s <<= n; w <<= n; \
         return c + 3 * u + 5 * s + 7 * w; }",
        &[&[Int(100), Int(3)], &[Int(0x3f3f), Int(4)]],
    ),
    // Pointer += / -=, scaled by the pointee and with narrow or negative
    // offsets.
    (
        "int f(int *p, int n) { int *q = p; q += n; q -= 1; *q += 100; q -= n - 1; \
         return *q + p[n - 1]; }",
        &[&[Buf(&[1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0]), Int(3)]],
    ),
    (
        "long f(long *p, short *s, long n) { p += n; s += n * 2; p -= 1; s -= 1; \
         return *p + *s; }",
        &[&[
            Buf(&[9, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0]),
            Buf(&[1, 0, 2, 0, 3, 0, 4, 0]),
            Int(1),
        ]],
    ),
    (
        "int f(char *p, int k) { unsigned char u = k; short d = -k; char *q = p; q += u; \
         q += d; q += u; q -= 1; return *q; }",
        &[&[Buf(&[10, 20, 30, 40, 50, 60]), Int(3)]],
    ),
];

/// Shifts of a `long` by 32 or more: the count must not be masked as if
/// the shift were 32 bits wide. `emit_digest.rs` pins this table apart from
/// `ROWS` and `COMPOUND`.
pub const WIDE_SHIFTS: &[Row] = &[
    ("long f(long a, int n) { return a << n; }", &[&[Int(3), Int(40)]]),
    ("long f(long a, int n) { return a >> n; }", &[&[Int(-(1 << 50)), Int(40)]]),
    ("long f(long x, int n) { unsigned long a = x; return a >> n; }", &[&[Int(-1), Int(40)]]),
];

/// Float compares with an unordered (NaN) operand. They agree on AArch64
/// only: x86 codegen tests `ucomisd`'s carry and zero flags without the
/// parity flag, so an unordered `<`, `<=`, `==` or `!=` comes out wrong.
pub const UNORDERED: &[Row] =
    &[(DOUBLE_VALUE, NAN), (DOUBLE_BRANCH, NAN), (FLOAT_VALUE, NAN), (FLOAT_BRANCH, NAN)];

const NAN: &[&[In]] = &[&[F64(f64::NAN), F64(1.0)], &[F64(1.0), F64(f64::NAN)]];
