//! Dataset generation: the ExeBench / AnghaBench / Synth-benchmark stand-in.
//!
//! The paper trains on ~4M real-world C functions paired with GCC assembly
//! (ExeBench) and evaluates on a held-out ExeBench slice plus the 112-item
//! Synth suite, whose categories (Fig. 11) are `makespeare`, `simpl_int`,
//! `simpl_array`, `L2`, `SKETCHADAPT`, `string`, `mathfu`, `BLAS`, `DSP`.
//!
//! We cannot scrape GitHub here, so this crate *generates* compilable,
//! executable MiniC functions from seeded template families spanning those
//! same categories, each with: a calling context (typedefs, structs,
//! globals, external helper definitions — the parts a decompiler does *not*
//! see), concrete IO inputs, and token-level hash deduplication between
//! train and test splits (§V-A). Function length is biased short, matching
//! the ExeBench length distribution in Fig. 9.

#![warn(missing_docs)]

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use slade_minic::parse_program;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// A concrete argument for one IO example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArgSpec {
    /// Scalar integer.
    Int(i64),
    /// Scalar double.
    F64(f64),
    /// `int*` buffer (little-endian i32 elements).
    IntBuf(Vec<i32>),
    /// `double*` buffer.
    F64Buf(Vec<f64>),
    /// `char*` buffer (NUL-terminated by the harness).
    CharBuf(Vec<u8>),
}

/// Benchmark category, following Fig. 11's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Simple integer arithmetic, trivial control flow.
    SimplInt,
    /// Integer array loops.
    SimplArray,
    /// Functional-style (recursive) integer programs.
    L2,
    /// String-manipulation programs (hardest in the paper).
    Sketchadapt,
    /// C-string scans.
    StringOps,
    /// Scalar floating-point math.
    Mathfu,
    /// BLAS-like vector kernels.
    Blas,
    /// Fixed-point DSP kernels.
    Dsp,
    /// Miscellaneous multi-statement integer functions.
    Makespeare,
    /// ExeBench-only: user-defined struct types in the context.
    Structs,
    /// ExeBench-only: calls to external helpers defined in the context.
    ExternCalls,
    /// ExeBench-only: references to globals defined in the context.
    Globals,
}

/// All Synth categories, in the paper's Fig. 11 order.
pub const SYNTH_CATEGORIES: [Category; 9] = [
    Category::Makespeare,
    Category::SimplInt,
    Category::SimplArray,
    Category::L2,
    Category::Sketchadapt,
    Category::StringOps,
    Category::Mathfu,
    Category::Blas,
    Category::Dsp,
];

/// One dataset item: a function with its context and IO inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetItem {
    /// Function name.
    pub name: String,
    /// The ground-truth function source alone.
    pub func_src: String,
    /// Context source (typedefs/structs/globals/extern helpers), *without*
    /// the function itself. Concatenating `context_src + func_src` yields a
    /// complete executable program.
    pub context_src: String,
    /// Category of the generating template.
    pub category: Category,
    /// Concrete inputs for IO-equivalence testing.
    pub inputs: Vec<Vec<ArgSpec>>,
}

impl DatasetItem {
    /// The full program: context plus ground-truth function.
    pub fn full_src(&self) -> String {
        format!("{}\n{}", self.context_src, self.func_src)
    }

    /// Token-level hash used for train/test deduplication (§V-A).
    pub fn token_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for t in slade_tokenizer_pretokens(&self.func_src) {
            t.hash(&mut h);
        }
        h.finish()
    }
}

// Local pretokenizer mirror to avoid a dependency cycle with the tokenizer
// crate (the dedup only needs stable word splitting).
fn slade_tokenizer_pretokens(text: &str) -> Vec<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// Reproduction-scale dataset sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetProfile {
    /// Training pairs to generate.
    pub train: usize,
    /// ExeBench-like evaluation items.
    pub exebench_eval: usize,
    /// Synth items per category (9 categories).
    pub synth_per_category: usize,
}

impl DatasetProfile {
    /// Unit-test sized.
    pub fn tiny() -> Self {
        DatasetProfile { train: 40, exebench_eval: 10, synth_per_category: 2 }
    }

    /// Bench-harness sized (minutes on one core).
    pub fn default_profile() -> Self {
        DatasetProfile { train: 900, exebench_eval: 120, synth_per_category: 12 }
    }
}

/// Generates the training set: deduplicated items across all categories.
pub fn generate_train(profile: DatasetProfile, seed: u64) -> Vec<DatasetItem> {
    generate_items(profile.train, seed, &exebench_mix(), None)
}

/// Generates the held-out ExeBench-like evaluation set, guaranteed disjoint
/// (by token hash) from `train`.
pub fn generate_exebench_eval(
    profile: DatasetProfile,
    seed: u64,
    train: &[DatasetItem],
) -> Vec<DatasetItem> {
    let taken: HashSet<u64> = train.iter().map(DatasetItem::token_hash).collect();
    generate_items(profile.exebench_eval, seed ^ 0xeeee, &exebench_mix(), Some(&taken))
}

/// Generates the Synth suite: `synth_per_category` items per category.
pub fn generate_synth(
    profile: DatasetProfile,
    seed: u64,
    train: &[DatasetItem],
) -> Vec<DatasetItem> {
    let taken: HashSet<u64> = train.iter().map(DatasetItem::token_hash).collect();
    let mut out = Vec::new();
    for (i, cat) in SYNTH_CATEGORIES.iter().enumerate() {
        out.extend(generate_items(
            profile.synth_per_category,
            seed ^ 0x5511 ^ (i as u64) << 8,
            &[*cat],
            Some(&taken),
        ));
    }
    out
}

fn exebench_mix() -> Vec<Category> {
    use Category::*;
    vec![
        SimplInt,
        SimplInt,
        SimplArray,
        SimplArray,
        Makespeare,
        Makespeare,
        StringOps,
        Dsp,
        Mathfu,
        Blas,
        L2,
        Structs,
        Structs,
        ExternCalls,
        ExternCalls,
        Globals,
    ]
}

fn generate_items(
    count: usize,
    seed: u64,
    categories: &[Category],
    exclude: Option<&HashSet<u64>>,
) -> Vec<DatasetItem> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 50 {
        attempts += 1;
        let cat = *categories.choose(&mut rng).expect("nonempty categories");
        let item = generate_one(cat, &mut rng);
        // Items must actually compile and type-check.
        if parse_program(&item.full_src())
            .and_then(|p| slade_minic::Sema::check(&p).map(|_| p))
            .is_err()
        {
            continue;
        }
        let h = item.token_hash();
        if seen.contains(&h) || exclude.is_some_and(|e| e.contains(&h)) {
            continue;
        }
        seen.insert(h);
        out.push(item);
    }
    out
}

const VERBS: [&str; 10] =
    ["compute", "scale", "count", "apply", "update", "blend", "fold", "shift", "probe", "mix"];
const NOUNS: [&str; 10] =
    ["sum", "vals", "items", "score", "delta", "total", "weight", "mask", "acc", "span"];
const IVARS: [&str; 4] = ["i", "j", "k", "idx"];
const PTRS: [&str; 4] = ["arr", "buf", "data", "list"];

fn fresh_name(rng: &mut ChaCha8Rng) -> String {
    let v = VERBS.choose(rng).unwrap();
    let n = NOUNS.choose(rng).unwrap();
    if rng.gen_bool(0.3) {
        format!("{v}_{n}{}", rng.gen_range(2..9))
    } else {
        format!("{v}_{n}")
    }
}

fn small_k(rng: &mut ChaCha8Rng) -> i64 {
    *[1i64, 2, 3, 4, 5, 7, 8, 10, 16, 100].choose(rng).unwrap()
}

fn int_inputs(rng: &mut ChaCha8Rng, n: usize) -> Vec<Vec<ArgSpec>> {
    (0..4).map(|_| (0..n).map(|_| ArgSpec::Int(rng.gen_range(-20..40))).collect()).collect()
}

fn generate_one(cat: Category, rng: &mut ChaCha8Rng) -> DatasetItem {
    match cat {
        Category::SimplInt => gen_simpl_int(rng),
        Category::SimplArray => gen_simpl_array(rng),
        Category::L2 => gen_l2(rng),
        Category::Sketchadapt => gen_sketchadapt(rng),
        Category::StringOps => gen_string(rng),
        Category::Mathfu => gen_mathfu(rng),
        Category::Blas => gen_blas(rng),
        Category::Dsp => gen_dsp(rng),
        Category::Makespeare => gen_makespeare(rng),
        Category::Structs => gen_structs(rng),
        Category::ExternCalls => gen_extern_calls(rng),
        Category::Globals => gen_globals(rng),
    }
}

fn gen_simpl_int(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let (a, b) = ("a", "b");
    let k1 = small_k(rng);
    let k2 = small_k(rng);
    let op1 = *["+", "-", "*"].choose(rng).unwrap();
    let op2 = *["+", "-", "*", "&", "|", "^"].choose(rng).unwrap();
    let body = match rng.gen_range(0..4) {
        0 => format!("return {a} {op1} {b} {op2} {k1};"),
        1 => format!("if ({a} > {b}) return {a} {op1} {k1}; return {b} {op2} {k2};"),
        2 => format!("int t = {a} {op1} {k1}; return t {op2} {b};"),
        _ => format!("return ({a} < {b}) ? {a} {op1} {k1} : {b} {op2} {k2};"),
    };
    let func_src = format!("int {name}(int {a}, int {b}) {{ {body} }}");
    DatasetItem {
        name,
        func_src,
        context_src: String::new(),
        category: Category::SimplInt,
        inputs: int_inputs(rng, 2),
    }
}

fn gen_simpl_array(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let p = PTRS.choose(rng).unwrap();
    let i = IVARS.choose(rng).unwrap();
    let k = small_k(rng);
    let variant = rng.gen_range(0..5);
    let func_src = match variant {
        0 => format!(
            "void {name}(int *{p}, int val, int n) {{ int {i}; for ({i} = 0; {i} < n; ++{i}) {{ {p}[{i}] += val; }} }}"
        ),
        1 => format!(
            "int {name}(int *{p}, int n) {{ int s = 0; for (int {i} = 0; {i} < n; {i}++) s += {p}[{i}]; return s; }}"
        ),
        2 => format!(
            "int {name}(int *{p}, int n) {{ int m = {p}[0]; for (int {i} = 1; {i} < n; {i}++) {{ if ({p}[{i}] > m) m = {p}[{i}]; }} return m; }}"
        ),
        3 => format!(
            "int {name}(int *{p}, int n, int val) {{ int c = 0; for (int {i} = 0; {i} < n; {i}++) {{ if ({p}[{i}] == val) c++; }} return c; }}"
        ),
        _ => format!(
            "void {name}(int *{p}, int n) {{ for (int {i} = 0; {i} < n; {i}++) {p}[{i}] = {p}[{i}] * {k}; }}"
        ),
    };
    let buf: Vec<i32> = (0..8).map(|_| rng.gen_range(-9..30)).collect();
    let inputs = match variant {
        0 => vec![
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(small_k(rng)), ArgSpec::Int(8)],
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(-3), ArgSpec::Int(5)],
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(1), ArgSpec::Int(1)],
        ],
        3 => vec![
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(8), ArgSpec::Int(buf[2] as i64)],
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(4), ArgSpec::Int(0)],
        ],
        _ => vec![
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(8)],
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(3)],
            vec![ArgSpec::IntBuf(buf), ArgSpec::Int(1)],
        ],
    };
    DatasetItem {
        name,
        func_src,
        context_src: String::new(),
        category: Category::SimplArray,
        inputs,
    }
}

fn gen_l2(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let variant = rng.gen_range(0..3);
    let func_src = match variant {
        0 => format!(
            "int {name}(int n) {{ if (n < 2) return n; return {name}(n - 1) + {name}(n - 2); }}"
        ),
        1 => format!("int {name}(int n) {{ int r = 1; while (n > 1) {{ r *= n; n -= 1; }} return r; }}"),
        _ => format!(
            "int {name}(int a, int b) {{ while (b != 0) {{ int t = a % b; a = b; b = t; }} return a; }}"
        ),
    };
    let inputs = if variant == 2 {
        vec![
            vec![ArgSpec::Int(36), ArgSpec::Int(24)],
            vec![ArgSpec::Int(7), ArgSpec::Int(5)],
            vec![ArgSpec::Int(10), ArgSpec::Int(0)],
        ]
    } else {
        vec![vec![ArgSpec::Int(1)], vec![ArgSpec::Int(6)], vec![ArgSpec::Int(9)]]
    };
    DatasetItem { name, func_src, context_src: String::new(), category: Category::L2, inputs }
}

fn gen_sketchadapt(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let variant = rng.gen_range(0..3);
    let func_src = match variant {
        0 => format!(
            "void {name}(char *s) {{ int i = 0; while (s[i]) {{ if (s[i] >= 'a' && s[i] <= 'z') s[i] = s[i] - 32; i++; }} }}"
        ),
        1 => format!(
            "int {name}(char *s, char c) {{ int n = 0; for (int i = 0; s[i]; i++) {{ if (s[i] == c) n++; }} return n; }}"
        ),
        _ => format!(
            "void {name}(char *dst, char *src) {{ int i = 0; while (src[i]) {{ dst[i] = src[i]; i++; }} dst[i] = 0; }}"
        ),
    };
    let word = *["hello world", "decompile me", "slade test"].choose(rng).unwrap();
    let inputs = match variant {
        1 => vec![
            vec![ArgSpec::CharBuf(word.as_bytes().to_vec()), ArgSpec::Int('l' as i64)],
            vec![ArgSpec::CharBuf(word.as_bytes().to_vec()), ArgSpec::Int('e' as i64)],
        ],
        2 => vec![vec![
            ArgSpec::CharBuf(vec![0u8; 24]),
            ArgSpec::CharBuf(word.as_bytes().to_vec()),
        ]],
        _ => vec![vec![ArgSpec::CharBuf(word.as_bytes().to_vec())]],
    };
    DatasetItem {
        name,
        func_src,
        context_src: String::new(),
        category: Category::Sketchadapt,
        inputs,
    }
}

fn gen_string(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let variant = rng.gen_range(0..2);
    let func_src = match variant {
        0 => format!(
            "int {name}(char *s) {{ int n = 0; while (s[n]) n++; return n; }}"
        ),
        _ => format!(
            "int {name}(char *s) {{ int v = 0; for (int i = 0; s[i]; i++) v = v * 10 + (s[i] - '0'); return v; }}"
        ),
    };
    let text = if variant == 0 { "some text" } else { "4711" };
    DatasetItem {
        name,
        func_src,
        context_src: String::new(),
        category: Category::StringOps,
        inputs: vec![vec![ArgSpec::CharBuf(text.as_bytes().to_vec())]],
    }
}

fn gen_mathfu(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let k = small_k(rng) as f64;
    let variant = rng.gen_range(0..3);
    let func_src = match variant {
        0 => format!("double {name}(double x) {{ return x * x + {k}.0; }}"),
        1 => format!("double {name}(double x, double y) {{ return sqrt(x * x + y * y); }}"),
        _ => format!("double {name}(double x) {{ if (x < 0.0) x = -x; return x * {k}.5; }}"),
    };
    let inputs = if variant == 1 {
        vec![
            vec![ArgSpec::F64(3.0), ArgSpec::F64(4.0)],
            vec![ArgSpec::F64(1.5), ArgSpec::F64(2.0)],
        ]
    } else {
        vec![vec![ArgSpec::F64(2.0)], vec![ArgSpec::F64(-1.25)]]
    };
    DatasetItem {
        name,
        func_src,
        context_src: String::new(),
        category: Category::Mathfu,
        inputs,
    }
}

fn gen_blas(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let variant = rng.gen_range(0..2);
    let func_src = match variant {
        0 => format!(
            "void {name}(int n, double a, double *x, double *y) {{ for (int i = 0; i < n; i++) y[i] = a * x[i] + y[i]; }}"
        ),
        _ => format!(
            "double {name}(int n, double *x, double *y) {{ double s = 0.0; for (int i = 0; i < n; i++) s += x[i] * y[i]; return s; }}"
        ),
    };
    let x: Vec<f64> = (0..6).map(|_| rng.gen_range(-3.0..5.0_f64).round()).collect();
    let y: Vec<f64> = (0..6).map(|_| rng.gen_range(-3.0..5.0_f64).round()).collect();
    let inputs = if variant == 0 {
        vec![vec![ArgSpec::Int(6), ArgSpec::F64(2.0), ArgSpec::F64Buf(x), ArgSpec::F64Buf(y)]]
    } else {
        vec![vec![ArgSpec::Int(6), ArgSpec::F64Buf(x), ArgSpec::F64Buf(y)]]
    };
    DatasetItem { name, func_src, context_src: String::new(), category: Category::Blas, inputs }
}

fn gen_dsp(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let shift = rng.gen_range(1..5);
    let k = small_k(rng);
    let variant = rng.gen_range(0..2);
    let func_src = match variant {
        0 => format!(
            "void {name}(int *buf, int n) {{ for (int i = 0; i < n; i++) buf[i] = (buf[i] * {k}) >> {shift}; }}"
        ),
        _ => format!(
            "int {name}(int *buf, int n) {{ int acc = 0; for (int i = 1; i < n; i++) acc += (buf[i] - buf[i - 1]) >> {shift}; return acc; }}"
        ),
    };
    let buf: Vec<i32> = (0..8).map(|_| rng.gen_range(0..64)).collect();
    DatasetItem {
        name,
        func_src,
        context_src: String::new(),
        category: Category::Dsp,
        inputs: vec![
            vec![ArgSpec::IntBuf(buf.clone()), ArgSpec::Int(8)],
            vec![ArgSpec::IntBuf(buf), ArgSpec::Int(3)],
        ],
    }
}

fn gen_makespeare(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let k1 = small_k(rng);
    let k2 = small_k(rng);
    let variant = rng.gen_range(0..4);
    let func_src = match variant {
        0 => format!(
            "int {name}(int x, int y) {{ int s = 0; while (x > 0) {{ s += y; x--; }} return s + {k1}; }}"
        ),
        1 => format!(
            "int {name}(int n) {{ int a = 0; int b = 1; for (int i = 0; i < n; i++) {{ int t = a + b; a = b; b = t; }} return a; }}"
        ),
        2 => format!(
            "int {name}(int x) {{ int r = 0; while (x != 0) {{ r = r * 10 + x % 10; x /= 10; }} return r + {k2}; }}"
        ),
        _ => format!(
            "int {name}(int x) {{ switch (x & 3) {{ case 0: return x + {k1}; case 1: return x - {k2}; case 2: return x * 2; default: return -x; }} }}"
        ),
    };
    let inputs = if variant == 0 {
        vec![vec![ArgSpec::Int(4), ArgSpec::Int(6)], vec![ArgSpec::Int(0), ArgSpec::Int(9)]]
    } else {
        vec![vec![ArgSpec::Int(12)], vec![ArgSpec::Int(305)], vec![ArgSpec::Int(0)]]
    };
    DatasetItem {
        name,
        func_src,
        context_src: String::new(),
        category: Category::Makespeare,
        inputs,
    }
}

const STRUCT_NAMES: [&str; 4] = ["Point", "Pair", "Node", "Span"];
const FIELD_SETS: [(&str, &str); 4] = [("x", "y"), ("lo", "hi"), ("a", "b"), ("left", "right")];

fn gen_structs(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let sname = STRUCT_NAMES.choose(rng).unwrap();
    let (f1, f2) = FIELD_SETS.choose(rng).unwrap();
    let context_src =
        format!("typedef struct {sname} {sname};\nstruct {sname} {{ int {f1}; int {f2}; }};\n");
    let variant = rng.gen_range(0..3);
    let func_src = match variant {
        0 => format!("int {name}({sname} *p) {{ return p->{f1} + p->{f2}; }}"),
        1 => format!(
            "void {name}({sname} *p, int d) {{ p->{f1} += d; p->{f2} -= d; }}"
        ),
        _ => format!(
            "int {name}({sname} *p, int n) {{ int s = 0; for (int i = 0; i < n; i++) s += p[i].{f1} * p[i].{f2}; return s; }}"
        ),
    };
    // Struct buffers are passed as raw int pairs.
    let pairs: Vec<i32> = (0..8).map(|_| rng.gen_range(-5..20)).collect();
    let inputs = match variant {
        1 => vec![vec![ArgSpec::IntBuf(pairs.clone()), ArgSpec::Int(3)]],
        2 => vec![vec![ArgSpec::IntBuf(pairs.clone()), ArgSpec::Int(3)]],
        _ => vec![vec![ArgSpec::IntBuf(pairs)]],
    };
    DatasetItem { name, func_src, context_src, category: Category::Structs, inputs }
}

const HELPERS: [(&str, &str); 3] = [
    ("clamp_small", "int clamp_small(int v) { if (v > 100) return 100; if (v < -100) return -100; return v; }"),
    ("wrap_add", "int wrap_add(int a, int b) { return (a + b) % 1000; }"),
    ("sign_of", "int sign_of(int v) { if (v > 0) return 1; if (v < 0) return -1; return 0; }"),
];

fn gen_extern_calls(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let (hname, hdef) = HELPERS.choose(rng).unwrap();
    let k = small_k(rng);
    let two_arg = *hname == "wrap_add";
    let func_src = if two_arg {
        format!("int {name}(int x, int y) {{ return {hname}(x * {k}, y) + 1; }}")
    } else {
        format!("int {name}(int x) {{ return {hname}(x * {k}) + {hname}(x - {k}); }}")
    };
    let inputs = if two_arg { int_inputs(rng, 2) } else { int_inputs(rng, 1) };
    DatasetItem {
        name,
        func_src,
        context_src: format!("{hdef}\n"),
        category: Category::ExternCalls,
        inputs,
    }
}

const GLOBALS: [&str; 3] = ["table", "weights", "lut"];

fn gen_globals(rng: &mut ChaCha8Rng) -> DatasetItem {
    let name = fresh_name(rng);
    let g = GLOBALS.choose(rng).unwrap();
    let vals: Vec<i64> = (0..4).map(|_| small_k(rng)).collect();
    let context_src =
        format!("int {g}[4] = {{{}, {}, {}, {}}};\n", vals[0], vals[1], vals[2], vals[3]);
    let variant = rng.gen_range(0..2);
    let func_src = match variant {
        0 => format!("int {name}(int i) {{ return {g}[i & 3] * 2; }}"),
        _ => format!(
            "int {name}(int x) {{ int s = 0; for (int i = 0; i < 4; i++) s += {g}[i] * x; return s; }}"
        ),
    };
    DatasetItem {
        name,
        func_src,
        context_src,
        category: Category::Globals,
        inputs: int_inputs(rng, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slade_compiler::{compile_function, CompileOpts, Isa, OptLevel};

    #[test]
    fn all_categories_generate_compilable_items() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for cat in [
            Category::SimplInt,
            Category::SimplArray,
            Category::L2,
            Category::Sketchadapt,
            Category::StringOps,
            Category::Mathfu,
            Category::Blas,
            Category::Dsp,
            Category::Makespeare,
            Category::Structs,
            Category::ExternCalls,
            Category::Globals,
        ] {
            for _ in 0..5 {
                let item = generate_one(cat, &mut rng);
                let p = parse_program(&item.full_src())
                    .unwrap_or_else(|e| panic!("{cat:?}: {e}\n{}", item.full_src()));
                slade_minic::Sema::check(&p)
                    .unwrap_or_else(|e| panic!("{cat:?}: {e}\n{}", item.full_src()));
            }
        }
    }

    #[test]
    fn items_compile_on_both_isas_and_levels() {
        let items = generate_train(DatasetProfile::tiny(), 7);
        assert!(!items.is_empty());
        for item in items.iter().take(12) {
            let p = parse_program(&item.full_src()).unwrap();
            for isa in [Isa::X86_64, Isa::Arm64] {
                for opt in [OptLevel::O0, OptLevel::O3] {
                    compile_function(&p, &item.name, CompileOpts::new(isa, opt))
                        .unwrap_or_else(|e| panic!("{e}\n{}", item.full_src()));
                }
            }
        }
    }

    /// The compiler is a function of its input: every `HashMap` it builds
    /// is seeded afresh, so compiling one function again walks them in
    /// another order, and -O3 (the level that runs the register allocator)
    /// must still emit the same bytes.
    #[test]
    fn o3_compiles_identically_every_time() {
        let profile = DatasetProfile { train: 200, ..DatasetProfile::tiny() };
        for item in generate_train(profile, 3) {
            let p = parse_program(&item.full_src()).unwrap();
            for isa in [Isa::X86_64, Isa::Arm64] {
                let compile = || {
                    compile_function(&p, &item.name, CompileOpts::new(isa, OptLevel::O3))
                        .unwrap_or_else(|e| panic!("{e}\n{}", item.full_src()))
                };
                let first = compile();
                for _ in 0..3 {
                    assert_eq!(compile(), first, "{isa:?} -O3 of:\n{}", item.func_src);
                }
            }
        }
    }

    #[test]
    fn train_and_eval_are_disjoint_by_token_hash() {
        let profile = DatasetProfile::tiny();
        let train = generate_train(profile, 11);
        let eval = generate_exebench_eval(profile, 11, &train);
        let train_hashes: HashSet<u64> = train.iter().map(DatasetItem::token_hash).collect();
        for item in &eval {
            assert!(!train_hashes.contains(&item.token_hash()), "leaked: {}", item.func_src);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_train(DatasetProfile::tiny(), 5);
        let b = generate_train(DatasetProfile::tiny(), 5);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].func_src, b[0].func_src);
    }

    #[test]
    fn synth_covers_all_categories() {
        let profile = DatasetProfile::tiny();
        let synth = generate_synth(profile, 3, &[]);
        let cats: HashSet<Category> = synth.iter().map(|i| i.category).collect();
        assert!(cats.len() >= 8, "only {cats:?}");
    }

    #[test]
    fn items_execute_on_io_inputs() {
        use slade_minic::{Interpreter, Value};
        let items = generate_train(DatasetProfile::tiny(), 23);
        let mut executed = 0;
        for item in items.iter().take(10) {
            let p = parse_program(&item.full_src()).unwrap();
            let mut interp = Interpreter::new(&p).unwrap();
            for input in &item.inputs {
                let args: Vec<Value> = input
                    .iter()
                    .map(|a| match a {
                        ArgSpec::Int(v) => Value::int(*v),
                        ArgSpec::F64(v) => Value::F64(*v),
                        ArgSpec::IntBuf(vs) => {
                            let bytes: Vec<u8> =
                                vs.iter().flat_map(|v| v.to_le_bytes()).collect();
                            Value::Ptr(interp.alloc_buffer(&bytes))
                        }
                        ArgSpec::F64Buf(vs) => {
                            let bytes: Vec<u8> =
                                vs.iter().flat_map(|v| v.to_le_bytes()).collect();
                            Value::Ptr(interp.alloc_buffer(&bytes))
                        }
                        ArgSpec::CharBuf(bs) => {
                            let mut bytes = bs.clone();
                            bytes.push(0);
                            Value::Ptr(interp.alloc_buffer(&bytes))
                        }
                    })
                    .collect();
                interp
                    .call(&item.name, &args)
                    .unwrap_or_else(|e| panic!("{e}\n{}", item.full_src()));
                executed += 1;
            }
        }
        assert!(executed > 10);
    }
}
