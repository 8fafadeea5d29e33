//! Pins what the post-processors make of broken hypotheses: type inference
//! and program repair, run the way the `SladeRepair` tool runs them
//! (`slade_eval::tools`), on five deterministic corruptions of every item
//! of the tiny seed-1 training set. A change that moves any inferred
//! header, inference error or repaired candidate moves the digest.

use slade_dataset::{generate_train, DatasetItem, DatasetProfile};
use slade_minic::pretty::pretty_function;
use slade_minic::{parse_program, replace_ident, Stmt, StmtKind};
use slade_repair::repair_candidates;
use slade_typeinf::infer_missing_types;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Removes the first local declaration of `stmts` (statement order,
/// outermost first); false when they declare none.
fn drop_decl_in(stmts: &mut Vec<Stmt>) -> bool {
    if let Some(i) = stmts.iter().position(|s| matches!(s.kind, StmtKind::Decl { .. })) {
        stmts.remove(i);
        return true;
    }
    stmts.iter_mut().any(drop_decl)
}

fn drop_decl(s: &mut Stmt) -> bool {
    match &mut s.kind {
        StmtKind::Block(ss) => drop_decl_in(ss),
        StmtKind::For { init, body, .. } => {
            if init.as_ref().is_some_and(|i| matches!(i.kind, StmtKind::Decl { .. })) {
                *init = None;
                return true;
            }
            drop_decl(body)
        }
        StmtKind::If { then_branch, else_branch, .. } => {
            drop_decl(then_branch) || else_branch.as_deref_mut().is_some_and(drop_decl)
        }
        StmtKind::While { body, .. }
        | StmtKind::DoWhile { body, .. }
        | StmtKind::Labeled { stmt: body, .. } => drop_decl(body),
        StmtKind::Switch { arms, .. } => arms.iter_mut().any(|(_, body)| drop_decl_in(body)),
        _ => false,
    }
}

/// The item's function, printed without its first local declaration
/// (printed unchanged when it declares no local).
fn drop_first_decl(item: &DatasetItem) -> String {
    let program = parse_program(&item.full_src()).expect("dataset item parses");
    let mut func = program.function(&item.name).expect("item defines its function").clone();
    if let Some(body) = &mut func.body {
        drop_decl(body);
    }
    pretty_function(&func)
}

/// Five broken hypotheses for one item: `(label, hypothesis, context)`.
fn corruptions(item: &DatasetItem) -> Vec<(&'static str, String, String)> {
    let (src, ctx) = (&item.func_src, &item.context_src);
    let brace = src.find('{').expect("function body");
    let garbled = format!("{}\n  x = ) 1 +;\n{}", &src[..=brace], &src[brace + 1..]);
    let close = src.rfind('}').expect("function body");
    let truncated = format!("{}{}\nint g(int", &src[..close], &src[close + 1..]);
    let renamed = replace_ident(src, &item.name, "decompiled_fn");
    let at = renamed.find("decompiled_fn(").expect("function name");
    let retyped = format!("ret_t {}", &renamed[at..]);
    vec![
        ("no-context", src.clone(), String::new()),
        ("no-decl", drop_first_decl(item), ctx.clone()),
        ("garbled", garbled, ctx.clone()),
        ("truncated", truncated, ctx.clone()),
        ("retyped", retyped, ctx.clone()),
    ]
}

#[test]
fn postprocessor_output_is_pinned() {
    let items = generate_train(DatasetProfile::tiny(), 1);
    assert_eq!(items.len(), 40);
    assert_eq!(items.iter().filter(|i| !i.context_src.trim().is_empty()).count(), 14);
    let mut text = String::new();
    let (mut inferred, mut appended) = (0, 0);
    for item in &items {
        for (label, hyp, ctx) in corruptions(item) {
            text.push_str(&format!("== {} {label}\n{hyp}\n", item.name));
            let header = match infer_missing_types(&hyp, &ctx) {
                Ok(header) => {
                    inferred += 1;
                    text.push_str(&format!("ok {header}\n"));
                    header
                }
                Err(e) => {
                    text.push_str(&format!("err {e}\n"));
                    String::new()
                }
            };
            let out = repair_candidates(&[(hyp, header)], &ctx, Some(&item.name));
            for (fixed, header) in &out[1..] {
                appended += 1;
                text.push_str(&format!("+ {header}\n{fixed}\n"));
            }
        }
    }
    let digest = fnv1a64(text.as_bytes());
    assert_eq!((inferred, appended, digest), (93, 107, 0x224d_8eaa_08f1_33bb), "{digest:#x}");
}
