//! Heuristic program repair for decompilation hypotheses.
//!
//! The paper's conclusion (§X) names *program repair* as the next lever for
//! improving neural decompilation accuracy: many hypotheses are semantically
//! right but fail to compile for shallow, mechanical reasons. This crate
//! implements that future-work direction as a deterministic repair loop:
//!
//! 1. **structural sanitation** ([`textfix`]) — close unterminated
//!    literals, drop trailing garbage past the last top-level `}`, balance
//!    `()/{}/[]`;
//! 2. **error-driven fixes** ([`errfix`]) — re-compile in the item's
//!    calling context and, per diagnostic, declare unknown identifiers,
//!    typedef unknown types, or (last resort) delete a garbled line.
//!
//! Repair is *conservative*: a hypothesis that already compiles is returned
//! byte-identical, every step is recorded in the [`RepairReport`], and the
//! loop gives up rather than guess when no fix matches the diagnostic.
//! Semantic correctness is still decided downstream by the IO harness — a
//! repair that compiles but diverges is rejected there, exactly like any
//! other beam candidate.
//!
//! # Example
//!
//! ```
//! use slade_repair::repair;
//!
//! // The decoder stopped mid-function: one `}` is missing.
//! let report = repair("int twice(int a) { return a * 2;", "");
//! let fixed = report.source.expect("repairable");
//! assert!(fixed.ends_with('}'));
//! assert!(!report.steps.is_empty());
//! ```

#![warn(missing_docs)]

pub mod errfix;
pub mod textfix;

pub use errfix::fix_for_error;
pub use textfix::{balance_delimiters, close_literals, sanitize, truncate_trailing_garbage};

use serde::{Deserialize, Serialize};
use slade_minic::{parse_program, replace_ident, MiniCError, Sema};

/// One applied repair, in application order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairStep {
    /// Appended a closing `"`, `'` or `*/` at end of input.
    ClosedStringLiteral,
    /// Appended missing and/or dropped stray delimiters.
    BalancedDelimiters {
        /// Closers appended at the end, in order.
        appended: String,
        /// Number of stray closers removed.
        stripped: usize,
    },
    /// Removed non-whitespace text after the last top-level `}`.
    TruncatedTrailingGarbage {
        /// How many characters of garbage were removed.
        removed_chars: usize,
    },
    /// Prepended a declaration for an identifier the model referenced but
    /// never introduced.
    DeclaredIdentifier {
        /// The identifier.
        name: String,
    },
    /// Prepended `typedef long <name>;` for an out-of-context type name.
    InjectedTypedef {
        /// The type name.
        name: String,
    },
    /// Deleted one unparsable line inside the hypothesis.
    DeletedLine {
        /// 1-based line in the full (context + hypothesis) program.
        line: u32,
    },
    /// Renamed the defined function to the symbol name from the assembly
    /// (the decompiler always knows the label it is lifting; models can
    /// hallucinate a different name).
    RenamedFunction {
        /// Name the model emitted.
        from: String,
        /// Expected symbol name.
        to: String,
    },
}

/// The outcome of [`repair`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairReport {
    /// The repaired hypothesis when it compiles in context; `None` when the
    /// loop could not produce a compiling program.
    pub source: Option<String>,
    /// Every step applied, in order (empty when the input already compiled).
    pub steps: Vec<RepairStep>,
    /// Error-driven rounds consumed (structural sanitation is round 0).
    pub rounds: usize,
}

impl RepairReport {
    /// True when the hypothesis compiled without any modification.
    pub fn was_already_valid(&self) -> bool {
        self.source.is_some() && self.steps.is_empty()
    }
}

/// Maximum error-driven fix rounds; each round repairs exactly one
/// diagnostic, so this bounds how many distinct defects we will chase.
const MAX_ROUNDS: usize = 6;

/// Parses and type-checks `hypothesis` inside `context` (the item's
/// calling program), the same compilability notion the IO harness uses.
///
/// # Errors
///
/// Returns the first lex/parse/type diagnostic.
pub fn try_compile(hypothesis: &str, context: &str) -> Result<(), MiniCError> {
    let full = format!("{context}\n{hypothesis}");
    let program = parse_program(&full)?;
    Sema::check(&program)?;
    Ok(())
}

/// Repairs `hypothesis` until it compiles in `context` or the fix
/// repertoire is exhausted. See the crate docs for the loop structure.
pub fn repair(hypothesis: &str, context: &str) -> RepairReport {
    if try_compile(hypothesis, context).is_ok() {
        return RepairReport {
            source: Some(hypothesis.to_string()),
            steps: Vec::new(),
            rounds: 0,
        };
    }
    // Round 0: structural sanitation.
    let (mut current, mut steps) = sanitize(hypothesis);
    // 1-based line where the hypothesis begins inside the full program:
    // `try_compile` prepends `context` plus one newline, so the hypothesis
    // starts after every newline of that prefix.
    let hyp_first_line = context.matches('\n').count() as u32 + 2;
    let mut rounds = 0usize;
    loop {
        let err = match try_compile(&current, context) {
            Ok(()) => {
                return RepairReport { source: Some(current), steps, rounds };
            }
            Err(e) => e,
        };
        if rounds >= MAX_ROUNDS {
            return RepairReport { source: None, steps, rounds };
        }
        let Some((next, step)) = fix_for_error(&current, &err, hyp_first_line) else {
            return RepairReport { source: None, steps, rounds };
        };
        if next == current {
            // A fix that changes nothing would loop forever.
            return RepairReport { source: None, steps, rounds };
        }
        current = next;
        steps.push(step);
        rounds += 1;
    }
}

/// The name of the (first) function a hypothesis defines: the identifier
/// immediately before the first top-level `(`. Purely textual, so it works
/// on hypotheses that do not yet parse.
pub fn defined_function_name(src: &str) -> Option<String> {
    let paren = src.find('(')?;
    let head = &src[..paren];
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(name)
    }
}

/// Renames the function a hypothesis defines to `expected` — the symbol
/// name is always known from the assembly label, but a model can
/// hallucinate a different (training-frequent) name, which makes the
/// hypothesis unlinkable against the calling context. Replaces every
/// word-boundary occurrence of the emitted name (so recursive calls follow
/// the definition). Returns `None` when the name already matches or cannot
/// be determined.
pub fn rename_function(hypothesis: &str, expected: &str) -> Option<(String, RepairStep)> {
    let from = defined_function_name(hypothesis)?;
    if from == expected {
        return None;
    }
    let out = replace_ident(hypothesis, &from, expected);
    Some((out, RepairStep::RenamedFunction { from, to: expected.to_string() }))
}

/// Expands beam candidates with their repaired forms: for every
/// `(hypothesis, header)` pair that fails to compile, a repaired variant is
/// appended after the originals (first-passing-IO selection then prefers
/// unrepaired candidates, keeping the paper's pipeline semantics intact).
/// When `expected_name` is given (the assembly symbol), candidates defining
/// a different function are additionally rename-repaired.
pub fn repair_candidates(
    candidates: &[(String, String)],
    context: &str,
    expected_name: Option<&str>,
) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = candidates.to_vec();
    for (hyp, header) in candidates {
        let ctx_with_header = format!("{context}\n{header}");
        // Mechanical compile repair first (a compiling hypothesis comes
        // back unchanged and is not appended).
        let repaired = repair(hyp, &ctx_with_header).source.filter(|fixed| fixed != hyp);
        let best = repaired.as_deref().unwrap_or(hyp);
        // Symbol-name repair on top of whichever form compiles.
        let renamed = expected_name
            .and_then(|want| rename_function(best, want))
            .and_then(|(text, _)| try_compile(&text, &ctx_with_header).is_ok().then_some(text));
        if let Some(fixed) = repaired {
            out.push((fixed, header.clone()));
        }
        if let Some(renamed) = renamed {
            out.push((renamed, header.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_hypothesis_is_returned_unchanged() {
        let hyp = "int f(int a) { return a * 3; }";
        let report = repair(hyp, "");
        assert_eq!(report.source.as_deref(), Some(hyp));
        assert!(report.was_already_valid());
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn missing_brace_is_repaired_to_compiling_code() {
        let report = repair("int f(int a) { return a * 3;", "");
        assert!(!report.was_already_valid());
        let fixed = report.source.expect("repairable");
        assert!(try_compile(&fixed, "").is_ok());
    }

    #[test]
    fn unknown_global_is_declared() {
        let hyp = "int f(int a) { total += a; return total; }";
        let report = repair(hyp, "");
        let fixed = report.source.expect("repairable");
        assert!(fixed.contains("long total;"));
        assert!(try_compile(&fixed, "").is_ok());
        assert!(report
            .steps
            .iter()
            .any(|s| matches!(s, RepairStep::DeclaredIdentifier { name } if name == "total")));
    }

    #[test]
    fn unknown_type_gets_typedef_backstop() {
        let hyp = "size_tt f(size_tt a) { return a + 1; }";
        let report = repair(hyp, "");
        let fixed = report.source.expect("repairable");
        assert!(fixed.contains("typedef long size_tt;"));
        assert!(try_compile(&fixed, "").is_ok());
    }

    #[test]
    fn auto_is_an_identifier_so_it_gets_a_typedef() {
        // MiniC has no storage classes: its lexer reads `auto` as a name.
        let report = repair("auto f(int a) { return a; }", "");
        let fixed = report.source.expect("repairable");
        assert_eq!(fixed, "typedef long auto;\nauto f(int a) { return a; }");
    }

    #[test]
    fn repair_respects_context_declarations() {
        // `counter` exists in the context: nothing to declare, the raw
        // hypothesis compiles as-is.
        let ctx = "int counter;";
        let hyp = "int f(void) { counter++; return counter; }";
        let report = repair(hyp, ctx);
        assert!(report.was_already_valid());
    }

    #[test]
    fn hopeless_input_reports_failure_with_bounded_rounds() {
        let report = repair("@@@ ???", "");
        assert!(report.source.is_none());
        assert!(report.rounds <= MAX_ROUNDS);
    }

    #[test]
    fn truncation_then_balance_compose() {
        let hyp = "int f(int a) { if (a > 0) { return 1; } return 0; }\nint g(int";
        let report = repair(hyp, "");
        let fixed = report.source.expect("repairable");
        assert!(try_compile(&fixed, "").is_ok());
        assert!(!fixed.contains("int g"));
    }

    #[test]
    fn repair_candidates_appends_only_fixed_variants() {
        let good = ("int f(int a) { return a; }".to_string(), String::new());
        let fixable = ("int g(int a) { return a * 2;".to_string(), String::new());
        let hopeless = ("@#!".to_string(), String::new());
        let all =
            repair_candidates(&[good.clone(), fixable.clone(), hopeless.clone()], "", None);
        // Originals preserved in order, one repaired variant appended.
        assert_eq!(all[0], good);
        assert_eq!(all[1], fixable);
        assert_eq!(all[2], hopeless);
        assert_eq!(all.len(), 4);
        assert!(try_compile(&all[3].0, "").is_ok());
    }

    #[test]
    fn defined_name_is_extracted_from_broken_text() {
        assert_eq!(defined_function_name("int foo_bar(int a) {"), Some("foo_bar".into()));
        assert_eq!(
            defined_function_name("unsigned long f2(void) { return 1; }"),
            Some("f2".into())
        );
        assert_eq!(defined_function_name("no parens here"), None);
        assert_eq!(defined_function_name("(starts with paren"), None);
    }

    #[test]
    fn rename_function_follows_recursive_calls() {
        let hyp = "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }";
        let (renamed, step) = rename_function(hyp, "factorial").unwrap();
        assert_eq!(
            renamed,
            "int factorial(int n) { if (n < 2) return 1; return n * factorial(n - 1); }"
        );
        assert_eq!(
            step,
            RepairStep::RenamedFunction { from: "fact".into(), to: "factorial".into() }
        );
        // Matching names are left alone.
        assert!(rename_function(&renamed, "factorial").is_none());
    }

    #[test]
    fn rename_respects_word_boundaries() {
        let hyp = "int f(int fx) { return fx + f2(fx); }";
        let (renamed, _) = rename_function(hyp, "g").unwrap();
        // `fx` and `f2` must survive; only the standalone `f` changes.
        assert_eq!(renamed, "int g(int fx) { return fx + f2(fx); }");
    }

    #[test]
    fn repair_candidates_rename_wrong_symbol() {
        // Model hallucinated `blend_mask`; assembly symbol is `scale3`.
        let wrong = ("int blend_mask(int a) { return a * 3; }".to_string(), String::new());
        let all = repair_candidates(std::slice::from_ref(&wrong), "", Some("scale3"));
        assert_eq!(all[0], wrong);
        assert_eq!(all.len(), 2);
        assert!(all[1].0.contains("int scale3(int a)"), "{}", all[1].0);
        assert!(try_compile(&all[1].0, "").is_ok());
    }

    #[test]
    fn repair_candidates_compose_fix_then_rename() {
        // Broken parens AND the wrong name: both repairs stack.
        let broken =
            ("int blend_mask(int a) { return a * 3) + 1); }".to_string(), String::new());
        let all = repair_candidates(&[broken], "", Some("scale3"));
        let renamed = all.iter().find(|(h, _)| h.contains("scale3")).expect("renamed variant");
        assert!(try_compile(&renamed.0, "").is_ok());
    }

    #[test]
    fn deleted_line_repair_recovers_function() {
        let hyp = "int f(int a) {\n  int r = a + 1;\n  $$$ !!!\n  return r;\n}";
        let report = repair(hyp, "");
        let fixed = report.source.expect("repairable");
        assert!(try_compile(&fixed, "").is_ok());
        assert!(fixed.contains("return r;"));
        assert!(!fixed.contains("$$$"));
    }

    #[test]
    fn report_serializes_for_experiment_logs() {
        let report = repair("int f(int a) { return a;", "");
        let json = serde_json::to_string(&report).unwrap();
        let back: RepairReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
