//! The evaluation's two reports — every figure and table (`run_all`) and
//! the ablation suite (`run_all_ablations`) — rendered on a small setup and
//! pinned by FNV-1a. A change to how the reports are computed that is meant
//! to keep their numbers must keep these digests. The beam ablation's
//! `ms per item` column is wall-clock time, so it is blanked before hashing.

use slade::TrainProfile;
use slade_dataset::DatasetProfile;
use slade_eval::ablations::{run_all_ablations, AblationSetup};
use slade_eval::figures::{run_all, Reproduction};
use slade_serve::spill::fnv1a64;

const SEED: u64 = 11;

/// Eight training items, three held-out, one Synth item per category.
/// `TrainProfile::tiny()` caps sources at 96 tokens, under every generated
/// `-O0` function, so the models keep their initial weights: this pins
/// which records reach which table, and the baselines' numbers, cheaply.
fn data() -> DatasetProfile {
    DatasetProfile { train: 8, exebench_eval: 3, synth_per_category: 1 }
}

/// Drops the last column (`ms per item`) of the beam table's rows.
fn blank_beam_timing(report: &str) -> String {
    let mut in_beam = false;
    let mut out = String::new();
    for line in report.lines() {
        if line.starts_with("####") {
            in_beam = line == "#### ablation: beam ####";
        }
        let is_row = line.split_whitespace().next().is_some_and(|k| k.parse::<usize>().is_ok());
        match line.trim_end().rsplit_once(' ') {
            Some((kept, _)) if in_beam && is_row => out.push_str(kept.trim_end()),
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[test]
fn figures_report_is_pinned() {
    let report = run_all(&Reproduction::build(data(), TrainProfile::tiny(), SEED));
    for header in ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table1"] {
        assert!(report.contains(&format!("#### {header} ####")), "{header} missing:\n{report}");
    }
    assert_eq!(fnv1a64(report.as_bytes()), 0xd5dd_f96c_e781_f83b, "run_all:\n{report}");
}

#[test]
fn ablations_report_is_pinned() {
    let report = blank_beam_timing(&run_all_ablations(&AblationSetup::build(
        data(),
        TrainProfile::tiny(),
        SEED,
    )));
    assert!(report.contains("#### ablation: beam ####"), "{report}");
    assert_eq!(
        fnv1a64(report.as_bytes()),
        0xad22_ea64_4588_d686,
        "run_all_ablations:\n{report}"
    );
}
