//! Regenerates every figure and table from the paper's evaluation, and —
//! with `ablations` — the ablation/extension suite.
//!
//! Usage:
//! `cargo run -p slade_eval --bin figures --release [-- tiny|default]
//! [ablations]`
//!
//! `tiny` trains [`TrainProfile::demo`] on [`DatasetProfile::tiny`]; the
//! default is the reproduction profile.
//!
//! Every neural decode pass runs through the `slade_serve` worker pool,
//! one shard per available core (see `slade_eval::evaluate`).

use slade::TrainProfile;
use slade_dataset::DatasetProfile;
use slade_eval::ablations::{run_all_ablations, AblationSetup};
use slade_eval::figures::{run_all, Reproduction};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile_arg = if args.iter().any(|a| a == "tiny") { "tiny" } else { "default" };
    let want_ablations = args.iter().any(|a| a == "ablations");
    let (data, train) = match profile_arg {
        "tiny" => (DatasetProfile::tiny(), TrainProfile::demo()),
        _ => (DatasetProfile::default_profile(), TrainProfile::default_profile()),
    };
    let start = std::time::Instant::now();
    if want_ablations {
        eprintln!("running ablation suite (profile: {profile_arg})...");
        let setup = AblationSetup::build(data, train, 2024);
        println!("{}", run_all_ablations(&setup));
    } else {
        eprintln!(
            "building reproduction (profile: {profile_arg}) — training 4 configurations, \
             evaluating 8 cells..."
        );
        let repro = Reproduction::build(data, train, 2024);
        eprintln!("built in {:.1}s; rendering...", start.elapsed().as_secs_f64());
        println!("{}", run_all(&repro));
    }
}
