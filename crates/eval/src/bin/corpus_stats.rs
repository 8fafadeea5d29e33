//! Prints token-length statistics of the generated corpus under the
//! paper's tokenizer — the token-level companion to Fig. 9's character
//! histogram, and the tool for choosing `max_src_len`/`max_tgt_len`
//! (pairs over the caps are skipped by training, so caps below the
//! distribution's bulk silently starve the model).
//!
//! Usage: `cargo run -p slade_eval --bin corpus_stats --release [-- N]`

use slade::{make_pairs, normalize_asm};
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};
use slade_tokenizer::UnigramTokenizer;

fn percentiles(mut lens: Vec<usize>) -> String {
    if lens.is_empty() {
        return "no data".to_string();
    }
    lens.sort_unstable();
    let pct = |p: usize| lens[(lens.len() - 1) * p / 100];
    format!(
        "min {:>4}  p25 {:>4}  p50 {:>4}  p75 {:>4}  p90 {:>4}  p99 {:>4}  max {:>4}",
        lens[0],
        pct(25),
        pct(50),
        pct(75),
        pct(90),
        pct(99),
        lens[lens.len() - 1]
    )
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(260);
    let data = DatasetProfile { train: n, exebench_eval: 0, synth_per_category: 0 };
    let items = generate_train(data, 2024);
    println!("{} generated items", items.len());
    for (isa, opt) in [
        (Isa::X86_64, OptLevel::O0),
        (Isa::X86_64, OptLevel::O3),
        (Isa::Arm64, OptLevel::O0),
        (Isa::Arm64, OptLevel::O3),
    ] {
        let pairs = make_pairs(&items, isa, opt);
        let mut corpus = Vec::new();
        for (a, c) in &pairs {
            corpus.push(normalize_asm(a));
            corpus.push(c.clone());
        }
        let tok = UnigramTokenizer::train(&corpus, 300);
        let raw_lens: Vec<usize> = pairs.iter().map(|(a, _)| tok.encode(a).len()).collect();
        let asm_lens: Vec<usize> =
            pairs.iter().map(|(a, _)| tok.encode(&normalize_asm(a)).len()).collect();
        let c_lens: Vec<usize> = pairs.iter().map(|(_, c)| tok.encode(c).len()).collect();
        println!("-- {isa} {opt} ({} pairs, vocab {}) --", pairs.len(), tok.vocab_size());
        println!("   asm tokens (raw):        {}", percentiles(raw_lens));
        println!("   asm tokens (normalized): {}", percentiles(asm_lens));
        println!("   C   tokens: {}", percentiles(c_lens));
    }
}
