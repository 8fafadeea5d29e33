//! Pins the UnigramLM tokenizer on the benchmark's kind of corpus: the
//! seed-1 training set compiled for x86-64 at -O0 and -O3, normalized the
//! way `Slade` normalizes its input, with each function's C beside its
//! assembly — what `slade-bench`'s fixture trains its tokenizer on. The
//! digest covers the trained pieces, the bits of their log-probabilities
//! and the ids of every text. Every `slade-bench` output digest is a
//! function of these ids, so a change here moves all of them. The value is
//! what the tokenizer produced before it borrowed its pre-tokens and
//! looked pieces up in a trie.

use serde::Serialize;
use serde_json::Value;
use slade::{make_pairs, normalize_asm};
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};
use slade_tokenizer::UnigramTokenizer;

fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn tokenizer_is_pinned_on_the_bench_corpus() {
    let profile = DatasetProfile { train: 300, exebench_eval: 0, synth_per_category: 0 };
    let items = generate_train(profile, 1);
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut tokens = 0;
    for opt in [OptLevel::O0, OptLevel::O3] {
        let text: Vec<String> = make_pairs(&items, Isa::X86_64, opt)
            .into_iter()
            .flat_map(|(asm, c)| [normalize_asm(&asm), c])
            .collect();
        let tok = UnigramTokenizer::train(&text, 700);
        let Value::Object(fields) = tok.to_json_value() else {
            panic!("a tokenizer is an object")
        };
        let array = |name| fields.get(name).and_then(Value::as_array).expect(name);
        for piece in array("pieces") {
            h = fnv1a64(h, piece.as_str().expect("a piece is a string").as_bytes());
            h = fnv1a64(h, &[0xff]);
        }
        for log_prob in array("log_probs") {
            let Value::Float(p) = log_prob else {
                panic!("a log-prob is a float: {log_prob:?}")
            };
            h = fnv1a64(h, &p.to_bits().to_le_bytes());
        }
        for t in &text {
            let ids = tok.encode(t);
            tokens += ids.len();
            for id in ids {
                h = fnv1a64(h, &id.to_le_bytes());
            }
            h = fnv1a64(h, &[0xfe]);
        }
    }
    assert!(tokens > 100_000, "{tokens} tokens");
    assert_eq!(h, 0x3246_9313_1424_cfd0, "{tokens} tokens");
}
