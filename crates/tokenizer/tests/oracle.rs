//! The crate's tokenizers agree with the reference implementation in
//! `reference/` on arbitrary text, under all four pre-tokenization option
//! sets: the same pre-tokens, the same trained pieces and log-probability
//! bits, the same ids and the same decoded text — and neither panics.

mod reference;

use proptest::prelude::*;
use serde::Serialize;
use serde_json::Value;
use slade_tokenizer::{pretokenize_with, TokenizerOptions, UnigramTokenizer, WordTokenizer};
use std::sync::OnceLock;

const OPTIONS: [TokenizerOptions; 4] = [
    TokenizerOptions { digit_split: true, punct_split: true },
    TokenizerOptions { digit_split: true, punct_split: false },
    TokenizerOptions { digit_split: false, punct_split: true },
    TokenizerOptions { digit_split: false, punct_split: false },
];

fn sample_corpus() -> Vec<String> {
    vec![
        "int add(int a, int b) { return a + b; }".to_string(),
        "int sub(int a, int b) { return a - b; }".to_string(),
        "void copy(int *dst, int *src, int n) { for (int i = 0; i < n; i++) dst[i] = src[i]; }"
            .to_string(),
        "movl %edi, %eax\naddl %esi, %eax\nret".to_string(),
        "puts(\"hello,  wide\tworld 42\"); x->y += 0x1f;".to_string(),
    ]
}

/// Program-like text: words, digit runs, punctuation runs, string literals
/// holding spaces and tabs, whitespace runs, unbalanced quotes, a literal
/// `▁`, non-ASCII letters, symbols and whitespace, and empty parts.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            3 => "[a-zA-Z_]{1,8}",
            2 => "[0-9]{1,4}",
            2 => "[+*/=<>!&|^%~?:;,.(){}#@$'-]{1,4}",
            1 => prop::sample::select(vec!["[", "]", "[i]", "\\"]).prop_map(str::to_string),
            2 => "\"[a-z 0-9\t.]{0,8}\"",
            2 => "[ \t\n]{1,3}",
            2 => prop::sample::select(vec![
                "\u{2581}", "x\u{2581}y", " \u{2581}", "\u{2581}+", "é", "caf\u{e9}", "\u{fffd}",
                "\u{1f980}", "\"", "", "\r\n", "\u{a0}", "\u{3000}", "-\u{2581}-",
            ])
            .prop_map(str::to_string),
        ],
        0..24,
    )
    .prop_map(|parts| parts.concat())
}

/// Per option set, the crate's and the reference's tokenizer trained on
/// the sample corpus.
fn trained() -> &'static [(UnigramTokenizer, reference::Unigram)] {
    static TRAINED: OnceLock<Vec<(UnigramTokenizer, reference::Unigram)>> = OnceLock::new();
    TRAINED.get_or_init(|| {
        OPTIONS
            .iter()
            .map(|&opts| {
                (
                    UnigramTokenizer::train_with(&sample_corpus(), 300, opts),
                    reference::Unigram::train_with(&sample_corpus(), 300, opts),
                )
            })
            .collect()
    })
}

/// The trained state of `tok` as the reference keeps it: pieces, and the
/// bits of their log-probabilities.
fn state(tok: &UnigramTokenizer) -> (Vec<String>, Vec<u64>) {
    let Value::Object(fields) = tok.to_json_value() else { panic!("a tokenizer is an object") };
    let array = |name| fields.get(name).and_then(Value::as_array).expect(name).iter();
    let pieces = array("pieces").map(|p| p.as_str().unwrap().to_string()).collect();
    let bits = array("log_probs")
        .map(|p| match p {
            Value::Float(p) => p.to_bits(),
            other => panic!("a log-prob is a float: {other:?}"),
        })
        .collect();
    (pieces, bits)
}

fn reference_state(tok: &reference::Unigram) -> (Vec<String>, Vec<u64>) {
    (tok.pieces.clone(), tok.log_probs.iter().map(|p| p.to_bits()).collect())
}

#[test]
fn training_on_the_sample_corpus_matches_the_reference() {
    for (tok, reference) in trained() {
        assert_eq!(state(tok), reference_state(reference), "{:?}", tok.options());
    }
}

/// Pieces training never produces but a saved tokenizer may hold: a whole
/// pre-token that Viterbi would split, pieces longer than Viterbi's
/// 12-character cap, a repeated piece, and pieces around `▁`.
#[test]
fn hand_made_pieces_encode_as_in_the_reference() {
    let mut pieces: Vec<String> = ('a'..='z').map(String::from).collect();
    let mut log_probs = vec![-1.0; pieces.len()];
    for (piece, log_prob) in [
        ("ab", -9.0),
        ("abcdefghijkl", -2.0),
        ("abcdefghijklm", -1.0),
        ("c", -0.5),
        ("\u{2581}", -1.0),
        ("\u{2581}x", -1.5),
        ("x\u{2581}", -1.0),
        ("\"", -1.0),
        ("de", -1.5),
    ] {
        pieces.push(piece.to_string());
        log_probs.push(log_prob);
    }
    let texts = [
        "ab",
        "abcdefghijklm",
        "abcdefghijklmn",
        "abcdefghijklmnop",
        "cab",
        "x \"a b\" x",
        "\u{2581}x",
        "x\u{2581}",
        "de",
        "dé",
        "",
    ];
    for opts in OPTIONS {
        let json = format!(
            r#"{{"pieces":{},"log_probs":{},"options":{}}}"#,
            serde_json::to_string(&pieces).unwrap(),
            serde_json::to_string(&log_probs).unwrap(),
            serde_json::to_string(&opts).unwrap()
        );
        let tok: UnigramTokenizer = serde_json::from_str(&json).unwrap();
        let reference = reference::Unigram::from_parts(pieces.clone(), log_probs.clone(), opts);
        for text in texts {
            assert_eq!(tok.encode(text), reference.encode(text), "{opts:?} {text:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pretokens_ids_and_text_match_the_reference(s in text()) {
        for (opts, (tok, reference)) in OPTIONS.iter().zip(trained()) {
            prop_assert_eq!(
                pretokenize_with(&s, *opts),
                reference::pretokenize_with(&s, *opts),
                "{:?} {:?}", opts, s
            );
            let ids = tok.encode(&s);
            prop_assert_eq!(&ids, &reference.encode(&s), "{:?} {:?}", opts, s);
            prop_assert_eq!(tok.decode(&ids), reference.decode(&ids), "{:?} {:?}", opts, s);
        }
    }

    #[test]
    fn training_on_arbitrary_text_matches_the_reference(s in text(), t in text()) {
        let mut corpus = sample_corpus();
        corpus.push(s.clone());
        for opts in OPTIONS {
            let tok = UnigramTokenizer::train_with(&corpus, 120, opts);
            let reference = reference::Unigram::train_with(&corpus, 120, opts);
            prop_assert_eq!(state(&tok), reference_state(&reference), "{:?} {:?}", opts, s);
            prop_assert_eq!(tok.encode(&t), reference.encode(&t), "{:?} {:?}", opts, t);
        }
    }

    #[test]
    fn word_tokenizer_matches_the_reference(s in text(), t in text()) {
        let mut corpus = sample_corpus();
        corpus.push(s);
        let tok = WordTokenizer::train(&corpus, 40);
        let reference = reference::Word::train(&corpus, 40);
        prop_assert_eq!(tok.vocab_size(), reference.vocab_size());
        for text in [&corpus[4], &corpus[5], &t] {
            prop_assert_eq!(tok.encode(text), reference.encode(text), "{:?}", text);
            prop_assert_eq!(tok.oov_rate(text).to_bits(), reference.oov_rate(text).to_bits());
        }
    }
}
