//! A decompiler saved before the tokenizer stopped serializing its piece
//! index — its `tokenizer` object carries an `index` map from piece to id —
//! still loads, and decompiles exactly as it did when it was saved. The
//! pinned digest is what that earlier tokenizer's decompiler produced. So
//! does one saved before its model config named a weight format, while one
//! naming a format that no longer exists is refused.

use serde_json::{Map, Value};
use slade::{make_pairs, normalize_asm, Slade};
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};
use slade_nn::{Backend, Seq2Seq, TransformerConfig};
use slade_tokenizer::UnigramTokenizer;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// What [`decompiler`] produces on its inputs: token ids and candidates.
const DECOMPILED: u64 = 0x8798_9141_ac81_a1b5;

/// An untrained decompiler over a tokenizer trained on a tiny corpus, and
/// the raw assembly of that corpus's first functions.
fn decompiler() -> (Slade, Vec<String>) {
    let pairs =
        make_pairs(&generate_train(DatasetProfile::tiny(), 2), Isa::X86_64, OptLevel::O0);
    let corpus: Vec<String> =
        pairs.iter().flat_map(|(asm, c)| [normalize_asm(asm), c.clone()]).collect();
    let tokenizer = UnigramTokenizer::train(&corpus, 300);
    let cfg = TransformerConfig {
        vocab: tokenizer.vocab_size(),
        d_model: 32,
        n_heads: 2,
        d_ff: 64,
        enc_layers: 1,
        dec_layers: 1,
        max_len: 1026,
        backend: Backend::F32,
    };
    let slade =
        Slade::from_parts(Seq2Seq::new(cfg, 7), tokenizer, Isa::X86_64, OptLevel::O0, 2, 12);
    (slade, pairs.into_iter().take(4).map(|(asm, _)| asm).collect())
}

#[test]
fn a_model_saved_with_a_piece_index_loads_and_decompiles_as_before() {
    let (slade, inputs) = decompiler();
    let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let mut saved: Value = serde_json::from_str(&slade.to_json()).unwrap();
    let Some(Value::Object(tokenizer)) = saved.as_object_mut().unwrap().get_mut("tokenizer")
    else {
        panic!("a saved decompiler has a tokenizer object")
    };
    let pieces = tokenizer.get("pieces").and_then(Value::as_array).unwrap().clone();
    let mut index = Map::new();
    for (id, piece) in pieces.iter().enumerate() {
        index.insert(piece.as_str().unwrap().to_string(), Value::UInt(id as u64));
    }
    tokenizer.insert("index".to_string(), Value::Object(index));

    let old = Slade::from_json(&serde_json::to_string(&saved).unwrap()).unwrap();
    let ids: Vec<Vec<u32>> =
        inputs.iter().map(|asm| old.tokenizer.encode(&normalize_asm(asm))).collect();
    let out = old.decompile_batch(&inputs);
    assert_eq!(out, slade.decompile_batch(&inputs));
    assert_eq!(fnv1a64(format!("{ids:?}{out:?}").as_bytes()), DECOMPILED, "{out:?}");
}

/// The `cfg` object of a saved decompiler's model.
fn saved_cfg(saved: &mut Value) -> &mut Map {
    let model = saved.as_object_mut().and_then(|s| s.get_mut("model"));
    match model.and_then(Value::as_object_mut).and_then(|m| m.get_mut("cfg")) {
        Some(Value::Object(cfg)) => cfg,
        _ => panic!("a saved decompiler has a model config object"),
    }
}

#[test]
fn a_model_saved_without_a_weight_format_loads_and_decompiles_as_before() {
    let (slade, inputs) = decompiler();
    let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let mut saved: Value = serde_json::from_str(&slade.to_json()).unwrap();
    assert!(saved_cfg(&mut saved).remove("backend").is_some());

    let old = Slade::from_json(&serde_json::to_string(&saved).unwrap()).unwrap();
    let ids: Vec<Vec<u32>> =
        inputs.iter().map(|asm| old.tokenizer.encode(&normalize_asm(asm))).collect();
    let out = old.decompile_batch(&inputs);
    assert_eq!(fnv1a64(format!("{ids:?}{out:?}").as_bytes()), DECOMPILED, "{out:?}");
}

#[test]
fn a_model_saved_with_an_int8_weight_format_is_refused() {
    let (slade, _) = decompiler();
    let mut saved: Value = serde_json::from_str(&slade.to_json()).unwrap();
    let format = Value::Str("Int8".to_string());
    assert!(saved_cfg(&mut saved).insert("backend".to_string(), format).is_some());
    let err = Slade::from_json(&serde_json::to_string(&saved).unwrap())
        .expect_err("a weight format this build cannot run is an error");
    assert!(err.contains("unknown variant `Int8`"), "{err}");
}

#[test]
fn a_saved_model_carries_pieces_but_no_index() {
    let (slade, inputs) = decompiler();
    let inputs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let json = slade.to_json();
    let saved: Value = serde_json::from_str(&json).unwrap();
    let tokenizer = saved.as_object().unwrap().get("tokenizer").and_then(Value::as_object);
    let fields: Vec<&str> = tokenizer.unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(fields, ["pieces", "log_probs", "options"]);
    let loaded = Slade::from_json(&json).unwrap();
    assert_eq!(loaded.decompile_batch(&inputs), slade.decompile_batch(&inputs));
}
