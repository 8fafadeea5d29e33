//! Training is one loop (`slade::train_epoch`) with three callers; this
//! pins the weights each caller ends with, bit for bit, to what the three
//! hand-written loops produced before they were folded into one. A change
//! to the order of RNG draws, of examples within a batch or of the Adam
//! steps moves a digest. BTC's decode output over the same items is
//! pinned too, so a change to its decode path shows as a moved digest.
//!
//! `TrainProfile::tiny()` caps sources at 96 tokens, under every generated
//! `-O0` function, so its digests pin weights no example reached; the
//! `TrainProfile::demo()` test pins weights that training moved.

use serde::Serialize;
use serde_json::Value;
use slade::{make_pairs, normalize_asm, SladeBuilder, TrainProfile};
use slade_compiler::{Isa, OptLevel};
use slade_dataset::{generate_train, DatasetProfile};
use slade_eval::ToolContext;
use slade_nn::Seq2Seq;
use slade_serve::spill::fnv1a64;

/// FNV-1a over the `to_bits` of every weight, tensors in store order.
fn weight_digest(model: &Seq2Seq) -> u64 {
    let doc = model.to_json_value();
    let tensors = doc.as_object().and_then(|m| m.get("store")).and_then(Value::as_object);
    let tensors = tensors.and_then(|s| s.get("tensors")).and_then(Value::as_array);
    let mut bytes = Vec::new();
    for tensor in tensors.expect("store.tensors") {
        let data = tensor.as_object().and_then(|t| t.get("data")).and_then(Value::as_array);
        for w in data.expect("tensor.data") {
            let Value::Float(w) = w else { panic!("weight is not a float: {w:?}") };
            bytes.extend_from_slice(&(*w as f32).to_bits().to_le_bytes());
        }
    }
    assert!(bytes.len() > 4 * 1000, "digest covers the weights");
    fnv1a64(&bytes)
}

#[test]
fn weights_after_training_are_bit_equal_to_the_three_loop_version() {
    let items = generate_train(DatasetProfile::tiny(), 42);
    let ctx = ToolContext::train(&items, Isa::X86_64, OptLevel::O0, TrainProfile::tiny(), 42);
    assert_eq!(weight_digest(&ctx.slade.model), 0x9f3e_a6fb_388c_c284, "SladeBuilder::train");
    let btc = ctx.btc.as_ref().expect("x86 -O0 trains BTC");
    assert_eq!(weight_digest(&btc.model), 0x01b4_f9f8_d77c_0d16, "train_btc");
    let mut text = String::new();
    for (asm, func_src) in make_pairs(&items, Isa::X86_64, OptLevel::O0) {
        let signature = func_src.split('{').next().unwrap_or("").trim();
        text.push_str(&btc.decompile(&normalize_asm(&asm), signature));
        text.push('\n');
    }
    assert_eq!(fnv1a64(text.as_bytes()), 0xec7b_0828_cdd8_a383, "BtcBaseline::decompile");

    let mut profile = TrainProfile::tiny();
    profile.pretrain_epochs = 1;
    let pretrained =
        SladeBuilder::new(Isa::Arm64, OptLevel::O3).profile(profile).train(&items, 7);
    assert_eq!(
        weight_digest(&pretrained.model),
        0xe059_f14f_9cd7_3964,
        "pretrain_denoising + train"
    );
}

#[test]
fn demo_profile_training_moves_the_weights() {
    // The two functions with the shortest x86 -O0 assembly keep this fast.
    let mut items = generate_train(DatasetProfile::tiny(), 42);
    items.sort_by_cached_key(|item| {
        let pairs = make_pairs(std::slice::from_ref(item), Isa::X86_64, OptLevel::O0);
        pairs.first().map_or(usize::MAX, |(asm, _)| normalize_asm(asm).len())
    });
    items.truncate(2);
    let ctx = ToolContext::train(&items, Isa::X86_64, OptLevel::O0, TrainProfile::demo(), 42);
    let slade = weight_digest(&ctx.slade.model);
    let initial = weight_digest(&Seq2Seq::new(ctx.slade.model.cfg, 42));
    assert_ne!(slade, initial, "SladeBuilder::train left the initial weights");
    let btc = ctx.btc.as_ref().expect("x86 -O0 trains BTC");
    // `train_btc` seeds its model with `seed ^ 0xb7c`.
    let btc_initial = weight_digest(&Seq2Seq::new(btc.model.cfg, 42 ^ 0xb7c));
    let btc = weight_digest(&btc.model);
    assert_ne!(btc, btc_initial, "train_btc left the initial weights");
    assert_eq!(slade, 0xffd2_1006_5f6d_7746, "SladeBuilder::train");
    assert_eq!(btc, 0x1d04_ccdd_1964_91b7, "train_btc");
}
