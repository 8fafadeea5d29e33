//! The tokenizer as it was before it borrowed its pre-tokens and walked a
//! piece trie: one `String` per pre-token, a `HashMap<String, u32>` lookup
//! per candidate piece. It is kept, unchanged in behaviour, as the oracle
//! the crate's tokenizers must agree with id for id and bit for bit.

use slade_tokenizer::{special, TokenizerOptions, METASPACE};
use std::collections::HashMap;

pub fn pretokenize_with(text: &str, opts: TokenizerOptions) -> Vec<String> {
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        Ident,
        Punct,
    }
    let mut out: Vec<String> = Vec::new();
    let mut word = String::new();
    let mut kind = Kind::Ident;
    let mut in_string = false;
    let mut pending_space = false;
    fn flush(word: &mut String, out: &mut Vec<String>) {
        if !word.is_empty() {
            out.push(std::mem::take(word));
        }
    }
    let push_tok = |tok: String, out: &mut Vec<String>, pending: &mut bool| {
        if *pending {
            out.push(format!("{METASPACE}{tok}"));
            *pending = false;
        } else {
            out.push(tok);
        }
    };
    for c in text.chars() {
        if in_string {
            if c == '"' {
                flush(&mut word, &mut out);
                out.push("\"".to_string());
                in_string = false;
            } else if c == ' ' {
                flush(&mut word, &mut out);
                out.push(METASPACE.to_string());
            } else if c.is_ascii_alphabetic() {
                word.push(c);
            } else {
                flush(&mut word, &mut out);
                out.push(c.to_string());
            }
            continue;
        }
        let is_wordy =
            c.is_ascii_alphabetic() || c == '_' || (!opts.digit_split && c.is_ascii_digit());
        if c == '"' {
            flush(&mut word, &mut out);
            push_tok("\"".to_string(), &mut out, &mut pending_space);
            in_string = true;
        } else if c.is_ascii_digit() && opts.digit_split {
            flush(&mut word, &mut out);
            push_tok(c.to_string(), &mut out, &mut pending_space);
        } else if is_wordy {
            if kind == Kind::Punct {
                flush(&mut word, &mut out);
            }
            kind = Kind::Ident;
            if pending_space && word.is_empty() {
                word.push(METASPACE);
                pending_space = false;
            }
            word.push(c);
        } else if c.is_whitespace() {
            flush(&mut word, &mut out);
            pending_space = true;
        } else if opts.punct_split {
            flush(&mut word, &mut out);
            push_tok(c.to_string(), &mut out, &mut pending_space);
        } else {
            if kind == Kind::Ident {
                flush(&mut word, &mut out);
            }
            kind = Kind::Punct;
            if pending_space && word.is_empty() {
                word.push(METASPACE);
                pending_space = false;
            }
            word.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// The UnigramLM tokenizer's state and its training, encoding and decoding.
pub struct Unigram {
    pub pieces: Vec<String>,
    pub log_probs: Vec<f64>,
    index: HashMap<String, u32>,
    options: TokenizerOptions,
}

impl Unigram {
    /// The tokenizer a saved `pieces` / `log_probs` pair deserializes to.
    pub fn from_parts(
        pieces: Vec<String>,
        log_probs: Vec<f64>,
        options: TokenizerOptions,
    ) -> Self {
        let index = pieces.iter().enumerate().map(|(i, p)| (p.clone(), i as u32)).collect();
        Unigram { pieces, log_probs, index, options }
    }

    pub fn train_with(corpus: &[String], vocab_size: usize, options: TokenizerOptions) -> Self {
        let mut pretoken_counts: HashMap<String, u64> = HashMap::new();
        for text in corpus {
            for t in pretokenize_with(text, options) {
                *pretoken_counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut candidate_counts: HashMap<String, f64> = HashMap::new();
        for (tok, count) in &pretoken_counts {
            let chars: Vec<char> = tok.chars().collect();
            for i in 0..chars.len() {
                for len in 1..=8.min(chars.len() - i) {
                    let piece: String = chars[i..i + len].iter().collect();
                    *candidate_counts.entry(piece).or_insert(0.0) += *count as f64;
                }
            }
        }
        let mut singles: Vec<String> =
            candidate_counts.keys().filter(|p| p.chars().count() == 1).cloned().collect();
        for c in 0x20u8..0x7f {
            singles.push((c as char).to_string());
        }
        singles.push(METASPACE.to_string());
        singles.sort();
        singles.dedup();
        let mut multi: Vec<(String, f64)> = candidate_counts
            .iter()
            .filter(|(p, _)| p.chars().count() > 1)
            .map(|(p, c)| (p.clone(), *c * p.chars().count() as f64))
            .collect();
        multi.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        multi.truncate(vocab_size.saturating_sub(singles.len()).max(16) * 2);
        let mut pieces: Vec<String> = singles;
        pieces.extend(multi.into_iter().map(|(p, _)| p));
        pieces.sort();
        pieces.dedup();
        let mut log_probs = vec![0.0f64; pieces.len()];
        let mut index: HashMap<String, u32> =
            pieces.iter().enumerate().map(|(i, p)| (p.clone(), i as u32)).collect();
        let init = -((pieces.len() as f64).ln());
        log_probs.fill(init);
        for round in 0..3 {
            let mut usage = vec![0.0f64; pieces.len()];
            for (tok, count) in &pretoken_counts {
                let seg = viterbi(tok, &index, &log_probs);
                for id in seg {
                    usage[id as usize] += *count as f64;
                }
            }
            let total: f64 = usage.iter().sum::<f64>().max(1.0);
            for (i, u) in usage.iter().enumerate() {
                log_probs[i] = ((u + 0.1) / total).ln();
            }
            if round < 2 {
                let keep_target = vocab_size.max(64);
                if pieces.len() > keep_target {
                    let mut order: Vec<usize> = (0..pieces.len()).collect();
                    order.sort_by(|&a, &b| usage[b].total_cmp(&usage[a]));
                    let mut keep = vec![false; pieces.len()];
                    for (kept, &i) in order.iter().enumerate() {
                        if kept >= keep_target {
                            break;
                        }
                        keep[i] = true;
                    }
                    for (i, p) in pieces.iter().enumerate() {
                        if p.chars().count() == 1 {
                            keep[i] = true;
                        }
                    }
                    let mut new_pieces = Vec::new();
                    let mut new_probs = Vec::new();
                    for i in 0..pieces.len() {
                        if keep[i] {
                            new_pieces.push(pieces[i].clone());
                            new_probs.push(log_probs[i]);
                        }
                    }
                    pieces = new_pieces;
                    log_probs = new_probs;
                    index =
                        pieces.iter().enumerate().map(|(i, p)| (p.clone(), i as u32)).collect();
                }
            }
        }
        Unigram { pieces, log_probs, index, options }
    }

    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut out = Vec::new();
        for tok in pretokenize_with(text, self.options) {
            if let Some(&id) = self.index.get(&tok) {
                out.push(id + special::COUNT);
                continue;
            }
            let seg = viterbi(&tok, &self.index, &self.log_probs);
            if seg.is_empty() {
                out.push(special::UNK);
            } else {
                out.extend(seg.into_iter().map(|id| id + special::COUNT));
            }
        }
        out
    }

    pub fn decode(&self, ids: &[u32]) -> String {
        let mut out = String::new();
        for &id in ids {
            if id < special::COUNT {
                continue;
            }
            let piece = match self.pieces.get((id - special::COUNT) as usize) {
                Some(p) => p,
                None => continue,
            };
            for c in piece.chars() {
                out.push(if c == METASPACE { ' ' } else { c });
            }
        }
        out.trim().to_string()
    }
}

fn viterbi(token: &str, index: &HashMap<String, u32>, log_probs: &[f64]) -> Vec<u32> {
    let chars: Vec<char> = token.chars().collect();
    let n = chars.len();
    if n == 0 {
        return Vec::new();
    }
    const NEG: f64 = -1e18;
    let mut best = vec![NEG; n + 1];
    let mut back: Vec<Option<(usize, u32)>> = vec![None; n + 1];
    best[0] = 0.0;
    for i in 0..n {
        if best[i] <= NEG / 2.0 {
            continue;
        }
        let max_len = 12.min(n - i);
        let mut piece = String::new();
        for len in 1..=max_len {
            piece.push(chars[i + len - 1]);
            if let Some(&id) = index.get(&piece) {
                let score = best[i] + log_probs[id as usize];
                if score > best[i + len] {
                    best[i + len] = score;
                    back[i + len] = Some((i, id));
                }
            }
        }
    }
    if back[n].is_none() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut pos = n;
    while pos > 0 {
        let Some((prev, id)) = back[pos] else { return Vec::new() };
        out.push(id);
        pos = prev;
    }
    out.reverse();
    out
}

/// The word-level tokenizer: whole pre-tokens under the default options.
pub struct Word {
    words: Vec<String>,
    index: HashMap<String, u32>,
}

impl Word {
    pub fn train(corpus: &[String], vocab_size: usize) -> Self {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for text in corpus {
            for t in pretokenize_with(text, TokenizerOptions::default()) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut ordered: Vec<(String, u64)> = counts.into_iter().collect();
        ordered.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ordered.truncate(vocab_size);
        let words: Vec<String> = ordered.into_iter().map(|(w, _)| w).collect();
        let index = words.iter().enumerate().map(|(i, w)| (w.clone(), i as u32)).collect();
        Word { words, index }
    }

    pub fn vocab_size(&self) -> usize {
        self.words.len() + special::COUNT as usize
    }

    pub fn encode(&self, text: &str) -> Vec<u32> {
        pretokenize_with(text, TokenizerOptions::default())
            .into_iter()
            .map(|t| self.index.get(&t).map(|&i| i + special::COUNT).unwrap_or(special::UNK))
            .collect()
    }

    pub fn oov_rate(&self, text: &str) -> f64 {
        let toks = pretokenize_with(text, TokenizerOptions::default());
        if toks.is_empty() {
            return 0.0;
        }
        let oov = toks.iter().filter(|t| !self.index.contains_key(*t)).count();
        oov as f64 / toks.len() as f64
    }
}
