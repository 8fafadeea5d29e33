//! Tokenizers for assembly and C, per the paper's §IV.
//!
//! [`UnigramTokenizer`] reproduces SLaDe's scheme: UnigramLM subword pieces
//! trained by EM over the corpus, a deliberately small vocabulary, numbers
//! tokenized **digit by digit** (`512 → 5 1 2`), every punctuation sign its
//! own token, whitespace normalized away except inside double quotes where
//! spaces are protected with the metaspace character `▁`.
//!
//! [`WordTokenizer`] is the word-level baseline used by the BTC-like model —
//! it suffers out-of-vocabulary tokens on unseen identifiers, which is one
//! of the failure modes the paper's tokenizer exists to fix.
//!
//! # Example
//!
//! ```
//! use slade_tokenizer::UnigramTokenizer;
//!
//! let corpus = ["int add(int a, int b) { return a + b; }".to_string()];
//! let tok = UnigramTokenizer::train(&corpus, 200);
//! let ids = tok.encode("int add2(int x) { return x + 512; }");
//! let text = tok.decode(&ids);
//! assert!(text.contains("add2"));
//! assert!(text.contains("512"));
//! ```

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Reserved token ids shared by both tokenizers.
pub mod special {
    /// Padding.
    pub const PAD: u32 = 0;
    /// Beginning of sequence.
    pub const BOS: u32 = 1;
    /// End of sequence.
    pub const EOS: u32 = 2;
    /// Unknown token.
    pub const UNK: u32 = 3;
    /// Span-corruption mask used by BART-style denoising pre-training
    /// (the paper's §X future-work direction, implemented in `slade`).
    pub const MASK: u32 = 4;
    /// Number of reserved ids.
    pub const COUNT: u32 = 5;
}

/// The metaspace marker protecting spaces inside string literals.
pub const METASPACE: char = '\u{2581}';

/// Pre-tokenization switches, exposing the paper's §IV design choices so
/// each can be ablated independently (see `slade-eval`'s ablation suite).
/// The defaults are the paper's recipe: digits split one per token,
/// punctuation split one sign per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenizerOptions {
    /// Tokenize numbers digit by digit (`512 → 5 1 2`). When off, digit
    /// runs stay glued to the surrounding word, so `512` (and `x2`) are
    /// single pre-tokens — the inconsistent-segmentation failure mode the
    /// paper's rule prevents.
    pub digit_split: bool,
    /// Split every punctuation sign into its own token. When off,
    /// consecutive punctuation merges (`->` or `+=` become one pre-token).
    pub punct_split: bool,
}

impl Default for TokenizerOptions {
    fn default() -> Self {
        TokenizerOptions { digit_split: true, punct_split: true }
    }
}

/// Splits raw program text into pre-tokens with the paper's default rules:
/// identifier/keyword words, single digits, single punctuation characters,
/// and metaspace-protected string-literal characters.
///
/// SentencePiece-style: a pre-token that was preceded by whitespace in the
/// original text carries a leading [`METASPACE`] marker, so decoding is a
/// pure concatenation with `▁ → space` (whitespace runs normalize to one
/// space). Spaces inside string literals become standalone `▁` tokens —
/// the paper's "protect spaces only inside double quotes" rule.
pub fn pretokenize(text: &str) -> Vec<String> {
    pretokenize_with(text, TokenizerOptions::default())
}

/// [`pretokenize`] with explicit [`TokenizerOptions`].
pub fn pretokenize_with(text: &str, opts: TokenizerOptions) -> Vec<String> {
    Pretokens::new(text, opts).map(|t| t.chars().collect()).collect()
}

/// One pre-token: a [`METASPACE`] when `space` is set, then `text`, a slice
/// of the input. It is canonical — `space` is set exactly when the string
/// it spells starts with `▁` — so equal strings are equal pre-tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Pretoken<'a> {
    space: bool,
    text: &'a str,
}

impl<'a> Pretoken<'a> {
    fn new(space: bool, text: &'a str) -> Self {
        match text.strip_prefix(METASPACE) {
            Some(rest) if !space => Pretoken { space: true, text: rest },
            _ => Pretoken { space, text },
        }
    }

    fn chars(self) -> impl Iterator<Item = char> + 'a {
        self.space.then_some(METASPACE).into_iter().chain(self.text.chars())
    }
}

/// What a character outside a string literal does to the pre-token stream.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Quote,
    SplitDigit,
    Word,
    Space,
    Punct,
}

impl Class {
    fn of(c: char, opts: TokenizerOptions) -> Class {
        if c == '"' {
            Class::Quote
        } else if c.is_ascii_digit() && opts.digit_split {
            Class::SplitDigit
        } else if c.is_ascii_alphanumeric() || c == '_' {
            Class::Word
        } else if c.is_whitespace() {
            Class::Space
        } else {
            Class::Punct
        }
    }
}

/// The pre-tokenizer: the pre-tokens of a text, borrowed from it (the rules
/// are [`pretokenize`]'s). Every path that splits text goes through it.
struct Pretokens<'a> {
    text: &'a str,
    pos: usize,
    opts: TokenizerOptions,
    in_string: bool,
    space: bool,
}

impl<'a> Pretokens<'a> {
    fn new(text: &'a str, opts: TokenizerOptions) -> Self {
        Pretokens { text, pos: 0, opts, in_string: false, space: false }
    }
}

impl<'a> Iterator for Pretokens<'a> {
    type Item = Pretoken<'a>;

    fn next(&mut self) -> Option<Pretoken<'a>> {
        loop {
            let rest = &self.text[self.pos..];
            let c = rest.chars().next()?;
            if self.in_string {
                // Letters group into words, a space is a lone `▁`, and every
                // other character stands alone.
                let len = if c.is_ascii_alphabetic() {
                    run(rest, |c| c.is_ascii_alphabetic())
                } else {
                    c.len_utf8()
                };
                self.pos += len;
                self.in_string = c != '"';
                if c == ' ' {
                    return Some(Pretoken { space: true, text: "" });
                }
                return Some(Pretoken::new(false, &rest[..len]));
            }
            let opts = self.opts;
            let class = Class::of(c, opts);
            let len = match class {
                Class::Space => {
                    self.pos += c.len_utf8();
                    self.space = true;
                    continue;
                }
                Class::Word => run(rest, |c| Class::of(c, opts) == Class::Word),
                Class::Punct if !opts.punct_split => {
                    run(rest, |c| Class::of(c, opts) == Class::Punct)
                }
                _ => c.len_utf8(),
            };
            self.pos += len;
            self.in_string = class == Class::Quote;
            return Some(Pretoken::new(std::mem::take(&mut self.space), &rest[..len]));
        }
    }
}

/// Length in bytes of the run of `keep` characters `text` starts with.
fn run(text: &str, keep: impl Fn(char) -> bool) -> usize {
    text.find(|c| !keep(c)).unwrap_or(text.len())
}

/// Longest piece, in characters, Viterbi segmentation tries.
const MAX_PIECE_CHARS: usize = 12;
/// An absent trie node or piece.
const NONE: u32 = u32::MAX;

/// A character trie over a tokenizer's pieces, derived from them and never
/// serialized. Node 0 is the root. Every node's children are its slice of
/// `edges`, sorted by character; the root's children along ASCII
/// characters and `▁` are also in a dense table.
#[derive(Debug, Clone)]
struct Trie {
    root: [u32; 129],
    nodes: Vec<Node>,
    edges: Vec<(char, u32)>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The id of the piece this node spells, or [`NONE`].
    piece: u32,
    first_edge: u32,
    edges: u32,
}

impl Trie {
    fn new(pieces: &[String]) -> Trie {
        let mut children: Vec<Vec<(char, u32)>> = vec![Vec::new()];
        let mut piece = vec![NONE];
        for (id, p) in pieces.iter().enumerate() {
            let mut node = 0;
            for c in p.chars() {
                node = match children[node].iter().find(|e| e.0 == c) {
                    Some(&(_, child)) => child as usize,
                    None => {
                        let child = children.len();
                        children[node].push((c, child as u32));
                        children.push(Vec::new());
                        piece.push(NONE);
                        child
                    }
                };
            }
            // A repeated piece keeps its last id, as an index built from
            // `(piece, id)` pairs would.
            piece[node] = id as u32;
        }
        let mut root = [NONE; 129];
        for &(c, child) in &children[0] {
            if let Some(slot) = Trie::root_slot(c) {
                root[slot] = child;
            }
        }
        let mut trie = Trie { root, nodes: Vec::new(), edges: Vec::new() };
        for (mut kids, piece) in children.into_iter().zip(piece) {
            kids.sort_unstable();
            let first_edge = trie.edges.len() as u32;
            trie.nodes.push(Node { piece, first_edge, edges: kids.len() as u32 });
            trie.edges.extend(kids);
        }
        trie
    }

    fn root_slot(c: char) -> Option<usize> {
        match c {
            METASPACE => Some(128),
            _ if c.is_ascii() => Some(c as usize),
            _ => None,
        }
    }

    fn children(&self, node: u32) -> &[(char, u32)] {
        let n = self.nodes[node as usize];
        &self.edges[n.first_edge as usize..(n.first_edge + n.edges) as usize]
    }

    /// The child of `node` along `c`.
    #[inline]
    fn step(&self, node: u32, c: char) -> Option<u32> {
        let child = match Trie::root_slot(c) {
            Some(slot) if node == 0 => self.root[slot],
            _ => {
                let edges = self.children(node);
                edges.binary_search_by_key(&c, |e| e.0).map_or(NONE, |i| edges[i].1)
            }
        };
        (child != NONE).then_some(child)
    }

    /// The id of the piece `node` spells, if it spells one.
    fn piece(&self, node: u32) -> Option<u32> {
        let piece = self.nodes[node as usize].piece;
        (piece != NONE).then_some(piece)
    }

    /// The id of the piece spelled by exactly `chars`.
    fn get(&self, chars: impl Iterator<Item = char>) -> Option<u32> {
        let mut node = 0;
        for c in chars {
            node = self.step(node, c)?;
        }
        self.piece(node)
    }
}

/// Viterbi segmentation's buffers, reused across the pre-tokens of a call.
#[derive(Default)]
struct Lattice {
    chars: Vec<char>,
    best: Vec<f64>,
    back: Vec<Option<(usize, u32)>>,
}

impl Lattice {
    /// Appends the highest-scoring segmentation of `token` into pieces of at
    /// most [`MAX_PIECE_CHARS`] characters to `out`. Ties keep the earliest
    /// start, then the shortest piece. Returns false, appending nothing,
    /// when some character is not covered (callers map that to `<unk>`).
    fn segment(
        &mut self,
        token: Pretoken,
        trie: &Trie,
        log_probs: &[f64],
        out: &mut Vec<u32>,
    ) -> bool {
        const NEG: f64 = -1e18;
        let Lattice { chars, best, back } = self;
        chars.clear();
        chars.extend(token.chars());
        let n = chars.len();
        best.clear();
        best.resize(n + 1, NEG);
        back.clear();
        back.resize(n + 1, None);
        best[0] = 0.0;
        for i in 0..n {
            if best[i] <= NEG / 2.0 {
                continue;
            }
            let mut node = 0;
            for len in 1..=MAX_PIECE_CHARS.min(n - i) {
                let Some(child) = trie.step(node, chars[i + len - 1]) else { break };
                node = child;
                if let Some(id) = trie.piece(node) {
                    let score = best[i] + log_probs[id as usize];
                    if score > best[i + len] {
                        best[i + len] = score;
                        back[i + len] = Some((i, id));
                    }
                }
            }
        }
        if back[n].is_none() {
            return false;
        }
        // Every link points back to a reachable position, down to 0.
        let start = out.len();
        let mut pos = n;
        while let Some((prev, id)) = back[pos] {
            out.push(id);
            pos = prev;
        }
        out[start..].reverse();
        true
    }
}

/// A UnigramLM subword tokenizer (SentencePiece-style, trained with EM).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnigramTokenizer {
    pieces: Vec<String>,
    log_probs: Vec<f64>,
    #[serde(default)]
    options: TokenizerOptions,
    #[serde(skip)]
    trie: OnceLock<Trie>,
}

impl UnigramTokenizer {
    /// Trains a tokenizer over `corpus` targeting roughly `vocab_size`
    /// pieces (excluding the reserved specials), with the paper's default
    /// pre-tokenization rules. All single characters seen in the corpus are
    /// always kept, so encoding never produces `<unk>` for corpus-like text.
    pub fn train(corpus: &[String], vocab_size: usize) -> Self {
        Self::train_with(corpus, vocab_size, TokenizerOptions::default())
    }

    /// [`UnigramTokenizer::train`] with explicit pre-tokenization options
    /// (the ablation entry point; encoding honors the same options).
    pub fn train_with(corpus: &[String], vocab_size: usize, options: TokenizerOptions) -> Self {
        let mut pretoken_counts: HashMap<Pretoken, u64> = HashMap::new();
        for text in corpus {
            for t in Pretokens::new(text, options) {
                *pretoken_counts.entry(t).or_insert(0) += 1;
            }
        }
        // Seed vocabulary: all substrings up to length 8 of the pretokens.
        // Counts are integers, so sums do not depend on the map's order.
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
        // Mandatory single characters: everything seen in the corpus plus
        // the printable ASCII alphabet (the paper: "individual characters
        // present in the train set ... are also part of the vocabulary"; we
        // add full ASCII so digits/letters absent from a small corpus still
        // encode character by character).
        let mut singles: Vec<String> =
            candidate_counts.keys().filter(|p| p.chars().count() == 1).cloned().collect();
        for c in 0x20u8..0x7f {
            singles.push((c as char).to_string());
        }
        singles.push(METASPACE.to_string());
        singles.sort();
        singles.dedup();
        // Start from the most frequent multi-char candidates plus singles.
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
        // Uniform init.
        let mut log_probs = vec![-((pieces.len() as f64).ln()); pieces.len()];
        let mut trie = Trie::new(&pieces);
        let mut lattice = Lattice::default();
        let mut seg = Vec::new();
        // EM rounds: segment with Viterbi, re-estimate piece probabilities,
        // prune the least useful multi-char pieces.
        for round in 0..3 {
            let mut usage = vec![0.0f64; pieces.len()];
            for (&tok, count) in &pretoken_counts {
                seg.clear();
                lattice.segment(tok, &trie, &log_probs, &mut seg);
                for &id in &seg {
                    usage[id as usize] += *count as f64;
                }
            }
            let total: f64 = usage.iter().sum::<f64>().max(1.0);
            for (i, u) in usage.iter().enumerate() {
                log_probs[i] = ((u + 0.1) / total).ln();
            }
            // Prune after the first rounds, keeping singles.
            if round < 2 {
                let keep_target = vocab_size.max(64);
                if pieces.len() > keep_target {
                    let mut order: Vec<usize> = (0..pieces.len()).collect();
                    order.sort_by(|&a, &b| usage[b].total_cmp(&usage[a]));
                    let mut keep = vec![false; pieces.len()];
                    for &i in order.iter().take(keep_target) {
                        keep[i] = true;
                    }
                    for (i, p) in pieces.iter().enumerate() {
                        if p.chars().count() == 1 {
                            keep[i] = true;
                        }
                    }
                    (pieces, log_probs) = pieces
                        .into_iter()
                        .zip(log_probs)
                        .zip(&keep)
                        .filter_map(|(piece, &kept)| kept.then_some(piece))
                        .unzip();
                    trie = Trie::new(&pieces);
                }
            }
        }
        UnigramTokenizer { pieces, log_probs, options, trie: OnceLock::from(trie) }
    }

    /// Total vocabulary size including the reserved specials.
    pub fn vocab_size(&self) -> usize {
        self.pieces.len() + special::COUNT as usize
    }

    /// The pre-tokenization options this tokenizer was trained with.
    pub fn options(&self) -> TokenizerOptions {
        self.options
    }

    fn trie(&self) -> &Trie {
        self.trie.get_or_init(|| Trie::new(&self.pieces))
    }

    /// Encodes text into token ids (without BOS/EOS). A pre-token that is
    /// itself a piece is that piece; any other is segmented by Viterbi,
    /// and one with a character no piece covers is a single `<unk>`.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let trie = self.trie();
        let mut lattice = Lattice::default();
        let mut out = Vec::new();
        for tok in Pretokens::new(text, self.options) {
            if let Some(id) = trie.get(tok.chars()) {
                out.push(id + special::COUNT);
                continue;
            }
            let start = out.len();
            if lattice.segment(tok, trie, &self.log_probs, &mut out) {
                out[start..].iter_mut().for_each(|id| *id += special::COUNT);
            } else {
                out.push(special::UNK);
            }
        }
        out
    }

    /// Decodes ids back to text: pieces concatenate, `▁` becomes a space.
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

    /// The piece string for a token id, if it is not a special.
    pub fn piece(&self, id: u32) -> Option<&str> {
        if id < special::COUNT {
            None
        } else {
            self.pieces.get((id - special::COUNT) as usize).map(|s| s.as_str())
        }
    }
}

/// Word-level tokenizer (the BTC baseline's scheme): whole pre-tokens are
/// vocabulary entries; everything unseen becomes `<unk>`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WordTokenizer {
    words: Vec<String>,
    index: HashMap<String, u32>,
}

impl WordTokenizer {
    /// Trains on `corpus`, keeping the `vocab_size` most frequent words.
    pub fn train(corpus: &[String], vocab_size: usize) -> Self {
        let mut counts: HashMap<Pretoken, u64> = HashMap::new();
        for text in corpus {
            for t in Pretokens::new(text, TokenizerOptions::default()) {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut ordered: Vec<(String, u64)> =
            counts.into_iter().map(|(t, count)| (t.chars().collect(), count)).collect();
        ordered.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ordered.truncate(vocab_size);
        let words: Vec<String> = ordered.into_iter().map(|(w, _)| w).collect();
        let index = words.iter().enumerate().map(|(i, w)| (w.clone(), i as u32)).collect();
        WordTokenizer { words, index }
    }

    /// Total vocabulary size including specials.
    pub fn vocab_size(&self) -> usize {
        self.words.len() + special::COUNT as usize
    }

    /// The index of each pre-token of `text`, `None` when it is not a word.
    fn lookup<'a>(&'a self, text: &'a str) -> impl Iterator<Item = Option<u32>> + 'a {
        let mut key = String::new();
        Pretokens::new(text, TokenizerOptions::default()).map(move |t| {
            key.clear();
            key.extend(t.chars());
            self.index.get(&key).copied()
        })
    }

    /// Encodes text; unknown words become [`special::UNK`].
    pub fn encode(&self, text: &str) -> Vec<u32> {
        self.lookup(text).map(|id| id.map_or(special::UNK, |i| i + special::COUNT)).collect()
    }

    /// Decodes ids, spacing words apart (`<unk>` renders as `UNK`).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut parts = Vec::new();
        for &id in ids {
            if id == special::UNK {
                parts.push("UNK".to_string());
            } else if id >= special::COUNT {
                if let Some(w) = self.words.get((id - special::COUNT) as usize) {
                    parts.push(w.trim_start_matches(METASPACE).to_string());
                }
            }
        }
        parts.join(" ")
    }

    /// Fraction of tokens in `text` that are out-of-vocabulary.
    pub fn oov_rate(&self, text: &str) -> f64 {
        let (mut toks, mut oov) = (0, 0);
        for id in self.lookup(text) {
            toks += 1;
            oov += usize::from(id.is_none());
        }
        if toks == 0 {
            return 0.0;
        }
        oov as f64 / toks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretokenizer_splits_digits_individually() {
        let toks = pretokenize("x = 512;");
        let m = METASPACE;
        assert_eq!(
            toks,
            vec![
                "x".to_string(),
                format!("{m}="),
                format!("{m}5"),
                "1".to_string(),
                "2".to_string(),
                ";".to_string()
            ]
        );
    }

    #[test]
    fn pretokenizer_splits_punctuation() {
        let toks = pretokenize("a->b += c[i];");
        let plain: Vec<String> =
            toks.iter().map(|t| t.trim_start_matches(METASPACE).to_string()).collect();
        assert_eq!(plain, vec!["a", "-", ">", "b", "+", "=", "c", "[", "i", "]", ";"]);
    }

    #[test]
    fn pretokenizer_protects_string_spaces() {
        let toks = pretokenize("s = \"a b\";");
        assert!(toks.contains(&METASPACE.to_string()), "{toks:?}");
    }

    fn sample_corpus() -> Vec<String> {
        vec![
            "int add(int a, int b) { return a + b; }".to_string(),
            "int sub(int a, int b) { return a - b; }".to_string(),
            "void copy(int *dst, int *src, int n) { for (int i = 0; i < n; i++) dst[i] = src[i]; }".to_string(),
            "movl %edi, %eax\naddl %esi, %eax\nret".to_string(),
        ]
    }

    #[test]
    fn unigram_roundtrips_seen_text() {
        let tok = UnigramTokenizer::train(&sample_corpus(), 300);
        let ids = tok.encode("int add(int a, int b) { return a + b; }");
        let text = tok.decode(&ids);
        // Round trip normalizes whitespace but preserves all symbols.
        let norm = |s: &str| s.chars().filter(|c| !c.is_whitespace()).collect::<String>();
        assert_eq!(norm(&text), norm("int add(int a, int b) { return a + b; }"));
    }

    #[test]
    fn unigram_handles_unseen_identifiers_via_subwords() {
        let tok = UnigramTokenizer::train(&sample_corpus(), 300);
        let ids = tok.encode("int zz_unseen_name(int zq) { return zq; }");
        assert!(!ids.contains(&special::UNK), "subwords must cover unseen identifiers");
        let text = tok.decode(&ids);
        assert!(text.contains("zz_unseen_name"), "{text}");
    }

    #[test]
    fn numbers_encode_digit_by_digit() {
        let tok = UnigramTokenizer::train(&sample_corpus(), 300);
        let ids = tok.encode("512");
        let pieces: Vec<&str> = ids.iter().filter_map(|&i| tok.piece(i)).collect();
        assert_eq!(pieces, vec!["5", "1", "2"], "large numbers must not merge");
    }

    #[test]
    fn decode_restores_number_adjacency() {
        let tok = UnigramTokenizer::train(&sample_corpus(), 300);
        let ids = tok.encode("return 512;");
        let text = tok.decode(&ids);
        assert!(text.contains("512"), "{text}");
    }

    #[test]
    fn word_tokenizer_has_oov_on_unseen_names() {
        let tok = WordTokenizer::train(&sample_corpus(), 100);
        let ids = tok.encode("int zz_unseen_name(int zq) { return zq; }");
        assert!(ids.contains(&special::UNK));
        assert!(tok.oov_rate("zz_unseen_name qqq_what") > 0.0);
    }

    #[test]
    fn vocab_size_is_bounded() {
        let tok = UnigramTokenizer::train(&sample_corpus(), 120);
        // Singles are always kept, so allow some slack above the target.
        assert!(tok.vocab_size() < 400, "{}", tok.vocab_size());
    }

    #[test]
    fn serde_roundtrip() {
        let tok = UnigramTokenizer::train(&sample_corpus(), 120);
        let json = serde_json::to_string(&tok).unwrap();
        let back: UnigramTokenizer = serde_json::from_str(&json).unwrap();
        assert_eq!(tok.encode("int x = 3;"), back.encode("int x = 3;"));
    }

    #[test]
    fn default_options_match_paper_recipe() {
        let opts = TokenizerOptions::default();
        assert!(opts.digit_split && opts.punct_split);
        // pretokenize and pretokenize_with(default) agree.
        let text = "a[i] += 512; /* \"x y\" */";
        assert_eq!(pretokenize(text), pretokenize_with(text, opts));
    }

    #[test]
    fn digit_split_off_keeps_numbers_whole() {
        let opts = TokenizerOptions { digit_split: false, punct_split: true };
        let toks = pretokenize_with("x2 = 512;", opts);
        let plain: Vec<String> =
            toks.iter().map(|t| t.trim_start_matches(METASPACE).to_string()).collect();
        assert_eq!(plain, vec!["x2", "=", "512", ";"]);
    }

    #[test]
    fn punct_split_off_merges_operator_runs() {
        let opts = TokenizerOptions { digit_split: true, punct_split: false };
        let toks = pretokenize_with("a->b += c;", opts);
        let plain: Vec<String> =
            toks.iter().map(|t| t.trim_start_matches(METASPACE).to_string()).collect();
        assert_eq!(plain, vec!["a", "->", "b", "+=", "c", ";"]);
    }

    #[test]
    fn trained_options_are_used_for_encoding() {
        let opts = TokenizerOptions { digit_split: false, punct_split: true };
        let tok = UnigramTokenizer::train_with(&sample_corpus(), 300, opts);
        assert_eq!(tok.options(), opts);
        // "512" can now be a single piece (it appears nowhere in the corpus,
        // so it segments to characters — but via word-level pretokens).
        let ids = tok.encode("copy");
        let pieces: Vec<&str> = ids.iter().filter_map(|&i| tok.piece(i)).collect();
        assert_eq!(pieces.join(""), "copy");
    }

    #[test]
    fn old_serialized_tokenizers_deserialize_with_default_options() {
        let tok = UnigramTokenizer::train(&sample_corpus(), 120);
        let mut json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&tok).unwrap()).unwrap();
        // Simulate a pre-options artifact by removing the field.
        json.as_object_mut().unwrap().remove("options");
        let back: UnigramTokenizer = serde_json::from_value(json).unwrap();
        assert_eq!(back.options(), TokenizerOptions::default());
    }
}
