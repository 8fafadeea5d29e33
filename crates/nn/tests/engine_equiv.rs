//! Property tests for the batched inference engine's equivalence
//! guarantees: across random tiny models, random sources and random beam
//! widths, the batched path must reproduce the training forward —
//! `encode_batch` ≡ `encode`, `decode_step_batch` ≡ `decode_last_logits`
//! over each lane's whole prefix (also under adversarial lane reorders),
//! and engine beam search ≡ the per-hypothesis reference — plus the
//! `greedy == beam_search(k = 1)` head regression.

use proptest::prelude::*;
use slade_nn::{
    BatchedDecoderState, DecodeRequest, InferenceEngine, Seq2Seq, TransformerConfig,
};

/// The two model shapes the suite runs: `tiny` (head width 8: one lane
/// chunk) with its position table widened to the suite's longest source,
/// and the `small` reproduction shape (d_model 64, 4 heads — head width
/// 16, what the benchmarked model runs).
fn config(shape: usize) -> TransformerConfig {
    match shape {
        0 => TransformerConfig { max_len: 80, ..TransformerConfig::tiny(16) },
        _ => TransformerConfig::small(16),
    }
}

/// A fresh untrained model. Untrained weights give near-uniform,
/// tie-prone distributions — the adversarial case for rank stability.
fn model(shape: usize, seed: u64) -> Seq2Seq {
    Seq2Seq::new(config(shape), seed)
}

/// A lightly trained model (sharper, realistic distributions); fewer
/// steps on the larger shape, where one costs 30x as much in a debug
/// build.
fn trained_model(shape: usize, seed: u64) -> Seq2Seq {
    let mut m = model(shape, seed);
    for _ in 0..[12, 3][shape] {
        m.zero_grads();
        m.train_pair(&[4, 5, 6], &[1, 9, 10], &[9, 10, 2]);
        m.adam_step(3e-3, 0.0, 1.0);
    }
    m
}

/// A source of `len` tokens that differs per `salt`.
fn source(len: usize, salt: u32) -> Vec<u32> {
    (0..len as u32).map(|t| 3 + (t * 5 + salt) % 12).collect()
}

/// A batched state and what the reference forward needs to recompute any
/// of its lanes from nothing — one encoder memory per request and, per
/// lane in arena order, its request and the tokens it has consumed —
/// stepped and reordered together.
struct Paired<'m> {
    m: &'m Seq2Seq,
    state: BatchedDecoderState,
    mems: Vec<Vec<f32>>,
    lanes: Vec<(usize, Vec<u32>)>,
    steps: usize,
}

impl<'m> Paired<'m> {
    fn new(m: &'m Seq2Seq, cap_lanes: usize, cap_pos: usize) -> Self {
        let state = m.begin_decode_batch(cap_lanes, cap_pos);
        Paired { m, state, mems: Vec::new(), lanes: Vec::new(), steps: 0 }
    }

    /// Admits `src` with `width` lanes; returns its cross-memory handle.
    fn admit(&mut self, src: &[u32], width: usize) -> usize {
        let mem = self.m.encode(src);
        let cross = self.m.register_cross_memory(&mut self.state, &mem, src.len());
        for _ in 0..width {
            self.state.add_lane(cross);
            self.lanes.push((self.mems.len(), Vec::new()));
        }
        self.mems.push(mem);
        cross
    }

    /// One more lane, at position 0, for the already admitted request
    /// `req` (its cross memory `cross`).
    fn add_lane(&mut self, req: usize, cross: usize) {
        self.state.add_lane(cross);
        self.lanes.push((req, Vec::new()));
    }

    /// A step on tokens that differ per lane and per step, so forked lanes
    /// diverge from the fork on.
    fn step_distinct(&mut self) {
        let v = self.m.cfg.vocab as u32;
        let tokens: Vec<u32> = (0..self.lanes.len() as u32)
            .map(|lane| (3 + 5 * lane + 7 * self.steps as u32) % v)
            .collect();
        self.step(&tokens);
    }

    /// One batched step on `tokens`; every lane's logits must equal, bit
    /// for bit, `decode_last_logits` over that lane's whole prefix.
    fn step(&mut self, tokens: &[u32]) {
        let (v, d) = (self.m.cfg.vocab, self.m.cfg.d_model);
        let batched = self.m.decode_step_batch(&mut self.state, tokens).to_vec();
        for (lane, ((req, prefix), &tok)) in self.lanes.iter_mut().zip(tokens).enumerate() {
            prefix.push(tok);
            let mem = &self.mems[*req];
            let want = self.m.decode_last_logits(mem, mem.len() / d, prefix);
            for (i, (x, y)) in batched[lane * v..(lane + 1) * v].iter().zip(&want).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "step {} lane {lane} logit {i}: {x} vs {y}",
                    self.steps
                );
            }
        }
        self.steps += 1;
        self.state.check_kv_pool();
    }

    /// New lane `i` continues old lane `parents[i]`, on both sides.
    fn reorder(&mut self, parents: &[usize]) {
        self.state.reorder(parents);
        self.lanes = parents.iter().map(|&p| self.lanes[p].clone()).collect();
        self.state.check_kv_pool();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `encode_batch` over a ragged batch matches per-sequence `encode`
    /// bit for bit. Lengths cross the score kernel's 8-key groups and the
    /// encoder's query tiles (ragged last group, ragged last tile).
    #[test]
    fn encode_batch_matches_scalar_encode(
        shape in 0usize..2,
        seed in 0u64..500,
        l1 in 1usize..70,
        l2 in 1usize..70,
        l3 in 1usize..70,
    ) {
        let m = model(shape, seed);
        let srcs: Vec<Vec<u32>> =
            [l1, l2, l3].iter().enumerate().map(|(i, &l)| source(l, i as u32)).collect();
        let refs: Vec<&[u32]> = srcs.iter().map(|s| s.as_slice()).collect();
        let batched = m.encode_batch(&refs);
        for (src, mem) in srcs.iter().zip(&batched) {
            let scalar = m.encode(src);
            prop_assert_eq!(mem.len(), scalar.len());
            for (i, (a, b)) in mem.iter().zip(&scalar).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "len {} at {}: {} vs {}", src.len(), i, a, b);
            }
        }
    }

    /// `decode_step_batch` matches the reference forward's logits bit for
    /// bit with the lanes of five requests of different source lengths in
    /// one arena: lane runs of every width 1..=5 share a cross memory (the
    /// run of 5 is split by the attention tile), and two of the requests
    /// join while the others are mid-decode, so lanes also differ in
    /// position.
    #[test]
    fn decode_step_batch_matches_scalar_steps(
        shape in 0usize..2,
        seed in 0u64..500,
        lens in proptest::collection::vec(1usize..70, 5),
        before in 1usize..4,
        after in 1usize..4,
        t0 in 3u32..15,
    ) {
        let m = model(shape, seed);
        let widths = [5usize, 3, 1, 4, 2];
        let mut p = Paired::new(&m, widths.iter().sum(), before + after);
        for r in 0..3 {
            p.admit(&source(lens[r], r as u32), widths[r]);
        }
        for step in 0..before + after {
            if step == before {
                for r in 3..5 {
                    p.admit(&source(lens[r], r as u32), widths[r]);
                }
            }
            let tokens: Vec<u32> =
                (0..p.lanes.len() as u32).map(|lane| (t0 + 3 * lane + step as u32) % 16).collect();
            p.step(&tokens);
        }
        prop_assert_eq!(p.state.lane_len(0), before + after);
        prop_assert_eq!(p.state.lane_len(p.lanes.len() - 1), after);
    }

    /// `BatchedDecoderState::reorder` under parent vectors no beam search
    /// would pick — duplicates, drops, permutations, a lane forked five
    /// ways and all but one child pruned on the next step, every lane
    /// dropped — with the lanes of two requests at different positions in
    /// one pool: after every reorder each lane still decodes, bit for bit,
    /// what the reference forward computes from a prefix cloned along the
    /// same parents, and the block pool's books balance after every step
    /// and reorder. 36 steps cross two block boundaries at either
    /// request's offset, so forks land on every fill of a tail block.
    #[test]
    fn reorder_matches_cloned_reference_prefixes(
        shape in 0usize..2,
        seed in 0u64..500,
        late in 0usize..5,
        ops in proptest::collection::vec(0usize..7000, 36),
    ) {
        const LANES: usize = 8;
        let m = model(shape, seed);
        let mut p = Paired::new(&m, LANES, ops.len());
        p.admit(&source(3, 0), 1);
        let mut forked = false;
        for (step, (op, r)) in ops.iter().map(|x| (x % 7, x / 7)).enumerate() {
            if step == late || p.lanes.len() < 2 {
                // Another request joins mid-decode, at position 0 next to
                // lanes further along.
                let keep: Vec<usize> = (0..p.lanes.len().min(LANES - 1)).collect();
                p.reorder(&keep);
                let salt = 1 + step as u32 % 3;
                p.admit(&source(3 + 9 * salt as usize, salt), 1);
            }
            let n = p.lanes.len();
            let tokens: Vec<u32> =
                (0..n as u32).map(|lane| (3 + 5 * lane + 7 * step as u32) % 16).collect();
            p.step(&tokens);
            let pick = r % n;
            let parents: Vec<usize> = match op {
                // A fork's children are pruned to one on the next step.
                _ if forked => vec![r % n.min(5)],
                0 => (0..n).collect(),
                1 => (0..n).rev().collect(),
                2 => (0..n).map(|i| (i + pick) % n).collect(),
                // Five children of one lane, then the other lanes.
                3 => std::iter::repeat_n(pick, 5)
                    .chain((0..n).filter(|&i| i != pick))
                    .take(LANES)
                    .collect(),
                // Each new lane continues an arbitrary old one.
                4 => (0..1 + r % LANES).map(|i| (r / (i + 1) + i * i) % n).collect(),
                5 => (0..n).filter(|i| (r >> i) & 1 == 0).collect(),
                _ => Vec::new(),
            };
            forked = op == 3 && !forked;
            p.reorder(&parents);
        }
        p.reorder(&[]);
        let (free, total) = p.state.check_kv_pool();
        prop_assert_eq!(free, total, "blocks leaked");
    }

    /// Batched beam search returns exactly the ranked hypotheses of the
    /// per-hypothesis reference, across random models, sources and widths
    /// — including the lane-reorder machinery at beam > 1.
    #[test]
    fn batched_beam_matches_scalar_reference(
        seed in 0u64..200,
        beam in 1usize..6,
        max_len in 1usize..10,
        src_len in 1usize..6,
    ) {
        let m = trained_model(0, seed);
        let req = DecodeRequest { src: source(src_len, seed as u32), bos: 1, eos: 2, max_len, beam };
        let engine = InferenceEngine::new(&m);
        prop_assert_eq!(engine.decode(&req), engine.decode_reference(&req));
    }

    /// An interleaved batch of requests with different source lengths,
    /// every beam width 1..=5 and different budgets — the last request
    /// admitted while the others are mid-decode — matches each request
    /// decoded alone.
    #[test]
    fn interleaved_batch_matches_independent_decodes(
        shape in 0usize..2,
        seed in 0u64..100,
        lens in proptest::collection::vec(1usize..70, 5),
        late in 1usize..4,
    ) {
        let m = trained_model(shape, seed);
        let engine = InferenceEngine::new(&m);
        let reqs: Vec<DecodeRequest> = [(5usize, 8usize), (2, 4), (1, 9), (3, 6), (4, 7)]
            .into_iter()
            .zip(&lens)
            .enumerate()
            .map(|(i, ((beam, max_len), &len))| DecodeRequest {
                src: source(len, i as u32),
                bos: 1,
                eos: 2,
                max_len,
                beam,
            })
            .collect();
        let mut session = engine.session(15, 9);
        let (early, last) = reqs.split_at(4);
        let mut tickets = session.admit_many(&early.iter().collect::<Vec<_>>());
        let mut results = Vec::new();
        for _ in 0..late {
            results.extend(session.step());
        }
        tickets.push(session.admit(&last[0]));
        while !session.is_idle() {
            results.extend(session.step());
        }
        prop_assert_eq!(results.len(), reqs.len());
        for (req, ticket) in reqs.iter().zip(tickets) {
            let got = &results.iter().find(|(t, _)| *t == ticket).expect("ticket resolved").1;
            prop_assert_eq!(got, &engine.decode_reference(req), "src len {} beam {}", req.src.len(), req.beam);
        }
    }

    /// Regression: greedy decoding is exactly the head of beam_search(k=1).
    #[test]
    fn greedy_equals_beam_one_head(seed in 0u64..300, max_len in 1usize..12) {
        let m = trained_model(0, seed);
        let src = vec![4u32, 5, 6];
        let greedy = m.greedy(&src, 1, 2, max_len);
        let beam1 = m.beam_search(&src, 1, 2, max_len, 1);
        prop_assert_eq!(Some(&greedy), beam1.first(), "beam1 {:?}", &beam1);
    }
}

/// `encode_batch` ≡ `encode` at every edge of the packed-key encoder: no
/// keys, one, a key group less one / whole / plus one, a query tile less
/// and plus one, several groups, and 130 tokens (past `tiny`'s position
/// table). Each length alone in a call, all in one call longest first (the
/// scratch is sized by the first and must hand nothing of it — rows, packed
/// K, score rows — to the shorter ones), and through one state's cached
/// weights and scratch, longest first and then back up.
///
/// Mutation that fails it (reverted): `pack_heads` growing `out` but never
/// shrinking it, with `attend_tile` finding a head's keys at `keys.len() /
/// h` — after a longer source heads 1.. read stale groups ("one call: len
/// 33"; also fails `encode_batch_matches_scalar_encode`, and no in-crate
/// test).
#[test]
fn encode_batch_matches_encode_at_group_and_tile_edges() {
    use slade_nn::kernels::ATTN_TILE;
    let lens = [130usize, 33, 9, 8, 7, ATTN_TILE + 1, ATTN_TILE - 1, 1, 0];
    for shape in 0..2 {
        let m = model(shape, 11);
        let srcs: Vec<Vec<u32>> = lens.iter().map(|&l| source(l, l as u32)).collect();
        let want: Vec<Vec<f32>> = srcs.iter().map(|s| m.encode(s)).collect();
        let same = |got: &[f32], i: usize, how: &str| {
            assert_eq!(got.len(), want[i].len(), "{how}: len {}", lens[i]);
            for (at, (a, b)) in got.iter().zip(&want[i]).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{how}: len {} at {at}", lens[i]);
            }
        };
        let refs: Vec<&[u32]> = srcs.iter().map(|s| s.as_slice()).collect();
        for (i, mem) in m.encode_batch(&refs).iter().enumerate() {
            same(mem, i, "one call");
        }
        let mut state = m.begin_decode_batch(1, 1);
        for i in (0..lens.len()).chain((0..lens.len()).rev()) {
            same(&m.encode_batch(&refs[i..=i])[0], i, "alone");
            same(&m.encode_batch_in(&mut state, &refs[i..=i])[0], i, "one state");
        }
    }
}

/// Cross-attention over packed keys: sources of one key, one short of a
/// key group, a whole group, one and nine past it, under beams of every
/// width 1..=5, every step's logits equal to the reference forward's.
/// (`attend_tile` taking head `h + 1`'s packed keys fails this and ten
/// in-crate tests.)
#[test]
fn cross_attention_over_packed_keys_matches_reference() {
    for shape in 0..2 {
        let m = model(shape, 13);
        let mut p = Paired::new(&m, 15, 3);
        for (r, (len, width)) in
            [(1usize, 5usize), (7, 3), (8, 1), (9, 4), (17, 2)].into_iter().enumerate()
        {
            p.admit(&source(len, r as u32), width);
        }
        for step in 0..3u32 {
            let tokens: Vec<u32> = (0..15).map(|lane| (3 + 5 * lane + 7 * step) % 16).collect();
            p.step(&tokens);
        }
    }
}

/// A released cross-memory slot is reused: a request that takes over the
/// slot of a longer source (41 keys: six groups) with a shorter one (9
/// keys: two groups, the second nearly all padding) decodes exactly what
/// the reference computes from its own memory. The slot's buffers are
/// freed on release today; were they kept, this is the test that reads
/// them.
#[test]
fn reregistered_cross_slot_reads_only_its_new_keys() {
    for shape in 0..2 {
        let m = model(shape, 17);
        let mut p = Paired::new(&m, 4, 4);
        let long = p.admit(&source(41, 0), 2);
        p.step(&[4, 5]);
        p.reorder(&[]);
        p.state.release_cross_memory(long);
        let short = p.admit(&source(9, 1), 3);
        assert_eq!(short, long, "the freed slot is the one reused");
        for step in 0..3u32 {
            p.step(&[3 + step, 7 + step, 11 + step]);
        }
    }
}

/// `model.rs`'s `KV_BLOCK`: the positions a self-attention block holds.
const KV_BLOCK: usize = 16;

/// One request whose beam shares none, all and some of its blocks in the
/// course of one decode — the three cases a beam's self-attention tile
/// meets. A five-way fork three positions into the first block copies that
/// tail for four children: no block is common. A reorder at the block edge
/// (`[0, 0, 0, 3, 3]`) leaves two groups that hold all of their blocks in
/// common, and nothing across the groups; the next step gives every lane a
/// tail of its own behind them. A fork five positions into the second block
/// makes the first block common to all five lanes and the second to none,
/// and so on past a third edge, down to one survivor: a tile of one. Every
/// step's logits equal the reference forward's over the lane's own prefix,
/// bit for bit, on both model shapes, and `check_kv_pool` poisons after
/// every step and reorder what no lane has written.
///
/// Mutation that fails it (reverted): `decode_step_batch` handing every
/// lane of a beam the beam's first table (`tstride: 0`; step 3, lane 1 —
/// the first step after the fork that shares nothing).
#[test]
fn beam_sharing_none_some_and_all_of_its_blocks_matches_reference() {
    for shape in 0..2 {
        let m = model(shape, 19);
        let mut p = Paired::new(&m, 5, 3 * KV_BLOCK + 2);
        p.admit(&source(9, 2), 1);
        let run = |p: &mut Paired, until: usize| {
            while p.state.lane_len(0) < until {
                p.step_distinct();
            }
        };
        run(&mut p, 3);
        p.reorder(&[0, 0, 0, 0, 0]);
        run(&mut p, KV_BLOCK);
        p.reorder(&[0, 0, 0, 3, 3]);
        run(&mut p, KV_BLOCK + 5);
        p.reorder(&[2, 2, 2, 2, 2]);
        run(&mut p, 2 * KV_BLOCK);
        p.reorder(&[4, 1, 1, 0, 0]);
        run(&mut p, 3 * KV_BLOCK + 1);
        p.reorder(&[3]);
        p.step_distinct();
        p.reorder(&[]);
        let (free, total) = p.state.check_kv_pool();
        assert_eq!(free, total, "blocks leaked");
    }
}

/// Lanes at different positions in one step. Request A forks five ways and
/// is three positions into its second block when request B is admitted, so
/// one step attends A's beam over two blocks and B's lane over one key;
/// B forks in its turn, and a further lane of B — same cross memory,
/// position 0 — joins next to B's lanes at position 4: adjacent lanes of
/// one request that must not attend as one tile. Every step's logits equal
/// the reference forward's, bit for bit, on both model shapes.
///
/// Mutation that fails it (reverted): `beams` cutting runs by request only
/// (the late lane attends B's history at B's position: step 23, lane 8).
#[test]
fn lanes_at_different_positions_in_one_step_match_reference() {
    for shape in 0..2 {
        let m = model(shape, 23);
        let mut p = Paired::new(&m, 10, 2 * KV_BLOCK);
        p.admit(&source(12, 1), 1);
        for _ in 0..KV_BLOCK - 2 {
            p.step_distinct();
        }
        p.reorder(&[0, 0, 0, 0, 0]);
        for _ in 0..5 {
            p.step_distinct();
        }
        let b = p.admit(&source(30, 2), 1);
        p.step_distinct();
        p.reorder(&[0, 1, 2, 3, 4, 5, 5, 5]);
        for _ in 0..3 {
            p.step_distinct();
        }
        p.add_lane(1, b);
        for _ in 0..4 {
            p.step_distinct();
        }
        assert_eq!(
            (p.state.lane_len(0), p.state.lane_len(5), p.state.lane_len(8)),
            (KV_BLOCK + 11, 8, 4)
        );
    }
}

/// The packed output head's tail columns: a vocabulary that is not a
/// multiple of 8 (`small` shape, 515 tokens), a beam of five, 34 steps —
/// past two KV-block edges. Every step's logits equal the reference
/// forward's bit for bit while a lane forks and another is pruned, and
/// the engine returns exactly the reference's hypotheses.
#[test]
fn ragged_vocab_head_matches_reference() {
    const STEPS: usize = 34;
    let m = Seq2Seq::new(TransformerConfig::small(515), 7);
    let src = source(5, 1);
    let mut p = Paired::new(&m, 5, STEPS);
    p.admit(&src, 5);
    for step in 0..STEPS {
        let tokens: Vec<u32> =
            (0..5u32).map(|lane| (3 + 101 * lane + 7 * step as u32) % 515).collect();
        p.step(&tokens);
        p.reorder(&[step % 5, 0, 1, 2, 3]);
    }
    let req = DecodeRequest { src, bos: 1, eos: 2, max_len: STEPS, beam: 5 };
    let engine = InferenceEngine::new(&m);
    let got = engine.decode(&req);
    assert!(got.len() == 5 && got.iter().all(|h| h.len() >= 33), "stopped early: {got:?}");
    assert_eq!(got, engine.decode_reference(&req));
}
