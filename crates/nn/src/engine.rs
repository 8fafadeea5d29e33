//! The batched inference engine: beam-search scheduling over the seq2seq
//! model, extracted out of [`Seq2Seq`] so decode policy (scoring, length
//! normalization, early stop) and decode *scheduling* (which hypotheses
//! run together) live in one place.
//!
//! The engine interleaves the live beam lanes of **multiple independent
//! requests** into one decode batch (continuous-batching style): every
//! projection matmul runs once over all live lanes of all requests, lanes
//! of finished requests are compacted away by the survivor reorder, and
//! each request stops under its own policy. The per-hypothesis reference
//! ([`InferenceEngine::decode_reference`]) re-runs the training forward
//! over every hypothesis's whole prefix and is property-tested to return
//! identical hypotheses — see `tests/engine_equiv.rs`.
//!
//! Scoring fixes relative to the pre-engine implementation, both also
//! applied to the reference:
//! - log-probabilities come from a fused log-softmax + top-k
//!   ([`crate::math::log_softmax_topk_into`]) — one `logsumexp` pass and a
//!   k-slot selection instead of materializing a softmax over the whole
//!   vocabulary, sorting all of it, and clamping with `max(1e-12).ln()`;
//! - a request keeps decoding while any live hypothesis currently
//!   outscores (length-normalized) the k-th best finished one, instead
//!   of breaking as soon as `k` hypotheses finish — a live hypothesis
//!   that already outranks the finished set can no longer be masked by
//!   weak short ones (see `beam_converged` for the heuristic's
//!   remaining limit).

use crate::math::{log_softmax_topk, log_softmax_topk_into};
use crate::model::Seq2Seq;

/// One decode job: source tokens plus decode parameters.
#[derive(Debug, Clone)]
pub struct DecodeRequest {
    /// Source-token sequence (truncated to the model's `max_len`).
    pub src: Vec<u32>,
    /// Beginning-of-sequence token id.
    pub bos: u32,
    /// End-of-sequence token id.
    pub eos: u32,
    /// Maximum tokens to decode.
    pub max_len: usize,
    /// Beam width (clamped to ≥ 1).
    pub beam: usize,
}

/// Beam-search scheduler over a [`Seq2Seq`] model.
pub struct InferenceEngine<'m> {
    model: &'m Seq2Seq,
}

/// One live hypothesis of one request.
struct Hyp {
    tokens: Vec<u32>,
    score: f32,
}

/// Book-keeping for one admitted request inside a [`DecodeSession`].
struct Slot {
    ticket: u64,
    bos: u32,
    eos: u32,
    beam: usize,
    budget: usize,
    steps: usize,
    cross_id: usize,
    live: Vec<Hyp>,
    done: Vec<(Vec<u32>, f32)>,
}

fn norm_score(score: f32, len: usize) -> f32 {
    score / len as f32
}

/// Early-stop heuristic: true when at least `beam` hypotheses are
/// finished and no live hypothesis *currently* outscores
/// (length-normalized) the `beam`-th best finished one. This is a
/// heuristic, not a bound — `score / len` can still rise as near-certain
/// tokens append (score falls toward a limit while `len` grows), so a
/// currently-worse hypothesis that would eventually win is cut. It is
/// strictly less premature than the old `done.len() >= beam` break
/// (which ignored live scores entirely), and termination stays
/// guaranteed by the per-request budget.
fn beam_converged(
    done: &[(Vec<u32>, f32)],
    beam: usize,
    live_norms: impl Iterator<Item = f32>,
) -> bool {
    if done.len() < beam {
        return false;
    }
    // The `beam`-th best finished norm is the largest one that at least
    // `beam` of them reach. Counting beats a sorted copy per request per
    // step: `done` is a handful of entries (at most `beam` finish per
    // step, and only while a live hypothesis still beats this norm).
    let norms = || done.iter().map(|(t, s)| norm_score(*s, t.len()));
    let kth = norms()
        .filter(|v| norms().filter(|n| n.total_cmp(v).is_ge()).count() >= beam)
        .max_by(f32::total_cmp)
        .expect("the lowest norm is reached by all of done.len() >= beam");
    let best_live = live_norms.fold(f32::NEG_INFINITY, f32::max);
    best_live <= kth
}

/// Length-normalized ranking of finished (plus flushed unfinished)
/// hypotheses; strips BOS/EOS.
fn rank(mut done: Vec<(Vec<u32>, f32)>, beam: usize, bos: u32, eos: u32) -> Vec<Vec<u32>> {
    done.sort_by(|a, b| norm_score(b.1, b.0.len()).total_cmp(&norm_score(a.1, a.0.len())));
    done.into_iter()
        .take(beam)
        .map(|(p, _)| p.into_iter().filter(|&t| t != bos && t != eos).collect())
        .collect()
}

impl<'m> InferenceEngine<'m> {
    /// Wraps a model.
    pub fn new(model: &'m Seq2Seq) -> Self {
        InferenceEngine { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Seq2Seq {
        self.model
    }

    /// Decodes one request on the batched path.
    pub fn decode(&self, request: &DecodeRequest) -> Vec<Vec<u32>> {
        self.decode_batch(std::slice::from_ref(request), request.beam).pop().unwrap_or_default()
    }

    /// Opens a [`DecodeSession`] — the continuous-batching front-end:
    /// requests are admitted (possibly while other requests are
    /// mid-decode), stepped together, and returned as they finish.
    /// `cap_lanes` bounds concurrent beam lanes (and so the KV block pool,
    /// which grows with the blocks lanes take);
    /// `cap_pos` bounds tokens decodable per lane (clamped to the model's
    /// positional table).
    pub fn session(&self, cap_lanes: usize, cap_pos: usize) -> DecodeSession<'m> {
        let cap_pos = cap_pos.min(self.model.cfg.max_len - 1).max(1);
        let cap_lanes = cap_lanes.max(1);
        DecodeSession {
            model: self.model,
            state: self.model.begin_decode_batch(cap_lanes, cap_pos),
            slots: Vec::new(),
            cap_lanes,
            cap_pos,
            reserved: 0,
            next_ticket: 0,
            decoded_tokens: 0,
            tokens: Vec::new(),
            parents: Vec::new(),
            cands: Vec::new(),
            best: Vec::new(),
        }
    }

    /// Decodes a set of independent requests through **one**
    /// [`DecodeSession`] of `cap_lanes` lanes (floored at the widest
    /// beam, so every request fits): requests are admitted in order while
    /// [`DecodeSession::can_admit`] says their beam fits, sources are
    /// encoded at admission ([`Seq2Seq::encode_batch_in`]), all live beam
    /// lanes step together through [`Seq2Seq::decode_step_batch`], and
    /// each request applies its own beam policy and stops independently.
    /// A request that finishes hands its lanes to the next waiting one at
    /// the next step, so the session runs at most `cap_lanes` lanes and
    /// packs the weights once, whatever the number of requests. Returns,
    /// per request in request order, up to `beam` hypotheses, best first,
    /// without BOS/EOS.
    pub fn decode_batch(
        &self,
        requests: &[DecodeRequest],
        cap_lanes: usize,
    ) -> Vec<Vec<Vec<u32>>> {
        self.decode_batch_inspect(requests, cap_lanes, |_| {})
    }

    /// [`InferenceEngine::decode_batch`], calling `inspect` on the session
    /// after every step.
    fn decode_batch_inspect(
        &self,
        requests: &[DecodeRequest],
        cap_lanes: usize,
        mut inspect: impl FnMut(&DecodeSession<'m>),
    ) -> Vec<Vec<Vec<u32>>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let widest = requests.iter().map(|r| r.beam.max(1)).max().unwrap_or(1);
        let cap_pos = requests.iter().map(|r| r.max_len).max().unwrap_or(1);
        let mut session = self.session(cap_lanes.max(widest), cap_pos);
        let mut results: Vec<Option<Vec<Vec<u32>>>> = vec![None; requests.len()];
        // `(ticket, request index)` of the requests in flight.
        let mut in_flight: Vec<(u64, usize)> = Vec::new();
        let mut next = 0usize;
        while next < requests.len() || !session.is_idle() {
            let (mut end, mut lanes) = (next, 0usize);
            while end < requests.len() && session.can_admit(lanes + requests[end].beam.max(1)) {
                lanes += requests[end].beam.max(1);
                end += 1;
            }
            if end > next {
                let group: Vec<&DecodeRequest> = requests[next..end].iter().collect();
                in_flight.extend(session.admit_many(&group).into_iter().zip(next..end));
                next = end;
            }
            for (ticket, beams) in session.step() {
                let at =
                    in_flight.iter().position(|&(t, _)| t == ticket).expect("ticket in flight");
                results[in_flight.swap_remove(at).1] = Some(beams);
            }
            inspect(&session);
        }
        results.into_iter().map(|r| r.expect("every request finishes")).collect()
    }

    /// Per-hypothesis reference decode: [`Seq2Seq::encode`] once, then
    /// [`Seq2Seq::decode_last_logits`] over each live hypothesis's whole
    /// prefix every step — the training forward's arithmetic, no KV cache
    /// — under the same scoring and stop policy as
    /// [`InferenceEngine::decode_batch`], so the two are directly
    /// comparable (and property-tested identical).
    pub fn decode_reference(&self, request: &DecodeRequest) -> Vec<Vec<u32>> {
        let m = self.model;
        let beam = request.beam.max(1);
        let src = &request.src[..request.src.len().min(m.cfg.max_len)];
        let mem = m.encode(src);
        let budget = request.max_len.min(m.cfg.max_len - 1).max(1);
        let mut live: Vec<(Vec<u32>, f32)> = vec![(vec![request.bos], 0.0)];
        let mut done: Vec<(Vec<u32>, f32)> = Vec::new();
        let mut step = 0usize;
        loop {
            let mut cands: Vec<(Vec<u32>, f32)> = Vec::with_capacity(live.len() * beam);
            for (prefix, score) in &live {
                let logits = m.decode_last_logits(&mem, src.len(), prefix);
                for (tok, lp) in log_softmax_topk(&logits, beam) {
                    let mut t = prefix.clone();
                    t.push(tok as u32);
                    cands.push((t, score + lp));
                }
            }
            step += 1;
            cands.sort_by(|a, b| b.1.total_cmp(&a.1));
            cands.truncate(beam);
            let (finished, survivors): (Vec<_>, Vec<_>) =
                cands.into_iter().partition(|(t, _)| t.last() == Some(&request.eos));
            done.extend(finished);
            let converged = beam_converged(
                &done,
                beam,
                survivors.iter().map(|(t, sc)| norm_score(*sc, t.len())),
            );
            if survivors.is_empty() || step >= budget || converged {
                done.extend(survivors);
                break;
            }
            live = survivors;
        }
        rank(done, beam, request.bos, request.eos)
    }
}

/// A continuous-batching decode session: the engine-side admission seam.
///
/// A session keeps one [`crate::BatchedDecoderState`] alive across
/// request lifetimes: callers [`DecodeSession::admit`] work whenever
/// [`DecodeSession::can_admit`] says a lane budget is free — including
/// while other requests are mid-decode — call [`DecodeSession::step`] to
/// advance every live lane one token, and collect finished requests from
/// the step's return value. Lanes of a finished request are compacted out
/// by the survivor reorder, its KV blocks return to the pool and its
/// cross-memory slot is recycled, so a shard can serve an unbounded
/// request stream at bounded memory. [`InferenceEngine::decode_batch`]
/// drives one over a request list known up front.
///
/// Results are **independent of batch composition**: every kernel on the
/// step path computes each lane's row with the same summation order as
/// the single-lane path (see DESIGN.md §7.1), each lane attends only its
/// own cache, and the beam policy runs per request on a per-request step
/// counter — so a request decoded alongside any mix of neighbors, or
/// admitted at any point of a running batch, returns exactly the
/// hypotheses [`InferenceEngine::decode_reference`] would.
pub struct DecodeSession<'m> {
    model: &'m Seq2Seq,
    state: crate::model::BatchedDecoderState,
    slots: Vec<Slot>,
    cap_lanes: usize,
    cap_pos: usize,
    /// Lanes reserved by active requests (each reserves its full beam
    /// width up front, the worst case its survivors can fan out to).
    reserved: usize,
    next_ticket: u64,
    decoded_tokens: u64,
    /// Per-step buffers of [`DecodeSession::step`], kept so a step
    /// allocates only for the hypotheses that survive it: the token each
    /// lane consumes, each surviving lane's parent, one request's
    /// `(token, score, parent hypothesis)` candidates, and the top-k slots
    /// of one lane.
    tokens: Vec<u32>,
    parents: Vec<usize>,
    cands: Vec<(u32, f32, usize)>,
    best: Vec<(usize, f32)>,
}

impl<'m> DecodeSession<'m> {
    /// True when a request of this beam width can be admitted now:
    /// admission reserves `beam` lanes (the fan-out worst case) against
    /// the session's lane budget.
    pub fn can_admit(&self, beam: usize) -> bool {
        self.reserved + beam.max(1) <= self.cap_lanes
    }

    /// Lanes not reserved by any active request.
    pub fn free_lanes(&self) -> usize {
        self.cap_lanes - self.reserved
    }

    /// The session's lane budget.
    pub fn lane_capacity(&self) -> usize {
        self.cap_lanes
    }

    /// Live beam lanes right now (≤ reserved; a request's live lanes lag
    /// its reservation until the beam fans out).
    pub fn live_lanes(&self) -> usize {
        self.state.num_lanes()
    }

    /// Self-attention KV blocks `(held, allocated)`: held by some live
    /// lane, and allocated by the pool so far, which grows with the
    /// blocks lanes take and never shrinks.
    pub fn kv_blocks(&self) -> (usize, usize) {
        self.state.kv_blocks()
    }

    /// True when no request is in flight.
    pub fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total tokens decoded by this session so far — one per live lane
    /// per [`DecodeSession::step`]. Monotonic; serving layers diff it
    /// between polls to report decode throughput.
    pub fn decoded_tokens(&self) -> u64 {
        self.decoded_tokens
    }

    /// Admits one request; returns its ticket (stable id handed back by
    /// the [`DecodeSession::step`] that finishes it).
    ///
    /// # Panics
    ///
    /// Panics when [`DecodeSession::can_admit`] is false for the request's
    /// beam width.
    pub fn admit(&mut self, request: &DecodeRequest) -> u64 {
        self.admit_many(&[request]).pop().expect("one ticket per request")
    }

    /// Admits a group of requests — the grouped twin of
    /// [`DecodeSession::admit`] that serving callers use when draining an
    /// arrival queue: the group's lane reservation is checked as a whole,
    /// its sources go through the session's encoder weights
    /// ([`Seq2Seq::encode_batch_in`], whose activations live for this call
    /// only), and every request gets its cross memory and first lane.
    ///
    /// # Panics
    ///
    /// Panics when the group's summed beam widths exceed the free lane
    /// budget.
    pub fn admit_many(&mut self, requests: &[&DecodeRequest]) -> Vec<u64> {
        let m = self.model;
        // Validate the whole group's reservation before the (expensive)
        // encoder pass, so a rejected group admits nothing at all.
        let group: usize = requests.iter().map(|r| r.beam.max(1)).sum();
        assert!(
            self.reserved + group <= self.cap_lanes,
            "admission over lane budget ({} reserved + {group} > {})",
            self.reserved,
            self.cap_lanes
        );
        let srcs: Vec<&[u32]> =
            requests.iter().map(|r| &r.src[..r.src.len().min(m.cfg.max_len)]).collect();
        let mems = m.encode_batch_in(&mut self.state, &srcs);
        // The encoder pass timed itself (`Encode`); `Admit` is what
        // admission adds to it: cross-K/V projection, key packing and lane
        // set-up.
        let _timer = slade_obs::StageTimer::start(slade_obs::StageHist::Admit);
        requests
            .iter()
            .zip(&mems)
            .map(|(r, mem)| {
                let beam = r.beam.max(1);
                let cross =
                    m.register_cross_memory(&mut self.state, mem, mem.len() / m.cfg.d_model);
                self.state.add_lane(cross);
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.reserved += beam;
                self.slots.push(Slot {
                    ticket,
                    bos: r.bos,
                    eos: r.eos,
                    beam,
                    budget: r.max_len.min(self.cap_pos).max(1),
                    steps: 0,
                    cross_id: cross,
                    live: vec![Hyp { tokens: vec![r.bos], score: 0.0 }],
                    done: Vec::new(),
                });
                ticket
            })
            .collect()
    }

    /// Advances every live lane one decode step and returns the requests
    /// that finished on it as `(ticket, hypotheses)` — up to `beam`
    /// hypotheses each, best first, without BOS/EOS. Finished requests'
    /// lanes are compacted out and their reservations, KV blocks and
    /// cross memories freed, so [`DecodeSession::can_admit`] may turn true
    /// for a waiting request. No-op (empty vec) when idle.
    pub fn step(&mut self) -> Vec<(u64, Vec<Vec<u32>>)> {
        if self.slots.is_empty() {
            return Vec::new();
        }
        let m = self.model;
        let vocab = m.cfg.vocab;
        self.tokens.clear();
        for slot in &self.slots {
            for hyp in &slot.live {
                self.tokens.push(*hyp.tokens.last().unwrap());
            }
        }
        let logits = m.decode_step_batch(&mut self.state, &self.tokens);
        self.decoded_tokens += self.tokens.len() as u64;
        // Times the whole scoring section (top-k + survivor selection for
        // every slot) as one sample; per-call timing of the top-k would
        // cost more than the kernel itself.
        let score_timer = slade_obs::StageTimer::start(slade_obs::StageHist::Score);
        self.parents.clear();
        let mut lane_base = 0usize;
        for slot in self.slots.iter_mut() {
            let lanes = slot.live.len();
            // Candidates name their parent hypothesis; only the `beam`
            // that survive the cut get a token vector of their own.
            self.cands.clear();
            for (i, hyp) in slot.live.iter().enumerate() {
                let row = &logits[(lane_base + i) * vocab..(lane_base + i + 1) * vocab];
                log_softmax_topk_into(row, slot.beam, &mut self.best);
                self.cands
                    .extend(self.best.iter().map(|&(tok, lp)| (tok as u32, hyp.score + lp, i)));
            }
            self.cands.sort_by(|a, b| b.1.total_cmp(&a.1));
            self.cands.truncate(slot.beam);
            let first_parent = self.parents.len();
            let mut survivors: Vec<Hyp> = Vec::with_capacity(slot.beam);
            for &(tok, score, parent) in &self.cands {
                let mut tokens = Vec::with_capacity(slot.live[parent].tokens.len() + 1);
                tokens.extend_from_slice(&slot.live[parent].tokens);
                tokens.push(tok);
                if tok == slot.eos {
                    slot.done.push((tokens, score));
                } else {
                    survivors.push(Hyp { tokens, score });
                    self.parents.push(lane_base + parent);
                }
            }
            slot.steps += 1;
            let converged = beam_converged(
                &slot.done,
                slot.beam,
                survivors.iter().map(|h| norm_score(h.score, h.tokens.len())),
            );
            if survivors.is_empty() || slot.steps >= slot.budget || converged {
                // Unfinished survivors still compete in the ranking,
                // matching the reference.
                slot.done.extend(survivors.drain(..).map(|h| (h.tokens, h.score)));
                self.parents.truncate(first_parent);
            }
            slot.live = survivors;
            lane_base += lanes;
        }
        self.state.reorder(&self.parents);
        drop(score_timer);
        let mut finished = Vec::new();
        let mut i = 0usize;
        while i < self.slots.len() {
            if self.slots[i].live.is_empty() {
                let slot = self.slots.remove(i);
                self.reserved -= slot.beam;
                self.state.release_cross_memory(slot.cross_id);
                finished.push((slot.ticket, rank(slot.done, slot.beam, slot.bos, slot.eos)));
            } else {
                i += 1;
            }
        }
        finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TransformerConfig;

    fn trained_tiny() -> Seq2Seq {
        let mut m = Seq2Seq::new(TransformerConfig::tiny(16), 17);
        let pairs: [(&[u32], &[u32]); 2] = [(&[4, 5, 6], &[9, 10, 11]), (&[6, 5], &[11, 9])];
        for _ in 0..40 {
            for (src, tgt) in pairs {
                let mut dec = vec![1u32];
                dec.extend_from_slice(tgt);
                let mut labels = tgt.to_vec();
                labels.push(2);
                m.zero_grads();
                m.train_pair(src, &dec, &labels);
                m.adam_step(3e-3, 0.0, 1.0);
            }
        }
        m
    }

    #[test]
    fn batched_single_request_matches_scalar() {
        let m = trained_tiny();
        let engine = InferenceEngine::new(&m);
        for beam in [1usize, 2, 5] {
            let req = DecodeRequest { src: vec![4, 5, 6], bos: 1, eos: 2, max_len: 10, beam };
            assert_eq!(engine.decode(&req), engine.decode_reference(&req), "beam {beam}");
        }
    }

    #[test]
    fn interleaved_requests_match_individual_decodes() {
        let m = trained_tiny();
        let engine = InferenceEngine::new(&m);
        let reqs: Vec<DecodeRequest> = [
            (vec![4u32, 5, 6], 3usize),
            (vec![6u32, 5], 5),
            (vec![5u32], 1),
            (vec![4u32, 6], 2),
        ]
        .into_iter()
        .map(|(src, beam)| DecodeRequest { src, bos: 1, eos: 2, max_len: 9, beam })
        .collect();
        let batched = engine.decode_batch(&reqs, 11);
        for (req, got) in reqs.iter().zip(&batched) {
            assert_eq!(got, &engine.decode_reference(req), "src {:?}", req.src);
        }
    }

    #[test]
    fn batch_wider_than_the_lane_budget_feeds_through_one_session() {
        // Six beam-2 requests through four lanes: two decode at a time,
        // and a request that finishes early hands its lanes to the next.
        // Mixed budgets make them finish at different steps.
        use crate::model::KV_BLOCK;
        let m =
            Seq2Seq::new(TransformerConfig { max_len: 40, ..TransformerConfig::tiny(16) }, 9);
        let engine = InferenceEngine::new(&m);
        let reqs: Vec<DecodeRequest> = [5usize, 30, 9, 21, 3, 14]
            .into_iter()
            .enumerate()
            .map(|(i, max_len)| DecodeRequest {
                src: vec![4 + i as u32, 5, 6],
                bos: 1,
                eos: 2,
                max_len,
                beam: 2,
            })
            .collect();
        let budget = 4;
        let full_table = 30usize.div_ceil(KV_BLOCK);
        let (mut steps, mut peak_lanes) = (0usize, 0usize);
        let got = engine.decode_batch_inspect(&reqs, budget, |session| {
            steps += 1;
            let lanes = session.live_lanes();
            assert!(lanes <= budget, "step {steps}: {lanes} lanes");
            peak_lanes = peak_lanes.max(lanes);
            let (held, allocated) = session.kv_blocks();
            assert!(held <= allocated, "step {steps}: {held} held of {allocated}");
            assert!(allocated <= budget * full_table, "step {steps}: {allocated} blocks");
        });
        assert_eq!(peak_lanes, budget, "two requests never decoded together");
        // Pairs decoded back to back would take the longer request's
        // steps per pair; handing lanes over as requests finish beats that.
        let steps_alone = |req: &DecodeRequest| {
            let mut session = engine.session(req.beam, req.max_len);
            session.admit(req);
            (0..).take_while(|_| session.step().is_empty()).count() + 1
        };
        let back_to_back: usize =
            reqs.chunks(2).map(|pair| pair.iter().map(steps_alone).max().unwrap()).sum();
        assert!(steps < back_to_back, "{steps} steps, {back_to_back} in pairs");
        assert_eq!(got.len(), reqs.len());
        for (req, got) in reqs.iter().zip(&got) {
            assert_eq!(got, &engine.decode_reference(req), "budget {}", req.max_len);
        }
        assert_eq!(engine.decode_batch(&reqs, budget), got);
    }

    #[test]
    fn empty_batch_is_empty() {
        let m = Seq2Seq::new(TransformerConfig::tiny(16), 1);
        assert!(InferenceEngine::new(&m).decode_batch(&[], 10).is_empty());
    }

    #[test]
    fn mid_decode_admission_matches_scalar() {
        // A request admitted while another is mid-decode must return
        // exactly what it returns decoded alone — the invariant the
        // serving runtime's equivalence rests on.
        let m = trained_tiny();
        let engine = InferenceEngine::new(&m);
        let a = DecodeRequest { src: vec![4, 5, 6], bos: 1, eos: 2, max_len: 9, beam: 3 };
        let b = DecodeRequest { src: vec![6, 5], bos: 1, eos: 2, max_len: 9, beam: 2 };
        let c = DecodeRequest { src: vec![5], bos: 1, eos: 2, max_len: 9, beam: 5 };
        let mut session = engine.session(10, 9);
        let mut results: Vec<(u64, Vec<Vec<u32>>)> = Vec::new();
        let ta = session.admit(&a);
        results.extend(session.step());
        results.extend(session.step());
        let tb = session.admit(&b); // joins a running batch
        results.extend(session.step());
        let tc = session.admit(&c); // joins later still
        while !session.is_idle() {
            results.extend(session.step());
        }
        for (ticket, req) in [(ta, &a), (tb, &b), (tc, &c)] {
            let got = &results.iter().find(|(t, _)| *t == ticket).unwrap().1;
            assert_eq!(got, &engine.decode_reference(req), "src {:?}", req.src);
        }
    }

    #[test]
    fn finished_requests_free_lanes_for_admission() {
        let m = trained_tiny();
        let engine = InferenceEngine::new(&m);
        let req = DecodeRequest { src: vec![4, 5, 6], bos: 1, eos: 2, max_len: 6, beam: 5 };
        // Capacity for exactly one beam-5 request at a time.
        let mut session = engine.session(5, 6);
        let expected = engine.decode_reference(&req);
        for round in 0..3 {
            assert!(session.can_admit(req.beam), "round {round} should have free lanes");
            let ticket = session.admit(&req);
            assert!(!session.can_admit(req.beam), "budget must be exhausted while live");
            let mut got = None;
            while got.is_none() {
                for (t, beams) in session.step() {
                    assert_eq!(t, ticket);
                    got = Some(beams);
                }
            }
            assert_eq!(got.unwrap(), expected, "round {round} diverged");
            assert!(session.is_idle());
            assert_eq!(session.live_lanes(), 0);
        }
    }

    #[test]
    fn converged_stop_waits_for_stronger_live_hypothesis() {
        // Synthetic check of the policy helper itself: a live hypothesis
        // with a better normalized score must keep the beam alive.
        let done = vec![(vec![1, 7, 2], -6.0f32)]; // norm -2.0
        assert!(!beam_converged(&done, 1, [-1.0f32].into_iter())); // live -1.0 beats -2.0
        assert!(beam_converged(&done, 1, [-3.0f32].into_iter()));
        assert!(!beam_converged(&done, 2, [-3.0f32].into_iter())); // not enough done
    }

    #[test]
    fn kth_best_finished_norm_is_found_without_sorting() {
        // Norms -2.0, -1.0, -1.0, -3.0: ranks are -1, -1, -2, -3.
        let done = vec![
            (vec![1, 7, 2], -6.0f32),
            (vec![1, 2], -2.0),
            (vec![1, 8, 9, 2], -4.0),
            (vec![1, 2], -6.0),
        ];
        for (beam, kth) in [(1usize, -1.0f32), (2, -1.0), (3, -2.0), (4, -3.0)] {
            assert!(beam_converged(&done, beam, [kth].into_iter()), "beam {beam}");
            assert!(!beam_converged(&done, beam, [kth + 0.25].into_iter()), "beam {beam}");
        }
    }

    #[test]
    fn long_lived_session_returns_every_kv_block() {
        // A serve shard's life: 500 admissions of mixed beams and budgets
        // through 10 lanes, new requests joining while others are
        // mid-decode. Every block must be back on the free list whenever
        // the session drains, or the shard would exhaust its pool.
        let m =
            Seq2Seq::new(TransformerConfig { max_len: 40, ..TransformerConfig::tiny(16) }, 5);
        let engine = InferenceEngine::new(&m);
        let mut session = engine.session(10, 36);
        let (mut admitted, mut finished) = (0usize, 0usize);
        while finished < 500 {
            while admitted < 500 {
                let beam = 1 + admitted % 5;
                if !session.can_admit(beam) {
                    break;
                }
                let src = vec![4 + (admitted % 9) as u32, 5, 6];
                let max_len = 2 + admitted * 7 % 35;
                session.admit(&DecodeRequest { src, bos: 1, eos: 2, max_len, beam });
                admitted += 1;
            }
            finished += session.step().len();
            session.state.check_kv_pool();
        }
        assert!(session.is_idle());
        let (free, total) = session.state.check_kv_pool();
        assert_eq!(free, total, "KV blocks leaked");
    }

    #[test]
    fn decode_scratch_follows_the_lanes_not_the_source() {
        // A 1,000-token source and a short one fill a 10-lane session.
        // The encoder's activations live for the admission only, so the
        // session keeps step rows for the lanes it runs, not the source's.
        let m =
            Seq2Seq::new(TransformerConfig { max_len: 1024, ..TransformerConfig::tiny(16) }, 7);
        let engine = InferenceEngine::new(&m);
        let long = DecodeRequest {
            src: (0..1000).map(|i| 3 + i % 13).collect(),
            bos: 1,
            eos: 2,
            max_len: 6,
            beam: 5,
        };
        let short = DecodeRequest { src: vec![4, 5, 6], ..long.clone() };
        let mut session = engine.session(10, long.max_len);
        let tickets = [session.admit(&long), session.admit(&short)];
        assert_eq!(session.state.scratch_rows(), 0, "admission left activations behind");
        let mut results = Vec::new();
        while !session.is_idle() {
            results.extend(session.step());
            let rows = session.state.scratch_rows();
            assert!(rows <= 10, "step scratch holds {rows} rows for 10 lanes");
        }
        for (ticket, req) in tickets.iter().zip([&long, &short]) {
            let got = &results.iter().find(|(t, _)| t == ticket).unwrap().1;
            assert_eq!(got, &engine.decode_reference(req), "src of {} tokens", req.src.len());
        }
    }

    #[test]
    fn kv_pool_follows_the_lanes_not_the_lane_budget() {
        // A serve shard's lane budget, one beam-5 request through it: the
        // pool allocates for the lanes the request takes. An untrained
        // model runs every lane to its budget, four blocks deep.
        use crate::model::KV_BLOCK;
        let m =
            Seq2Seq::new(TransformerConfig { max_len: 64, ..TransformerConfig::tiny(16) }, 3);
        let engine = InferenceEngine::new(&m);
        let req = DecodeRequest { src: vec![4, 5, 6], bos: 1, eos: 2, max_len: 64, beam: 5 };
        let mut session = engine.session(256, req.max_len);
        assert_eq!(session.kv_blocks(), (0, 0), "a fresh session allocates no block");
        let ticket = session.admit(&req);
        let mut got = None;
        let mut peak_held = 0;
        while got.is_none() {
            got = session.step().pop();
            // Poisons every row no lane has written (free blocks, and each
            // tail past its lane's position), so a block read before it is
            // written fails the comparison below.
            session.state.check_kv_pool();
            peak_held = peak_held.max(session.kv_blocks().0);
        }
        assert_eq!(got, Some((ticket, engine.decode_reference(&req))));
        // Every held block is some lane's table entry, copy-on-write
        // copies included, so the request holds at most a full table per
        // lane, and the pool grows only to the most blocks held at once.
        let reached = req.beam * session.cap_pos.div_ceil(KV_BLOCK);
        let (free, allocated) = session.state.check_kv_pool();
        assert!(peak_held > 0, "the request held no block");
        assert!(peak_held <= allocated && allocated <= reached, "{allocated} for {reached}");
        assert_eq!(session.kv_blocks(), (0, allocated));
        assert_eq!(free, allocated, "KV blocks leaked");
    }
}
