//! Flat parameter store with gradients and Adam moments.
//!
//! Modules reference parameters by [`PId`]; the optimizer walks the whole
//! store. Keeping data/grad/moments side by side makes AdamW and weight
//! decay one loop, and (de)serialization trivial. Only the parameters
//! exist from the start: a gradient is created by the first one added,
//! the moments by the first [`ParamStore::adam_step`], so a model that is
//! only decoded holds its weights and nothing else.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Handle to one parameter tensor.
pub type PId = usize;

/// One parameter tensor plus training state. The training buffers are
/// either empty or `data.len()` long: empty until training first touches
/// them, empty again after
/// [`ParamStore::release_optimizer_state`], and never serialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamTensor {
    /// Parameter values (row-major).
    pub data: Vec<f32>,
    /// Accumulated gradient; empty reads as zeros.
    #[serde(skip)]
    pub grad: Vec<f32>,
    /// Adam first moment; empty reads as zeros.
    #[serde(skip)]
    pub m: Vec<f32>,
    /// Adam second moment; empty reads as zeros.
    #[serde(skip)]
    pub v: Vec<f32>,
}

/// One training buffer of a `len`-value tensor, created as the zeros it
/// reads as on first use — the one place optimizer state is allocated.
fn materialize(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() != len {
        *buf = vec![0.0; len];
    }
    buf
}

/// The set of all model parameters, with the optimizer state of the ones
/// training has touched.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    tensors: Vec<ParamTensor>,
    /// Adam step counter (for bias correction).
    pub step: u64,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a tensor of `len` values drawn from N(0, std) — the paper
    /// initializes from N(0, 0.02).
    pub fn alloc(&mut self, len: usize, std: f32, rng: &mut impl Rng) -> PId {
        let data = (0..len)
            .map(|_| {
                // Box–Muller from two uniforms.
                let u1: f32 = rng.gen_range(1e-6..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                z * std
            })
            .collect();
        self.push(data)
    }

    /// Allocates a zero tensor (biases, layer-norm beta).
    pub fn alloc_zeros(&mut self, len: usize) -> PId {
        self.push(vec![0.0; len])
    }

    /// Allocates a ones tensor (layer-norm gamma).
    pub fn alloc_ones(&mut self, len: usize) -> PId {
        self.push(vec![1.0; len])
    }

    fn push(&mut self, data: Vec<f32>) -> PId {
        self.tensors.push(ParamTensor { data, grad: Vec::new(), m: Vec::new(), v: Vec::new() });
        self.tensors.len() - 1
    }

    /// Parameter values.
    pub fn data(&self, id: PId) -> &[f32] {
        &self.tensors[id].data
    }

    /// Adds `g` into the gradient of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_grad(&mut self, id: PId, g: &[f32]) {
        let t = &mut self.tensors[id];
        let grad = materialize(&mut t.grad, t.data.len());
        assert_eq!(grad.len(), g.len(), "gradient shape mismatch");
        for (a, b) in grad.iter_mut().zip(g) {
            *a += b;
        }
    }

    /// Adds `g` into a row-slice of the gradient (embedding rows).
    pub fn add_grad_slice(&mut self, id: PId, offset: usize, g: &[f32]) {
        let t = &mut self.tensors[id];
        let grad = materialize(&mut t.grad, t.data.len());
        for (a, b) in grad[offset..offset + g.len()].iter_mut().zip(g) {
            *a += b;
        }
    }

    /// Zeroes all gradients (start of an accumulation window).
    pub fn zero_grads(&mut self) {
        for t in &mut self.tensors {
            t.grad.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// One AdamW update over every tensor. `scale` divides gradients (for
    /// gradient accumulation over a minibatch); `weight_decay` is decoupled,
    /// as the paper regularizes with weight decay instead of dropout.
    pub fn adam_step(&mut self, lr: f32, weight_decay: f32, scale: f32) {
        self.step += 1;
        let b1 = 0.9f32;
        let b2 = 0.999f32;
        let eps = 1e-8f32;
        let bc1 = 1.0 - b1.powi(self.step as i32);
        let bc2 = 1.0 - b2.powi(self.step as i32);
        for t in &mut self.tensors {
            let len = t.data.len();
            let grad = materialize(&mut t.grad, len);
            let m = materialize(&mut t.m, len);
            let v = materialize(&mut t.v, len);
            for i in 0..len {
                let g = grad[i] * scale;
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                t.data[i] -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * t.data[i]);
            }
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics). A
    /// gradient not yet created adds nothing, as its zeros would.
    pub fn grad_norm(&self) -> f32 {
        self.tensors.iter().flat_map(|t| t.grad.iter()).map(|g| g * g).sum::<f32>().sqrt()
    }

    /// Scales all gradients by `factor` (gradient clipping).
    pub fn scale_grads(&mut self, factor: f32) {
        for t in &mut self.tensors {
            t.grad.iter_mut().for_each(|g| *g *= factor);
        }
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.tensors.iter().map(|t| t.data.len()).sum()
    }

    /// Floats held by gradients and Adam moments: 0 until training first
    /// touches the store and after
    /// [`ParamStore::release_optimizer_state`], up to three per parameter
    /// while training.
    pub fn optimizer_floats(&self) -> usize {
        self.tensors.iter().map(|t| t.grad.len() + t.m.len() + t.v.len()).sum()
    }

    /// Frees every gradient and Adam moment, leaving the parameters — what
    /// a model that is only decoded from now on keeps. Training may resume
    /// afterwards, from zeroed moments.
    pub fn release_optimizer_state(&mut self) {
        for t in &mut self.tensors {
            for buf in [&mut t.grad, &mut t.m, &mut t.v] {
                *buf = Vec::new();
            }
        }
    }

    /// Gradient value at `(tensor, index)` (test support); 0 for a
    /// gradient not yet created.
    ///
    /// # Panics
    ///
    /// Panics if the tensor id or index is out of range.
    pub fn grad_at(&self, tensor: PId, index: usize) -> f32 {
        let t = &self.tensors[tensor];
        assert!(index < t.data.len(), "index {index} out of range");
        t.grad.get(index).copied().unwrap_or(0.0)
    }

    /// Direct mutable access for tests/fine-tuning.
    pub fn data_mut(&mut self, id: PId) -> &mut [f32] {
        &mut self.tensors[id].data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn alloc_and_grad_accumulation() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut s = ParamStore::new();
        let id = s.alloc(4, 0.02, &mut rng);
        s.add_grad(id, &[1.0, 1.0, 1.0, 1.0]);
        s.add_grad(id, &[1.0, 0.0, 0.0, 0.0]);
        assert_eq!(s.tensors[id].grad[0], 2.0);
        s.zero_grads();
        assert_eq!(s.tensors[id].grad[0], 0.0);
    }

    #[test]
    fn adam_moves_against_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let mut s = ParamStore::new();
        let id = s.alloc(1, 0.0, &mut rng);
        let before = s.data(id)[0];
        s.add_grad(id, &[1.0]);
        s.adam_step(0.1, 0.0, 1.0);
        assert!(s.data(id)[0] < before);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut s = ParamStore::new();
        let id = s.push(vec![1.0]);
        s.adam_step(0.1, 0.5, 1.0);
        assert!(s.data(id)[0] < 1.0);
    }

    #[test]
    fn optimizer_state_exists_only_once_training_touches_it() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let mut s = ParamStore::new();
        let a = s.alloc(6, 0.02, &mut rng);
        let b = s.alloc_zeros(4);
        assert_eq!(s.optimizer_floats(), 0, "a fresh store holds parameters only");
        assert_eq!(s.grad_at(b, 3), 0.0);
        s.add_grad_slice(a, 2, &[1.0, 2.0]);
        assert_eq!(s.optimizer_floats(), 6, "one gradient, no moments");
        assert_eq!((s.grad_at(a, 1), s.grad_at(a, 3)), (0.0, 2.0));
        s.zero_grads();
        s.scale_grads(0.5);
        assert_eq!(s.optimizer_floats(), 6, "zeroing and scaling create nothing");
        s.adam_step(0.1, 0.0, 1.0);
        assert_eq!(s.optimizer_floats(), 3 * s.num_params());
        s.release_optimizer_state();
        assert_eq!(s.optimizer_floats(), 0);
        s.add_grad(b, &[1.0; 4]);
        assert_eq!(s.grad_at(b, 0), 1.0, "training resumes after a release");
    }

    #[test]
    fn init_is_roughly_normal() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut s = ParamStore::new();
        let id = s.alloc(10_000, 0.02, &mut rng);
        let mean: f32 = s.data(id).iter().sum::<f32>() / 10_000.0;
        let var: f32 = s.data(id).iter().map(|x| x * x).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!((var.sqrt() - 0.02).abs() < 0.005, "std {}", var.sqrt());
    }
}
