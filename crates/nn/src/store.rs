//! Flat parameter store with gradients and Adam moments.
//!
//! Modules reference parameters by [`PId`]; the optimizer walks the whole
//! store. Keeping data/grad/moments side by side makes AdamW and weight
//! decay one loop, and (de)serialization trivial.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Handle to one parameter tensor.
pub type PId = usize;

/// One parameter tensor plus training state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamTensor {
    /// Parameter values (row-major).
    pub data: Vec<f32>,
    /// Accumulated gradient.
    #[serde(skip)]
    pub grad: Vec<f32>,
    /// Adam first moment.
    #[serde(skip)]
    pub m: Vec<f32>,
    /// Adam second moment.
    #[serde(skip)]
    pub v: Vec<f32>,
}

/// The set of all model parameters.
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
        let len = data.len();
        self.tensors.push(ParamTensor {
            data,
            grad: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        });
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
        let grad = &mut self.tensors[id].grad;
        assert_eq!(grad.len(), g.len(), "gradient shape mismatch");
        for (a, b) in grad.iter_mut().zip(g) {
            *a += b;
        }
    }

    /// Adds `g` into a row-slice of the gradient (embedding rows).
    pub fn add_grad_slice(&mut self, id: PId, offset: usize, g: &[f32]) {
        let grad = &mut self.tensors[id].grad;
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
            // Re-materialize moment buffers after deserialization.
            if t.grad.len() != t.data.len() {
                t.grad = vec![0.0; t.data.len()];
            }
            if t.m.len() != t.data.len() {
                t.m = vec![0.0; t.data.len()];
                t.v = vec![0.0; t.data.len()];
            }
            for i in 0..t.data.len() {
                let g = t.grad[i] * scale;
                t.m[i] = b1 * t.m[i] + (1.0 - b1) * g;
                t.v[i] = b2 * t.v[i] + (1.0 - b2) * g * g;
                let mhat = t.m[i] / bc1;
                let vhat = t.v[i] / bc2;
                t.data[i] -= lr * (mhat / (vhat.sqrt() + eps) + weight_decay * t.data[i]);
            }
        }
    }

    /// Global L2 norm of all gradients (for clipping / diagnostics).
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

    /// Gradient value at `(tensor, index)` (test support).
    ///
    /// # Panics
    ///
    /// Panics if the tensor id or index is out of range.
    pub fn grad_at(&self, tensor: PId, index: usize) -> f32 {
        self.tensors[tensor].grad[index]
    }

    /// Direct mutable access for tests/fine-tuning.
    pub fn data_mut(&mut self, id: PId) -> &mut [f32] {
        // Ensure aux buffers stay consistent after deserialization.
        let t = &mut self.tensors[id];
        if t.grad.len() != t.data.len() {
            t.grad = vec![0.0; t.data.len()];
            t.m = vec![0.0; t.data.len()];
            t.v = vec![0.0; t.data.len()];
        }
        &mut t.data
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
