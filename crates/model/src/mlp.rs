//! Fully connected layers with explicit backpropagation.
//!
//! The MLPs are the compute-heavy, memory-light half of a DLRM (§2.1): they
//! are replicated across devices (data parallelism) and contribute <1% of
//! checkpoint bytes. The implementation is straightforward scalar math —
//! correctness and determinism matter here, not FLOPs.

use cnr_workload::mix_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One dense layer: `y = act(W·x + b)` with `W ∈ R^{out×in}` (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    w: Vec<f32>,
    b: Vec<f32>,
    relu: bool,
    // Accumulated gradients (mini-batch).
    gw: Vec<f32>,
    gb: Vec<f32>,
}

impl Dense {
    /// He-uniform initialized layer.
    fn new(in_dim: usize, out_dim: usize, relu: bool, rng: &mut StdRng) -> Self {
        let bound = (6.0 / in_dim as f32).sqrt();
        Self {
            in_dim,
            out_dim,
            w: (0..in_dim * out_dim)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
            b: vec![0.0; out_dim],
            relu,
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
        }
    }

    fn forward(&self, x: &[f32], pre: &mut Vec<f32>, out: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.in_dim);
        pre.clear();
        out.clear();
        for o in 0..self.out_dim {
            let mut acc = self.b[o];
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            for (xi, wi) in x.iter().zip(row) {
                acc += xi * wi;
            }
            pre.push(acc);
            out.push(if self.relu { acc.max(0.0) } else { acc });
        }
    }

    /// Accumulates gradients for one sample and returns dL/dx.
    fn backward(&mut self, x: &[f32], pre: &[f32], dy: &[f32]) -> Vec<f32> {
        debug_assert_eq!(dy.len(), self.out_dim);
        let mut dx = vec![0.0f32; self.in_dim];
        for o in 0..self.out_dim {
            let mut d = dy[o];
            if self.relu && pre[o] <= 0.0 {
                d = 0.0;
            }
            self.gb[o] += d;
            let wrow = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.gw[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += d * x[i];
                dx[i] += d * wrow[i];
            }
        }
        dx
    }

    fn apply_grads(&mut self, lr: f32, batch_size: usize) {
        let scale = lr / batch_size.max(1) as f32;
        for (w, g) in self.w.iter_mut().zip(self.gw.iter_mut()) {
            *w -= scale * *g;
            *g = 0.0;
        }
        for (b, g) in self.b.iter_mut().zip(self.gb.iter_mut()) {
            *b -= scale * *g;
            *g = 0.0;
        }
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// A stack of dense layers with ReLU activations on all but the last.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Per-sample activations kept for backpropagation.
#[derive(Debug, Default, Clone)]
pub struct MlpTrace {
    inputs: Vec<Vec<f32>>,
    pres: Vec<Vec<f32>>,
    output: Vec<f32>,
}

impl Mlp {
    /// Builds an MLP mapping `in_dim` to `out_dim` through `hidden` ReLU
    /// layers; the output layer is linear.
    pub fn new(in_dim: usize, hidden: &[usize], out_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x317A));
        let mut layers = Vec::new();
        let mut prev = in_dim;
        for &h in hidden {
            layers.push(Dense::new(prev, h, true, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, out_dim, false, &mut rng));
        Self { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(|l| l.in_dim).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(|l| l.out_dim).unwrap_or(0)
    }

    /// Forward pass recording activations into `trace` for backprop.
    pub fn forward(&self, x: &[f32], trace: &mut MlpTrace) -> Vec<f32> {
        trace.inputs.clear();
        trace.pres.clear();
        let mut cur = x.to_vec();
        for layer in &self.layers {
            trace.inputs.push(cur.clone());
            let mut pre = Vec::new();
            let mut out = Vec::new();
            layer.forward(&cur, &mut pre, &mut out);
            trace.pres.push(pre);
            cur = out;
        }
        trace.output = cur.clone();
        cur
    }

    /// Inference-only forward (no trace).
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        let mut pre = Vec::new();
        let mut out = Vec::new();
        for layer in &self.layers {
            layer.forward(&cur, &mut pre, &mut out);
            std::mem::swap(&mut cur, &mut out);
        }
        cur
    }

    /// Backward pass for one sample: accumulates parameter gradients and
    /// returns dL/dx for the input.
    pub fn backward(&mut self, trace: &MlpTrace, dy: &[f32]) -> Vec<f32> {
        let mut grad = dy.to_vec();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward(&trace.inputs[i], &trace.pres[i], &grad);
        }
        grad
    }

    /// Applies and clears the accumulated mini-batch gradients.
    pub fn apply_grads(&mut self, lr: f32, batch_size: usize) {
        for layer in &mut self.layers {
            layer.apply_grads(lr, batch_size);
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Flattens all parameters (checkpointing).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.params().for_each(|p| out.extend_from_slice(p));
        out
    }

    /// The parameters in [`Mlp::flatten`] order, as the layers hold them:
    /// each layer's weights, then its biases. A writer that serializes
    /// them slice by slice needs no flattened copy.
    pub fn params(&self) -> impl Iterator<Item = &[f32]> {
        self.layers.iter().flat_map(|l| [l.w.as_slice(), l.b.as_slice()])
    }

    /// Restores parameters from a flat buffer produced by [`Mlp::flatten`].
    ///
    /// Panics when the buffer length does not match — restoring a checkpoint
    /// into a differently-shaped model is unrecoverable corruption.
    pub fn unflatten(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "checkpoint MLP shape mismatch"
        );
        let mut off = 0;
        for l in &mut self.layers {
            let wn = l.w.len();
            l.w.copy_from_slice(&flat[off..off + wn]);
            off += wn;
            let bn = l.b.len();
            l.b.copy_from_slice(&flat[off..off + bn]);
            off += bn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mlp() -> Mlp {
        Mlp::new(3, &[4], 2, 7)
    }

    #[test]
    fn shapes_and_param_count() {
        let m = tiny_mlp();
        assert_eq!(m.in_dim(), 3);
        assert_eq!(m.out_dim(), 2);
        // (3*4 + 4) + (4*2 + 2) = 16 + 10
        assert_eq!(m.param_count(), 26);
    }

    #[test]
    fn forward_matches_infer() {
        let m = tiny_mlp();
        let x = [0.3f32, -0.5, 0.9];
        let mut trace = MlpTrace::default();
        assert_eq!(m.forward(&x, &mut trace), m.infer(&x));
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let m = tiny_mlp();
        let flat = m.flatten();
        let mut m2 = Mlp::new(3, &[4], 2, 999); // different init
        assert_ne!(m2.flatten(), flat);
        m2.unflatten(&flat);
        assert_eq!(m2.flatten(), flat);
        let x = [0.1f32, 0.2, 0.3];
        assert_eq!(m.infer(&x), m2.infer(&x));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn unflatten_wrong_size_panics() {
        let mut m = tiny_mlp();
        m.unflatten(&[0.0; 5]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        // The load-bearing correctness test: analytic grads == numeric grads.
        let mut m = Mlp::new(3, &[5, 4], 1, 3);
        let x = [0.4f32, -0.2, 0.7];
        // Loss = 0.5 * y^2 so dL/dy = y.
        let mut trace = MlpTrace::default();
        let y = m.forward(&x, &mut trace)[0];
        let dx = m.backward(&trace, &[y]);

        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let yp = m.infer(&xp)[0];
            let ym = m.infer(&xm)[0];
            let numeric = (0.5 * yp * yp - 0.5 * ym * ym) / (2.0 * eps);
            assert!(
                (dx[i] - numeric).abs() < 2e-2_f32.max(numeric.abs() * 0.05),
                "dL/dx[{i}]: analytic {} vs numeric {numeric}",
                dx[i]
            );
        }
    }

    #[test]
    fn training_reduces_squared_error() {
        // Fit y = x0 + x1 on random points; loss must drop.
        let mut m = Mlp::new(2, &[8], 1, 5);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let loss_of = |m: &Mlp, pts: &[([f32; 2], f32)]| -> f32 {
            pts.iter()
                .map(|(x, t)| {
                    let y = m.infer(x)[0];
                    0.5 * (y - t) * (y - t)
                })
                .sum::<f32>()
                / pts.len() as f32
        };
        let pts: Vec<([f32; 2], f32)> = (0..64)
            .map(|_| {
                let x = [rng.gen_range(-1.0f32..1.0), rng.gen_range(-1.0f32..1.0)];
                (x, x[0] + x[1])
            })
            .collect();
        let before = loss_of(&m, &pts);
        let mut trace = MlpTrace::default();
        for _ in 0..300 {
            for (x, t) in &pts {
                let y = m.forward(x, &mut trace)[0];
                m.backward(&trace, &[y - t]);
            }
            m.apply_grads(0.1, pts.len());
        }
        let after = loss_of(&m, &pts);
        assert!(
            after < before * 0.1,
            "training failed to converge: {before} -> {after}"
        );
    }

    #[test]
    fn apply_grads_clears_accumulators() {
        let mut m = tiny_mlp();
        let x = [1.0f32, 1.0, 1.0];
        let mut trace = MlpTrace::default();
        let _ = m.forward(&x, &mut trace);
        m.backward(&trace, &[1.0, 1.0]);
        let w_after_step = {
            m.apply_grads(0.1, 1);
            m.flatten()
        };
        // Second apply with no new grads must be a no-op.
        m.apply_grads(0.1, 1);
        assert_eq!(m.flatten(), w_after_step);
    }
}
