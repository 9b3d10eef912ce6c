//! Parameter storage and first-order optimizers.
//!
//! Training loops keep their parameters in a [`ParamSet`], copy them onto a
//! fresh [`crate::Graph`] every step, and hand the resulting gradients to an
//! [`Optimizer`]. The paper trains its GCN with plain SGD (§IV-A); Adam and
//! AdaGrad are provided for the baselines and extensions.

use crate::matrix::Matrix;
use std::collections::HashMap;

/// Handle to a parameter in a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// A bag of named model parameters.
#[derive(Debug, Default)]
pub struct ParamSet {
    mats: Vec<Matrix>,
}

impl ParamSet {
    /// Create an empty parameter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter, returning its handle.
    pub fn add(&mut self, value: Matrix) -> ParamId {
        self.mats.push(value);
        ParamId(self.mats.len() - 1)
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.mats[id.0]
    }

    /// Mutable access (e.g. for L2-renormalisation between epochs, the
    /// classic TransE projection step).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.mats[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.mats.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.mats.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.mats.iter().map(|m| m.rows() * m.cols()).sum()
    }
}

/// Moment matrices of one parameter inside an [`OptimState`].
#[derive(Debug, Clone, PartialEq)]
pub struct OptimSlot {
    /// Index of the parameter in [`ParamSet`] registration order.
    pub param: usize,
    /// The optimizer's per-parameter moments: `[velocity]` for SGD,
    /// `[m, v]` for Adam, `[accumulator]` for AdaGrad.
    pub moments: Vec<Matrix>,
}

/// A snapshot of an optimizer's mutable state, for checkpoint/resume.
///
/// Captured with [`Optimizer::state`] and reapplied with
/// [`Optimizer::restore`]; a restored optimizer continues the exact update
/// trajectory of the snapshotted one (bitwise, given identical gradients).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimState {
    /// Which optimizer family produced the snapshot
    /// (`"sgd"` / `"adam"` / `"adagrad"`).
    pub kind: String,
    /// Step counter (Adam's bias-correction `t`; zero elsewhere).
    pub step_count: i32,
    /// Learning rate at snapshot time (rollback may have decayed it).
    pub lr: f32,
    /// Per-parameter moments, sorted by parameter index so the snapshot
    /// serializes deterministically.
    pub slots: Vec<OptimSlot>,
}

/// Collect a `ParamId → Matrix` map as index-sorted [`OptimSlot`]s, each
/// carrying `extra` additional moment maps' entries for the same id.
fn sorted_slots(maps: &[&HashMap<ParamId, Matrix>]) -> Vec<OptimSlot> {
    let first = match maps.first() {
        Some(m) => m,
        None => return Vec::new(),
    };
    let mut ids: Vec<ParamId> = first.keys().copied().collect();
    ids.sort_by_key(|id| id.0);
    ids.into_iter()
        .map(|id| OptimSlot {
            param: id.0,
            moments: maps
                .iter()
                .filter_map(|m| m.get(&id).cloned())
                .collect::<Vec<_>>(),
        })
        .collect()
}

/// Rebuild moment maps from slots; `moment` selects which entry of each
/// slot's `moments` feeds this map.
fn slots_to_map(slots: &[OptimSlot], moment: usize) -> HashMap<ParamId, Matrix> {
    slots
        .iter()
        .filter_map(|s| s.moments.get(moment).map(|m| (ParamId(s.param), m.clone())))
        .collect()
}

/// A first-order optimizer consuming `(parameter, gradient)` updates.
pub trait Optimizer {
    /// Apply one update step.
    fn step(&mut self, params: &mut ParamSet, grads: &[(ParamId, &Matrix)]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (numeric-recovery rollback halves it).
    fn set_learning_rate(&mut self, lr: f32);

    /// Snapshot the mutable state (moments, step counter, learning rate).
    fn state(&self) -> OptimState;

    /// Reinstate a snapshot taken from the same optimizer family.
    ///
    /// Fails when `state.kind` names a different family — restoring Adam
    /// moments into SGD would silently corrupt the trajectory.
    fn restore(&mut self, state: &OptimState) -> Result<(), String>;
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    velocity: HashMap<ParamId, Matrix>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0)
    }

    /// SGD with momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Self {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet, grads: &[(ParamId, &Matrix)]) {
        for &(id, grad) in grads {
            if self.momentum > 0.0 {
                let vel = self
                    .velocity
                    .entry(id)
                    .or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
                vel.scale_assign(self.momentum);
                vel.add_scaled_assign(grad, 1.0);
                params.get_mut(id).add_scaled_assign(vel, -self.lr);
            } else {
                params.get_mut(id).add_scaled_assign(grad, -self.lr);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state(&self) -> OptimState {
        OptimState {
            kind: "sgd".into(),
            step_count: 0,
            lr: self.lr,
            slots: sorted_slots(&[&self.velocity]),
        }
    }

    fn restore(&mut self, state: &OptimState) -> Result<(), String> {
        if state.kind != "sgd" {
            return Err(format!("cannot restore '{}' state into SGD", state.kind));
        }
        self.lr = state.lr;
        self.velocity = slots_to_map(&state.slots, 0);
        Ok(())
    }
}

/// Adam (Kingma & Ba, 2015).
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: HashMap<ParamId, Matrix>,
    v: HashMap<ParamId, Matrix>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999, 1e-8) moments.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &[(ParamId, &Matrix)]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for &(id, grad) in grads {
            let m = self
                .m
                .entry(id)
                .or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            let v = self
                .v
                .entry(id)
                .or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            let step = AdamStep {
                lr: self.lr,
                beta1: self.beta1,
                beta2: self.beta2,
                eps: self.eps,
                bc1,
                bc2,
            };
            let p = params.get_mut(id).as_mut_slice();
            let (m, v) = (m.as_mut_slice(), v.as_mut_slice());
            adam_update(
                step,
                p,
                m,
                v,
                grad.as_slice(),
                crate::kernels::simd_available(),
            );
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state(&self) -> OptimState {
        OptimState {
            kind: "adam".into(),
            step_count: self.t,
            lr: self.lr,
            slots: sorted_slots(&[&self.m, &self.v]),
        }
    }

    fn restore(&mut self, state: &OptimState) -> Result<(), String> {
        if state.kind != "adam" {
            return Err(format!("cannot restore '{}' state into Adam", state.kind));
        }
        self.lr = state.lr;
        self.t = state.step_count;
        self.m = slots_to_map(&state.slots, 0);
        self.v = slots_to_map(&state.slots, 1);
        Ok(())
    }
}

/// An Adam step's scalars, `bc1`/`bc2` its bias corrections.
#[derive(Clone, Copy)]
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    bc1: f32,
    bc2: f32,
}

/// Apply one Adam update to a parameter `p` with moments `m`, `v` and
/// gradient `g`, through the AVX instantiation of [`adam_body`] when
/// `simd` is set (only after AVX detection).
fn adam_update(h: AdamStep, p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], simd: bool) {
    assert!(
        p.len() == g.len() && m.len() == g.len() && v.len() == g.len(),
        "Adam buffers must match the gradient's length"
    );
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after `is_x86_feature_detected!`
        // found AVX.
        unsafe { adam_avx(h, p, m, v, g) };
        return;
    }
    let _ = simd;
    adam_body(h, p, m, v, g);
}

/// [`adam_body`] compiled with AVX enabled.
///
/// # Safety
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn adam_avx(h: AdamStep, p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32]) {
    adam_body(h, p, m, v, g);
}

/// The Adam update, elementwise. Every lane is one parameter; division
/// and square root are correctly rounded in every instruction set and
/// Rust never fuses the multiplies and adds, so each instantiation gives
/// the same bits.
#[inline(always)]
fn adam_body(h: AdamStep, p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32]) {
    for (((p, m), v), &g) in p.iter_mut().zip(m).zip(v).zip(g) {
        let mi = h.beta1 * *m + (1.0 - h.beta1) * g;
        let vi = h.beta2 * *v + (1.0 - h.beta2) * g * g;
        *m = mi;
        *v = vi;
        let mhat = mi / h.bc1;
        let vhat = vi / h.bc2;
        *p -= h.lr * mhat / (vhat.sqrt() + h.eps);
    }
}

/// AdaGrad (Duchi et al., 2011) — the optimizer of the original GCN-Align
/// release.
#[derive(Debug)]
pub struct AdaGrad {
    /// Learning rate.
    pub lr: f32,
    eps: f32,
    accum: HashMap<ParamId, Matrix>,
}

impl AdaGrad {
    /// AdaGrad with epsilon 1e-8.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            eps: 1e-8,
            accum: HashMap::new(),
        }
    }
}

impl Optimizer for AdaGrad {
    fn step(&mut self, params: &mut ParamSet, grads: &[(ParamId, &Matrix)]) {
        for &(id, grad) in grads {
            let acc = self
                .accum
                .entry(id)
                .or_insert_with(|| Matrix::zeros(grad.rows(), grad.cols()));
            let p = params.get_mut(id);
            for i in 0..grad.as_slice().len() {
                let g = grad.as_slice()[i];
                acc.as_mut_slice()[i] += g * g;
                p.as_mut_slice()[i] -= self.lr * g / (acc.as_slice()[i].sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state(&self) -> OptimState {
        OptimState {
            kind: "adagrad".into(),
            step_count: 0,
            lr: self.lr,
            slots: sorted_slots(&[&self.accum]),
        }
    }

    fn restore(&mut self, state: &OptimState) -> Result<(), String> {
        if state.kind != "adagrad" {
            return Err(format!(
                "cannot restore '{}' state into AdaGrad",
                state.kind
            ));
        }
        self.lr = state.lr;
        self.accum = slots_to_map(&state.slots, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)² with each optimizer; all must converge.
    fn converges(opt: &mut dyn Optimizer, steps: usize, tol: f32) {
        let mut params = ParamSet::new();
        let x = params.add(Matrix::from_vec(1, 1, vec![0.0]));
        for _ in 0..steps {
            let xv = params.get(x)[(0, 0)];
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (xv - 3.0)]);
            opt.step(&mut params, &[(x, &grad)]);
        }
        let xv = params.get(x)[(0, 0)];
        assert!((xv - 3.0).abs() < tol, "did not converge: x = {xv}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        converges(&mut Sgd::new(0.1), 100, 1e-3);
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        converges(&mut Sgd::with_momentum(0.05, 0.9), 200, 1e-2);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        converges(&mut Adam::new(0.1), 500, 1e-2);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        converges(&mut AdaGrad::new(0.7), 500, 1e-2);
    }

    #[test]
    fn param_set_accounting() {
        let mut p = ParamSet::new();
        assert!(p.is_empty());
        let a = p.add(Matrix::zeros(2, 3));
        let b = p.add(Matrix::zeros(1, 4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 10);
        p.get_mut(a)[(0, 0)] = 7.0;
        assert_eq!(p.get(a)[(0, 0)], 7.0);
        assert_eq!(p.get(b)[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn sgd_rejects_nonpositive_lr() {
        let _ = Sgd::new(0.0);
    }

    /// Run `steps` deterministic quadratic-descent steps on `opt`.
    fn descend(opt: &mut dyn Optimizer, params: &mut ParamSet, x: ParamId, steps: usize) {
        for _ in 0..steps {
            let xv = params.get(x)[(0, 0)];
            let grad = Matrix::from_vec(1, 1, vec![2.0 * (xv - 3.0)]);
            opt.step(params, &[(x, &grad)]);
        }
    }

    /// Snapshot mid-run, keep going, then restore into a fresh optimizer
    /// and replay: the parameter trajectory must match bitwise.
    fn snapshot_resumes_exactly(mut make: impl FnMut() -> Box<dyn Optimizer>) {
        let mut params = ParamSet::new();
        let x = params.add(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = make();
        descend(opt.as_mut(), &mut params, x, 7);
        let snap = opt.state();
        let params_at_snap = params.get(x).clone();
        descend(opt.as_mut(), &mut params, x, 5);
        let expect = params.get(x)[(0, 0)];

        let mut params2 = ParamSet::new();
        let x2 = params2.add(params_at_snap);
        let mut opt2 = make();
        opt2.restore(&snap).expect("same-family restore");
        descend(opt2.as_mut(), &mut params2, x2, 5);
        assert_eq!(params2.get(x2)[(0, 0)].to_bits(), expect.to_bits());
    }

    #[test]
    fn sgd_state_roundtrip_is_bitwise() {
        snapshot_resumes_exactly(|| Box::new(Sgd::with_momentum(0.05, 0.9)));
    }

    #[test]
    fn adam_state_roundtrip_is_bitwise() {
        snapshot_resumes_exactly(|| Box::new(Adam::new(0.1)));
    }

    #[test]
    fn adagrad_state_roundtrip_is_bitwise() {
        snapshot_resumes_exactly(|| Box::new(AdaGrad::new(0.7)));
    }

    #[test]
    fn restore_rejects_a_foreign_snapshot() {
        let snap = Sgd::new(0.1).state();
        assert!(Adam::new(0.1).restore(&snap).is_err());
        assert!(AdaGrad::new(0.1).restore(&snap).is_err());
    }

    #[test]
    fn adam_avx_and_plain_bodies_agree_bitwise() {
        // Lengths off the 8-lane width exercise the vector loop's tail;
        // zeros, negatives and huge/tiny gradients its special values.
        let mut state = 0x2545_f491u32;
        let mut draw = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * 4.0
        };
        for len in [0usize, 1, 7, 9, 13, 63, 65, 4097] {
            let mut g: Vec<f32> = (0..len).map(|_| draw()).collect();
            for (i, x) in g.iter_mut().enumerate() {
                match i % 11 {
                    3 => *x = 0.0,
                    5 => *x = -0.0,
                    7 => *x *= 1e30,
                    9 => *x *= 1e-30,
                    _ => {}
                }
            }
            let start: Vec<Vec<f32>> = (0..3).map(|_| (0..len).map(|_| draw()).collect()).collect();
            let step = AdamStep {
                lr: 0.02,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                bc1: 1.0 - 0.9f32.powi(3),
                bc2: 1.0 - 0.999f32.powi(3),
            };
            let run = |simd: bool| {
                let (mut p, mut m, mut v) = (start[0].clone(), start[1].clone(), start[2].clone());
                v.iter_mut().for_each(|x| *x = x.abs());
                adam_update(step, &mut p, &mut m, &mut v, &g, simd);
                [p, m, v].map(|b| b.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
            };
            let simd = crate::kernels::simd_available();
            assert_eq!(run(simd), run(false), "len {len} (avx: {simd})");
        }
    }

    #[test]
    fn learning_rate_can_be_halved() {
        let mut opt = Adam::new(0.2);
        assert_eq!(opt.learning_rate(), 0.2);
        opt.set_learning_rate(opt.learning_rate() * 0.5);
        assert_eq!(opt.learning_rate(), 0.1);
        assert_eq!(opt.state().lr, 0.1);
    }
}
