//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! Define-by-run tape: every op eagerly computes its value and records its
//! inputs; [`Graph::backward`] then walks the tape in reverse, accumulating
//! gradients. The op set is exactly what the EA encoders need — GCN layers
//! (sparse·dense products, dense matmul, ReLU), translational models
//! (row gathers, row-wise L1/L2 distances), margin ranking losses
//! (elementwise arithmetic, reductions) and logistic losses
//! (sigmoid/softplus).
//!
//! A `Graph` is built fresh for every training step; parameters live outside
//! in a [`crate::optim::ParamSet`] and enter the tape as leaves.

use crate::matrix::Matrix;
use ceaff_graph::CsrMatrix;
use std::rc::Rc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

enum Op {
    Leaf,
    MatMul(Var, Var),
    /// Sparse · dense with a constant sparse left operand.
    SpMm(Rc<CsrMatrix>, Var),
    Add(Var, Var),
    Sub(Var, Var),
    /// Elementwise (Hadamard) product.
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Relu(Var),
    Sigmoid(Var),
    Tanh(Var),
    Softplus(Var),
    GatherRows(Var, Rc<Vec<usize>>, usize),
    /// Per-row L1 distance `Σ_j |a_ij − b_ij|` producing an n×1 column.
    RowL1Diff(Var, Var),
    /// Per-row squared L2 distance producing an n×1 column.
    RowL2Sq(Var, Var),
    Sum(Var),
    Mean(Var),
    SoftmaxRows(Var),
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A gradient tape.
///
/// ```
/// use ceaff_tensor::{Graph, Matrix};
///
/// // loss = mean((x·W)²); check that gradients reach both leaves.
/// let mut g = Graph::new();
/// let x = g.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
/// let w = g.leaf(Matrix::from_rows(&[&[0.5], &[-0.5]]));
/// let y = g.matmul(x, w);
/// let y2 = g.mul(y, y);
/// let loss = g.mean(y2);
/// g.backward(loss);
/// assert!(g.grad(x).is_some());
/// assert!(g.grad(w).is_some());
/// ```
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Create an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Introduce a leaf (input or parameter) holding `value`.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// The current value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient accumulated at `v` by the last [`Graph::backward`] call,
    /// if any gradient flowed there.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Dense matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::MatMul(a, b))
    }

    /// Sparse (constant) × dense product, e.g. `Â · H` in a GCN layer.
    pub fn spmm(&mut self, sparse: Rc<CsrMatrix>, b: Var) -> Var {
        let bv = self.value(b);
        assert_eq!(sparse.cols(), bv.rows(), "spmm dimension mismatch");
        let d = bv.cols();
        let mut out = Matrix::zeros(sparse.rows(), d);
        sparse.mul_dense(bv.as_slice(), d, out.as_mut_slice());
        self.push(out, Op::SpMm(sparse, b))
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.value(a).clone();
        value.add_assign(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let mut value = self.value(a).clone();
        value.sub_assign(self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product (fused single-pass kernel).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).hadamard(self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Multiply by a scalar constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let mut value = self.value(a).clone();
        value.scale_assign(c);
        self.push(value, Op::Scale(a, c))
    }

    /// Add a scalar constant.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let value = self.value(a).map(|x| x + c);
        self.push(value, Op::AddScalar(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(0.0));
        self.push(value, Op::Relu(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(stable_sigmoid);
        self.push(value, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let value = self.value(a).map(f32::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Softplus `ln(1 + eˣ)`, numerically stabilised.
    pub fn softplus(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| {
            if x > 20.0 {
                x
            } else if x < -20.0 {
                x.exp()
            } else {
                x.exp().ln_1p()
            }
        });
        self.push(value, Op::Softplus(a))
    }

    /// Gather rows of `a` by index (embedding lookup). Gradient scatters back.
    pub fn gather_rows(&mut self, a: Var, indices: Rc<Vec<usize>>) -> Var {
        let src_rows = self.value(a).rows();
        let value = self.value(a).gather_rows(&indices);
        self.push(value, Op::GatherRows(a, indices, src_rows))
    }

    /// Per-row L1 distance `‖a_i − b_i‖₁` as an n×1 column (the distance of
    /// the paper's margin ranking loss, Eq. 1). Parallel over row blocks;
    /// each row still sums left-to-right.
    pub fn row_l1_diff(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).row_l1_distances(self.value(b));
        self.push(out, Op::RowL1Diff(a, b))
    }

    /// Per-row squared L2 distance as an n×1 column (same parallel
    /// row-block scheme as [`Graph::row_l1_diff`]).
    pub fn row_l2_sq(&mut self, a: Var, b: Var) -> Var {
        let out = self.value(a).row_l2_sq_distances(self.value(b));
        self.push(out, Op::RowL2Sq(a, b))
    }

    /// Sum of all elements, a 1×1 matrix.
    pub fn sum(&mut self, a: Var) -> Var {
        let value = Matrix::from_vec(1, 1, vec![self.value(a).sum()]);
        self.push(value, Op::Sum(a))
    }

    /// Mean of all elements, a 1×1 matrix.
    pub fn mean(&mut self, a: Var) -> Var {
        let v = self.value(a);
        let n = (v.rows() * v.cols()) as f32;
        let value = Matrix::from_vec(1, 1, vec![v.sum() / n]);
        self.push(value, Op::Mean(a))
    }

    /// Row-wise softmax (fused single-pass kernel, parallel over row
    /// blocks).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let out = self.value(a).softmax_rows();
        self.push(out, Op::SoftmaxRows(a))
    }

    /// The margin ranking loss of the paper (Eq. 1):
    /// `mean(relu(pos − neg + margin))` over matched rows of two n×1
    /// distance columns.
    pub fn margin_ranking_loss(&mut self, pos: Var, neg: Var, margin: f32) -> Var {
        let diff = self.sub(pos, neg);
        let shifted = self.add_scalar(diff, margin);
        let hinged = self.relu(shifted);
        self.mean(hinged)
    }

    /// Run reverse-mode differentiation from `loss` (must be 1×1).
    ///
    /// # Panics
    /// Panics if `loss` is not a 1×1 matrix.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward must start from a scalar (1x1) loss"
        );
        for n in &mut self.nodes {
            n.grad = None;
        }
        self.nodes[loss.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));

        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = self.nodes[i].grad.take() else {
                continue;
            };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    let ga = grad.matmul_transpose(&self.nodes[b.0].value);
                    let gb = self.nodes[a.0].value.transpose_matmul(&grad);
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::SpMm(s, b) => {
                    let (s, b) = (Rc::clone(s), *b);
                    let d = grad.cols();
                    let mut gb = Matrix::zeros(s.cols(), d);
                    s.transpose_mul_dense(grad.as_slice(), d, gb.as_mut_slice());
                    self.accumulate(b, gb);
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate_ref(a, &grad);
                    self.accumulate_ref(b, &grad);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    let mut neg = grad.clone();
                    neg.scale_assign(-1.0);
                    self.accumulate_ref(a, &grad);
                    self.accumulate(b, neg);
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let ga = grad.hadamard(&self.nodes[b.0].value);
                    let gb = grad.hadamard(&self.nodes[a.0].value);
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::Scale(a, c) => {
                    let (a, c) = (*a, *c);
                    let mut g = grad.clone();
                    g.scale_assign(c);
                    self.accumulate(a, g);
                }
                Op::AddScalar(a) => {
                    let a = *a;
                    self.accumulate_ref(a, &grad);
                }
                // The activation backward passes fuse mask/derivative
                // construction with the gradient product: one pass, no
                // intermediate matrix. Each replays the exact arithmetic
                // of the old two-step (build `ds`, then hadamard) form —
                // `g * (expr)` with the same `expr` — so gradients are
                // bitwise-unchanged.
                Op::Relu(a) => {
                    let a = *a;
                    let ga = grad.zip_map(&self.nodes[a.0].value, |g, x| {
                        g * if x > 0.0 { 1.0 } else { 0.0 }
                    });
                    self.accumulate(a, ga);
                }
                Op::Sigmoid(a) => {
                    let a = *a;
                    let ga = grad.zip_map(&self.nodes[i].value, |g, y| g * (y * (1.0 - y)));
                    self.accumulate(a, ga);
                }
                Op::Tanh(a) => {
                    let a = *a;
                    let ga = grad.zip_map(&self.nodes[i].value, |g, y| g * (1.0 - y * y));
                    self.accumulate(a, ga);
                }
                Op::Softplus(a) => {
                    let a = *a;
                    let ga = grad.zip_map(&self.nodes[a.0].value, |g, x| g * stable_sigmoid(x));
                    self.accumulate(a, ga);
                }
                Op::GatherRows(a, idx, src_rows) => {
                    let (a, idx, src_rows) = (*a, Rc::clone(idx), *src_rows);
                    let mut ga = Matrix::zeros(src_rows, grad.cols());
                    for (r, &src) in idx.iter().enumerate() {
                        for (o, &g) in ga.row_mut(src).iter_mut().zip(grad.row(r)) {
                            *o += g;
                        }
                    }
                    self.accumulate(a, ga);
                }
                Op::RowL1Diff(a, b) => {
                    let (a, b) = (*a, *b);
                    let (ga, gb) = self.row_pair_grads(a, b, &grad, |gr, x, y| gr * sign(x - y));
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::RowL2Sq(a, b) => {
                    let (a, b) = (*a, *b);
                    let (ga, gb) = self.row_pair_grads(a, b, &grad, |gr, x, y| gr * 2.0 * (x - y));
                    self.accumulate(a, ga);
                    self.accumulate(b, gb);
                }
                Op::Sum(a) => {
                    let a = *a;
                    let (r, c) = self.nodes[a.0].value.shape();
                    self.accumulate(a, Matrix::filled(r, c, grad[(0, 0)]));
                }
                Op::Mean(a) => {
                    let a = *a;
                    let (r, c) = self.nodes[a.0].value.shape();
                    let n = (r * c) as f32;
                    self.accumulate(a, Matrix::filled(r, c, grad[(0, 0)] / n));
                }
                Op::SoftmaxRows(a) => {
                    let a = *a;
                    let s = self.nodes[i].value.clone();
                    let (rows, cols) = s.shape();
                    let mut ga = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        let gs: f32 = (0..cols).map(|c| grad[(r, c)] * s[(r, c)]).sum();
                        for c in 0..cols {
                            ga[(r, c)] = s[(r, c)] * (grad[(r, c)] - gs);
                        }
                    }
                    self.accumulate(a, ga);
                }
            }
            // Reattach so callers can inspect it afterwards.
            self.nodes[i].grad = Some(grad);
        }
    }

    /// Gradients of a per-row distance between `a` and `b` (an n×1
    /// column): `ga[r][c] = d(grad[r], a[r][c], b[r][c])` and
    /// `gb[r][c] = ga[r][c] * -1.0`, the bits `scale_assign(-1.0)` gives.
    fn row_pair_grads(
        &self,
        a: Var,
        b: Var,
        grad: &Matrix,
        d: impl Fn(f32, f32, f32) -> f32,
    ) -> (Matrix, Matrix) {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let (rows, cols) = av.shape();
        let mut ga = Matrix::zeros(rows, cols);
        let mut gb = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let gr = grad[(r, 0)];
            let outs = ga.row_mut(r).iter_mut().zip(gb.row_mut(r));
            for ((oa, ob), (&x, &y)) in outs.zip(av.row(r).iter().zip(bv.row(r))) {
                *oa = d(gr, x, y);
                *ob = *oa * -1.0;
            }
        }
        (ga, gb)
    }

    /// [`Graph::accumulate`] for a borrowed gradient: adds in place when
    /// `v` already has one and copies only when it does not.
    fn accumulate_ref(&mut self, v: Var, g: &Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    fn accumulate(&mut self, v: Var, g: Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }
}

#[inline]
fn sign(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

#[inline]
fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Numerically check `d loss / d input` for a scalar-producing builder.
    fn grad_check<F>(input: Matrix, build: F)
    where
        F: Fn(&mut Graph, Var) -> Var,
    {
        let mut g = Graph::new();
        let x = g.leaf(input.clone());
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("gradient must reach the input").clone();

        let eps = 1e-3f32;
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let mut plus = input.clone();
                plus[(r, c)] += eps;
                let mut gp = Graph::new();
                let xp = gp.leaf(plus);
                let lp = build(&mut gp, xp);
                let fplus = gp.value(lp)[(0, 0)];

                let mut minus = input.clone();
                minus[(r, c)] -= eps;
                let mut gm = Graph::new();
                let xm = gm.leaf(minus);
                let lm = build(&mut gm, xm);
                let fminus = gm.value(lm)[(0, 0)];

                let numeric = (fplus - fminus) / (2.0 * eps);
                let a = analytic[(r, c)];
                assert!(
                    (numeric - a).abs() < 2e-2 * (1.0 + numeric.abs().max(a.abs())),
                    "grad mismatch at ({r},{c}): numeric {numeric}, analytic {a}"
                );
            }
        }
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        crate::init::uniform(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn matmul_gradient() {
        let w = random_matrix(3, 2, 1);
        grad_check(random_matrix(2, 3, 2), move |g, x| {
            let wv = g.leaf(w.clone());
            let y = g.matmul(x, wv);
            g.sum(y)
        });
    }

    #[test]
    fn matmul_gradient_wrt_second_operand() {
        let a = random_matrix(2, 3, 3);
        grad_check(random_matrix(3, 2, 4), move |g, x| {
            let av = g.leaf(a.clone());
            let y = g.matmul(av, x);
            let y2 = g.mul(y, y); // square for a non-trivial Jacobian
            g.sum(y2)
        });
    }

    #[test]
    fn spmm_gradient() {
        let csr = Rc::new(
            CsrMatrix::from_triplets(3, 3, &[(0, 0, 0.5), (0, 2, 1.0), (1, 1, 2.0), (2, 0, 1.0)])
                .unwrap(),
        );
        grad_check(random_matrix(3, 2, 5), move |g, x| {
            let y = g.spmm(Rc::clone(&csr), x);
            let y2 = g.mul(y, y);
            g.sum(y2)
        });
    }

    #[test]
    fn relu_sigmoid_tanh_softplus_gradients() {
        // Offset inputs away from the ReLU kink for a clean numeric check.
        let base = random_matrix(3, 3, 6).map(|x| x + if x >= 0.0 { 0.1 } else { -0.1 });
        grad_check(base.clone(), |g, x| {
            let y = g.relu(x);
            g.sum(y)
        });
        grad_check(base.clone(), |g, x| {
            let y = g.sigmoid(x);
            g.sum(y)
        });
        grad_check(base.clone(), |g, x| {
            let y = g.tanh(x);
            g.sum(y)
        });
        grad_check(base, |g, x| {
            let y = g.softplus(x);
            g.sum(y)
        });
    }

    #[test]
    fn gather_and_l1_gradient() {
        // Keep values apart so |a−b| has stable signs under perturbation.
        let b = Matrix::from_rows(&[&[5.0, -5.0], &[5.0, -5.0]]);
        grad_check(
            Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 0.5], &[0.3, -0.2]]),
            move |g, x| {
                let idx = Rc::new(vec![0usize, 2]);
                let picked = g.gather_rows(x, idx);
                let bv = g.leaf(b.clone());
                let d = g.row_l1_diff(picked, bv);
                g.sum(d)
            },
        );
    }

    #[test]
    fn l2sq_gradient() {
        let b = random_matrix(3, 2, 8);
        grad_check(random_matrix(3, 2, 7), move |g, x| {
            let bv = g.leaf(b.clone());
            let d = g.row_l2_sq(x, bv);
            g.mean(d)
        });
    }

    #[test]
    fn softmax_gradient() {
        let w = random_matrix(3, 3, 10);
        grad_check(random_matrix(2, 3, 9), move |g, x| {
            let s = g.softmax_rows(x);
            let wv = g.leaf(w.clone());
            let y = g.matmul(s, wv);
            let y2 = g.mul(y, y);
            g.sum(y2)
        });
    }

    #[test]
    fn margin_loss_is_zero_when_separated() {
        let mut g = Graph::new();
        let pos = g.leaf(Matrix::from_vec(2, 1, vec![0.1, 0.2]));
        let neg = g.leaf(Matrix::from_vec(2, 1, vec![5.0, 6.0]));
        let loss = g.margin_ranking_loss(pos, neg, 1.0);
        assert_eq!(g.value(loss)[(0, 0)], 0.0);
        g.backward(loss);
        // No gradient flows through a saturated hinge.
        let gp = g.grad(pos).unwrap();
        assert_eq!(gp.sum(), 0.0);
    }

    #[test]
    fn margin_loss_pushes_pos_down_neg_up() {
        let mut g = Graph::new();
        let pos = g.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let neg = g.leaf(Matrix::from_vec(1, 1, vec![1.0]));
        let loss = g.margin_ranking_loss(pos, neg, 3.0);
        assert!((g.value(loss)[(0, 0)] - 4.0).abs() < 1e-6);
        g.backward(loss);
        assert!(g.grad(pos).unwrap()[(0, 0)] > 0.0);
        assert!(g.grad(neg).unwrap()[(0, 0)] < 0.0);
    }

    #[test]
    fn gradients_accumulate_across_reuse() {
        // loss = sum(x + x) => dloss/dx = 2 everywhere.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(2, 2, 1.0));
        let y = g.add(x, x);
        let loss = g.sum(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[2.0; 4]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 2));
        g.backward(x);
    }

    #[test]
    fn two_layer_gcn_shape_smoke() {
        // Â(ÂXW1)W2 runs end to end and produces gradients for W1, W2.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 5;
        let d = 4;
        let adj = Rc::new(CsrMatrix::identity(n));
        let mut g = Graph::new();
        let x = g.leaf(crate::init::truncated_normal(n, d, 1.0, &mut rng));
        let w1 = g.leaf(crate::init::xavier_uniform(d, d, &mut rng));
        let w2 = g.leaf(crate::init::xavier_uniform(d, d, &mut rng));
        let h = g.spmm(Rc::clone(&adj), x);
        let h = g.matmul(h, w1);
        let h = g.relu(h);
        let h = g.spmm(adj, h);
        let z = g.matmul(h, w2);
        let loss = g.mean(z);
        g.backward(loss);
        assert!(g.grad(w1).is_some());
        assert!(g.grad(w2).is_some());
        assert_eq!(g.value(z).shape(), (n, d));
    }
}
