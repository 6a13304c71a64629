//! Elementwise arithmetic with NumPy-style broadcasting.

use crate::shape::broadcast_shapes;
use crate::{DType, Data, Result, Shape, Tensor, TensorError};
use std::sync::Arc;

/// Iterates over the flat indices of the two operands of a broadcast binary
/// op, invoking `f(lhs_index, rhs_index)` once per output element in
/// row-major order.
fn for_each_broadcast_pair(out: &Shape, lhs: &Shape, rhs: &Shape, mut f: impl FnMut(usize, usize)) {
    let rank = out.rank();
    let out_dims = out.dims();
    // Align the operand dims/strides to the output rank from the right.
    let align = |s: &Shape| -> (Vec<usize>, Vec<usize>) {
        let mut dims = vec![1; rank];
        let offset = rank - s.rank();
        dims[offset..].copy_from_slice(s.dims());
        let shape = Shape::new(dims.clone());
        (dims, shape.strides())
    };
    let (l_dims, l_strides) = align(lhs);
    let (r_dims, r_strides) = align(rhs);

    let n = out.num_elements();
    let mut idx = vec![0usize; rank];
    for _ in 0..n {
        let mut li = 0;
        let mut ri = 0;
        for d in 0..rank {
            let i = idx[d];
            li += if l_dims[d] == 1 { 0 } else { i * l_strides[d] };
            ri += if r_dims[d] == 1 { 0 } else { i * r_strides[d] };
        }
        f(li, ri);
        // Advance the row-major multi-index.
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < out_dims[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

fn binary_f32(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    let (av, bv) = (a.as_f32_slice(), b.as_f32_slice());
    let (av, bv) = match (av, bv) {
        (Ok(x), Ok(y)) => (x, y),
        _ => {
            return Err(TensorError::DTypeMismatch {
                op,
                found: if a.dtype() != DType::F32 { a.dtype() } else { b.dtype() },
                expected: Some(DType::F32),
            })
        }
    };
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let mut out = Vec::with_capacity(out_shape.num_elements());
    for_each_broadcast_pair(&out_shape, a.shape(), b.shape(), |li, ri| {
        out.push(f(av[li], bv[ri]));
    });
    Tensor::from_parts(out_shape, Data::F32(Arc::new(out)))
}

fn binary_i64(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(i64, i64) -> i64,
) -> Result<Tensor> {
    let (av, bv) = (a.as_i64_slice(), b.as_i64_slice());
    let (av, bv) = match (av, bv) {
        (Ok(x), Ok(y)) => (x, y),
        _ => {
            return Err(TensorError::DTypeMismatch {
                op,
                found: if a.dtype() != DType::I64 { a.dtype() } else { b.dtype() },
                expected: Some(DType::I64),
            })
        }
    };
    let out_shape = broadcast_shapes(a.shape(), b.shape())?;
    let mut out = Vec::with_capacity(out_shape.num_elements());
    for_each_broadcast_pair(&out_shape, a.shape(), b.shape(), |li, ri| {
        out.push(f(av[li], bv[ri]));
    });
    Tensor::from_parts(out_shape, Data::I64(Arc::new(out)))
}

/// Dispatches a binary arithmetic op over both numeric dtypes.
fn binary_numeric(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    ff: impl Fn(f32, f32) -> f32,
    fi: impl Fn(i64, i64) -> i64,
) -> Result<Tensor> {
    match (a.dtype(), b.dtype()) {
        (DType::F32, DType::F32) => binary_f32(op, a, b, ff),
        (DType::I64, DType::I64) => binary_i64(op, a, b, fi),
        (da, db) => Err(TensorError::DTypeMismatch {
            op,
            found: if da != DType::F32 && da != DType::I64 { da } else { db },
            expected: None,
        }),
    }
}

fn unary_f32(op: &'static str, a: &Tensor, f: impl Fn(f32) -> f32) -> Result<Tensor> {
    let av = a.as_f32_slice().map_err(|_| TensorError::DTypeMismatch {
        op,
        found: a.dtype(),
        expected: Some(DType::F32),
    })?;
    let out: Vec<f32> = av.iter().map(|&x| f(x)).collect();
    Tensor::from_parts(a.shape().clone(), Data::F32(Arc::new(out)))
}

impl Tensor {
    /// Elementwise addition with broadcasting (`f32` or `i64`).
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        binary_numeric("add", self, other, |x, y| x + y, |x, y| x + y)
    }

    /// Elementwise subtraction with broadcasting (`f32` or `i64`).
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        binary_numeric("sub", self, other, |x, y| x - y, |x, y| x - y)
    }

    /// Elementwise multiplication with broadcasting (`f32` or `i64`).
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        binary_numeric("mul", self, other, |x, y| x * y, |x, y| x * y)
    }

    /// Elementwise division with broadcasting (`f32` only).
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        binary_f32("div", self, other, |x, y| x / y)
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &Tensor) -> Result<Tensor> {
        binary_numeric("maximum", self, other, f32::max, i64::max)
    }

    /// Elementwise minimum with broadcasting.
    pub fn minimum(&self, other: &Tensor) -> Result<Tensor> {
        binary_numeric("minimum", self, other, f32::min, i64::min)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Result<Tensor> {
        match self.dtype() {
            DType::F32 => unary_f32("neg", self, |x| -x),
            DType::I64 => {
                let v: Vec<i64> = self.as_i64_slice()?.iter().map(|&x| -x).collect();
                Tensor::from_parts(self.shape().clone(), Data::I64(Arc::new(v)))
            }
            d => Err(TensorError::DTypeMismatch { op: "neg", found: d, expected: None }),
        }
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Result<Tensor> {
        unary_f32("exp", self, f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn log(&self) -> Result<Tensor> {
        unary_f32("log", self, f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Result<Tensor> {
        unary_f32("sqrt", self, f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Result<Tensor> {
        unary_f32("square", self, |x| x * x)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Result<Tensor> {
        unary_f32("sigmoid", self, |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&self) -> Result<Tensor> {
        unary_f32("tanh", self, f32::tanh)
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&self) -> Result<Tensor> {
        unary_f32("relu", self, |x| x.max(0.0))
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Result<Tensor> {
        unary_f32("abs", self, f32::abs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec_f32(v, d).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![10.0, 20.0, 30.0], &[3]);
        assert_eq!(a.add(&b).unwrap().as_f32_slice().unwrap(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = t(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar_f32(10.0);
        assert_eq!(a.mul(&s).unwrap().as_f32_slice().unwrap(), &[10.0, 20.0]);
        assert_eq!(s.sub(&a).unwrap().as_f32_slice().unwrap(), &[9.0, 8.0]);
    }

    #[test]
    fn broadcast_rows_and_cols() {
        // [2,1] + [1,3] -> [2,3]
        let col = t(vec![1.0, 2.0], &[2, 1]);
        let row = t(vec![10.0, 20.0, 30.0], &[1, 3]);
        let out = col.add(&row).unwrap();
        assert_eq!(out.shape().dims(), &[2, 3]);
        assert_eq!(out.as_f32_slice().unwrap(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    fn broadcast_matrix_plus_row_vector() {
        // Bias addition: [2,3] + [3].
        let m = t(vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[2, 3]);
        let bias = t(vec![1.0, 2.0, 3.0], &[3]);
        let out = m.add(&bias).unwrap();
        assert_eq!(out.as_f32_slice().unwrap(), &[1.0, 2.0, 3.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn integer_arithmetic() {
        let a = Tensor::scalar_i64(5);
        let b = Tensor::scalar_i64(3);
        assert_eq!(a.add(&b).unwrap().scalar_as_i64().unwrap(), 8);
        assert_eq!(a.sub(&b).unwrap().scalar_as_i64().unwrap(), 2);
        assert_eq!(a.mul(&b).unwrap().scalar_as_i64().unwrap(), 15);
        assert_eq!(a.neg().unwrap().scalar_as_i64().unwrap(), -5);
    }

    #[test]
    fn mixed_dtypes_rejected() {
        let a = Tensor::scalar_f32(1.0);
        let b = Tensor::scalar_i64(1);
        assert!(a.add(&b).is_err());
        assert!(Tensor::scalar_bool(true).add(&Tensor::scalar_bool(false)).is_err());
    }

    #[test]
    fn incompatible_shapes_rejected() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn unary_ops() {
        let a = t(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(a.neg().unwrap().as_f32_slice().unwrap(), &[1.0, 0.0, -2.0]);
        assert_eq!(a.relu().unwrap().as_f32_slice().unwrap(), &[0.0, 0.0, 2.0]);
        assert_eq!(a.abs().unwrap().as_f32_slice().unwrap(), &[1.0, 0.0, 2.0]);
        assert_eq!(a.square().unwrap().as_f32_slice().unwrap(), &[1.0, 0.0, 4.0]);
        let s = a.sigmoid().unwrap();
        assert!((s.as_f32_slice().unwrap()[1] - 0.5).abs() < 1e-6);
        let th = a.tanh().unwrap();
        assert!((th.as_f32_slice().unwrap()[2] - 2.0f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn min_max() {
        let a = t(vec![1.0, 5.0], &[2]);
        let b = t(vec![3.0, 2.0], &[2]);
        assert_eq!(a.maximum(&b).unwrap().as_f32_slice().unwrap(), &[3.0, 5.0]);
        assert_eq!(a.minimum(&b).unwrap().as_f32_slice().unwrap(), &[1.0, 2.0]);
    }

    /// Seeded over column-times-row shapes `[d, 1]` and `[1, e]`: add and
    /// mul commute bit-for-bit, sub is anti-symmetric, and the broadcast
    /// shape is `[d, e]` whichever operand comes first.
    #[test]
    fn binary_ops_commute_under_broadcasting() {
        let mut rng = crate::TensorRng::new(5);
        for _ in 0..32 {
            let (d, e) = (1 + rng.sample_index(4), 1 + rng.sample_index(4));
            let a = rng.uniform(&[d, 1], -10.0, 10.0);
            let b = rng.uniform(&[1, e], -10.0, 10.0);
            let ab = a.add(&b).unwrap();
            assert_eq!(ab.shape().dims(), &[d, e]);
            assert!(ab.value_eq(&b.add(&a).unwrap()));
            assert!(a.mul(&b).unwrap().value_eq(&b.mul(&a).unwrap()));
            assert!(a.sub(&b).unwrap().value_eq(&b.sub(&a).unwrap().neg().unwrap()));
        }
    }

    #[test]
    fn division() {
        let a = t(vec![6.0, 9.0], &[2]);
        let b = Tensor::scalar_f32(3.0);
        assert_eq!(a.div(&b).unwrap().as_f32_slice().unwrap(), &[2.0, 3.0]);
    }
}
