//! Matrix multiplication and transposition.

use crate::{DType, Data, Result, Tensor, TensorError};
use std::sync::Arc;

impl Tensor {
    /// Matrix product of two rank-2 `f32` tensors: `[m, k] x [k, n] -> [m, n]`.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_t(other, false, false)
    }

    /// Matrix product with optional operand transposition.
    ///
    /// `transpose_a` / `transpose_b` treat the corresponding operand as
    /// transposed without materializing the transpose, which is the form the
    /// `MatMul` gradient functions use.
    pub fn matmul_t(&self, other: &Tensor, transpose_a: bool, transpose_b: bool) -> Result<Tensor> {
        if self.dtype() != DType::F32 || other.dtype() != DType::F32 {
            return Err(TensorError::DTypeMismatch {
                op: "matmul",
                found: if self.dtype() != DType::F32 { self.dtype() } else { other.dtype() },
                expected: Some(DType::F32),
            });
        }
        if self.shape().rank() != 2 || other.shape().rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().clone(),
                rhs: Some(other.shape().clone()),
            });
        }
        let (a_rows, a_cols) = (self.shape().dim(0), self.shape().dim(1));
        let (b_rows, b_cols) = (other.shape().dim(0), other.shape().dim(1));
        let (m, k1) = if transpose_a { (a_cols, a_rows) } else { (a_rows, a_cols) };
        let (k2, n) = if transpose_b { (b_cols, b_rows) } else { (b_rows, b_cols) };
        if k1 != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().clone(),
                rhs: Some(other.shape().clone()),
            });
        }
        let a = self.as_f32_slice()?;
        let b = other.as_f32_slice()?;
        let mut out = vec![0.0f32; m * n];
        // Row-major triple loop with the k-loop innermost hoisted for cache
        // friendliness in the common non-transposed case.
        for i in 0..m {
            for kk in 0..k1 {
                let av = if transpose_a { a[kk * m + i] } else { a[i * k1 + kk] };
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                if transpose_b {
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o += av * b[j * k1 + kk];
                    }
                } else {
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
        Tensor::from_parts(crate::Shape::from([m, n]), Data::F32(Arc::new(out)))
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Result<Tensor> {
        if self.shape().rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "transpose",
                lhs: self.shape().clone(),
                rhs: None,
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        match self.data() {
            Data::F32(v) => {
                let mut out = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        out[j * m + i] = v[i * n + j];
                    }
                }
                Tensor::from_parts(crate::Shape::from([n, m]), Data::F32(Arc::new(out)))
            }
            Data::I64(v) => {
                let mut out = vec![0i64; m * n];
                for i in 0..m {
                    for j in 0..n {
                        out[j * m + i] = v[i * n + j];
                    }
                }
                Tensor::from_parts(crate::Shape::from([n, m]), Data::I64(Arc::new(out)))
            }
            Data::Bool(v) => {
                let mut out = vec![false; m * n];
                for i in 0..m {
                    for j in 0..n {
                        out[j * m + i] = v[i * n + j];
                    }
                }
                Tensor::from_parts(crate::Shape::from([n, m]), Data::Bool(Arc::new(out)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec_f32(v, d).unwrap()
    }

    #[test]
    fn basic_matmul() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_f32_slice().unwrap(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let c = a.matmul(&Tensor::eye(2)).unwrap();
        assert!(c.value_eq(&a));
    }

    #[test]
    fn transposed_operands_match_materialized_transpose() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![1.0, -1.0, 2.0, 0.5, 0.0, 3.0], &[2, 3]);
        // a^T (3x2) x b (2x3) = 3x3.
        let via_flag = a.matmul_t(&b, true, false).unwrap();
        let via_mat = a.transpose().unwrap().matmul(&b).unwrap();
        assert!(via_flag.allclose(&via_mat, 1e-6));
        // a (2x3) x b^T (3x2) = 2x2.
        let via_flag = a.matmul_t(&b, false, true).unwrap();
        let via_mat = a.matmul(&b.transpose().unwrap()).unwrap();
        assert!(via_flag.allclose(&via_mat, 1e-6));
    }

    #[test]
    fn shape_errors() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0], &[2]);
        assert!(a.matmul(&b).is_err());
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3, 1]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn dtype_errors() {
        let a = Tensor::from_vec_i64(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        assert!(a.matmul(&Tensor::eye(2)).is_err());
    }

    /// Seeded over shapes up to 4×4: `(a + b)·c == a·c + b·c` and
    /// `(a·c)^T == c^T·a^T`.
    #[test]
    fn matmul_distributes_and_transposes() {
        let mut rng = crate::TensorRng::new(9);
        for _ in 0..32 {
            let (m, k, n) =
                (1 + rng.sample_index(4), 1 + rng.sample_index(4), 1 + rng.sample_index(4));
            let a = rng.uniform(&[m, k], -5.0, 5.0);
            let b = rng.uniform(&[m, k], -5.0, 5.0);
            let c = rng.uniform(&[k, n], -5.0, 5.0);
            let lhs = a.add(&b).unwrap().matmul(&c).unwrap();
            let rhs = a.matmul(&c).unwrap().add(&b.matmul(&c).unwrap()).unwrap();
            assert!(lhs.allclose(&rhs, 1e-3), "{lhs} vs {rhs}");
            let ac_t = a.matmul(&c).unwrap().transpose().unwrap();
            let ct_at = c.transpose().unwrap().matmul(&a.transpose().unwrap()).unwrap();
            assert!(ac_t.allclose(&ct_at, 1e-3), "{ac_t} vs {ct_at}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = a.transpose().unwrap().transpose().unwrap();
        assert!(tt.value_eq(&a));
        let i = Tensor::from_vec_i64(vec![1, 2, 3, 4], &[2, 2]).unwrap();
        assert_eq!(i.transpose().unwrap().as_i64_slice().unwrap(), &[1, 3, 2, 4]);
        assert!(Tensor::scalar_f32(1.0).transpose().is_err());
    }
}
