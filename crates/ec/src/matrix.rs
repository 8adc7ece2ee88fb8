//! Small dense matrices over GF(2^8): the Cauchy construction and
//! Gauss-Jordan inversion. Matrix sizes here are `(k + m) × k` with
//! `k ≤ 255`, so clarity beats asymptotics.

use crate::gf;

/// Row-major matrix over GF(256).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// All-zero `rows × cols` matrix.
    ///
    /// # Panics
    /// Panics when either dimension is zero.
    #[must_use]
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n × n` identity.
    #[must_use]
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// `m × k` Cauchy matrix `C[r][c] = 1 / (x_r + y_c)` with
    /// `x_r = k + r` and `y_c = c`: every square submatrix is
    /// invertible, which is exactly the MDS property.
    ///
    /// # Panics
    /// Panics when `parity_rows + k > 256` (the `x` and `y` index sets
    /// must be disjoint field elements) or either dimension is zero.
    #[must_use]
    pub fn cauchy(parity_rows: usize, k: usize) -> Matrix {
        assert!(parity_rows + k <= 256, "cauchy index sets overflow GF(256)");
        let mut m = Matrix::zero(parity_rows, k);
        for r in 0..parity_rows {
            for c in 0..k {
                let x = (k + r) as u8;
                let y = c as u8;
                m.set(r, c, gf::inv(gf::add(x, y)));
            }
        }
        m
    }

    /// Element at `(r, c)`.
    #[must_use]
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// New matrix made of the given rows of `self`, in order.
    ///
    /// # Panics
    /// Panics when `rows` is empty or any index is out of bounds.
    #[must_use]
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "row index out of bounds");
            for c in 0..self.cols {
                out.set(i, c, self.get(r, c));
            }
        }
        out
    }

    /// Gauss-Jordan inverse; `None` when singular.
    ///
    /// # Panics
    /// Panics when `self` is not square.
    #[must_use]
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot at or below the diagonal.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let scale = gf::inv(a.get(col, col));
            a.scale_row(col, scale);
            inv.scale_row(col, scale);
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a.get(r, col);
                if factor != 0 {
                    a.add_scaled_row(col, r, factor);
                    inv.add_scaled_row(col, r, factor);
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let tmp = self.get(a, c);
            self.set(a, c, self.get(b, c));
            self.set(b, c, tmp);
        }
    }

    fn scale_row(&mut self, r: usize, factor: u8) {
        for c in 0..self.cols {
            let v = gf::mul(self.get(r, c), factor);
            self.set(r, c, v);
        }
    }

    /// `row[dst] ^= factor · row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, factor: u8) {
        for c in 0..self.cols {
            let v = self.get(dst, c) ^ gf::mul(factor, self.get(src, c));
            self.set(dst, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Matrix product `a · b`.
    fn product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zero(a.rows, b.cols);
        for r in 0..a.rows {
            for c in 0..b.cols {
                let v = (0..a.cols).fold(0, |acc, i| acc ^ gf::mul(a.get(r, i), b.get(i, c)));
                out.set(r, c, v);
            }
        }
        out
    }

    #[test]
    fn identity_inverse_is_identity() {
        let id = Matrix::identity(5);
        assert_eq!(id.inverse().unwrap(), id);
    }

    #[test]
    fn inverse_round_trips() {
        // A Cauchy square is always invertible.
        let c = Matrix::cauchy(4, 4);
        let inv = c.inverse().expect("cauchy square is invertible");
        assert_eq!(product(&c, &inv), Matrix::identity(4));
        assert_eq!(product(&inv, &c), Matrix::identity(4));
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let mut m = Matrix::zero(2, 2);
        m.set(0, 0, 3);
        m.set(0, 1, 5);
        m.set(1, 0, 3);
        m.set(1, 1, 5);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn every_square_cauchy_submatrix_is_invertible() {
        let k = 6;
        let m = 3;
        let c = Matrix::cauchy(m, k);
        // Any single parity row combined with k-1 identity rows must
        // stay invertible — spot-check by dropping each data column in
        // turn against each parity row.
        let mut sys = Matrix::zero(k + m, k);
        for i in 0..k {
            sys.set(i, i, 1);
        }
        for r in 0..m {
            for col in 0..k {
                sys.set(k + r, col, c.get(r, col));
            }
        }
        for lost in 0..k {
            for parity in 0..m {
                let rows: Vec<usize> = (0..k).filter(|&i| i != lost).chain([k + parity]).collect();
                assert!(
                    sys.select_rows(&rows).inverse().is_some(),
                    "lost={lost} parity={parity}"
                );
            }
        }
    }
}
