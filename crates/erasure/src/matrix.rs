//! Dense matrices over GF(2⁸): just enough linear algebra for
//! Reed–Solomon encode/decode (multiply, invert via Gauss–Jordan).

use crate::gf256;

/// A row-major matrix over GF(2⁸).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    pub(crate) fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate matrix");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// The Vandermonde matrix `V[r][c] = r^c` for distinct evaluation
    /// points `0..rows` — any `cols` rows are linearly independent, the
    /// property Reed–Solomon relies on.
    pub(crate) fn vandermonde(rows: usize, cols: usize) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, gf256::pow(r as u8, c as u32));
            }
        }
        m
    }

    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "only the tests read the row count")
    )]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    pub(crate) fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * other`.
    pub(crate) fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zero(self.rows, other.cols);
        for r in 0..self.rows {
            for c in 0..other.cols {
                let mut acc = 0u8;
                for k in 0..self.cols {
                    acc = gf256::add(acc, gf256::mul(self.get(r, k), other.get(k, c)));
                }
                out.set(r, c, acc);
            }
        }
        out
    }

    /// Builds a sub-matrix from the given rows.
    pub(crate) fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            for c in 0..self.cols {
                out.set(i, c, self.get(r, c));
            }
        }
        out
    }

    /// Inverts a square matrix with Gauss–Jordan elimination.
    ///
    /// Returns `None` when singular.
    pub(crate) fn inverted(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a.get(r, col) != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Scale the pivot row to 1.
            let p = a.get(col, col);
            let p_inv = gf256::inv(p);
            for c in 0..n {
                a.set(col, c, gf256::mul(a.get(col, c), p_inv));
                inv.set(col, c, gf256::mul(inv.get(col, c), p_inv));
            }
            // Eliminate the column elsewhere.
            for r in 0..n {
                if r != col {
                    let factor = a.get(r, col);
                    if factor != 0 {
                        for c in 0..n {
                            let av = gf256::add(a.get(r, c), gf256::mul(factor, a.get(col, c)));
                            a.set(r, c, av);
                            let iv = gf256::add(inv.get(r, c), gf256::mul(factor, inv.get(col, c)));
                            inv.set(r, c, iv);
                        }
                    }
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
            let t = self.get(a, c);
            self.set(a, c, self.get(b, c));
            self.set(b, c, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_inverts_to_itself() {
        let id = Matrix::identity(5);
        assert_eq!(id.inverted().unwrap(), id);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let m = Matrix::vandermonde(4, 4);
        let inv = m.inverted().expect("vandermonde is invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(4));
        assert_eq!(inv.mul(&m), Matrix::identity(4));
    }

    #[test]
    fn singular_matrix_returns_none() {
        let mut m = Matrix::zero(2, 2);
        m.set(0, 0, 1);
        m.set(0, 1, 2);
        m.set(1, 0, 1);
        m.set(1, 1, 2); // duplicate row
        assert!(m.inverted().is_none());
    }

    #[test]
    fn any_square_submatrix_of_vandermonde_invertible() {
        let v = Matrix::vandermonde(8, 4);
        // All 4-row subsets of 8 rows: C(8,4) = 70 cases.
        let mut combo = [0usize, 1, 2, 3];
        loop {
            let sub = v.select_rows(&combo);
            assert!(
                sub.inverted().is_some(),
                "singular submatrix for rows {combo:?}"
            );
            // Next combination.
            let mut i = 3isize;
            while i >= 0 && combo[i as usize] == 4 + i as usize {
                i -= 1;
            }
            if i < 0 {
                break;
            }
            combo[i as usize] += 1;
            for j in (i as usize + 1)..4 {
                combo[j] = combo[j - 1] + 1;
            }
        }
    }

    #[test]
    fn multiply_shapes() {
        let a = Matrix::vandermonde(3, 2);
        let b = Matrix::vandermonde(2, 4);
        let c = a.mul(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.row(0).len(), 4);
    }
}
