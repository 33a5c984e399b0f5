//! Small dense linear algebra over GF(2) with rows packed into `u64`.
//!
//! Address mappings and block-group analysis reduce to rank computations,
//! linear solves, and matrix inversion over GF(2) in ≤ 64 dimensions, which a
//! bit-packed Gaussian elimination handles exactly and cheaply.

/// A dense GF(2) matrix; `rows[i]` packs row *i* with column *j* at bit *j*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf2Matrix {
    rows: Vec<u64>,
    ncols: usize,
}

impl Gf2Matrix {
    /// Create a matrix from packed rows over `ncols` columns (`ncols ≤ 64`).
    pub fn from_rows(rows: Vec<u64>, ncols: usize) -> Self {
        assert!(ncols <= 64, "Gf2Matrix supports at most 64 columns");
        Self { rows, ncols }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self::from_rows((0..n).map(|i| 1u64 << i).collect(), n)
    }

    pub fn nrows(&self) -> usize {
        self.rows.len()
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn row(&self, i: usize) -> u64 {
        self.rows[i]
    }

    /// Matrix–vector product `M·x` (vector packed into a `u64`).
    pub fn mul_vec(&self, x: u64) -> u64 {
        let mut y = 0u64;
        for (i, &r) in self.rows.iter().enumerate() {
            y |= (((r & x).count_ones() as u64) & 1) << i;
        }
        y
    }

    /// Rank via Gaussian elimination (does not modify `self`).
    pub fn rank(&self) -> usize {
        rank_of(self.rows.clone())
    }

    /// Invert a square matrix; `None` if singular.
    ///
    /// Bijectivity of an address mapping is exactly invertibility of its
    /// PA-bit → DRAM-coordinate-bit matrix.
    pub fn inverse(&self) -> Option<Gf2Matrix> {
        let n = self.nrows();
        if n != self.ncols {
            return None;
        }
        let mut a = self.rows.clone();
        let mut inv: Vec<u64> = (0..n).map(|i| 1u64 << i).collect();
        for col in 0..n {
            let pivot = (col..n).find(|&r| a[r] >> col & 1 == 1)?;
            a.swap(col, pivot);
            inv.swap(col, pivot);
            for r in 0..n {
                if r != col && a[r] >> col & 1 == 1 {
                    a[r] ^= a[col];
                    inv[r] ^= inv[col];
                }
            }
        }
        Some(Gf2Matrix::from_rows(inv, n))
    }
}

/// Rank of a set of packed GF(2) row vectors.
pub fn rank_of(mut rows: Vec<u64>) -> usize {
    let mut rank = 0;
    for col in 0..64 {
        let Some(pivot) = (rank..rows.len()).find(|&r| rows[r] >> col & 1 == 1) else {
            continue;
        };
        rows.swap(rank, pivot);
        let pr = rows[rank];
        for (r, row) in rows.iter_mut().enumerate() {
            if r != rank && *row >> col & 1 == 1 {
                *row ^= pr;
            }
        }
        rank += 1;
        if rank == rows.len() {
            break;
        }
    }
    rank
}

/// Rank of the span of `vecs` (alias of [`rank_of`] with slice input).
pub fn span_rank(vecs: &[u64]) -> usize {
    rank_of(vecs.to_vec())
}

/// Is `v` in the span of `basis`?
pub fn in_span(basis: &[u64], v: u64) -> bool {
    if v == 0 {
        return true;
    }
    let r0 = span_rank(basis);
    let mut with = basis.to_vec();
    with.push(v);
    rank_of(with) == r0
}

/// An incremental GF(2) solver for systems `A·x = b` where each equation is a
/// packed coefficient row plus a parity bit.
///
/// Used by the reference AGEN to find the minimal-value suffix assignment
/// that restores all ID parities after an increment (paper §III-D).
#[derive(Debug, Clone, Default)]
pub struct Gf2System {
    /// Echelonized equations: `(coefficients, rhs)`.
    eqs: Vec<(u64, bool)>,
    inconsistent: bool,
}

impl Gf2System {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add equation `parity(coeff & x) = rhs`; returns `false` if the system
    /// became inconsistent.
    pub fn add(&mut self, mut coeff: u64, mut rhs: bool) -> bool {
        for &(c, r) in &self.eqs {
            let lead = c & c.wrapping_neg();
            if coeff & lead != 0 {
                coeff ^= c;
                rhs ^= r;
            }
        }
        if coeff == 0 {
            if rhs {
                self.inconsistent = true;
            }
            return !self.inconsistent;
        }
        // Keep echelon form: reduce existing rows by the new pivot.
        let lead = coeff & coeff.wrapping_neg();
        for (c, r) in &mut self.eqs {
            if *c & lead != 0 {
                *c ^= coeff;
                *r ^= rhs;
            }
        }
        self.eqs.push((coeff, rhs));
        self.eqs.sort_unstable_by_key(|&(c, _)| c & c.wrapping_neg());
        true
    }

    pub fn is_consistent(&self) -> bool {
        !self.inconsistent
    }

    /// The minimal-value solution `x` (free variables = 0), if consistent.
    ///
    /// With the system in reduced echelon form, setting every free variable
    /// to zero and each pivot variable to its equation's RHS yields the
    /// numerically smallest satisfying assignment.
    pub fn min_solution(&self) -> Option<u64> {
        if self.inconsistent {
            return None;
        }
        let mut x = 0u64;
        for &(c, r) in &self.eqs {
            if r {
                x |= c & c.wrapping_neg();
            }
        }
        Some(x)
    }
}

/// An incrementally built GF(2) subspace with an echelonized basis, used to
/// answer membership queries and assign dense coordinates to its vectors.
#[derive(Debug, Clone, Default)]
pub struct VecSpace {
    /// Echelon basis, each with a unique lowest set bit, sorted by that bit.
    basis: Vec<u64>,
}

impl VecSpace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a space from a spanning set.
    pub fn from_span(vecs: &[u64]) -> Self {
        let mut s = Self::new();
        for &v in vecs {
            s.insert(v);
        }
        s
    }

    /// Add a vector; returns `true` if it enlarged the space.
    pub fn insert(&mut self, mut v: u64) -> bool {
        for &b in &self.basis {
            if v & (b & b.wrapping_neg()) != 0 {
                v ^= b;
            }
        }
        if v == 0 {
            return false;
        }
        let lead = v & v.wrapping_neg();
        for b in &mut self.basis {
            if *b & lead != 0 {
                *b ^= v;
            }
        }
        self.basis.push(v);
        self.basis.sort_unstable_by_key(|&b| b & b.wrapping_neg());
        true
    }

    pub fn dim(&self) -> usize {
        self.basis.len()
    }

    /// The reduced echelon basis. It is also the coordinate basis:
    /// `coords(basis()[i]) == Some(1 << i)`, so XORing the basis vectors
    /// selected by a coordinate word rebuilds the member it names.
    pub fn basis(&self) -> &[u64] {
        &self.basis
    }

    pub fn contains(&self, mut v: u64) -> bool {
        for &b in &self.basis {
            if v & (b & b.wrapping_neg()) != 0 {
                v ^= b;
            }
        }
        v == 0
    }

    /// Dense coordinates of `v` in this space's basis (`None` if `v` is not a
    /// member). Coordinates are stable for a fixed insertion history.
    pub fn coords(&self, mut v: u64) -> Option<u64> {
        let mut c = 0u64;
        for (i, &b) in self.basis.iter().enumerate() {
            if v & (b & b.wrapping_neg()) != 0 {
                v ^= b;
                c |= 1 << i;
            }
        }
        (v == 0).then_some(c)
    }

    /// Enumerate all `2^dim` member vectors (small spaces only).
    pub fn enumerate(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(1 << self.basis.len());
        for m in 0u64..(1 << self.basis.len()) {
            let mut v = 0;
            for (i, &b) in self.basis.iter().enumerate() {
                if m >> i & 1 == 1 {
                    v ^= b;
                }
            }
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_inverse_roundtrip() {
        let id = Gf2Matrix::identity(8);
        assert_eq!(id.inverse().unwrap(), id);
        assert_eq!(id.mul_vec(0b1010_1010), 0b1010_1010);
    }

    #[test]
    fn rank_simple() {
        assert_eq!(span_rank(&[0b001, 0b010, 0b011]), 2);
        assert_eq!(span_rank(&[0b001, 0b010, 0b100]), 3);
        assert_eq!(span_rank(&[0, 0, 0]), 0);
        assert_eq!(span_rank(&[]), 0);
    }

    #[test]
    fn in_span_checks() {
        let basis = [0b0011, 0b0101];
        assert!(in_span(&basis, 0b0110)); // sum of both
        assert!(in_span(&basis, 0));
        assert!(!in_span(&basis, 0b1000));
    }

    #[test]
    fn basis_is_the_coordinate_basis() {
        let s = VecSpace::from_span(&[0b1100, 0b0110, 0b1010, 0b0011, 0b1001]);
        assert_eq!(s.basis().len(), s.dim());
        for (i, &b) in s.basis().iter().enumerate() {
            assert_eq!(s.coords(b), Some(1 << i));
        }
    }

    #[test]
    fn inverse_of_xor_chain() {
        // y0 = x0, y1 = x0^x1, y2 = x1^x2 — a carry-chain-like map.
        let m = Gf2Matrix::from_rows(vec![0b001, 0b011, 0b110], 3);
        let inv = m.inverse().expect("invertible");
        for x in 0..8u64 {
            assert_eq!(inv.mul_vec(m.mul_vec(x)), x);
        }
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let m = Gf2Matrix::from_rows(vec![0b01, 0b01], 2);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn system_minimal_solution() {
        let mut s = Gf2System::new();
        // x0 ^ x2 = 1; x1 = 0.
        assert!(s.add(0b101, true));
        assert!(s.add(0b010, false));
        let x = s.min_solution().unwrap();
        assert_eq!(x, 0b001); // minimal: set x0, not x2
        assert!(s.is_consistent());
    }

    #[test]
    fn system_detects_inconsistency() {
        let mut s = Gf2System::new();
        assert!(s.add(0b11, true));
        assert!(s.add(0b11, true)); // duplicate is fine
        assert!(!s.add(0b11, false)); // contradiction
        assert!(s.min_solution().is_none());
    }

    #[test]
    fn system_minimal_prefers_low_bits() {
        let mut s = Gf2System::new();
        // x1 ^ x3 = 1 → minimal solution sets x1 (value 2), not x3 (value 8).
        assert!(s.add(0b1010, true));
        assert_eq!(s.min_solution().unwrap(), 0b0010);
    }

    #[test]
    #[should_panic(expected = "at most 64 columns")]
    fn oversized_matrices_are_rejected() {
        Gf2Matrix::from_rows(vec![0; 65], 65);
    }
}
