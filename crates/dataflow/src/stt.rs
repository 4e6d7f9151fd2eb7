//! Space-Time Transformation matrices.

use std::fmt;

use serde::Serialize;
use tensorlib_linalg::{Frac, Mat};

use crate::DataflowError;

/// A validated 3×3 integer Space-Time Transformation matrix.
///
/// Rows 0 and 1 produce the two PE-array coordinates; row 2 produces the
/// cycle number: `[p1, p2, t]ᵀ = T · [x1, x2, x3]ᵀ` where `x` is the vector
/// of the three *selected* loop iterators.
///
/// Construction rejects singular matrices — the paper requires `T` to be full
/// rank so that each PE performs at most one operation per cycle.
///
/// # Examples
///
/// ```
/// use tensorlib_dataflow::Stt;
///
/// let t = Stt::from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]])?;
/// assert_eq!(t.apply(&[1, 2, 3]), [1, 2, 6]);           // the paper's example
/// assert_eq!(t.unapply(&[1, 2, 6]), Some([1, 2, 3]));
/// assert_eq!(t.det().abs(), 1);
/// # Ok::<(), tensorlib_dataflow::DataflowError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Stt {
    rows: [[i64; 3]; 3],
    det: i64,
}

impl Stt {
    /// Creates an STT matrix from integer rows.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::SingularStt`] if the matrix has determinant
    /// zero.
    pub fn from_rows(rows: [[i64; 3]; 3]) -> Result<Stt, DataflowError> {
        let det = det3(&rows);
        if det == 0 {
            return Err(DataflowError::SingularStt);
        }
        Ok(Stt { rows, det })
    }

    /// The identity transformation (`p1 = x1`, `p2 = x2`, `t = x3`).
    pub fn identity() -> Stt {
        Stt {
            rows: [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            det: 1,
        }
    }

    /// The classic output-stationary systolic transformation
    /// `p = (x1, x2)`, `t = x1 + x2 + x3`.
    pub fn output_stationary() -> Stt {
        Stt {
            rows: [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
            det: 1,
        }
    }

    /// The raw integer rows.
    pub fn rows(&self) -> &[[i64; 3]; 3] {
        &self.rows
    }

    /// The determinant (never zero).
    pub fn det(&self) -> i64 {
        self.det
    }

    /// `true` if `|det| == 1`, i.e. the mapping is a bijection of the integer
    /// lattice. Non-unimodular transformations leave (PE, cycle) slots unused.
    pub fn is_unimodular(&self) -> bool {
        self.det.abs() == 1
    }

    /// Maps a selected-loop point to `[p1, p2, t]`.
    pub fn apply(&self, x: &[i64; 3]) -> [i64; 3] {
        let mut out = [0i64; 3];
        for (r, row) in self.rows.iter().enumerate() {
            out[r] = row[0] * x[0] + row[1] * x[1] + row[2] * x[2];
        }
        out
    }

    /// The adjugate `det(T)·T⁻¹` as an integer matrix: column `j` is the
    /// cross product of the two rows other than `j`, so `adj·T = det·I`.
    ///
    /// This is the crate's one inverse formula: [`Stt::unapply`] and
    /// [`Stt::inverse_mat`] divide it by [`Stt::det`].
    fn adjugate(&self) -> [[i64; 3]; 3] {
        let [a, b, c] = &self.rows;
        let cols = [cross(b, c), cross(c, a), cross(a, b)];
        let mut adj = [[0i64; 3]; 3];
        for (j, col) in cols.iter().enumerate() {
            for (row, &v) in adj.iter_mut().zip(col) {
                row[j] = v;
            }
        }
        adj
    }

    /// Maps a space-time point back to the loop point, if one exists on the
    /// integer lattice.
    ///
    /// For unimodular matrices this always succeeds; otherwise some
    /// space-time slots have no preimage and yield `None`.
    pub fn unapply(&self, st: &[i64; 3]) -> Option<[i64; 3]> {
        // x = adj·st / det, exact only when every numerator divides.
        let mut x = [0i64; 3];
        for (xi, row) in x.iter_mut().zip(&self.adjugate()) {
            let n = row[0] * st[0] + row[1] * st[1] + row[2] * st[2];
            if n % self.det != 0 {
                return None;
            }
            *xi = n / self.det;
        }
        Some(x)
    }

    /// The matrix as an exact rational [`Mat`].
    pub fn to_mat(&self) -> Mat {
        Mat::from_fn(3, 3, |i, j| Frac::from(self.rows[i][j]))
    }

    /// The exact inverse `T⁻¹` as a rational matrix.
    pub fn inverse_mat(&self) -> Mat {
        let adj = self.adjugate();
        Mat::from_fn(3, 3, |i, j| {
            Frac::new(i128::from(adj[i][j]), i128::from(self.det))
        })
    }

    /// The inclusive range of each space-time coordinate when the selected
    /// loops have the given extents: returns `[(min, max); 3]` for
    /// `(p1, p2, t)`.
    ///
    /// Because the map is linear and the domain is a box, each coordinate's
    /// extrema are attained at box corners, computed per-term.
    pub fn space_time_bounds(&self, extents: &[u64; 3]) -> [(i64, i64); 3] {
        let mut out = [(0i64, 0i64); 3];
        for (r, row) in self.rows.iter().enumerate() {
            let mut lo = 0i64;
            let mut hi = 0i64;
            for (j, &c) in row.iter().enumerate() {
                let e = extents[j] as i64 - 1;
                if c >= 0 {
                    hi += c * e;
                } else {
                    lo += c * e;
                }
            }
            out[r] = (lo, hi);
        }
        out
    }
}

impl fmt::Display for Stt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:?}; {:?}; {:?}]",
            self.rows[0], self.rows[1], self.rows[2]
        )
    }
}

fn cross(a: &[i64; 3], b: &[i64; 3]) -> [i64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// `det = r₀·(r₁×r₂)`, the same cross products the adjugate is built from.
fn det3(m: &[[i64; 3]; 3]) -> i64 {
    let c = cross(&m[1], &m[2]);
    m[0][0] * c[0] + m[0][1] * c[1] + m[0][2] * c[2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_singular() {
        assert_eq!(
            Stt::from_rows([[1, 0, 0], [2, 0, 0], [0, 0, 1]]).unwrap_err(),
            DataflowError::SingularStt
        );
    }

    #[test]
    fn paper_running_example() {
        // Figure 1(b): i=1, j=2, k=3 executes at PE (1,2) at cycle 6.
        let t = Stt::output_stationary();
        assert_eq!(t.apply(&[1, 2, 3]), [1, 2, 6]);
    }

    #[test]
    fn apply_unapply_round_trip() {
        let t = Stt::from_rows([[0, 0, 1], [0, 1, 0], [1, 1, 1]]).unwrap();
        for x in [[0, 0, 0], [1, 2, 3], [5, 0, 7], [3, 3, 3]] {
            let st = t.apply(&x);
            assert_eq!(t.unapply(&st), Some(x));
        }
    }

    #[test]
    fn non_unimodular_has_gaps() {
        let t = Stt::from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]]).unwrap();
        assert_eq!(t.det(), 2);
        assert!(!t.is_unimodular());
        // (1, 0, 0) has no integer preimage: x1 = 1/2.
        assert_eq!(t.unapply(&[1, 0, 0]), None);
        assert_eq!(t.unapply(&[2, 0, 0]), Some([1, 0, 0]));
    }

    /// Every nonsingular matrix `enumerate_stt` yields at `max_coeff` 1
    /// and 2, enumerated once for all the tests that sweep them.
    fn enumerated() -> &'static [Vec<Stt>; 2] {
        static ALL: std::sync::OnceLock<[Vec<Stt>; 2]> = std::sync::OnceLock::new();
        ALL.get_or_init(|| {
            [1, 2].map(|max_coeff| {
                crate::dse::enumerate_stt(&crate::dse::DseConfig {
                    max_coeff,
                    require_unimodular: false,
                    ..crate::dse::DseConfig::default()
                })
            })
        })
    }

    #[test]
    fn adjugate_times_t_is_det_identity() {
        let t = Stt::from_rows([[2, 0, 0], [0, 1, 0], [1, 1, 1]]).unwrap();
        assert_eq!(t.adjugate(), [[1, 0, 0], [0, 2, 0], [-1, -2, 2]]);
        for t in enumerated().iter().flatten() {
            let adj = t.adjugate();
            for (i, adj_row) in adj.iter().enumerate() {
                for j in 0..3 {
                    let v: i64 = (0..3).map(|k| adj_row[k] * t.rows()[k][j]).sum();
                    assert_eq!(v, if i == j { t.det() } else { 0 }, "{t}");
                }
            }
        }
    }

    #[test]
    fn unapply_inverts_apply_for_every_enumerated_stt() {
        for t in enumerated().iter().flatten() {
            for x0 in [-1, 1] {
                for x1 in [0, 2] {
                    for x2 in [-1, 0] {
                        let x = [x0, x1, x2];
                        assert_eq!(t.unapply(&t.apply(&x)), Some(x), "{t} at {x:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_lattice_slots_have_no_preimage() {
        for t in enumerated().iter().flatten().filter(|t| !t.is_unimodular()) {
            // T·Z³ has index |det| > 1 in Z³, so it cannot hold all
            // three unit vectors: at least one slot has no preimage,
            // and every slot that has one maps back onto itself.
            let mut off_lattice = 0;
            for k in 0..3 {
                let mut st = [0i64; 3];
                st[k] = 1;
                match t.unapply(&st) {
                    Some(x) => assert_eq!(t.apply(&x), st, "{t}"),
                    None => off_lattice += 1,
                }
            }
            assert!(off_lattice > 0, "{t} maps every unit slot");
        }
    }

    #[test]
    fn inverse_mat_is_exact() {
        let t = Stt::output_stationary();
        let prod = &t.to_mat() * &t.inverse_mat();
        assert_eq!(prod, Mat::identity(3));
        let skewed = Stt::from_rows([[2, 0, 0], [0, 1, 0], [1, 1, 1]]).unwrap();
        assert_eq!(skewed.inverse_mat(), skewed.to_mat().inverse().unwrap());
    }

    #[test]
    fn bounds_cover_negative_coefficients() {
        let t = Stt::from_rows([[1, -1, 0], [0, 1, 0], [0, 0, 1]]).unwrap();
        let b = t.space_time_bounds(&[4, 4, 2]);
        assert_eq!(b[0], (-3, 3));
        assert_eq!(b[1], (0, 3));
        assert_eq!(b[2], (0, 1));
    }

    #[test]
    fn display_and_identity() {
        assert_eq!(Stt::identity().apply(&[4, 5, 6]), [4, 5, 6]);
        assert!(Stt::identity().to_string().contains("[1, 0, 0]"));
    }
}
