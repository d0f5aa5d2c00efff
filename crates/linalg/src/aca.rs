//! Adaptive Cross Approximation (ACA).
//!
//! The production compressor of TLR solvers (HiCMA uses the same family):
//! builds a low-rank approximation `A ≈ U V^T` one cross (rank-1 update) at
//! a time. Two pivoting strategies live here, one per kind of input.
//!
//! * [`aca_partial`] sees the block only through an entry oracle that
//!   returns one row or one column at a time. This is how the TLR matrix is
//!   generated: a covariance tile is never formed densely, and a tile of
//!   rank `k` costs `O(k (m + n))` entries and `O(k² (m + n))` flops. The
//!   stopping rule of partial pivoting is a heuristic (a tile whose leading
//!   rows are nearly zero can fool it), so it takes two consecutive small
//!   crosses and then checks the residual at exact entries against the
//!   budget; a failing entry's row holds the next cross.
//! * [`aca`] uses *full pivoting* on an explicit residual, for a block that
//!   already exists densely (the dense × dense product of the TLR GEMM):
//!   pick the largest remaining entry, subtract its cross, and stop when
//!   the residual's Frobenius norm is at or below the tolerance. This costs
//!   `O(m n k)` and gives a *guaranteed* `||A - U V^T||_F <= tol`.
//!
//! The SVD compressor ([`crate::svd::truncated_svd`]) remains the
//! minimal-rank oracle in tests.
//!
//! Each full-pivot cross costs **one pass** over the residual: the loop
//! that subtracts it also accumulates the residual's squared norm and
//! finds the next full pivot, and one scan of the input block seeds both.
//! The pivot rule is "the first largest `|x|` in column-major order, the
//! first nonzero while the pivot is still 0", applied to the same values in
//! the same order as a separate search pass would, so the factors are
//! bit-for-bit those of the two-pass loop (the tests keep it as the
//! oracle).

use crate::matrix::Matrix;
use xgs_kernels::{dispatch, dot_lanes};

/// Running full-pivot search over a column-major sweep.
struct Pivot {
    i: usize,
    j: usize,
    val: f64,
    /// `|val|`, kept beside it: recomputing it on every offer made `aca`
    /// twice as slow on `field`-shaped covariance tiles.
    abs: f64,
}

impl Pivot {
    const NONE: Pivot = Pivot {
        i: 0,
        j: 0,
        val: 0.0,
        abs: 0.0,
    };

    /// Offer entry `(i, j)` holding `x`: it wins when strictly larger in
    /// magnitude, or when it is the first nonzero seen.
    #[inline(always)]
    fn offer(&mut self, i: usize, j: usize, x: f64) {
        if x.abs() > self.abs || (self.val == 0.0 && x != 0.0) {
            *self = Pivot {
                i,
                j,
                val: x,
                abs: x.abs(),
            };
        }
    }
}

/// Full-pivot ACA to absolute Frobenius tolerance `tol`.
///
/// Returns `(U, V)` with `||A - U V^T||_F <= tol`, rank at most `max_rank`
/// (at `max_rank` the guarantee is only best-effort; callers cap with
/// `min(m, n)` for an exact fallback).
pub fn aca(a: &Matrix, tol: f64, max_rank: usize) -> (Matrix, Matrix) {
    let (m, n) = a.shape();
    let kmax = max_rank.min(m.min(n));
    let mut residual = a.clone();
    // The crosses, appended column by column: `U` is `m x k`, `V` `n x k`.
    let mut us: Vec<f64> = Vec::new();
    let mut vs: Vec<f64> = Vec::new();
    let mut k = 0;

    // Residual norm^2 and the first pivot, in one scan of the block.
    let mut res_sq = 0.0f64;
    let mut pivot = Pivot::NONE;
    for j in 0..n {
        for (i, &x) in residual.col(j).iter().enumerate() {
            res_sq += x * x;
            pivot.offer(i, j, x);
        }
    }

    while k < kmax {
        if res_sq.max(0.0).sqrt() <= tol {
            break;
        }
        if pivot.val == 0.0 {
            break; // residual exactly zero
        }
        // Cross: u = R[:, pj] / pivot, v = R[pi, :].
        let inv = 1.0 / pivot.val;
        let u0 = us.len();
        us.extend(residual.col(pivot.j).iter().map(|&x| x * inv));
        let v0 = vs.len();
        vs.extend((0..n).map(|j| residual[(pivot.i, j)]));
        let (u, v) = (&us[u0..], &vs[v0..]);
        // R -= u v^T, recomputing the norm and finding the next pivot on
        // the fly.
        res_sq = 0.0;
        pivot = Pivot::NONE;
        for (j, &vj) in v.iter().enumerate() {
            let col = residual.col_mut(j);
            for (i, (x, &ui)) in col.iter_mut().zip(u).enumerate() {
                *x -= ui * vj;
                res_sq += *x * *x;
                pivot.offer(i, j, *x);
            }
        }
        k += 1;
    }

    (Matrix::from_vec(m, k, us), Matrix::from_vec(n, k, vs))
}

/// A block known only through its entries: what [`aca_partial`] reads.
pub trait BlockEntries {
    /// `out[j] = A[i, j]` for every column `j`.
    fn row(&mut self, i: usize, out: &mut [f64]);
    /// `out[i] = A[i, j]` for every row `i`.
    fn col(&mut self, j: usize, out: &mut [f64]);
    /// `out[t] = A[at[t]]`: scattered entries, `(row, col)`.
    /// [`aca_partial`] asks for them column by column.
    fn entries(&mut self, at: &[(usize, usize)], out: &mut [f64]);
    /// Positions [`aca_partial`]'s check reads besides its lattice (see
    /// its **Probes**), asked for once, at the first check: a block past
    /// its cap before that never pays for them. None by default.
    fn probes(&self) -> Vec<(usize, usize)> {
        Vec::new()
    }
}

/// A dense block as [`BlockEntries`], the oracle of the tests.
#[cfg(test)]
impl BlockEntries for Matrix {
    fn row(&mut self, i: usize, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = self[(i, j)];
        }
    }

    fn col(&mut self, j: usize, out: &mut [f64]) {
        out.copy_from_slice(Matrix::col(self, j));
    }

    fn entries(&mut self, at: &[(usize, usize)], out: &mut [f64]) {
        for (o, &ij) in out.iter_mut().zip(at) {
            *o = self[ij];
        }
    }
}

/// Partial-pivot ACA of an `m x n` block known only through its entries.
///
/// A cross reads one row and one column of `a`; the residual of a read row
/// or column is its exact value minus the crosses so far, so nothing of
/// size `m x n` is ever formed. Returns the crosses as `(U, V)`.
///
/// * **Budget.** A cross is *small* when `||u|| ||v|| <= rel_tol ||S||_F`,
///   where `S = U V^T` so far, its norm estimated as the root sum of the
///   crosses' squared sizes.
/// * **Check.** After two consecutive small crosses, the residual is read
///   at one untouched entry in sixteen, on a lattice that samples every
///   row and every column. Their mean square, times the number of
///   untouched entries, estimates `||A - S||_F²`; it must stay within
///   `(rel_tol ||S||_F)²`. If it does not, the row of the largest sampled
///   entry holds the next pivot and the loop goes on. Entries rather than
///   whole rows and columns, because what a converged walk of crosses
///   leaves behind is a lump a few rows *and* a few columns wide, away
///   from its pivots (with locality-ordered sites, neighbouring rows and
///   columns): a few whole rows are a poor probe for it, a lattice over
///   the block a good one.
/// * **Probes.** [`BlockEntries::probes`] are positions read once, at the
///   first check. At every check their residual
///   is summed, together with the residual where each cross's `u` and `v`
///   are largest (read then), and a sum past the budget fails the check:
///   those entries are part of the residual, so this test never fails a
///   block that meets its budget. Callers put the probes where the block
///   is likely largest and most isolated (for a covariance tile, each
///   site's nearest sites across it), which is where a sample of a
///   fast-decaying kernel misses; the crosses' supports are where their
///   extrapolation errs most.
/// * **Zero rows.** A row whose residual is zero off the crosses' columns
///   counts as a small cross and adds none.
/// * **Cap.** Returns `None` when `max_rank` crosses larger than
///   `rank_tol ||S||_F` are taken and the stopping test is still unmet
///   (with `max_rank < min(m, n)`): the block is past the rank the caller
///   can use. Smaller crosses do not count, because they are the ones a
///   rounding to `rank_tol` drops. Every row or every column taken is an
///   exact factorization.
///
/// Every choice depends only on the entries read, so the result is a
/// deterministic function of the block.
pub fn aca_partial(
    m: usize,
    n: usize,
    a: &mut impl BlockEntries,
    rel_tol: f64,
    (rank_tol, max_rank): (f64, usize),
) -> Option<(Matrix, Matrix)> {
    // The loops below are axpys, dots and scans over rows and columns: on
    // the AVX2 side of the seam they run four lanes wide.
    dispatch(
        #[inline(always)]
        |_| partial(m, n, a, rel_tol, (rank_tol, max_rank)),
    )
}

/// The body of [`aca_partial`], on whichever side of the seam runs it.
#[inline(always)]
fn partial(
    m: usize,
    n: usize,
    a: &mut impl BlockEntries,
    rel_tol: f64,
    (rank_tol, max_rank): (f64, usize),
) -> Option<(Matrix, Matrix)> {
    let mut s = Crosses::new(m, n, rel_tol, rank_tol);
    let (mut r, mut c) = (vec![0.0; n], vec![0.0; m]);
    let (mut next, mut probes) = (None, None::<Probes>);
    let (mut small, mut rounds, mut cursor) = (0usize, 0usize, 0usize);
    loop {
        if s.rows_left == 0 || s.cols_left == 0 {
            break; // exact: every row or column is a cross or zero
        }
        if small >= 2 {
            rounds += 1;
            let budget_sq = rel_tol * rel_tol * s.norm_sq;
            // The probes' residual is part of the whole, and so is that
            // where the crosses extrapolate most: a sum past the budget is
            // a certain failure. The lattice's is an estimate of the whole.
            let probes = probes.get_or_insert_with(|| {
                let at = a.probes();
                Probes::read(a, &at)
            });
            let support = Probes::read(a, &s.supports(probes));
            let (probe_sq, probe_worst) = probes.residual(&s);
            let (support_sq, support_worst) = support.residual(&s);
            let (est_sq, lattice_worst) = s.sample(a, rounds);
            if est_sq <= budget_sq && probe_sq + support_sq <= budget_sq {
                break;
            }
            small = 0;
            next = [probe_worst, support_worst, Some(lattice_worst)]
                .into_iter()
                .flatten()
                .max_by(|x, y| x.0.total_cmp(&y.0))
                .map(|(_, i)| i);
        }
        if s.large == max_rank {
            return None;
        }
        // The next pivot row: a failed check's largest residual entry's,
        // else the largest entry of the last `u` off the crosses, else the
        // next untouched row.
        let i = match next
            .take()
            .filter(|&i| !s.row_used[i])
            .or_else(|| s.last_u().and_then(|u| s.argmax_free(u, true)))
        {
            Some(i) => i,
            None => {
                while s.row_used[cursor] {
                    cursor = (cursor + 1) % m;
                }
                cursor
            }
        };
        a.row(i, &mut r);
        s.residual_row(i, &mut r);
        let Some(j) = s.argmax_free(&r, false) else {
            s.take_row(i);
            small += 1;
            continue;
        };
        a.col(j, &mut c);
        s.residual_col(j, &mut c);
        // A pivot far below its column's largest entry would make a cross
        // of huge `u` and tiny `v` (overflowing once the kernel decays
        // fast enough for pivots to be subnormal): then the pivot row is
        // that entry's, so `|u| <= SWITCH`. Switching on every larger
        // entry would read a second row for most crosses.
        let i = match s.argmax_free(&c, true) {
            Some(p) if c[p].abs() > SWITCH * r[j].abs() => {
                a.row(p, &mut r);
                s.residual_row(p, &mut r);
                p
            }
            _ => i,
        };
        c[i] = r[j];
        small = s.push_counting(i, j, &mut c, &r, small);
    }
    let k = s.count;
    Some((Matrix::from_vec(m, k, s.us), Matrix::from_vec(n, k, s.vs)))
}

/// The crosses of [`aca_partial`] and what they have touched.
struct Crosses {
    m: usize,
    n: usize,
    /// `U`, `m x count`, and `V`, `n x count`, column-major.
    us: Vec<f64>,
    vs: Vec<f64>,
    count: usize,
    /// A cross is small under `rel_tol ||S||_F` and counts toward the cap
    /// over `rank_tol ||S||_F`.
    rel_tol: f64,
    rank_tol: f64,
    /// Crosses that counted toward the cap.
    large: usize,
    /// `||U V^T||_F²`, estimated (see `push_counting`).
    norm_sq: f64,
    row_used: Vec<bool>,
    col_used: Vec<bool>,
    rows_left: usize,
    cols_left: usize,
}

impl Crosses {
    fn new(m: usize, n: usize, rel_tol: f64, rank_tol: f64) -> Crosses {
        Crosses {
            m,
            n,
            us: Vec::new(),
            vs: Vec::new(),
            count: 0,
            rel_tol,
            rank_tol,
            large: 0,
            norm_sq: 0.0,
            row_used: vec![false; m],
            col_used: vec![false; n],
            rows_left: m,
            cols_left: n,
        }
    }

    #[inline(always)]
    fn last_u(&self) -> Option<&[f64]> {
        (self.count > 0).then(|| &self.us[(self.count - 1) * self.m..])
    }

    /// `r ← r - Σ_l u_l[i] v_l`: row `i` of the residual from the exact
    /// row.
    #[inline(always)]
    fn residual_row(&self, i: usize, r: &mut [f64]) {
        for (u, v) in self
            .us
            .chunks_exact(self.m)
            .zip(self.vs.chunks_exact(self.n))
        {
            let ui = u[i];
            if ui != 0.0 {
                for (x, &vj) in r.iter_mut().zip(v) {
                    *x -= ui * vj;
                }
            }
        }
    }

    /// `c ← c - Σ_l v_l[j] u_l`: column `j` of the residual from the exact
    /// column.
    #[inline(always)]
    fn residual_col(&self, j: usize, c: &mut [f64]) {
        for (u, v) in self
            .us
            .chunks_exact(self.m)
            .zip(self.vs.chunks_exact(self.n))
        {
            let vj = v[j];
            if vj != 0.0 {
                for (x, &ui) in c.iter_mut().zip(u) {
                    *x -= vj * ui;
                }
            }
        }
    }

    /// The first largest `|x|` among the rows (`rows`) or columns no cross
    /// has taken, if it is a normal number: a subnormal pivot leaves its
    /// cross to underflow, and the QRs of the rounding after it to divide
    /// by zero.
    #[inline(always)]
    fn argmax_free(&self, x: &[f64], rows: bool) -> Option<usize> {
        let used = if rows { &self.row_used } else { &self.col_used };
        let mut best: Option<(usize, f64)> = None;
        for (i, (&v, &u)) in x.iter().zip(used).enumerate() {
            if !u && v.is_normal() && best.is_none_or(|(_, b)| v.abs() > b) {
                best = Some((i, v.abs()));
            }
        }
        best.map(|(i, _)| i)
    }

    #[inline(always)]
    fn take_row(&mut self, i: usize) {
        self.row_used[i] = true;
        self.rows_left -= 1;
    }

    /// Append the cross of residual column `c` and row `r` through pivot
    /// `(i, j)`, scaling `c` in place. Callers set `c[i] = r[j]` (nonzero)
    /// first, so the two reads of the pivot agree even for an oracle whose
    /// rows and columns round differently. Returns the updated run of
    /// small crosses.
    #[inline(always)]
    fn push_counting(
        &mut self,
        i: usize,
        j: usize,
        c: &mut [f64],
        r: &[f64],
        small: usize,
    ) -> usize {
        // Divided, not multiplied by the reciprocal: a subnormal pivot's
        // reciprocal overflows.
        let pivot = r[j];
        for x in c.iter_mut() {
            *x /= pivot;
        }
        // ||S||² is tracked as the crosses' squared sizes summed, leaving
        // out the cross terms 2 Σ_l (u_l·u)(v_l·v): a cross is the
        // residual's interpolant on rows and columns no earlier cross took,
        // so those terms are small, and the estimate only places the
        // thresholds (the rounding after ACA takes the exact norm from its
        // singular values). The terms cost two dots per earlier cross,
        // half of a cross's arithmetic.
        let size = dot(c, c) * dot(r, r);
        self.norm_sq += size;
        self.us.extend_from_slice(c);
        self.vs.extend_from_slice(r);
        self.count += 1;
        self.take_row(i);
        self.col_used[j] = true;
        self.cols_left -= 1;
        if size > self.rank_tol * self.rank_tol * self.norm_sq {
            self.large += 1;
        }
        if size <= self.rel_tol * self.rel_tol * self.norm_sq {
            small + 1
        } else {
            0
        }
    }

    /// Where each cross's `u` and `v` are largest off the crosses: its two
    /// largest untouched rows of `|u_l|` times its two largest untouched
    /// columns of `|v_l|`, leaving out positions `read` already holds. A
    /// cross's extrapolation is largest there, so an error the crosses
    /// made, rather than one they missed, shows there first.
    #[inline(always)]
    fn supports(&self, read: &Probes) -> Vec<(usize, usize)> {
        let top2 = |x: &[f64], used: &[bool]| {
            let mut best = [(0.0f64, usize::MAX); 2];
            for (i, (&v, &u)) in x.iter().zip(used).enumerate() {
                if !u && v.abs() > best[1].0 {
                    best[1] = (v.abs(), i);
                    if best[1].0 > best[0].0 {
                        best.swap(0, 1);
                    }
                }
            }
            best.map(|(_, i)| i)
        };
        let mut out = Vec::new();
        for (u, v) in self
            .us
            .chunks_exact(self.m)
            .zip(self.vs.chunks_exact(self.n))
        {
            for i in top2(u, &self.row_used) {
                for j in top2(v, &self.col_used) {
                    if i != usize::MAX && j != usize::MAX && !read.holds((i, j)) {
                        out.push((i, j));
                    }
                }
            }
        }
        out
    }

    /// Read the residual at the untouched entries of a lattice: `(i, j)`
    /// with `(i + STRIDE j + offset) mod LATTICE == 0`, the offset moving
    /// with `round`. Returns the estimate of `||A - S||_F²` (their mean
    /// square times the untouched entries) and the largest, with its row.
    #[inline(always)]
    fn sample(&self, a: &mut impl BlockEntries, round: usize) -> (f64, (f64, usize)) {
        let offset = round % LATTICE;
        let mut at = Vec::new();
        for j in (0..self.n).filter(|&j| !self.col_used[j]) {
            let first = (LATTICE - (STRIDE * j + offset) % LATTICE) % LATTICE;
            let rows = (first..self.m).step_by(LATTICE);
            at.extend(rows.filter(|&i| !self.row_used[i]).map(|i| (i, j)));
        }
        if at.is_empty() {
            return (0.0, (0.0, 0));
        }
        let mut values = vec![0.0; at.len()];
        a.entries(&at, &mut values);
        let (mut sum_sq, mut worst) = (0.0f64, (0.0f64, 0usize));
        for (&(i, j), &x) in at.iter().zip(&values) {
            let res = self.residual_at(i, j, x);
            sum_sq += res * res;
            if res.abs() > worst.0 {
                worst = (res.abs(), i);
            }
        }
        let free = (self.rows_left * self.cols_left) as f64;
        (sum_sq * free / at.len() as f64, worst)
    }

    /// `x - Σ_l u_l[i] v_l[j]`: the residual at `(i, j)` from its exact
    /// value `x`.
    #[inline(always)]
    fn residual_at(&self, i: usize, j: usize, x: f64) -> f64 {
        let mut res = x;
        for (u, v) in self
            .us
            .chunks_exact(self.m)
            .zip(self.vs.chunks_exact(self.n))
        {
            res -= u[i] * v[j];
        }
        res
    }
}

/// Entries read once, at positions the caller names.
struct Probes {
    at: Vec<(usize, usize)>,
    values: Vec<f64>,
}

impl Probes {
    /// Read the entries at `positions`.
    fn read(a: &mut impl BlockEntries, positions: &[(usize, usize)]) -> Probes {
        let mut at = positions.to_vec();
        at.sort_unstable_by_key(|&(i, j)| (j, i));
        at.dedup();
        let mut values = vec![0.0; at.len()];
        a.entries(&at, &mut values);
        Probes { at, values }
    }

    fn holds(&self, (i, j): (usize, usize)) -> bool {
        self.at
            .binary_search_by_key(&(j, i), |&(i, j)| (j, i))
            .is_ok()
    }

    /// The probes' squared residual at untouched entries, and the largest
    /// with its row.
    #[inline(always)]
    fn residual(&self, s: &Crosses) -> (f64, Option<(f64, usize)>) {
        let (mut sum_sq, mut worst) = (0.0f64, None::<(f64, usize)>);
        for (&(i, j), &x) in self.at.iter().zip(&self.values) {
            if s.row_used[i] || s.col_used[j] {
                continue;
            }
            let res = s.residual_at(i, j, x);
            sum_sq += res * res;
            if res != 0.0 && worst.is_none_or(|(w, _)| res.abs() > w) {
                worst = Some((res.abs(), i));
            }
        }
        (sum_sq, worst)
    }
}

/// How far a column's largest entry may exceed the pivot before the pivot
/// moves to it.
const SWITCH: f64 = 16.0;

/// The residual check's lattice: entry `(i, j)` is read when
/// `(i + STRIDE j + offset) mod LATTICE == 0`, one entry in sixteen, the
/// offset moving from check to check. An odd stride makes every row and
/// every column hold one entry in sixteen. The lattice is for lumps of
/// residual many entries wide; the probes cover the narrow ones.
const LATTICE: usize = 16;
const STRIDE: usize = 3;

#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_lanes(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rnd(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(0x5851F42D4C957F2D)
                .wrapping_add(0x14057B7EF767814F);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// A smooth kernel matrix (what covariance tiles look like off-diagonal):
    /// K[i,j] = 1 / (1 + |x_i - y_j|), x in [0,1], y in [3,4] — well separated
    /// clusters give rapidly decaying singular values.
    fn smooth_kernel(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            let x = i as f64 / m as f64;
            let y = 3.0 + j as f64 / n as f64;
            1.0 / (1.0 + (x - y).abs())
        })
    }

    #[test]
    fn exact_recovery_of_low_rank() {
        let u = rnd(30, 4, 1);
        let v = rnd(25, 4, 2);
        let a = u.matmul_t(&v);
        let (au, av) = aca(&a, 1e-12 * a.norm_fro(), 30);
        assert!(au.cols() <= 6, "rank blew up: {}", au.cols());
        let err = a.add_scaled(-1.0, &au.matmul_t(&av)).norm_fro();
        assert!(err < 1e-10 * a.norm_fro(), "err {err}");
    }

    #[test]
    fn error_bound_is_guaranteed() {
        // Full pivoting with explicit residual: the tolerance is a hard
        // bound, not a heuristic.
        for seed in 0..10u64 {
            let a = rnd(24, 18, seed);
            let tol = 0.05 * a.norm_fro();
            let (u, v) = aca(&a, tol, 24);
            let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
            assert!(err <= tol * (1.0 + 1e-12), "seed {seed}: {err} > {tol}");
        }
    }

    #[test]
    fn smooth_kernel_compresses_hard() {
        let a = smooth_kernel(64, 64);
        let tol = 1e-8 * a.norm_fro();
        let (u, v) = aca(&a, tol, 64);
        assert!(u.cols() < 20, "rank {}", u.cols());
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol, "err {err} vs tol {tol}");
    }

    #[test]
    fn handles_zero_leading_rows() {
        // Partial pivoting's classic failure: leading rows ~ zero while the
        // mass sits elsewhere.
        let mut a = Matrix::zeros(16, 16);
        for j in 0..16 {
            for i in 8..16 {
                a[(i, j)] = 1.0 / (1.0 + (i + j) as f64);
            }
        }
        let tol = 1e-10 * a.norm_fro();
        let (u, v) = aca(&a, tol, 16);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err <= tol, "err {err}");
    }

    #[test]
    fn full_rank_fallback_is_exact() {
        let a = rnd(12, 12, 3);
        let (u, v) = aca(&a, 0.0, 12);
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        assert!(err < 1e-9 * a.norm_fro(), "err {err}");
    }

    #[test]
    fn zero_matrix_gives_zero_rank_quickly() {
        let a = Matrix::zeros(10, 8);
        let (u, _v) = aca(&a, 1e-8, 10);
        assert_eq!(u.cols(), 0);
    }

    #[test]
    fn respects_max_rank() {
        let a = rnd(20, 20, 4);
        let (u, _v) = aca(&a, 0.0, 5);
        assert_eq!(u.cols(), 5);
    }

    #[test]
    fn rectangular_shapes() {
        for (m, n) in [(40, 10), (10, 40)] {
            let a = smooth_kernel(m, n);
            let tol = 1e-6 * a.norm_fro();
            let (u, v) = aca(&a, tol, m.min(n));
            let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
            assert!(err <= tol, "({m},{n}) err {err}");
        }
    }

    // ---- The two-pass loop the fused one replaced, kept as the oracle: a
    // separate full-pivot search over the residual before each cross.

    #[allow(clippy::needless_range_loop)]
    fn aca_two_pass(a: &Matrix, tol: f64, max_rank: usize) -> (Matrix, Matrix) {
        let (m, n) = a.shape();
        let kmax = max_rank.min(m.min(n));
        let mut residual = a.clone();
        let mut us: Vec<Vec<f64>> = Vec::new();
        let mut vs: Vec<Vec<f64>> = Vec::new();
        let mut res_sq: f64 = residual.as_slice().iter().map(|x| x * x).sum();
        for _k in 0..kmax {
            if res_sq.max(0.0).sqrt() <= tol {
                break;
            }
            let (mut pi, mut pj, mut pval) = (0usize, 0usize, 0.0f64);
            for j in 0..n {
                let col = residual.col(j);
                for (i, &x) in col.iter().enumerate() {
                    if x.abs() > pval.abs() || (pval == 0.0 && x != 0.0) {
                        pi = i;
                        pj = j;
                        pval = x;
                    }
                }
            }
            if pval == 0.0 {
                break;
            }
            let inv = 1.0 / pval;
            let u: Vec<f64> = residual.col(pj).iter().map(|&x| x * inv).collect();
            let v: Vec<f64> = (0..n).map(|j| residual[(pi, j)]).collect();
            res_sq = 0.0;
            for j in 0..n {
                let vj = v[j];
                let col = residual.col_mut(j);
                for (i, x) in col.iter_mut().enumerate() {
                    *x -= u[i] * vj;
                    res_sq += *x * *x;
                }
            }
            us.push(u);
            vs.push(v);
        }
        let k = us.len();
        let mut u = Matrix::zeros(m, k);
        let mut v = Matrix::zeros(n, k);
        for (j, (ucol, vcol)) in us.iter().zip(&vs).enumerate() {
            u.col_mut(j).copy_from_slice(ucol);
            v.col_mut(j).copy_from_slice(vcol);
        }
        (u, v)
    }

    /// Bit patterns of both factors, so that `-0.0` vs `0.0` cannot hide.
    fn bits(f: &(Matrix, Matrix)) -> (usize, usize, usize, Vec<u64>) {
        let (u, v) = f;
        let b = u.as_slice().iter().chain(v.as_slice()).map(|x| x.to_bits());
        (u.rows(), v.rows(), u.cols(), b.collect())
    }

    fn assert_fused_is_two_pass(a: &Matrix, tol: f64, max_rank: usize, label: &str) {
        let fused = aca(a, tol, max_rank);
        let oracle = aca_two_pass(a, tol, max_rank);
        assert_eq!(bits(&fused), bits(&oracle), "{label}");
    }

    #[test]
    fn fused_pass_is_bitwise_the_two_pass_loop() {
        for seed in 0..6u64 {
            let a = rnd(23, 17, seed);
            for rel in [0.0, 1e-12, 1e-3, 0.3] {
                let tol = rel * a.norm_fro();
                assert_fused_is_two_pass(&a, tol, 17, &format!("random seed {seed} rel {rel}"));
            }
        }
        for (m, n) in [(64, 64), (40, 10), (10, 40)] {
            let a = smooth_kernel(m, n);
            for rel in [1e-14, 1e-8, 1e-4] {
                let tol = rel * a.norm_fro();
                assert_fused_is_two_pass(&a, tol, m.min(n), &format!("smooth ({m},{n}) rel {rel}"));
            }
        }
        for k in [1, 3, 7] {
            let a = rnd(30, k, 10 + k as u64).matmul_t(&rnd(25, k, 20 + k as u64));
            for tol in [0.0, 1e-12 * a.norm_fro()] {
                assert_fused_is_two_pass(&a, tol, 25, &format!("exact rank {k} tol {tol}"));
            }
        }
    }

    #[test]
    fn fused_pass_matches_on_degenerate_blocks() {
        // All zero: no cross at all, from either loop.
        let zero = Matrix::zeros(9, 7);
        assert_fused_is_two_pass(&zero, 0.0, 7, "all zero");
        assert_eq!(aca(&zero, 0.0, 7).0.cols(), 0);
        // Ties in |x| (with both signs): the first in column-major order
        // wins, so a last-max rule would pick another cross and differ.
        let tied = Matrix::from_fn(8, 6, |i, j| match (i + 2 * j) % 4 {
            0 => 1.0,
            1 => -1.0,
            2 => 0.5,
            _ => 0.0,
        });
        assert_fused_is_two_pass(&tied, 0.0, 6, "tied entries");
        let (u, v) = aca(&tied, 0.0, 1);
        assert_eq!((u[(0, 0)], v[(0, 0)]), (1.0, 1.0), "first max is (0, 0)");
        // A cap below the true rank stops both loops at the same cross.
        let a = rnd(20, 20, 4);
        for cap in [0, 1, 5, 19] {
            assert_fused_is_two_pass(&a, 0.0, cap, &format!("cap {cap}"));
            assert_eq!(aca(&a, 0.0, cap).0.cols(), cap);
        }
        // Empty shapes.
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let a = Matrix::zeros(m, n);
            assert_fused_is_two_pass(&a, 1e-8, 4, &format!("({m},{n})"));
            let (u, v) = aca(&a, 1e-8, 4);
            assert_eq!((u.shape(), v.shape()), ((m, 0), (n, 0)));
        }
    }

    // ---- Partial pivoting over an entry oracle.

    /// A dense block read through [`BlockEntries`], counting the entries.
    struct Counted {
        a: Matrix,
        reads: usize,
    }

    impl BlockEntries for Counted {
        fn row(&mut self, i: usize, out: &mut [f64]) {
            self.reads += out.len();
            self.a.row(i, out);
        }
        fn col(&mut self, j: usize, out: &mut [f64]) {
            self.reads += out.len();
            BlockEntries::col(&mut self.a, j, out);
        }
        fn entries(&mut self, at: &[(usize, usize)], out: &mut [f64]) {
            self.reads += out.len();
            self.a.entries(at, out);
        }
    }

    /// Partial ACA of `a` to `rel` of its norm, uncapped: the crosses, the
    /// relative error they leave, and the entries read.
    fn partial(a: &Matrix, rel: f64) -> (usize, f64, usize) {
        let (m, n) = a.shape();
        let mut block = Counted {
            a: a.clone(),
            reads: 0,
        };
        let (u, v) = aca_partial(m, n, &mut block, rel, (rel, m.min(n)))
            .expect("an uncapped ACA always returns");
        let err = a.add_scaled(-1.0, &u.matmul_t(&v)).norm_fro();
        (
            u.cols(),
            err / a.norm_fro().max(f64::MIN_POSITIVE),
            block.reads,
        )
    }

    #[test]
    fn partial_recovers_exact_low_rank_from_few_entries() {
        for k in [1, 3, 7] {
            let a = rnd(60, k, 30 + k as u64).matmul_t(&rnd(50, k, 40 + k as u64));
            let (rank, err, reads) = partial(&a, 1e-12);
            assert!(err <= 1e-11, "rank {k}: err {err}");
            // k crosses, then two whose residual is roundoff, then one
            // check: the lattice (one in sixteen of what is left, at most
            // one more per column) and four entries per cross.
            assert!(rank <= k + 2, "rank {k}: {rank} crosses");
            assert!(
                reads <= (k + 2) * 110 + 60 * 50 / 16 + 50 + 4 * (k + 2),
                "rank {k}: {reads} reads"
            );
        }
    }

    #[test]
    fn partial_meets_its_budget_on_smooth_kernels() {
        for (m, n) in [(64, 64), (40, 10), (10, 40), (100, 100)] {
            let a = smooth_kernel(m, n);
            for rel in [1e-4, 1e-8, 1e-12] {
                let (_, err, reads) = partial(&a, rel);
                assert!(err <= rel, "({m},{n}) at {rel}: err {err}");
                if m * n >= 4096 && rel >= 1e-8 {
                    assert!(reads < m * n / 2, "({m},{n}) at {rel}: {reads} reads");
                }
            }
        }
    }

    #[test]
    fn partial_finds_mass_behind_zero_leading_rows() {
        // The failure partial pivoting is known for: the first rows are
        // exactly zero, so the first crosses see nothing. Two zero rows
        // count as two small crosses; the lattice then finds the mass.
        let mut a = Matrix::zeros(48, 40);
        for j in 0..40 {
            for i in 30..48 {
                a[(i, j)] = 1.0 / (1.0 + (i as f64 - j as f64 / 3.0).abs());
            }
        }
        let (rank, err, _) = partial(&a, 1e-10);
        assert!(rank > 0);
        assert!(err <= 1e-10, "err {err}");
    }

    #[test]
    fn partial_caps_past_max_rank_and_is_total() {
        let a = rnd(30, 30, 5);
        let mut block = a.clone();
        assert!(aca_partial(30, 30, &mut block, 1e-8, (1e-8, 6)).is_none());
        // A cap at or past min(m, n) cannot bind: all rows taken is exact.
        let (rank, err, _) = partial(&a, 0.0);
        assert_eq!(rank, 30);
        assert!(err < 1e-9, "err {err}");
        // Zero blocks give rank 0 after two zero rows and one check.
        let mut zero = Counted {
            a: Matrix::zeros(20, 16),
            reads: 0,
        };
        let (u, _) = aca_partial(20, 16, &mut zero, 1e-8, (1e-8, 16)).unwrap();
        assert_eq!(u.cols(), 0);
        assert!(zero.reads <= 2 * 16 + 2 * 16, "{} reads", zero.reads);
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let mut e = Matrix::zeros(m, n);
            let (u, v) = aca_partial(m, n, &mut e, 1e-8, (1e-8, 4)).unwrap();
            assert_eq!((u.shape(), v.shape()), ((m, 0), (n, 0)));
        }
    }
}
