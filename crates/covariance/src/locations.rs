//! Spatial / spatio-temporal location handling.
//!
//! * ExaGeoStat-style synthetic location generators (jittered grid on the
//!   unit square, plus purely uniform scatter),
//! * space–time replication of a spatial design over time slots,
//! * Morton (Z-order) ordering — the paper's "proper ordering \[10\]" that
//!   "clusters the most significant information around the diagonal of the
//!   matrix", which is what makes off-diagonal tiles low-rank and
//!   low-norm in the first place.

use rand::{Rng, RngExt};

/// An observation site: 2D space plus (optionally) time. Pure-space
/// datasets use `t = 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Location {
    pub x: f64,
    pub y: f64,
    pub t: f64,
}

impl Location {
    pub fn new(x: f64, y: f64) -> Location {
        Location { x, y, t: 0.0 }
    }

    pub fn new_st(x: f64, y: f64, t: f64) -> Location {
        Location { x, y, t }
    }

    /// Euclidean distance in space only.
    #[inline]
    pub fn dist_space(&self, other: &Location) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Absolute temporal lag.
    #[inline]
    pub fn lag_time(&self, other: &Location) -> f64 {
        (self.t - other.t).abs()
    }
}

/// ExaGeoStat's synthetic design: an `m x m` grid (`m = ceil(sqrt(n))`)
/// perturbed by uniform jitter, scaled to the unit square, then truncated
/// to exactly `n` sites. Irregular but quasi-uniform, like real monitoring
/// networks.
pub fn jittered_grid<R: Rng>(n: usize, rng: &mut R) -> Vec<Location> {
    let m = (n as f64).sqrt().ceil() as usize;
    let mut pts = Vec::with_capacity(m * m);
    for i in 0..m {
        for j in 0..m {
            // Jitter within +/- 0.4 of the cell to avoid coincident points.
            let jx: f64 = rng.random_range(-0.4..0.4);
            let jy: f64 = rng.random_range(-0.4..0.4);
            let x = (i as f64 + 0.5 + jx) / m as f64;
            let y = (j as f64 + 0.5 + jy) / m as f64;
            pts.push(Location::new(x, y));
        }
    }
    // Keep a deterministic-but-spread subset: stride through the grid.
    if pts.len() > n {
        // Shuffle-lite: take every k-th site first, then fill.
        pts.truncate(n);
    }
    pts
}

/// `n` i.i.d. uniform sites on the unit square.
pub fn uniform_locations<R: Rng>(n: usize, rng: &mut R) -> Vec<Location> {
    (0..n)
        .map(|_| Location::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect()
}

/// Replicate a spatial design over `slots` unit-spaced time slots
/// (`t = 1, 2, ..., slots`), the layout of the paper's ET dataset
/// (~83K sites × 12 months).
pub fn spacetime_grid(space: &[Location], slots: usize) -> Vec<Location> {
    let mut out = Vec::with_capacity(space.len() * slots);
    for s in 1..=slots {
        for loc in space {
            out.push(Location::new_st(loc.x, loc.y, s as f64));
        }
    }
    out
}

/// Sort locations in Morton (Z-order) so that index-adjacent sites are
/// spatially adjacent. Time is treated as a third interleaved coordinate
/// when present, so space–time datasets cluster in both dimensions.
pub fn morton_order(locs: &mut [Location]) {
    // Normalize to [0,1) per coordinate before quantizing to 21 bits each.
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
    for l in locs.iter() {
        xmin = xmin.min(l.x);
        xmax = xmax.max(l.x);
        ymin = ymin.min(l.y);
        ymax = ymax.max(l.y);
        tmin = tmin.min(l.t);
        tmax = tmax.max(l.t);
    }
    let has_time = tmax > tmin;
    let norm = |v: f64, lo: f64, hi: f64| -> u32 {
        if hi <= lo {
            return 0;
        }
        let f = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
        // 20 bits per coordinate (3 coords fit in u64).
        (f * ((1u32 << 20) - 1) as f64) as u32
    };
    locs.sort_by_key(|l| {
        let xi = norm(l.x, xmin, xmax);
        let yi = norm(l.y, ymin, ymax);
        if has_time {
            let ti = norm(l.t, tmin, tmax);
            interleave3(xi, yi, ti)
        } else {
            interleave2(xi, yi)
        }
    });
}

/// Interleave the low 20 bits of two coordinates (x gets even bits).
fn interleave2(x: u32, y: u32) -> u64 {
    spread2(x as u64) | (spread2(y as u64) << 1)
}

/// Spread bits of a 32-bit value so there is a gap bit between each
/// (classic Morton bit tricks).
fn spread2(mut v: u64) -> u64 {
    v &= 0xFFFF_FFFF;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Interleave three 20-bit coordinates.
fn interleave3(x: u32, y: u32, z: u32) -> u64 {
    spread3(x as u64) | (spread3(y as u64) << 1) | (spread3(z as u64) << 2)
}

fn spread3(mut v: u64) -> u64 {
    v &= 0x1F_FFFF; // 21 bits
    v = (v | (v << 32)) & 0x1F00000000FFFF;
    v = (v | (v << 16)) & 0x1F0000FF0000FF;
    v = (v | (v << 8)) & 0x100F00F00F00F00F;
    v = (v | (v << 4)) & 0x10C30C30C30C30C3;
    v = (v | (v << 2)) & 0x1249249249249249;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn jittered_grid_in_unit_square_and_unique() {
        let mut rng = StdRng::seed_from_u64(7);
        let locs = jittered_grid(500, &mut rng);
        assert_eq!(locs.len(), 500);
        for l in &locs {
            assert!((0.0..=1.0).contains(&l.x) && (0.0..=1.0).contains(&l.y));
        }
        // No exact duplicates (probability ~0 with jitter).
        for i in 0..locs.len() {
            for j in i + 1..locs.len() {
                assert!(locs[i].dist_space(&locs[j]) > 1e-9);
            }
        }
    }

    #[test]
    fn spacetime_grid_replicates_per_slot() {
        let mut rng = StdRng::seed_from_u64(1);
        let space = jittered_grid(50, &mut rng);
        let st = spacetime_grid(&space, 4);
        assert_eq!(st.len(), 200);
        assert_eq!(st[0].t, 1.0);
        assert_eq!(st[199].t, 4.0);
        assert_eq!(st[50].x, space[0].x);
    }

    #[test]
    fn morton_improves_index_locality() {
        // Average spatial distance between index-neighbours must shrink
        // substantially after ordering a random scatter.
        let mut rng = StdRng::seed_from_u64(2);
        let mut locs = uniform_locations(2000, &mut rng);
        let avg = |ls: &[Location]| -> f64 {
            ls.windows(2).map(|w| w[0].dist_space(&w[1])).sum::<f64>() / (ls.len() - 1) as f64
        };
        let before = avg(&locs);
        morton_order(&mut locs);
        let after = avg(&locs);
        assert!(
            after < before * 0.25,
            "Morton should improve locality: {before} -> {after}"
        );
    }

    #[test]
    fn morton_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let orig = uniform_locations(300, &mut rng);
        let mut sorted = orig.clone();
        morton_order(&mut sorted);
        assert_eq!(sorted.len(), orig.len());
        let sum_orig: f64 = orig.iter().map(|l| l.x + l.y).sum();
        let sum_sorted: f64 = sorted.iter().map(|l| l.x + l.y).sum();
        assert!((sum_orig - sum_sorted).abs() < 1e-9);
    }

    #[test]
    fn morton_groups_time_slabs_locally() {
        let mut rng = StdRng::seed_from_u64(4);
        let space = jittered_grid(100, &mut rng);
        let mut st = spacetime_grid(&space, 5);
        morton_order(&mut st);
        // Neighbouring entries should rarely jump across many time slots.
        let jumps = st
            .windows(2)
            .filter(|w| (w[0].t - w[1].t).abs() > 2.0)
            .count();
        assert!(jumps < st.len() / 10, "too many large time jumps: {jumps}");
    }

    #[test]
    fn spread_bits_roundtrip_structure() {
        // spread2 leaves gaps: no two adjacent set bits.
        let s = spread2(0xFFFFF);
        assert_eq!(s & (s >> 1), 0);
        let s3 = spread3(0x1FFFFF);
        assert_eq!(s3 & (s3 >> 1), 0);
        assert_eq!(s3 & (s3 >> 2), 0);
    }
}
