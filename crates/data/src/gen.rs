//! Field generators: seeded fractal noise and domain-flavored synthetics.
//!
//! The workhorse is multi-octave *value noise*: random values on coarse
//! lattices, interpolated smoothly and summed across octaves with falling
//! amplitude. That produces exactly the "relatively smooth, centered around
//! zero" fields the paper says scientific data tends to be (§III-D), with
//! a roughness knob (persistence / octaves) to differentiate suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Smoothstep interpolation weight.
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// A seeded value-noise lattice for up to 3 dimensions.
struct Lattice {
    seed: u64,
}

impl Lattice {
    fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Deterministic pseudo-random value in [-1, 1] at integer coords.
    #[inline]
    fn at(&self, x: i64, y: i64, z: i64, octave: u32) -> f64 {
        let mut h = self
            .seed
            .wrapping_add(octave as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= (x as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(23);
        h ^= (y as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = h.rotate_left(29);
        h ^= (z as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Trilinearly interpolated noise at continuous coords.
    fn sample(&self, x: f64, y: f64, z: f64, octave: u32) -> f64 {
        let (x0, y0, z0) = (x.floor() as i64, y.floor() as i64, z.floor() as i64);
        let (fx, fy, fz) = (
            smooth(x - x0 as f64),
            smooth(y - y0 as f64),
            smooth(z - z0 as f64),
        );
        let mut acc = 0.0;
        for (dz, wz) in [(0i64, 1.0 - fz), (1, fz)] {
            for (dy, wy) in [(0i64, 1.0 - fy), (1, fy)] {
                for (dx, wx) in [(0i64, 1.0 - fx), (1, fx)] {
                    acc += wx * wy * wz * self.at(x0 + dx, y0 + dy, z0 + dz, octave);
                }
            }
        }
        acc
    }
}

/// Multi-octave 3D value noise over a `dims = [nz, ny, nx]` grid.
///
/// `base_freq` is the coarsest lattice frequency (cells across the longest
/// axis); `octaves` adds detail; `persistence` scales each octave's
/// amplitude (higher → rougher).
pub fn fractal_field_3d(
    seed: u64,
    dims: [usize; 3],
    base_freq: f64,
    octaves: u32,
    persistence: f64,
) -> Vec<f64> {
    let lat = Lattice::new(seed);
    let [nz, ny, nx] = dims;
    let longest = nx.max(ny).max(nz) as f64;
    let mut out = Vec::with_capacity(nx * ny * nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let mut v = 0.0;
                let mut amp = 1.0;
                let mut freq = base_freq / longest;
                for o in 0..octaves {
                    v += amp * lat.sample(x as f64 * freq, y as f64 * freq, z as f64 * freq, o);
                    amp *= persistence;
                    freq *= 2.0;
                }
                out.push(v);
            }
        }
    }
    out
}

/// 2D variant (`dims = [ny, nx]`).
pub fn fractal_field_2d(
    seed: u64,
    dims: [usize; 2],
    base_freq: f64,
    octaves: u32,
    persistence: f64,
) -> Vec<f64> {
    fractal_field_3d(seed, [1, dims[0], dims[1]], base_freq, octaves, persistence)
}

/// 1D variant.
pub fn fractal_field_1d(
    seed: u64,
    n: usize,
    base_freq: f64,
    octaves: u32,
    persistence: f64,
) -> Vec<f64> {
    fractal_field_3d(seed, [1, 1, n], base_freq, octaves, persistence)
}

/// Brownian walk (the SDRBench "Brown samples" are synthetic Brownian
/// noise): cumulative sum of Gaussian steps.
pub fn brownian(seed: u64, n: usize, step: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0.0f64;
    (0..n)
        .map(|_| {
            // Box–Muller from two uniforms.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            acc += g * step;
            acc
        })
        .collect()
}

/// Clustered particle coordinates (HACC-like): positions of particles that
/// cluster into halos, stored contiguously per coordinate — locally smooth
/// within a halo but with jumps between halos, which is why particle data
/// compresses far worse than gridded fields.
pub fn particle_positions(seed: u64, n: usize, box_size: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nhalos = (n / 512).max(1);
    let centers: Vec<f64> = (0..nhalos).map(|_| rng.gen_range(0.0..box_size)).collect();
    let mut out = Vec::with_capacity(n);
    let mut h = 0usize;
    while out.len() < n {
        let c = centers[h % nhalos];
        let halo_n = rng.gen_range(128..1024).min(n - out.len());
        let radius = rng.gen_range(0.001..0.01) * box_size;
        for _ in 0..halo_n {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            out.push((c + g * radius).rem_euclid(box_size));
        }
        h += 1;
    }
    out
}

/// Log-normal density field (NYX `baryon_density`-like): exponentiate a
/// smooth Gaussian field → strictly positive values spanning many orders
/// of magnitude, the classic REL-bound use case.
pub fn lognormal_field_3d(seed: u64, dims: [usize; 3], sigma: f64) -> Vec<f64> {
    fractal_field_3d(seed, dims, 4.0, 5, 0.55)
        .into_iter()
        .map(|v| (v * sigma).exp())
        .collect()
}

/// Oscillatory decaying orbital-like data (QMCPACK-like): radial decay
/// modulated by high-frequency oscillations along the fastest axis.
pub fn orbital_field_3d(seed: u64, dims: [usize; 3]) -> Vec<f64> {
    let smooth_part = fractal_field_3d(seed, dims, 6.0, 3, 0.5);
    let [nz, ny, nx] = dims;
    let mut out = Vec::with_capacity(smooth_part.len());
    let mut i = 0;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let r = ((x as f64 / nx as f64 - 0.5).powi(2)
                    + (y as f64 / ny as f64 - 0.5).powi(2)
                    + (z as f64 / nz as f64 - 0.5).powi(2))
                .sqrt();
                let osc = (x as f64 * 0.9 + z as f64 * 0.13).sin();
                out.push((-6.0 * r).exp() * osc * (1.0 + 0.2 * smooth_part[i]));
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = fractal_field_3d(42, [8, 8, 8], 4.0, 4, 0.5);
        let b = fractal_field_3d(42, [8, 8, 8], 4.0, 4, 0.5);
        assert_eq!(a, b);
        let c = fractal_field_3d(43, [8, 8, 8], 4.0, 4, 0.5);
        assert_ne!(a, c);
    }

    #[test]
    fn smooth_fields_have_small_neighbor_deltas() {
        let f = fractal_field_3d(1, [4, 32, 32], 3.0, 4, 0.5);
        let range =
            f.iter().cloned().fold(f64::MIN, f64::max) - f.iter().cloned().fold(f64::MAX, f64::min);
        // Neighboring values along the fastest axis (within a row) move much
        // less than the full range — the smoothness the compressor exploits.
        let max_delta = f
            .chunks(32)
            .flat_map(|row| row.windows(2))
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0, f64::max);
        assert!(
            max_delta < range * 0.4,
            "max_delta={max_delta} range={range}"
        );
    }

    #[test]
    fn lognormal_is_positive_high_dynamic_range() {
        let f = lognormal_field_3d(7, [8, 16, 16], 3.0);
        assert!(f.iter().all(|&v| v > 0.0));
        let max = f.iter().cloned().fold(f64::MIN, f64::max);
        let min = f.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 100.0, "dynamic range {}", max / min);
    }

    #[test]
    fn brownian_is_a_walk() {
        let w = brownian(3, 10_000, 0.01);
        // Steps are small relative to the excursion.
        let excursion =
            w.iter().cloned().fold(f64::MIN, f64::max) - w.iter().cloned().fold(f64::MAX, f64::min);
        let max_step = w
            .windows(2)
            .map(|p| (p[1] - p[0]).abs())
            .fold(0.0, f64::max);
        assert!(max_step < excursion / 5.0);
    }

    #[test]
    fn particles_in_box() {
        let p = particle_positions(11, 50_000, 64.0);
        assert_eq!(p.len(), 50_000);
        assert!(p.iter().all(|&x| (0.0..64.0).contains(&x)));
    }
}
