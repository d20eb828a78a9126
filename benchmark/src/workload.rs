//! The workloads and their seeded inputs.
//!
//! Inputs come only from the public `pfpl_data::gen` generators (plus, for
//! `rough-f32`, seeded random bit patterns), seeded from the benchmark's
//! `--seed`; the library receives nothing but the generated values. The
//! same seed gives the same bytes.

use crate::host::ROTATION;
use pfpl::float::Word;
use pfpl::{ErrorBound, PfplFloat, Precision};
use pfpl_data::gen;
use rayon::prelude::*;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Smooth 3-D f32 fields at ABS 1e-3: the paper's headline case.
    SmoothF32Abs,
    /// f64 hydro, 1-D and Brownian fields at REL 1e-3.
    F64Rel,
    /// Particle and log-normal f32 fields at ABS 1e-5 plus random chunks.
    RoughF32,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [Workload::SmoothF32Abs, Workload::F64Rel, Workload::RoughF32];

/// How large to make the inputs: `Full` for measurement, `Test` for the
/// unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
pub enum Size {
    /// Tens of MiB per workload.
    Full,
    /// Tens of KiB per field.
    Test,
}

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmoothF32Abs => "smooth-f32-abs",
            Workload::F64Rel => "f64-rel",
            Workload::RoughF32 => "rough-f32",
        }
    }

    /// Look a workload up by [`Self::name`].
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Element type of every input.
    pub fn precision(self) -> Precision {
        match self {
            Workload::F64Rel => Precision::Double,
            _ => Precision::Single,
        }
    }

    /// The error bound every archive is compressed under.
    pub fn bound(self) -> ErrorBound {
        match self {
            Workload::SmoothF32Abs => ErrorBound::Abs(1e-3),
            Workload::F64Rel => ErrorBound::Rel(1e-3),
            Workload::RoughF32 => ErrorBound::Abs(1e-5),
        }
    }

    /// Measured rounds per 10 s of `--seconds`, chosen so one run takes
    /// about `--seconds` on a 2-vCPU Xeon VM. The count depends only on
    /// `--seconds`, so every run does the same work.
    fn rounds_per_10s(self, traced: bool) -> usize {
        match (self, traced) {
            (Workload::SmoothF32Abs, false) => 56,
            (Workload::F64Rel, false) => 26,
            (Workload::RoughF32, false) => 38,
            (Workload::SmoothF32Abs, true) => 26,
            (Workload::F64Rel, true) => 12,
            (Workload::RoughF32, true) => 22,
        }
    }

    /// Rounds for a run of `seconds`: whole rotations of serial rounds
    /// over the CPUs (see [`crate::host::Cpus`]), and at least
    /// [`MIN_SAMPLES`] of them.
    pub fn rounds(self, seconds: u64, traced: bool) -> usize {
        let r = (self.rounds_per_10s(traced) as u64 * seconds).div_ceil(10) as usize;
        r.max(MIN_SAMPLES * ROTATION).next_multiple_of(ROTATION)
    }

    /// Generate the workload's archives-to-be for `seed`.
    pub fn generate<F: PfplFloat>(self, seed: u64, size: Size) -> Vec<Vec<F>> {
        assert_eq!(
            F::PRECISION,
            self.precision(),
            "wrong element type for {}",
            self.name()
        );
        let mut rng = Rng::new(seed ^ (self as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        let recipes: Vec<(u64, Recipe)> = self
            .recipes(size)
            .into_iter()
            .map(|r| (rng.next(), r))
            .collect();
        let fields: Vec<Vec<F>> = recipes
            .par_iter()
            .map(|(s, r)| r.make(*s).into_iter().map(F::from_f64).collect())
            .collect();
        match self {
            Workload::RoughF32 => fields
                .into_iter()
                .map(|mut f| {
                    inject_noise_chunks(&mut f, NOISE_CHUNK_SHARE, &mut rng);
                    f
                })
                .collect(),
            _ => fields,
        }
    }

    /// Field recipes.
    fn recipes(self, size: Size) -> Vec<Recipe> {
        let full = size == Size::Full;
        // 1 Mi f32 / 512 Ki f64 values (4 MiB) per field at full size.
        let grid32 = if full { [16, 256, 256] } else { [4, 64, 64] };
        let grid64 = if full { [8, 256, 256] } else { [2, 64, 64] };
        let n32 = grid32.iter().product::<usize>();
        let n64 = grid64.iter().product::<usize>();
        match self {
            // CESM-, Hurricane-Isabel- and SCALE-like climate and weather
            // fields, 8 x 4 MiB.
            Workload::SmoothF32Abs => (0..8)
                .map(|i| match i % 3 {
                    0 => Recipe::Fractal3d {
                        dims: grid32,
                        base: 5.0,
                        octaves: 5,
                        persistence: 0.35 + 0.02 * i as f64,
                        scale: 1.0,
                        offset: 0.0,
                    },
                    1 => Recipe::Fractal3d {
                        dims: grid32,
                        base: 6.0,
                        octaves: 6,
                        persistence: 0.45,
                        scale: 80.0,
                        offset: 0.0,
                    },
                    _ => Recipe::Fractal3d {
                        dims: grid32,
                        base: 7.0,
                        octaves: 5,
                        persistence: 0.5,
                        scale: 1.0,
                        offset: 0.0,
                    },
                })
                .collect(),
            // Miranda-like hydro (positive 3-D), NWChem-like 1-D and
            // Brownian fields, 6 x 4 MiB.
            Workload::F64Rel => (0..6)
                .map(|i| match i % 3 {
                    0 => Recipe::Fractal3d {
                        dims: grid64,
                        base: 5.0,
                        octaves: 4,
                        persistence: 0.4,
                        scale: 1.0,
                        offset: 3.0,
                    },
                    1 => Recipe::Fractal1d {
                        n: n64,
                        base: n64 as f64 / 1024.0,
                        octaves: 6,
                        persistence: 0.65,
                    },
                    _ => Recipe::Brownian {
                        n: n64,
                        step: 1e-3 * (i + 1) as f64,
                        walks: 16,
                    },
                })
                .collect(),
            // HACC-like particle coordinates and NYX-like log-normal
            // densities, 8 x 4 MiB (random chunks are injected after).
            Workload::RoughF32 => (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        Recipe::Particles {
                            n: n32,
                            box_size: 256.0,
                        }
                    } else {
                        Recipe::Lognormal {
                            dims: grid32,
                            sigma: 2.5,
                        }
                    }
                })
                .collect(),
        }
    }
}

/// Fewest serial samples (rotations over the CPUs) a run's medians are
/// taken over.
pub const MIN_SAMPLES: usize = 10;

/// Share of `rough-f32` chunks overwritten with random finite bit patterns.
pub const NOISE_CHUNK_SHARE: f64 = 0.10;

/// Overwrite `share` of the whole chunks of `field` with random finite
/// bit patterns (as in the golden raw-noise fixtures), so the raw-chunk
/// fallback is exercised: no generated field stores a raw chunk on its own.
fn inject_noise_chunks<F: PfplFloat>(field: &mut [F], share: f64, rng: &mut Rng) {
    let vpc = pfpl::chunk::values_per_chunk::<F>();
    let mut chunks: Vec<usize> = (0..field.len() / vpc).collect();
    rng.shuffle(&mut chunks);
    let take = (chunks.len() as f64 * share).round() as usize;
    let width_mask = u64::MAX >> (64 - F::Bits::BITS);
    let exp = F::EXP_MASK.to_u64();
    for &c in &chunks[..take] {
        for v in &mut field[c * vpc..(c + 1) * vpc] {
            let mut bits = rng.next() & width_mask;
            if bits & exp == exp {
                // Clear the lowest exponent bit: no NaN or infinity.
                bits ^= 1 << F::MANT_BITS;
            }
            *v = F::from_bits(F::Bits::from_u64(bits));
        }
    }
}

/// How one input field is generated.
#[derive(Debug, Clone)]
enum Recipe {
    Fractal3d {
        dims: [usize; 3],
        base: f64,
        octaves: u32,
        persistence: f64,
        scale: f64,
        offset: f64,
    },
    Fractal1d {
        n: usize,
        base: f64,
        octaves: u32,
        persistence: f64,
    },
    /// `walks` independent walks back to back: the REL ratio of a single
    /// walk depends on how close it wanders to zero, which would make the
    /// compression ratio swing by half from seed to seed.
    Brownian {
        n: usize,
        step: f64,
        walks: usize,
    },
    Particles {
        n: usize,
        box_size: f64,
    },
    Lognormal {
        dims: [usize; 3],
        sigma: f64,
    },
}

impl Recipe {
    fn make(&self, seed: u64) -> Vec<f64> {
        match *self {
            Recipe::Fractal3d {
                dims,
                base,
                octaves,
                persistence,
                scale,
                offset,
            } => gen::fractal_field_3d(seed, dims, base, octaves, persistence)
                .into_iter()
                .map(|v| v * scale + offset)
                .collect(),
            Recipe::Fractal1d {
                n,
                base,
                octaves,
                persistence,
            } => gen::fractal_field_1d(seed, n, base, octaves, persistence),
            Recipe::Brownian { n, step, walks } => (0..walks)
                .flat_map(|k| {
                    let len = n / walks + usize::from(k < n % walks);
                    gen::brownian(
                        seed.wrapping_add(k as u64)
                            .wrapping_mul(0x2545_F491_4F6C_DD1D),
                        len,
                        step,
                    )
                })
                .collect(),
            Recipe::Particles { n, box_size } => gen::particle_positions(seed, n, box_size),
            Recipe::Lognormal { dims, sigma } => gen::lognormal_field_3d(seed, dims, sigma),
        }
    }
}

/// SplitMix64: the benchmark's own seeded choices (field seeds, noise
/// chunks, stream push lengths).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<F: PfplFloat>(fields: &[Vec<F>]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in fields {
            out.extend_from_slice(&(f.len() as u64).to_le_bytes());
            for v in f {
                v.to_bits().push_le(&mut out);
            }
        }
        out
    }

    fn gen_bytes(w: Workload, seed: u64) -> Vec<u8> {
        match w.precision() {
            Precision::Single => bytes(&w.generate::<f32>(seed, Size::Test)),
            Precision::Double => bytes(&w.generate::<f64>(seed, Size::Test)),
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_inputs() {
        for w in ALL {
            let a = gen_bytes(w, 7);
            assert!(!a.is_empty(), "{}", w.name());
            assert_eq!(a, gen_bytes(w, 7), "{} is not deterministic", w.name());
            assert_ne!(a, gen_bytes(w, 8), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn workloads_differ_for_one_seed() {
        let a = gen_bytes(Workload::SmoothF32Abs, 3);
        let b = gen_bytes(Workload::RoughF32, 3);
        assert_ne!(a, b);
    }

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn rough_noise_chunks_are_finite_and_counted() {
        let mut f = vec![1.0f32; 4096 * 20];
        inject_noise_chunks(&mut f, 0.10, &mut Rng::new(5));
        let noisy = f
            .chunks(4096)
            .filter(|c| c.iter().any(|&v| v != 1.0))
            .count();
        assert_eq!(noisy, 2);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rounds_are_whole_rotations_and_fixed() {
        for w in ALL {
            for traced in [false, true] {
                for seconds in [1, 10, 25, 60] {
                    let r = w.rounds(seconds, traced);
                    assert!(r >= MIN_SAMPLES * ROTATION && r % ROTATION == 0);
                    assert_eq!(r, w.rounds(seconds, traced));
                }
            }
        }
    }
}
