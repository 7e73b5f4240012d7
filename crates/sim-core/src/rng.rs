//! Seedable, reproducible random number generation.
//!
//! The simulator cannot use `rand::thread_rng()`-style global entropy: the
//! whole point of the DES is bit-identical replay. [`SimRng`] is a
//! xoshiro256** generator seeded via SplitMix64, which is the reference
//! seeding procedure recommended by the xoshiro authors. It is small, fast,
//! and passes BigCrush; more than adequate for workload-model sampling.

/// A deterministic pseudo-random number generator (xoshiro256**).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

// Images carry the four state words, so a restored stream resumes at
// exactly the checkpointed draw.
crate::snap_struct!(SimRng { s });

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator, e.g. one per VM or per
    /// workload, so adding a consumer does not perturb others' streams.
    pub fn fork(&mut self, label: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits give a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: retry to stay exactly uniform.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// An exponentially distributed float with the given mean.
    ///
    /// Used for Poisson inter-arrival times (e.g. httperf request streams).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.next_f64(); // In (0, 1]; ln(0) avoided.
        -mean * u.ln()
    }

    /// A normally distributed float (Box–Muller, one value per call).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// A log-normally distributed float parameterized by the *target*
    /// median and a shape sigma (of the underlying normal).
    ///
    /// Used for heavy-tailed latency models such as CPU-hotplug cost.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        let n = self.normal(0.0, sigma);
        median * n.exp()
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 from state 0: the published reference test vectors.
    /// If seeding ever drifts, every seeded stream in the repo changes —
    /// this pins the seeding procedure to the reference implementation.
    #[test]
    fn splitmix64_matches_reference_vectors() {
        let mut state = 0u64;
        let expected = [
            0xE220_A839_7B1D_CDAF,
            0x6E78_9E6A_A1B9_65F4,
            0x06C4_5D18_8009_454F,
            0xF88B_B8A8_724C_81EC,
            0x1B39_896A_51A8_749B,
        ];
        for e in expected {
            assert_eq!(splitmix64(&mut state), e, "splitmix64 drifted");
        }
    }

    /// xoshiro256** known-answer vectors: SplitMix64-seeded state plus
    /// the reference update rule, pinned so the generator can never
    /// silently drift (which would silently change every experiment).
    #[test]
    fn xoshiro256starstar_known_answers() {
        let cases: [(u64, [u64; 8]); 3] = [
            (
                0,
                [
                    0x99EC_5F36_CB75_F2B4,
                    0xBF6E_1F78_4956_452A,
                    0x1A5F_849D_4933_E6E0,
                    0x6AA5_94F1_262D_2D2C,
                    0xBBA5_AD4A_1F84_2E59,
                    0xFFEF_8375_D9EB_CACA,
                    0x6C16_0DEE_D2F5_4C98,
                    0x8920_AD64_8FC3_0A3F,
                ],
            ),
            (
                42,
                [
                    0x1578_0B2E_0C2E_C716,
                    0x6104_D986_6D11_3A7E,
                    0xAE17_5332_39E4_99A1,
                    0xECB8_AD47_03B3_60A1,
                    0xFDE6_DC7F_E2EC_5E64,
                    0xC50D_A531_0179_5238,
                    0xB821_5485_5A65_DDB2,
                    0xD99A_2743_EBE6_0087,
                ],
            ),
            (
                0xDEAD_BEEF,
                [
                    0xC555_5444_A74D_7E83,
                    0x65C3_0D37_B4B1_6E38,
                    0x54F7_7320_0A4E_FA23,
                    0x429A_ED75_FB95_8AF7,
                    0xFB0E_1DD6_9C25_5B2E,
                    0x9D6D_02EC_5881_4A27,
                    0xF419_9B9D_A2E4_B2A3,
                    0x54BC_5B2C_11A4_540A,
                ],
            ),
        ];
        for (seed, expected) in cases {
            let mut r = SimRng::new(seed);
            for (i, e) in expected.into_iter().enumerate() {
                assert_eq!(r.next_u64(), e, "seed {seed}: output {i} drifted");
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c} too skewed");
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.2, "variance was {var}");
    }

    #[test]
    fn log_normal_median_converges() {
        let mut r = SimRng::new(19);
        let n = 50_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.log_normal(8.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median - 8.0).abs() < 0.3, "median was {median}");
    }

    #[test]
    fn forked_streams_are_independent_of_consumption() {
        let mut parent1 = SimRng::new(5);
        let child1 = parent1.fork(1);
        let mut parent2 = SimRng::new(5);
        let child2 = parent2.fork(1);
        let mut c1 = child1;
        let mut c2 = child2;
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }
}
