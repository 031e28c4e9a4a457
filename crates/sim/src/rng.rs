//! Seeded randomness and distribution sampling for simulations.
//!
//! Every experiment takes a single `u64` seed; all stochastic behaviour
//! (key generation, latency draws, sensor jitter) flows from it, so runs
//! are exactly reproducible.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The simulation RNG: a seeded [`StdRng`] plus distribution helpers.
///
/// A clone continues from the same state: it draws exactly what the
/// original would have drawn next.
#[derive(Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl std::fmt::Debug for SimRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SimRng { .. }")
    }
}

impl SimRng {
    /// Creates an RNG from an experiment seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Forks an independent child RNG (e.g. one per simulated host) so
    /// adding hosts does not perturb other hosts' draws.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.inner.gen::<u64>();
        SimRng::seed_from_u64(base ^ label.wrapping_mul(0x9e3779b97f4a7c15))
    }

    /// Derives stream `label` of experiment `seed` *without* consuming any
    /// state from a parent RNG.
    ///
    /// Unlike [`SimRng::fork`], which draws from the parent (so stream
    /// identity depends on fork order), `stream` is a pure function of
    /// `(seed, label)`. That makes it the right constructor for sharded
    /// simulations stepped on worker threads: shard `k` always gets the
    /// same stream no matter how many threads run or in what order shards
    /// are created. The mixing is a splitmix64 finalizer over
    /// `seed ⊕ φ·label`, so nearby labels land on unrelated seeds.
    pub fn stream(seed: u64, label: u64) -> SimRng {
        let mut z = seed ^ label.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        SimRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[low, high)`.
    pub fn uniform_range(&mut self, low: f64, high: f64) -> f64 {
        assert!(high >= low, "empty range");
        low + self.uniform() * (high - low)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Exponential draw with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Normal draw via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        let u1: f64 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Log-normal draw parameterized by the *underlying* normal's µ and σ.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(99);
        let mut b = SimRng::seed_from_u64(99);
        for _ in 0..20 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_draws_what_the_original_would() {
        let mut a = SimRng::seed_from_u64(12);
        a.next_u64();
        let mut b = a.clone();
        for _ in 0..20 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_sibling_count() {
        let mut parent1 = SimRng::seed_from_u64(1);
        let mut parent2 = SimRng::seed_from_u64(1);
        let mut child_a1 = parent1.fork(0);
        let mut child_a2 = parent2.fork(0);
        assert_eq!(child_a1.next_u64(), child_a2.next_u64());
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_label() {
        let mut a = SimRng::stream(42, 3);
        let mut b = SimRng::stream(42, 3);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Different labels (and different seeds) give different streams.
        let mut c = SimRng::stream(42, 4);
        let mut d = SimRng::stream(43, 3);
        let x = SimRng::stream(42, 3).next_u64();
        assert_ne!(c.next_u64(), x);
        assert_ne!(d.next_u64(), x);
    }

    #[test]
    fn exponential_mean_roughly_correct() {
        let mut rng = SimRng::seed_from_u64(7);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = SimRng::seed_from_u64(8);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-5.0));
        assert!(rng.chance(7.0));
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..100 {
            let x = rng.uniform_range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }
}
