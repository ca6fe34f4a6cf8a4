//! The benchmark's own seeded randomness: a SplitMix64-seeded xoshiro256++
//! generator and a tabulated Zipf sampler. Every workload input (corpus
//! seed, query sources, noise seeds, write schedule, new-image payloads)
//! derives from the `--seed` argument through these two types, so the
//! same seed gives the same inputs whatever the library crates use
//! internally.

/// xoshiro256++ seeded through SplitMix64.
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Prng {
    pub fn new(seed: u64) -> Prng {
        let mut state = seed;
        Prng {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }

    /// An independent stream for one purpose (`label` separates streams
    /// drawn from the same seed).
    pub fn derive(seed: u64, label: &str) -> Prng {
        let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Prng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo
    /// bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// Zipf over ranks `0..n`: `P(rank = i) ∝ 1 / (i + 1)^s`, sampled by
/// binary search over the tabulated CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0 && s.is_finite(), "Zipf needs n > 0 and a finite s");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Prng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prng_is_deterministic_per_seed_and_label() {
        let a: Vec<u64> = (0..8)
            .scan(Prng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Prng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Prng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut x = Prng::derive(7, "queries");
        let mut y = Prng::derive(7, "writes");
        assert_ne!(x.next_u64(), y.next_u64());
        assert_eq!(
            Prng::derive(7, "queries").next_u64(),
            Prng::derive(7, "queries").next_u64()
        );
    }

    #[test]
    fn below_and_permutation_stay_in_range() {
        let mut r = Prng::new(1);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(n) < n);
            }
        }
        let mut p = r.permutation(100);
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut r = Prng::new(seed);
            (0..5000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&i| i < 1000));
        // Rank 0 carries 1/H_1000 ≈ 13% of the mass; rank 999 ≈ 0.013%.
        let top = a.iter().filter(|&&i| i == 0).count();
        assert!((450..=900).contains(&top), "rank-0 draws: {top}");
        assert!(a.iter().filter(|&&i| i >= 500).count() < top);
    }
}
