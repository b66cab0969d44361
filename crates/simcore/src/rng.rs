//! Deterministic random number generation for the simulation.
//!
//! Every run of an experiment is parameterized by a single `u64` seed. All
//! components that need randomness (fault injector, chaos plans, workload
//! generators, device timing jitter) draw from a [`SimRng`] forked off the
//! root seed, so results are reproducible and sub-systems do not perturb each
//! other's random streams when code is added or reordered.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna) seeded
//! through SplitMix64, so the simulation has no dependency on an external RNG
//! crate and the exact streams are pinned by this file alone.

/// A seeded random number generator with domain-forking.
///
/// # Example
///
/// ```
/// use phoenix_simcore::rng::SimRng;
///
/// let mut a = SimRng::new(42).fork("fault-injector");
/// let mut b = SimRng::new(42).fork("fault-injector");
/// assert_eq!(a.range_u64(0..100), b.range_u64(0..100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a root seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { seed, state }
    }

    /// The seed this generator was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for a named domain.
    ///
    /// Forking is a pure function of `(seed, domain)`: the same pair always
    /// yields the same stream, regardless of how much the parent has been
    /// used.
    pub fn fork(&self, domain: &str) -> SimRng {
        // FNV-1a over the domain name mixed into the seed; cheap and stable.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in domain.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        SimRng::new(self.seed.wrapping_add(h).rotate_left(17) ^ h)
    }

    /// Derives an independent generator for the `idx`-th member of a
    /// named domain family — the per-node / per-link stream fork used by
    /// the fleet layer (`fork_indexed("node", 3)` for node 3's machine
    /// seed, `fork_indexed("link-0-2", …)` for a directed link stream).
    ///
    /// Like [`SimRng::fork`], this is a pure function of
    /// `(seed, domain, idx)`: streams do not depend on how much the
    /// parent has been used, and swapping two indices swaps the streams
    /// wholesale (no partial overlap).
    pub fn fork_indexed(&self, domain: &str, idx: u64) -> SimRng {
        self.fork(&format!("{domain}#{idx}"))
    }

    /// Uniform value in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        range.start + self.bounded(span)
    }

    /// Uniform `usize` in `range` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + self.bounded(span) as usize
    }

    /// A random `u32` (used for bit-flip fault injection).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A random `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // Compare 53 uniform bits against p scaled to the same precision.
        self.f64_unit() < p
    }

    /// Fills `buf` with random bytes (used to generate file contents whose
    /// checksum is verified across driver crashes).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Picks a uniformly random element of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` is empty.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot pick from empty slice");
        &slice[self.range_usize(0..slice.len())]
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, span)` via Lemire's multiply-and-reject reduction.
    fn bounded(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut m = (self.next_u64() as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                m = (self.next_u64() as u128) * (span as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_usage() {
        let mut parent1 = SimRng::new(9);
        let _ = parent1.next_u64(); // consume some of the parent stream
        let parent2 = SimRng::new(9);
        let mut f1 = parent1.fork("x");
        let mut f2 = parent2.fork("x");
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn forks_differ_by_domain() {
        let root = SimRng::new(1);
        let mut a = root.fork("alpha");
        let mut b = root.fork("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn indexed_forks_are_distinct_and_stable() {
        let root = SimRng::new(77);
        // Stability: same (seed, domain, idx) -> same stream.
        let mut a = root.fork_indexed("node", 2);
        let mut b = SimRng::new(77).fork_indexed("node", 2);
        assert_eq!(a.next_u64(), b.next_u64());
        // Distinctness across indices and across domains.
        let seeds: Vec<u64> = (0..8)
            .map(|i| root.fork_indexed("node", i).seed())
            .collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "per-node seeds collide");
        assert_ne!(
            root.fork_indexed("node", 1).seed(),
            root.fork_indexed("link", 1).seed()
        );
    }

    #[test]
    fn indexed_fork_swap_swaps_streams_wholesale() {
        // The fleet determinism contract: swapping two node ids swaps the
        // node streams exactly — node 1 under seed S produces precisely
        // what node 4 would have produced had the ids been exchanged.
        let root = SimRng::new(1234);
        let mut n1 = root.fork_indexed("node", 1);
        let mut n4 = root.fork_indexed("node", 4);
        let s1: Vec<u64> = (0..16).map(|_| n1.next_u64()).collect();
        let s4: Vec<u64> = (0..16).map(|_| n4.next_u64()).collect();
        assert_ne!(s1, s4);
        let mut swapped = root.fork_indexed("node", 4);
        let again: Vec<u64> = (0..16).map(|_| swapped.next_u64()).collect();
        assert_eq!(again, s4);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0), "clamped above 1.0");
        assert!(!r.chance(-4.0), "clamped below 0.0");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "observed {frac}, wanted ~0.3");
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::new(4);
        for _ in 0..1000 {
            let v = r.range_u64(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = SimRng::new(12);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.range_usize(0..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "some bucket never drawn: {seen:?}");
    }

    #[test]
    fn fill_bytes_deterministic_and_nonconstant() {
        let mut a = SimRng::new(8);
        let mut b = SimRng::new(8);
        let mut ba = [0u8; 33];
        let mut bb = [0u8; 33];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
        assert!(
            ba.iter().any(|&x| x != ba[0]),
            "output suspiciously constant"
        );
    }

    #[test]
    #[should_panic(expected = "cannot pick from empty slice")]
    fn pick_empty_panics() {
        let mut r = SimRng::new(6);
        let empty: [u8; 0] = [];
        let _ = r.pick(&empty);
    }
}
