//! Probabilistic distinct counting (Flajolet–Martin, \[6\] in the paper).
//!
//! The paper's statistics collectors estimate the number of unique
//! values of group-by attributes "using the bitmap approach of \[6\]"
//! (§2.2). This is PCSA: `m` bitmaps updated by hashed stochastic
//! averaging; the estimate is `m/φ · 2^(mean first-zero position)`.

/// Flajolet–Martin / PCSA distinct-count sketch.
///
/// ```
/// use mq_stats::FmSketch;
/// let mut s = FmSketch::new(64);
/// for i in 0..5000u64 {
///     s.observe(&(i % 700)); // 700 distinct values
/// }
/// let est = s.estimate();
/// assert!(est > 350.0 && est < 1400.0, "{est}");
/// ```
#[derive(Debug, Clone)]
pub struct FmSketch {
    maps: Vec<u64>,
    count: u64,
}

/// Flajolet–Martin magic constant φ.
const PHI: f64 = 0.77351;

impl FmSketch {
    /// Create a sketch with `m` bitmaps (power of two; 64 is plenty for
    /// the accuracy the re-optimizer needs).
    pub fn new(m: usize) -> FmSketch {
        assert!(m.is_power_of_two(), "bitmap count must be a power of two");
        FmSketch {
            maps: vec![0; m],
            count: 0,
        }
    }

    /// Observe a pre-hashed 64-bit key.
    pub fn observe_hash(&mut self, h: u64) {
        self.count += 1;
        let m = self.maps.len() as u64;
        let idx = (h & (m - 1)) as usize;
        let rest = h >> self.maps.len().trailing_zeros();
        let bit = rest.trailing_ones().min(63); // position of lowest zero bit
        self.maps[idx] |= 1 << bit;
    }

    /// Observe an arbitrary hashable key.
    pub fn observe<T: std::hash::Hash>(&mut self, key: &T) {
        use std::hash::Hasher;
        // Fixed-key FNV-1a: `std`'s default hash is unspecified across
        // versions, and sketches must estimate the same everywhere.
        let mut hasher = mq_common::Fnv1a::default();
        key.hash(&mut hasher);
        self.observe_hash(splitmix(hasher.finish()))
    }

    /// Rows observed (not distinct — raw stream length).
    pub fn observed(&self) -> u64 {
        self.count
    }

    /// Estimated distinct count.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let m = self.maps.len() as f64;
        let mean_r: f64 = self
            .maps
            .iter()
            .map(|&bm| bm.trailing_ones() as f64)
            .sum::<f64>()
            / m;
        let raw = m / PHI * 2f64.powf(mean_r);
        // PCSA over-estimates badly for tiny cardinalities; fall back to
        // linear counting when few bitmaps were touched.
        let untouched = self.maps.iter().filter(|&&b| b == 0).count() as f64;
        if untouched > 0.0 {
            let linear = m * (m / untouched).ln();
            if linear < 2.0 * m {
                return linear.max(1.0).min(self.count as f64);
            }
        }
        raw.max(1.0).min(self.count as f64)
    }

    /// Merge another sketch built with the same bitmap count.
    pub fn merge(&mut self, other: &FmSketch) {
        assert_eq!(self.maps.len(), other.maps.len(), "incompatible sketches");
        for (a, b) in self.maps.iter_mut().zip(&other.maps) {
            *a |= *b;
        }
        self.count += other.count;
    }
}

impl Default for FmSketch {
    fn default() -> Self {
        FmSketch::new(64)
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relative_error(est: f64, truth: f64) -> f64 {
        (est - truth).abs() / truth
    }

    #[test]
    fn empty_sketch() {
        let s = FmSketch::default();
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s.observed(), 0);
    }

    #[test]
    fn small_cardinalities_reasonable() {
        let mut s = FmSketch::default();
        for i in 0..20u64 {
            for _ in 0..50 {
                s.observe(&i);
            }
        }
        let est = s.estimate();
        assert!(relative_error(est, 20.0) < 0.6, "est {est} for 20");
    }

    #[test]
    fn large_cardinalities_within_30_percent() {
        for truth in [1000u64, 10_000, 100_000] {
            let mut s = FmSketch::new(128);
            for i in 0..truth {
                s.observe(&(i.wrapping_mul(2_654_435_761)));
            }
            let est = s.estimate();
            assert!(
                relative_error(est, truth as f64) < 0.3,
                "est {est} for {truth}"
            );
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = FmSketch::default();
        for _ in 0..100_000 {
            s.observe(&42u64);
        }
        let est = s.estimate();
        assert!(est <= 10.0, "est {est} for 1 distinct");
        assert_eq!(s.observed(), 100_000);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = FmSketch::new(64);
        let mut b = FmSketch::new(64);
        for i in 0..5000u64 {
            a.observe(&i);
        }
        for i in 2500..7500u64 {
            b.observe(&i);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        let est = merged.estimate();
        assert!(relative_error(est, 7500.0) < 0.35, "est {est} for 7500");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = FmSketch::new(48);
    }
}
