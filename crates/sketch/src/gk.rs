//! Greenwald–Khanna ε-approximate quantile sketch.
//!
//! The sketch maintains a summary of tuples `(v, g, Δ)` such that for any rank
//! query the returned value's true rank differs from the requested rank by at
//! most `ε·n`. The paper uses GK quantiles (via [Wang et al., SIGMOD'13]) to
//! derive the right borders of equi-height histogram buckets.

/// One entry of the GK summary.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GkEntry {
    /// The sampled value.
    value: f64,
    /// Number of observations represented by this entry (gap to previous entry's
    /// minimum rank).
    g: u64,
    /// Uncertainty in the rank of this entry.
    delta: u64,
}

/// Greenwald–Khanna quantile sketch over `f64` observations.
#[derive(Debug, Clone)]
pub struct GkSketch {
    epsilon: f64,
    entries: Vec<GkEntry>,
    count: u64,
    /// Observations buffered since the last compress.
    buffer: Vec<f64>,
}

impl GkSketch {
    /// Creates a sketch with the given rank-error bound `epsilon` (e.g. 0.01 for
    /// 1% of n).
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
        Self {
            epsilon,
            entries: Vec::new(),
            count: 0,
            buffer: Vec::with_capacity(256),
        }
    }

    /// The configured error bound.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of observations inserted so far.
    pub fn count(&self) -> u64 {
        self.count + self.buffer.len() as u64
    }

    /// Inserts one observation.
    pub fn insert(&mut self, value: f64) {
        self.buffer.push(value);
        if self.buffer.len() >= 256 {
            self.flush();
        }
    }

    /// Inserts many observations.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for v in values {
            self.insert(v);
        }
    }

    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut buf = std::mem::take(&mut self.buffer);
        buf.sort_by(|a, b| a.total_cmp(b));
        // The buffer is sorted: no entry before the previous value's
        // insertion point is >= that value, so none is >= this one either,
        // and the scan resumes there instead of at 0. A NaN compares false
        // with every entry and lands at the end, so it leaves the resume
        // point where it was.
        let mut from = 0;
        for v in buf {
            let pos = self.insert_sorted(v, from);
            if !v.is_nan() {
                from = pos;
            }
        }
        self.compress();
    }

    /// Inserts `value` before the first entry at index `from` or later whose
    /// value is `>= value` (at the end when there is none) and returns the
    /// index it landed at. No entry before `from` may be `>= value`.
    fn insert_sorted(&mut self, value: f64, from: usize) -> usize {
        self.count += 1;
        let delta = if self.entries.is_empty() {
            0
        } else {
            (2.0 * self.epsilon * self.count as f64).floor() as u64
        };
        let pos = self.entries[from..]
            .iter()
            .position(|e| e.value >= value)
            .map_or(self.entries.len(), |i| from + i);
        let delta = if pos == 0 || pos == self.entries.len() {
            0
        } else {
            delta.saturating_sub(1)
        };
        self.entries.insert(pos, GkEntry { value, g: 1, delta });
        pos
    }

    fn compress(&mut self) {
        if self.entries.len() < 3 {
            return;
        }
        let threshold = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        let mut compressed: Vec<GkEntry> = Vec::with_capacity(self.entries.len());
        // Keep the first entry always; try to merge each entry into its successor.
        for entry in self.entries.drain(..) {
            let can_merge = match compressed.last() {
                Some(last) if compressed.len() > 1 => last.g + entry.g + entry.delta <= threshold,
                _ => false,
            };
            if can_merge {
                let last = compressed.last_mut().expect("checked non-empty");
                *last = GkEntry {
                    value: entry.value,
                    g: last.g + entry.g,
                    delta: entry.delta,
                };
            } else {
                compressed.push(entry);
            }
        }
        self.entries = compressed;
    }

    /// Returns the ε-approximate `phi`-quantile (`phi` in `[0, 1]`).
    ///
    /// Returns `None` if the sketch is empty.
    pub fn quantile(&mut self, phi: f64) -> Option<f64> {
        self.flush();
        if self.entries.is_empty() {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let rank = (phi * self.count as f64).ceil() as u64;
        let target = rank + (self.epsilon * self.count as f64) as u64;
        let mut rmin = 0u64;
        for entry in &self.entries {
            rmin += entry.g;
            if rmin + entry.delta >= target || rmin >= rank.max(1) {
                return Some(entry.value);
            }
        }
        self.entries.last().map(|e| e.value)
    }

    /// Returns `n + 1` quantile boundaries splitting the data into `n`
    /// (approximately) equal-height buckets: `[q(0), q(1/n), ..., q(1)]`.
    pub fn boundaries(&mut self, buckets: usize) -> Vec<f64> {
        assert!(buckets >= 1);
        self.flush();
        if self.entries.is_empty() {
            return Vec::new();
        }
        (0..=buckets)
            .map(|i| self.quantile(i as f64 / buckets as f64).expect("non-empty"))
            .collect()
    }

    /// Number of summary entries currently retained (after an explicit flush).
    pub fn summary_size(&mut self) -> usize {
        self.flush();
        self.entries.len()
    }

    /// Merges another sketch into this one. GK sketches are not natively
    /// mergeable without inflating ε, so — matching what a per-partition
    /// collection followed by a coordinator merge does in practice — we re-feed
    /// the other summary's values weighted by their `g` counts.
    pub fn merge(&mut self, other: &GkSketch) {
        let mut other = other.clone();
        other.flush();
        for entry in &other.entries {
            for _ in 0..entry.g {
                self.insert(entry.value);
            }
        }
        for v in &other.buffer {
            self.insert(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl IntoIterator<Item = f64>, eps: f64) -> GkSketch {
        let mut s = GkSketch::new(eps);
        s.extend(values);
        s
    }

    /// Flushing resumes each insertion scan at the previous insertion point;
    /// the summary must equal the one from scanning every value from index 0,
    /// entry for entry, NaNs of both signs, signed zeros and repeats included.
    #[test]
    fn flush_matches_inserting_each_value_from_the_front() {
        let specials = [f64::NAN, -f64::NAN, -0.0, 0.0, f64::INFINITY, 3.0];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..20 {
            let values: Vec<f64> = (0..3_072)
                .map(|_| {
                    let r = next();
                    match r % 10 {
                        0 if round % 2 == 1 => specials[(r >> 8) as usize % specials.len()],
                        1..=3 => ((r >> 8) % 16) as f64,
                        _ => ((r >> 8) % 100_000) as f64 / 7.0 - 5_000.0,
                    }
                })
                .collect();
            // 12 full buffers, so both sketches end with every value flushed.
            let fast = sketch_of(values.iter().copied(), 0.01);
            let mut reference = GkSketch::new(0.01);
            for chunk in values.chunks(256) {
                let mut sorted = chunk.to_vec();
                sorted.sort_by(|a, b| a.total_cmp(b));
                for v in sorted {
                    reference.insert_sorted(v, 0);
                }
                reference.compress();
            }
            let bits = |s: &GkSketch| -> Vec<(u64, u64, u64)> {
                s.entries
                    .iter()
                    .map(|e| (e.value.to_bits(), e.g, e.delta))
                    .collect()
            };
            assert_eq!(bits(&fast), bits(&reference), "round {round}");
        }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let mut s = GkSketch::new(0.01);
        assert_eq!(s.quantile(0.5), None);
        assert!(s.boundaries(4).is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_value() {
        let mut s = sketch_of([42.0], 0.01);
        assert_eq!(s.quantile(0.0), Some(42.0));
        assert_eq!(s.quantile(0.5), Some(42.0));
        assert_eq!(s.quantile(1.0), Some(42.0));
    }

    #[test]
    fn median_of_uniform_sequence() {
        let n = 10_000;
        let mut s = sketch_of((0..n).map(|i| i as f64), 0.01);
        let med = s.quantile(0.5).unwrap();
        let err = (med - (n as f64) / 2.0).abs() / n as f64;
        assert!(err <= 0.02, "median rank error {err} too large");
    }

    #[test]
    fn extreme_quantiles() {
        let n = 5_000;
        let mut s = sketch_of((0..n).map(|i| i as f64), 0.01);
        assert!(s.quantile(0.0).unwrap() <= 100.0);
        assert!(s.quantile(1.0).unwrap() >= (n - 100) as f64);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut s = sketch_of((0..20_000).map(|i| ((i * 37) % 1000) as f64), 0.01);
        let qs: Vec<f64> = (0..=10)
            .map(|i| s.quantile(i as f64 / 10.0).unwrap())
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be non-decreasing: {qs:?}");
        }
    }

    #[test]
    fn summary_is_sublinear() {
        let mut s = sketch_of((0..50_000).map(|i| (i % 999) as f64), 0.01);
        assert!(
            s.summary_size() < 5_000,
            "summary size {} should be far below n",
            s.summary_size()
        );
    }

    #[test]
    fn boundaries_cover_range() {
        let mut s = sketch_of((0..1_000).map(|i| i as f64), 0.01);
        let b = s.boundaries(10);
        assert_eq!(b.len(), 11);
        assert!(b[0] <= 20.0);
        assert!(b[10] >= 980.0);
        for w in b.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = sketch_of((0..1000).map(|i| i as f64), 0.02);
        let b = sketch_of((1000..2000).map(|i| i as f64), 0.02);
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        let med = a.quantile(0.5).unwrap();
        assert!((med - 1000.0).abs() <= 100.0, "merged median {med}");
    }

    #[test]
    fn skewed_data_quantiles() {
        // 90% of values are 0, 10% are 100.
        let mut s = GkSketch::new(0.01);
        for i in 0..10_000 {
            s.insert(if i % 10 == 0 { 100.0 } else { 0.0 });
        }
        assert_eq!(s.quantile(0.5).unwrap(), 0.0);
        assert_eq!(s.quantile(0.85).unwrap(), 0.0);
        assert_eq!(s.quantile(0.99).unwrap(), 100.0);
    }
}
