//! Counters, gauges, and log2-bucketed histograms with deterministic merge.
//!
//! Every metric update in this crate lands in a thread-local shard (see
//! [`crate::span`]); shards are merged into a [`MetricsSnapshot`] with
//! commutative, associative operations only — counter *sum*, gauge *max*,
//! histogram *bucket-wise sum* — so the merged result is identical for any
//! worker count and any flush interleaving.

use std::collections::BTreeMap;

use serde::Serialize;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`; bucket 64 holds everything from
/// `2^63` up (including `u64::MAX`).
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed latency/size histogram.
///
/// # Examples
///
/// ```
/// use tensorlib_obs::Histogram;
/// let mut h = Histogram::new();
/// h.record(0);
/// h.record(1);
/// h.record(900);
/// assert_eq!(h.count, 3);
/// assert_eq!(h.max, 900);
/// assert!(h.p99() >= 900);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Bucket counts, [`HIST_BUCKETS`] long.
    pub buckets: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded value (0 while empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Maps a value to its log2 bucket: 0 → 0, v → `64 - leading_zeros(v)`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges `other` into `self` bucket-wise. Commutative and associative,
    /// so cross-worker merge order never changes the result.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of recorded values (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding quantile `q` in `[0, 1]` — an
    /// upper estimate within one power of two of the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(b).min(self.max);
            }
        }
        self.max
    }

    /// The p50 upper estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The p99 upper estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Largest value a bucket can hold: bucket 0 → 0, bucket b → `2^b - 1`.
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// One thread's unmerged metric shard. All plain integers — updating a
/// metric is a `BTreeMap` upsert on memory only this thread touches.
#[derive(Debug, Default, Clone)]
pub(crate) struct LocalMetrics {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, u64>,
    pub hists: BTreeMap<&'static str, Histogram>,
}

/// The merged, worker-count-independent view of all metric shards.
#[derive(Debug, Default, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Monotonic event counts, summed across threads.
    pub counters: BTreeMap<String, u64>,
    /// High-watermark gauges, maxed across threads.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms, bucket-wise summed across threads.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Merges one thread shard into the snapshot.
    pub(crate) fn absorb(&mut self, shard: &LocalMetrics) {
        for (k, v) in &shard.counters {
            *self.counters.entry((*k).to_string()).or_insert(0) += v;
        }
        for (k, v) in &shard.gauges {
            let e = self.gauges.entry((*k).to_string()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, h) in &shard.hists {
            self.histograms
                .entry((*k).to_string())
                .or_default()
                .merge(h);
        }
    }

    /// Merges another snapshot (same commutative semantics as
    /// [`MetricsSnapshot::absorb`]).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_default()
                .merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log2 bucket boundaries, pinned exactly: 0 is its own bucket and
    /// every power of two starts a new one.
    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        for b in 1..64usize {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(bucket_index(lo), b, "lower boundary of bucket {b}");
            assert_eq!(bucket_index(hi), b, "upper boundary of bucket {b}");
        }
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert!(bucket_index(u64::MAX) < HIST_BUCKETS);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1007);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[3], 1); // 5 ∈ [4, 8)
        assert_eq!(h.buckets[10], 1); // 1000 ∈ [512, 1024)
        // Quantile estimates stay within the recorded range.
        assert!(h.p50() <= h.max);
        assert!(h.p99() <= h.max);
        assert!(h.p99() >= h.p50());
        assert!(h.mean() > 0.0);
    }

    /// Merge is commutative and associative: any split of the same records
    /// across shards produces the identical merged histogram.
    #[test]
    fn histogram_merge_is_deterministic_across_shardings() {
        let values: Vec<u64> = (0..500).map(|i| (i * i * 31) % 10_000).collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        for shards in [1usize, 2, 3, 7] {
            let mut parts: Vec<Histogram> = vec![Histogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                parts[i % shards].record(v);
            }
            // Merge forwards and backwards; both must equal the unsharded run.
            let mut fwd = Histogram::new();
            for p in &parts {
                fwd.merge(p);
            }
            let mut rev = Histogram::new();
            for p in parts.iter().rev() {
                rev.merge(p);
            }
            assert_eq!(fwd, whole, "{shards} shards, forward merge");
            assert_eq!(rev, whole, "{shards} shards, reverse merge");
        }
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_gauges() {
        let mut a = MetricsSnapshot::default();
        let mut shard1 = LocalMetrics::default();
        shard1.counters.insert("n", 3);
        shard1.gauges.insert("hw", 10);
        let mut shard2 = LocalMetrics::default();
        shard2.counters.insert("n", 4);
        shard2.gauges.insert("hw", 7);
        a.absorb(&shard1);
        a.absorb(&shard2);
        let mut b = MetricsSnapshot::default();
        b.absorb(&shard2);
        b.absorb(&shard1);
        assert_eq!(a, b, "absorb order must not matter");
        assert_eq!(a.counters["n"], 7);
        assert_eq!(a.gauges["hw"], 10);
    }
}
