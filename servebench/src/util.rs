//! Seeded randomness, shard placement and sample statistics.

/// SplitMix64: every input the benchmark generates derives from `--seed`
/// through this generator, so the same seed gives the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_ba5e_0000_0001)
    }

    /// An independent stream for one purpose (kernel order, tenant draw, ...).
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng(self.next_u64() ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The placement `ShardedService::shard_of` uses (FNV-1a 64 of the name,
/// modulo the shard count). The benchmark names sessions so that they
/// spread evenly over the shards whatever the seed; the test below holds
/// it to the service's own answer.
pub fn shard_of(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// The first name `"{prefix}-{tag}-{k}"` (k = 0, 1, ...) that lands on
/// `shard` of `shards`.
pub fn name_on_shard(prefix: &str, tag: u64, shard: usize, shards: usize) -> String {
    (0u64..)
        .map(|k| format!("{prefix}-{tag:x}-{k}"))
        .find(|n| shard_of(n, shards) == shard)
        .expect("some name lands on every shard")
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of a sorted slice.
fn rank(sorted: &[f64], p: f64) -> usize {
    ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1
}

/// The highest of p99.9, p99 and p90 that has at least ten samples beyond
/// it, as `(name, value)`. With fewer than forty samples there is no
/// tail worth the name and nothing is returned: a tail percentile backed
/// by a handful of samples moves with every run.
pub fn tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    if samples.len() < 40 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    [("p999_us", 0.999), ("p99_us", 0.99), ("p90_us", 0.90)]
        .into_iter()
        .find(|&(_, p)| v.len() - 1 - rank(&v, p) >= 10)
        .map(|(label, p)| (label, v[rank(&v, p)]))
}

/// A `kB` field of `/proc/self/status`, in MiB (0 where it cannot be read).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set of this process now, in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn hwm_mib() -> f64 {
    status_mib("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&v), None, "under forty samples: median only");
        // 100 samples: p90 has 10 beyond it, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p90_us", 90.0)));
        // 1000 samples: p99 has 10 beyond it, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p99_us", 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p999_us", 9990.0)));
        // Between the thresholds the lower tail is kept.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some("p90_us"));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seeded_streams_repeat() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn names_land_on_the_requested_shard() {
        let svc = twine_core::TwineBuilder::new().build_sharded(2);
        for shard in 0..2 {
            let name = name_on_shard("t", 3, shard, 2);
            assert_eq!(shard_of(&name, 2), shard);
            assert_eq!(
                svc.shard_of(&name),
                shard,
                "placement as the service sees it"
            );
        }
    }
}
