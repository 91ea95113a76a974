//! Per-operation bookkeeping: latency samples, attempted and failed
//! counts per operation class, output checks, and the LRU model that says
//! which request finds its session parked.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use crate::trace;

#[derive(Default)]
pub struct Class {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each operation that succeeded.
    pub lat_us: Vec<f64>,
}

#[derive(Default)]
pub struct Recorder {
    pub classes: BTreeMap<&'static str, Class>,
    /// Outputs that disagreed with the model (first few kept in `notes`).
    pub mismatches: u64,
    pub notes: Vec<String>,
    /// Metered guest instructions and WASI calls of the operations.
    pub minstr: u64,
    pub wasi_calls: u64,
    ops: u64,
}

impl Recorder {
    /// Time one operation of `class`; an `Err` counts as failed.
    pub fn op<T>(
        &mut self,
        class: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.ops += 1;
        trace::set_request(self.ops);
        let t = Instant::now();
        let out = trace::span("client", f);
        let us = t.elapsed().as_secs_f64() * 1e6;
        let c = self.classes.entry(class).or_default();
        c.attempted += 1;
        match out {
            Ok(v) => {
                c.lat_us.push(us);
                Some(v)
            }
            Err(e) => {
                c.failed += 1;
                self.note(format!("{class} failed: {e}"));
                None
            }
        }
    }

    /// Record a model check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            self.note(what());
        }
    }

    fn note(&mut self, s: String) {
        if self.notes.len() < 8 {
            self.notes.push(s);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.classes.values().map(|c| c.failed).sum()
    }

    /// Latencies of every successful operation.
    pub fn all_lat_us(&self) -> Vec<f64> {
        self.classes
            .values()
            .flat_map(|c| c.lat_us.iter().copied())
            .collect()
    }

    /// Microseconds the recorded operations take with every operation at
    /// its class's median latency: the count of each class times its
    /// median, summed. Unlike wall time, a burst of slow operations moves
    /// it only as far as it moves the medians.
    pub fn mix_us(&self) -> f64 {
        self.classes
            .values()
            .filter(|c| !c.lat_us.is_empty())
            .map(|c| c.lat_us.len() as f64 * crate::util::median(&c.lat_us))
            .sum()
    }

    /// Operations per second of the recorded mix at [`Self::mix_us`].
    pub fn mix_ops_per_s(&self) -> f64 {
        let n: usize = self.classes.values().map(|c| c.lat_us.len()).sum();
        let us = self.mix_us();
        if us > 0.0 {
            n as f64 / us * 1e6
        } else {
            0.0
        }
    }

    pub fn lat_us(&self, class: &str) -> &[f64] {
        self.classes.get(class).map_or(&[], |c| &c.lat_us)
    }

    /// Fold another recorder's counts and checks into this one.
    pub fn absorb(&mut self, other: Recorder) {
        for (k, c) in other.classes {
            let e = self.classes.entry(k).or_default();
            e.attempted += c.attempted;
            e.failed += c.failed;
            e.lat_us.extend(c.lat_us);
        }
        self.mismatches += other.mismatches;
        for n in other.notes {
            self.note(n);
        }
        self.minstr += other.minstr;
        self.wasi_calls += other.wasi_calls;
    }
}

/// The control plane's eviction policy as the client sees it: per shard,
/// at most `budget` live sessions; touching a session makes it the most
/// recently used (restoring it if parked), and whenever a shard is over
/// budget its least recently used other session is parked.
pub struct Lru {
    budget: Option<usize>,
    shards: usize,
    /// Per shard, live sessions from least to most recently used.
    live: Vec<Vec<String>>,
    parked: HashSet<String>,
}

impl Lru {
    pub fn new(shards: usize, budget: Option<usize>) -> Self {
        Self {
            budget,
            shards,
            live: vec![Vec::new(); shards],
            parked: HashSet::new(),
        }
    }

    /// Use `name`: returns whether it was parked, and the sessions parked
    /// to make room for it.
    pub fn touch(&mut self, name: &str) -> (bool, Vec<String>) {
        let live = &mut self.live[crate::util::shard_of(name, self.shards)];
        let was_parked = self.parked.remove(name);
        if let Some(i) = live.iter().position(|n| n == name) {
            let n = live.remove(i);
            live.push(n);
        } else {
            live.push(name.to_string());
        }
        let mut victims = Vec::new();
        if let Some(b) = self.budget {
            while live.len() > b.max(1) {
                let v = live.remove(0);
                self.parked.insert(v.clone());
                victims.push(v);
            }
        }
        (was_parked, victims)
    }

    pub fn close(&mut self, name: &str) {
        self.parked.remove(name);
        self.live[crate::util::shard_of(name, self.shards)].retain(|n| n != name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_parks_the_least_recently_used_on_its_shard() {
        let mut lru = Lru::new(1, Some(2));
        assert_eq!(lru.touch("a"), (false, vec![]));
        assert_eq!(lru.touch("b"), (false, vec![]));
        assert_eq!(lru.touch("a"), (false, vec![]));
        assert_eq!(lru.touch("c"), (false, vec!["b".to_string()]));
        assert_eq!(lru.touch("b"), (true, vec!["a".to_string()]));
        lru.close("c");
        assert_eq!(lru.touch("a"), (true, vec![]));
    }

    #[test]
    fn recorder_counts_failures_per_class() {
        let mut r = Recorder::default();
        assert_eq!(r.op("read", || Ok::<_, String>(1)), Some(1));
        assert_eq!(r.op("read", || Err::<u8, _>("boom".to_string())), None);
        r.check(false, || "wrong".into());
        assert_eq!((r.attempted(), r.failed(), r.mismatches), (2, 1, 1));
        assert_eq!(r.lat_us("read").len(), 1);
    }

    #[test]
    fn mix_rate_weights_each_class_median_by_its_count() {
        let mut r = Recorder::default();
        r.classes.insert(
            "a",
            Class {
                attempted: 3,
                failed: 0,
                lat_us: vec![10.0, 20.0, 1000.0],
            },
        );
        r.classes.insert(
            "b",
            Class {
                attempted: 1,
                failed: 0,
                lat_us: vec![40.0],
            },
        );
        // 3 x 20 us + 1 x 40 us = 100 us for 4 operations.
        assert!((r.mix_ops_per_s() - 40_000.0).abs() < 1e-6);
    }
}
