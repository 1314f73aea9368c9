//! A fully-associative LRU cache — the *ideal-cache model* the paper's cache-complexity
//! analysis uses (Frigo et al., cache-oblivious algorithms) and the reference simulator
//! behind the Figure 10 miss-ratio experiments.

use crate::stats::CacheStats;
use std::collections::{BTreeMap, HashMap};

/// A fully-associative cache of `capacity_bytes` with `line_bytes`-sized lines and LRU
/// replacement.
#[derive(Debug)]
pub struct IdealCache {
    line_bytes: usize,
    num_lines: usize,
    /// line tag -> LRU stamp
    stamps: HashMap<u64, u64>,
    /// LRU stamp -> line tag (the smallest stamp is the eviction victim)
    order: BTreeMap<u64, u64>,
    clock: u64,
    stats: CacheStats,
}

impl IdealCache {
    /// Creates a cache with `capacity_bytes` of storage and `line_bytes`-sized lines.
    pub fn new(capacity_bytes: usize, line_bytes: usize) -> Self {
        assert!(
            line_bytes > 0 && line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            capacity_bytes >= line_bytes,
            "capacity must hold at least one line"
        );
        IdealCache {
            line_bytes,
            num_lines: capacity_bytes / line_bytes,
            stamps: HashMap::new(),
            order: BTreeMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of lines the cache can hold (M/B in the paper's notation).
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and resets statistics.
    pub fn clear(&mut self) {
        self.stamps.clear();
        self.order.clear();
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Simulates an access of `bytes` bytes starting at byte address `addr`; accesses
    /// spanning a line boundary touch every covered line.  Returns `true` if every
    /// touched line hit.
    pub fn access(&mut self, addr: usize, bytes: usize) -> bool {
        let first = addr / self.line_bytes;
        let last = (addr + bytes.max(1) - 1) / self.line_bytes;
        let mut all_hit = true;
        for line in first..=last {
            if !self.touch_line(line as u64) {
                all_hit = false;
            }
        }
        all_hit
    }

    fn touch_line(&mut self, line: u64) -> bool {
        self.clock += 1;
        let stamp = self.clock;
        self.stats.accesses += 1;
        if let Some(old) = self.stamps.insert(line, stamp) {
            // Hit: refresh recency.
            self.order.remove(&old);
            self.order.insert(stamp, line);
            self.stats.hits += 1;
            true
        } else {
            // Miss: insert, evicting the least recently used line if full.
            self.order.insert(stamp, line);
            if self.stamps.len() > self.num_lines {
                if let Some((&victim_stamp, &victim_line)) = self.order.iter().next() {
                    self.order.remove(&victim_stamp);
                    self.stamps.remove(&victim_line);
                    self.stats.evictions += 1;
                }
            }
            self.stats.misses += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scan_misses_once_per_line() {
        let mut c = IdealCache::new(1024, 64);
        for addr in (0..4096).step_by(8) {
            c.access(addr, 8);
        }
        let s = c.stats();
        assert_eq!(s.accesses, 512);
        assert_eq!(s.misses, 4096 / 64);
        assert!((s.miss_ratio() - (64.0f64).recip() * 8.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_access_to_working_set_hits() {
        let mut c = IdealCache::new(1024, 64); // 16 lines
                                               // A working set of 8 lines accessed repeatedly: only compulsory misses.
        for _round in 0..10 {
            for line in 0..8 {
                c.access(line * 64, 8);
            }
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 72);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = IdealCache::new(256, 64); // 4 lines
                                              // Cyclic scan over 8 lines with LRU: every access misses after warmup.
        for _round in 0..5 {
            for line in 0..8 {
                c.access(line * 64, 1);
            }
        }
        assert_eq!(c.stats().misses, 40);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = IdealCache::new(1024, 64);
        c.access(60, 8); // covers lines 0 and 1
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 2);
        assert!(c.access(0, 1));
        assert!(c.access(64, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = IdealCache::new(128, 64); // 2 lines
        c.access(0, 1); // line 0
        c.access(64, 1); // line 1
        c.access(0, 1); // refresh line 0
        c.access(128, 1); // line 2 evicts line 1
        assert!(c.access(0, 1), "line 0 should still be resident");
        assert!(!c.access(64, 1), "line 1 should have been evicted");
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = IdealCache::new(256, 64);
        c.access(0, 1);
        c.clear();
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        let _ = IdealCache::new(1024, 48);
    }
}
