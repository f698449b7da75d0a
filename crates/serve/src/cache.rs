//! Content-addressed result cache with LRU eviction.
//!
//! A simulation run is a pure function of `(source, options)` — the
//! worker recycling proptests (`tests/machine_reuse.rs`) prove no state
//! leaks between jobs — so responses can be cached by content hash and
//! replayed byte-for-byte. Keys are FNV-1a 64 over the canonical key
//! material; because 64 bits can collide in principle, every entry
//! stores its key material and a lookup that hashes equal but compares
//! different is treated as a miss (never serve the wrong program's
//! result).

use std::collections::HashMap;

/// The cache's key hash, re-exported from `mt-obs` where it lives.
pub use mt_obs::fnv1a64;

/// One cached response.
#[derive(Debug, Clone)]
struct Entry {
    /// Full key material, compared on lookup to rule out hash collisions.
    key_material: String,
    /// Response status.
    status: u16,
    /// Response body.
    body: String,
    /// LRU stamp: the logical time of the last hit or insert.
    last_used: u64,
}

/// A bounded map from job key material to finished responses.
#[derive(Debug)]
pub struct ResultCache {
    entries: HashMap<u64, Entry>,
    capacity: usize,
    /// Monotonic logical clock; bumped on every touch.
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` responses (0 disables caching).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: HashMap::with_capacity(capacity.min(1024)),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key_material`, bumping its recency on a hit.
    pub fn get(&mut self, key_material: &str) -> Option<(u16, String)> {
        self.tick += 1;
        let key = fnv1a64(key_material.as_bytes());
        match self.entries.get_mut(&key) {
            Some(e) if e.key_material == key_material => {
                e.last_used = self.tick;
                self.hits += 1;
                Some((e.status, e.body.clone()))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a finished response, evicting the least-recently-used
    /// entry if the cache is full. A hash collision with a *different*
    /// program keeps the resident entry (first writer wins; the new
    /// result is simply not cached — correctness never depends on
    /// insertion).
    pub fn insert(&mut self, key_material: String, status: u16, body: String) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let key = fnv1a64(key_material.as_bytes());
        if let Some(resident) = self.entries.get_mut(&key) {
            if resident.key_material == key_material {
                resident.last_used = self.tick;
            }
            return;
        }
        if self.entries.len() >= self.capacity {
            // O(n) min-scan: capacities are small (hundreds) and eviction
            // is off the accept path, so a scan beats the bookkeeping of
            // an intrusive list.
            if let Some((&lru, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(
            key,
            Entry {
                key_material,
                status,
                body,
                last_used: self.tick,
            },
        );
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_replays_the_stored_response() {
        let mut c = ResultCache::new(4);
        assert_eq!(c.get("k1"), None);
        c.insert("k1".to_string(), 200, "body-1".to_string());
        assert_eq!(c.get("k1"), Some((200, "body-1".to_string())));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_in_recency_order() {
        let mut c = ResultCache::new(2);
        c.insert("a".to_string(), 200, "A".to_string());
        c.insert("b".to_string(), 200, "B".to_string());
        // Touch `a`, making `b` the LRU entry.
        assert!(c.get("a").is_some());
        c.insert("c".to_string(), 200, "C".to_string());
        assert_eq!(c.len(), 2);
        assert!(c.get("a").is_some(), "recently used survives");
        assert!(c.get("b").is_none(), "least recently used evicted");
        assert!(c.get("c").is_some());
        // The asserting gets above touched `a` then `c`, so the next
        // insert evicts `a`.
        c.insert("d".to_string(), 200, "D".to_string());
        assert!(c.get("a").is_none());
        assert!(c.get("c").is_some());
        assert!(c.get("d").is_some());
    }

    #[test]
    fn distinct_key_material_never_aliases() {
        let mut c = ResultCache::new(8);
        c.insert("source-1|opts".to_string(), 200, "one".to_string());
        c.insert("source-2|opts".to_string(), 200, "two".to_string());
        assert_eq!(c.get("source-1|opts").unwrap().1, "one");
        assert_eq!(c.get("source-2|opts").unwrap().1, "two");
        assert_eq!(c.get("source-1|opts2"), None, "option change is a miss");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert("k".to_string(), 200, "v".to_string());
        assert!(c.is_empty());
        assert_eq!(c.get("k"), None);
    }
}
