//! Content-addressed result caching.
//!
//! [`ResultCache`] is a sharded, byte-budgeted, LRU-evicting map from the
//! 128-bit canonical system hash to the rendered `POST /analyze` response
//! body. Every hit
//! **verifies** the stored canonical form and the presentation digest
//! before replaying — hash collisions and canonicalization incompleteness
//! degrade to misses, never to wrong bodies (see `srtw_workload::canon`
//! for the soundness argument). Only exact (non-degraded), fault-free
//! results are stored: an exact report is a pure function of the parsed
//! system, so a replayed body is byte-identical to what a cold run would
//! produce — modulo `runtime_secs`, the document's only nondeterministic
//! field. A request's deadline is therefore not part of the key: a
//! deadline that never tripped leaves no trace in an exact body, and a
//! deadlined request that hits gets the exact answer instead of a
//! possibly degraded recompute.
//!
//! Nothing else outlives a request: each analysis explores its streams
//! afresh, exactly as on the CLI, and `POST /analyze/delta` reads the
//! cache only through the edited system's own key. An entry warm-loaded
//! from a spill file has the same shape as one computed in this process.
//!
//! Replicas under `--replicas N` are shared-nothing: each has its own
//! independent cache (documented in the README); the parent aggregates
//! the per-replica counters in `/stats`.

use srtw_workload::CanonicalForm;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shard count for the response cache (fixed power of two). The persist
/// layer mirrors this: one spill file per shard, addressed by the same
/// `canon & (SHARDS - 1)` index, so a shard's spill file replays into the
/// same shard it was written from.
pub(crate) const SHARDS: usize = 8;

struct Entry {
    /// Full canonical form, compared on every hit (collision safety).
    form: CanonicalForm,
    /// Presentation digest: task/vertex names and order. The rendered
    /// body carries names, so replaying it verbatim additionally
    /// requires the presentation to match.
    presentation: u64,
    /// The rendered 200 body, exactly as first sent.
    body: String,
    /// Approximate retained bytes.
    bytes: usize,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// Sharded, byte-budgeted response cache (see module docs).
#[derive(Default)]
pub(crate) struct ResultCache {
    shards: Vec<Mutex<HashMap<u128, Entry>>>,
    /// Byte budget per shard (total budget / shard count).
    shard_budget: usize,
    clock: AtomicU64,
    bytes: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .finish()
    }
}

/// Estimates the retained size of one entry: the body and the form.
fn entry_bytes(form: &CanonicalForm, body: &str) -> usize {
    body.len() + form.approx_bytes() + 128
}

impl ResultCache {
    /// A cache spreading `byte_budget` bytes over its shards.
    /// `byte_budget == 0` disables caching entirely.
    pub fn new(byte_budget: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_budget: byte_budget / SHARDS,
            clock: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Which shard a canonical hash lives in — also the spill-file index
    /// the persist layer uses for it.
    pub fn shard_index(canon: u128) -> usize {
        (canon as usize) & (SHARDS - 1)
    }

    fn shard(&self, canon: u128) -> &Mutex<HashMap<u128, Entry>> {
        &self.shards[ResultCache::shard_index(canon)]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// `true` when the cache can never store anything.
    pub fn disabled(&self) -> bool {
        self.shard_budget == 0
    }

    /// Looks up a stored body, verifying both the canonical form and the
    /// presentation digest. A verified hit refreshes LRU recency and
    /// returns the body byte-identical to the original response.
    pub fn lookup(&self, canon: u128, form: &CanonicalForm, presentation: u64) -> Option<String> {
        if self.disabled() {
            return None;
        }
        let mut shard = self.shard(canon).lock().unwrap();
        let entry = shard.get_mut(&canon)?;
        if entry.form != *form || entry.presentation != presentation {
            return None;
        }
        entry.last_used = self.tick();
        Some(entry.body.clone())
    }

    /// Stores a result, evicting least-recently-used entries from the
    /// key's shard until the entry fits its byte budget. An entry larger
    /// than the whole shard budget is not stored at all. Returns `true`
    /// when the entry was actually stored — the persist layer only spills
    /// entries the in-memory cache accepted.
    pub fn insert(
        &self,
        canon: u128,
        form: CanonicalForm,
        presentation: u64,
        body: String,
    ) -> bool {
        if self.disabled() {
            return false;
        }
        let bytes = entry_bytes(&form, &body);
        if bytes > self.shard_budget {
            return false;
        }
        let mut shard = self.shard(canon).lock().unwrap();
        if let Some(old) = shard.remove(&canon) {
            self.bytes.fetch_sub(old.bytes as u64, Ordering::Relaxed);
        }
        let mut used: usize = shard.values().map(|e| e.bytes).sum();
        while used + bytes > self.shard_budget {
            let victim = shard
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("over budget implies non-empty shard");
            let evicted = shard.remove(&victim).expect("victim exists");
            used -= evicted.bytes;
            self.bytes
                .fetch_sub(evicted.bytes as u64, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        shard.insert(
            canon,
            Entry {
                form,
                presentation,
                body,
                bytes,
                last_used: self.tick(),
            },
        );
        true
    }

    /// Approximate retained bytes across all shards (a `/stats` gauge).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted under the byte budget since startup.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::Q;
    use srtw_workload::{canonical_task_form, combine_forms, DrtTaskBuilder};

    fn tiny_form() -> CanonicalForm {
        let mut b = DrtTaskBuilder::new("t");
        let v = b.vertex("a", Q::int(2));
        b.edge(v, v, Q::int(8));
        combine_forms(vec![canonical_task_form(&b.build().unwrap())], &[])
    }

    #[test]
    fn hit_requires_form_and_presentation_match() {
        let form = tiny_form();
        let cache = ResultCache::new(1 << 20);
        let k = form.hash();
        assert!(cache.insert(k, form.clone(), 7, "body\n".into()));
        assert_eq!(cache.lookup(k, &form, 7).as_deref(), Some("body\n"));
        // Same key, different presentation: a miss, not a wrong body.
        assert!(cache.lookup(k, &form, 8).is_none());
        // Different form under the same key (a collision): a miss.
        let other = combine_forms(vec![], &[1]);
        assert!(cache.lookup(k, &other, 7).is_none());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let form = tiny_form();
        // Budget sized so a shard holds roughly one entry.
        let one = entry_bytes(&form, "b");
        let cache = ResultCache::new(one * SHARDS + SHARDS);
        for k in 0..64u128 {
            cache.insert(k, form.clone(), 1, "b".into());
        }
        assert!(cache.evictions() > 0);
        assert!(cache.bytes() <= (one as u64 + 1) * SHARDS as u64 + SHARDS as u64);
        // The most recent insert in its shard must have survived.
        assert!(cache.lookup(63, &form, 1).is_some());
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let form = tiny_form();
        let cache = ResultCache::new(0);
        let k = form.hash();
        assert!(!cache.insert(k, form.clone(), 1, "b".into()));
        assert!(cache.lookup(k, &form, 1).is_none());
        assert_eq!(cache.bytes(), 0);
    }
}
