//! Content-addressed result caching.
//!
//! [`ResultCache`] is a sharded, byte-budgeted, LRU-evicting map from the
//! 128-bit hash of a parsed system's presentation code
//! (`SystemSpec::canonical_form`) to the rendered `POST /analyze`
//! response body. The code is the system as presented — names, labels,
//! order and every number — because the rendered body names every task
//! and vertex. Every hit **verifies** the stored code in full before
//! replaying, so a hash collision degrades to a miss, never to a wrong
//! body. Only exact (non-degraded), fault-free results are stored: an
//! exact report is a pure function of the parsed system, so a replayed
//! body is byte-identical to what a cold run would produce — modulo
//! `runtime_secs`, the document's only nondeterministic field. A
//! request's deadline is therefore not part of the key: a deadline that
//! never tripped leaves no trace in an exact body, and a deadlined
//! request that hits gets the exact answer instead of a possibly
//! degraded recompute.
//!
//! **The request index.** A byte-identical re-send parses to the same
//! system, so it can only ever land on the entry its first hit found.
//! The first verified hit of a `POST /analyze` therefore attaches the
//! request body to the entry that answered it (an entry keeps the first
//! body attached to it), and a small index maps a digest of those bytes
//! to the entry's key. The server looks a raw body up there before
//! parsing it: the digest only locates a candidate, and the body is
//! replayed only when the entry's stored bytes equal it byte for byte.
//! The bytes are stored once, in the entry, and count in its size, in
//! [`ResultCache::bytes`] and in the shard's budget; they leave the
//! index with their entry, whether it is evicted or re-inserted under
//! the same key. A miss, an insert and a warm-load attach nothing, so
//! traffic that never repeats stores no request bytes, and nothing of the
//! index is spilled.
//!
//! Nothing else outlives a request: each analysis explores its streams
//! afresh, exactly as on the CLI, and `POST /analyze/delta` reads the
//! cache only through the edited system's own key. An entry warm-loaded
//! from a spill file has the same shape as one computed in this process.
//!
//! Replicas under `--replicas N` are shared-nothing: each has its own
//! independent cache (documented in the README); the parent aggregates
//! the per-replica counters in `/stats`.

use srtw_core::textfmt::PresentationCode;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Shard count for the response cache (fixed power of two). The persist
/// layer mirrors this: one spill file per shard, addressed by the same
/// `key & (SHARDS - 1)` index, so a shard's spill file replays into the
/// same shard it was written from.
pub(crate) const SHARDS: usize = 8;

/// Retained bytes charged for a request-index slot on top of the
/// attached body: the digest and key in the index map, the digest and
/// boxed-slice header in the entry.
const INDEX_SLOT_BYTES: usize = 64;

struct Entry {
    /// The full presentation code, compared on every hit (collision
    /// safety).
    form: PresentationCode,
    /// The rendered 200 body, exactly as first sent.
    body: String,
    /// The request body attached on the entry's first hit, and
    /// its [`request_digest`] (its key in the request index).
    request: Option<(u64, Box<[u8]>)>,
    /// Approximate retained bytes, attached request included.
    bytes: usize,
    /// LRU clock value of the last touch.
    last_used: u64,
}

/// One shard: its entries and their byte total.
#[derive(Default)]
struct Shard {
    map: HashMap<u128, Entry>,
    /// Sum of `map`'s entry sizes.
    used: usize,
}

/// Sharded, byte-budgeted response cache (see module docs).
#[derive(Default)]
pub(crate) struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// The request index: [`request_digest`] of an attached request body
    /// → the key of the entry holding those bytes, sharded by
    /// the digest. A cache shard's lock is always taken before an index
    /// shard's, and the lookup never holds both.
    requests: Vec<Mutex<HashMap<u64, u128>>>,
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
fn entry_bytes(form: &PresentationCode, body: &str) -> usize {
    body.len() + form.approx_bytes() + 128
}

/// The request-index key of a body: a word-at-a-time multiplicative hash
/// (FxHash's mixing step). It only locates a candidate entry; a hit
/// compares the stored bytes in full.
fn request_digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    let mut h = bytes.len() as u64;
    for c in &mut chunks {
        h = step(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    chunks.remainder().iter().fold(h, |h, &b| step(h, b as u64))
}

impl ResultCache {
    /// A cache spreading `byte_budget` bytes over its shards.
    /// `byte_budget == 0` disables caching entirely.
    pub fn new(byte_budget: usize) -> ResultCache {
        ResultCache {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            requests: (0..SHARDS).map(|_| Mutex::default()).collect(),
            shard_budget: byte_budget / SHARDS,
            clock: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Which shard a key lives in — also the spill-file index the
    /// persist layer uses for it.
    pub fn shard_index(key: u128) -> usize {
        (key as usize) & (SHARDS - 1)
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[ResultCache::shard_index(key)]
    }

    fn index(&self, digest: u64) -> &Mutex<HashMap<u64, u128>> {
        &self.requests[(digest as usize) & (SHARDS - 1)]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// `true` when the cache can never store anything.
    pub fn disabled(&self) -> bool {
        self.shard_budget == 0
    }

    /// Looks up a stored body, verifying the stored presentation code
    /// against `form`. A verified hit refreshes LRU recency and
    /// returns the body byte-identical to the original response. With
    /// `request`, a hit on an entry that has no request attached yet
    /// attaches those bytes to it (see the module docs), when they fit
    /// the shard's budget.
    pub fn lookup(
        &self,
        key: u128,
        form: &PresentationCode,
        request: Option<&[u8]>,
    ) -> Option<String> {
        if self.disabled() {
            return None;
        }
        let mut shard = self.shard(key).lock().unwrap();
        let entry = shard.map.get_mut(&key)?;
        if entry.form != *form {
            return None;
        }
        entry.last_used = self.tick();
        let body = entry.body.clone();
        if let Some(request) = request.filter(|_| entry.request.is_none()) {
            self.attach(&mut shard, key, request);
        }
        Some(body)
    }

    /// Attaches `request` to the entry under `key`, which was just
    /// touched, evicting other least-recently-used entries of its shard
    /// to make room: the entry is the shard's most recently used, so it
    /// would go last, and it fits alone. Attaches nothing when the grown
    /// entry would not fit the shard at all, or when the request's digest
    /// already locates another entry (a digest collision: the first
    /// attachment keeps the slot).
    fn attach(&self, shard: &mut Shard, key: u128, request: &[u8]) {
        let extra = request.len() + INDEX_SLOT_BYTES;
        if shard.map[&key].bytes + extra > self.shard_budget {
            return;
        }
        let digest = request_digest(request);
        {
            let mut index = self.index(digest).lock().unwrap();
            if index.contains_key(&digest) {
                return;
            }
            index.insert(digest, key);
        }
        self.make_room(shard, extra);
        let entry = shard
            .map
            .get_mut(&key)
            .expect("the entry being attached to");
        entry.request = Some((digest, request.into()));
        entry.bytes += extra;
        shard.used += extra;
        self.bytes.fetch_add(extra as u64, Ordering::Relaxed);
    }

    /// Answers a raw `POST /analyze` body from the request index: the
    /// body of the entry whose attached request equals `request` byte for
    /// byte, or `None`. A hit refreshes LRU recency like [`Self::lookup`].
    pub fn lookup_request(&self, request: &[u8]) -> Option<String> {
        if self.disabled() {
            return None;
        }
        let digest = request_digest(request);
        let key = *self.index(digest).lock().unwrap().get(&digest)?;
        let mut shard = self.shard(key).lock().unwrap();
        let entry = shard.map.get_mut(&key)?;
        if entry.request.as_ref().map(|(_, bytes)| &**bytes) != Some(request) {
            return None;
        }
        entry.last_used = self.tick();
        Some(entry.body.clone())
    }

    /// Removes the entry under `key` from `shard`, its byte total, the
    /// global gauge and, with its attached request, the request index.
    fn remove(&self, shard: &mut Shard, key: u128) {
        let Some(entry) = shard.map.remove(&key) else {
            return;
        };
        shard.used -= entry.bytes;
        self.bytes.fetch_sub(entry.bytes as u64, Ordering::Relaxed);
        if let Some((digest, _)) = &entry.request {
            let mut index = self.index(*digest).lock().unwrap();
            if index.get(digest) == Some(&key) {
                index.remove(digest);
            }
        }
    }

    /// Evicts least-recently-used entries of `shard` until `extra` more
    /// bytes fit its budget.
    fn make_room(&self, shard: &mut Shard, extra: usize) {
        while shard.used + extra > self.shard_budget {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("over budget implies non-empty shard");
            self.remove(shard, victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stores a result, evicting least-recently-used entries from the
    /// key's shard until the entry fits its byte budget. An entry larger
    /// than the whole shard budget is not stored at all. Returns `true`
    /// when the entry was actually stored — the persist layer only spills
    /// entries the in-memory cache accepted.
    pub fn insert(&self, key: u128, form: PresentationCode, body: String) -> bool {
        if self.disabled() {
            return false;
        }
        let bytes = entry_bytes(&form, &body);
        if bytes > self.shard_budget {
            return false;
        }
        let mut shard = self.shard(key).lock().unwrap();
        self.remove(&mut shard, key);
        self.make_room(&mut shard, bytes);
        shard.used += bytes;
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        shard.map.insert(
            key,
            Entry {
                form,
                body,
                request: None,
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
    use srtw_core::textfmt::parse_system;

    fn tiny_form() -> PresentationCode {
        parse_system("task t\nvertex a wcet=2\nedge a a sep=8\n")
            .unwrap()
            .canonical_form()
    }

    #[test]
    fn hit_requires_a_code_match() {
        let form = tiny_form();
        let cache = ResultCache::new(1 << 20);
        let k = form.hash();
        assert!(cache.insert(k, form.clone(), "body\n".into()));
        assert_eq!(cache.lookup(k, &form, None).as_deref(), Some("body\n"));
        // Another code under the same key (a collision): a miss, not a
        // wrong body.
        let other = PresentationCode::from_code(vec![1]);
        assert!(cache.lookup(k, &other, None).is_none());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let form = tiny_form();
        // Budget sized so a shard holds roughly one entry.
        let one = entry_bytes(&form, "b");
        let cache = ResultCache::new(one * SHARDS + SHARDS);
        for k in 0..64u128 {
            cache.insert(k, form.clone(), "b".into());
        }
        assert!(cache.evictions() > 0);
        assert!(cache.bytes() <= (one as u64 + 1) * SHARDS as u64 + SHARDS as u64);
        // The most recent insert in its shard must have survived.
        assert!(cache.lookup(63, &form, None).is_some());
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let form = tiny_form();
        let cache = ResultCache::new(0);
        let k = form.hash();
        assert!(!cache.insert(k, form.clone(), "b".into()));
        assert!(cache.lookup(k, &form, None).is_none());
        assert_eq!(cache.bytes(), 0);
    }

    /// Entries in the request index, over all its shards.
    fn indexed(cache: &ResultCache) -> usize {
        cache.requests.iter().map(|m| m.lock().unwrap().len()).sum()
    }

    #[test]
    fn first_hit_attaches_the_request() {
        let form = tiny_form();
        let cache = ResultCache::new(1 << 20);
        let k = form.hash();
        let request = b"task t\nvertex a wcet=2\n".as_slice();
        assert!(cache.insert(k, form.clone(), "body\n".into()));
        // An insert attaches nothing.
        assert!(cache.lookup_request(request).is_none());
        assert_eq!(
            cache.lookup(k, &form, Some(request)).as_deref(),
            Some("body\n")
        );
        assert_eq!(cache.lookup_request(request).as_deref(), Some("body\n"));
        // A later hit with other bytes keeps the first attachment.
        let other = b"task t\nvertex a  wcet=2\n".as_slice();
        assert!(cache.lookup(k, &form, Some(other)).is_some());
        assert!(cache.lookup_request(other).is_none());
        assert_eq!(indexed(&cache), 1);
        // A miss attaches nothing either.
        let renamed = PresentationCode::from_code(vec![2]);
        assert!(cache.lookup(k, &renamed, Some(other)).is_none());
        assert!(cache.lookup_request(other).is_none());
    }

    #[test]
    fn a_request_with_other_bytes_never_gets_a_stored_body() {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        // Two 16-byte bodies with equal digests: the second word of `b`
        // cancels the difference the first word made.
        let (a1, a2, b1) = (0x1111_u64, 0x2222_u64, 0x3333_u64);
        let (ha, hb) = (step(16, a1), step(16, b1));
        let b2 = a2 ^ ha.rotate_left(5) ^ hb.rotate_left(5);
        let a = [a1.to_le_bytes(), a2.to_le_bytes()].concat();
        let b = [b1.to_le_bytes(), b2.to_le_bytes()].concat();
        assert_ne!(a, b);
        assert_eq!(request_digest(&a), request_digest(&b));

        let form = tiny_form();
        let cache = ResultCache::new(1 << 20);
        let k = form.hash();
        assert!(cache.insert(k, form.clone(), "body\n".into()));
        assert!(cache.lookup(k, &form, Some(&a)).is_some());
        assert_eq!(cache.lookup_request(&a).as_deref(), Some("body\n"));
        // Same digest, other bytes: a miss, never the stored body.
        assert!(cache.lookup_request(&b).is_none());
        // Prefixes, extensions and one flipped byte miss too.
        let mut flipped = a.clone();
        flipped[3] ^= 1;
        let longer = [a.as_slice(), b"\n".as_slice()].concat();
        for near in [&a[..15], &longer[..], &flipped[..]] {
            assert!(cache.lookup_request(near).is_none());
        }
    }

    #[test]
    fn index_entries_leave_with_their_cache_entry() {
        let form = tiny_form();
        let k = form.hash();
        let request = b"request bytes".as_slice();

        // Re-inserted under the same key.
        let cache = ResultCache::new(1 << 20);
        cache.insert(k, form.clone(), "first\n".into());
        cache.lookup(k, &form, Some(request));
        assert_eq!(indexed(&cache), 1);
        cache.insert(k, form.clone(), "again\n".into());
        assert_eq!(indexed(&cache), 0);
        assert!(cache.lookup_request(request).is_none());

        // Evicted under the byte budget: a shard holds one entry.
        let one = entry_bytes(&form, "b") + request.len() + INDEX_SLOT_BYTES;
        let cache = ResultCache::new(one * SHARDS);
        cache.insert(0, form.clone(), "b".into());
        cache.lookup(0, &form, Some(request));
        assert_eq!(cache.lookup_request(request).as_deref(), Some("b"));
        cache.insert(SHARDS as u128, form.clone(), "b".into());
        assert_eq!(cache.evictions(), 1);
        assert_eq!(indexed(&cache), 0);
        assert!(cache.lookup_request(request).is_none());
    }

    #[test]
    fn attached_bytes_count_in_the_budget() {
        let form = tiny_form();
        let request = vec![b'x'; 1000];
        let cache = ResultCache::new(1 << 20);
        cache.insert(0, form.clone(), "b".into());
        cache.insert(SHARDS as u128, form.clone(), "b".into());
        let before = cache.bytes();
        assert_eq!(before, 2 * entry_bytes(&form, "b") as u64);
        cache.lookup(0, &form, Some(&request));
        let attached = (request.len() + INDEX_SLOT_BYTES) as u64;
        assert_eq!(cache.bytes(), before + attached);
        let shard = cache.shard(0).lock().unwrap();
        assert_eq!(shard.used as u64, before + attached);
        assert_eq!(shard.map[&0].bytes as u64, before / 2 + attached);
        drop(shard);

        // Attaching evicts the shard's least recently used other entry
        // when the grown entry would not fit beside it.
        let one = entry_bytes(&form, "b");
        let cache = ResultCache::new((2 * one + 8) * SHARDS);
        cache.insert(0, form.clone(), "b".into());
        cache.insert(SHARDS as u128, form.clone(), "b".into());
        cache.lookup(0, &form, Some(b"0123456789"));
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(SHARDS as u128, &form, None).is_none());
        assert_eq!(cache.lookup_request(b"0123456789").as_deref(), Some("b"));
        assert_eq!(cache.bytes(), (one + 10 + INDEX_SLOT_BYTES) as u64);

        // A request that could never fit the shard is not attached.
        let cache = ResultCache::new((one + 8) * SHARDS);
        cache.insert(0, form.clone(), "b".into());
        assert!(cache.lookup(0, &form, Some(&request)).is_some());
        assert!(cache.lookup_request(&request).is_none());
        assert_eq!(cache.bytes(), one as u64);
        assert_eq!(cache.evictions(), 0);
    }
}
