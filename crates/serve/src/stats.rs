//! Service counters and a fixed-size latency ring.
//!
//! Counters are lock-free atomics bumped by workers and the acceptor;
//! latencies go into a bounded ring (old samples are overwritten), so
//! observability costs O(1) memory regardless of uptime — the same
//! "never unbounded" discipline as the admission queue.

use srtw_core::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the latency ring (recent `/analyze` requests).
pub const LATENCY_RING: usize = 1024;

#[derive(Debug)]
struct Ring {
    samples_us: Vec<u64>,
    next: usize,
    len: usize,
}

/// Point-in-time gauges the server samples when rendering `/stats` (they
/// live on the server/mux, not in the counter block).
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Admission-queue depth.
    pub queue_depth: usize,
    /// Analyses currently in flight.
    pub inflight: usize,
    /// Configured worker count.
    pub workers: usize,
    /// Connections currently tracked by the multiplexed acceptor.
    pub open_conns: usize,
    /// Open file descriptors of this process (`None` off procfs).
    pub fds: Option<usize>,
    /// `true` while draining.
    pub draining: bool,
    /// Replica index when running as a supervised replica.
    pub replica: Option<usize>,
    /// Approximate bytes retained by the result cache.
    pub cache_bytes: u64,
    /// Result-cache entries evicted under the byte budget.
    pub cache_evictions: u64,
}

/// Shared service counters; all methods are callable from any thread.
#[derive(Debug)]
pub struct Stats {
    /// Connections admitted past the gate.
    pub accepted: AtomicU64,
    /// Connections refused with 503 (queue full, connection cap, memory
    /// cap, or draining).
    pub shed: AtomicU64,
    /// Requests routed (all endpoints — the process-fault trigger counts
    /// these).
    pub requests: AtomicU64,
    /// Keep-alive connection reuses (requests beyond the first on one
    /// connection).
    pub reused: AtomicU64,
    /// Connections answered 408 after stalling past a read deadline.
    pub timeouts: AtomicU64,
    /// Connections answered 431 for an oversized request head.
    pub oversized_heads: AtomicU64,
    /// `/analyze` requests answered 200 with exact bounds.
    pub completed: AtomicU64,
    /// `/analyze` requests answered 200 with a degraded (still sound)
    /// bound.
    pub degraded: AtomicU64,
    /// `/analyze` requests answered 4xx/5xx.
    pub failed: AtomicU64,
    /// `POST /batch` requests accepted for streaming.
    pub batches: AtomicU64,
    /// Batch jobs executed fresh (supervised runs, not replays).
    pub batch_jobs: AtomicU64,
    /// Batch jobs answered from the journal instead of recomputed.
    pub batch_replayed: AtomicU64,
    /// `/analyze` (and `/analyze/delta`) answers replayed from the
    /// content-addressed result cache.
    pub cache_hits: AtomicU64,
    /// The share of `cache_hits` answered from the request index: a
    /// byte-identical re-send replayed before it was parsed.
    pub cache_request_hits: AtomicU64,
    /// Cache-eligible requests that had to run the analysis.
    pub cache_misses: AtomicU64,
    /// Cache entries warm-loaded from the spill store at startup.
    pub persist_loaded: AtomicU64,
    /// Cache entries spilled durably to disk.
    pub persist_stored: AtomicU64,
    /// Persistence failures (open/append/verify) — each degrades to a
    /// cold in-memory cache, never to a changed response.
    pub persist_errors: AtomicU64,
    ring: Mutex<Ring>,
}

impl Default for Stats {
    fn default() -> Stats {
        Stats {
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            oversized_heads: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_jobs: AtomicU64::new(0),
            batch_replayed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_request_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            persist_loaded: AtomicU64::new(0),
            persist_stored: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
            ring: Mutex::new(Ring {
                samples_us: vec![0; LATENCY_RING],
                next: 0,
                len: 0,
            }),
        }
    }
}

impl Stats {
    /// Fresh zeroed counters.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Records one `/analyze` latency (microseconds).
    pub fn note_latency_us(&self, us: u64) {
        let mut r = self.ring.lock().unwrap();
        let slot = r.next;
        r.samples_us[slot] = us;
        r.next = (slot + 1) % LATENCY_RING;
        r.len = (r.len + 1).min(LATENCY_RING);
    }

    /// `(count, p50, p99)` in microseconds over the ring, if any samples
    /// were recorded.
    pub fn latency_quantiles_us(&self) -> Option<(usize, u64, u64)> {
        let r = self.ring.lock().unwrap();
        if r.len == 0 {
            return None;
        }
        let mut window: Vec<u64> = r.samples_us[..r.len].to_vec();
        drop(r);
        window.sort_unstable();
        let quantile = |q_num: usize, q_den: usize| {
            // Nearest-rank on the sorted window.
            let rank = (window.len() * q_num).div_ceil(q_den).max(1);
            window[rank - 1]
        };
        Some((window.len(), quantile(50, 100), quantile(99, 100)))
    }

    /// The `Retry-After` seconds for a 503 shed, adaptive to load: the
    /// time the backlog plausibly needs to clear — queue depth (plus the
    /// shed request itself) times the p99 service time, spread over the
    /// workers — clamped to `[1, 30]`. With no latency samples yet the
    /// floor of 1 second applies, matching the old constant.
    pub fn retry_after_secs(&self, queue_depth: usize, workers: usize) -> u64 {
        let p99_us = self
            .latency_quantiles_us()
            .map(|(_, _, p99)| p99)
            .unwrap_or(0);
        let backlog_us = (queue_depth as u64 + 1).saturating_mul(p99_us) / workers.max(1) as u64;
        backlog_us.div_ceil(1_000_000).clamp(1, 30)
    }

    /// The `/stats` document.
    pub fn to_json(&self, g: &Gauges) -> Json {
        let latency = match self.latency_quantiles_us() {
            None => Json::object(vec![("count", Json::Int(0))]),
            Some((count, p50, p99)) => Json::object(vec![
                ("count", Json::Int(count as i128)),
                ("p50_ms", Json::Float(p50 as f64 / 1_000.0)),
                ("p99_ms", Json::Float(p99 as f64 / 1_000.0)),
            ]),
        };
        let mut members = Vec::new();
        if let Some(replica) = g.replica {
            members.push(("replica", Json::Int(replica as i128)));
        }
        let count = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i128);
        members.extend([
            ("accepted", count(&self.accepted)),
            ("shed", count(&self.shed)),
            ("requests", count(&self.requests)),
            ("reused", count(&self.reused)),
            ("timeouts_408", count(&self.timeouts)),
            ("oversized_heads_431", count(&self.oversized_heads)),
            ("completed", count(&self.completed)),
            ("degraded", count(&self.degraded)),
            ("failed", count(&self.failed)),
            ("batches", count(&self.batches)),
            ("batch_jobs", count(&self.batch_jobs)),
            ("batch_replayed", count(&self.batch_replayed)),
            ("cache_hits", count(&self.cache_hits)),
            ("cache_request_hits", count(&self.cache_request_hits)),
            ("cache_misses", count(&self.cache_misses)),
            ("cache_evictions", Json::Int(g.cache_evictions as i128)),
            ("cache_bytes", Json::Int(g.cache_bytes as i128)),
            ("persist_loaded", count(&self.persist_loaded)),
            ("persist_stored", count(&self.persist_stored)),
            ("persist_errors", count(&self.persist_errors)),
            ("queue_depth", Json::Int(g.queue_depth as i128)),
            ("inflight", Json::Int(g.inflight as i128)),
            ("open_conns", Json::Int(g.open_conns as i128)),
            (
                "fds",
                g.fds.map(|n| Json::Int(n as i128)).unwrap_or(Json::Null),
            ),
            ("workers", Json::Int(g.workers as i128)),
            ("draining", Json::Bool(g.draining)),
            ("latency", latency),
        ]);
        Json::object(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_over_a_partial_ring() {
        let s = Stats::new();
        assert_eq!(s.latency_quantiles_us(), None);
        for us in 1..=100 {
            s.note_latency_us(us);
        }
        let (count, p50, p99) = s.latency_quantiles_us().unwrap();
        assert_eq!(count, 100);
        assert_eq!(p50, 50);
        assert_eq!(p99, 99);
    }

    #[test]
    fn ring_overwrites_old_samples() {
        let s = Stats::new();
        for _ in 0..LATENCY_RING {
            s.note_latency_us(1);
        }
        for _ in 0..LATENCY_RING {
            s.note_latency_us(1_000);
        }
        let (count, p50, _) = s.latency_quantiles_us().unwrap();
        assert_eq!(count, LATENCY_RING);
        assert_eq!(p50, 1_000, "old generation fully overwritten");
    }

    #[test]
    fn retry_after_adapts_to_queue_depth_and_p99() {
        let s = Stats::new();
        // No samples: the 1-second floor.
        assert_eq!(s.retry_after_secs(100, 2), 1);
        // p99 = 2 s: depth 5 (+1 for the shed request) over 2 workers
        // → 6 s of backlog.
        for _ in 0..100 {
            s.note_latency_us(2_000_000);
        }
        assert_eq!(s.retry_after_secs(5, 2), 6);
        // Clamped above…
        assert_eq!(s.retry_after_secs(10_000, 1), 30);
        // …and below (tiny p99 rounds up to the floor).
        let fast = Stats::new();
        fast.note_latency_us(10);
        assert_eq!(fast.retry_after_secs(0, 4), 1);
    }

    #[test]
    fn stats_document_shape() {
        let s = Stats::new();
        s.accepted.fetch_add(3, Ordering::Relaxed);
        s.shed.fetch_add(1, Ordering::Relaxed);
        let doc = s
            .to_json(&Gauges {
                queue_depth: 2,
                inflight: 1,
                workers: 4,
                open_conns: 7,
                fds: Some(12),
                draining: false,
                replica: Some(1),
                cache_bytes: 9,
                cache_evictions: 0,
            })
            .render();
        for needle in [
            "\"replica\":1",
            "\"accepted\":3",
            "\"shed\":1",
            "\"requests\":0",
            "\"reused\":0",
            "\"timeouts_408\":0",
            "\"oversized_heads_431\":0",
            "\"batches\":0",
            "\"batch_jobs\":0",
            "\"batch_replayed\":0",
            "\"cache_hits\":0",
            "\"cache_request_hits\":0",
            "\"cache_misses\":0",
            "\"cache_evictions\":0",
            "\"cache_bytes\":9",
            "\"persist_loaded\":0",
            "\"persist_stored\":0",
            "\"persist_errors\":0",
            "\"queue_depth\":2",
            "\"inflight\":1",
            "\"open_conns\":7",
            "\"fds\":12",
            "\"workers\":4",
            "\"draining\":false",
            "\"latency\":{\"count\":0}",
        ] {
            assert!(doc.contains(needle), "{needle} missing from {doc}");
        }
    }
}
