//! A fixed worker pool with supervisor-style respawn.
//!
//! Workers pull jobs off the [`Gate`] and run them
//! behind `catch_unwind`. A panic in the *handler* (a bug in the server
//! code itself — analysis panics are already contained one level deeper
//! by [`srtw_supervisor::contain`]) kills only that worker; a monitor
//! thread respawns a replacement so capacity self-heals, exactly like the
//! batch supervisor respawning after a crashed attempt. Respawn stops
//! once [`Pool::stop`] begins, so drain terminates.

use crate::gate::Gate;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The handler a worker runs per job. Must not assume panics are fatal.
pub type Handler<J> = Arc<dyn Fn(J) + Send + Sync + 'static>;

enum Event {
    /// A worker's handler panicked and the worker exited.
    Died,
    /// Stop respawning (drain begins).
    Stop,
}

/// What happened over the pool's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolReport {
    /// Workers respawned after a handler panic.
    pub respawned: u64,
    /// Workers still running when the stop patience expired; they were
    /// detached (they exit when their current job finishes — or never,
    /// if it is truly stuck).
    pub abandoned: usize,
}

/// A fixed-size worker pool over a shared gate.
pub struct Pool {
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    monitor: Option<JoinHandle<()>>,
    events: mpsc::Sender<Event>,
    respawned: Arc<AtomicU64>,
    size: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("size", &self.size)
            .field("respawned", &self.respawned.load(Ordering::Relaxed))
            .finish()
    }
}

fn spawn_worker<J: Send + 'static>(
    index: usize,
    generation: u64,
    gate: &Arc<Gate<J>>,
    handler: &Handler<J>,
    events: &mpsc::Sender<Event>,
) -> std::io::Result<JoinHandle<()>> {
    let gate = Arc::clone(gate);
    let handler = Arc::clone(handler);
    let events = events.clone();
    thread::Builder::new()
        .name(format!("srtw-serve-worker-{index}.{generation}"))
        .spawn(move || {
            while let Some(job) = gate.take() {
                if catch_unwind(AssertUnwindSafe(|| handler(job))).is_err() {
                    // This worker's state is suspect; die and let the
                    // monitor replace us with a fresh one.
                    let _ = events.send(Event::Died);
                    return;
                }
            }
        })
}

impl Pool {
    /// Spawns `size` workers (clamped to at least 1) pulling from `gate`.
    pub fn spawn<J: Send + 'static>(size: usize, gate: Arc<Gate<J>>, handler: Handler<J>) -> Pool {
        let size = size.max(1);
        let (tx, rx) = mpsc::channel();
        let handles = Arc::new(Mutex::new(Vec::with_capacity(size)));
        let respawned = Arc::new(AtomicU64::new(0));
        {
            let mut hs = handles.lock().unwrap();
            for i in 0..size {
                if let Ok(h) = spawn_worker(i, 0, &gate, &handler, &tx) {
                    hs.push(h);
                }
            }
        }
        let monitor = {
            let handles = Arc::clone(&handles);
            let respawned = Arc::clone(&respawned);
            let events = tx.clone();
            thread::Builder::new()
                .name("srtw-serve-monitor".into())
                .spawn(move || {
                    let mut generation = 0u64;
                    while let Ok(event) = rx.recv() {
                        match event {
                            Event::Stop => return,
                            Event::Died => {
                                generation += 1;
                                let n = respawned.fetch_add(1, Ordering::Relaxed);
                                if let Ok(h) =
                                    spawn_worker(n as usize, generation, &gate, &handler, &events)
                                {
                                    handles.lock().unwrap().push(h);
                                }
                            }
                        }
                    }
                })
                .ok()
        };
        Pool {
            handles,
            monitor,
            events: tx,
            respawned,
            size,
        }
    }

    /// The configured worker count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Workers respawned so far.
    pub fn respawned(&self) -> u64 {
        self.respawned.load(Ordering::Relaxed)
    }

    /// Number of workers that have not yet exited.
    pub fn alive(&self) -> usize {
        self.handles
            .lock()
            .unwrap()
            .iter()
            .filter(|h| !h.is_finished())
            .count()
    }

    /// Polls until every worker has exited or `patience` runs out.
    /// Returns `true` when the pool is fully idle (drained).
    pub fn wait_idle(&self, patience: Duration) -> bool {
        let deadline = Instant::now() + patience;
        loop {
            if self.alive() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops respawning, waits up to `patience` for workers to exit, and
    /// reports. The gate must already be closed or the workers will never
    /// exit on their own. Stragglers are detached, not killed — safe Rust
    /// cannot kill a thread.
    pub fn stop(mut self, patience: Duration) -> PoolReport {
        let _ = self.events.send(Event::Stop);
        if let Some(m) = self.monitor.take() {
            let _ = m.join();
        }
        self.wait_idle(patience);
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        let mut abandoned = 0;
        for h in handles {
            if h.is_finished() {
                let _ = h.join();
            } else {
                abandoned += 1;
                drop(h); // detach
            }
        }
        PoolReport {
            respawned: self.respawned.load(Ordering::Relaxed),
            abandoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_processes_every_admitted_job() {
        let gate = Arc::new(Gate::new(64));
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = Pool::spawn(
            3,
            Arc::clone(&gate),
            Arc::new(move |_job: u32| {
                counter.fetch_add(1, Ordering::Relaxed);
            }),
        );
        for i in 0..50 {
            gate.offer(i).unwrap();
        }
        gate.close();
        let report = pool.stop(Duration::from_secs(10));
        assert_eq!(done.load(Ordering::Relaxed), 50);
        assert_eq!(report, PoolReport { respawned: 0, abandoned: 0 });
    }

    #[test]
    fn panicking_handler_kills_the_worker_but_a_respawn_restores_capacity() {
        let gate = Arc::new(Gate::new(64));
        let done = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&done);
        let pool = Pool::spawn(
            1,
            Arc::clone(&gate),
            Arc::new(move |job: u32| {
                if job == 7 {
                    panic!("poison job");
                }
                counter.fetch_add(1, Ordering::Relaxed);
            }),
        );
        for i in 0..20 {
            gate.offer(i).unwrap();
            // Single worker: pace the offers so the queue (cap 64) never
            // sheds while the poison job is being replaced.
            while gate.depth() > 0 && pool.alive() > 0 {
                std::thread::yield_now();
            }
        }
        gate.close();
        let report = pool.stop(Duration::from_secs(10));
        assert_eq!(
            done.load(Ordering::Relaxed),
            19,
            "every job except the poison one completed"
        );
        assert!(report.respawned >= 1, "the dead worker was replaced");
        assert_eq!(report.abandoned, 0);
    }

    #[test]
    fn stop_detaches_a_stuck_worker_as_abandoned() {
        let gate = Arc::new(Gate::new(4));
        let pool = Pool::spawn(
            1,
            Arc::clone(&gate),
            Arc::new(|_job: u32| {
                thread::sleep(Duration::from_secs(600));
            }),
        );
        gate.offer(1).unwrap();
        // Wait until the worker has picked the job up.
        while gate.depth() > 0 {
            thread::yield_now();
        }
        gate.close();
        let report = pool.stop(Duration::from_millis(50));
        assert_eq!(report.abandoned, 1);
    }
}
