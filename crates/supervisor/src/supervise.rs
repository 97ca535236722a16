//! The reusable crash-containment primitive underneath the ladder.
//!
//! [`contain`] runs a closure behind `catch_unwind`, so a panic comes
//! back as [`Contained::Panicked`] instead of unwinding into the caller.
//! Without a deadline the closure runs on the calling thread: nothing has
//! to watch it, and a thread per call is a fixed cost next to an analysis
//! that often takes about a millisecond.
//! With a deadline it runs on a dedicated thread while the calling thread
//! doubles as its watchdog: when the hard deadline passes it raises the
//! attempt's [`CancelToken`] (tripping the closure's
//! [`srtw_minplus::BudgetMeter`] at its next metered operation), waits
//! out the grace period, and abandons the thread if it still has not
//! wound down. The batch ladder ([`crate::run_supervised`]) and the
//! analysis service (`srtw-serve`, which passes no deadline) both contain
//! their analyses with this one primitive, so "a panicking analysis
//! cannot take the process down" holds identically for a batch job and
//! for an HTTP request.

use srtw_minplus::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How a contained closure ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Contained<T> {
    /// The closure ran to completion. Containment is orthogonal to the
    /// closure's own result type: `T` may well be a `Result`.
    Completed(T),
    /// The closure panicked; the payload is rendered as text (the unwind
    /// was caught, on whichever thread ran the closure).
    Panicked {
        /// The panic payload, downcast to text where possible.
        message: String,
    },
    /// The watchdog cancelled the attempt and the thread did not wind
    /// down within the grace period; it was abandoned (detached) and
    /// keeps a core busy until it next polls its meter.
    HardTimeout,
    /// The OS refused to spawn the worker thread (only a call with a
    /// deadline spawns one).
    SpawnFailed,
}

impl<T> Contained<T> {
    /// The completed value, if the closure ran to completion.
    pub fn completed(self) -> Option<T> {
        match self {
            Contained::Completed(v) => Some(v),
            _ => None,
        }
    }
}

/// Runs `f` behind `catch_unwind`; with a deadline, on its own named
/// thread supervised by the calling thread.
///
/// * `timeout` is the hard wall-clock deadline. `None` runs `f` inline on
///   the calling thread (no thread is spawned, `name` and `grace` are
///   unused, and the closure can only end cooperatively); the result is
///   then [`Contained::Completed`] or [`Contained::Panicked`].
/// * On timeout the watchdog calls `token.cancel()` — the closure is
///   expected to poll that token through a meter — and allows `grace`
///   for it to wind down to a clean (degraded-but-sound) result, which
///   is then returned as [`Contained::Completed`]. Only a thread that
///   overruns the grace period too is abandoned as
///   [`Contained::HardTimeout`].
///
/// Never panics and never blocks past `timeout + grace`.
///
/// # Examples
///
/// ```
/// use srtw_supervisor::{contain, Contained};
/// use srtw_minplus::CancelToken;
///
/// let token = CancelToken::new();
/// let out = contain("double", None, std::time::Duration::ZERO, &token, || 21 * 2);
/// assert_eq!(out, Contained::Completed(42));
///
/// let out: Contained<()> = contain("boom", None, std::time::Duration::ZERO, &token, || {
///     panic!("injected");
/// });
/// assert!(matches!(out, Contained::Panicked { message } if message == "injected"));
/// ```
pub fn contain<T, F>(
    name: &str,
    timeout: Option<Duration>,
    grace: Duration,
    token: &CancelToken,
    f: F,
) -> Contained<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let Some(deadline) = timeout else {
        return match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Contained::Completed(v),
            Err(payload) => Contained::Panicked {
                message: panic_message(payload.as_ref()),
            },
        };
    };
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            // The receiver may be gone if the watchdog abandoned us.
            let _ = tx.send(result);
        });
    if spawned.is_err() {
        return Contained::SpawnFailed;
    }

    let received = match rx.recv_timeout(deadline) {
        Ok(r) => Some(r),
        Err(mpsc::RecvTimeoutError::Disconnected) => None,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Watchdog fires: cancellation trips the meter at the
            // closure's next metered operation; give it the grace
            // period to wind down to a sound degraded result, then
            // abandon it.
            token.cancel();
            rx.recv_timeout(grace).ok()
        }
    };
    match received {
        None => Contained::HardTimeout,
        Some(Ok(v)) => Contained::Completed(v),
        Some(Err(payload)) => Contained::Panicked {
            message: panic_message(payload.as_ref()),
        },
    }
}

/// Renders a caught panic payload as text (`&str` and `String` payloads
/// pass through; anything else becomes `"unknown panic"`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::{Budget, BudgetMeter};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn completes_and_returns_the_value() {
        let token = CancelToken::new();
        let out = contain("ok", None, Duration::ZERO, &token, || "value".to_string());
        assert_eq!(out, Contained::Completed("value".to_string()));
    }

    #[test]
    fn panic_is_contained_with_its_message() {
        let token = CancelToken::new();
        let out: Contained<u32> = contain("boom", None, Duration::ZERO, &token, || {
            panic!("deliberate {}", 7);
        });
        match out {
            Contained::Panicked { message } => assert_eq!(message, "deliberate 7"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn only_a_deadline_spawns_a_thread() {
        let token = CancelToken::new();
        let caller = std::thread::current().id();
        let inline = contain("inline", None, Duration::ZERO, &token, || {
            std::thread::current().id()
        });
        assert_eq!(inline, Contained::Completed(caller));
        let watched = contain(
            "watched",
            Some(Duration::from_secs(60)),
            Duration::ZERO,
            &token,
            || std::thread::current().id(),
        );
        assert!(matches!(watched, Contained::Completed(id) if id != caller));
        for timeout in [None, Some(Duration::from_secs(60))] {
            let out: Contained<()> = contain("boom", timeout, Duration::ZERO, &token, || {
                panic!("on either thread")
            });
            assert_eq!(
                out,
                Contained::Panicked {
                    message: "on either thread".into()
                },
                "timeout {timeout:?}"
            );
        }
    }

    #[test]
    fn watchdog_cancels_a_cooperative_closure_within_grace() {
        let token = CancelToken::new();
        let meter = Arc::new(BudgetMeter::new(
            &Budget::default().with_cancel(token.clone()),
        ));
        let polled = Arc::clone(&meter);
        let started = Instant::now();
        let out = contain(
            "coop",
            Some(Duration::from_millis(30)),
            Duration::from_secs(5),
            &token,
            move || {
                // Spin until the meter observes the cancellation.
                while polled.tick_path() {
                    std::thread::yield_now();
                }
                "wound down"
            },
        );
        assert_eq!(out, Contained::Completed("wound down"));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn stuck_closure_is_abandoned_as_hard_timeout() {
        let token = CancelToken::new();
        let out: Contained<()> = contain(
            "stuck",
            Some(Duration::from_millis(10)),
            Duration::from_millis(10),
            &token,
            || {
                // Ignores cancellation entirely.
                std::thread::sleep(Duration::from_secs(600));
            },
        );
        assert_eq!(out, Contained::HardTimeout);
        assert!(token.is_cancelled());
    }
}
