//! Cooperative analysis budgets.
//!
//! Structural delay analysis is exponential in the worst case, and the
//! exact curve algebra can materialize huge horizons (lcm of coprime
//! periods). A [`Budget`] caps the resources an analysis may spend — wall
//! clock, explored abstract paths, and generated curve segments — and a
//! [`BudgetMeter`] is threaded through the hot loops (path exploration
//! dominance pruning, busy-window iteration, finitary convolution), which
//! *cooperatively* poll it.
//!
//! Exhaustion is not an error at this layer: a meter merely *trips* and
//! every subsequent `tick_*` returns `false`, letting the enclosing loop
//! stop at a clean prefix. The analysis layers (`srtw-workload`,
//! `srtw-core`) translate a tripped meter into a **sound degradation** —
//! truncating the abstraction horizon, which is provably monotone — and
//! record what happened; see the `Degradation` report type in `srtw-core`.
//!
//! Metering is designed to be cheap on the unconstrained hot path: a tick
//! is one counter increment plus a compare, and the wall clock is sampled
//! only every [`CLOCK_STRIDE`] ticks.

use crate::error::ArithmeticError;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many ticks pass between wall-clock samples. `Instant::now()` is a
/// syscall-ish operation; amortizing it keeps metering overhead below a
/// few percent even in the tightest loops.
pub const CLOCK_STRIDE: u32 = 256;

/// A shared cancellation flag for hard (watchdog-enforced) deadlines.
///
/// A supervisor holds one clone and the analysis' [`BudgetMeter`] another;
/// when the supervisor calls [`CancelToken::cancel`] the meter trips with
/// [`BudgetKind::Cancelled`] at its very next metered operation — every
/// hot loop the meter instruments polls the flag, so cancellation is
/// prompt even where wall-clock checks are stride-amortized. A tripped
/// meter degrades exactly like a wall-clock trip: the analysis winds down
/// at a clean prefix and reports a sound, degraded bound.
///
/// A [`CancelToken::child`] has a flag of its own and reads as cancelled
/// once its own flag or any ancestor's is raised, while cancelling it
/// leaves the parent alone. A supervised attempt runs under a child of
/// the batch-wide token: the watchdog cancels just the attempt, and a
/// batch-wide cancel reaches every attempt's meter at its next metered
/// operation, with no thread relaying one flag into the other.
///
/// # Examples
///
/// ```
/// use srtw_minplus::{Budget, BudgetKind, BudgetMeter, CancelToken};
/// let token = CancelToken::new();
/// let meter = BudgetMeter::new(&Budget::default().with_cancel(token.clone()));
/// assert!(meter.tick_path());
/// token.cancel();
/// assert!(!meter.tick_path());
/// assert_eq!(meter.tripped(), Some(BudgetKind::Cancelled));
///
/// let batch = CancelToken::new();
/// let attempt = batch.child();
/// attempt.cancel();
/// assert!(!batch.is_cancelled());
/// batch.cancel();
/// assert!(batch.child().is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<Flag>);

/// One token's own flag, and the token whose cancellation it inherits.
#[derive(Debug, Default)]
struct Flag {
    raised: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A fresh token that also reads as cancelled once `self` (or any of
    /// its ancestors) is. Cancelling the child does not cancel `self`.
    pub fn child(&self) -> CancelToken {
        CancelToken(Arc::new(Flag {
            raised: AtomicBool::new(false),
            parent: Some(self.clone()),
        }))
    }

    /// Raises this token's flag (and so its children's). Idempotent; safe
    /// from any thread.
    pub fn cancel(&self) {
        self.0.raised.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone of
    /// this token or of one of its ancestors.
    pub fn is_cancelled(&self) -> bool {
        let mut token = self;
        loop {
            if token.0.raised.load(Ordering::Acquire) {
                return true;
            }
            match &token.0.parent {
                Some(parent) => token = parent,
                None => return false,
            }
        }
    }
}

/// Tokens compare by identity: two tokens are equal iff they share the
/// same underlying flag (a child never equals its parent).
impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// What a [`FaultPlan`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Trip the meter as if a starved wall-clock poll had fired
    /// ([`BudgetKind::WallClock`]): exercises the cooperative degradation
    /// path at an arbitrary point of the analysis.
    TripBudget,
    /// Mark the meter poisoned with a synthetic
    /// [`ArithmeticError::Overflow`]; the analysis entry points surface it
    /// as a typed error, exercising the retry ladder's failure path.
    Overflow,
    /// Skew the meter's view of the wall clock forward by this many
    /// milliseconds, as if the clock had jumped: an armed wall-clock
    /// deadline then fires early (a meter without a deadline ignores the
    /// jump).
    ClockJump(u64),
    /// Panic at the firing op, simulating a latent bug in the analysis
    /// itself rather than resource exhaustion. This exercises the crash
    /// *containment* paths (supervisor `catch_unwind`, the service's
    /// per-request isolation) deterministically — the panic always lands
    /// on the same metered operation.
    Panic,
}

impl FaultKind {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TripBudget => "trip",
            FaultKind::Overflow => "overflow",
            FaultKind::ClockJump(_) => "clockjump",
            FaultKind::Panic => "panic",
        }
    }
}

/// A deterministic fault to inject into one metered analysis run.
///
/// The meter counts every metered operation (path tick, segment tick,
/// explicit wall poll); when the count reaches `at_op` the fault fires
/// once. Because the operation sequence of an analysis is deterministic,
/// a `(at_op, kind)` pair reproduces the exact same failure point on
/// every run — which is what lets seeded tests drive every rung of a
/// retry/degrade ladder and assert soundness under failure at arbitrary
/// points.
///
/// # Examples
///
/// ```
/// use srtw_minplus::{Budget, BudgetMeter, FaultKind, FaultPlan};
/// let plan = FaultPlan::new(3, FaultKind::Overflow);
/// let meter = BudgetMeter::new(&Budget::default().with_fault(plan));
/// assert!(meter.tick_path());
/// assert!(meter.tick_path());
/// assert!(!meter.tick_path()); // third metered op: fault fires, loop winds down
/// assert!(meter.injected_overflow().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// 1-based index of the metered operation the fault fires at.
    pub at_op: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A fault of `kind` firing at the `at_op`-th metered operation
    /// (1-based; 0 is clamped to 1).
    pub fn new(at_op: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            at_op: at_op.max(1),
            kind,
        }
    }

    /// A pseudo-random plan derived from `seed` (SplitMix64 mixing): the
    /// firing op is spread over `[1, max_op]` and the kind cycles through
    /// the three *recoverable* faults (never [`FaultKind::Panic`], which
    /// would abort a seeded soundness sweep instead of degrading it).
    /// Deterministic in `seed`.
    pub fn seeded(seed: u64, max_op: u64) -> FaultPlan {
        let mix = |mut z: u64| {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let a = mix(seed);
        let b = mix(a);
        let at_op = 1 + a % max_op.max(1);
        let kind = match b % 3 {
            0 => FaultKind::TripBudget,
            1 => FaultKind::Overflow,
            _ => FaultKind::ClockJump(1 + (b >> 2) % 10_000),
        };
        FaultPlan::new(at_op, kind)
    }

    /// Parses a testing-only fault spec: `trip@N`, `overflow@N`,
    /// `clockjump@N:MS`, or `panic@N` (fire at the N-th metered
    /// operation).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let bad =
            || format!("bad fault spec '{spec}' (trip@N | overflow@N | clockjump@N:MS | panic@N)");
        let (kind, rest) = spec.split_once('@').ok_or_else(bad)?;
        match kind {
            "trip" => Ok(FaultPlan::new(
                rest.parse().map_err(|_| bad())?,
                FaultKind::TripBudget,
            )),
            "overflow" => Ok(FaultPlan::new(
                rest.parse().map_err(|_| bad())?,
                FaultKind::Overflow,
            )),
            "panic" => Ok(FaultPlan::new(
                rest.parse().map_err(|_| bad())?,
                FaultKind::Panic,
            )),
            "clockjump" => {
                let (at, ms) = rest.split_once(':').ok_or_else(bad)?;
                Ok(FaultPlan::new(
                    at.parse().map_err(|_| bad())?,
                    FaultKind::ClockJump(ms.parse().map_err(|_| bad())?),
                ))
            }
            _ => Err(bad()),
        }
    }
}

/// Resource limits for one analysis invocation.
///
/// The default budget is unlimited in every dimension, so budgeted entry
/// points behave exactly like their classic counterparts unless a cap is
/// set.
///
/// # Examples
///
/// ```
/// use srtw_minplus::Budget;
/// let b = Budget::default().with_wall_ms(1_000).with_max_paths(50_000);
/// assert!(!b.is_unlimited());
/// assert!(Budget::default().is_unlimited());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Budget {
    /// Wall-clock limit for the whole invocation.
    pub wall: Option<Duration>,
    /// Maximum number of abstract path tuples explored (heap pops plus
    /// busy-window iterations).
    pub max_paths: Option<u64>,
    /// Maximum number of curve segments generated by the (min,+) algebra.
    pub max_segments: Option<u64>,
    /// An external hard-cancellation flag (e.g. a supervisor's watchdog);
    /// polled on every metered operation, trips as
    /// [`BudgetKind::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// A deterministic fault to inject (testing the failure paths).
    pub fault: Option<FaultPlan>,
}

impl Budget {
    /// The unlimited budget (same as [`Budget::default`]).
    pub const UNLIMITED: Budget = Budget {
        wall: None,
        max_paths: None,
        max_segments: None,
        cancel: None,
        fault: None,
    };

    /// A budget limited only by wall-clock time.
    pub fn wall_ms(ms: u64) -> Budget {
        Budget::default().with_wall_ms(ms)
    }

    /// Sets the wall-clock limit in milliseconds.
    #[must_use]
    pub fn with_wall_ms(mut self, ms: u64) -> Budget {
        self.wall = Some(Duration::from_millis(ms));
        self
    }

    /// Sets the explored-paths cap.
    #[must_use]
    pub fn with_max_paths(mut self, n: u64) -> Budget {
        self.max_paths = Some(n);
        self
    }

    /// Sets the curve-segment cap.
    #[must_use]
    pub fn with_max_segments(mut self, n: u64) -> Budget {
        self.max_segments = Some(n);
        self
    }

    /// Attaches a hard-cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deterministic fault-injection plan.
    #[must_use]
    pub fn with_fault(mut self, plan: FaultPlan) -> Budget {
        self.fault = Some(plan);
        self
    }

    /// `true` when no cap, cancellation token or fault plan constrains the
    /// budget — the meter then skips all bookkeeping.
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none()
            && self.max_paths.is_none()
            && self.max_segments.is_none()
            && self.cancel.is_none()
            && self.fault.is_none()
    }
}

/// Which budget dimension tripped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock deadline passed.
    WallClock,
    /// The explored-paths cap was reached.
    Paths,
    /// The curve-segment cap was reached.
    Segments,
    /// An external [`CancelToken`] was raised (hard watchdog deadline).
    Cancelled,
}

impl BudgetKind {
    /// Stable machine-readable name (used in JSON reports).
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetKind::WallClock => "wall_clock",
            BudgetKind::Paths => "paths",
            BudgetKind::Segments => "segments",
            BudgetKind::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::WallClock => write!(f, "wall-clock deadline"),
            BudgetKind::Paths => write!(f, "explored-paths cap"),
            BudgetKind::Segments => write!(f, "curve-segment cap"),
            BudgetKind::Cancelled => write!(f, "hard cancellation"),
        }
    }
}

/// The live counters of one budgeted invocation.
///
/// A meter is shared by reference across every phase of an analysis
/// (rbf materialization, busy-window fixpoint, path exploration, curve
/// algebra) so the caps apply to the invocation as a whole. The counters
/// are shared atomics, so one meter can also be shared across the worker
/// shards of the parallel exploration engine (`&BudgetMeter` is `Sync`):
/// budgets, cancellation, and injected faults keep their single-threaded
/// semantics because every *deterministically ordered* tick is issued by
/// the sequential coordinator spine, while workers only observe the
/// already-tripped state.
///
/// Once any dimension trips the meter stays tripped: every later tick
/// returns `false` immediately, so all phases wind down at their next
/// poll. The first trip wins — concurrent observers can never overwrite
/// the recorded [`BudgetKind`].
#[derive(Debug)]
pub struct BudgetMeter {
    deadline: Option<Instant>,
    max_paths: u64,
    max_segments: u64,
    paths: AtomicU64,
    segments: AtomicU64,
    ticks_to_clock: AtomicU32,
    /// `0` = not tripped; otherwise `BudgetKind` encoded as `1 + discriminant`
    /// (see `trip` / `decode_kind`). First writer wins via compare-exchange.
    tripped: AtomicU8,
    metered: bool,
    cancel: Option<CancelToken>,
    fault: Option<FaultPlan>,
    /// Metered operations seen so far (counted only under a fault plan).
    ops: AtomicU64,
    /// A synthetic overflow injected by the fault plan, not yet surfaced.
    overflow: AtomicBool,
    /// Forward skew applied to the meter's view of the wall clock
    /// (accumulated by [`FaultKind::ClockJump`]), in milliseconds.
    skew_ms: AtomicU64,
}

/// Encoding of `Option<BudgetKind>` in the `tripped` atomic.
const fn encode_kind(kind: BudgetKind) -> u8 {
    match kind {
        BudgetKind::WallClock => 1,
        BudgetKind::Paths => 2,
        BudgetKind::Segments => 3,
        BudgetKind::Cancelled => 4,
    }
}

fn decode_kind(code: u8) -> Option<BudgetKind> {
    match code {
        1 => Some(BudgetKind::WallClock),
        2 => Some(BudgetKind::Paths),
        3 => Some(BudgetKind::Segments),
        4 => Some(BudgetKind::Cancelled),
        _ => None,
    }
}

impl BudgetMeter {
    /// Starts a meter for `budget`; the wall clock starts now.
    pub fn new(budget: &Budget) -> BudgetMeter {
        BudgetMeter {
            deadline: budget.wall.map(|d| Instant::now() + d),
            max_paths: budget.max_paths.unwrap_or(u64::MAX),
            max_segments: budget.max_segments.unwrap_or(u64::MAX),
            paths: AtomicU64::new(0),
            segments: AtomicU64::new(0),
            ticks_to_clock: AtomicU32::new(CLOCK_STRIDE),
            tripped: AtomicU8::new(0),
            metered: !budget.is_unlimited(),
            cancel: budget.cancel.clone(),
            fault: budget.fault,
            ops: AtomicU64::new(0),
            overflow: AtomicBool::new(false),
            skew_ms: AtomicU64::new(0),
        }
    }

    /// Records the first trip; later trips (including concurrent ones) are
    /// ignored so the reported [`BudgetKind`] is always the original cause.
    #[inline]
    fn trip(&self, kind: BudgetKind) {
        let _ = self.tripped.compare_exchange(
            0,
            encode_kind(kind),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// A meter that never trips (and skips all bookkeeping).
    pub fn unlimited() -> BudgetMeter {
        BudgetMeter::new(&Budget::UNLIMITED)
    }

    /// Records one explored path tuple. Returns `false` once the budget is
    /// exhausted — the caller should stop at a clean prefix.
    #[inline]
    pub fn tick_path(&self) -> bool {
        if !self.metered {
            return true;
        }
        if self.tripped().is_some() {
            return false;
        }
        if !self.note_op() {
            return false;
        }
        let n = self.paths.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.max_paths {
            self.trip(BudgetKind::Paths);
            return false;
        }
        self.poll_clock()
    }

    /// Records one generated curve segment. Returns `false` once the
    /// budget is exhausted.
    #[inline]
    pub fn tick_segment(&self) -> bool {
        if !self.metered {
            return true;
        }
        if self.tripped().is_some() {
            return false;
        }
        if !self.note_op() {
            return false;
        }
        let n = self.segments.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.max_segments {
            self.trip(BudgetKind::Segments);
            return false;
        }
        self.poll_clock()
    }

    /// Forces a wall-clock check (used at loop boundaries where many ticks
    /// may pass between polls). Returns `false` once exhausted.
    pub fn check_wall(&self) -> bool {
        if !self.metered {
            return true;
        }
        if self.tripped().is_some() {
            return false;
        }
        if !self.note_op() {
            return false;
        }
        if let Some(d) = self.deadline {
            let skew = Duration::from_millis(self.skew_ms.load(Ordering::Relaxed));
            if Instant::now() + skew >= d {
                self.trip(BudgetKind::WallClock);
                return false;
            }
        }
        true
    }

    /// Polls the cancellation flag and advances the fault plan; every
    /// metered operation funnels through here, which is what makes
    /// cancellation prompt and injected faults deterministic. Returns
    /// `false` when the operation tripped the meter.
    #[inline]
    fn note_op(&self) -> bool {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                self.trip(BudgetKind::Cancelled);
                return false;
            }
        }
        if let Some(f) = self.fault {
            // The exact-increment observation is race-free: even with
            // concurrent tickers only one thread sees `n == at_op`, so the
            // fault still fires exactly once.
            let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
            if n == f.at_op {
                match f.kind {
                    FaultKind::TripBudget => {
                        self.trip(BudgetKind::WallClock);
                        return false;
                    }
                    FaultKind::Overflow => {
                        // Poison *and* trip: the analysis winds down at its
                        // next poll instead of spending the full effort on a
                        // result the poisoned meter will discard, and the
                        // entry point surfaces the typed overflow.
                        self.overflow.store(true, Ordering::Relaxed);
                        self.trip(BudgetKind::WallClock);
                        return false;
                    }
                    FaultKind::ClockJump(ms) => {
                        self.skew_ms.fetch_add(ms, Ordering::Relaxed);
                    }
                    FaultKind::Panic => {
                        panic!("injected fault: panic at metered op {n}");
                    }
                }
            }
        }
        true
    }

    /// The synthetic overflow injected by the fault plan, if it has fired.
    /// Analysis entry points surface it as their typed arithmetic error.
    pub fn injected_overflow(&self) -> Option<ArithmeticError> {
        if self.overflow.load(Ordering::Relaxed) {
            Some(ArithmeticError::Overflow)
        } else {
            None
        }
    }

    #[inline]
    fn poll_clock(&self) -> bool {
        // `fetch_sub` may transiently wrap under concurrent tickers; any
        // observation `≤ 1` resets the stride and samples the clock, which
        // at worst polls the wall slightly more often than every stride.
        let left = self.ticks_to_clock.fetch_sub(1, Ordering::Relaxed);
        if left > 1 {
            return true;
        }
        self.ticks_to_clock.store(CLOCK_STRIDE, Ordering::Relaxed);
        self.check_wall()
    }

    /// The dimension that tripped, if any.
    pub fn tripped(&self) -> Option<BudgetKind> {
        decode_kind(self.tripped.load(Ordering::Relaxed))
    }

    /// `true` while no dimension has tripped.
    pub fn within(&self) -> bool {
        self.tripped().is_none()
    }

    /// Paths ticked so far.
    pub fn paths_used(&self) -> u64 {
        self.paths.load(Ordering::Relaxed)
    }

    /// Segments ticked so far.
    pub fn segments_used(&self) -> u64 {
        self.segments.load(Ordering::Relaxed)
    }

    /// `true` when any cap is actually being enforced.
    pub fn is_metered(&self) -> bool {
        self.metered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            assert!(m.tick_path());
            assert!(m.tick_segment());
        }
        assert!(m.within());
        assert_eq!(m.tripped(), None);
        // Unlimited meters skip bookkeeping entirely.
        assert_eq!(m.paths_used(), 0);
    }

    #[test]
    fn path_cap_trips_and_stays_tripped() {
        let m = BudgetMeter::new(&Budget::default().with_max_paths(10));
        for _ in 0..10 {
            assert!(m.tick_path());
        }
        assert!(!m.tick_path());
        assert_eq!(m.tripped(), Some(BudgetKind::Paths));
        // Other dimensions also refuse once tripped.
        assert!(!m.tick_segment());
        assert!(!m.check_wall());
    }

    #[test]
    fn segment_cap_trips() {
        let m = BudgetMeter::new(&Budget::default().with_max_segments(3));
        assert!(m.tick_segment());
        assert!(m.tick_segment());
        assert!(m.tick_segment());
        assert!(!m.tick_segment());
        assert_eq!(m.tripped(), Some(BudgetKind::Segments));
    }

    #[test]
    fn zero_wall_budget_trips_on_first_poll() {
        let m = BudgetMeter::new(&Budget::wall_ms(0));
        assert!(!m.check_wall());
        assert_eq!(m.tripped(), Some(BudgetKind::WallClock));
    }

    #[test]
    fn wall_clock_polled_within_stride() {
        let m = BudgetMeter::new(&Budget::wall_ms(0));
        // Ticks eventually sample the clock even without check_wall.
        let mut ok = true;
        for _ in 0..=CLOCK_STRIDE {
            ok = m.tick_path();
        }
        assert!(!ok);
        assert_eq!(m.tripped(), Some(BudgetKind::WallClock));
    }

    #[test]
    fn cancellation_trips_promptly_and_stays_tripped() {
        let token = CancelToken::new();
        let m = BudgetMeter::new(&Budget::default().with_cancel(token.clone()));
        assert!(m.is_metered(), "a cancel token alone must arm the meter");
        for _ in 0..100 {
            assert!(m.tick_path());
            assert!(m.tick_segment());
            assert!(m.check_wall());
        }
        token.cancel();
        // The very next metered operation observes the flag.
        assert!(!m.tick_path());
        assert_eq!(m.tripped(), Some(BudgetKind::Cancelled));
        assert!(!m.tick_segment());
        assert!(!m.check_wall());
    }

    #[test]
    fn cancellation_from_another_thread() {
        let token = CancelToken::new();
        let remote = token.clone();
        let handle = std::thread::spawn(move || remote.cancel());
        handle.join().unwrap();
        let m = BudgetMeter::new(&Budget::default().with_cancel(token));
        assert!(!m.check_wall());
        assert_eq!(m.tripped(), Some(BudgetKind::Cancelled));
    }

    #[test]
    fn cancel_tokens_compare_by_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CancelToken::new());
        let child = a.child();
        assert_eq!(child, child.clone());
        assert_ne!(child, a);
        assert_ne!(child, a.child());
    }

    #[test]
    fn child_trips_when_its_parent_is_cancelled() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        assert!(!child.is_cancelled());
        assert!(!grandchild.is_cancelled());
        let remote = parent.clone();
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
    }

    #[test]
    fn cancelling_a_child_leaves_its_parent_alone() {
        let parent = CancelToken::new();
        let child = parent.child();
        let sibling = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
        assert!(!sibling.is_cancelled());
    }

    #[test]
    fn meter_holding_a_child_trips_on_the_parents_cancel() {
        let parent = CancelToken::new();
        let m = BudgetMeter::new(&Budget::default().with_cancel(parent.child()));
        assert!(m.tick_path());
        parent.cancel();
        assert!(!m.tick_path());
        assert_eq!(m.tripped(), Some(BudgetKind::Cancelled));
    }

    #[test]
    fn fault_trip_fires_at_exact_op() {
        let m = BudgetMeter::new(
            &Budget::default().with_fault(FaultPlan::new(3, FaultKind::TripBudget)),
        );
        assert!(m.tick_path());
        assert!(m.tick_segment());
        assert!(!m.tick_path(), "third metered op must trip");
        assert_eq!(m.tripped(), Some(BudgetKind::WallClock));
    }

    #[test]
    fn fault_overflow_poisons_and_trips() {
        let m = BudgetMeter::new(
            &Budget::default().with_fault(FaultPlan::new(2, FaultKind::Overflow)),
        );
        assert!(m.tick_path());
        assert!(m.injected_overflow().is_none());
        assert!(!m.tick_path(), "overflow injection winds the loop down");
        assert!(m.injected_overflow().is_some());
        assert!(!m.within(), "the poisoned meter is also tripped");
    }

    #[test]
    fn fault_clock_jump_expires_an_armed_deadline() {
        // A generous 1-hour wall budget, but the injected jump skips the
        // clock far past it.
        let plan = FaultPlan::new(1, FaultKind::ClockJump(2 * 3_600_000));
        let m = BudgetMeter::new(&Budget::wall_ms(3_600_000).with_fault(plan));
        assert!(m.tick_path(), "the jump itself lands on op 1");
        assert!(!m.check_wall(), "skewed clock is past the deadline");
        assert_eq!(m.tripped(), Some(BudgetKind::WallClock));
    }

    #[test]
    fn fault_clock_jump_without_deadline_is_inert() {
        let plan = FaultPlan::new(1, FaultKind::ClockJump(u64::MAX >> 12));
        let m = BudgetMeter::new(&Budget::default().with_fault(plan));
        for _ in 0..1000 {
            assert!(m.tick_path());
        }
        assert!(m.within());
    }

    #[test]
    fn fault_panic_fires_at_exact_op_and_is_catchable() {
        let m = BudgetMeter::new(&Budget::default().with_fault(FaultPlan::new(3, FaultKind::Panic)));
        assert!(m.tick_path());
        assert!(m.tick_segment());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.tick_path()));
        let payload = caught.expect_err("third metered op must panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault: panic at metered op 3"), "{msg}");
    }

    #[test]
    fn seeded_fault_plans_are_deterministic_and_in_range() {
        for seed in 0..200u64 {
            let a = FaultPlan::seeded(seed, 50);
            let b = FaultPlan::seeded(seed, 50);
            assert_eq!(a, b);
            assert!((1..=50).contains(&a.at_op), "op {} out of range", a.at_op);
        }
        // All three kinds appear over a modest seed sweep.
        let kinds: Vec<&str> = (0..64)
            .map(|s| FaultPlan::seeded(s, 50).kind.as_str())
            .collect();
        for want in ["trip", "overflow", "clockjump"] {
            assert!(kinds.contains(&want), "kind {want} never generated");
        }
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            FaultPlan::parse("trip@7"),
            Ok(FaultPlan::new(7, FaultKind::TripBudget))
        );
        assert_eq!(
            FaultPlan::parse("overflow@123"),
            Ok(FaultPlan::new(123, FaultKind::Overflow))
        );
        assert_eq!(
            FaultPlan::parse("clockjump@5:9000"),
            Ok(FaultPlan::new(5, FaultKind::ClockJump(9000)))
        );
        assert_eq!(
            FaultPlan::parse("panic@9"),
            Ok(FaultPlan::new(9, FaultKind::Panic))
        );
        for bad in [
            "", "trip", "trip@x", "meteor@3", "clockjump@5", "overflow@", "panic@",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn meter_is_sync_and_shareable_by_reference() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<BudgetMeter>();
        assert_sync::<&BudgetMeter>();
    }

    #[test]
    fn concurrent_ticks_trip_exactly_at_the_cap() {
        // 4 threads hammer a shared meter; the paths counter must be exact
        // and the first trip must win (always BudgetKind::Paths here).
        let m = BudgetMeter::new(&Budget::default().with_max_paths(1_000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..500 {
                        m.tick_path();
                    }
                });
            }
        });
        assert_eq!(m.tripped(), Some(BudgetKind::Paths));
        // Every successful tick incremented the counter exactly once; the
        // counter may exceed the cap by at most the number of threads that
        // raced past the check, and is at least cap + 1 (the tripping tick).
        assert!(m.paths_used() > 1_000);
        assert!(m.paths_used() <= 2_000);
    }

    #[test]
    fn concurrent_fault_fires_exactly_once() {
        let m = BudgetMeter::new(
            &Budget::default().with_fault(FaultPlan::new(100, FaultKind::Overflow)),
        );
        let failures: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..50).filter(|_| !m.tick_path()).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        // Op 100 fires the overflow; subsequent ticks all refuse.
        assert!(failures >= 1);
        assert!(m.injected_overflow().is_some());
        assert_eq!(m.tripped(), Some(BudgetKind::WallClock));
    }

    #[test]
    fn budget_builders() {
        let b = Budget::wall_ms(5).with_max_paths(1).with_max_segments(2);
        assert_eq!(b.wall, Some(Duration::from_millis(5)));
        assert_eq!(b.max_paths, Some(1));
        assert_eq!(b.max_segments, Some(2));
        assert_eq!(BudgetKind::Paths.as_str(), "paths");
        assert_eq!(format!("{}", BudgetKind::WallClock), "wall-clock deadline");
    }
}
