//! Composition of servers: tandem concatenation and leftover service.
//!
//! * [`concatenate_upto`] — a flow crossing servers `β₁, β₂, …` in tandem
//!   sees the convolved end-to-end service `β₁ ⊗ β₂ ⊗ …` (pay-bursts-only-
//!   once), computed finitarily on a caller-chosen horizon.
//! * [`leftover_blind`] — under blind (arbitrary-order) multiplexing, a
//!   stream competing with interference bounded by `α` retains at least
//!   `[β − α]⁺↑` (the non-decreasing non-negative closure).
//! * [`leftover_chain`] — fixed-priority: each stream's leftover after all
//!   higher-priority arrival curves are subtracted.

use srtw_minplus::{Curve, Q};

/// End-to-end service curve of a tandem of servers, exact on `[0, h]`.
///
/// # Examples
///
/// ```
/// use srtw_resource::concatenate_upto;
/// use srtw_minplus::{Curve, Q};
/// let b1 = Curve::rate_latency(Q::int(2), Q::int(1));
/// let b2 = Curve::rate_latency(Q::ONE, Q::int(2));
/// let e2e = concatenate_upto(&[b1, b2], Q::int(40));
/// // Latencies add, the slower rate dominates.
/// assert_eq!(e2e.eval(Q::int(3)), Q::ZERO);
/// assert_eq!(e2e.eval(Q::int(7)), Q::int(4));
/// ```
pub fn concatenate_upto(betas: &[Curve], h: Q) -> Curve {
    let (first, rest) = betas
        .split_first()
        .expect("concatenate_upto needs at least one server");
    rest.iter()
        .fold(first.clone(), |acc, b| acc.conv_upto(b, h))
}

/// Leftover (remaining) lower service curve under blind multiplexing:
/// `β′ = sup_{s≤t} max(0, β(s) − α(s))`.
///
/// Sound for any work-conserving arbitration when `α` upper-bounds the
/// total interfering workload.
pub fn leftover_blind(beta: &Curve, alpha: &Curve) -> Curve {
    beta.sub_clamped_monotone(alpha)
}

/// Fixed-priority leftovers: stream `i` (0 = highest priority) receives the
/// leftover of `beta` after the arrival curves of all higher-priority
/// streams.
pub fn leftover_chain(beta: &Curve, alphas: &[Curve]) -> Vec<Curve> {
    let mut out = Vec::with_capacity(alphas.len());
    let mut current = beta.clone();
    for alpha in alphas {
        let next = current.sub_clamped_monotone(alpha);
        out.push(current);
        current = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;

    #[test]
    fn concatenation_of_rate_latencies() {
        let b1 = Curve::rate_latency(Q::int(2), Q::int(1));
        let b2 = Curve::rate_latency(Q::ONE, Q::int(2));
        let b3 = Curve::rate_latency(Q::int(3), Q::ONE);
        let e2e = concatenate_upto(&[b1, b2, b3], Q::int(60));
        let expect = Curve::rate_latency(Q::ONE, Q::int(4));
        for i in 0..=120 {
            let t = q(i, 2);
            assert_eq!(e2e.eval(t), expect.eval(t), "at {t}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn concatenate_empty_panics() {
        let _ = concatenate_upto(&[], Q::int(10));
    }

    #[test]
    fn leftover_blind_basic() {
        // Unit server minus periodic interference of 1 every 4.
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        let alpha = Curve::staircase(Q::int(4), Q::ONE);
        let left = leftover_blind(&beta, &alpha);
        // Long-run leftover rate 1 − 1/4 = 3/4.
        assert_eq!(left.rate(), q(3, 4));
        // Leftover is zero until the server catches up with the burst.
        assert_eq!(left.eval(Q::ONE), Q::ZERO);
        assert!(left.eval(Q::int(100)).is_positive());
        // Monotone.
        let mut prev = Q::ZERO;
        for i in 0..200 {
            let v = left.eval(q(i, 2));
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn leftover_chain_priorities() {
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        let a1 = Curve::staircase(Q::int(10), Q::int(2));
        let a2 = Curve::staircase(Q::int(10), Q::int(3));
        let chain = leftover_chain(&beta, &[a1, a2]);
        assert_eq!(chain.len(), 2);
        // Highest priority sees the full server.
        assert_eq!(chain[0], beta);
        // Second sees the leftover; rates: 1 − 2/10 = 4/5.
        assert_eq!(chain[1].rate(), q(4, 5));
        // Leftovers shrink with priority level (checked pointwise).
        for i in 0..100 {
            let t = q(i, 1);
            assert!(chain[1].eval(t) <= chain[0].eval(t));
        }
    }
}
