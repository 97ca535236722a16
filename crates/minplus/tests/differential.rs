//! Differential property suite: the i64 scalar convolution pass against
//! the exact-`Q` kernel it falls back to.
//!
//! The general kernel behind [`srtw_minplus::Curve::try_conv_upto`] first
//! runs an i64 fixed-denominator pass and replays the computation in exact
//! `Q` when an intermediate leaves i64. The scalar pass is a pure implementation
//! strategy: its result must be **byte-identical** to the exact one, and
//! the `BudgetMeter` must see the identical tick sequence, so budget trips,
//! cancellation and injected faults land on the same operation index
//! either way. Scaling every value by `2⁴⁰` forces the fallback, and
//! linearity (`(k·f) ⊗ (k·g) = k·(f ⊗ g)`) makes the two runs comparable.
//! Every property here runs ≥ 64 seeded cases (the harness default;
//! `SRTW_PROP_CASES` overrides).

use srtw_detrand::prop::forall;
use srtw_detrand::Rng;
use srtw_minplus::{Budget, BudgetMeter, Curve, Q};

/// A small positive rational with bounded numerator/denominator.
fn small_pos_q(rng: &mut Rng) -> Q {
    Q::new(rng.random_range(1i128..=12), rng.random_range(1i128..=4))
}

/// A small non-negative rational.
fn small_q(rng: &mut Rng) -> Q {
    Q::new(rng.random_range(0i128..=12), rng.random_range(1i128..=4))
}

/// Random monotone curve from the constructor grammar.
fn curve(rng: &mut Rng) -> Curve {
    match rng.random_range(0u32..6) {
        0 => Curve::constant(small_q(rng)),
        1 => Curve::affine(small_q(rng), small_q(rng)),
        2 => Curve::rate_latency(small_pos_q(rng), small_q(rng)),
        3 => Curve::staircase(small_pos_q(rng), small_pos_q(rng)),
        4 => Curve::staircase_lower(small_pos_q(rng), small_pos_q(rng)),
        _ => {
            let a = Curve::staircase(small_pos_q(rng), small_pos_q(rng));
            a.shift_up(small_q(rng))
        }
    }
}

#[test]
fn scalar_fast_path_matches_scaled_exact() {
    forall(
        "scalar_fast_path_matches_scaled_exact",
        |rng, _| {
            (
                curve(rng),
                curve(rng),
                Q::int(rng.random_range(1i128..=25)),
            )
        },
        |(a, b, h)| {
            // Small inputs take the i64 scalar kernel; scaling values by a
            // huge factor k forces intermediate products past i64 so the
            // kernel spills to the exact-Q fallback mid-run. Linearity of
            // value scaling ((k·f) ⊗ (k·g) = k·(f ⊗ g)) makes the two runs
            // comparable: the fallback must land on the byte-identical
            // scaled result.
            let k = Q::int(1i128 << 40);
            let small = a.conv_upto(b, *h);
            let big = a.scale(k).conv_upto(&b.scale(k), *h);
            assert_eq!(
                big,
                small.scale(k),
                "i64→Q overflow fallback diverged from the exact kernel"
            );
        },
    );
}

#[test]
fn overflow_boundary_ticks_identically() {
    forall(
        "overflow_boundary_ticks_identically",
        |rng, _| {
            (
                curve(rng),
                curve(rng),
                Q::int(rng.random_range(1i128..=20)),
                rng.random_range(1u64..=80),
            )
        },
        |(a, b, h, cap)| {
            // The tick sequence is part of the contract: a capped meter must
            // trip at the same count whether the scalar kernel completed,
            // spilled at tick k and replayed in Q, or never started. Compare
            // the small-value run (scalar path) against the huge-value run
            // (spilling path) under the same cap: outcomes must agree
            // because the replayed Q prefix swallows already-issued ticks.
            let k = Q::int(1i128 << 40);
            let m1 = BudgetMeter::new(&Budget::default().with_max_segments(*cap));
            let m2 = BudgetMeter::new(&Budget::default().with_max_segments(*cap));
            let small = a.try_conv_upto(b, *h, &m1);
            let big = a.scale(k).try_conv_upto(&b.scale(k), *h, &m2);
            match (small, big) {
                (Ok(s), Ok(bg)) => assert_eq!(bg, s.scale(k), "results diverged"),
                (Err(es), Err(eb)) => assert_eq!(es, eb, "error kinds diverged"),
                (s, bg) => panic!(
                    "tick sequences diverged at cap {cap}: small = {s:?}, big = {bg:?}"
                ),
            }
        },
    );
}
