//! A tiny deterministic property-testing harness.
//!
//! The repo builds offline, so `proptest` is unavailable; the property
//! suites under `crates/*/tests/prop_*.rs` use this instead. The model is
//! deliberately simple: [`check`] runs a closure over `cases` independent
//! deterministic RNG streams and, if one panics, re-raises with the case
//! index and seed so the failure reproduces with
//! [`TestRng::from_seed`]`(seed)`. There is no shrinking — generators
//! here are small enough that the raw failing seed is debuggable.
//!
//! The RNG is SplitMix64, the same generator `dynbatch-simtime` uses for
//! workloads (duplicated here because `simtime` depends on this crate).
//!
//! [`check_decoder`] is the shared harness for decoders: round trip,
//! truncation, trailing bytes and bit flips, with no panic allowed.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic 64-bit RNG (SplitMix64) for generating test inputs.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from an explicit seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`; `bound` must be positive.
    /// Uses rejection sampling, so the distribution is exactly uniform.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// A uniform `u64` in `[lo, hi)`; the range must be non-empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// A uniform `u32` in `[lo, hi)`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.range(lo as u64, hi as u64) as u32
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }

    /// A uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A biased coin: `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Runs `body` over `cases` deterministic RNG streams derived from
/// `seed`. On a panic, re-raises with the failing case index and the
/// exact per-case seed, so the failure reproduces in isolation with
/// `body(&mut TestRng::from_seed(that_seed))`.
pub fn check(cases: u32, seed: u64, body: impl Fn(&mut TestRng)) {
    for case in 0..cases {
        // Decorrelate per-case streams: feed the case index through one
        // SplitMix64 step rather than seeding with `seed + case` directly.
        let case_seed =
            TestRng::from_seed(seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        let result = catch_unwind(AssertUnwindSafe(|| {
            body(&mut TestRng::from_seed(case_seed));
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("property failed on case {case}/{cases} (seed {case_seed:#018x}): {msg}");
        }
    }
}

/// Decoder properties of a canonical binary encoding, checked on one
/// valid `payload`:
///
/// * it decodes, and re-encodes to exactly `payload`;
/// * every strict prefix is `Err` (a decoder never guesses a tail);
/// * `payload` plus any trailing byte is `Err`;
/// * every single-bit flip is `Err` or decodes to a value that
///   re-encodes to exactly the flipped bytes — canonical: no two byte
///   strings decode to the same value;
/// * no decode panics.
///
/// A failure names the mutation that broke it.
pub fn check_decoder<T>(
    payload: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, String>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let run = |what: &str, bytes: &[u8]| -> Result<T, String> {
        catch_unwind(AssertUnwindSafe(|| decode(bytes)))
            .unwrap_or_else(|_| panic!("decoding {what} panicked"))
    };
    let value = run("the payload", payload).expect("the payload decodes");
    assert_eq!(encode(&value), payload, "the payload re-encodes to itself");
    for cut in 0..payload.len() {
        assert!(
            run(&format!("the {cut}-byte prefix"), &payload[..cut]).is_err(),
            "the {cut}-byte prefix of a {}-byte payload decodes",
            payload.len()
        );
    }
    let mut longer = payload.to_vec();
    for extra in [0x00, 0x01, 0x80, 0xff] {
        longer.push(extra);
        assert!(
            run("a trailing byte", &longer).is_err(),
            "a trailing {extra:#04x} is accepted"
        );
        longer.pop();
    }
    let mut flipped = payload.to_vec();
    for bit in 0..payload.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(other) = run(&format!("bit flip {bit}"), &flipped) {
            assert_eq!(
                encode(&other),
                flipped,
                "bit flip {bit} decodes to a value with another encoding"
            );
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_seed(42);
        let mut b = TestRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bounds_are_respected() {
        let mut rng = TestRng::from_seed(7);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            let v = rng.range(5, 15);
            assert!((5..15).contains(&v));
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
            let x = *rng.pick(&[1, 2, 3]);
            assert!((1..=3).contains(&x));
        }
    }

    #[test]
    fn check_runs_all_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let count = AtomicU32::new(0);
        check(16, 1, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    /// A decoder that ignores what follows its value is caught.
    #[test]
    #[should_panic(expected = "a trailing 0x00 is accepted")]
    fn check_decoder_catches_ignored_trailing_bytes() {
        check_decoder(
            &[7],
            |b: &[u8]| b.first().copied().ok_or_else(|| "empty".to_owned()),
            |v: &u8| vec![*v],
        );
    }

    #[test]
    #[should_panic(expected = "property failed on case")]
    fn check_reports_failing_case() {
        check(8, 2, |rng| {
            let v = rng.below(100);
            assert!(v == u64::MAX, "draw {v} is never u64::MAX");
        });
    }
}
