//! Runtime invariant checking, gated behind the `validate` cargo feature.
//!
//! The [`invariant!`](crate::invariant) macro is the single entry point: every structural
//! invariant in the workspace (byte conservation, dispatch order, slab
//! occupancy, sender sanity, buffer conservation, fluid-model output
//! sanity) asserts through it. With the feature off the macro expands to
//! nothing, so the hot paths carry zero cost; with it on, a violation
//! panics with the stable message shape
//!
//! ```text
//! invariant violated [<name>]: <details>
//! ```
//!
//! The bracketed name is a machine-matchable tag: the mutant harness
//! (`sammy-bench`'s `lab::mutants`) injects known corruptions and asserts
//! that each one trips *exactly* the intended invariant by matching the
//! tag in the panic payload. Keep names stable; they are part of the
//! validation contract documented in DESIGN.md §12.
//!
//! Invariant names currently in use:
//!
//! | tag | crate | meaning |
//! |-----|-------|---------|
//! | `queue-byte-conservation` | netsim | enqueued = dequeued + dropped + queued per queue |
//! | `topology-packet-conservation` | netsim | injected = delivered + dropped + live in the store, and live = queued + on a wire, per flow-summed topology |
//! | `wire-order` | netsim | a link's wire FIFO is pushed in increasing arrival `(time, seq)` |
//! | `dispatch-order` | netsim | events dispatch in strictly increasing `(time, seq)`, never behind the clock |
//! | `packet-store` | netsim | packet-store ids never double-allocated or double-freed |
//! | `tcp-sender-sanity` | transport | `snd_una <= snd_nxt <= stream_end`, cwnd/inflight bounds |
//! | `pacing-rate-bounds` | transport | configured pace is finite, positive, below the sanity cap |
//! | `player-buffer-conservation` | video | committed content = played + buffered, clock monotone |
//! | `fluid-chunk-sane` | fluidsim | chunk model outputs finite/positive times, loss in `[0, 1]` |

/// The prefix every violation message carries (see module docs).
const VIOLATION_PREFIX: &str = "invariant violated";

/// Format the stable violation tag for `name`, e.g. for matching panic
/// payloads in harnesses: `violation_tag("dispatch-order")` returns
/// `"invariant violated [dispatch-order]"`.
pub fn violation_tag(name: &str) -> String {
    format!("{VIOLATION_PREFIX} [{name}]")
}

/// Extract the message from a payload caught by `std::panic::catch_unwind`.
/// Formatted panics box a `String`, but the compiler const-folds constant
/// messages into `&str`; harnesses must accept both.
pub fn panic_message(err: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = err.downcast_ref::<String>() {
        s
    } else if let Some(s) = err.downcast_ref::<&str>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Assert a named runtime invariant.
///
/// `invariant!("tag", cond, "format", args...)` panics with
/// `invariant violated [tag]: ...` when `cond` is false and the crate's
/// `validate` feature is enabled; otherwise it expands to nothing.
///
/// Note the `cfg` is evaluated at the *expansion site*, so each crate
/// using the macro declares its own `validate` feature (forwarding to
/// `netsim/validate` so the whole stack switches on together).
#[macro_export]
macro_rules! invariant {
    ($name:literal, $cond:expr, $($fmt:tt)+) => {{
        #[cfg(feature = "validate")]
        {
            if !($cond) {
                panic!(
                    "invariant violated [{}]: {}",
                    $name,
                    format_args!($($fmt)+)
                );
            }
        }
    }};
}

#[cfg(all(test, feature = "validate"))]
mod tests {
    use super::*;

    #[test]
    fn passing_invariant_is_silent() {
        crate::invariant!("test-tag", 1 + 1 == 2, "math broke");
    }

    #[test]
    fn failing_invariant_carries_stable_tag() {
        let err = std::panic::catch_unwind(|| {
            crate::invariant!("test-tag", false, "value was {}", 42);
        })
        .expect_err("must panic");
        let msg = panic_message(&*err);
        assert_eq!(msg, "invariant violated [test-tag]: value was 42");
        assert!(msg.starts_with(&violation_tag("test-tag")));
    }
}
