//! `mt-obs` — end-to-end service telemetry for the MultiTitan
//! reproduction.
//!
//! PR 2 (`mt-trace`) gave the *simulator core* its measurement substrate:
//! typed per-cycle events, a profiler, and Chrome trace export. This
//! crate gives the *serving path* the same discipline, because the
//! ROADMAP's 100k-req/s push is blocked on measurement, not mechanism —
//! you cannot scale what you cannot observe, and you cannot keep a win
//! you cannot gate. Four pieces, all std-only and dependency-free beyond
//! `mt-trace`'s JSON layer:
//!
//! * [`hdr`] — bounded log-linear (HDR-style) histograms: fixed memory
//!   over the full `u64` range, mergeable, p50/p99/p999 within a proven
//!   relative-error bound (`2^-(sub_bits+1)`, ≈1.6 % at the default).
//!   Replaces the unbounded exact sample buffer in the serve metrics.
//! * [`span`] — request-scoped span trees (`read-request` →
//!   `queue-wait` → `worker-service` ⊃ `sim-run` → `respond`) with
//!   monotonic timing, exported as Chrome trace JSON through the PR 2
//!   exporter so Perfetto loads service spans next to cycle traces.
//! * [`window`] — sliding-window counters for instantaneous rates
//!   (req/s, error rate, 429 rate) with deterministic, injectable time.
//! * [`prom`] — Prometheus text-format exposition (counters, gauges,
//!   histogram-backed summaries) plus a grammar validator for CI.
//! * [`hash`] — FNV-1a 64, the repository's one content hash.
//! * [`benchdiff`] — per-metric-tolerance diffing of committed
//!   `mt-*-v1` BENCH documents; `repro-benchdiff` turns it into the
//!   regression gate `./ci` runs on every PR.

pub mod benchdiff;
pub mod hash;
pub mod hdr;
pub mod prom;
pub mod span;
pub mod window;

pub use benchdiff::{diff, Finding, Rule, Tolerance};
pub use hash::fnv1a64;
pub use hdr::HdrHistogram;
pub use prom::PromText;
pub use span::{Span, SpanSet};
pub use window::WindowedCounter;
