//! # mcgp-runtime — hermetic zero-dependency runtime substrate
//!
//! Every other crate in the workspace builds on this one, and this one
//! builds on nothing but `std`. That is a deliberate policy, not an
//! accident (see `DESIGN.md`, "Hermetic builds"): the workspace must
//! compile and test with `--offline` on a machine that has never talked to
//! crates.io, and the partitioner must own the runtime behaviours its
//! results depend on.
//!
//! Seven modules:
//!
//! * [`rng`] — a seedable deterministic PRNG (SplitMix64-seeded
//!   xoshiro256++). Same seed ⇒ bit-identical stream on every platform,
//!   which makes every partition reproducible and every test failure
//!   replayable from a single `u64`.
//! * [`pool`] — a scoped worker pool over index ranges. Results are merged
//!   in index order, so parallel execution never perturbs determinism.
//! * [`json`] — a minimal JSON value type with writer and parser, enough
//!   for the experiment JSONL records and config round-trips.
//! * [`metrics`] — the observability ledger: phase timers, counters,
//!   gauges and histograms declared as dense enums, plus trace events, in
//!   one thread-local merged across [`pool`] workers. Tallies are always
//!   on (an array index per record); Prometheus exposition lives here too.
//! * [`trace`] — structured tracing: scoped spans ([`span!`]) and typed
//!   instant events ([`event!`]) appended to the ledger, exportable as
//!   JSONL or Chrome trace-event JSON. Off by default; near-zero cost when
//!   off.
//! * [`profile`] — a span-stack sampling profiler: spans publish to
//!   lock-free per-thread slots, a sampler thread tallies collapsed
//!   stacks (Brendan Gregg `a;b;c 42` format). Off by default; one
//!   relaxed load when off.
//! * [`net`] — hand-rolled HTTP/1.1 request/response primitives over
//!   `std::net`, the transport under `mcgp serve` (hermetic policy: no
//!   hyper/tokio).

pub mod json;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod profile;
pub mod rng;
pub mod trace;

pub use json::{Json, ToJson};
pub use metrics::{Counter, Gauge, Hist, Histogram, Ledger, Phase, WindowedHistogram};
pub use profile::{CollapsedStacks, Profiler};
pub use rng::{Rng, SliceRandom};
pub use trace::{FieldValue, Span, TraceEvent, TraceFormat};
