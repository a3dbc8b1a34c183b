//! Observability: spans, engine-decision counters, and exporters.
//!
//! Where [`telemetry`](crate::telemetry) answers *what happened* (the
//! deterministic per-round [`RoundEvent`](crate::telemetry::RoundEvent)
//! stream), this module answers *where the time went* and *which decision
//! path fired*:
//!
//! * [`Tracer`] — a hand-rolled, zero-dependency span tracer. Scoped
//!   [`SpanGuard`]s record hierarchical, monotonic-clock
//!   [`SpanRecord`]s; the disabled path costs one atomic load and
//!   allocates nothing. Attach to a run with
//!   [`Simulation::set_tracer`](crate::Simulation::set_tracer).
//! * [`EngineCounters`] — one struct unifying the far-field decision
//!   ladder's per-rung counters ([`FarFieldStats`]), per-tier round
//!   routing, and fault-perturbation activity, read via
//!   [`Simulation::engine_counters`](crate::Simulation::engine_counters)
//!   and exportable as JSONL through
//!   [`telemetry::jsonl`](crate::telemetry::jsonl).
//! * [`export`] — Prometheus text exposition, Chrome trace-event JSON
//!   (loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev)),
//!   and collapsed-stack flamegraph text. Every format has a parser, so
//!   round-trips are tested rather than assumed.
//!
//! * [`progress`] — typed supervised-trial progress events
//!   ([`ProgressEvent`]) delivered to a [`ProgressSink`] by the observed
//!   Monte-Carlo runners, so a fleet is no longer a black box between
//!   submit and summary.
//! * [`timeseries`] — a fixed-capacity ring-buffer recorder that turns
//!   periodic counter snapshots ([`TsSample`]) into monotonic deltas
//!   ([`TsFrame`]) with windowed rates, for live dashboards.
//!
//! Nothing here participates in the determinism contract: attaching a
//! tracer never changes a run's outcome (spans only *observe* the step
//! loop), attaching a progress sink never changes a trial's result, and
//! wall-clock measurements differ between byte-identical runs.
//!
//! [`FarFieldStats`]: fading_channel::FarFieldStats

mod counters;
pub mod export;
pub mod progress;
pub mod timeseries;
mod tracer;

pub use counters::{EngineCounters, ResolvePath};
pub use progress::{MemoryProgress, NoopProgress, ProgressEvent, ProgressSink};
pub use timeseries::{Rates, TimeSeries, TsFrame, TsSample};
pub use tracer::{SpanGuard, SpanRecord, Tracer};
