//! Deterministic observability for the CRAID simulator.
//!
//! Everything in this crate is stamped with the *simulation clock*
//! ([`SimTime`](craid_simkit::SimTime)), never the host clock, so a traced
//! run is as reproducible as an untraced one: replaying the same scenario
//! twice produces byte-identical trace files.
//!
//! The crate has three pieces:
//!
//! * [`Tracer`] — a bounded ring buffer of virtual-time [`TraceEvent`]s
//!   (spans and instants across the [`SpanCategory`] lanes), installed
//!   thread-locally via [`with_tracer`] so subsystems emit through the
//!   free functions ([`emit`], [`set_now`]) without threading a handle
//!   everywhere. With no tracer installed every hook is a single
//!   thread-local flag test and builds nothing.
//! * exporters ([`Trace::to_chrome_json`], [`Trace::to_jsonl`]) — the
//!   Chrome trace-event format (loadable in Perfetto / `chrome://tracing`)
//!   and a compact JSONL stream.
//! * [`ObsSnapshot`] — the emission ledger ([`Trace::snapshot`]): events
//!   emitted per category, retained and dropped, which a traced run
//!   embeds in its report so the trace file can be reconciled against it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod tracer;

pub use export::TraceFormat;
pub use tracer::{
    active, emit, set_now, with_tracer, ArgValue, ObsSnapshot, SpanCategory, Trace, TraceEvent,
    Tracer, DEFAULT_CAPACITY,
};
