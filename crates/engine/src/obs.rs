//! Engine instrumentation: pre-registered `pts-obs` handles.
//!
//! One struct of `Copy` handles, registered once behind a `OnceLock`, so
//! the hot paths (per-batch ingest, per-draw sampling, per-respawn
//! replay) pay one `&'static` deref plus a relaxed atomic — never a
//! registry lookup. Metric names are inventoried in DESIGN.md §11.

use pts_obs::{registry, Counter, Histogram};
use std::sync::OnceLock;

/// The engine's metric handles.
#[derive(Debug)]
pub(crate) struct EngineObs {
    /// `engine.ingest.updates` — updates ingested (pre-coalescing).
    pub ingest_updates: Counter,
    /// `engine.ingest.batches` — ingest batches applied.
    pub ingest_batches: Counter,
    /// `engine.draw.ns` — per-draw latency (both outcomes).
    pub draw_ns: Histogram,
    /// `engine.draw.fail` — draws that returned ⊥.
    pub draw_fail: Counter,
    /// `engine.pool.respawns` — pool slots respawned after consumption.
    pub pool_respawns: Counter,
    /// `engine.pool.replayed_updates` — net coalesced updates replayed
    /// into each respawned sampler (the respawn cost distribution).
    pub pool_replayed: Histogram,
    /// `engine.checkpoint.bytes` — checkpoint bytes written.
    pub checkpoint_bytes: Counter,
    /// `engine.restore.bytes` — checkpoint bytes read back.
    pub restore_bytes: Counter,
    /// `engine.merges` — snapshots merged in.
    pub merges: Counter,
}

/// The process-global engine handles.
pub(crate) fn obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = registry();
        EngineObs {
            ingest_updates: r.counter("engine.ingest.updates"),
            ingest_batches: r.counter("engine.ingest.batches"),
            draw_ns: r.histogram("engine.draw.ns"),
            draw_fail: r.counter("engine.draw.fail"),
            pool_respawns: r.counter("engine.pool.respawns"),
            pool_replayed: r.histogram("engine.pool.replayed_updates"),
            checkpoint_bytes: r.counter("engine.checkpoint.bytes"),
            restore_bytes: r.counter("engine.restore.bytes"),
            merges: r.counter("engine.merges"),
        }
    })
}
