//! The benchmark's vocabulary: workload names and every metric it
//! prints, with unit and direction. `BENCHMARK.json` at the repository
//! root lists the same names; a self-test keeps the two in step.

/// Which run prints a metric: the end-to-end run, timed with tracing
/// off (`--trace 0`), or the traced per-layer run (`--trace 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a smaller value is better.
    pub lower_is_better: bool,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, lower_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        kind: Kind::PerLayer,
    }
}

/// Every metric, in print order. Counts are "higher is better" only
/// nominally: they are deterministic work tallies that must repeat
/// exactly, and a change in one is a behaviour change, not a speed-up.
pub const METRICS: &[Metric] = &[
    // End to end (tracing off; round times normalised to host speed).
    e2e("wall_norm_s", "s", true),
    e2e("throughput_norm", "1/s", false),
    e2e("setup_s", "s", true),
    e2e("peak_rss_mb", "MB", true),
    // des: scheduler counts from the run's SchedulerProfile.
    layer("des.events_dispatched", "count", false),
    layer("des.queue_high_water", "count", true),
    layer("des.wheel.overflow_promotions", "count", true),
    // radio: MAC counters from the metrics registry.
    layer("radio.data_tx", "count", true),
    layer("radio.ack_tx", "count", true),
    layer("radio.collisions", "count", true),
    layer("radio.delivered", "count", false),
    layer("radio.delivery_ratio", "ratio", false),
    layer("radio.data_tx.location_update", "count", true),
    // net: routing outcomes.
    layer("net.routing.drops.ttl_expired", "count", true),
    layer("net.routing.drops.no_neighbors", "count", true),
    layer("net.report_hops", "hops", true),
    layer("net.request_hops", "hops", true),
    // core.coord: the coordination protocol's own counters.
    layer("coord.reports_sent", "count", false),
    layer("coord.reports_delivered", "count", false),
    layer("coord.replacements", "count", false),
    // core.obs: what the traced run's counting sink saw.
    layer("obs.records", "count", false),
    layer("obs.bytes", "bytes", true),
    // core.sweep
    layer("sweep.cells", "count", false),
    // Layer probes: ns per unit of work, then the unit count.
    layer("radio.medium.ns_per_hearer", "ns", true),
    layer("radio.medium.hearer_visits", "count", false),
    layer("radio.engine.ns_per_delivery", "ns", true),
    layer("radio.engine.deliveries", "count", false),
    layer("net.flood.ns_per_accept", "ns", true),
    layer("net.flood.accept_calls", "count", false),
    layer("net.routing.ns_per_decision", "ns", true),
    layer("net.routing.decisions", "count", false),
    layer("net.neighbor.ns_per_update", "ns", true),
    layer("net.neighbor.updates", "count", false),
    layer("des.queue.ns_per_op", "ns", true),
    layer("des.queue.ops", "count", false),
    layer("geom.spatial.ns_per_query", "ns", true),
    layer("geom.spatial.queries", "count", false),
    layer("obs.sink.encode_ns_per_record", "ns", true),
    layer("obs.sink.decode_ns_per_record", "ns", true),
    layer("obs.fold.aggregate_ns_per_record", "ns", true),
    layer("obs.fold.spans_ns_per_record", "ns", true),
    layer("obs.fold.timeline_ns_per_record", "ns", true),
    layer("obs.fold.replay_ns_per_record", "ns", true),
    layer("obs.fold.health_ns_per_record", "ns", true),
    // core.harness: the traced run's subsystem wall-clock buckets.
    layer("core.harness.radio_event_s", "s", true),
    layer("core.harness.relay_send_s", "s", true),
    layer("core.harness.sample_s", "s", true),
    layer("core.harness.other_event_s", "s", true),
    layer("core.harness.unattributed_s", "s", true),
    layer("trace.overhead_frac", "ratio", true),
    // core.sweep timing.
    layer("sweep.cell_median_s", "s", true),
    layer("sweep.cell_max_s", "s", true),
    layer("sweep.parallel_efficiency", "ratio", false),
];

/// The metrics a run of `kind` prints.
pub fn metrics_of(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.kind == kind)
}

/// Whether `s` is a legal metric or workload name: ASCII letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit, at most
/// 64 characters.
#[cfg(test)]
pub fn is_valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
