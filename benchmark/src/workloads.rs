//! The two workloads: their fixed parameters, the timed end-to-end
//! run, the traced per-layer run, and the correctness gate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use robonet_core::obs::{
    event_from_jsonl, trace_header, EventSink, HealthMonitor, JsonlSink, ReplaySetup, ReplayState,
    SpanAssembler, Timeline, TraceAggregate,
};
use robonet_core::report::Row;
use robonet_core::trace::TraceEvent;
use robonet_core::{
    coord, Algorithm, Metrics, Outcome, ScenarioConfig, Simulation, SweepGrid, SweepResult,
};
use robonet_radio::TrafficClass;

use crate::probes::{self, Field};
use crate::reference;

/// Metric name → measured value.
pub type Values = BTreeMap<&'static str, f64>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `dynamic` on a 5000-sensor field: location-update floods dominate.
    FloodDynamic5k,
    /// The paper's k ∈ {2,3,4} × 3 algorithms × 2 seeds sweep grid.
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::FloodDynamic5k, Workload::PaperSweep];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodDynamic5k => "flood_dynamic_5k",
            Workload::PaperSweep => "paper_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Robots per field side of the 5000-sensor workload (`k = 10`, 100
/// robots, 50 sensors each — the paper's density on a 2 km field).
const FIELD_K: usize = 10;
/// Time compression of every workload (the CI goldens' 64×).
const SCALE: f64 = 64.0;
/// Extra `Simulation::new` calls after every timed round: a set-up takes
/// milliseconds, so `setup_s` is the median of many, spread over the
/// whole run.
const SETUP_REPS: usize = 20;
/// Timed rounds per run, whatever `--seconds` says; a run reports the
/// normalised median round.
const MIN_ITERS: usize = 3;
/// Minimum fold passes, and their minimum total time, in a traced run.
const FOLD_PASSES: usize = 3;
const FOLD_MIN_S: f64 = 0.5;

/// The committed correctness record: one `workload seed fingerprint`
/// line per recorded run (see README.md for how to regenerate it).
const RECORDED: &str = include_str!("../fingerprints.tsv");
/// `paper_sweep` at seed 1 is exactly the CI golden-figures grid.
const GOLDEN_SWEEP: &str = include_str!("../../tests/golden/sweep_paper.csv");

/// The simulation config of the single-run workload; the seed is the
/// only parameter that varies.
pub fn sim_config(w: Workload, seed: u64) -> ScenarioConfig {
    assert_eq!(
        w,
        Workload::FloodDynamic5k,
        "paper_sweep is a grid, not a single run"
    );
    ScenarioConfig::paper(FIELD_K, Algorithm::Dynamic)
        .with_seed(seed)
        .scaled(SCALE)
}

/// The `paper_sweep` grid: seeds `seed` and `seed + 1`, so seed 1 is
/// the `tests/golden/sweep_paper.csv` grid.
pub fn sweep_grid(seed: u64) -> SweepGrid {
    let algorithms: Vec<Algorithm> = coord::figure_algorithms().map(|e| e.algorithm).collect();
    SweepGrid::paper(
        &[2, 3, 4],
        &algorithms,
        &[seed, seed.wrapping_add(1)],
        SCALE,
    )
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations, all failed unless `ok`.
    pub fn check_n(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    pub fn check(&mut self, ok: bool) {
        self.check_n(1, ok);
    }
}

/// Compares every fingerprint of a run with the recorded value for the
/// workload and seed, and with the first fingerprint the run produced.
/// An unrecorded seed is checked for self-consistency only.
pub struct Gate {
    recorded: Option<u64>,
    first: Option<u64>,
}

impl Gate {
    pub fn new(w: Workload, seed: u64) -> Gate {
        Gate::with_record(recorded(RECORDED, w, seed))
    }

    pub fn with_record(recorded: Option<u64>) -> Gate {
        Gate {
            recorded,
            first: None,
        }
    }

    pub fn is_recorded(&self) -> bool {
        self.recorded.is_some()
    }

    pub fn check(&mut self, fp: u64) -> bool {
        let first = *self.first.get_or_insert(fp);
        fp == first && self.recorded.is_none_or(|r| r == fp)
    }
}

/// Looks `(w, seed)` up in a fingerprint table.
pub fn recorded(table: &str, w: Workload, seed: u64) -> Option<u64> {
    table.lines().find_map(|line| {
        let mut cols = line.split_whitespace();
        let (name, s, fp) = (cols.next()?, cols.next()?, cols.next()?);
        (name == w.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(fp, 16).ok())
            .flatten()
    })
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A simulation's fingerprint: events dispatched, the `Summary` and
/// every registry counter except the `span.*` ones, which only observed
/// runs publish.
pub fn run_fingerprint(events: u64, m: &Metrics) -> u64 {
    let mut s = format!("{events}|{:?}|", m.summary());
    for (sub, name, v) in m.counters.counters() {
        if !sub.starts_with("span.") {
            let _ = write!(s, "{sub}.{name}={v};");
        }
    }
    fnv(s.as_bytes())
}

fn outcome_fingerprint(o: &Outcome) -> u64 {
    run_fingerprint(o.events_processed, &o.metrics)
}

/// A simulation is correct when its fingerprint passes the gate and
/// its online health monitor saw no broken invariant.
fn sim_ok(gate: &mut Gate, o: &Outcome) -> bool {
    gate.check(outcome_fingerprint(o)) && o.metrics.invariant_violations == 0
}

/// The sweep's figure table exactly as `robonet sweep` prints it.
pub fn sweep_csv(result: &SweepResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", Row::csv_header());
    for r in &result.rows() {
        let _ = writeln!(out, "{}", r.to_csv());
    }
    if !result.failed.is_empty() {
        let _ = writeln!(out, "\n# failed cells");
        for f in &result.failed {
            let _ = writeln!(out, "#   {f}");
        }
    }
    let _ = writeln!(out, "\n# merged aggregate over completed cells");
    for line in result.merged.report().lines() {
        let _ = writeln!(out, "# {line}");
    }
    out
}

/// Whether a sweep's table is right: its fingerprint passes the gate,
/// and at seed 1 it equals the committed golden byte for byte.
fn sweep_ok(gate: &mut Gate, seed: u64, result: &SweepResult) -> bool {
    let csv = sweep_csv(result);
    let clean = result.failed.is_empty()
        && result
            .cells
            .iter()
            .all(|c| c.metrics.invariant_violations == 0);
    clean && gate.check(fnv(csv.as_bytes())) && (seed != 1 || csv == GOLDEN_SWEEP)
}

/// An event sink that keeps every record in memory: the traced runs'
/// counting sink.
#[derive(Clone, Default)]
pub struct CollectSink(Rc<RefCell<Vec<TraceEvent>>>);

impl CollectSink {
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl EventSink for CollectSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().push(event.clone());
    }
}

/// One simulation run: set-up and run times and the outcome.
struct SimRun {
    setup_s: f64,
    wall_s: f64,
    outcome: Outcome,
}

fn run_sim(cfg: &ScenarioConfig, sink: Option<&CollectSink>, profile: bool) -> SimRun {
    let t = Instant::now();
    let mut sim = match sink {
        Some(s) => Simulation::with_sink(cfg.clone(), Box::new(s.clone())),
        None => Simulation::new(cfg.clone()),
    };
    let setup_s = t.elapsed().as_secs_f64();
    if profile {
        sim.enable_subsystem_profile();
    }
    let t = Instant::now();
    let outcome = sim.run_to_completion();
    SimRun {
        setup_s,
        wall_s: t.elapsed().as_secs_f64(),
        outcome,
    }
}

/// Time of `Simulation::new` alone (which deploys the field through
/// `field_deployment`), summed over `cfgs`.
fn setup_time(cfgs: &[ScenarioConfig]) -> f64 {
    cfgs.iter()
        .map(|cfg| {
            let t = Instant::now();
            let sim = Simulation::new(cfg.clone());
            let dt = t.elapsed().as_secs_f64();
            drop(sim);
            dt
        })
        .sum()
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Workers for the sweep: the host's core count.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result of one benchmark run.
pub struct RunResult {
    pub values: Values,
    /// Wall time of every timed round (end-to-end runs only).
    pub samples: Vec<f64>,
    /// The reference time before the first round and after every round
    /// (end-to-end runs only).
    pub references: Vec<f64>,
    /// Units of work per timed round (end-to-end runs only).
    pub work: u64,
    pub tally: Tally,
    /// Whether the seed had a recorded fingerprint (otherwise only
    /// self-consistency was checked).
    pub recorded: bool,
}

/// Whether to start another timed round: until [`MIN_ITERS`] ran, and
/// then while the last round's time still fits in `seconds`.
fn keep_going(start: Instant, walls: &[f64], seconds: f64) -> bool {
    let next = walls.last().copied().unwrap_or(0.0);
    walls.len() < MIN_ITERS || start.elapsed().as_secs_f64() + next <= seconds
}

/// The median of `walls` on a host of nominal speed: scaled by the
/// geometric mean of the reference times taken across the run. One
/// reference time covers well under a second, so it is noisier than a
/// round; their mean over the run is not.
pub fn normalised_median(walls: &[f64], references: &[f64]) -> f64 {
    let mean_ln = references.iter().map(|r| r.ln()).sum::<f64>() / references.len() as f64;
    median(walls) * reference::NOMINAL_S / mean_ln.exp()
}

/// The end-to-end run (`--trace 0`): tracing off while timed.
pub fn run_end_to_end(w: Workload, seed: u64, seconds: f64) -> RunResult {
    match w {
        Workload::FloodDynamic5k => e2e_sim(w, seed, seconds),
        Workload::PaperSweep => e2e_sweep(seed, seconds),
    }
}

/// The end-to-end metrics of a run whose timed rounds took `walls`,
/// each dispatching `work` events, with the reference times `references`
/// around them. `wall_norm_s` is the normalised median round. The work
/// is the same in every round, so `throughput_norm` is the seed's work
/// over `wall_norm_s`: it takes out how much the work varies from seed
/// to seed.
fn e2e_result(
    walls: Vec<f64>,
    references: Vec<f64>,
    work: u64,
    setup: &[f64],
    tally: Tally,
    gate: &Gate,
) -> RunResult {
    let wall = normalised_median(&walls, &references);
    RunResult {
        values: Values::from([
            ("wall_norm_s", wall),
            ("throughput_norm", work as f64 / wall),
            ("setup_s", median(setup)),
            ("peak_rss_mb", peak_rss_mb()),
        ]),
        samples: walls,
        references,
        work,
        tally,
        recorded: gate.is_recorded(),
    }
}

fn e2e_sim(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let cfg = sim_config(w, seed);
    let mut gate = Gate::new(w, seed);
    let mut tally = Tally::default();
    let (mut walls, mut setup, mut events) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let mut references = vec![reference::measure(1)];
    while keep_going(start, &walls, seconds) {
        let run = run_sim(&cfg, None, false);
        references.push(reference::measure(1));
        tally.check(sim_ok(&mut gate, &run.outcome));
        setup.push(run.setup_s);
        walls.push(run.wall_s);
        events = run.outcome.profile.events_dispatched;
        setup.extend((0..SETUP_REPS).map(|_| setup_time(std::slice::from_ref(&cfg))));
    }
    e2e_result(walls, references, events, &setup, tally, &gate)
}

fn e2e_sweep(seed: u64, seconds: f64) -> RunResult {
    let grid = sweep_grid(seed);
    let cells = grid.cells();
    let mut gate = Gate::new(Workload::PaperSweep, seed);
    let mut tally = Tally::default();
    let (mut walls, mut setup, mut events) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let mut references = vec![reference::measure(workers())];
    while keep_going(start, &walls, seconds) {
        let t = Instant::now();
        let result = grid.run(workers());
        walls.push(t.elapsed().as_secs_f64());
        references.push(reference::measure(workers()));
        tally.check_n(cells.len() as u64, sweep_ok(&mut gate, seed, &result));
        events = result.cells.iter().map(|c| c.events_processed).sum();
        setup.extend((0..SETUP_REPS).map(|_| setup_time(cells)));
    }
    e2e_result(walls, references, events, &setup, tally, &gate)
}

/// One traced run with its records kept in memory.
fn record_trace(cfg: &ScenarioConfig, profile: bool) -> (SimRun, Vec<TraceEvent>) {
    let sink = CollectSink::default();
    let run = run_sim(cfg, Some(&sink), profile);
    (run, sink.take())
}

/// One pass of the trace pipeline: encode through `JsonlSink`, decode,
/// then fold through every `obs` view. Each phase is timed.
pub struct Fold {
    /// Seconds per phase, in [`FOLD_PHASES`] order.
    pub phase_s: [f64; 7],
    pub bytes: usize,
    decoded: Vec<Option<TraceEvent>>,
    header_ok: bool,
    aggregate: Result<TraceAggregate, String>,
    spans: String,
    timeline: String,
    replay: String,
    health: (u64, [u32; 4]),
}

/// Metric names of the fold phases, in [`Fold::phase_s`] order.
pub const FOLD_PHASES: [&str; 7] = [
    "obs.sink.encode_ns_per_record",
    "obs.sink.decode_ns_per_record",
    "obs.fold.aggregate_ns_per_record",
    "obs.fold.spans_ns_per_record",
    "obs.fold.timeline_ns_per_record",
    "obs.fold.replay_ns_per_record",
    "obs.fold.health_ns_per_record",
];

pub fn fold_trace(events: &[TraceEvent], setup: &ReplaySetup) -> Fold {
    let mut phase_s = [0.0; 7];
    let mut t = Instant::now();
    let mut lap = |i: usize| {
        phase_s[i] = t.elapsed().as_secs_f64();
        t = Instant::now();
    };

    let mut sink = JsonlSink::new(Vec::with_capacity(events.len() * 100));
    for e in events {
        sink.record(e);
    }
    sink.finish();
    let text = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
    lap(0);

    let mut lines = text.lines();
    let header_ok = lines.next() == Some(trace_header().as_str());
    let decoded: Vec<Option<TraceEvent>> = lines.map(|l| event_from_jsonl(l).ok()).collect();
    lap(1);

    // `TraceAggregate`'s fold is reachable only through its parser, so
    // this phase includes a second decode.
    let aggregate = TraceAggregate::from_jsonl(&text);
    lap(2);

    let ok = || decoded.iter().flatten();
    let mut spans = SpanAssembler::new();
    ok().for_each(|e| spans.ingest(e));
    let spans = spans.finish();
    lap(3);

    let mut timeline = Timeline::new();
    ok().for_each(|e| timeline.ingest(e));
    lap(4);

    let mut replay = ReplayState::new(setup);
    ok().for_each(|e| replay.apply(e));
    lap(5);

    let mut health = HealthMonitor::new();
    ok().for_each(|e| health.ingest(e));
    lap(6);

    Fold {
        phase_s,
        bytes: text.len(),
        header_ok,
        aggregate,
        spans: format!("{}|{:?}", spans.replacements(), spans.stage_rows()),
        timeline: timeline.csv(),
        replay: format!("{}|{:?}", replay.down_count(), replay.counts()),
        health: (health.open_total(), health.stage_counts()),
        decoded,
    }
}

impl Fold {
    /// Records that failed to decode or decoded to something else than
    /// was encoded (a bad header counts as one).
    pub fn bad_records(&self, original: &[TraceEvent]) -> u64 {
        let mismatched = self.decoded.len().abs_diff(original.len())
            + self
                .decoded
                .iter()
                .zip(original)
                .filter(|(d, o)| d.as_ref() != Some(*o))
                .count();
        mismatched as u64 + u64::from(!self.header_ok)
    }

    /// Every view's output, hashed.
    pub fn fingerprint(&self) -> u64 {
        let s = format!(
            "{}|{:?}|{}|{}|{}|{:?}",
            self.decoded.len(),
            self.aggregate,
            self.spans,
            self.timeline,
            self.replay,
            self.health
        );
        fnv(s.as_bytes())
    }
}

/// The fingerprint `--record` writes for `(w, seed)`: one untraced
/// simulation or sweep.
pub fn fingerprint_of(w: Workload, seed: u64) -> u64 {
    match w {
        Workload::FloodDynamic5k => {
            outcome_fingerprint(&run_sim(&sim_config(w, seed), None, false).outcome)
        }
        Workload::PaperSweep => fnv(sweep_csv(&sweep_grid(seed).run(workers())).as_bytes()),
    }
}

/// The traced per-layer run (`--trace 1`).
pub fn run_layered(w: Workload, seed: u64, seconds: f64) -> RunResult {
    match w {
        Workload::PaperSweep => layered_sweep(seed, seconds),
        Workload::FloodDynamic5k => layered_single(w, seed, seconds),
    }
}

/// Work counts of one or more runs (a sweep sums its cells).
fn counts(runs: &[SimRun], v: &mut Values) {
    let outcomes: Vec<&Outcome> = runs.iter().map(|r| &r.outcome).collect();
    let sum = |f: &dyn Fn(&Outcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>() as f64;
    let mean_hops = |f: &dyn Fn(&Metrics) -> &Vec<u32>| {
        let n: usize = outcomes.iter().map(|o| f(&o.metrics).len()).sum();
        let total: u64 = outcomes
            .iter()
            .flat_map(|o| f(&o.metrics).iter())
            .map(|&h| u64::from(h))
            .sum();
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    };
    let data_tx = sum(&|o| o.metrics.tx.totals().data_tx);
    let delivered = sum(&|o| o.metrics.tx.totals().delivered);
    v.insert(
        "des.events_dispatched",
        sum(&|o| o.profile.events_dispatched),
    );
    v.insert(
        "des.queue_high_water",
        outcomes
            .iter()
            .map(|o| o.profile.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    v.insert(
        "des.wheel.overflow_promotions",
        sum(&|o| o.profile.wheel.overflow_promotions),
    );
    v.insert("radio.data_tx", data_tx);
    v.insert("radio.ack_tx", sum(&|o| o.metrics.tx.totals().ack_tx));
    v.insert(
        "radio.collisions",
        sum(&|o| o.metrics.tx.totals().collisions),
    );
    v.insert("radio.delivered", delivered);
    v.insert(
        "radio.delivery_ratio",
        if data_tx > 0.0 {
            delivered / data_tx
        } else {
            0.0
        },
    );
    v.insert(
        "radio.data_tx.location_update",
        sum(&|o| o.metrics.tx.class(TrafficClass::LocationUpdate).data_tx),
    );
    v.insert(
        "net.routing.drops.ttl_expired",
        sum(&|o| o.metrics.packets_dropped.ttl_expired),
    );
    v.insert(
        "net.routing.drops.no_neighbors",
        sum(&|o| o.metrics.packets_dropped.no_neighbors),
    );
    v.insert("net.report_hops", mean_hops(&|m| &m.report_hops));
    v.insert("net.request_hops", mean_hops(&|m| &m.request_hops));
    v.insert("coord.reports_sent", sum(&|o| o.metrics.reports_sent));
    v.insert(
        "coord.reports_delivered",
        sum(&|o| o.metrics.reports_delivered),
    );
    v.insert("coord.replacements", sum(&|o| o.metrics.replacements));
}

/// Wall-clock buckets of traced runs, labelled by what each really
/// bills: `radio_s` is `Event::Radio`, `routing_s` only
/// `Event::RelaySend`, `obs_sink_s` the coverage/telemetry samples and
/// `coord_s` every other event. Whatever the buckets miss (queue pops,
/// the loop itself, the clock reads) is `unattributed_s`.
fn harness_buckets(runs: &[SimRun], v: &mut Values) {
    let sum = |f: &dyn Fn(&SimRun) -> f64| runs.iter().map(f).sum::<f64>();
    let total = sum(&|r| r.outcome.profile.subsystems.total());
    v.insert(
        "core.harness.radio_event_s",
        sum(&|r| r.outcome.profile.subsystems.radio_s),
    );
    v.insert(
        "core.harness.relay_send_s",
        sum(&|r| r.outcome.profile.subsystems.routing_s),
    );
    v.insert(
        "core.harness.sample_s",
        sum(&|r| r.outcome.profile.subsystems.obs_sink_s),
    );
    v.insert(
        "core.harness.other_event_s",
        sum(&|r| r.outcome.profile.subsystems.coord_s),
    );
    v.insert("core.harness.unattributed_s", sum(&|r| r.wall_s) - total);
}

/// Folds each `(trace, setup)` repeatedly and records the median time
/// per record of every phase, plus `obs.records` and `obs.bytes`. Every
/// record must decode to the event encoded, and every pass must give
/// the same views.
fn fold_metrics(traces: &[(Vec<TraceEvent>, ReplaySetup)], tally: &mut Tally, v: &mut Values) {
    let records: usize = traces.iter().map(|(t, _)| t.len()).sum();
    let mut passes: Vec<[f64; 7]> = Vec::new();
    let mut bytes = 0;
    let mut gate = Gate::with_record(None);
    let start = Instant::now();
    while passes.len() < FOLD_PASSES || start.elapsed().as_secs_f64() < FOLD_MIN_S {
        let mut total = [0.0; 7];
        let mut views = String::new();
        bytes = 0;
        for (trace, setup) in traces {
            let fold = fold_trace(trace, setup);
            tally.check_n(trace.len() as u64, fold.bad_records(trace) == 0);
            for (acc, s) in total.iter_mut().zip(fold.phase_s) {
                *acc += s;
            }
            bytes += fold.bytes;
            let _ = write!(views, "{:016x}", fold.fingerprint());
        }
        tally.check(gate.check(fnv(views.as_bytes())));
        passes.push(total);
    }
    for (i, name) in FOLD_PHASES.iter().enumerate() {
        let phase: Vec<f64> = passes.iter().map(|p| p[i]).collect();
        v.insert(name, median(&phase) * 1e9 / records.max(1) as f64);
    }
    v.insert("obs.records", records as f64);
    v.insert("obs.bytes", bytes as f64);
}

/// A workload's untraced and traced runs for the per-layer report.
struct Paired {
    /// The first traced run (subsystem profile on, counting sink
    /// attached) and its records.
    traced: SimRun,
    trace: Vec<TraceEvent>,
    /// Mean wall time of the two untraced and the two traced runs.
    untraced_s: f64,
    traced_s: f64,
}

/// Runs `cfg` untraced, traced, traced, untraced — an order that
/// cancels a linear drift in host speed from the tracing overhead —
/// and checks every outcome with `ok`.
fn paired_runs(
    cfg: &ScenarioConfig,
    tally: &mut Tally,
    mut ok: impl FnMut(&Outcome) -> bool,
) -> Paired {
    let u1 = run_sim(cfg, None, false);
    let (t1, trace) = record_trace(cfg, true);
    let (t2, _) = record_trace(cfg, true);
    let u2 = run_sim(cfg, None, false);
    for run in [&u1, &t1, &t2, &u2] {
        tally.check(ok(&run.outcome));
    }
    Paired {
        untraced_s: (u1.wall_s + u2.wall_s) / 2.0,
        traced_s: (t1.wall_s + t2.wall_s) / 2.0,
        traced: t1,
        trace,
    }
}

fn layered_single(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let cfg = sim_config(w, seed);
    let mut tally = Tally::default();
    let mut v = Values::new();
    let mut gate = Gate::new(w, seed);
    let pair = paired_runs(&cfg, &mut tally, |o| sim_ok(&mut gate, o));

    counts(std::slice::from_ref(&pair.traced), &mut v);
    harness_buckets(std::slice::from_ref(&pair.traced), &mut v);
    v.insert(
        "trace.overhead_frac",
        (pair.traced_s - pair.untraced_s) / pair.untraced_s,
    );
    let setup = ReplaySetup::from_config(&cfg);
    fold_metrics(&[(pair.trace, setup)], &mut tally, &mut v);
    v.insert("sweep.cells", 1.0);
    v.insert("sweep.cell_median_s", pair.untraced_s);
    v.insert("sweep.cell_max_s", pair.untraced_s);
    v.insert("sweep.parallel_efficiency", 1.0);
    probes::run_all(
        &Field::new(&cfg),
        pair.traced.outcome.profile.queue_high_water,
        seconds,
        &mut tally,
        &mut v,
    );
    RunResult {
        values: v,
        samples: Vec::new(),
        references: Vec::new(),
        work: 0,
        tally,
        recorded: gate.is_recorded(),
    }
}

fn layered_sweep(seed: u64, seconds: f64) -> RunResult {
    let grid = sweep_grid(seed);
    let cells = grid.cells();
    let mut tally = Tally::default();
    let mut v = Values::new();

    // The parallel sweep's wall time is the better of two runs, so one
    // cold or disturbed pass does not skew the efficiency figure.
    let mut gate = Gate::new(Workload::PaperSweep, seed);
    let mut par_wall = f64::INFINITY;
    let mut result = None;
    for _ in 0..2 {
        let t = Instant::now();
        let r = grid.run(workers());
        par_wall = par_wall.min(t.elapsed().as_secs_f64());
        tally.check_n(cells.len() as u64, sweep_ok(&mut gate, seed, &r));
        result = Some(r);
    }
    let result = result.expect("the sweep ran");

    // Each cell alone, untraced and traced; every run must match the
    // parallel sweep's cell.
    let (mut traced, mut traces, mut cell_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (cell, par) in cells.iter().zip(&result.cells) {
        let expect = run_fingerprint(par.events_processed, &par.metrics);
        let pair = paired_runs(cell, &mut tally, |o| {
            outcome_fingerprint(o) == expect && o.metrics.invariant_violations == 0
        });
        untraced_s += pair.untraced_s;
        traced_s += pair.traced_s;
        cell_s.push(pair.untraced_s);
        traced.push(pair.traced);
        traces.push((pair.trace, ReplaySetup::from_config(cell)));
    }
    counts(&traced, &mut v);
    harness_buckets(&traced, &mut v);
    v.insert("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);
    fold_metrics(&traces, &mut tally, &mut v);

    v.insert("sweep.cells", cells.len() as f64);
    v.insert("sweep.cell_median_s", median(&cell_s));
    v.insert(
        "sweep.cell_max_s",
        cell_s.iter().copied().fold(0.0, f64::max),
    );
    v.insert(
        "sweep.parallel_efficiency",
        untraced_s / (workers() as f64 * par_wall),
    );

    // Probes run on the grid's largest dynamic field.
    let probe_cfg = cells
        .iter()
        .filter(|c| c.algorithm == Algorithm::Dynamic)
        .max_by_key(|c| c.n_sensors())
        .expect("the paper grid has dynamic cells");
    let depth = traced
        .iter()
        .map(|r| r.outcome.profile.queue_high_water)
        .max()
        .unwrap_or(0);
    probes::run_all(&Field::new(probe_cfg), depth, seconds, &mut tally, &mut v);
    RunResult {
        values: v,
        samples: Vec::new(),
        references: Vec::new(),
        work: 0,
        tally,
        recorded: gate.is_recorded(),
    }
}
