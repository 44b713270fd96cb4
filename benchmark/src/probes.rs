//! Layer probes: direct calls into one layer's public functions on the
//! workload's own field geometry, timed per unit of work. Each probe's
//! work count is deterministic and must repeat on every pass.

use std::hint::black_box;
use std::time::{Duration, Instant};

use robonet_core::{field_deployment, ScenarioConfig};
use robonet_des::rng::{self, Rng, Xoshiro256};
use robonet_des::{EventQueue, NodeId, SimDuration, SimTime};
use robonet_geom::spatial::GridIndex;
use robonet_geom::{Bounds, Point};
use robonet_net::flood::DedupTable;
use robonet_net::{route_with, GeoHeader, NeighborTable, RouteDecision, RouteScratch};
use robonet_radio::{
    Frame, MacParams, Medium, NodeClass, RadioEngine, RadioEvent, TrafficClass, UpcallBuf,
    UpcallEntry,
};

use crate::workloads::{median, Tally, Values};

/// Passes per probe, at the least.
const MIN_PASSES: usize = 3;
/// Gap between the broadcasts of the radio-engine round (one per
/// sensor): wider than a frame's air time plus backoff, so the round
/// measures deliveries rather than a collision storm.
const BROADCAST_GAP: SimDuration = SimDuration::from_micros(500);
/// Source/destination pairs routed per routing pass.
const ROUTE_PAIRS: usize = 500;
/// Hold operations (one pop, one schedule) per event-queue pass.
const QUEUE_HOLDS: usize = 200_000;

/// The workload's deployed field, as the simulation's medium sees it.
pub struct Field {
    bounds: Bounds,
    positions: Vec<Point>,
    classes: Vec<NodeClass>,
    n_sensors: usize,
    sensor_range: f64,
    cfg: ScenarioConfig,
}

impl Field {
    pub fn new(cfg: &ScenarioConfig) -> Field {
        let d = field_deployment(cfg);
        let n_sensors = d.sensor_pos.len();
        let mut positions = d.sensor_pos;
        positions.extend_from_slice(&d.robot_pos);
        let mut classes = vec![NodeClass::Sensor; n_sensors];
        classes.resize(positions.len(), NodeClass::Robot);
        if let Some((_, loc)) = d.manager {
            positions.push(loc);
            classes.push(NodeClass::Manager);
        }
        Field {
            bounds: d.bounds,
            positions,
            classes,
            n_sensors,
            sensor_range: cfg.ranges.sensor,
            cfg: cfg.clone(),
        }
    }

    fn medium(&self) -> Medium {
        Medium::new(self.bounds, self.cfg.ranges, &self.positions, &self.classes)
    }

    fn rng(&self, label: &str) -> Xoshiro256 {
        rng::stream(self.cfg.seed, label)
    }

    fn sensors(&self) -> impl Iterator<Item = (usize, Point)> + '_ {
        self.positions[..self.n_sensors].iter().copied().enumerate()
    }

    /// The sensor closest to node `i`.
    fn nearest_sensor(&self, i: usize) -> usize {
        let p = self.positions[i];
        self.sensors()
            .min_by(|(_, a), (_, b)| a.distance_sq(p).total_cmp(&b.distance_sq(p)))
            .map_or(0, |(j, _)| j)
    }

    /// Each sensor's in-range sensor neighbours, in index order.
    fn neighbours(&self) -> Vec<Vec<usize>> {
        let index = GridIndex::build(
            self.bounds,
            self.sensor_range,
            &self.positions[..self.n_sensors],
        );
        self.sensors()
            .map(|(i, p)| {
                let mut n: Vec<usize> = index
                    .within(p, self.sensor_range)
                    .into_iter()
                    .filter(|&j| j != i)
                    .collect();
                n.sort_unstable();
                n
            })
            .collect()
    }
}

fn id(i: usize) -> NodeId {
    NodeId::new(u32::try_from(i).expect("node index fits u32"))
}

/// Runs `pass` at least [`MIN_PASSES`] times and for `budget` seconds.
/// Each pass returns its work count and the time its measured part
/// took. Reports the median ns per unit and the work count, and counts
/// one failed operation if the work count ever differed between passes.
fn measure(
    ns_name: &'static str,
    work_name: &'static str,
    budget: f64,
    tally: &mut Tally,
    v: &mut Values,
    mut pass: impl FnMut() -> (u64, Duration),
) {
    let mut times = Vec::new();
    let mut work = None;
    let mut steady = true;
    let start = Instant::now();
    while times.len() < MIN_PASSES || start.elapsed().as_secs_f64() < budget {
        let (units, took) = pass();
        steady &= *work.get_or_insert(units) == units;
        times.push(took.as_secs_f64());
    }
    let units = work.unwrap_or(0);
    tally.check(steady && units > 0);
    v.insert(ns_name, median(&times) * 1e9 / units.max(1) as f64);
    v.insert(work_name, units as f64);
}

/// Runs every probe on `field`; the event-queue probe holds `depth`
/// pending events (the workload's own queue high-water mark).
pub fn run_all(field: &Field, depth: usize, seconds: f64, tally: &mut Tally, v: &mut Values) {
    let budget = (seconds / 50.0).clamp(0.1, 1.0);

    // radio.medium: every sensor's hearer set.
    let medium = field.medium();
    measure(
        "radio.medium.ns_per_hearer",
        "radio.medium.hearer_visits",
        budget,
        tally,
        v,
        || {
            let t = Instant::now();
            let mut visits = 0u64;
            for (i, _) in field.sensors() {
                medium.for_each_hearer(id(i), |h| {
                    black_box(h);
                    visits += 1;
                });
            }
            (visits, t.elapsed())
        },
    );

    // radio.engine: one broadcast round, every sensor once.
    measure(
        "radio.engine.ns_per_delivery",
        "radio.engine.deliveries",
        budget,
        tally,
        v,
        || broadcast_round(field, medium.clone()),
    );

    // net.flood: every robot's location update flooded over the whole
    // field's neighbour graph, breadth-first from the sensor nearest the
    // robot. Each sensor relays once, so it hears one copy per
    // neighbour, in wave order: the first fresh, the rest duplicates.
    // The simulation scopes its floods, so the call count is not the
    // workload's; the copies per sensor and their order are the field's.
    let neighbours = field.neighbours();
    let waves: Vec<Vec<usize>> = (0..field.cfg.n_robots())
        .map(|r| flood_wave(&neighbours, field.nearest_sensor(field.n_sensors + r)))
        .collect();
    let mut tables = vec![DedupTable::new(); field.n_sensors];
    let mut seq = 0u32;
    measure(
        "net.flood.ns_per_accept",
        "net.flood.accept_calls",
        budget,
        tally,
        v,
        || {
            seq += 1;
            let t = Instant::now();
            let mut calls = 0u64;
            for (r, wave) in waves.iter().enumerate() {
                let origin = id(field.n_sensors + r);
                for &relay in wave {
                    for &s in &neighbours[relay] {
                        black_box(tables[s].accept(origin, seq));
                    }
                    calls += neighbours[relay].len() as u64;
                }
            }
            (calls, t.elapsed())
        },
    );

    // net.neighbor: a beacon round refreshing every sensor's table.
    let mut nbr_tables = vec![NeighborTable::new(); field.n_sensors];
    let mut now = SimTime::ZERO;
    measure(
        "net.neighbor.ns_per_update",
        "net.neighbor.updates",
        budget,
        tally,
        v,
        || {
            now += field.cfg.beacon_period;
            let t = Instant::now();
            let mut updates = 0u64;
            for (i, nbrs) in neighbours.iter().enumerate() {
                for &j in nbrs {
                    nbr_tables[i].update(id(j), field.positions[j], now);
                }
                updates += nbrs.len() as u64;
            }
            (updates, t.elapsed())
        },
    );

    // net.routing: greedy/perimeter routes between drawn sensor pairs
    // over the tables the neighbour probe filled.
    let mut rng = field.rng("bench.route");
    let pairs: Vec<(usize, usize)> = (0..ROUTE_PAIRS)
        .map(|_| {
            (
                rng.gen_index(field.n_sensors),
                rng.gen_index(field.n_sensors),
            )
        })
        .collect();
    let mut scratch = RouteScratch::default();
    measure(
        "net.routing.ns_per_decision",
        "net.routing.decisions",
        budget,
        tally,
        v,
        || {
            let t = Instant::now();
            let mut decisions = 0u64;
            for &(src, dst) in &pairs {
                let mut header = GeoHeader::new(id(dst), field.positions[dst]);
                let (mut at, mut prev) = (src, None);
                loop {
                    decisions += 1;
                    let here = field.positions[at];
                    match route_with(
                        &mut scratch,
                        id(at),
                        here,
                        &nbr_tables[at],
                        &mut header,
                        prev,
                    ) {
                        RouteDecision::Forward(next) => {
                            prev = Some(here);
                            at = next.index();
                        }
                        _ => break,
                    }
                }
            }
            (decisions, t.elapsed())
        },
    );

    // des.queue: the hold model at the workload's queue depth.
    measure(
        "des.queue.ns_per_op",
        "des.queue.ops",
        budget,
        tally,
        v,
        || queue_holds(field.rng("bench.queue"), depth.max(1)),
    );

    // geom.spatial: every sensor's in-range query.
    let index = GridIndex::build(
        field.bounds,
        field.sensor_range,
        &field.positions[..field.n_sensors],
    );
    measure(
        "geom.spatial.ns_per_query",
        "geom.spatial.queries",
        budget,
        tally,
        v,
        || {
            let t = Instant::now();
            let mut queries = 0u64;
            for (_, p) in field.sensors() {
                index.for_each_within(p, field.sensor_range, |j| {
                    black_box(j);
                });
                queries += 1;
            }
            (queries, t.elapsed())
        },
    );
}

/// The sensors a flood started at `source` reaches, in breadth-first
/// (relay) order.
fn flood_wave(neighbours: &[Vec<usize>], source: usize) -> Vec<usize> {
    let mut seen = vec![false; neighbours.len()];
    seen[source] = true;
    let mut wave = vec![source];
    let mut next = 0;
    while let Some(&at) = wave.get(next) {
        next += 1;
        for &j in &neighbours[at] {
            if !std::mem::replace(&mut seen[j], true) {
                wave.push(j);
            }
        }
    }
    wave
}

/// Every sensor broadcasts one location-update-sized frame,
/// [`BROADCAST_GAP`] apart; the engine's events are driven to
/// completion. Returns the deliveries and the time the round took.
fn broadcast_round(field: &Field, medium: Medium) -> (u64, Duration) {
    enum Ev {
        Send(usize),
        Radio(RadioEvent),
    }
    let mut engine: RadioEngine<u32> =
        RadioEngine::new(medium, MacParams::default(), field.rng("bench.radio"));
    let mut queue = EventQueue::with_capacity(field.n_sensors);
    for (i, _) in field.sensors() {
        queue.schedule(SimTime::ZERO + BROADCAST_GAP * i as u64, Ev::Send(i));
    }
    let mut out = UpcallBuf::new();
    let mut deliveries = 0u64;
    let t = Instant::now();
    while let Some((now, ev)) = queue.pop() {
        let mut sched = |at, e| {
            queue.schedule(at, Ev::Radio(e));
        };
        match ev {
            Ev::Send(i) => {
                let frame = Frame {
                    src: id(i),
                    dst: None,
                    bytes: 64,
                    class: TrafficClass::LocationUpdate,
                    payload: i as u32,
                };
                engine.send(now, frame, &mut sched);
            }
            Ev::Radio(e) => {
                engine.handle(now, e, &mut sched, &mut out);
                deliveries += out
                    .entries()
                    .iter()
                    .filter(|e| matches!(e, UpcallEntry::Delivered { .. }))
                    .count() as u64;
                out.clear();
            }
        }
    }
    (deliveries, t.elapsed())
}

/// Fills a queue to `depth` and runs [`QUEUE_HOLDS`] pop-then-schedule
/// holds. Only the depth is the workload's: the delay mix is a fixed,
/// synthetic one (nine in ten ≤ 2 ms, a MAC-scale timer; the rest
/// ≤ 10 s, a protocol-scale one), not measured from the simulation.
fn queue_holds(mut rng: Xoshiro256, depth: usize) -> (u64, Duration) {
    let mut delay = move || {
        let span: u64 = if rng.gen_bool(0.9) {
            2_000_000
        } else {
            10_000_000_000
        };
        SimDuration::from_nanos(rng.gen_range(0..span))
    };
    let mut queue = EventQueue::with_capacity(depth);
    for i in 0..depth {
        queue.schedule(SimTime::ZERO + delay(), i);
    }
    let t = Instant::now();
    for _ in 0..QUEUE_HOLDS {
        let (now, ev) = queue.pop().expect("the hold model keeps the queue full");
        queue.schedule(now + delay(), ev);
    }
    (2 * QUEUE_HOLDS as u64, t.elapsed())
}
