//! robonet's benchmark: runs one named workload at one seed, checks its
//! outputs, and prints every metric by name and unit. The last line of
//! standard output is the machine-readable result.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload flood_dynamic_5k --seed 1 --seconds 10 --trace 0 [--out runs.jsonl]
//! ... -- --record --workload NAME --seed N     # print a fingerprint line
//! ... -- --compare BEFORE.jsonl AFTER.jsonl    # median table of two result sets
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and the
//! layer each per-layer metric belongs to.

mod catalog;
mod host;
mod probes;
mod reference;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;

use robonet_core::obs::json::ObjectWriter;

use catalog::Kind;
use workloads::{RunResult, Workload};

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: f64,
        traced: bool,
        out: Option<String>,
    },
    Record {
        workload: Workload,
        seed: u64,
    },
    Compare {
        before: String,
        after: String,
    },
}

const USAGE: &str =
    "usage: robonet-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]\n\
     \x20      robonet-benchmark --record --workload NAME --seed N\n\
     \x20      robonet-benchmark --compare BEFORE.jsonl AFTER.jsonl\n\
     workloads: flood_dynamic_5k paper_sweep";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut record = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--out" => out = Some(value()?.clone()),
            "--record" => record = true,
            "--compare" => {
                let before = value()?.clone();
                let after = value()?.clone();
                return Ok(Command::Compare { before, after });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if record {
        return Ok(Command::Record { workload, seed });
    }
    Ok(Command::Run {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Run {
            workload,
            seed,
            seconds,
            traced,
            out,
        } => run(workload, seed, seconds, traced, out.as_deref()),
        Command::Record { workload, seed } => {
            let fp = workloads::fingerprint_of(workload, seed);
            println!("{}\t{seed}\t{fp:016x}", workload.name());
            ExitCode::SUCCESS
        }
        Command::Compare { before, after } => match host::compare(&before, &after) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        },
    }
}

fn run(w: Workload, seed: u64, seconds: f64, traced: bool, out: Option<&str>) -> ExitCode {
    let kind = if traced {
        Kind::PerLayer
    } else {
        Kind::EndToEnd
    };
    let stamp = host::Stamp::current();
    println!(
        "robonet benchmark: workload {} seed {seed} trace {} ({seconds} s)",
        w.name(),
        u8::from(traced)
    );
    println!("host: {stamp}");
    let result = if traced {
        workloads::run_layered(w, seed, seconds)
    } else {
        workloads::run_end_to_end(w, seed, seconds)
    };
    println!(
        "fingerprint: {}",
        if result.recorded {
            "checked against the recorded value"
        } else {
            "seed not recorded; runs checked against each other only"
        }
    );
    let missing: Vec<&str> = catalog::metrics_of(kind)
        .filter(|m| !result.values.get(m.name).is_some_and(|v| v.is_finite()))
        .map(|m| m.name)
        .collect();
    for m in catalog::metrics_of(kind) {
        if let Some(v) = result.values.get(m.name) {
            println!("  {:<36} {v:>16.6} {}", m.name, m.unit);
        }
    }
    if !result.samples.is_empty() {
        let list = |xs: &[f64]| xs.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>();
        println!(
            "timed rounds: {}, {} units of work each; wall s: {}",
            result.samples.len(),
            result.work,
            list(&result.samples).join(" ")
        );
        println!(
            "reference s before and after each round: {}",
            list(&result.references).join(" ")
        );
    }
    let t = result.tally;
    println!(
        "failed_frac: {} ({} of {} operations failed)",
        t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted
    );
    if !missing.is_empty() {
        eprintln!("error: no finite value for {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    if t.attempted == 0 {
        eprintln!("error: the run attempted no operation");
        return ExitCode::FAILURE;
    }
    let line = result_line(kind, &result);
    if let Some(path) = out {
        if let Err(e) = append_record(path, w, seed, traced, &stamp, &line) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the metrics being every metric of `kind`.
fn result_line(kind: Kind, result: &RunResult) -> String {
    let mut metrics = ObjectWriter::new();
    for m in catalog::metrics_of(kind) {
        let mut value = ObjectWriter::new();
        value.field_f64("value", result.values[m.name]);
        value.field_str("unit", m.unit);
        metrics.field_raw(m.name, &value.finish());
    }
    let t = result.tally;
    let mut line = ObjectWriter::new();
    line.field_bool("correct", t.failed == 0);
    line.field_u64("attempted", t.attempted);
    line.field_u64("failed", t.failed);
    line.field_raw("metrics", &metrics.finish());
    line.finish()
}

/// Appends one result record (host stamp included) to a JSONL file for
/// `--compare`.
fn append_record(
    path: &str,
    w: Workload,
    seed: u64,
    traced: bool,
    stamp: &host::Stamp,
    line: &str,
) -> std::io::Result<()> {
    let mut rec = ObjectWriter::new();
    rec.field_str("workload", w.name());
    rec.field_u64("seed", seed);
    rec.field_bool("trace", traced);
    rec.field_raw("host", &stamp.to_json());
    rec.field_raw("result", line);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", rec.finish())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use robonet_core::obs::json;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = catalog::METRICS.iter().map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(catalog::is_valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        assert!(!catalog::is_valid_name("a b"));
        assert!(!catalog::is_valid_name("_lead"));
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            match doc.get(key) {
                Some(json::JsonValue::Array(items)) => items
                    .iter()
                    .map(|m| {
                        let s =
                            |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                        (s("name"), s("unit"), s("better"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        for (key, kind) in [
            ("end_to_end", Kind::EndToEnd),
            ("per_layer", Kind::PerLayer),
        ] {
            let expect: Vec<(String, String, String)> = catalog::metrics_of(kind)
                .map(|m| {
                    let better = if m.lower_is_better { "lower" } else { "higher" };
                    (m.name.to_string(), m.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed(key), expect, "{key} differs from the catalog");
        }
        let Some(json::JsonValue::Array(ws)) = doc.get("workloads") else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let names: Vec<&str> = ws.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        let expect: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn arguments_parse_and_reject() {
        assert_eq!(
            parse_args(&args(
                "--workload paper_sweep --seed 7 --seconds 2 --trace 1"
            )),
            Ok(Command::Run {
                workload: Workload::PaperSweep,
                seed: 7,
                seconds: 2.0,
                traced: true,
                out: None,
            })
        );
        assert_eq!(
            parse_args(&args("--record --workload paper_sweep --seed 3")),
            Ok(Command::Record {
                workload: Workload::PaperSweep,
                seed: 3
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload paper_sweep --seed x --seconds 1 --trace 0",
            "--workload paper_sweep --seed 1 --seconds 0 --trace 0",
            "--workload paper_sweep --seed 1 --seconds 1 --trace 2",
            "--workload paper_sweep --seed 1 --seconds 1",
            "--workload paper_sweep --seed 1 --seconds 1 --trace 0 --bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn the_seed_reaches_the_scenario_config() {
        for seed in [0, 1, 42, u64::MAX] {
            assert_eq!(
                workloads::sim_config(Workload::FloodDynamic5k, seed).seed,
                seed
            );
            let grid = workloads::sweep_grid(seed);
            assert!(grid
                .cells()
                .iter()
                .all(|c| c.seed == seed || c.seed == seed.wrapping_add(1)));
            assert_eq!(grid.len(), 18);
        }
        assert_ne!(
            workloads::sim_config(Workload::FloodDynamic5k, 1),
            workloads::sim_config(Workload::FloodDynamic5k, 2)
        );
    }

    #[test]
    fn a_perturbed_fingerprint_counts_as_failed() {
        let table = "flood_dynamic_5k\t4\t00000000000000ff\n";
        assert_eq!(
            workloads::recorded(table, Workload::FloodDynamic5k, 4),
            Some(0xff)
        );
        assert_eq!(
            workloads::recorded(table, Workload::FloodDynamic5k, 5),
            None
        );
        assert_eq!(workloads::recorded(table, Workload::PaperSweep, 4), None);

        let mut gate = workloads::Gate::with_record(Some(0xff));
        assert!(gate.check(0xff));
        assert!(!gate.check(0xfe), "a perturbed value must fail");
        let mut gate = workloads::Gate::with_record(Some(0xff));
        assert!(!gate.check(0x1ff), "a value unlike the record must fail");
        let mut gate = workloads::Gate::with_record(None);
        assert!(gate.check(7));
        assert!(!gate.check(8), "runs of one seed must agree");

        let mut tally = workloads::Tally::default();
        tally.check(gate.check(8));
        tally.check_n(3, true);
        assert_eq!((tally.attempted, tally.failed), (4, 1));
    }

    #[test]
    fn the_median_round_is_normalised_by_the_mean_reference() {
        let nominal = reference::NOMINAL_S;
        // Median round 5 s; the references' geometric mean is 2×
        // nominal, so the host ran at half the nominal speed.
        let norm = workloads::normalised_median(&[4.0, 6.0, 5.0], &[nominal, 4.0 * nominal]);
        assert!((norm - 2.5).abs() < 1e-12, "{norm}");
        assert!(reference::pass() > 0.0);
    }

    #[test]
    fn a_perturbed_run_changes_its_fingerprint() {
        let mut m = robonet_core::Metrics::default();
        let base = workloads::run_fingerprint(10, &m);
        assert_ne!(base, workloads::run_fingerprint(11, &m));
        m.replacements += 1;
        assert_ne!(base, workloads::run_fingerprint(10, &m));
    }

    /// Slow (minutes, release build): runs every workload in both modes.
    #[test]
    #[ignore]
    fn every_workload_measures_every_metric_without_failures() {
        for w in Workload::ALL {
            for (kind, result) in [
                (Kind::EndToEnd, workloads::run_end_to_end(w, 1, 0.1)),
                (Kind::PerLayer, workloads::run_layered(w, 1, 0.1)),
            ] {
                for m in catalog::metrics_of(kind) {
                    let v = result.values.get(m.name);
                    assert!(
                        v.is_some_and(|v| v.is_finite()),
                        "{} lacks {}",
                        w.name(),
                        m.name
                    );
                }
                assert_eq!(result.values.len(), catalog::metrics_of(kind).count());
                assert!(result.tally.attempted > 0);
                assert_eq!(result.tally.failed, 0, "{} failed operations", w.name());
            }
        }
    }

    #[test]
    fn the_result_line_holds_exactly_the_metrics_of_its_kind() {
        for kind in [Kind::EndToEnd, Kind::PerLayer] {
            let values = catalog::metrics_of(kind).map(|m| (m.name, 1.5)).collect();
            let result = RunResult {
                values,
                samples: Vec::new(),
                references: Vec::new(),
                work: 0,
                tally: workloads::Tally::default(),
                recorded: true,
            };
            let doc = json::parse(&result_line(kind, &result)).expect("result line is JSON");
            let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = doc.get("metrics").and_then(|m| m.as_object()).unwrap();
            assert_eq!(metrics.len(), catalog::metrics_of(kind).count());
            for m in catalog::metrics_of(kind) {
                let entry = &metrics[m.name];
                assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(m.unit));
                assert_eq!(entry.get("value").and_then(|u| u.as_f64()), Some(1.5));
            }
        }
    }
}
