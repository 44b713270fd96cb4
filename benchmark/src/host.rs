//! The host stamp every result carries, and `--compare`, which refuses
//! to compare results from different hosts.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use robonet_core::obs::json::{JsonValue, ObjectWriter};

use crate::catalog;
use crate::workloads::{fnv, median};

/// Where and from what a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    pub nproc: u64,
    pub cpu: String,
    pub profile: String,
    /// The git commit, or `none` outside a git checkout.
    pub commit: String,
    /// FNV-1a over the workspace sources, so a checkout without git
    /// still identifies the code it measured.
    pub source: String,
}

impl Stamp {
    pub fn current() -> Stamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Stamp {
            nproc: crate::workloads::workers() as u64,
            cpu,
            profile: profile.into(),
            commit: git_commit().unwrap_or_else(|| "none".into()),
            source: format!("{:016x}", source_hash()),
        }
    }

    /// Whether two results were measured on the same kind of host and
    /// build, so their timings may be compared.
    pub fn same_host(&self, other: &Stamp) -> bool {
        self.nproc == other.nproc && self.cpu == other.cpu && self.profile == other.profile
    }

    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_u64("nproc", self.nproc);
        w.field_str("cpu", &self.cpu);
        w.field_str("profile", &self.profile);
        w.field_str("commit", &self.commit);
        w.field_str("source", &self.source);
        w.finish()
    }

    fn from_json(v: &JsonValue) -> Option<Stamp> {
        let s = |k: &str| v.get(k)?.as_str().map(String::from);
        Some(Stamp {
            nproc: v.get("nproc")?.as_u64()?,
            cpu: s("cpu")?,
            profile: s("profile")?,
            commit: s("commit")?,
            source: s("source")?,
        })
    }
}

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" profile={} commit={} source={}",
            self.nproc, self.cpu, self.profile, self.commit, self.source
        )
    }
}

/// Resolves `.git/HEAD` by reading files (no git process).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(sha.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(String::from)
        })
}

/// Hash of every `.rs` and `Cargo.toml` under `crates/`, plus the root
/// manifest and lock file, visited in sorted path order.
fn source_hash() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    fnv(&bytes)
}

/// One parsed `--out` record.
struct Record {
    workload: String,
    trace: bool,
    host: Stamp,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_records(&text, path)
}

fn parse_records(text: &str, path: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
            let v = robonet_core::obs::json::parse(line).map_err(|e| bad(&format!("{e:?}")))?;
            let metrics = v
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(JsonValue::as_object)
                .ok_or_else(|| bad("no result metrics"))?
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(Record {
                workload: v
                    .get("workload")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| bad("no workload"))?
                    .to_string(),
                trace: matches!(v.get("trace"), Some(JsonValue::Bool(true))),
                host: v
                    .get("host")
                    .and_then(Stamp::from_json)
                    .ok_or_else(|| bad("no host stamp"))?,
                metrics,
            })
        })
        .collect()
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let at = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(0.25), at(0.75))
}

/// A table of medians, before and after, per workload and metric.
/// Refuses results whose host stamps differ.
pub fn compare(before: &str, after: &str) -> Result<String, String> {
    compare_records(&load(before)?, &load(after)?)
}

fn compare_records(b: &[Record], a: &[Record]) -> Result<String, String> {
    let first = b
        .first()
        .or(a.first())
        .ok_or("both result files are empty")?;
    if let Some(other) = b.iter().chain(a).find(|r| !r.host.same_host(&first.host)) {
        return Err(format!(
            "refusing to compare results from different hosts:\n  {}\n  {}",
            first.host, other.host
        ));
    }
    let mut out = format!("host: {}\n", first.host);
    out.push_str(&format!(
        "{:<24} {:<36} {:>3} {:>14} {:>3} {:>14} {:>9} {:>10}\n",
        "workload", "metric", "n", "before", "n", "after", "change", "iqr/med"
    ));
    let mut keys: Vec<(String, bool)> = b.iter().map(|r| (r.workload.clone(), r.trace)).collect();
    keys.sort();
    keys.dedup();
    for (workload, trace) in keys {
        let pick = |set: &[Record], name: &str| -> Vec<f64> {
            set.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        let kind = if trace {
            catalog::Kind::PerLayer
        } else {
            catalog::Kind::EndToEnd
        };
        for m in catalog::metrics_of(kind) {
            let (vb, va) = (pick(b, m.name), pick(a, m.name));
            if vb.is_empty() || va.is_empty() {
                continue;
            }
            let (mb, ma) = (median(&vb), median(&va));
            let head = format!(
                "{:<24} {:<36} {:>3} {:>14.6} {:>3} {:>14.6}",
                workload,
                m.name,
                vb.len(),
                mb,
                va.len(),
                ma
            );
            // A per-layer metric can be 0 by design on some workloads
            // (see README.md); a change relative to 0 means nothing.
            if mb == 0.0 {
                out.push_str(&format!("{head} {:>9} {:>10}\n", "n/a", "n/a"));
                continue;
            }
            let (q1, q3) = quartiles(&vb);
            let change = (ma - mb) / mb.abs();
            let worse = if m.lower_is_better {
                change > 0.0
            } else {
                change < 0.0
            };
            out.push_str(&format!(
                "{head} {:>+8.2}%{} {:>9.2}%\n",
                change * 100.0,
                if change == 0.0 {
                    ' '
                } else if worse {
                    '-'
                } else {
                    '+'
                },
                (q3 - q1) / mb.abs() * 100.0,
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(cpu: &str) -> Stamp {
        Stamp {
            nproc: 2,
            cpu: cpu.into(),
            profile: "release".into(),
            commit: "abc".into(),
            source: "0".into(),
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn stamps_round_trip_and_only_the_host_decides_comparability() {
        let s = stamp("Xeon");
        let v = robonet_core::obs::json::parse(&s.to_json()).unwrap();
        assert_eq!(Stamp::from_json(&v), Some(s.clone()));
        let mut other_commit = s.clone();
        other_commit.commit = "def".into();
        assert!(s.same_host(&other_commit), "before/after differ in commit");
        assert!(!s.same_host(&stamp("EPYC")));
        let mut other_nproc = s.clone();
        other_nproc.nproc = 4;
        assert!(!s.same_host(&other_nproc));
    }

    #[test]
    fn compare_refuses_different_hosts() {
        let record = |s: &Stamp, wall: f64| {
            let line = format!(
                "{{\"workload\":\"paper_sweep\",\"seed\":1,\"trace\":false,\"host\":{},\
                 \"result\":{{\"correct\":true,\"attempted\":1,\"failed\":0,\
                 \"metrics\":{{\"wall_norm_s\":{{\"value\":{wall},\"unit\":\"s\"}}}}}}}}\n",
                s.to_json()
            );
            parse_records(&line, "test").unwrap()
        };
        let (b, a, c) = (
            record(&stamp("Xeon"), 2.0),
            record(&stamp("Xeon"), 1.0),
            record(&stamp("EPYC"), 1.0),
        );
        let table = compare_records(&b, &a).unwrap();
        assert!(
            table.contains("wall_norm_s") && table.contains("-50.00%+"),
            "{table}"
        );
        let zero = compare_records(&record(&stamp("Xeon"), 0.0), &a).unwrap();
        assert!(zero.contains("n/a") && !zero.contains("inf"), "{zero}");
        let err = compare_records(&b, &c).unwrap_err();
        assert!(err.contains("different hosts"), "{err}");
    }
}
