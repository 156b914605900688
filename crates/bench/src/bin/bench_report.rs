//! Condenses the criterion JSON emitted by the benches and smoke
//! harnesses into machine-readable reports at the repo root, and gates
//! CI on the bench bounds:
//!
//! * `BENCH_remap.json` (when the `remap`/`access` benches have run) —
//!   their raw ns-per-iteration plus the headline speedup ratios of the
//!   bulk location engine (pipeline fold vs record fold, parallel vs
//!   serial planning, cached vs oracle lookup);
//! * `BENCH_obs.json` (when the `obs` bench has run) — the telemetry
//!   overhead ratios (instrumented / bare) per hot path;
//! * `BENCH_monitor.json` (when the `monitor` bench has run) — the
//!   health monitor's amortized overhead ratios (attached / detached);
//! * `BENCH_net.json` (when the `net` bench or the `cluster_smoke`
//!   3-shard harness has run) — the instrumented/bare serving overhead
//!   as the median of the `net` bench's interleaved pairs with its
//!   min–max spread, the codec and request-path rows, and, from cluster
//!   runs, a `"cluster"` object with the routing/torn-epoch counts and
//!   the scale-out migration delta vs its 6σ bound;
//! * `BENCH_compact.json` (when the `compaction_smoke` harness has
//!   run) — locate ns before/after the flip vs a fresh chain-length-0
//!   engine, the mid-cutover hiccup and unknown-object counts, and the
//!   budget refill.
//!
//! Every bench bound lives in one row of [`GATES`]; a report row that a
//! gate reads carries its `within_gate` verdict. `--gate
//! <report>[,<report>…]` prints one line per `GATES` row of each named
//! report (name, value, bound, verdict) and exits 1 if any row fails or
//! lacks its inputs. The smoke harnesses gate their own runs through
//! their exit status.
//!
//! ```text
//! cargo bench -p scaddar-bench --bench remap --bench access --bench obs --bench monitor --bench net
//! cargo run -p scaddar-bench --bin bench_report -- --gate remap,obs,monitor,net
//! ```
//!
//! Reads `target/criterion-json/{remap,access,obs,monitor,net,cluster,compact}.json`
//! and the saved stdout of `perfbench` runs,
//! `perfbench-{cold-batch,scale-churn}.txt`, relative to the current
//! directory (override with `BENCH_JSON_DIR`), and writes
//! `BENCH_remap.json` (override with the positional argument),
//! `BENCH_obs.json` (override with `BENCH_OBS_PATH`),
//! `BENCH_monitor.json` (override with `BENCH_MONITOR_PATH`),
//! `BENCH_net.json` (override with `BENCH_NET_PATH`), and
//! `BENCH_compact.json` (override with `BENCH_COMPACT_PATH`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every measurement, keyed `group/bench`; `perfbench` metrics are keyed
/// `perfbench/<workload>/<metric>`.
type Measurements = BTreeMap<String, f64>;

/// Which side of its bound a gated value must stay on.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtMost(f64),
    AtLeast(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            AtMost(bound) => value <= bound,
            AtLeast(bound) => value >= bound,
        }
    }

    fn label(self) -> String {
        match self {
            AtMost(bound) => format!("<= {bound}"),
            AtLeast(bound) => format!(">= {bound}"),
        }
    }
}

/// Where a gated value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The measurement keyed by the gate's name.
    Value,
    /// `name/on ÷ name/off` of the overhead group named like the gate.
    Overhead(&'static str, &'static str),
    /// The median of the group's interleaved pairs, see [`pair_ratios`].
    Pairs,
    /// Serial over parallel 1M-block planning time at the running
    /// machine's thread count, the `remap` bench's parallel parameter.
    PlanSpeedup,
}

use Bound::{AtLeast, AtMost};
use Source::{Overhead, Pairs, PlanSpeedup, Value};

/// One gated number: the `--gate` report that selects it, its name,
/// where its value comes from, and the bound it must meet.
struct Gate(&'static str, &'static str, Source, Bound);

/// Every bench bound CI holds, each in exactly one row. The 1.10
/// overhead ratios leave shared runners headroom over the few percent
/// the committed reports record. The parallel planner folds each chunk
/// through a compiled pipeline, ~2x the serial per-record fold even on
/// one core, so below 1.5 it fell back to per-record folding. The
/// `perfbench` ceilings sit far above the sub-ms numbers of a 2-core VM
/// and catch regressions in kind (lock stalls, lost wakeups), not
/// scheduler noise: `scale-churn` is the one workload whose reads queue
/// behind `Scale`/`Compact` commits, and cold-batch times whole
/// pipelined windows.
#[rustfmt::skip]
const GATES: [Gate; 7] = [
    Gate("remap", "parallel_vs_serial_plan_1m", PlanSpeedup, AtLeast(1.5)),
    Gate("obs", "obs_locate_overhead", Overhead("instrumented", "bare"), AtMost(1.10)),
    Gate("obs", "obs_profile_overhead", Overhead("instrumented", "bare"), AtMost(1.10)),
    Gate("monitor", "monitor_locate_overhead", Overhead("attached", "detached"), AtMost(1.10)),
    Gate("net", "net_locate_overhead", Pairs, AtMost(1.10)),
    Gate("perfbench", "perfbench/scale-churn/locate_p99_us", Value, AtMost(50_000.0)),
    Gate("perfbench", "perfbench/cold-batch/window_p99_us", Value, AtMost(2_000.0)),
];

impl Gate {
    /// The gated value and, for a median, its min–max spread; `None`
    /// when an input is missing.
    fn read(&self, all: &Measurements) -> Option<(f64, Option<(f64, f64)>)> {
        let name = self.1;
        Some(match self.2 {
            Value => (*all.get(name)?, None),
            Overhead(on, off) => (overhead(all, name, on, off)?, None),
            Pairs => {
                let pairs = pair_ratios(all, name)?;
                (pairs.median, Some((pairs.min, pairs.max)))
            }
            PlanSpeedup => {
                let parallel = format!("rf_plan_1m_blocks/parallel/{}", threads());
                (ratio(all, "rf_plan_1m_blocks/serial", &parallel)?, None)
            }
        })
    }
}

/// `, "within_gate": <verdict>` for a report row the `GATES` row named
/// `name` reads; nothing for an ungated row.
fn verdict_field(name: &str, value: f64) -> String {
    GATES
        .iter()
        .find(|g| g.1 == name)
        .map(|g| format!(", \"within_gate\": {}", g.3.holds(value)))
        .unwrap_or_default()
}

/// One line per `GATES` row of each comma-separated report name, and
/// whether every row passed. A row with missing inputs fails, and so
/// does a name that selects no row.
fn check_gates(all: &Measurements, reports: &str) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for report in reports.split(',') {
        let mut rows = GATES.iter().filter(|g| g.0 == report).peekable();
        if rows.peek().is_none() {
            lines.push(format!("{report:<36} {:>12} {:<10} FAIL", "unknown", ""));
            ok = false;
        }
        for gate in rows {
            let reading = gate.read(all);
            let pass = reading.is_some_and(|(value, _)| gate.3.holds(value));
            ok &= pass;
            let value = reading.map_or("missing".into(), |(value, _)| format!("{value:.4}"));
            let spread = reading
                .and_then(|(_, spread)| spread)
                .map(|(lo, hi)| format!(" (spread {lo:.4}..{hi:.4})"))
                .unwrap_or_default();
            lines.push(format!(
                "{:<36} {value:>12} {:<10} {}{spread}",
                gate.1,
                gate.3.label(),
                if pass { "PASS" } else { "FAIL" }
            ));
        }
    }
    (lines, ok)
}

/// Scans a shim-criterion JSON report for `(group, bench, ns_per_iter)`
/// triples. The format is flat and machine-written (no nesting inside
/// the result objects, no escapes in the names we generate), so a
/// field-by-field scan is sufficient and keeps this binary
/// dependency-free.
fn parse_results(json: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    // Each result object lies between '{' and '}' inside the "results"
    // array; split on '{' and pick the pieces with the expected fields.
    for chunk in json.split('{').skip(1) {
        let obj = chunk.split('}').next().unwrap_or("");
        let (mut group, mut bench, mut ns) = (None, None, None);
        for field in obj.split(',') {
            let Some((key, value)) = field.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "group" => group = Some(value.trim_matches('"').to_string()),
                "bench" => bench = Some(value.trim_matches('"').to_string()),
                "ns_per_iter" => ns = value.parse::<f64>().ok(),
                _ => {}
            }
        }
        if let (Some(g), Some(b), Some(n)) = (group, bench, ns) {
            out.push((g, b, n));
        }
    }
    out
}

/// Workloads whose saved `perfbench` stdout `GATES` reads.
const PERFBENCH_RUNS: [&str; 2] = ["cold-batch", "scale-churn"];

/// The metrics of `perfbench`'s last stdout line, `{"correct": true,
/// …, "metrics": {"<name>": {"value": <v>, "unit": "<u>"}, …}}`. Empty
/// unless the run was correct: a failed run's numbers pass no gate.
fn parse_perfbench(stdout: &str) -> Vec<(String, f64)> {
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let Some((_, metrics)) = last
        .filter(|l| l.starts_with("{\"correct\": true,"))
        .and_then(|l| l.split_once("\"metrics\": {"))
    else {
        return Vec::new();
    };
    // Each value follows `"<name>": {"value": `; the name is the last
    // quoted string before it.
    let mut out = Vec::new();
    let mut pieces = metrics.split("{\"value\": ");
    let mut before = pieces.next().unwrap_or("");
    for piece in pieces {
        let name = before
            .trim_end()
            .trim_end_matches(':')
            .trim_end_matches('"');
        let name = name.rsplit('"').next().unwrap_or(name);
        if let Some(value) = piece.split(',').next().and_then(|v| v.parse().ok()) {
            out.push((name.to_string(), value));
        }
        before = piece;
    }
    out
}

fn load_measurements(dirs: &[std::path::PathBuf]) -> Measurements {
    // Cargo runs bench binaries with the package directory as cwd, so
    // the shim's reports land under `crates/bench/target/` when benches
    // run from the workspace root; accept either location.
    let read = |file: &str| {
        dirs.iter()
            .find_map(|dir| std::fs::read_to_string(dir.join(file)).ok())
    };
    let mut all = BTreeMap::new();
    for stem in [
        "remap", "access", "obs", "monitor", "net", "cluster", "compact",
    ] {
        let Some(json) = read(&format!("{stem}.json")) else {
            eprintln!(
                "bench_report: missing {stem}.json (run `cargo bench -p scaddar-bench --bench {stem}` first)"
            );
            continue;
        };
        for (group, bench, ns_per_iter) in parse_results(&json) {
            all.insert(format!("{group}/{bench}"), ns_per_iter);
        }
    }
    for workload in PERFBENCH_RUNS {
        let Some(stdout) = read(&format!("perfbench-{workload}.txt")) else {
            continue;
        };
        for (metric, value) in parse_perfbench(&stdout) {
            all.insert(format!("perfbench/{workload}/{metric}"), value);
        }
    }
    all
}

/// Group prefixes of the `remap` and `access` benches: the only rows
/// `BENCH_remap.json` carries (every other bench has its own report).
const REMAP_GROUPS: [&str; 5] = ["x_fold/", "remap_primitive/", "rf_plan_", "af_", "x0_"];

/// The body of a report's `"raw"` array: one `{bench, ns_per_iter}` row
/// per measurement whose key passes `keep`, in key order.
fn raw_rows(all: &Measurements, keep: impl Fn(&str) -> bool) -> String {
    let mut raw = String::new();
    for (key, ns_per_iter) in all.iter().filter(|(k, _)| keep(k)) {
        if !raw.is_empty() {
            raw.push_str(",\n");
        }
        write!(
            raw,
            "    {{\"bench\": \"{key}\", \"ns_per_iter\": {ns_per_iter:.3}}}"
        )
        .expect("write to string");
    }
    raw
}

/// `numerator / denominator` of two measurements; `None` when either is
/// missing or the denominator is not positive.
fn ratio(all: &Measurements, numerator: &str, denominator: &str) -> Option<f64> {
    let n = *all.get(numerator)?;
    let d = *all.get(denominator)?;
    (d > 0.0).then(|| n / d)
}

/// An overhead group's `group/on ÷ group/off` ratio.
fn overhead(all: &Measurements, group: &str, on: &str, off: &str) -> Option<f64> {
    ratio(all, &format!("{group}/{on}"), &format!("{group}/{off}"))
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fewest complete pairs a median is taken over; the `net` bench runs
/// 5, so fewer is a partial run.
const MIN_PAIRS: usize = 5;

/// The per-pair `instrumented/i ÷ bare/i` ratios of an interleaved
/// overhead group, summarized.
struct PairRatios {
    pairs: usize,
    median: f64,
    min: f64,
    max: f64,
}

/// `None` with fewer than [`MIN_PAIRS`] complete pairs `0..n`.
fn pair_ratios(all: &Measurements, group: &str) -> Option<PairRatios> {
    let mut ratios: Vec<f64> = (0..)
        .map_while(|i| {
            ratio(
                all,
                &format!("{group}/instrumented/{i}"),
                &format!("{group}/bare/{i}"),
            )
        })
        .collect();
    if ratios.len() < MIN_PAIRS {
        return None;
    }
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    Some(PairRatios {
        pairs: n,
        median: (ratios[(n - 1) / 2] + ratios[n / 2]) / 2.0,
        min: ratios[0],
        max: ratios[n - 1],
    })
}

/// The `BENCH_remap.json` body: the headline speedups and the raw
/// `remap`/`access` rows. `None` when neither bench has run.
fn remap_report(all: &Measurements) -> Option<String> {
    let raw = raw_rows(all, |k| REMAP_GROUPS.iter().any(|g| k.starts_with(g)));
    if raw.is_empty() {
        return None;
    }
    let threads = threads();
    let mut speedups = String::new();
    let mut push = |name: &str, baseline: &str, candidate: &str| {
        if let Some(speedup) = ratio(all, baseline, candidate) {
            if !speedups.is_empty() {
                speedups.push_str(",\n");
            }
            write!(
                speedups,
                "    {{\"name\": \"{name}\", \"baseline\": \"{baseline}\", \"candidate\": \"{candidate}\", \
                 \"speedup\": {speedup:.3}{}}}",
                verdict_field(name, speedup)
            )
            .expect("write to string");
        }
    };
    for j in [8, 16, 32] {
        push(
            &format!("pipeline_fold_vs_records_j{j}"),
            &format!("x_fold/records/{j}"),
            &format!("x_fold/pipeline/{j}"),
        );
    }
    push(
        "parallel_vs_serial_plan_1m",
        "rf_plan_1m_blocks/serial",
        &format!("rf_plan_1m_blocks/parallel/{threads}"),
    );
    for j in [8, 32] {
        push(
            &format!("cached_vs_oracle_locate_j{j}"),
            &format!("af_cached_vs_oracle/oracle/{j}"),
            &format!("af_cached_vs_oracle/cached/{j}"),
        );
    }
    Some(format!(
        "{{\n  \"threads\": {threads},\n  \"speedups\": [\n{speedups}\n  ],\n  \"raw\": [\n{raw}\n  ]\n}}\n"
    ))
}

/// An overhead report body: the `on ÷ off` ratio of each hot path's
/// `{bench}_{path}_overhead` group, plus the raw `{bench}_*` rows.
/// `None` when any path lacks a side: a partial run must not read as an
/// ungated pass.
fn overhead_report(
    all: &Measurements,
    bench: &str,
    paths: &[&str],
    on: &str,
    off: &str,
) -> Option<String> {
    let mut overheads = String::new();
    for path in paths {
        let group = format!("{bench}_{path}_overhead");
        let off_ns = *all.get(&format!("{group}/{off}"))?;
        let on_ns = *all.get(&format!("{group}/{on}"))?;
        let ratio = overhead(all, &group, on, off)?;
        if !overheads.is_empty() {
            overheads.push_str(",\n");
        }
        write!(
            overheads,
            "    {{\"name\": \"{path}\", \"{off}_ns\": {off_ns:.3}, \"{on}_ns\": {on_ns:.3}, \
             \"ratio\": {ratio:.4}{}}}",
            verdict_field(&group, ratio)
        )
        .expect("write to string");
    }
    let prefix = format!("{bench}_");
    let raw = raw_rows(all, |k| k.starts_with(&prefix));
    Some(format!(
        "{{\n  \"overheads\": [\n{overheads}\n  ],\n  \"raw\": [\n{raw}\n  ]\n}}\n"
    ))
}

/// The `BENCH_obs.json` body: telemetry overhead (instrumented / bare).
fn obs_report(all: &Measurements) -> Option<String> {
    overhead_report(
        all,
        "obs",
        &["locate", "plan", "profile"],
        "instrumented",
        "bare",
    )
}

/// The `BENCH_monitor.json` body: health-monitor overhead (attached /
/// detached).
fn monitor_report(all: &Measurements) -> Option<String> {
    overhead_report(all, "monitor", &["locate", "tick"], "attached", "detached")
}

/// The `BENCH_compact.json` body: the `compaction_smoke` harness's
/// numbers — the locate-ns triple (long chain / post-flip / fresh
/// engine) and the post-flip-vs-fresh ratio, the mid-cutover hiccup and
/// unknown-object counts, and the chain/budget bookkeeping around the
/// flip. `None` when the smoke has not run (or emitted only a partial
/// row set — a half-written report must not read as a passing one).
fn compact_report(all: &Measurements) -> Option<String> {
    let get = |key: &str| all.get(&format!("compact/{key}")).copied();
    let before = get("locate_before_ns")?;
    let after = get("locate_after_ns")?;
    let fresh = get("locate_fresh_ns")?;
    if fresh <= 0.0 {
        return None;
    }
    let ratio = after / fresh;
    let hiccups = get("hiccups")?;
    let unknown = get("unknown_objects")?;
    let count = |key: &str| get(key).unwrap_or(0.0);
    let raw = raw_rows(all, |k| k.starts_with("compact/"));
    Some(format!(
        "{{\n  \"locate_before_ns\": {before:.3},\n\
         \x20 \"locate_after_ns\": {after:.3},\n\
         \x20 \"locate_fresh_ns\": {fresh:.3},\n\
         \x20 \"locate_ratio\": {ratio:.4},\n\
         \x20 \"hiccups\": {hiccups:.0},\n\
         \x20 \"zero_hiccups\": {},\n\
         \x20 \"unknown_objects\": {unknown:.0},\n\
         \x20 \"zero_unknown_objects\": {},\n\
         \x20 \"lookups_served\": {:.0},\n\
         \x20 \"chain_ops_before\": {:.0},\n\
         \x20 \"chain_ops_after\": {:.0},\n\
         \x20 \"generation\": {:.0},\n\
         \x20 \"moved_blocks\": {:.0},\n\
         \x20 \"total_blocks\": {:.0},\n\
         \x20 \"budget_before\": {:.0},\n\
         \x20 \"budget_after\": {:.0},\n\
         \x20 \"raw\": [\n{raw}\n  ]\n}}\n",
        hiccups == 0.0,
        unknown == 0.0,
        count("lookups_served"),
        count("chain_ops_before"),
        count("chain_ops_after"),
        count("generation"),
        count("moved_blocks"),
        count("total_blocks"),
        count("budget_before"),
        count("budget_after"),
    ))
}

/// The `"cluster"` object for `BENCH_net.json`: the cluster-smoke
/// counts (routing errors, torn epochs), the scale-out migration delta
/// against its analytic expectation and 6σ bound, and the stale-map
/// client traffic counters. `None` when `cluster_smoke` has not run.
fn cluster_block(all: &Measurements) -> Option<String> {
    let get = |key: &str| all.get(&format!("cluster/{key}")).copied();
    let migrated = get("migrated_fraction")?;
    let expected = get("expected_fraction")?;
    let bound = get("bound_6sigma")?;
    let routing_errors = get("routing_errors")?;
    let torn_epochs = get("torn_epochs")?;
    let count = |key: &str| get(key).unwrap_or(0.0);
    Some(format!(
        "  \"cluster\": {{\n\
         \x20   \"routing_errors\": {routing_errors:.0},\n\
         \x20   \"torn_epochs\": {torn_epochs:.0},\n\
         \x20   \"moved_objects\": {:.0},\n\
         \x20   \"population\": {:.0},\n\
         \x20   \"migrated_fraction\": {migrated:.4},\n\
         \x20   \"expected_fraction\": {expected:.4},\n\
         \x20   \"bound_6sigma\": {bound:.4},\n\
         \x20   \"within_bound\": {},\n\
         \x20   \"served\": {:.0},\n\
         \x20   \"wrong_shard_bounces\": {:.0},\n\
         \x20   \"stale_map_hits\": {:.0},\n\
         \x20   \"map_refreshes\": {:.0},\n\
         \x20   \"client_errors\": {:.0},\n\
         \x20   \"map_version\": {:.0}\n\
         \x20 }},\n",
        count("moved_objects"),
        count("population"),
        migrated <= bound,
        count("served"),
        count("wrong_shard_bounces"),
        count("stale_map_hits"),
        count("map_refreshes"),
        count("client_errors"),
        count("map_version"),
    ))
}

/// The `BENCH_net.json` body: the serving overhead as the median
/// instrumented/bare ratio over the `net` bench's interleaved pairs,
/// with its min–max spread and verdict; the `"cluster"` object when
/// `cluster_smoke` has run; and the raw `net_*`/`cluster/*` rows. `None`
/// when neither has run.
fn net_report(all: &Measurements) -> Option<String> {
    let cluster = cluster_block(all);
    let overheads = pair_ratios(all, "net_locate_overhead").map(|p| {
        format!(
            "  \"overheads\": [\n    {{\"name\": \"locate\", \"pairs\": {}, \"ratio\": {:.4}, \
             \"min_ratio\": {:.4}, \"max_ratio\": {:.4}{}}}\n  ],\n",
            p.pairs,
            p.median,
            p.min,
            p.max,
            verdict_field("net_locate_overhead", p.median)
        )
    });
    if cluster.is_none() && overheads.is_none() {
        return None;
    }
    let raw = raw_rows(all, |k| k.starts_with("net_") || k.starts_with("cluster/"));
    Some(format!(
        "{{\n  \"threads\": {},\n{}{}  \"raw\": [\n{raw}\n  ]\n}}\n",
        threads(),
        cluster.unwrap_or_default(),
        overheads.unwrap_or_default()
    ))
}

fn main() {
    let mut out_path = "BENCH_remap.json".to_string();
    let mut gate = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--gate" {
            let Some(reports) = args.next() else {
                eprintln!(
                    "usage: bench_report [BENCH_remap.json path] [--gate <report>[,<report>...]]"
                );
                std::process::exit(2);
            };
            gate = Some(reports);
        } else {
            out_path = arg;
        }
    }
    let json_dirs: Vec<std::path::PathBuf> = match std::env::var("BENCH_JSON_DIR") {
        Ok(dir) => vec![dir.into()],
        Err(_) => vec![
            "target/criterion-json".into(),
            "crates/bench/target/criterion-json".into(),
        ],
    };
    let all = load_measurements(&json_dirs);
    if all.is_empty() {
        eprintln!("bench_report: no measurements found; nothing written");
        std::process::exit(1);
    }

    let path =
        |var: &str, default: &str| std::env::var(var).unwrap_or_else(|_| default.to_string());
    for (report, path) in [
        (remap_report(&all), out_path),
        (obs_report(&all), path("BENCH_OBS_PATH", "BENCH_obs.json")),
        (
            monitor_report(&all),
            path("BENCH_MONITOR_PATH", "BENCH_monitor.json"),
        ),
        (net_report(&all), path("BENCH_NET_PATH", "BENCH_net.json")),
        (
            compact_report(&all),
            path("BENCH_COMPACT_PATH", "BENCH_compact.json"),
        ),
    ] {
        if let Some(report) = report {
            std::fs::write(&path, report).expect("write report");
            println!("bench_report: wrote {path}");
        }
    }

    if let Some(reports) = gate {
        let (lines, ok) = check_gates(&all, &reports);
        for line in lines {
            println!("{line}");
        }
        if !ok {
            eprintln!("bench_report: gate {reports} FAILED");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"bench": "remap", "results": [
      {"group": "x_fold", "bench": "records/8", "ns_per_iter": 120.5, "iterations": 1000},
      {"group": "x_fold", "bench": "pipeline/8", "ns_per_iter": 30.1, "iterations": 4000}
    ]}"#;

    fn measurements(rows: &[(&str, f64)]) -> Measurements {
        rows.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    /// Five interleaved pairs with instrumented/bare ratios 1.00, 1.08,
    /// 1.02, 0.97 and 1.20.
    fn net_pairs() -> Measurements {
        let mut all = Measurements::new();
        for (i, inst) in [100.0, 108.0, 102.0, 97.0, 120.0].into_iter().enumerate() {
            all.insert(format!("net_locate_overhead/bare/{i}"), 100.0);
            all.insert(format!("net_locate_overhead/instrumented/{i}"), inst);
        }
        all
    }

    #[test]
    fn parses_shim_report() {
        let rows = parse_results(SAMPLE);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "x_fold");
        assert_eq!(rows[0].1, "records/8");
        assert!((rows[0].2 - 120.5).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_baseline_over_candidate() {
        let mut all = Measurements::new();
        for (g, b, n) in parse_results(SAMPLE) {
            all.insert(format!("{g}/{b}"), n);
        }
        let s = ratio(&all, "x_fold/records/8", "x_fold/pipeline/8").unwrap();
        assert!((s - 120.5 / 30.1).abs() < 1e-9);
        assert!(ratio(&all, "missing", "x_fold/pipeline/8").is_none());
    }

    #[test]
    fn parses_perfbench_result_line() {
        let stdout = "host nproc=2 caches=[48K,1280K] transport=loopback(127.0.0.1) commit=abc\n\
            metric window_p99_us = 69.575 us\n\
            {\"correct\": true, \"attempted\": 1485032, \"failed\": 0, \"metrics\": \
            {\"setup_s\": {\"value\": 0.18, \"unit\": \"s\"}, \
            \"window_p99_us\": {\"value\": 69.575, \"unit\": \"us\"}, \
            \"peak_rss_mb\": {\"value\": 27.5, \"unit\": \"MiB\"}}}\n";
        assert_eq!(
            parse_perfbench(stdout),
            vec![
                ("setup_s".to_string(), 0.18),
                ("window_p99_us".to_string(), 69.575),
                ("peak_rss_mb".to_string(), 27.5),
            ]
        );
        let failed = stdout.replace("\"correct\": true", "\"correct\": false");
        assert!(
            parse_perfbench(&failed).is_empty(),
            "a failed run gates nothing"
        );
        assert!(parse_perfbench("host nproc=2\n").is_empty());
    }

    #[test]
    fn a_failing_gate_row_fails_the_run() {
        let mut all = measurements(&[
            ("obs_locate_overhead/bare", 50.0),
            ("obs_locate_overhead/instrumented", 51.0),
            ("obs_profile_overhead/bare", 60.0),
            ("obs_profile_overhead/instrumented", 63.0),
            ("perfbench/scale-churn/locate_p99_us", 654.6),
            ("perfbench/cold-batch/window_p99_us", 69.6),
        ]);
        let (lines, ok) = check_gates(&all, "obs,perfbench");
        assert!(ok, "{lines:?}");
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("obs_locate_overhead"));
        assert!(lines[0].contains("1.0200") && lines[0].ends_with("PASS"));

        // One row over its bound fails the whole run.
        all.insert("perfbench/cold-batch/window_p99_us".into(), 2_000.5);
        let (lines, ok) = check_gates(&all, "obs,perfbench");
        assert!(!ok);
        assert!(
            lines[3].starts_with("perfbench/cold-batch/window_p99_us")
                && lines[3].ends_with("FAIL")
        );

        // A floor bound fails from below.
        all.insert("rf_plan_1m_blocks/serial".into(), 140.0);
        all.insert(format!("rf_plan_1m_blocks/parallel/{}", threads()), 100.0);
        let (lines, ok) = check_gates(&all, "remap");
        assert!(!ok);
        assert!(lines[0].contains("1.4000") && lines[0].contains(">= 1.5"));

        assert!(
            !check_gates(&all, "no-such-report").1,
            "an unknown name gates nothing"
        );
    }

    #[test]
    fn a_report_with_missing_rows_fails() {
        let all = measurements(&[
            ("obs_locate_overhead/bare", 50.0),
            ("obs_locate_overhead/instrumented", 51.0),
            ("monitor_locate_overhead/detached", 50.0),
            ("monitor_locate_overhead/attached", 50.0),
        ]);
        assert!(check_gates(&all, "monitor").1);
        // The profile side of `obs` never ran.
        let (lines, ok) = check_gates(&all, "monitor,obs");
        assert!(!ok);
        assert!(lines[2].starts_with("obs_profile_overhead") && lines[2].contains("missing"));
        // Nothing at all of `net` or `perfbench`.
        for report in ["net", "perfbench"] {
            let (lines, ok) = check_gates(&all, report);
            assert!(
                !ok && lines.iter().all(|l| l.contains("missing")),
                "{lines:?}"
            );
        }
    }

    #[test]
    fn net_overhead_is_the_median_of_pairs_with_its_spread() {
        let mut all = net_pairs();
        let pairs = pair_ratios(&all, "net_locate_overhead").expect("five pairs");
        assert_eq!(pairs.pairs, 5);
        assert!((pairs.median - 1.02).abs() < 1e-9);
        assert!((pairs.min - 0.97).abs() < 1e-9);
        assert!((pairs.max - 1.20).abs() < 1e-9);
        // The 1.20 outlier pair does not fail the median gate.
        let (lines, ok) = check_gates(&all, "net");
        assert!(ok, "{lines:?}");
        assert!(lines[0].contains("1.0200") && lines[0].contains("(spread 0.9700..1.2000)"));

        // A sixth pair is an even count: the mean of the middle two.
        all.insert("net_locate_overhead/bare/5".into(), 100.0);
        all.insert("net_locate_overhead/instrumented/5".into(), 104.0);
        let pairs = pair_ratios(&all, "net_locate_overhead").expect("six pairs");
        assert!((pairs.median - 1.03).abs() < 1e-9);

        // A gap stops the pairs: 0..2 complete is a partial run.
        all.remove("net_locate_overhead/bare/2");
        assert!(pair_ratios(&all, "net_locate_overhead").is_none());
        assert!(!check_gates(&all, "net").1);
    }

    #[test]
    fn obs_report_carries_ratio_and_verdict() {
        let mut all = measurements(&[
            ("obs_locate_overhead/bare", 50.0),
            ("obs_locate_overhead/instrumented", 51.0),
            ("obs_plan_overhead/bare", 10_000.0),
            ("obs_plan_overhead/instrumented", 11_500.0),
            ("obs_profile_overhead/bare", 60.0),
            ("obs_profile_overhead/instrumented", 69.0),
            ("obs_primitives/counter_inc", 2.0),
        ]);
        let report = obs_report(&all).expect("obs measurements present");
        assert!(report.contains(
            "{\"name\": \"locate\", \"bare_ns\": 50.000, \"instrumented_ns\": 51.000, \
             \"ratio\": 1.0200, \"within_gate\": true}"
        ));
        // Plan is reported but not gated: no verdict.
        assert!(report.contains("\"ratio\": 1.1500}"));
        // The armed-profiler path at 1.15 is over the 1.10 gate.
        assert!(report.contains("\"name\": \"profile\""));
        assert!(report.contains("\"ratio\": 1.1500, \"within_gate\": false"));
        assert!(report.contains("obs_primitives/counter_inc"));

        all.remove("obs_plan_overhead/bare");
        assert!(obs_report(&all).is_none(), "partial obs run emits nothing");
        all.insert("obs_plan_overhead/bare".to_string(), 10_000.0);
        all.remove("obs_profile_overhead/instrumented");
        assert!(
            obs_report(&all).is_none(),
            "a missing profile side emits nothing rather than a silently ungated report"
        );
    }

    #[test]
    fn monitor_report_carries_ratio_and_verdict() {
        let mut all = measurements(&[
            ("monitor_locate_overhead/detached", 50.0),
            ("monitor_locate_overhead/attached", 52.0),
            ("monitor_tick_overhead/detached", 1_000.0),
            ("monitor_tick_overhead/attached", 1_200.0),
            ("monitor_primitives/observe_census", 300.0),
        ]);
        let report = monitor_report(&all).expect("monitor measurements present");
        assert!(report.contains(
            "{\"name\": \"locate\", \"detached_ns\": 50.000, \"attached_ns\": 52.000, \
             \"ratio\": 1.0400, \"within_gate\": true}"
        ));
        // Tick is reported but not gated: no verdict.
        assert!(report.contains("\"ratio\": 1.2000}"));
        assert!(!report.contains("within_10pct"));
        assert!(report.contains("monitor_primitives/observe_census"));

        all.remove("monitor_tick_overhead/attached");
        assert!(
            monitor_report(&all).is_none(),
            "partial monitor run emits nothing"
        );
    }

    #[test]
    fn remap_raw_keeps_only_remap_and_access_rows() {
        let mut all = Measurements::new();
        for key in [
            "x_fold/pipeline/8",
            "remap_primitive/add",
            "rf_plan_1m_blocks/serial",
            "af_locate_vs_epoch/4",
            "x0_indexed_access/1000",
            "obs_locate_overhead/bare",
            "monitor_primitives/observe_census",
            "net_codec/decode_locate",
            "compact/hiccups",
            "cluster/map_version",
            "perfbench/cold-batch/window_p99_us",
        ] {
            all.insert(key.to_string(), 1.0);
        }
        let raw = raw_rows(&all, |k| REMAP_GROUPS.iter().any(|g| k.starts_with(g)));
        assert_eq!(raw.lines().count(), 5, "{raw}");
        for other in [
            "obs_",
            "monitor_",
            "net_",
            "compact/",
            "cluster/",
            "perfbench/",
        ] {
            assert!(
                !raw.contains(other),
                "{other} row leaked into BENCH_remap: {raw}"
            );
        }
    }

    #[test]
    fn net_report_carries_percentiles_and_gate_fields() {
        let mut all = net_pairs();
        all.insert("net_codec/decode_locate".into(), 18.0);
        let report = net_report(&all).expect("net measurements present");
        assert!(report.contains(
            "{\"name\": \"locate\", \"pairs\": 5, \"ratio\": 1.0200, \
             \"min_ratio\": 0.9700, \"max_ratio\": 1.2000, \"within_gate\": true}"
        ));
        assert!(report.contains("net_codec/decode_locate"));
        assert!(report.contains("net_locate_overhead/instrumented/4"));
        assert!(!report.contains("\"cluster\""));

        all.remove("net_locate_overhead/bare/4");
        assert!(
            net_report(&all).is_none(),
            "no complete pair set, nothing written"
        );
    }

    #[test]
    fn compact_report_carries_gates_and_refuses_partial_runs() {
        let mut all = measurements(&[
            ("compact/locate_before_ns", 61.0),
            ("compact/locate_after_ns", 35.0),
            ("compact/locate_fresh_ns", 34.0),
            ("compact/hiccups", 0.0),
            ("compact/unknown_objects", 0.0),
            ("compact/lookups_served", 9_568.0),
            ("compact/chain_ops_before", 8.0),
            ("compact/chain_ops_after", 0.0),
            ("compact/generation", 1.0),
            ("compact/moved_blocks", 42_048.0),
            ("compact/total_blocks", 48_000.0),
            ("compact/budget_before", 0.0),
            ("compact/budget_after", 8.0),
        ]);
        let report = compact_report(&all).expect("compact measurements present");
        assert!(report.contains("\"locate_ratio\": 1.0294"));
        assert!(report.contains("\"zero_hiccups\": true"));
        assert!(report.contains("\"zero_unknown_objects\": true"));
        assert!(report.contains("\"chain_ops_after\": 0"));
        assert!(report.contains("\"budget_after\": 8"));
        assert!(report.contains("compact/moved_blocks"), "raw rows present");
        // `compaction_smoke` gates its own run; no row here is in GATES.
        assert!(!report.contains("within_gate"));

        // A single mid-cutover hiccup flips its flag.
        all.insert("compact/hiccups".to_string(), 1.0);
        let hiccuped = compact_report(&all).expect("report");
        assert!(hiccuped.contains("\"zero_hiccups\": false"));

        // A partial emission is dropped, not half-written.
        all.remove("compact/unknown_objects");
        assert!(
            compact_report(&all).is_none(),
            "missing gate row emits nothing"
        );
    }

    #[test]
    fn cluster_rows_ride_into_the_net_report() {
        let mut all = measurements(&[
            ("cluster/routing_errors", 0.0),
            ("cluster/torn_epochs", 0.0),
            ("cluster/moved_objects", 26.0),
            ("cluster/population", 96.0),
            ("cluster/migrated_fraction", 0.2708),
            ("cluster/expected_fraction", 0.25),
            ("cluster/bound_6sigma", 0.5152),
            ("cluster/wrong_shard_bounces", 31.0),
            ("cluster/map_refreshes", 2.0),
            ("cluster/map_version", 4.0),
        ]);
        // Cluster-only run (the CI cluster-smoke job).
        let report = net_report(&all).expect("cluster rows alone still report");
        assert!(report.contains("\"cluster\": {"));
        assert!(report.contains("\"migrated_fraction\": 0.2708"));
        assert!(report.contains("\"within_bound\": true"));
        assert!(report.contains("\"wrong_shard_bounces\": 31"));
        assert!(!report.contains("\"overheads\""));
        assert!(report.contains("cluster/map_version"), "raw rows present");

        // Over the 6σ bound, the verdict flips.
        all.insert("cluster/migrated_fraction".to_string(), 0.60);
        let over = net_report(&all).expect("report");
        assert!(over.contains("\"within_bound\": false"));

        // Combined with a net bench run, both blocks appear.
        all.extend(net_pairs());
        let combined = net_report(&all).expect("combined report");
        assert!(combined.contains("\"overheads\""));
        assert!(combined.contains("\"cluster\": {"));
        assert!(combined.contains("\"torn_epochs\": 0"));

        // An incomplete cluster emission is dropped, not half-written.
        all.remove("cluster/bound_6sigma");
        let partial = net_report(&all).expect("bench rows still report");
        assert!(!partial.contains("\"cluster\": {"));
    }
}
