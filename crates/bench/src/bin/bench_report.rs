//! Condenses the criterion JSON emitted by the `remap`, `access`, and
//! `obs` benches into machine-readable reports at the repo root:
//!
//! * `BENCH_remap.json` — the `remap` and `access` benches' raw
//!   ns-per-iteration plus the headline speedup ratios of the bulk
//!   location engine (pipeline fold vs record fold, parallel vs serial
//!   planning, cached vs oracle lookup);
//! * `BENCH_obs.json` (when the `obs` bench has run) — the telemetry
//!   overhead ratios (instrumented / bare), with a `within_gate`
//!   verdict per hot path keyed to the CI 1.10 acceptance gate on the
//!   locate ratio;
//! * `BENCH_monitor.json` (when the `monitor` bench has run) — the
//!   health monitor's amortized overhead ratios (attached / detached),
//!   with a `within_10pct` verdict per hot path. CI's health-smoke job
//!   gates on the locate ratio;
//! * `BENCH_net.json` (when the `scaddard-load` loopback harness or
//!   the `cluster_smoke` 3-shard harness has run) — end-to-end locate
//!   latency percentiles (p50/p95/p99/p999), throughput,
//!   error/violation counts, and the instrumented/bare serving
//!   overhead ratio with a `within_10pct` verdict; cluster runs add a
//!   `"cluster"` object with the routing/torn-epoch gates and the
//!   scale-out migration delta vs its 6σ bound. CI's net-smoke job
//!   gates on protocol errors and that ratio; cluster-smoke gates on
//!   the cluster object;
//! * `BENCH_compact.json` (when the `compaction_smoke` harness has
//!   run) — the rehash-compaction gates: locate ns before/after the
//!   flip vs a fresh chain-length-0 engine with a `within_gate`
//!   verdict keyed to the CI 1.2× ceiling, the mid-cutover hiccup and
//!   unknown-object counts (both must be zero), and the budget
//!   refill. CI's compaction-smoke job gates on all three.
//!
//! Run after the benches:
//!
//! ```text
//! cargo bench -p scaddar-bench --bench remap --bench access --bench obs --bench monitor
//! cargo run --release -p scaddar-net --bin scaddard-load
//! cargo run -p scaddar-bench --bin bench_report
//! ```
//!
//! Reads `target/criterion-json/{remap,access,obs,monitor,net,net_load,cluster,compact}.json`
//! relative to the current directory (override with `BENCH_JSON_DIR`)
//! and writes `BENCH_remap.json` (override with the first CLI
//! argument), `BENCH_obs.json` (override with `BENCH_OBS_PATH`),
//! `BENCH_monitor.json` (override with `BENCH_MONITOR_PATH`),
//! `BENCH_net.json` (override with `BENCH_NET_PATH`), and
//! `BENCH_compact.json` (override with `BENCH_COMPACT_PATH`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The instrumented/bare overhead ratio CI's obs-smoke job accepts on
/// the locate hot path; `within_gate` in `BENCH_obs.json` is keyed to
/// the same line so the report never reads as a standing failure while
/// CI is green.
const OBS_OVERHEAD_GATE: f64 = 1.10;

/// The post-compaction/fresh-engine locate ratio CI's compaction-smoke
/// job accepts: a collapsed generation must locate within 1.2× of a
/// brand-new chain-length-0 engine over the same catalog.
const COMPACT_LOCATE_GATE: f64 = 1.2;

/// One measured benchmark, keyed `group/bench`.
#[derive(Debug, Clone)]
struct Measurement {
    ns_per_iter: f64,
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

fn load_measurements(dirs: &[std::path::PathBuf]) -> BTreeMap<String, Measurement> {
    let mut all = BTreeMap::new();
    for stem in [
        "remap", "access", "obs", "monitor", "net", "net_load", "cluster", "compact",
    ] {
        // Cargo runs bench binaries with the package directory as cwd,
        // so the shim's reports land under `crates/bench/target/` when
        // benches run from the workspace root; accept either location.
        let Some(json) = dirs
            .iter()
            .find_map(|dir| std::fs::read_to_string(dir.join(format!("{stem}.json"))).ok())
        else {
            eprintln!(
                "bench_report: missing {stem}.json (run `cargo bench -p scaddar-bench --bench {stem}` first)"
            );
            continue;
        };
        for (group, bench, ns_per_iter) in parse_results(&json) {
            all.insert(format!("{group}/{bench}"), Measurement { ns_per_iter });
        }
    }
    all
}

/// Group prefixes of the `remap` and `access` benches: the only rows
/// `BENCH_remap.json` carries (every other bench has its own report).
const REMAP_GROUPS: [&str; 5] = ["x_fold/", "remap_primitive/", "rf_plan_", "af_", "x0_"];

/// The body of a report's `"raw"` array: one `{bench, ns_per_iter}` row
/// per measurement whose key passes `keep`, in key order.
fn raw_rows(all: &BTreeMap<String, Measurement>, keep: impl Fn(&str) -> bool) -> String {
    let mut raw = String::new();
    for (key, m) in all.iter().filter(|(k, _)| keep(k)) {
        if !raw.is_empty() {
            raw.push_str(",\n");
        }
        write!(
            raw,
            "    {{\"bench\": \"{key}\", \"ns_per_iter\": {:.3}}}",
            m.ns_per_iter
        )
        .expect("write to string");
    }
    raw
}

/// `baseline_ns / candidate_ns`: how many times faster the candidate is.
fn speedup(all: &BTreeMap<String, Measurement>, baseline: &str, candidate: &str) -> Option<f64> {
    let b = all.get(baseline)?.ns_per_iter;
    let c = all.get(candidate)?.ns_per_iter;
    (c > 0.0).then(|| b / c)
}

/// The `BENCH_obs.json` body: instrumented/bare overhead ratio per hot
/// path (with the acceptance verdict), plus the raw `obs_*`
/// measurements. `None` when the `obs` bench has not run.
fn obs_report(all: &BTreeMap<String, Measurement>) -> Option<String> {
    let mut overheads = String::new();
    for path in ["locate", "plan", "profile"] {
        let bare = all.get(&format!("obs_{path}_overhead/bare"))?.ns_per_iter;
        let inst = all
            .get(&format!("obs_{path}_overhead/instrumented"))?
            .ns_per_iter;
        if bare <= 0.0 {
            return None;
        }
        let ratio = inst / bare;
        if !overheads.is_empty() {
            overheads.push_str(",\n");
        }
        write!(
            overheads,
            "    {{\"name\": \"{path}\", \"bare_ns\": {bare:.3}, \"instrumented_ns\": {inst:.3}, \
             \"ratio\": {ratio:.4}, \"within_gate\": {}}}",
            ratio <= OBS_OVERHEAD_GATE
        )
        .expect("write to string");
    }
    let raw = raw_rows(all, |k| k.starts_with("obs_"));
    Some(format!(
        "{{\n  \"overheads\": [\n{overheads}\n  ],\n  \"raw\": [\n{raw}\n  ]\n}}\n"
    ))
}

/// The `BENCH_monitor.json` body: health-monitor overhead ratio
/// (attached / detached) per polled hot path, with the ≤1.10 acceptance
/// verdict, plus the raw `monitor_*` measurements. `None` when the
/// `monitor` bench has not run.
fn monitor_report(all: &BTreeMap<String, Measurement>) -> Option<String> {
    let mut overheads = String::new();
    for path in ["locate", "tick"] {
        let detached = all
            .get(&format!("monitor_{path}_overhead/detached"))?
            .ns_per_iter;
        let attached = all
            .get(&format!("monitor_{path}_overhead/attached"))?
            .ns_per_iter;
        if detached <= 0.0 {
            return None;
        }
        let ratio = attached / detached;
        if !overheads.is_empty() {
            overheads.push_str(",\n");
        }
        write!(
            overheads,
            "    {{\"name\": \"{path}\", \"detached_ns\": {detached:.3}, \"attached_ns\": {attached:.3}, \
             \"ratio\": {ratio:.4}, \"within_10pct\": {}}}",
            ratio <= 1.10
        )
        .expect("write to string");
    }
    let raw = raw_rows(all, |k| k.starts_with("monitor_"));
    Some(format!(
        "{{\n  \"overheads\": [\n{overheads}\n  ],\n  \"raw\": [\n{raw}\n  ]\n}}\n"
    ))
}

/// The `BENCH_compact.json` body: the rehash-compaction acceptance
/// gates from the `compaction_smoke` harness — the locate-ns triple
/// (long chain / post-flip / fresh engine) with the ≤1.2× `within_gate`
/// verdict on the post-flip-vs-fresh ratio, the zero-hiccup and
/// zero-unknown-object serving gates from the dual-generation cutover,
/// and the chain/budget bookkeeping around the flip. `None` when the
/// smoke has not run (or emitted only a partial row set — a
/// half-written report must not read as a passing one).
fn compact_report(all: &BTreeMap<String, Measurement>) -> Option<String> {
    let get = |key: &str| Some(all.get(&format!("compact/{key}"))?.ns_per_iter);
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
         \x20 \"within_gate\": {},\n\
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
        ratio <= COMPACT_LOCATE_GATE,
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
/// gates (routing errors, torn epochs), the scale-out migration delta
/// against its analytic expectation and 6σ bound, and the stale-map
/// client traffic counters. `None` when `cluster_smoke` has not run.
fn cluster_block(all: &BTreeMap<String, Measurement>) -> Option<String> {
    let get = |key: &str| Some(all.get(&format!("cluster/{key}"))?.ns_per_iter);
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

/// The `BENCH_net.json` body: end-to-end locate latency percentiles
/// from the seeded loopback load run, throughput and error/violation
/// counts, and the instrumented/bare serving overhead ratio with the
/// ≤1.10 acceptance verdict, plus the raw `net_*` measurements (the
/// `net` codec/request-path bench rows ride along when present). When
/// `cluster_smoke` has run, its gates and migration delta ride
/// along as a `"cluster"` object (alone, if the single-node load
/// harness did not run). `None` when neither has run.
fn net_report(all: &BTreeMap<String, Measurement>) -> Option<String> {
    let get = |key: &str| Some(all.get(key)?.ns_per_iter);
    let cluster = cluster_block(all);
    let raw = raw_rows(all, |k| k.starts_with("net_") || k.starts_with("cluster/"));
    let load = get("net_load/locate_p50")
        .and_then(|p50| {
            Some((
                p50,
                get("net_load/locate_p95")?,
                get("net_load/locate_p99")?,
                get("net_load/locate_p999")?,
            ))
        })
        .and_then(|p| {
            Some((
                p,
                get("net_locate_overhead/bare")?,
                get("net_locate_overhead/instrumented")?,
            ))
        });
    let Some(((p50, p95, p99, p999), bare, inst)) = load else {
        // Cluster-only run (CI's cluster-smoke job): the migration
        // delta still lands in BENCH_net.json.
        let cluster = cluster?;
        return Some(format!("{{\n{cluster}  \"raw\": [\n{raw}\n  ]\n}}\n"));
    };
    if bare <= 0.0 {
        return None;
    }
    let ratio = inst / bare;
    let count = |key: &str| get(key).unwrap_or(0.0);
    let cluster = cluster.unwrap_or_default();
    Some(format!(
        "{{\n  \"locate_latency_ns\": {{\"p50\": {p50:.0}, \"p95\": {p95:.0}, \"p99\": {p99:.0}, \"p999\": {p999:.0}}},\n\
         \x20 \"batch_p99_ns\": {:.0},\n\
         \x20 \"pipelined_p999_ns\": {:.0},\n\
         \x20 \"throughput_rps\": {:.1},\n\
         {cluster}\
         \x20 \"requests\": {:.0},\n\
         \x20 \"errors\": {:.0},\n\
         \x20 \"protocol_errors\": {:.0},\n\
         \x20 \"consistency_violations\": {:.0},\n\
         \x20 \"epochs_observed\": {:.0},\n\
         \x20 \"overheads\": [\n    {{\"name\": \"locate\", \"bare_ns\": {bare:.3}, \"instrumented_ns\": {inst:.3}, \
         \"ratio\": {ratio:.4}, \"within_10pct\": {}}}\n  ],\n\
         \x20 \"raw\": [\n{raw}\n  ]\n}}\n",
        count("net_load/batch_p99"),
        count("net_load/pipelined_p999"),
        count("net_load/throughput_rps"),
        count("net_load/requests"),
        count("net_load/errors"),
        count("net_load/protocol_errors"),
        count("net_load/consistency_violations"),
        count("net_load/epochs_observed"),
        ratio <= 1.10,
    ))
}

fn main() {
    let json_dirs: Vec<std::path::PathBuf> = match std::env::var("BENCH_JSON_DIR") {
        Ok(dir) => vec![dir.into()],
        Err(_) => vec![
            "target/criterion-json".into(),
            "crates/bench/target/criterion-json".into(),
        ],
    };
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_remap.json".to_string());
    let all = load_measurements(&json_dirs);
    if all.is_empty() {
        eprintln!("bench_report: no measurements found; nothing written");
        std::process::exit(1);
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut speedups = String::new();
    let mut push_ratio = |name: &str, baseline: &str, candidate: &str| {
        if let Some(ratio) = speedup(&all, baseline, candidate) {
            if !speedups.is_empty() {
                speedups.push_str(",\n");
            }
            write!(
                speedups,
                "    {{\"name\": \"{name}\", \"baseline\": \"{baseline}\", \"candidate\": \"{candidate}\", \"speedup\": {ratio:.3}}}"
            )
            .expect("write to string");
        }
    };
    for j in [8, 16, 32] {
        push_ratio(
            &format!("pipeline_fold_vs_records_j{j}"),
            &format!("x_fold/records/{j}"),
            &format!("x_fold/pipeline/{j}"),
        );
    }
    push_ratio(
        "parallel_vs_serial_plan_1m",
        "rf_plan_1m_blocks/serial",
        &format!("rf_plan_1m_blocks/parallel/{threads}"),
    );
    for j in [8, 32] {
        push_ratio(
            &format!("cached_vs_oracle_locate_j{j}"),
            &format!("af_cached_vs_oracle/oracle/{j}"),
            &format!("af_cached_vs_oracle/cached/{j}"),
        );
    }

    let raw = raw_rows(&all, |k| REMAP_GROUPS.iter().any(|g| k.starts_with(g)));

    let report = format!(
        "{{\n  \"threads\": {threads},\n  \"speedups\": [\n{speedups}\n  ],\n  \"raw\": [\n{raw}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &report).expect("write report");
    println!(
        "bench_report: wrote {out_path} ({} measurements)",
        all.len()
    );

    if let Some(obs) = obs_report(&all) {
        let obs_path =
            std::env::var("BENCH_OBS_PATH").unwrap_or_else(|_| "BENCH_obs.json".to_string());
        std::fs::write(&obs_path, &obs).expect("write obs report");
        println!("bench_report: wrote {obs_path}");
    }

    if let Some(monitor) = monitor_report(&all) {
        let monitor_path = std::env::var("BENCH_MONITOR_PATH")
            .unwrap_or_else(|_| "BENCH_monitor.json".to_string());
        std::fs::write(&monitor_path, &monitor).expect("write monitor report");
        println!("bench_report: wrote {monitor_path}");
    }

    if let Some(net) = net_report(&all) {
        let net_path =
            std::env::var("BENCH_NET_PATH").unwrap_or_else(|_| "BENCH_net.json".to_string());
        std::fs::write(&net_path, &net).expect("write net report");
        println!("bench_report: wrote {net_path}");
    }

    if let Some(compact) = compact_report(&all) {
        let compact_path = std::env::var("BENCH_COMPACT_PATH")
            .unwrap_or_else(|_| "BENCH_compact.json".to_string());
        std::fs::write(&compact_path, &compact).expect("write compact report");
        println!("bench_report: wrote {compact_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"bench": "remap", "results": [
      {"group": "x_fold", "bench": "records/8", "ns_per_iter": 120.5, "iterations": 1000},
      {"group": "x_fold", "bench": "pipeline/8", "ns_per_iter": 30.1, "iterations": 4000}
    ]}"#;

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
        let mut all = BTreeMap::new();
        for (g, b, n) in parse_results(SAMPLE) {
            all.insert(format!("{g}/{b}"), Measurement { ns_per_iter: n });
        }
        let s = speedup(&all, "x_fold/records/8", "x_fold/pipeline/8").unwrap();
        assert!((s - 120.5 / 30.1).abs() < 1e-9);
        assert!(speedup(&all, "missing", "x_fold/pipeline/8").is_none());
    }

    #[test]
    fn obs_report_carries_ratio_and_verdict() {
        let mut all = BTreeMap::new();
        for (key, ns) in [
            ("obs_locate_overhead/bare", 50.0),
            ("obs_locate_overhead/instrumented", 51.0),
            ("obs_plan_overhead/bare", 10_000.0),
            ("obs_plan_overhead/instrumented", 11_500.0),
            ("obs_profile_overhead/bare", 60.0),
            ("obs_profile_overhead/instrumented", 63.0),
            ("obs_primitives/counter_inc", 2.0),
        ] {
            all.insert(key.to_string(), Measurement { ns_per_iter: ns });
        }
        let report = obs_report(&all).expect("obs measurements present");
        assert!(report.contains("\"name\": \"locate\""));
        assert!(report.contains("\"ratio\": 1.0200"));
        assert!(report.contains("\"within_gate\": true"));
        // Plan at 1.15 is over the CI 1.10 gate.
        assert!(report.contains("\"ratio\": 1.1500"));
        assert!(report.contains("\"within_gate\": false"));
        // The armed-profiler path (1.05) sits inside the gate.
        assert!(report.contains("\"name\": \"profile\""));
        assert!(report.contains("\"ratio\": 1.0500"));
        assert!(report.contains("obs_primitives/counter_inc"));

        all.remove("obs_plan_overhead/bare");
        assert!(obs_report(&all).is_none(), "partial obs run emits nothing");
        all.insert(
            "obs_plan_overhead/bare".to_string(),
            Measurement {
                ns_per_iter: 10_000.0,
            },
        );
        all.remove("obs_profile_overhead/instrumented");
        assert!(
            obs_report(&all).is_none(),
            "a missing profile side emits nothing rather than a silently ungated report"
        );
    }

    #[test]
    fn monitor_report_carries_ratio_and_verdict() {
        let mut all = BTreeMap::new();
        for (key, ns) in [
            ("monitor_locate_overhead/detached", 50.0),
            ("monitor_locate_overhead/attached", 52.0),
            ("monitor_tick_overhead/detached", 1_000.0),
            ("monitor_tick_overhead/attached", 1_200.0),
            ("monitor_primitives/observe_census", 300.0),
        ] {
            all.insert(key.to_string(), Measurement { ns_per_iter: ns });
        }
        let report = monitor_report(&all).expect("monitor measurements present");
        assert!(report.contains("\"name\": \"locate\""));
        assert!(report.contains("\"ratio\": 1.0400"));
        assert!(report.contains("\"within_10pct\": true"));
        // Tick at 1.20 is over the 10% line.
        assert!(report.contains("\"ratio\": 1.2000"));
        assert!(report.contains("\"within_10pct\": false"));
        assert!(report.contains("monitor_primitives/observe_census"));

        all.remove("monitor_tick_overhead/attached");
        assert!(
            monitor_report(&all).is_none(),
            "partial monitor run emits nothing"
        );
    }

    #[test]
    fn remap_raw_keeps_only_remap_and_access_rows() {
        let mut all = BTreeMap::new();
        for key in [
            "x_fold/pipeline/8",
            "remap_primitive/add",
            "rf_plan_1m_blocks/serial",
            "af_locate_vs_epoch/4",
            "x0_indexed_access/1000",
            "obs_locate_overhead/bare",
            "monitor_primitives/observe_census",
            "net_load/locate_p50",
            "compact/hiccups",
            "cluster/map_version",
        ] {
            all.insert(key.to_string(), Measurement { ns_per_iter: 1.0 });
        }
        let raw = raw_rows(&all, |k| REMAP_GROUPS.iter().any(|g| k.starts_with(g)));
        assert_eq!(raw.lines().count(), 5, "{raw}");
        for other in ["obs_", "monitor_", "net_", "compact/", "cluster/"] {
            assert!(
                !raw.contains(other),
                "{other} row leaked into BENCH_remap: {raw}"
            );
        }
    }

    #[test]
    fn net_report_carries_percentiles_and_gate_fields() {
        let mut all = BTreeMap::new();
        for (key, ns) in [
            ("net_load/locate_p50", 21_000.0),
            ("net_load/locate_p95", 48_000.0),
            ("net_load/locate_p99", 90_000.0),
            ("net_load/locate_p999", 180_000.0),
            ("net_load/batch_p99", 120_000.0),
            ("net_load/pipelined_p999", 95_000.0),
            ("net_load/throughput_rps", 410_000.0),
            ("net_load/requests", 4_800.0),
            ("net_load/errors", 0.0),
            ("net_load/protocol_errors", 0.0),
            ("net_load/consistency_violations", 0.0),
            ("net_load/epochs_observed", 3.0),
            ("net_locate_overhead/bare", 20_000.0),
            ("net_locate_overhead/instrumented", 21_000.0),
            ("net_codec/decode_locate", 18.0),
        ] {
            all.insert(key.to_string(), Measurement { ns_per_iter: ns });
        }
        let report = net_report(&all).expect("net measurements present");
        assert!(report.contains("\"p50\": 21000"));
        assert!(report.contains("\"p999\": 180000"));
        assert!(report.contains("\"protocol_errors\": 0"));
        assert!(report.contains("\"consistency_violations\": 0"));
        assert!(report.contains("\"ratio\": 1.0500"));
        assert!(report.contains("\"within_10pct\": true"));
        assert!(report.contains("\"pipelined_p999_ns\": 95000"));
        assert!(report.contains("net_codec/decode_locate"));

        all.remove("net_locate_overhead/bare");
        assert!(net_report(&all).is_none(), "no load run, nothing written");
    }

    #[test]
    fn compact_report_carries_gates_and_refuses_partial_runs() {
        let mut all = BTreeMap::new();
        for (key, ns) in [
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
        ] {
            all.insert(key.to_string(), Measurement { ns_per_iter: ns });
        }
        let report = compact_report(&all).expect("compact measurements present");
        assert!(report.contains("\"locate_ratio\": 1.0294"));
        assert!(report.contains("\"within_gate\": true"));
        assert!(report.contains("\"zero_hiccups\": true"));
        assert!(report.contains("\"zero_unknown_objects\": true"));
        assert!(report.contains("\"chain_ops_after\": 0"));
        assert!(report.contains("\"budget_after\": 8"));
        assert!(report.contains("compact/moved_blocks"), "raw rows present");

        // A post-flip locate slower than 1.2x fresh flips the verdict.
        all.insert(
            "compact/locate_after_ns".to_string(),
            Measurement { ns_per_iter: 45.0 },
        );
        let slow = compact_report(&all).expect("report");
        assert!(slow.contains("\"within_gate\": false"));

        // A single mid-cutover hiccup flips its gate.
        all.insert(
            "compact/hiccups".to_string(),
            Measurement { ns_per_iter: 1.0 },
        );
        let hiccuped = compact_report(&all).expect("report");
        assert!(hiccuped.contains("\"zero_hiccups\": false"));

        // A partial emission is dropped, not half-gated.
        all.remove("compact/unknown_objects");
        assert!(
            compact_report(&all).is_none(),
            "missing gate row emits nothing"
        );
    }

    #[test]
    fn cluster_rows_ride_into_the_net_report() {
        let mut all = BTreeMap::new();
        for (key, ns) in [
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
        ] {
            all.insert(key.to_string(), Measurement { ns_per_iter: ns });
        }
        // Cluster-only run (the CI cluster-smoke job).
        let report = net_report(&all).expect("cluster rows alone still report");
        assert!(report.contains("\"cluster\": {"));
        assert!(report.contains("\"migrated_fraction\": 0.2708"));
        assert!(report.contains("\"within_bound\": true"));
        assert!(report.contains("\"wrong_shard_bounces\": 31"));
        assert!(!report.contains("locate_latency_ns"));
        assert!(report.contains("cluster/map_version"), "raw rows present");

        // Over the 6σ bound, the verdict flips.
        all.insert(
            "cluster/migrated_fraction".to_string(),
            Measurement { ns_per_iter: 0.60 },
        );
        let over = net_report(&all).expect("report");
        assert!(over.contains("\"within_bound\": false"));

        // Combined with a load run, both blocks appear.
        for (key, ns) in [
            ("net_load/locate_p50", 21_000.0),
            ("net_load/locate_p95", 48_000.0),
            ("net_load/locate_p99", 90_000.0),
            ("net_load/locate_p999", 180_000.0),
            ("net_load/throughput_rps", 410_000.0),
            ("net_locate_overhead/bare", 20_000.0),
            ("net_locate_overhead/instrumented", 21_000.0),
        ] {
            all.insert(key.to_string(), Measurement { ns_per_iter: ns });
        }
        let combined = net_report(&all).expect("combined report");
        assert!(combined.contains("locate_latency_ns"));
        assert!(combined.contains("\"cluster\": {"));
        assert!(combined.contains("\"torn_epochs\": 0"));

        // An incomplete cluster emission is dropped, not half-written.
        all.remove("cluster/bound_6sigma");
        let partial = net_report(&all).expect("load rows still report");
        assert!(!partial.contains("\"cluster\": {"));
    }
}
