//! Observability-federation smoke: boots a 3-shard loopback cluster,
//! drives a seeded **traced** locate workload, then pulls every
//! shard's registry through one [`FleetAggregator`] round and gates
//! on the federation invariants end to end:
//!
//! * **every shard federated** — the aggregator knows exactly the 3
//!   booted shards and reaches each of them in its round;
//! * **federated == direct sums** — every serving request counter in
//!   the fleet registry equals the sum of direct per-shard scrapes
//!   (and the merged latency histogram preserves the total count),
//!   excluding the `scrape-stats` endpoint the scraping itself
//!   perturbs;
//! * **burn-rate alarm fires** — the fleet SLO runs with a planted
//!   100 ns latency objective no loopback request can beat, so the
//!   federated scrape deltas must trip the latency burn rule (WARN or
//!   worse), and its CRIT transition must capture the span flight
//!   recorder into the event log as `span-capture` events;
//! * **traces stitch** — the last lookup's trace must hold the client
//!   root plus at least one serving hop from a shard's recorder.
//!
//! Artifacts: the fleet-wide Prometheus exposition (`--prom-out`) and
//! the JSONL event log with the captured spans (`--traces-out`).
//!
//! ```text
//! cargo run --release -p scaddar-cluster --bin federation_smoke -- \
//!     [--seed N] [--objects N] [--requests N] [--prom-out PATH] [--traces-out PATH]
//! ```

use scaddar_cluster::{Cluster, ClusterConfig, FleetAggregator};
use scaddar_monitor::{Severity, SloRules};
use scaddar_net::{ClusterClient, NetClient};
use scaddar_obs::slo::SloConfig;
use scaddar_obs::{render_trace_dump, EventLog, RegistrySnapshot, Tracer};
use scaddar_prng::{Pcg64, SeededRng};

const BLOCKS_PER_OBJECT: u64 = 1_000;
const SHARDS: u32 = 3;

/// Serving series only: the aggregator's own polling increments the
/// `scrape-stats` endpoint, so it is excluded from agreement checks.
fn serving(name: &str, prefix: &str) -> bool {
    name.starts_with(prefix) && !name.contains("scrape-stats")
}

fn serving_requests(snapshot: &RegistrySnapshot) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|c| serving(&c.name, "net_server_requests_total{"))
        .map(|c| c.value)
        .sum()
}

fn serving_histogram_count(snapshot: &RegistrySnapshot) -> u64 {
    snapshot
        .histograms
        .iter()
        .filter(|h| serving(&h.name, "net_server_request_ns{"))
        .map(|h| h.snapshot.count)
        .sum()
}

fn main() {
    let mut seed: u64 = std::env::var("HARNESS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x000F_ED5C_ADDA);
    let mut objects: u64 = 48;
    let mut requests: u64 = 400;
    let mut prom_path = "target/federation_smoke_fleet.prom".to_string();
    let mut traces_path = "target/federation_smoke_traces.jsonl".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => seed = value("--seed").parse().expect("numeric --seed"),
            "--objects" => objects = value("--objects").parse().expect("numeric --objects"),
            "--requests" => requests = value("--requests").parse().expect("numeric --requests"),
            "--prom-out" => prom_path = value("--prom-out"),
            "--traces-out" => traces_path = value("--traces-out"),
            other => panic!("unknown argument {other:?}"),
        }
    }
    println!("federation_smoke: seed={seed} objects={objects} requests={requests}");

    let mut cluster = Cluster::boot(ClusterConfig {
        shards: SHARDS,
        blocks_per_object: BLOCKS_PER_OBJECT,
        catalog_seed: seed,
        ..ClusterConfig::default()
    })
    .expect("cluster boot");
    cluster.populate(objects).expect("populate");

    let mut client = ClusterClient::connect(&cluster.seeds()).expect("client connect");
    client.enable_tracing(Tracer::new(cluster.clock().clone(), 4096), seed);
    let mut rng = Pcg64::from_seed(seed ^ 0xFED0_0FED);
    let mut served: u64 = 0;
    let mut routing_errors: u64 = 0;
    for _ in 0..requests {
        let gid = rng.next_u64() % objects;
        let block = rng.next_u64() % BLOCKS_PER_OBJECT;
        match client.locate(gid, block) {
            Ok(answer) if Some(answer.shard) == cluster.map().route(gid) => served += 1,
            Ok(answer) => {
                eprintln!(
                    "federation_smoke: object {gid} served by shard {} off the map",
                    answer.shard
                );
                routing_errors += 1;
            }
            Err(e) => {
                eprintln!("federation_smoke: locate {gid}/{block} failed: {e}");
                routing_errors += 1;
            }
        }
    }
    println!("federation_smoke: served={served}");

    // One federation round, with the fleet SLO on a planted 100 ns
    // latency objective: no loopback request beats it, so the scrape
    // deltas must trip the latency burn rule.
    let log = EventLog::new(cluster.clock().clone());
    let mut aggregator = FleetAggregator::new(cluster.clock().clone());
    aggregator.enable_slo(
        SloConfig {
            latency_objective_ns: 100,
            ..SloConfig::default()
        },
        SloRules::default(),
        log.clone(),
    );
    let targets = cluster.scrape_targets();
    let fleet = aggregator.scrape(&targets);
    let federated = fleet.shards.len() as u64;
    let unreachable = fleet.unreachable_shards();
    let fleet_snapshot = fleet.fleet_registry().snapshot();

    // Direct per-shard scrapes (after the round, on a quiesced
    // cluster): serving sums must agree with the federated registry.
    let mut direct_requests: u64 = 0;
    let mut direct_histogram: u64 = 0;
    for (shard, addr) in &targets {
        let (_, _, snap) = NetClient::connect(*addr)
            .scrape_stats()
            .unwrap_or_else(|e| panic!("direct scrape of shard {shard}: {e}"));
        direct_requests += serving_requests(&snap);
        direct_histogram += serving_histogram_count(&snap);
    }
    let fed_requests = serving_requests(&fleet_snapshot);
    let fed_histogram = serving_histogram_count(&fleet_snapshot);
    println!(
        "federation_smoke: federated requests={fed_requests} (direct {direct_requests}), \
         histogram count={fed_histogram} (direct {direct_histogram})"
    );

    // The planted objective must raise the latency burn alarm; a CRIT
    // transition also captures the flight recorder into the log.
    let events = aggregator.evaluate_slo(client.tracer());
    let mut burn_tripped = false;
    for e in &events {
        println!(
            "federation_smoke: slo event [{}] {} — {}",
            e.severity.label(),
            e.kind,
            e.detail
        );
        if e.kind == "latency-p999-burn" && e.severity >= Severity::Warn {
            burn_tripped = true;
        }
    }
    let captured = log.events().iter().any(|e| e.kind == "span-capture");

    // Trace stitching: the last lookup renders as one tree with the
    // client root plus at least one serving hop.
    let tracer = client.tracer().expect("tracing enabled");
    let root = tracer.recent(1).pop().expect("at least one root span");
    let mut spans = tracer.spans_for_trace(root.trace_id);
    for id in cluster.shard_ids() {
        if let Some(t) = cluster.shard_tracer(id) {
            spans.extend(t.spans_for_trace(root.trace_id));
        }
    }
    let stitched = spans.len() >= 2;
    println!(
        "federation_smoke: trace {:016x} has {} span(s):\n{}",
        root.trace_id,
        spans.len(),
        render_trace_dump(&spans, root.trace_id)
    );

    for (path, contents) in [
        (&prom_path, fleet.render_prometheus()),
        (&traces_path, String::new()),
    ] {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
        if !contents.is_empty() {
            std::fs::write(path, &contents).expect("write artifact");
        }
    }
    log.write_to(std::path::Path::new(&traces_path))
        .expect("write traces");
    println!("federation_smoke: wrote {prom_path} and {traces_path}");

    cluster.shutdown();

    let agree = fed_requests == direct_requests && fed_histogram == direct_histogram;
    if routing_errors > 0
        || federated != u64::from(SHARDS)
        || !unreachable.is_empty()
        || !agree
        || !burn_tripped
        || !captured
        || !stitched
    {
        eprintln!(
            "federation_smoke: FAILED (routing_errors={routing_errors}, federated={federated}, \
             unreachable={unreachable:?}, agree={agree}, burn_tripped={burn_tripped}, \
             captured={captured}, stitched={stitched})"
        );
        std::process::exit(1);
    }
    println!("federation_smoke: OK");
}
