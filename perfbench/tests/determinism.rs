//! The generator is a pure function of the seed, the oracle agrees with
//! the engine it checks, and the printed metric names are exactly the
//! ones `BENCHMARK.json` lists.

use cmsim::{CmServer, ServerConfig};
use scaddar_core::ObjectId;
use scaddar_perfbench::gen::{Request, Spec, Workload};
use scaddar_perfbench::oracle::Oracle;
use scaddar_perfbench::run::{END_TO_END, PER_LAYER, PER_LAYER_TAIL};

fn requests(spec: &Spec, client: usize, n: usize) -> Vec<Request> {
    spec.requests(client).take(n).collect()
}

#[test]
fn same_seed_same_requests_and_ops() {
    for workload in Workload::ALL {
        let (a, b) = (Spec::new(workload, 42), Spec::new(workload, 42));
        assert_eq!(a.catalog_seed, b.catalog_seed);
        assert_eq!(a.history, b.history);
        assert_eq!(a.probe_ops, b.probe_ops);
        for cycle in 0..3 {
            assert_eq!(a.churn_cycle(cycle, 8), b.churn_cycle(cycle, 8));
        }
        for client in 0..a.readers {
            assert_eq!(requests(&a, client, 10_000), requests(&b, client, 10_000));
        }
    }
}

#[test]
fn other_seed_other_inputs() {
    for workload in Workload::ALL {
        let (a, b) = (Spec::new(workload, 1), Spec::new(workload, 2));
        assert_ne!(a.catalog_seed, b.catalog_seed);
        assert_ne!(requests(&a, 0, 1_000), requests(&b, 0, 1_000));
    }
    // Readers of one run draw different streams.
    let spec = Spec::new(Workload::HotLocate, 7);
    assert_ne!(requests(&spec, 0, 1_000), requests(&spec, 1, 1_000));
}

#[test]
fn requests_stay_in_catalog_and_walk_prefetches() {
    for workload in Workload::ALL {
        let spec = Spec::new(workload, 9);
        let reqs = requests(&spec, 0, 4_096);
        for r in &reqs {
            assert!(r.object < spec.objects);
            assert!(r.block + r.len <= spec.blocks_per_object);
        }
        if spec.pipeline_depth == 0 {
            // Single-block sessions: 64 contiguous blocks of one object.
            for session in reqs.chunks(64) {
                for (i, r) in session.iter().enumerate() {
                    assert_eq!(
                        (r.object, r.block),
                        (session[0].object, session[0].block + i as u64)
                    );
                }
            }
        } else {
            assert!(reqs.iter().all(|r| r.len == 64));
        }
    }
}

#[test]
fn churn_cycle_stops_at_the_fairness_budget() {
    let spec = Spec::new(Workload::ScaleChurn, 3);
    let ops = spec.churn_cycle(0, spec.initial_disks);
    assert_eq!(ops.len(), 7, "7 budget-safe ops at 8 disks");
    assert!(ops[0].is_addition());
    assert!(ops
        .windows(2)
        .all(|w| w[0].is_addition() != w[1].is_addition()));
}

#[test]
fn oracle_agrees_with_the_engine_through_scaling_and_compaction() {
    let mut spec = Spec::new(Workload::HotLocate, 11);
    spec.objects = 2;
    spec.blocks_per_object = 1_000;
    let mut server =
        CmServer::new(ServerConfig::new(spec.initial_disks).with_catalog_seed(spec.catalog_seed))
            .unwrap();
    for _ in 0..spec.objects {
        server.add_object(spec.blocks_per_object).unwrap();
    }
    for op in &spec.history {
        server.scale_offline(op.clone()).unwrap();
    }
    let mut oracle = Oracle::new(&spec);
    let agree = |server: &CmServer, oracle: &Oracle, state: usize| {
        let s = oracle.states[state];
        assert_eq!(
            (server.engine().epoch(), server.disks().disks()),
            (s.epoch, s.disks)
        );
        for o in 0..spec.objects {
            let blocks: Vec<u64> = (0..spec.blocks_per_object).collect();
            let physical = server.locate_batch(ObjectId(o), &blocks).unwrap();
            for &b in &blocks {
                let logical = server.locate_current(ObjectId(o), b).unwrap().0;
                assert_eq!(logical, oracle.logical(s.generation, s.epoch, o, b));
                assert_eq!(
                    physical[b as usize].0,
                    oracle.physical(s.generation, s.epoch, o, b)
                );
            }
        }
    };
    agree(&server, &oracle, 0);
    for op in spec.probe_ops.clone() {
        server.scale_offline(op.clone()).unwrap();
        let state = oracle.scale(&op);
        agree(&server, &oracle, state);
    }
    server.begin_compaction().unwrap();
    while server.compaction_active() {
        server.tick();
    }
    let state = oracle.compact();
    agree(&server, &oracle, state);
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..].find(']').expect("section closes") + start;
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap().to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .chain(PER_LAYER_TAIL.iter())
        .map(|m| m.0.to_string())
        .collect();
    assert_eq!(section("end_to_end"), e2e);
    assert_eq!(section("per_layer"), layers);
}
