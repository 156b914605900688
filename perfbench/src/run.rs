//! One benchmark run: setups, the measured phase, the operator probes,
//! the correctness checks, and the metrics.

use crate::daemon::{self, Daemon, SetupTiming};
use crate::gen::{Spec, Workload};
use crate::layers;
use crate::load::{self, Control, Failures, Gate, OperatorOut, ReaderOut, Sample, Step};
use crate::oracle::Oracle;
use crate::report::{peak_rss_mib, Metric, Samples, Span, Spans};
use crate::wire_conn::Conn;
use scaddar_core::ScalingOp;
use scaddar_obs::RegistrySnapshot;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Load before recording starts (connections, caches, reactor warm).
const WARMUP: Duration = Duration::from_millis(300);

/// Small catalogs set up in milliseconds, so runs add timing-only
/// setups until they add up to `SETUP_BUDGET_S` (at most `MAX_SETUPS`
/// in all); `setup_s` is the median.
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Daemons (each set up afresh) a run's measurement is split over;
/// traced runs spend half of them untraced.
const SEGMENTS: usize = 5;

/// Seconds of run length per scale-churn cycle: a run scripts a fixed
/// number of whole cycles (about 0.5 s each on the reference host), so
/// every run of one length does the same work.
const CHURN_CYCLE_S: f64 = 0.5;

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("locate_p50_us", "us"),
    ("locate_p99_us", "us"),
    ("locate_rps", "1/s"),
    ("blocks_per_s", "1/s"),
    ("window_p50_us", "us"),
    ("window_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("control.scale_ack_ms", "ms"),
    ("control.reorg_moves_per_s", "1/s"),
    ("control.compact_moves_per_s", "1/s"),
    ("net.ping_rtt_us", "us"),
    ("net.unexplained_ns", "ns"),
    ("net.wire.encode_ns", "ns"),
    ("net.wire.decode_ns", "ns"),
    ("net.wire.bytes_per_block", "count"),
    ("net.reactor.decode_ns", "ns"),
    ("net.reactor.decode_p50_ns", "ns"),
    ("net.reactor.coalesce_wait_ns", "ns"),
    ("net.reactor.coalesce_wait_p50_ns", "ns"),
    ("net.reactor.lock_wait_ns", "ns"),
    ("net.reactor.lock_wait_p50_ns", "ns"),
    ("net.reactor.engine_ns", "ns"),
    ("net.reactor.engine_p50_ns", "ns"),
    ("net.reactor.encode_ns", "ns"),
    ("net.reactor.encode_p50_ns", "ns"),
    ("net.reactor.write_flush_ns", "ns"),
    ("net.reactor.write_flush_p50_ns", "ns"),
    ("net.reactor.requests", "count"),
    ("net.reactor.errors", "count"),
    ("cmsim.shared.locate_ns", "ns"),
    ("cmsim.shared.locate_batch_ns_per_block", "ns"),
    ("cmsim.server.scale_ms", "ms"),
    ("cmsim.server.tick_us", "us"),
    ("cmsim.server.moves_per_tick", "count"),
    ("cmsim.server.move_scan_ratio", "ratio"),
    ("cmsim.server.moved_vs_optimal", "ratio"),
    ("core.locate_ns", "ns"),
    ("core.scale_ms", "ms"),
    ("core.xcache_hit_ratio", "ratio"),
    ("core.pipeline.fold_ns", "ns"),
    ("prng.x0_ns", "ns"),
    ("compact.begin_ms", "ms"),
    ("compact.moved_fraction", "ratio"),
];

/// Extra per-layer rows that close the setup and tracing accounts.
pub const PER_LAYER_TAIL: [(&str, &str); 3] = [
    ("cmsim.server.add_object_s", "s"),
    ("net.server.bind_ms", "ms"),
    ("trace_overhead", "ratio"),
];

/// The outcome of one run.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable detail lines.
    pub notes: Vec<String>,
}

/// What the measured phase produced.
struct Phase {
    readers: Vec<ReaderOut>,
    operator: Option<OperatorOut>,
    failures: Failures,
    samples: Vec<Sample>,
    rtt_ns: Samples,
    window_ns: Samples,
    /// `VmHWM` when the load threads have joined, before their buffers
    /// are merged.
    peak_rss_mb: f64,
}

impl Phase {
    fn locate_rps(&self) -> f64 {
        self.readers.iter().map(|r| r.rate(r.requests)).sum()
    }

    fn blocks_per_s(&self) -> f64 {
        self.readers.iter().map(|r| r.rate(r.blocks)).sum()
    }
}

/// The scale-churn operator's script: whole cycles of budget-safe ops,
/// each ending in a compaction.
fn churn_plan(spec: &Spec, oracle: &mut Oracle, cycles: u64) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut disks = spec.initial_disks;
    for cycle in 0..cycles {
        for op in spec.churn_cycle(cycle, disks) {
            let state = oracle.scale(&op);
            steps.push(Step::Scale { op, state });
        }
        let state = oracle.compact();
        steps.push(Step::Compact { state });
        disks = oracle.states[state].disks;
    }
    steps
}

/// The measured phase on `daemon`: readers for `seconds` (scale-churn:
/// beside the operator's `seconds / CHURN_CYCLE_S` whole cycles).
fn measured_phase(spec: &Spec, daemon: &Daemon, seconds: f64, traced: bool) -> Phase {
    let mut oracle = Oracle::new(spec);
    let steps = match spec.workload {
        Workload::ScaleChurn => {
            let cycles = ((seconds / CHURN_CYCLE_S).round() as u64).max(1);
            churn_plan(spec, &mut oracle, cycles)
        }
        _ => Vec::new(),
    };
    let gate = Gate::at(0);
    let ctl = Control::default();
    let addr = daemon.addr();
    // Connect in a fixed order, so reader `i` is always served by
    // reactor worker `i` (round-robin accept), and pin reader `i` to the
    // CPU that worker is pinned to; the operator connects last.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns: Vec<Option<Conn>> = (0..spec.readers)
        .map(|_| Conn::connect(addr).ok())
        .collect();
    let (readers, operator) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(client, conn)| {
                let (oracle, gate, ctl) = (&oracle, &gate, &ctl);
                scope.spawn(move || {
                    load::reader(spec, client, conn, client % cpus, oracle, gate, ctl, traced)
                })
            })
            .collect();
        std::thread::sleep(WARMUP);
        ctl.recording.store(true, Ordering::SeqCst);
        let operator = if steps.is_empty() {
            std::thread::sleep(Duration::from_secs_f64(seconds));
            None
        } else {
            let total = spec.total_blocks();
            Some(load::on_cpu(spec.readers % cpus, || {
                load::operator(addr, &steps, &oracle, &gate, total, None)
            }))
        };
        ctl.stop.store(true, Ordering::SeqCst);
        let readers: Vec<ReaderOut> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (readers, operator)
    });
    let peak_rss_mb = peak_rss_mib();
    let mut failures = Failures::default();
    let mut samples = Vec::new();
    let mut rtt_ns = Samples::default();
    let mut window_ns = Samples::default();
    for r in &readers {
        failures.absorb(&r.failures);
        samples.extend(r.samples.iter().cloned());
        rtt_ns.0.extend(r.rtt_ns.iter().map(|&ns| f64::from(ns)));
        window_ns
            .0
            .extend(r.window_ns.iter().map(|&ns| f64::from(ns)));
    }
    rtt_ns.sort();
    window_ns.sort();
    failures.oracle += load::check_samples(&oracle, &samples);
    if let Some(op) = &operator {
        // After the last flip, every sampled block must answer from the
        // new generation.
        if let Some(state) = op.last_flip {
            load::recheck_samples(addr, &oracle, state, &samples, &mut failures);
        }
    }
    Phase {
        readers,
        operator,
        failures,
        samples,
        rtt_ns,
        window_ns,
        peak_rss_mb,
    }
}

/// The workload's probe on a daemon after its measured phase (the reads
/// leave the setup state untouched): the scaling ops, drained or ticked
/// until the cap; or one `Compact`, to the flip or the cap, after which
/// every sampled block is asked again and checked against the new
/// generation.
fn probe(
    spec: &Spec,
    daemon: &Daemon,
    compact: bool,
    samples: &[Sample],
    failures: &mut Failures,
) -> OperatorOut {
    let mut oracle = Oracle::new(spec);
    let steps: Vec<Step> = if compact {
        vec![Step::Compact {
            state: oracle.compact(),
        }]
    } else {
        spec.probe_ops
            .iter()
            .map(|op| Step::Scale {
                op: op.clone(),
                state: oracle.scale(op),
            })
            .collect()
    };
    let cap = Duration::from_secs_f64(spec.probe_drain_cap_s);
    // The readers held workers 0..readers; the operator's connection
    // lands on the next worker, so it sits on that worker's CPU.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = load::on_cpu(spec.readers % cpus, || {
        load::operator(
            daemon.addr(),
            &steps,
            &oracle,
            &Gate::at(0),
            spec.total_blocks(),
            Some(cap),
        )
    });
    if let Some(state) = out.last_flip {
        load::recheck_samples(daemon.addr(), &oracle, state, samples, failures);
    }
    out
}

fn scrape_stats(daemon: &Daemon) -> Option<RegistrySnapshot> {
    load::operator_client(daemon.addr())
        .scrape_stats()
        .ok()
        .map(|(_, _, snapshot)| snapshot)
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut s = Samples(values.into_iter().filter(|v| v.is_finite()).collect());
    s.sort();
    s.median()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

/// Checks every compaction's queued fraction against `1 − 1/N` within
/// six binomial standard deviations.
fn moved_fraction_ok(out: &OperatorOut, notes: &mut Vec<String>) -> bool {
    out.compact_fraction.iter().all(|&(got, expected, total)| {
        let sigma = (expected * (1.0 - expected) / total as f64).sqrt();
        let ok = (got - expected).abs() <= 6.0 * sigma;
        notes.push(format!(
            "compact moved fraction {got:.5} vs 1-1/N {expected:.5} (6 sigma {:.5}) {}",
            6.0 * sigma,
            if ok { "ok" } else { "OUT OF BOUND" }
        ));
        ok
    })
}

/// One segment: a fresh daemon, its measured phase, then (read-only
/// workloads) its probe.
struct Segment {
    setup: SetupTiming,
    phase: Phase,
    /// The scale-churn operator, or the probe.
    operator: OperatorOut,
}

/// Everything a run measured, over all its segments.
struct Run {
    segments: Vec<Segment>,
    /// Setups beyond the segments' own (small catalogs only).
    extra_setups: Vec<SetupTiming>,
    failures: Failures,
    samples: Vec<Sample>,
}

impl Run {
    fn setups(&self) -> impl Iterator<Item = &SetupTiming> {
        self.segments
            .iter()
            .map(|s| &s.setup)
            .chain(&self.extra_setups)
    }

    fn operators(&self) -> impl Iterator<Item = &OperatorOut> {
        self.segments.iter().map(|s| &s.operator)
    }

    /// The median over segments of a per-segment figure.
    fn per_segment(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        median_of(self.segments.iter().map(f))
    }

    fn pooled(&self, samples: impl Fn(&OperatorOut) -> &Samples) -> Samples {
        let mut all = Samples(
            self.operators()
                .flat_map(|o| samples(o).0.iter().copied())
                .collect(),
        );
        all.sort();
        all
    }
}

/// Runs `segments` segments of `seconds` each. Splitting a run across
/// fresh daemons and reporting the median segment damps the large
/// daemon-to-daemon swings of a shared 2-core host. `inspect` sees the
/// last segment's daemon right after its measured phase; traced runs
/// then probe the control plane.
fn run_segments<T>(
    spec: &Spec,
    segments: usize,
    seconds: f64,
    mask: Option<u64>,
    traced: bool,
    mut inspect: impl FnMut(&Daemon, &Phase) -> T,
) -> (Run, Option<T>, Option<RegistrySnapshot>) {
    let mut run = Run {
        segments: Vec::new(),
        extra_setups: Vec::new(),
        failures: Failures::default(),
        samples: Vec::new(),
    };
    let mut inspected = None;
    let mut control_scrape = None;
    for k in 0..segments {
        let last = k + 1 == segments;
        let (daemon, setup) = daemon::setup(spec, mask);
        let mut phase = measured_phase(spec, &daemon, seconds, traced && last);
        if last {
            inspected = Some(inspect(&daemon, &phase));
        }
        let operator = match phase.operator.take() {
            Some(op) => op,
            // Traced runs alternate the probes; the last segment scales,
            // so the final scrape carries scaling and tick telemetry.
            None if traced => probe(
                spec,
                &daemon,
                (segments - k).is_multiple_of(2),
                &phase.samples,
                &mut phase.failures,
            ),
            None => OperatorOut::default(),
        };
        if last && traced {
            control_scrape = scrape_stats(&daemon);
        }
        daemon.shutdown();
        run.failures.absorb(&phase.failures);
        run.failures.absorb(&operator.failures);
        run.samples.extend(phase.samples.iter().cloned());
        run.segments.push(Segment {
            setup,
            phase,
            operator,
        });
    }
    while run.extra_setups.len() + run.segments.len() < MAX_SETUPS
        && run.setups().map(|t| t.total_s).sum::<f64>() < SETUP_BUDGET_S
    {
        let (d, t) = daemon::setup(spec, mask);
        d.shutdown();
        run.extra_setups.push(t);
    }
    (run, inspected, control_scrape)
}

fn failures_note(f: &Failures) -> String {
    format!(
        "failures: attempted {} failed {} (io {}, protocol {}, error frames {}, torn epochs {}, oracle mismatches {}); error_rate {:.6}",
        f.attempted,
        f.failed(),
        f.io,
        f.protocol,
        f.error_frames,
        f.torn,
        f.oracle,
        ratio(f.failed() as f64, f.attempted as f64)
    )
}

/// Picks one of an operator's sample sets.
type SamplesOf = fn(&OperatorOut) -> &Samples;

/// Checks and notes shared by both modes; returns whether the run's own
/// checks (sample size, moved fractions) passed.
fn common_notes(run: &Run, notes: &mut Vec<String>) -> bool {
    let mut ok = run.samples.len() >= 1000;
    for out in run.operators() {
        ok &= moved_fraction_ok(out, notes);
    }
    for (k, s) in run.segments.iter().enumerate() {
        notes.push(format!(
            "segment {k}: setup {:.4} s, locate {}, window {}, {:.0} req/s",
            s.setup.total_s,
            s.phase.rtt_ns.describe("ns"),
            s.phase.window_ns.describe("ns"),
            s.phase.locate_rps()
        ));
    }
    let control: [(&str, &str, SamplesOf); 5] = [
        ("scale ack", "ms", |o| &o.scale_ack_ms),
        ("reorganisation moves/s per tick", "1/s", |o| {
            &o.reorg_tick_rate
        }),
        ("compaction moves/s per tick", "1/s", |o| {
            &o.compact_tick_rate
        }),
        ("reorg (Scaled -> backlog 0)", "s", |o| &o.reorg_s),
        ("compaction (Compact -> flip)", "s", |o| &o.compact_s),
    ];
    for (label, unit, samples) in control {
        let pooled = run.pooled(samples);
        if !pooled.is_empty() {
            notes.push(format!("{label}: {}", pooled.describe(unit)));
        }
    }
    notes.push(format!(
        "setup: {} s over {} setups",
        run.setups()
            .map(|t| format!("{:.4}", t.total_s))
            .collect::<Vec<_>>()
            .join(", "),
        run.setups().count()
    ));
    notes.push(format!("oracle sample: {} replies", run.samples.len()));
    notes.push(failures_note(&run.failures));
    if !ok {
        notes.push("a correctness check failed (sample size or moved fraction)".into());
    }
    ok
}

/// The untraced run: every end-to-end metric, each the median over the
/// run's segments.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let spec = Spec::new(workload, seed);
    let (run, _, _) = run_segments(
        &spec,
        SEGMENTS,
        seconds / SEGMENTS as f64,
        None,
        false,
        |_, _| (),
    );
    let mut notes = Vec::new();
    let checks_ok = common_notes(&run, &mut notes);
    let values = [
        median_of(run.setups().map(|t| t.total_s)),
        run.per_segment(|s| s.phase.rtt_ns.median() / 1e3),
        run.per_segment(|s| s.phase.rtt_ns.quantile(0.99) / 1e3),
        run.per_segment(|s| s.phase.locate_rps()),
        run.per_segment(|s| s.phase.blocks_per_s()),
        run.per_segment(|s| s.phase.window_ns.median() / 1e3),
        run.per_segment(|s| s.phase.window_ns.quantile(0.99) / 1e3),
        run.segments[0].phase.peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    finish(run.failures, checks_ok, metrics, notes)
}

fn finish(
    failures: Failures,
    checks_ok: bool,
    metrics: Vec<Metric>,
    mut notes: Vec<String>,
) -> Outcome {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        let missing: Vec<&str> = metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        notes.push(format!("not measured: {}", missing.join(", ")));
    }
    Outcome {
        correct: failures.failed() == 0 && finite && checks_ok,
        attempted: failures.attempted.max(1),
        failed: failures.failed(),
        metrics,
        notes,
    }
}

/// Converts the traced readers' request and window spans.
fn reader_spans(phase: &Phase, spans: &mut Spans) {
    for (client, r) in phase.readers.iter().enumerate() {
        let base = (client as u64) << 40;
        for &(id, start, end) in &r.window_spans {
            spans.record(Span {
                id: base | id,
                name: "net.client.window",
                parent: "",
                start_ns: spans.at(start),
                end_ns: spans.at(end),
                calls: 1,
            });
        }
        for &(id, start, end) in &r.request_spans {
            spans.record(Span {
                id: base | id,
                name: "net.client.request",
                parent: "net.client.window",
                start_ns: spans.at(start),
                end_ns: spans.at(end),
                calls: 1,
            });
        }
    }
}

/// The traced run: half the time untraced (the overhead baseline), half
/// against daemons timing every request's phases; the last traced
/// segment's daemon is then pinged, scraped and replayed through each
/// layer. Prints every per-layer metric.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
) -> Outcome {
    let spec = Spec::new(workload, seed);
    let segments = SEGMENTS / 2;
    let slice = seconds / (2 * segments) as f64;
    let mut notes = Vec::new();
    let mut spans = Spans::new();
    let (baseline, _, _) = run_segments(&spec, segments, slice, None, false, |_, _| ());
    let core_op = spec
        .probe_ops
        .first()
        .cloned()
        .unwrap_or_else(ScalingOp::add_one);
    let (run, inspected, control_scrape) =
        run_segments(&spec, segments, slice, Some(0), true, |daemon, phase| {
            reader_spans(phase, &mut spans);
            let ping_us = layers::ping_rtt_us(daemon.addr(), 2000);
            let snapshot = scrape_stats(daemon).unwrap_or_default();
            let replay = layers::replay(&spec, &daemon.shared, 1 << 17, &core_op, &mut spans);
            let codec = layers::codec(&spec, &phase.samples, &mut spans);
            (ping_us, snapshot, replay, codec, phase.rtt_ns.mean())
        });
    let (ping_us, snapshot, replay, codec, client_mean) = inspected.expect("at least one segment");
    // Control-plane telemetry: the last segment's probe daemon, or the
    // scale-churn daemon's own registry.
    let control_snapshot = control_scrape.unwrap_or_else(|| snapshot.clone());
    let mut checks_ok = common_notes(&run, &mut notes);
    checks_ok &= baseline.failures.failed() == 0;

    let mut phase_means = 0.0;
    let mut phase_values = Vec::new();
    for label in layers::PHASES {
        let (p50, mean, count) = layers::phase(&snapshot, label);
        notes.push(format!(
            "reactor phase {label}: mean {mean:.1} ns, p50 {p50:.0} ns (n={count})"
        ));
        phase_means += mean;
        phase_values.push(mean);
        phase_values.push(p50);
    }
    let unexplained = client_mean - phase_means;
    notes.push(format!(
        "client request mean {client_mean:.1} ns = phase means {phase_means:.1} ns + unexplained {unexplained:.1} ns"
    ));
    let sum = |f: fn(&OperatorOut) -> f64| run.operators().map(f).sum::<f64>();
    let rounds = sum(|o| o.rounds as f64);
    let examined = sum(|o| o.examined as f64);
    let moves = sum(|o| (o.reorg_moves + o.compact_moves) as f64);
    let queued = sum(|o| o.queued as f64);
    let optimal = sum(|o| o.optimal);
    let begin = run.pooled(|o| &o.compact_begin_ms);
    let fraction = median_of(
        run.operators()
            .flat_map(|o| o.compact_fraction.iter().map(|f| f.0)),
    );
    let xcache_hits = layers::counter_sum(&snapshot, "scaddar_core_xcache_hits_total");
    let xcache_misses = layers::counter_sum(&snapshot, "scaddar_core_xcache_misses_total");
    let xcache_hit_ratio = if xcache_hits + xcache_misses > 0 {
        xcache_hits as f64 / (xcache_hits + xcache_misses) as f64
    } else {
        notes.push("core.xcache_hit_ratio: daemon exports no X-cache counters; measured on the replay engine".into());
        replay.xcache_hit_ratio
    };
    // trace_overhead: the headline metric's traced cost over its
    // untraced cost (> 1 means tracing slows the headline).
    let overhead = match workload {
        Workload::ColdBatch => ratio(
            baseline.per_segment(|s| s.phase.blocks_per_s()),
            run.per_segment(|s| s.phase.blocks_per_s()),
        ),
        _ => ratio(
            run.per_segment(|s| s.phase.rtt_ns.median()),
            baseline.per_segment(|s| s.phase.rtt_ns.median()),
        ),
    };
    let mut values = vec![
        run.pooled(|o| &o.scale_ack_ms).median(),
        run.pooled(|o| &o.reorg_tick_rate).median(),
        run.pooled(|o| &o.compact_tick_rate).median(),
        ping_us,
        unexplained,
        codec.encode_ns,
        codec.decode_ns,
        codec.bytes_per_block,
    ];
    values.extend(phase_values);
    values.extend([
        layers::counter_sum(&snapshot, "net_server_requests_total") as f64,
        layers::counter_sum(&snapshot, "net_server_errors_total") as f64,
        replay.shared_locate_ns,
        replay.shared_batch_ns_per_block,
        layers::hist_mean(&control_snapshot, "cmsim_server_scale_ns") / 1e6,
        layers::hist_mean(&control_snapshot, "cmsim_server_tick_ns") / 1e3,
        ratio(moves, rounds),
        ratio(moves, examined),
        ratio(queued, optimal),
        replay.core_locate_ns,
        replay.core_scale_ms,
        xcache_hit_ratio,
        replay.fold_ns,
        replay.x0_ns,
        begin.median(),
        fraction,
        median_of(
            run.setups()
                .chain(baseline.setups())
                .map(|t| t.add_object_s),
        ),
        median_of(run.setups().chain(baseline.setups()).map(|t| t.bind_ms)),
        overhead,
    ]);
    for (name, per_call) in spans.self_ns_per_call() {
        notes.push(format!("span self time {name}: {per_call:.1} ns per call"));
    }
    notes.push(format!(
        "cmsim.shared self time (locate minus core.locate): {:.1} ns per call",
        replay.shared_locate_ns - replay.core_locate_ns
    ));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"host\":\"{}\"}}",
        workload.name(),
        crate::report::host_facts()
    );
    match spans.write_jsonl(spans_path, &header) {
        Ok(()) => notes.push(format!(
            "spans: {} written to {}",
            spans.spans.len(),
            spans_path.display()
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    let metrics = PER_LAYER
        .iter()
        .chain(PER_LAYER_TAIL.iter())
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let mut failures = run.failures;
    failures.absorb(&baseline.failures);
    finish(failures, checks_ok, metrics, notes)
}
