//! The closed-loop load: reader connections (single `Locate`s or
//! pipelined `LocateBatch` windows) and the operator connection that
//! commits scaling ops, drains them and compacts.

use crate::gen::{sampled, Spec, PREFETCH_BLOCKS};
use crate::oracle::Oracle;
use crate::report::Samples;
use crate::wire_conn::{Conn, Failure};
use scaddar_core::ScalingOp;
use scaddar_net::{ClientConfig, ClientError, Frame, NetClient};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The serving states a reply may legitimately carry: `lo` is the
/// oldest state possibly still served, `hi` the newest possibly served.
/// The operator raises `hi` before a change and `lo` after the daemon
/// acknowledged it.
#[derive(Default)]
pub struct Gate {
    lo: AtomicUsize,
    hi: AtomicUsize,
}

impl Gate {
    /// A gate pinned at state `s`.
    pub fn at(s: usize) -> Gate {
        Gate {
            lo: AtomicUsize::new(s),
            hi: AtomicUsize::new(s),
        }
    }

    fn lo(&self) -> usize {
        self.lo.load(Ordering::SeqCst)
    }

    fn hi(&self) -> usize {
        self.hi.load(Ordering::SeqCst)
    }

    fn open(&self, s: usize) {
        self.hi.store(s, Ordering::SeqCst);
    }

    fn close(&self, s: usize) {
        self.lo.store(s, Ordering::SeqCst);
    }
}

/// Run control shared by the load threads.
#[derive(Default)]
pub struct Control {
    /// Readers record samples while set.
    pub recording: AtomicBool,
    /// Readers finish their window and exit once set.
    pub stop: AtomicBool,
}

/// One sampled reply, checked against the oracle after the run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// States live between send and receive.
    pub lo: usize,
    /// See `lo`.
    pub hi: usize,
    /// Reply epoch.
    pub epoch: u64,
    /// Reply disk count.
    pub disks: u32,
    /// Object asked for.
    pub object: u64,
    /// First block asked for.
    pub block: u64,
    /// One answer per block (logical for `Locate`, physical for
    /// `LocateBatch`, as the wire carries them).
    pub answers: Vec<u64>,
}

impl Sample {
    /// True when batch answers are physical disk ids.
    pub fn physical(&self) -> bool {
        self.answers.len() > 1
    }
}

/// Failure counts by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Requests sent.
    pub attempted: u64,
    /// Socket failures.
    pub io: u64,
    /// Protocol failures.
    pub protocol: u64,
    /// `Error` frames.
    pub error_frames: u64,
    /// Torn epochs.
    pub torn: u64,
    /// Oracle mismatches.
    pub oracle: u64,
}

impl Failures {
    /// Counts one failure.
    pub fn count(&mut self, f: Failure) {
        match f {
            Failure::Io => self.io += 1,
            Failure::Protocol => self.protocol += 1,
            Failure::ErrorFrame => self.error_frames += 1,
            Failure::TornEpoch => self.torn += 1,
            Failure::Oracle => self.oracle += 1,
        }
    }

    /// All failures.
    pub fn failed(&self) -> u64 {
        self.io + self.protocol + self.error_frames + self.torn + self.oracle
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &Failures) {
        self.attempted += other.attempted;
        self.io += other.io;
        self.protocol += other.protocol;
        self.error_frames += other.error_frames;
        self.torn += other.torn;
        self.oracle += other.oracle;
    }
}

/// Traced runs keep the spans of one window in `SPAN_EVERY`.
const SPAN_EVERY: u64 = 64;

/// Oracle samples kept per reader (the first ones drawn).
const MAX_SAMPLES: usize = 4096;

/// What one reader measured. Latencies are raw `u32` nanoseconds in
/// buffers reserved up front, so the benchmark's own memory grows
/// linearly and stays small against the daemon's (`peak_rss_mb`).
#[derive(Debug, Default)]
pub struct ReaderOut {
    /// Per-request round trips, ns (pipelined requests: from the
    /// window's write to the request's reply).
    pub rtt_ns: Vec<u32>,
    /// Per-window wall time, ns.
    pub window_ns: Vec<u32>,
    /// Requests completed while recording.
    pub requests: u64,
    /// Blocks located while recording.
    pub blocks: u64,
    /// First recorded window start.
    pub first: Option<Instant>,
    /// Last recorded window end.
    pub last: Option<Instant>,
    /// Failure counts.
    pub failures: Failures,
    /// Oracle sample.
    pub samples: Vec<Sample>,
    /// `(window id, request start, request end)` per request of every
    /// `SPAN_EVERY`-th recorded window, traced runs only.
    pub request_spans: Vec<(u64, Instant, Instant)>,
    /// `(window id, start, end)` per spanned window, traced runs only.
    pub window_spans: Vec<(u64, Instant, Instant)>,
}

impl ReaderOut {
    /// Completed requests per second over this reader's recorded span.
    pub fn rate(&self, count: u64) -> f64 {
        match (self.first, self.last) {
            (Some(a), Some(b)) if b > a => count as f64 / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

fn nanos(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// One reader: a closed loop of windows until `ctl.stop`, on `conn`,
/// pinned to `cpu`. A window is one 64-block prefetch: 64 sequential
/// `Locate`s, or `pipeline_depth` `LocateBatch`es written at once and
/// read back in order.
#[allow(clippy::too_many_arguments)]
pub fn reader(
    spec: &Spec,
    client: usize,
    conn: Option<Conn>,
    cpu: usize,
    oracle: &Oracle,
    gate: &Gate,
    ctl: &Control,
    traced: bool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let Some(mut conn) = conn else {
        out.failures.attempted += 1;
        out.failures.io += 1;
        return out;
    };
    let _ = polling::pin_current_thread_to_cpu(cpu);
    out.rtt_ns.reserve(1 << 23);
    out.window_ns.reserve(1 << 21);
    out.samples.reserve(MAX_SAMPLES);
    let mut stream = spec.requests(client);
    let depth = if spec.pipeline_depth == 0 {
        PREFETCH_BLOCKS as usize
    } else {
        spec.pipeline_depth
    };
    let batched = spec.pipeline_depth > 0;
    let mut frames = Vec::with_capacity(depth);
    let mut asked = Vec::with_capacity(depth);
    let mut index = 0u64;
    let mut window_id = 0u64;
    while !ctl.stop.load(Ordering::SeqCst) {
        let recording = ctl.recording.load(Ordering::SeqCst);
        let spanned = traced && recording && window_id.is_multiple_of(SPAN_EVERY);
        let window_start = Instant::now();
        let mut window_ok = true;
        if batched {
            frames.clear();
            asked.clear();
            for req in stream.by_ref().take(depth) {
                asked.push(req);
                frames.push(Frame::LocateBatch {
                    object: req.object,
                    blocks: (req.block..req.block + req.len).collect(),
                });
            }
            let lo = gate.lo();
            out.failures.attempted += depth as u64;
            if conn.send(&frames).is_err() {
                out.failures.io += depth as u64;
                break;
            }
            for req in &asked {
                let reply = conn.recv();
                let done = Instant::now();
                let ok = check_reply(
                    reply, req.object, req.block, req.len, lo, gate, oracle, client, index, spec,
                    &mut out,
                );
                if ok && recording {
                    out.rtt_ns.push(nanos(done - window_start));
                    out.requests += 1;
                    out.blocks += req.len;
                    if spanned {
                        out.request_spans.push((window_id, window_start, done));
                    }
                }
                window_ok &= ok;
                index += 1;
                if out.failures.io + out.failures.protocol > 0 {
                    break;
                }
            }
        } else {
            for req in stream.by_ref().take(depth) {
                let lo = gate.lo();
                let start = Instant::now();
                out.failures.attempted += 1;
                let reply = conn
                    .send(&[Frame::Locate {
                        object: req.object,
                        block: req.block,
                    }])
                    .and_then(|()| conn.recv());
                let done = Instant::now();
                let ok = check_reply(
                    reply, req.object, req.block, 1, lo, gate, oracle, client, index, spec,
                    &mut out,
                );
                if ok && recording {
                    out.rtt_ns.push(nanos(done - start));
                    out.requests += 1;
                    out.blocks += 1;
                    if spanned {
                        out.request_spans.push((window_id, start, done));
                    }
                }
                window_ok &= ok;
                index += 1;
                if out.failures.io + out.failures.protocol > 0 {
                    break;
                }
            }
        }
        if out.failures.io + out.failures.protocol > 0 {
            break;
        }
        let window_end = Instant::now();
        if recording && window_ok {
            out.window_ns.push(nanos(window_end - window_start));
            out.first.get_or_insert(window_start);
            out.last = Some(window_end);
            if spanned {
                out.window_spans.push((window_id, window_start, window_end));
            }
        }
        window_id += 1;
    }
    out
}

/// Checks one reply: frame type, length, epoch consistency against the
/// states live since the request was sent; keeps it if sampled.
#[allow(clippy::too_many_arguments)]
fn check_reply(
    reply: Result<Frame, Failure>,
    object: u64,
    block: u64,
    len: u64,
    lo: usize,
    gate: &Gate,
    oracle: &Oracle,
    client: usize,
    index: u64,
    spec: &Spec,
    out: &mut ReaderOut,
) -> bool {
    let hi = gate.hi();
    let (epoch, disks, answers) = match reply {
        Ok(Frame::Located { epoch, disks, disk }) if len == 1 => (epoch, disks, vec![disk]),
        Ok(Frame::BatchLocated {
            epoch,
            disks,
            locations,
        }) if locations.len() as u64 == len && len > 1 => (epoch, disks, locations),
        Ok(_) => {
            out.failures.count(Failure::Protocol);
            return false;
        }
        Err(f) => {
            out.failures.count(f);
            return false;
        }
    };
    if !oracle.consistent(lo, hi, epoch, disks) {
        out.failures.count(Failure::TornEpoch);
        return false;
    }
    if out.samples.len() < MAX_SAMPLES && sampled(spec.seed, client, index, spec.sample_every) {
        out.samples.push(Sample {
            lo,
            hi,
            epoch,
            disks,
            object,
            block,
            answers,
        });
    }
    true
}

/// Checks every sampled reply against the oracle; returns mismatches.
pub fn check_samples(oracle: &Oracle, samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| {
            !s.answers.iter().enumerate().all(|(i, &answer)| {
                oracle.check(
                    s.lo,
                    s.hi,
                    s.epoch,
                    s.disks,
                    s.object,
                    s.block + i as u64,
                    answer,
                    s.physical(),
                )
            })
        })
        .count() as u64
}

/// Re-sends every sampled request to `addr` and checks the answers
/// against oracle state `state` (used after a generation flip).
pub fn recheck_samples(
    addr: SocketAddr,
    oracle: &Oracle,
    state: usize,
    samples: &[Sample],
    failures: &mut Failures,
) {
    let Ok(mut conn) = Conn::connect(addr) else {
        failures.attempted += 1;
        failures.io += 1;
        return;
    };
    for s in samples {
        failures.attempted += 1;
        let frame = if s.physical() {
            Frame::LocateBatch {
                object: s.object,
                blocks: (s.block..s.block + s.answers.len() as u64).collect(),
            }
        } else {
            Frame::Locate {
                object: s.object,
                block: s.block,
            }
        };
        let reply = conn.send(&[frame]).and_then(|()| conn.recv());
        let (epoch, disks, answers) = match reply {
            Ok(Frame::Located { epoch, disks, disk }) => (epoch, disks, vec![disk]),
            Ok(Frame::BatchLocated {
                epoch,
                disks,
                locations,
            }) => (epoch, disks, locations),
            Ok(_) => {
                failures.protocol += 1;
                continue;
            }
            Err(f) => {
                failures.count(f);
                if f == Failure::Io {
                    return;
                }
                continue;
            }
        };
        if !oracle.consistent(state, state, epoch, disks) {
            failures.torn += 1;
            continue;
        }
        let ok = answers.len() == s.answers.len()
            && answers.iter().enumerate().all(|(i, &a)| {
                oracle.check(
                    state,
                    state,
                    epoch,
                    disks,
                    s.object,
                    s.block + i as u64,
                    a,
                    s.physical(),
                )
            });
        if !ok {
            failures.oracle += 1;
        }
    }
}

/// One step of the operator's script.
#[derive(Debug, Clone)]
pub enum Step {
    /// Commit `op`, which moves the daemon to oracle state `state`;
    /// then tick until the backlog drains (or the cap passes).
    Scale {
        /// The op.
        op: ScalingOp,
        /// Oracle state after the op.
        state: usize,
    },
    /// `Compact`, then tick until the generation flips (or the cap
    /// passes); `state` is the flipped state.
    Compact {
        /// Oracle state after the flip.
        state: usize,
    },
}

/// What the operator measured.
#[derive(Debug, Default)]
pub struct OperatorOut {
    /// `Scale` sent → `Scaled` received, ms.
    pub scale_ack_ms: Samples,
    /// `Scaled` received → backlog 0, s (drained ops only).
    pub reorg_s: Samples,
    /// `Compact` sent → generation flipped, s (flipped only).
    pub compact_s: Samples,
    /// `Compact` sent → first `CompactStatus`, ms.
    pub compact_begin_ms: Samples,
    /// Moves executed while draining scaling ops.
    pub reorg_moves: u64,
    /// Per `Tick` while draining scaling ops: moves ÷ client-observed
    /// round trip, moves/s.
    pub reorg_tick_rate: Samples,
    /// Moves executed while migrating a compaction.
    pub compact_moves: u64,
    /// Per `Tick` while migrating a compaction, moves/s.
    pub compact_tick_rate: Samples,
    /// Service rounds ticked.
    pub rounds: u64,
    /// Pending moves examined (backlog before each round).
    pub examined: u64,
    /// Moves queued by scaling ops.
    pub queued: u64,
    /// `z_j · B` summed over the same ops.
    pub optimal: f64,
    /// `(queued ÷ total, 1 − 1/N, total)` per compaction.
    pub compact_fraction: Vec<(f64, f64, u64)>,
    /// The oracle state of the last flip, if any.
    pub last_flip: Option<usize>,
    /// Failure counts.
    pub failures: Failures,
}

/// A `NetClient` for the operator: no retries (mutations must not be
/// replayed) and no keepalive probes (the daemon receives only the
/// generated frames).
pub fn operator_client(addr: SocketAddr) -> NetClient {
    NetClient::with_config(
        addr,
        ClientConfig {
            request_timeout: Duration::from_secs(120),
            retries: 0,
            idle_probe_after: None,
            ..ClientConfig::default()
        },
    )
}

fn client_failure(e: &ClientError) -> Failure {
    match e {
        ClientError::Remote { .. } => Failure::ErrorFrame,
        ClientError::Frame(_) | ClientError::UnexpectedResponse { .. } => Failure::Protocol,
        ClientError::Io(_) | ClientError::DeadlineExceeded => Failure::Io,
    }
}

/// Runs `f` on a scoped thread pinned (best effort) to `cpu`. Load
/// threads sit on the CPU of the reactor worker that serves their
/// connection (workers are pinned and take connections round-robin),
/// so placement, and with it the numbers, repeats from run to run.
pub fn on_cpu<R: Send>(cpu: usize, f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = polling::pin_current_thread_to_cpu(cpu);
            f()
        })
        .join()
        .expect("load thread panicked")
    })
}

/// Runs the operator script. `cap` bounds the ticking after each step
/// (`None` drains fully). Returns early on a failure.
pub fn operator(
    addr: SocketAddr,
    steps: &[Step],
    oracle: &Oracle,
    gate: &Gate,
    total_blocks: u64,
    cap: Option<Duration>,
) -> OperatorOut {
    let client = operator_client(addr);
    let mut out = OperatorOut::default();
    for step in steps {
        let result = match step {
            Step::Scale { op, state } => scale_step(
                &client,
                op,
                *state,
                oracle,
                gate,
                total_blocks,
                cap,
                &mut out,
            ),
            Step::Compact { state } => compact_step(&client, *state, oracle, gate, cap, &mut out),
        };
        if let Err(f) = result {
            out.failures.count(f);
            return out;
        }
    }
    out
}

/// Ticks one round at a time until the backlog is 0 or `cap` passes,
/// pushing each tick's moves/s into `rate`. Returns `(moves, drained)`.
fn drain(
    client: &NetClient,
    mut backlog: u64,
    cap: Option<Duration>,
    rate: &mut Samples,
    out: &mut OperatorOut,
) -> Result<(u64, bool), Failure> {
    let start = Instant::now();
    let mut moves = 0;
    while backlog > 0 {
        if cap.is_some_and(|c| start.elapsed() >= c) {
            return Ok((moves, false));
        }
        let t = Instant::now();
        out.failures.attempted += 1;
        let after = client.tick(1).map_err(|e| client_failure(&e))?;
        let executed = backlog.saturating_sub(after);
        rate.push(executed as f64 / t.elapsed().as_secs_f64());
        out.rounds += 1;
        out.examined += backlog;
        moves += executed;
        backlog = after;
    }
    Ok((moves, true))
}

#[allow(clippy::too_many_arguments)]
fn scale_step(
    client: &NetClient,
    op: &ScalingOp,
    state: usize,
    oracle: &Oracle,
    gate: &Gate,
    total_blocks: u64,
    cap: Option<Duration>,
    out: &mut OperatorOut,
) -> Result<(), Failure> {
    let before = oracle.states[state - 1].disks;
    let after = oracle.states[state].disks;
    gate.open(state);
    let start = Instant::now();
    out.failures.attempted += 1;
    let (epoch, disks, queued) = client.scale(op.clone()).map_err(|e| client_failure(&e))?;
    let acked = Instant::now();
    out.scale_ack_ms.push((acked - start).as_secs_f64() * 1e3);
    if !oracle.consistent(state, state, epoch, disks) {
        return Err(Failure::TornEpoch);
    }
    gate.close(state);
    let (b, a) = (f64::from(before), f64::from(after));
    out.queued += queued;
    out.optimal += total_blocks as f64 * (a - b).abs() / a.max(b);
    let mut rate = std::mem::take(&mut out.reorg_tick_rate);
    let drained = drain(client, queued, cap, &mut rate, out);
    out.reorg_tick_rate = rate;
    let (moves, drained) = drained?;
    out.reorg_moves += moves;
    if drained {
        out.reorg_s.push(acked.elapsed().as_secs_f64());
    }
    Ok(())
}

fn compact_step(
    client: &NetClient,
    state: usize,
    oracle: &Oracle,
    gate: &Gate,
    cap: Option<Duration>,
    out: &mut OperatorOut,
) -> Result<(), Failure> {
    gate.open(state);
    let start = Instant::now();
    out.failures.attempted += 1;
    let status = client.compact().map_err(|e| client_failure(&e))?;
    out.compact_begin_ms
        .push(start.elapsed().as_secs_f64() * 1e3);
    let disks = oracle.states[state].disks;
    if status.total > 0 {
        out.compact_fraction.push((
            status.backlog as f64 / status.total as f64,
            1.0 - 1.0 / f64::from(disks),
            status.total,
        ));
    }
    let backlog = if status.active { status.backlog } else { 0 };
    let mut rate = std::mem::take(&mut out.compact_tick_rate);
    let flipped = drain(client, backlog, cap, &mut rate, out);
    out.compact_tick_rate = rate;
    let (moves, flipped) = flipped?;
    out.compact_moves += moves;
    if flipped {
        out.last_flip = Some(state);
        out.compact_s.push(start.elapsed().as_secs_f64());
        gate.close(state);
    }
    Ok(())
}
