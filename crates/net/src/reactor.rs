//! The event-loop serving core: readiness-driven nonblocking sockets.
//!
//! ## Threading model
//!
//! One **acceptor** thread owns the listener and does nothing but
//! `accept`, apply the backpressure policy (`Error{Busy}` over
//! [`max_connections`](crate::NetServerConfig::max_connections)), and
//! hand each accepted socket to a **worker** round-robin. Each worker
//! owns a [`polling::Poller`] (epoll on Linux, poll(2) elsewhere — both
//! level-triggered), a slab of connection states, and reusable scratch
//! buffers; a connection lives its whole life on the worker that
//! admitted it, so no connection state is ever shared or locked.
//! Worker `i` is pinned to CPU `i mod cores` (Linux only, best effort)
//! so its connection states stay cache-local.
//!
//! ## A wakeup, start to finish
//!
//! 1. `wait` returns ready sockets (or a deadline/notify wakeup).
//! 2. Newly accepted sockets from the injection queue are registered.
//! 3. Every readable socket is drained to `WouldBlock` into its
//!    connection's read buffer, and complete frames are decoded in
//!    place by the re-entrant [`crate::wire`] decoder (partial frames
//!    stay buffered and re-arm the read deadline — slow-loris clients
//!    get the `read_timeout`, not a thread).
//! 4. **Cross-connection coalescing**: consecutive `Locate` /
//!    `LocateBatch` frames — across *all* connections woken this round
//!    — are answered by one [`cmsim::SharedServer::locate_coalesced`]
//!    call under a single read-lock acquisition. Non-lookup frames
//!    (`Scale`, `Tick`, …) act as barriers: the pending lookup wave is
//!    flushed before they run, so responses on any one connection are
//!    in request order and its observed epoch never runs backwards.
//!    The batching window is exactly one poller wakeup — no timer, no
//!    added latency.
//! 5. Responses are batch-encoded into each connection's write buffer
//!    and flushed with one `write` per connection (the writev of this
//!    protocol: many frames, one syscall). A short write arms writable
//!    interest and the `write_timeout`; a backlog past the high-water
//!    mark suspends reading from that connection until it drains
//!    (per-connection backpressure without blocking the loop).
//! 6. Expired read/write deadlines close their connection (with a
//!    best-effort `Error{BadRequest}` for an overdue request).
//!
//! Shutdown is a graceful drain: the acceptor stops, each worker is
//! notified, flushes what it owes (reverting the socket to blocking
//! writes under `write_timeout`), closes everything, and joins.

use crate::server::{engine_error, handle_request, reply, Shared};
use crate::wire::{decode_frame_traced, ErrorCode, Frame, FrameError};
use cmsim::LocateQuery;
use polling::{Event, Poller};
use scaddar_obs::{StateHandle, ThreadState, TraceContext};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Read-drain scratch size per worker (reused across connections).
const READ_CHUNK: usize = 64 * 1024;

/// Once a buffer has ballooned past this, completed connections shrink
/// it back so one huge batch doesn't pin memory forever.
const BUF_SHRINK_THRESHOLD: usize = 1 << 20;

/// Environment override for the poller backend (`poll` forces the
/// portable poll(2) fallback on Linux) — lets the test suite and CI
/// exercise both code paths on one platform.
pub const BACKEND_ENV: &str = "SCADDARD_BACKEND";

fn open_poller() -> std::io::Result<Poller> {
    match std::env::var(BACKEND_ENV) {
        Ok(v) if v.eq_ignore_ascii_case("poll") => Poller::with_backend(polling::Backend::Poll),
        _ => Poller::new(),
    }
}

/// One live connection owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes; complete frames are decoded out each
    /// wakeup, so between wakeups this holds at most one partial frame.
    rbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the kernel.
    out: Vec<u8>,
    /// Flushed prefix of `out`.
    out_pos: usize,
    /// Armed while `rbuf` holds a partial frame.
    read_deadline: Option<Instant>,
    /// Armed while `out` has unflushed bytes.
    write_deadline: Option<Instant>,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
    /// Output backlog passed the high-water mark; reads are off until
    /// it drains below half of it.
    read_suspended: bool,
    /// Close once `out` is flushed, dropping undispatched frames
    /// (protocol error or direction violation — the stream is beyond
    /// saving).
    close_after_flush: bool,
    /// Peer sent EOF (possibly a half-close): answer everything already
    /// received, then close once drained.
    close_when_drained: bool,
    /// A heavy engine op (`Scale`/`Tick`) is running on an offload
    /// thread; frames decoded meanwhile queue in `deferred` so the
    /// connection's response order survives.
    busy: bool,
    /// Incarnation of this slab slot — a completion whose generation
    /// doesn't match arrived for a connection that is already gone.
    generation: u64,
    /// Frames awaiting the in-flight offloaded op, in arrival order
    /// (each with the trace context it arrived under, if any).
    deferred: VecDeque<TracedFrame>,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Result of one offloaded heavy op, handed back to the worker.
struct Completion {
    slot: usize,
    generation: u64,
    /// Encoded response frame(s).
    bytes: Vec<u8>,
    /// `false`: the op decided the connection must close (direction
    /// violation), mirroring [`handle_request`]'s return.
    keep_open: bool,
}

/// `Scale` and `Tick` hold the engine's write lock for milliseconds
/// (a full redistribution drain); executing them on the reactor thread
/// would stall every connection on the worker for the duration. They
/// run on a short-lived offload thread instead.
fn is_heavy(frame: &Frame) -> bool {
    matches!(frame, Frame::Scale { .. } | Frame::Tick { .. })
}

/// A decoded frame plus the trace context that rode in on its trailer.
type TracedFrame = (Frame, Option<TraceContext>);

/// A decoded request waiting for dispatch this wakeup: slab slot, the
/// frame (taken out of the `Option` when individually dispatched), and
/// — when this request drew the 1-in-N phase sample — the clock
/// reading at decode completion (feeding the `coalesce-wait` phase).
type PendingReq = (usize, Option<TracedFrame>, Option<u64>);

struct Worker {
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    injector: Arc<Mutex<Vec<TcpStream>>>,
    /// Finished offloaded ops waiting to be folded back in.
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Next slot incarnation (see [`Conn::generation`]).
    next_generation: u64,
    chunk: Vec<u8>,
    events: Vec<Event>,
    /// Output backlog (bytes) beyond which reads are suspended.
    high_water: usize,
    /// This worker's profiler state word, flipped at phase boundaries.
    state: StateHandle,
}

impl Worker {
    fn live_conns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.conns.len()).filter(|&s| self.conns[s].is_some())
    }

    fn run(&mut self) {
        loop {
            let timeout = self.next_timeout();
            self.events.clear();
            self.state.set(ThreadState::Epoll);
            let _ = self.poller.wait(&mut self.events, timeout);
            self.state.set(ThreadState::Idle);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain();
                self.state.set(ThreadState::Idle);
                return;
            }
            self.admit_new();
            self.apply_completions();
            self.state.set(ThreadState::Decode);
            let mut pending: Vec<PendingReq> = Vec::new();
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                self.handle_event(ev, &mut pending);
            }
            self.events = events;
            self.dispatch(pending);
            self.state.set(ThreadState::Write);
            self.flush_and_retune();
            self.state.set(ThreadState::Idle);
            self.sweep_deadlines();
        }
    }

    /// Nearest armed deadline, as a `wait` timeout. `None` (block until
    /// readiness or notify) when nothing is on the clock.
    fn next_timeout(&self) -> Option<Duration> {
        let mut nearest: Option<Instant> = None;
        for slot in self.live_conns() {
            let conn = self.conns[slot].as_ref().unwrap();
            for deadline in [conn.read_deadline, conn.write_deadline]
                .into_iter()
                .flatten()
            {
                nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
            }
        }
        nearest.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Registers connections the acceptor has handed over.
    fn admit_new(&mut self) {
        loop {
            let stream = {
                let mut q = self.injector.lock().unwrap_or_else(|e| e.into_inner());
                match q.pop() {
                    Some(s) => s,
                    None => return,
                }
            };
            if stream.set_nonblocking(true).is_err() {
                self.shared.stats.conns_closed.inc();
                self.shared.stats.connections.add(-1);
                continue;
            }
            let _ = stream.set_nodelay(true);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            if self
                .poller
                .add(stream.as_raw_fd(), Event::readable(slot))
                .is_err()
            {
                self.free.push(slot);
                self.shared.stats.conns_closed.inc();
                self.shared.stats.connections.add(-1);
                continue;
            }
            self.next_generation += 1;
            self.conns[slot] = Some(Conn {
                stream,
                rbuf: Vec::with_capacity(4096),
                out: Vec::with_capacity(4096),
                out_pos: 0,
                read_deadline: None,
                write_deadline: None,
                interest: (true, false),
                read_suspended: false,
                close_after_flush: false,
                close_when_drained: false,
                busy: false,
                generation: self.next_generation,
                deferred: VecDeque::new(),
            });
        }
    }

    /// Reads a ready connection to `WouldBlock` and decodes every
    /// complete frame into `pending` (in arrival order).
    fn handle_event(&mut self, ev: &Event, pending: &mut Vec<PendingReq>) {
        let slot = ev.key;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // already closed this wakeup
        };
        if !ev.readable || conn.read_suspended || conn.close_after_flush || conn.close_when_drained
        {
            return; // writable-only wakeups are handled by the flush pass
        }
        let instrument = self.shared.config.instrument;
        // One clock read per readable wakeup anchors the `decode`
        // phase for whichever frames draw the 1-in-N sample below.
        let readable_at = instrument.then(|| self.shared.tracer.clock().now_ns());
        let mut peer_closed = false;
        loop {
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.shared.stats.bytes_rx.add(n as u64);
                    conn.rbuf.extend_from_slice(&self.chunk[..n]);
                    if n < self.chunk.len() {
                        break; // drained (level-triggered: more re-fires)
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        let conn = self.conns[slot].as_mut().unwrap();
        // Decode in place: `consumed` walks the buffer, one compaction
        // at the end instead of a memmove per frame.
        let mut consumed = 0;
        loop {
            match decode_frame_traced(&conn.rbuf[consumed..], self.shared.config.max_frame_len) {
                Ok((frame, ctx, used)) => {
                    consumed += used;
                    // Per-request phase-sample decision, made at decode
                    // time: a hit stamps the frame and records the
                    // socket-readable→decoded phase.
                    let stamp = match readable_at {
                        Some(t0) if self.shared.phases.sample_hit() => {
                            let now = self.shared.tracer.clock().now_ns();
                            self.shared.phases.decode.record(now.saturating_sub(t0));
                            Some(now)
                        }
                        _ => None,
                    };
                    pending.push((slot, Some((frame, ctx)), stamp));
                }
                Err(FrameError::Incomplete { .. }) => break,
                Err(err) => {
                    self.shared.stats.protocol_errors.inc();
                    Frame::Error {
                        code: ErrorCode::Protocol,
                        message: err.to_string(),
                    }
                    .encode(&mut conn.out);
                    conn.close_after_flush = true;
                    consumed = conn.rbuf.len();
                    break;
                }
            }
        }
        if consumed > 0 {
            let len = conn.rbuf.len();
            conn.rbuf.copy_within(consumed.., 0);
            conn.rbuf.truncate(len - consumed);
        }
        conn.read_deadline = if conn.rbuf.is_empty() || conn.close_after_flush {
            None
        } else {
            // Partial frame pending: (re-)arm on first appearance only.
            Some(
                conn.read_deadline
                    .unwrap_or_else(|| Instant::now() + self.shared.config.read_timeout),
            )
        };
        if peer_closed {
            let idle = conn.unflushed() == 0
                && conn.out.is_empty()
                && !conn.busy
                && conn.deferred.is_empty()
                && pending.iter().all(|p| p.0 != slot);
            if idle {
                self.close(slot);
            } else {
                // Half-close: frames already received (including any in
                // this wakeup's `pending`) still get answers.
                conn.close_when_drained = true;
            }
        }
    }

    /// Dispatches this wakeup's decoded frames. Lookup frames from all
    /// connections accumulate into a wave answered under one read lock;
    /// any other frame flushes the wave first (order barrier), then
    /// runs through the ordinary per-request path.
    fn dispatch(&mut self, mut pending: Vec<PendingReq>) {
        let mut wave: Vec<usize> = Vec::new();
        for i in 0..pending.len() {
            let slot = pending[i].0;
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.close_after_flush {
                continue;
            }
            // An offloaded op owns this connection's response order:
            // everything behind it waits in the deferred queue. (Does
            // not barrier the wave — ordering is per-connection.)
            if conn.busy {
                conn.deferred.push_back(pending[i].1.take().unwrap());
                continue;
            }
            // Sampled-trace lookups skip the wave: they take the
            // ordinary path so a continuation span is recorded.
            let coalescible = match pending[i].1.as_ref() {
                Some((_, Some(ctx))) if ctx.sampled => false,
                Some((Frame::Locate { .. }, _)) => true,
                Some((Frame::LocateBatch { blocks, .. }, _)) => !blocks.is_empty(),
                _ => false,
            };
            // Cluster mode: only lookups this shard actually serves may
            // join the wave — and the wave must see the shard-local
            // object id. Everything else (WrongShard/StaleMap/unknown)
            // takes the ordinary path, which runs the routing gate.
            let coalescible = coalescible
                && match &self.shared.shard {
                    None => true,
                    Some(shard) => {
                        let (frame, _) = pending[i].1.as_mut().unwrap();
                        let (Frame::Locate { object, .. } | Frame::LocateBatch { object, .. }) =
                            frame
                        else {
                            unreachable!("coalescible is lookup-only");
                        };
                        match shard.decide(*object) {
                            crate::cluster::RouteDecision::Serve(local) => {
                                *object = local;
                                true
                            }
                            _ => false,
                        }
                    }
                };
            if coalescible {
                wave.push(i);
                continue;
            }
            self.flush_wave(&mut wave, &pending);
            let (frame, ctx) = pending[i].1.take().unwrap();
            if is_heavy(&frame) {
                self.offload(slot, (frame, ctx));
            } else if let Some(conn) = self.conns[slot].as_mut() {
                self.state.set(ThreadState::Engine);
                if !handle_request(frame, &self.shared, &mut conn.out, ctx) {
                    conn.close_after_flush = true;
                }
                self.state.set(ThreadState::Decode);
            }
        }
        self.flush_wave(&mut wave, &pending);
    }

    /// Runs a heavy frame on a short-lived offload thread. The
    /// connection is parked (`busy`) until the completion comes back
    /// through [`Self::apply_completions`]; a spawn failure falls back
    /// to inline execution (slow, but correct).
    fn offload(&mut self, slot: usize, traced: TracedFrame) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let generation = conn.generation;
        let shared = Arc::clone(&self.shared);
        let completions = Arc::clone(&self.completions);
        let poller = Arc::clone(&self.poller);
        conn.busy = true;
        let fallback = traced.clone();
        let (frame, ctx) = traced;
        let spawned = std::thread::Builder::new()
            .name("scaddard-op".into())
            .spawn(move || {
                // The op threads share one state word ("scaddard-op");
                // concurrent ops overlap on it, which is the documented
                // approximation for these short-lived threads.
                let _op_guard = shared.op_state.enter(ThreadState::Offload);
                let mut bytes = Vec::new();
                let keep_open = handle_request(frame, &shared, &mut bytes, ctx);
                completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Completion {
                        slot,
                        generation,
                        bytes,
                        keep_open,
                    });
                let _ = poller.notify();
            });
        if spawned.is_err() {
            // Thread exhaustion: execute inline rather than wedge.
            let conn = self.conns[slot].as_mut().expect("checked above");
            conn.busy = false;
            let (frame, ctx) = fallback;
            if !handle_request(frame, &self.shared, &mut conn.out, ctx) {
                conn.close_after_flush = true;
            }
        }
    }

    /// Folds finished offloaded ops back into their connections and
    /// replays each connection's deferred frames (stopping at the next
    /// heavy frame, which re-offloads).
    fn apply_completions(&mut self) {
        let done = {
            let mut guard = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for completion in done {
            let Some(conn) = self.conns.get_mut(completion.slot).and_then(Option::as_mut) else {
                continue; // connection died while the op ran
            };
            if conn.generation != completion.generation || !conn.busy {
                continue; // slot was reused
            }
            conn.busy = false;
            conn.out.extend_from_slice(&completion.bytes);
            if !completion.keep_open {
                conn.close_after_flush = true;
                conn.deferred.clear();
                continue;
            }
            // Replay what queued up behind the op, in order.
            while let Some((frame, ctx)) = self.conns[completion.slot]
                .as_mut()
                .and_then(|c| c.deferred.pop_front())
            {
                if is_heavy(&frame) {
                    self.offload(completion.slot, (frame, ctx));
                    break;
                }
                let conn = self.conns[completion.slot].as_mut().expect("still live");
                if !handle_request(frame, &self.shared, &mut conn.out, ctx) {
                    conn.close_after_flush = true;
                    conn.deferred.clear();
                    break;
                }
            }
        }
    }

    /// Answers the accumulated lookup wave with one
    /// [`cmsim::SharedServer::locate_coalesced`] call and encodes each
    /// response into its connection's write buffer.
    fn flush_wave(&mut self, wave: &mut Vec<usize>, pending: &[PendingReq]) {
        if wave.is_empty() {
            return;
        }
        let instrument = self.shared.config.instrument;
        let start = instrument.then(|| self.shared.tracer.clock().now_ns());
        // Any phase-stamped member makes this wave pay for the extra
        // clock reads; the stamped members' wait in the wave is the
        // `coalesce-wait` phase.
        let wave_sampled = instrument && wave.iter().any(|&i| pending[i].2.is_some());
        if let Some(t0) = start.filter(|_| wave_sampled) {
            for &i in wave.iter() {
                if let Some(decoded_at) = pending[i].2 {
                    self.shared
                        .phases
                        .coalesce_wait
                        .record(t0.saturating_sub(decoded_at));
                }
            }
        }
        let queries: Vec<LocateQuery<'_>> = wave
            .iter()
            .map(|&i| match &pending[i].1.as_ref().unwrap().0 {
                Frame::Locate { object, block } => LocateQuery::One {
                    object: scaddar_core::ObjectId(*object),
                    block: *block,
                },
                Frame::LocateBatch { object, blocks } => LocateQuery::Many {
                    object: scaddar_core::ObjectId(*object),
                    blocks,
                },
                _ => unreachable!("wave holds only lookup frames"),
            })
            .collect();
        let state = &self.state;
        let clock = self.shared.tracer.clock();
        state.set(ThreadState::LockWait);
        let mut locked_at = None;
        let read = self.shared.server.locate_coalesced(&queries, || {
            state.set(ThreadState::Engine);
            if wave_sampled {
                locked_at = Some(clock.now_ns());
            }
        });
        let engine_done_at = locked_at.map(|_| clock.now_ns());
        state.set(ThreadState::Encode);
        drop(queries);
        if let (Some(t0), Some(locked), Some(done)) = (start, locked_at, engine_done_at) {
            self.shared
                .phases
                .lock_wait
                .record(locked.saturating_sub(t0));
            let depth = crate::server::depth_bucket(read.epoch as u64);
            self.shared.phases.engine[depth].record(done.saturating_sub(locked));
        }
        let epoch = read.epoch as u64;
        let disks = read.disks;
        for (&i, answer) in wave.iter().zip(read.answers) {
            let slot = pending[i].0;
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.close_after_flush {
                continue;
            }
            let response = match answer {
                Ok(cmsim::LocateAnswer::One(disk)) => Frame::Located {
                    epoch,
                    disks,
                    disk: disk.0 as u64,
                },
                Ok(cmsim::LocateAnswer::Many(locations)) => Frame::BatchLocated {
                    epoch,
                    disks,
                    locations: locations.into_iter().map(|d| d.0).collect(),
                },
                Err(e) => {
                    self.shared.stats.errors.inc();
                    engine_error(e)
                }
            };
            response.encode(&mut conn.out);
        }
        // Per-frame latency is the wave's wall time split evenly — the
        // whole point of coalescing is that the lock+dispatch cost is
        // shared, so the share *is* the per-request server-side cost.
        let wave_done_at = start.map(|_| self.shared.tracer.clock().now_ns());
        if let (Some(done), Some(engine_done)) = (wave_done_at, engine_done_at) {
            self.shared
                .phases
                .encode
                .record(done.saturating_sub(engine_done));
        }
        let per_frame_ns = match (start, wave_done_at) {
            (Some(t0), Some(done)) => done.saturating_sub(t0) / wave.len() as u64,
            _ => 0,
        };
        for &i in wave.iter() {
            let endpoint = pending[i].1.as_ref().unwrap().0.endpoint();
            self.shared.stats.record(endpoint, per_frame_ns, instrument);
        }
        wave.clear();
        self.state.set(ThreadState::Decode);
    }

    /// Writes every connection's pending output (one syscall per
    /// connection per wakeup), then retunes poller interest: writable
    /// on short writes, read suspension across the high-water mark,
    /// close when a draining connection empties.
    fn flush_and_retune(&mut self) {
        let instrument = self.shared.config.instrument;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.unflushed() > 0 {
                let flush_started = (instrument && self.shared.phases.sample_hit())
                    .then(|| self.shared.tracer.clock().now_ns());
                loop {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            conn.close_after_flush = true;
                            break;
                        }
                        Ok(n) => {
                            conn.out_pos += n;
                            self.shared.stats.bytes_tx.add(n as u64);
                            if conn.out_pos == conn.out.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.close(slot);
                            conn_closed_continue(&mut self.conns[slot]);
                            break;
                        }
                    }
                }
                if let Some(t0) = flush_started {
                    self.shared
                        .phases
                        .write_flush
                        .record(self.shared.tracer.clock().now_ns().saturating_sub(t0));
                }
            }
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.unflushed() == 0 {
                conn.out.clear();
                conn.out_pos = 0;
                conn.write_deadline = None;
                if conn.out.capacity() > BUF_SHRINK_THRESHOLD {
                    conn.out.shrink_to(BUF_SHRINK_THRESHOLD);
                }
                if conn.rbuf.capacity() > BUF_SHRINK_THRESHOLD {
                    conn.rbuf.shrink_to(BUF_SHRINK_THRESHOLD);
                }
                if conn.close_after_flush
                    || (conn.close_when_drained && !conn.busy && conn.deferred.is_empty())
                {
                    self.close(slot);
                    continue;
                }
            } else if conn.write_deadline.is_none() {
                conn.write_deadline = Some(Instant::now() + self.shared.config.write_timeout);
            }
            // Backpressure hysteresis: suspend past high water, resume
            // below half of it.
            let backlog = conn.unflushed();
            if backlog > self.high_water {
                conn.read_suspended = true;
            } else if backlog < self.high_water / 2 {
                conn.read_suspended = false;
            }
            let want = (
                !conn.read_suspended && !conn.close_after_flush && !conn.close_when_drained,
                conn.unflushed() > 0,
            );
            if want != conn.interest {
                let ev = Event {
                    key: slot,
                    readable: want.0,
                    writable: want.1,
                };
                if self.poller.modify(conn.stream.as_raw_fd(), ev).is_ok() {
                    conn.interest = want;
                }
            }
        }
    }

    /// Closes connections whose read or write deadline has lapsed.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            let read_overdue = conn.read_deadline.is_some_and(|d| now >= d);
            let write_overdue = conn.write_deadline.is_some_and(|d| now >= d);
            if read_overdue {
                // Best effort: tell the slow-loris client why.
                let mut err = Vec::new();
                Frame::Error {
                    code: ErrorCode::BadRequest,
                    message: "request read deadline exceeded".into(),
                }
                .encode(&mut err);
                let _ = conn.stream.write(&err);
            }
            if read_overdue || write_overdue {
                self.close(slot);
            }
        }
    }

    /// Removes a connection: deregisters, counts, frees the slot.
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.free.push(slot);
            self.shared.stats.conns_closed.inc();
            self.shared.stats.connections.add(-1);
        }
    }

    /// Graceful drain: wait (boundedly) for in-flight offloaded ops,
    /// flush what each connection is owed (blocking, under
    /// `write_timeout`), then close everything.
    fn drain(&mut self) {
        self.admit_new();
        let deadline = Instant::now() + self.shared.config.write_timeout;
        while self.conns.iter().flatten().any(|c| c.busy) && Instant::now() < deadline {
            let mut scratch = Vec::new();
            let _ = self
                .poller
                .wait(&mut scratch, Some(Duration::from_millis(20)));
            self.apply_completions();
        }
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                if conn.unflushed() > 0 {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn
                        .stream
                        .set_write_timeout(Some(self.shared.config.write_timeout));
                    let from = conn.out_pos;
                    if conn.stream.write_all(&conn.out[from..]).is_ok() {
                        self.shared
                            .stats
                            .bytes_tx
                            .add((conn.out.len() - from) as u64);
                    }
                }
                self.close(slot);
            }
        }
    }
}

/// No-op helper making the "closed inside the write loop" case explicit
/// to the borrow checker (the slot is `None` after `close`).
fn conn_closed_continue(_conn: &mut Option<Conn>) {}

/// Handle for one spawned worker: its poller (to wake it for shutdown)
/// and its join handle. The matching injection queue lives with the
/// acceptor's target list.
struct WorkerHandle {
    poller: Arc<Poller>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The running event-loop core behind a [`crate::Scaddard`].
pub(crate) struct Reactor {
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<WorkerHandle>,
}

impl Reactor {
    /// Spawns the acceptor and worker threads over a bound listener.
    pub(crate) fn start(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<Reactor> {
        let n = if shared.config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        } else {
            shared.config.workers
        };
        let mut workers = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for i in 0..n {
            let poller = Arc::new(open_poller()?);
            let injector: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            let mut worker = Worker {
                shared: Arc::clone(&shared),
                poller: Arc::clone(&poller),
                injector: Arc::clone(&injector),
                completions: Arc::new(Mutex::new(Vec::new())),
                conns: Vec::new(),
                free: Vec::new(),
                next_generation: 0,
                chunk: vec![0u8; READ_CHUNK],
                events: Vec::with_capacity(256),
                high_water: shared.config.max_frame_len as usize * 4,
                state: shared.profiler.register(&format!("scaddard-worker-{i}")),
            };
            let thread = std::thread::Builder::new()
                .name(format!("scaddard-worker-{i}"))
                .spawn(move || {
                    let _ = polling::pin_current_thread_to_cpu(i);
                    worker.run();
                })?;
            targets.push((Arc::clone(&poller), injector));
            workers.push(WorkerHandle {
                poller,
                thread: Some(thread),
            });
        }
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("scaddard-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, targets))?;
        Ok(Reactor {
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// Joins the acceptor and every worker. The shutdown flag must be
    /// set (and the acceptor woken) by the caller first.
    pub(crate) fn shutdown(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for worker in &self.workers {
            let _ = worker.poller.notify();
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.thread.take() {
                let _ = handle.join();
            }
        }
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        self.acceptor.is_none()
    }
}

#[allow(clippy::type_complexity)]
fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    targets: Vec<(Arc<Poller>, Arc<Mutex<Vec<TcpStream>>>)>,
) {
    let mut next = 0usize;
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = reply(
                &stream,
                &shared,
                &Frame::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "draining".into(),
                },
            );
            return;
        }
        let ceiling = i64::try_from(shared.config.max_connections).unwrap_or(i64::MAX);
        if shared.stats.connections.get() >= ceiling {
            shared.stats.conns_rejected.inc();
            let _ = reply(
                &stream,
                &shared,
                &Frame::Error {
                    code: ErrorCode::Busy,
                    message: format!("{} connections", shared.config.max_connections),
                },
            );
            continue;
        }
        shared.stats.conns_opened.inc();
        shared.stats.connections.add(1);
        let (poller, injector) = &targets[next % targets.len()];
        next = next.wrapping_add(1);
        injector
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stream);
        let _ = poller.notify();
    }
}

// Unit tests for the reactor live at the crate's integration level
// (`tests/reactor_edge.rs`, `tests/loopback_concurrent.rs`) where it is
// exercised through real sockets; NetStats conformance is covered by
// the `server` module tests (see `server::tests`).
