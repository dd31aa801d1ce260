//! The **process backend**: shards as OS processes over the `dlb-wire/1`
//! byte protocol.
//!
//! [`Backend::Process`](crate::engine::Backend::Process) runs the message
//! backend's round shape — plan broadcast, owned seed, halo batches,
//! results, `Done` barrier — with each shard served by a
//! `dlb-shard-worker` **process** instead of a thread, connected over a
//! pluggable byte transport ([`Transport`]: Unix domain sockets or TCP
//! loopback). Planning is reused wholesale: the coordinator derives the
//! same `MessagePlan` (shard views + [`ShardView::halo_groups`] exchange
//! schedule, memoized per graph fingerprint) the message backend uses,
//! so serialization is the only new moving part.
//!
//! ## Topology: hub-and-spoke
//!
//! The coordinator holds one socket per worker and no worker↔worker
//! connections exist. During a legacy round the coordinator owns the
//! round-start snapshot anyway, so it materializes each shard's halo
//! batches itself — one [`Frame::HaloBatch`] per `recv` group, byte-for-
//! byte the values a peer shard would have posted, and attributed to the
//! *source* shard in [`CommMetrics`] so the accounting stays comparable
//! with the message backend. A peer-to-peer mesh changes who writes the
//! frame, not the frame: it is the designed next step, not a redesign.
//!
//! ## Two round modes, one bit-identity proof
//!
//! Protocols exposing a [`Protocol::gather_spec`] (continuous, discrete
//! and generalized diffusion) run **[`RoundMode::Diffusion`]**: the plan
//! frame ships the graph (edge list + expected fingerprint) and the
//! CSR-slot divisor table once, and the worker process evaluates the
//! gather kernel itself — genuinely distributed compute, bit-identical
//! because every kernel flavour is pinned bit-identical to the scalar
//! reference. All other protocols run **[`RoundMode::Precomputed`]**:
//! their kernels close over arbitrary protocol state (RNG streams,
//! matching structures, per-round graphs) that cannot cross a process
//! boundary, so the coordinator evaluates `node_new_load` itself and
//! ships each shard its new owned values; the worker scatters them into
//! its frame and reads its results back out of it. Either way **every
//! load value of every round crosses the wire twice** (encode → decode
//! in, encode → decode out), so the equivalence suite's serial ≡ process
//! assertion proves bit-identity *survives serialization* for all
//! protocols — the same honesty policy as the message backend's
//! full-exchange fallback.
//!
//! ## A fused codec
//!
//! The per-round value frames go straight between the load arrays and
//! the frame bytes, through `dlb-wire`'s single word-list writer
//! ([`encode_words`] / [`WordWriter`]) and reader ([`read_frame_raw`]).
//! The coordinator encodes owned seeds and halo batches from the
//! round-start snapshot, writing each frame as soon as it is built, and
//! decodes [`Frame::Results`] straight into the engine's back buffer in
//! interior ⧺ boundary order — there is no separate scatter pass, so the
//! round records `Serialize` and `Deserialize` spans and no
//! `ScatterOwned`. The worker decodes into its frame and gathers straight
//! into the `Results` bytes. No buffer outlives a round, and `Plan`
//! frames never go through a round's read buffer.
//!
//! ## Failure model
//!
//! A worker that dies (crash, kill, OOM) closes its socket: the
//! coordinator sees EOF — typed as [`WireError::Closed`] /
//! [`WireError::Truncated`] — on its next read, or `EPIPE` on its next
//! write, and every blocking socket operation carries a deadline
//! ([`wire_timeout`], default 30 s, `DLB_WIRE_TIMEOUT_MS` override). In
//! the hub topology workers only ever wait on the coordinator, never on
//! each other, so a dead worker can never deadlock the barrier: the
//! round returns a typed `EngineError` naming the shard within the
//! timeout bound. There is no supervised respawn in this backend yet —
//! a dead worker fails every subsequent round with the same typed error
//! until the engine is rebuilt (the scenario layer rejects `faults` on
//! the process backend for the same reason it rejects them on resident
//! sessions). A `Results` frame whose value count differs from the
//! shard's owned count is the same typed error, raised before any of its
//! values is written. Failed rounds never reach the caller's loads: the
//! back buffer is swapped in only on success. A worker that rejects a
//! round (stale seq, wrong cardinality, unplanned halo source) still
//! drains every frame the round announced, answers `Done { ok: false }`
//! and keeps serving.
//!
//! The wire format itself is specified in `docs/WIRE.md`; the operator's
//! view (spawning, transports, timeouts, kill semantics) is in the
//! repository `README.md` and the ARCHITECTURE "Process backend"
//! section.
//!
//! [`Protocol::gather_spec`]: crate::engine::Protocol::gather_spec
//! [`ShardView::halo_groups`]: dlb_graphs::partition::ShardView::halo_groups

use crate::engine::{CommMetrics, MessagePlan, PlanCache};
use crate::kernels::{kernel_kind_cached, DiffusionLoad, Divisors, GatherSpec};
use dlb_graphs::partition::graph_fingerprint;
use dlb_graphs::structure::GatherPlan;
use dlb_graphs::Graph;
use dlb_telemetry::{Phase as SpanPhase, Telemetry};
use dlb_wire::{
    encode_words, read_frame, read_frame_raw, read_hello, read_hello_ack, write_hello,
    write_hello_ack, CountingStream, DoneFrame, Frame, KernelPlan, LoadType, PlanFrame, RawFrame,
    RoundCmdFrame, RoundMode, Transport, WireError, WireListener, WireStream, WordFrame,
    WordFrameKind, WordWriter,
};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A load scalar that can cross the `dlb-wire/1` protocol: every value
/// is one raw little-endian 8-byte word, converted without rounding or
/// normalization so the process backend's bit-identity guarantee is
/// literal. Implemented by both engine load types (`f64`, `i64`); the
/// engine's `Protocol::Load` bound requires it, so every protocol can
/// run on [`Backend::Process`](crate::engine::Backend::Process).
pub trait WireLoad: DiffusionLoad + Default + PartialEq + std::fmt::Debug {
    /// The tag the plan frame declares so the worker instantiates the
    /// matching kernels.
    const LOAD_TYPE: LoadType;

    /// The value's wire word (bit pattern, not a numeric conversion).
    fn to_word(self) -> u64;

    /// Reconstructs the value from its wire word.
    fn from_word(word: u64) -> Self;
}

impl WireLoad for f64 {
    const LOAD_TYPE: LoadType = LoadType::F64;

    fn to_word(self) -> u64 {
        self.to_bits()
    }

    fn from_word(word: u64) -> f64 {
        f64::from_bits(word)
    }
}

impl WireLoad for i64 {
    const LOAD_TYPE: LoadType = LoadType::I64;

    fn to_word(self) -> u64 {
        self as u64
    }

    fn from_word(word: u64) -> i64 {
        word as i64
    }
}

/// Read/write deadline for every socket operation: 30 s unless
/// `DLB_WIRE_TIMEOUT_MS` overrides it. Like `DLB_THREADS` /
/// `DLB_KERNEL`, a set-but-invalid value panics instead of being
/// silently ignored.
pub fn wire_timeout() -> Duration {
    match std::env::var("DLB_WIRE_TIMEOUT_MS") {
        Ok(value) => match value.trim().parse::<u64>() {
            Ok(ms) if ms >= 1 => Duration::from_millis(ms),
            _ => panic!(
                "DLB_WIRE_TIMEOUT_MS must be a positive integer of milliseconds, \
                 got {value:?} (unset the variable for the 30s default)"
            ),
        },
        Err(_) => Duration::from_secs(30),
    }
}

/// Locates the `dlb-shard-worker` binary: `DLB_WORKER_BIN` when set
/// (strict: a set-but-missing path panics), otherwise siblings of the
/// current executable — which covers `cargo test` binaries
/// (`target/<profile>/deps/…`), examples (`target/<profile>/examples/…`)
/// and installed layouts where coordinator and worker sit side by side.
pub fn worker_binary() -> PathBuf {
    if let Ok(path) = std::env::var("DLB_WORKER_BIN") {
        let path = PathBuf::from(path);
        assert!(
            path.is_file(),
            "DLB_WORKER_BIN is set to {path:?}, which does not exist \
             (unset the variable to search next to the current executable)"
        );
        return path;
    }
    let exe = std::env::current_exe().expect("current_exe for worker discovery");
    for dir in exe.ancestors().skip(1).take(3) {
        let candidate = dir.join("dlb-shard-worker");
        if candidate.is_file() {
            return candidate;
        }
    }
    panic!(
        "dlb-shard-worker binary not found next to {exe:?}; \
         build it with `cargo build -p dlb-worker` (cargo builds it for the \
         worker crate's own tests only) or point DLB_WORKER_BIN at it"
    );
}

/// One spawned shard worker: its OS process and its framed connection.
struct Worker {
    child: Child,
    conn: CountingStream,
    /// Cleared on the first wire failure; later rounds fail fast on the
    /// same shard instead of timing out against a corpse.
    alive: bool,
}

/// The process backend's coordinator: spawns one `dlb-shard-worker` per
/// shard at construction, keeps the framed connections for the engine's
/// lifetime, and drives the legacy round protocol over them. Mirrors
/// `MessageExec` with serialization in place of channels.
pub(crate) struct ProcessExec<L: WireLoad> {
    pub(crate) spec: PartitionSpec,
    pub(crate) transport: Transport,
    n: usize,
    pub(crate) plans: PlanCache<Arc<MessagePlan>>,
    /// Fingerprint of the plan last broadcast; rounds re-ship plan
    /// frames only when it changes (dynamic graphs).
    broadcast_key: Option<u64>,
    workers: Vec<Worker>,
    pub(crate) last_comm: Option<CommMetrics>,
    round_seq: u64,
    _load: std::marker::PhantomData<L>,
}

use dlb_graphs::partition::PartitionSpec;

impl<L: WireLoad> std::fmt::Debug for ProcessExec<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessExec")
            .field("spec", &self.spec)
            .field("transport", &self.transport)
            .field("shards", &self.workers.len())
            .field("plans_built", &self.plans.built)
            .finish()
    }
}

impl<L: WireLoad> ProcessExec<L> {
    /// Spawns the worker fleet and completes the handshakes. Panics on
    /// spawn/handshake failure (missing binary, dead child, version
    /// mismatch) — construction is the fail-fast moment, exactly like
    /// the thread backends' pool spawns.
    pub(crate) fn new(spec: PartitionSpec, n: usize, transport: Transport) -> ProcessExec<L> {
        let shards = spec.shards();
        let timeout = wire_timeout();
        let listener = WireListener::bind(transport)
            .unwrap_or_else(|e| panic!("bind {} listener: {e}", transport.name()));
        let endpoint = listener.endpoint();
        let bin = worker_binary();
        let mut children: Vec<Option<Child>> = (0..shards)
            .map(|s| {
                let child = Command::new(&bin)
                    .arg("--shard")
                    .arg(s.to_string())
                    .arg("--connect")
                    .arg(&endpoint)
                    .spawn()
                    .unwrap_or_else(|e| panic!("spawn {bin:?} for shard {s}: {e}"));
                Some(child)
            })
            .collect();

        // Accept + handshake every worker, slotted by the shard id its
        // Hello announces (connection order is scheduler-dependent). The
        // deadline turns a worker that never dials in into a panic with
        // the child's exit status, not a hang.
        let deadline = Instant::now() + timeout;
        let mut conns: Vec<Option<CountingStream>> = (0..shards).map(|_| None).collect();
        for _ in 0..shards {
            let stream = accept_with_deadline(&listener, deadline, &mut children);
            let mut conn = CountingStream::new(stream);
            conn.stream()
                .set_read_timeout(Some(timeout))
                .expect("set accept read timeout");
            let hello = read_hello(&mut conn)
                .unwrap_or_else(|e| panic!("worker handshake on {endpoint}: {e}"));
            write_hello_ack(&mut conn).expect("write handshake ack");
            let s = hello.shard as usize;
            assert!(
                s < shards && conns[s].is_none(),
                "worker announced unexpected shard {s} (of {shards})"
            );
            conn.stream()
                .set_write_timeout(Some(timeout))
                .expect("set worker write timeout");
            conns[s] = Some(conn);
        }
        let workers = conns
            .into_iter()
            .zip(&mut children)
            .map(|(conn, child)| Worker {
                child: child.take().expect("child handle"),
                conn: conn.expect("every shard handshaken"),
                alive: true,
            })
            .collect();
        ProcessExec {
            spec,
            transport,
            n,
            plans: PlanCache::new(),
            broadcast_key: None,
            workers,
            last_comm: None,
            round_seq: 0,
            _load: std::marker::PhantomData,
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.workers.len()
    }

    /// OS process ids of the shard workers, in shard order — the
    /// operator's handle for inspection (`ps`, `/proc/<pid>`) and chaos
    /// drills.
    pub(crate) fn worker_pids(&self) -> Vec<u32> {
        self.workers.iter().map(|w| w.child.id()).collect()
    }

    /// Kills the given shard's worker process (SIGKILL) and reaps it.
    /// The next round on that shard fails with a typed error — the
    /// chaos-testing entry point behind
    /// [`Engine::process_kill_worker`](crate::engine::Engine::process_kill_worker).
    pub(crate) fn kill_worker(&mut self, shard: usize) {
        let w = &mut self.workers[shard];
        let _ = w.child.kill();
        let _ = w.child.wait();
        w.alive = false;
    }

    /// One legacy round over the wire. `gather_spec` selects diffusion
    /// mode (workers evaluate the shipped kernel) when present and
    /// consistent with the current plan's graph; `precompute` is the
    /// coordinator-side per-node kernel every other protocol's rounds are
    /// evaluated with. Results decode straight into `out`, which on a
    /// failed round may hold some of them. Returns the first failed
    /// shard.
    pub(crate) fn round(
        &mut self,
        snapshot: &[L],
        out: &mut [L],
        gather_spec: Option<GatherSpec<'_, L>>,
        precompute: &dyn Fn(u32) -> L,
        tel: &Telemetry,
        round_no: u64,
    ) -> Result<(), usize> {
        let plan = self.plans.current().clone();
        let key = self.plans.current_key();
        assert_eq!(
            out.len(),
            plan.views().iter().map(|v| v.owned().len()).sum::<usize>(),
            "process plan node count must equal the load vector length"
        );
        self.round_seq += 1;
        let seq = self.round_seq;
        let shards = self.shards();
        let mut comm = CommMetrics {
            shards,
            ..CommMetrics::default()
        };
        // Diffusion mode requires the spec's graph to be the plan's
        // graph (same fingerprint): the shipped divisor table is indexed
        // by that graph's CSR slots. A mismatch (a protocol gathering
        // over a different graph than it partitions by) falls back to
        // precomputed rounds rather than shipping an inconsistent plan.
        let diffusion = match gather_spec {
            Some(spec) if !plan.full_exchange => graph_fingerprint(spec.graph) == key,
            _ => false,
        };
        let mode = if diffusion {
            RoundMode::Diffusion
        } else {
            RoundMode::Precomputed
        };
        for w in &mut self.workers {
            w.conn.reset_counts();
        }

        // Dispatch: plan (when changed), round command, owned seed, and
        // — in diffusion mode — the halo batches, per shard. Each value
        // frame is encoded straight from the loads and written as soon
        // as it is built. Serialize spans land on the shard's own
        // telemetry lane: this encode/write is that worker's inbound
        // traffic.
        let rebroadcast = self.broadcast_key != Some(key);
        let mut per_src_sent = vec![0usize; shards];
        for s in 0..shards {
            let t0 = tel.start();
            if !self.workers[s].alive {
                self.fail_comm(comm);
                return Err(s);
            }
            let view = &plan.views()[s];
            // A changed plan goes out first, on its own: it is the
            // round's largest frame. Installing it is harmless even if
            // the round then fails, since the next round re-sends it.
            if rebroadcast {
                let frame = plan_frame_for::<L>(&plan, s, self.n, seq, diffusion, gather_spec);
                if self.workers[s]
                    .conn
                    .write_all(&Frame::Plan(frame).encode())
                    .is_err()
                {
                    self.workers[s].alive = false;
                    self.fail_comm(comm);
                    return Err(s);
                }
            }
            let owned = view.owned().iter();
            // Owned seed: round-start values in diffusion mode, the
            // coordinator-evaluated *new* values in precomputed mode —
            // both aligned to the view's owned order. It is built before
            // the round command is written, so a panicking kernel leaves
            // this shard's stream at a frame boundary.
            let owned_frame = if diffusion {
                encode_words(
                    WordFrameKind::OwnedValues,
                    seq,
                    owned.map(|&v| snapshot[v as usize].to_word()),
                )
            } else {
                // In precomputed mode the protocol kernel runs *here*, on
                // the coordinator; a panicking kernel becomes this
                // shard's typed error — parity with the other backends'
                // supervised gathers.
                let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    encode_words(
                        WordFrameKind::OwnedValues,
                        seq,
                        owned.map(|&v| precompute(v).to_word()),
                    )
                }));
                match computed {
                    Ok(bytes) => bytes,
                    Err(_) => {
                        self.fail_comm(comm);
                        return Err(s);
                    }
                }
            };
            comm.owned_values_in += view.owned().len();
            let groups = if diffusion { &plan.recv[s][..] } else { &[] };
            let conn = &mut self.workers[s].conn;
            let mut send = || -> std::io::Result<()> {
                let cmd = RoundCmdFrame {
                    seq,
                    round: round_no,
                    mode,
                    halo_batches: groups.len() as u32,
                };
                conn.write_all(&Frame::RoundCmd(cmd).encode())?;
                conn.write_all(&owned_frame)?;
                for (src, ids) in groups {
                    comm.messages += 1;
                    comm.values_sent += ids.len();
                    per_src_sent[*src] += ids.len();
                    let batch = encode_words(
                        WordFrameKind::HaloBatch { src: *src as u32 },
                        seq,
                        ids.iter().map(|&v| snapshot[v as usize].to_word()),
                    );
                    conn.write_all(&batch)?;
                }
                conn.flush()
            };
            if send().is_err() {
                self.workers[s].alive = false;
                self.fail_comm(comm);
                return Err(s);
            }
            tel.record(s as u32, round_no, SpanPhase::Serialize, t0);
        }
        self.broadcast_key = Some(key);
        comm.max_shard_values_sent = per_src_sent.iter().copied().max().unwrap_or(0);

        // Collect: every worker answers Results + Done (or a lone
        // not-ok Done). Workers only ever wait on the coordinator — all
        // inbound frames for the round are already written — so a dead
        // worker is an EOF/timeout *here*, never a stalled peer
        // elsewhere: the barrier cannot deadlock. Results decode
        // straight into `out` in the interior-then-boundary order every
        // backend scatters in; one read buffer serves the whole round.
        let mut failed: Option<usize> = None;
        let mut buf = Vec::new();
        'collect: for s in 0..shards {
            let t0 = tel.start();
            let view = &plan.views()[s];
            let mut received = None;
            loop {
                match read_frame_raw(&mut self.workers[s].conn, &mut buf) {
                    Ok(RawFrame::Words(f)) if f.kind == WordFrameKind::Results && f.seq == seq => {
                        // A wrong count is this shard's error, caught
                        // before a single value is written. The worker's
                        // Done stays unread and is drained as stale by
                        // the next round.
                        if !decode_into(&f, view.interior(), view.boundary(), out) {
                            failed.get_or_insert(s);
                            break 'collect;
                        }
                        received = Some(f.len());
                    }
                    Ok(RawFrame::Other(Frame::Done(DoneFrame { seq: got, ok }))) if got == seq => {
                        match received {
                            Some(values) if ok => comm.owned_values_out += values,
                            _ => {
                                failed.get_or_insert(s);
                                break 'collect;
                            }
                        }
                        break;
                    }
                    // Stale frames from a previous failed attempt are
                    // drained, mirroring the message backend's seq dedup.
                    Ok(RawFrame::Words(WordFrame {
                        kind: WordFrameKind::Results,
                        ..
                    }))
                    | Ok(RawFrame::Other(Frame::Done(_))) => continue,
                    Ok(_) | Err(_) => {
                        self.workers[s].alive = false;
                        failed.get_or_insert(s);
                        break 'collect;
                    }
                }
            }
            tel.record(s as u32, round_no, SpanPhase::Deserialize, t0);
        }
        comm.halo_bytes = comm.values_sent * std::mem::size_of::<L>();
        self.fail_comm(comm);
        match failed {
            Some(shard) => Err(shard),
            None => Ok(()),
        }
    }

    /// Folds the wire byte counters into `comm` and publishes it as the
    /// round's metrics (also on failed rounds, so the bytes spent on a
    /// doomed round stay visible).
    fn fail_comm(&mut self, mut comm: CommMetrics) {
        for w in &self.workers {
            comm.wire_bytes_out += w.conn.bytes_out() as usize;
            comm.wire_bytes_in += w.conn.bytes_in() as usize;
        }
        self.last_comm = Some(comm);
    }
}

impl<L: WireLoad> Drop for ProcessExec<L> {
    fn drop(&mut self) {
        // Orderly shutdown: Exit frame, then EOF; escalate to SIGKILL if
        // a worker lingers so drop never hangs, and reap every child.
        for w in &mut self.workers {
            let _ = w.conn.write_all(&Frame::Exit.encode());
            let _ = w.conn.stream().shutdown_write();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for w in &mut self.workers {
            loop {
                match w.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Accepts one connection before `deadline`, polling the children so a
/// worker that died on startup (bad argv, missing libs) panics with its
/// exit status instead of timing the handshake out.
fn accept_with_deadline(
    listener: &WireListener,
    deadline: Instant,
    children: &mut [Option<Child>],
) -> WireStream {
    match listener {
        WireListener::Unix(l, _) => l.set_nonblocking(true).expect("listener nonblocking"),
        WireListener::Tcp(l) => l.set_nonblocking(true).expect("listener nonblocking"),
    }
    loop {
        match listener.accept() {
            Ok(stream) => {
                stream
                    .set_nonblocking(false)
                    .expect("restore blocking mode on accepted stream");
                return stream;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (s, child) in children.iter_mut().enumerate() {
                    if let Some(c) = child.as_mut() {
                        if let Ok(Some(status)) = c.try_wait() {
                            panic!("dlb-shard-worker for shard {s} exited at startup: {status}");
                        }
                    }
                }
                assert!(
                    Instant::now() < deadline,
                    "worker handshake timed out on {} (DLB_WIRE_TIMEOUT_MS bounds the wait)",
                    listener.endpoint()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("accept worker connection: {e}"),
        }
    }
}

/// Builds shard `s`'s plan frame, including the kernel payload (graph
/// edges, fingerprint, divisors) when the round runs diffusion mode.
fn plan_frame_for<L: WireLoad>(
    plan: &MessagePlan,
    s: usize,
    n: usize,
    seq: u64,
    diffusion: bool,
    gather_spec: Option<GatherSpec<'_, L>>,
) -> PlanFrame {
    let view = &plan.views()[s];
    let kernel = if diffusion {
        gather_spec.map(|spec| KernelPlan {
            edges: spec.graph.edges().to_vec(),
            fingerprint: graph_fingerprint(spec.graph),
            // dlb-wire/1 ships one divisor per CSR slot; a uniform
            // divisor is expanded here and collapsed again by the worker.
            divisors: match spec.slot_div {
                Divisors::Uniform(c) => vec![c.to_word(); spec.graph.degree_sum()],
                Divisors::Table(t) => t.iter().map(|d| d.to_word()).collect(),
            },
        })
    } else {
        None
    };
    PlanFrame {
        seq,
        shard: s as u32,
        n: n as u32,
        load_type: L::LOAD_TYPE,
        owned: view.owned().to_vec(),
        interior: view.interior().to_vec(),
        boundary: view.boundary().to_vec(),
        recv_groups: plan.recv[s]
            .iter()
            .map(|(src, ids)| (*src as u32, ids.to_vec()))
            .collect(),
        kernel,
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker half of the protocol, called by the `dlb-shard-worker`
/// binary after it connects: performs the handshake, installs plans, and
/// serves rounds until `Exit` or EOF. Kept in the library (rather than
/// the binary crate) so the protocol logic next to the coordinator it
/// must mirror, and so tests can drive a worker over an in-process
/// socket pair.
///
/// Returns `Err` on a protocol violation or transport failure; the
/// binary maps that to a nonzero exit. A kernel panic inside a round is
/// caught and reported as `Done { ok: false }` instead — the coordinator
/// turns it into a typed `EngineError` while the worker stays up.
pub fn run_worker(mut conn: WireStream, shard: u32) -> Result<(), WireError> {
    write_hello(&mut conn, shard)?;
    read_hello_ack(&mut conn)?;
    // The first plan frame declares the session's load type; everything
    // after is monomorphized on it. A coordinator that hangs up before
    // sending any frame (engine dropped without running a round) is an
    // orderly shutdown, same as EOF between rounds.
    match read_frame(&mut conn) {
        Ok(Frame::Exit) | Err(WireError::Closed) => Ok(()),
        Ok(Frame::Plan(plan)) => match plan.load_type {
            LoadType::F64 => worker_loop::<f64>(conn, shard, plan),
            LoadType::I64 => worker_loop::<i64>(conn, shard, plan),
        },
        Ok(other) => Err(protocol_violation(shard, "plan", &RawFrame::Other(other))),
        Err(e) => Err(e),
    }
}

fn protocol_violation(shard: u32, expected: &str, got: &RawFrame<'_>) -> WireError {
    eprintln!(
        "dlb-shard-worker[{shard}]: protocol violation: expected {expected}, got {}",
        got.kind_name()
    );
    WireError::UnknownFrame { kind: got.kind() }
}

/// A worker's installed plan, decoded into the shapes the round loop
/// needs.
struct ShardState<L> {
    seq: u64,
    owned: Vec<u32>,
    /// Gather order: interior then boundary — the order results are
    /// produced and scattered in on every backend.
    order: Vec<u32>,
    recv_groups: Vec<(u32, Vec<u32>)>,
    /// Diffusion sessions: the rebuilt graph, its gather plan, and the
    /// typed divisors.
    kernel: Option<(Graph, GatherPlan, Divisors<L>)>,
    /// The worker's frame: a global-length vector holding owned ∪ halo
    /// values for the current round (all a shard ever sees).
    frame: Vec<L>,
}

impl<L: WireLoad> ShardState<L> {
    fn install(shard: u32, plan: PlanFrame) -> Result<ShardState<L>, WireError> {
        assert_eq!(plan.shard, shard, "plan addressed to the wrong shard");
        let kernel = match plan.kernel {
            None => None,
            Some(k) => {
                let graph = Graph::from_edges(plan.n as usize, k.edges.iter().copied())
                    .unwrap_or_else(|e| panic!("rebuild shipped graph: {e:?}"));
                // Integrity gate for the bit-identity guarantee: the
                // rebuilt CSR must be slot-for-slot the coordinator's
                // graph, or the shipped divisor table indexes garbage.
                let fp = graph_fingerprint(&graph);
                assert_eq!(
                    fp, k.fingerprint,
                    "rebuilt graph fingerprint mismatch: plan is corrupt or versions differ"
                );
                let gplan = GatherPlan::build(&graph);
                Some((graph, gplan, decode_divisors(&k.divisors)))
            }
        };
        let order: Vec<u32> = plan
            .interior
            .iter()
            .chain(plan.boundary.iter())
            .copied()
            .collect();
        Ok(ShardState {
            seq: plan.seq,
            owned: plan.owned,
            order,
            recv_groups: plan.recv_groups,
            kernel,
            frame: vec![L::default(); plan.n as usize],
        })
    }
}

/// Decodes a plan frame's per-slot divisor list, collapsing it to one
/// uniform divisor when all its words are equal (a regular graph), so
/// the kernels take the same uniform path as in-process backends.
fn decode_divisors<L: WireLoad>(words: &[u64]) -> Divisors<L> {
    match words.split_first() {
        Some((&first, rest)) if rest.iter().all(|&w| w == first) => {
            Divisors::Uniform(L::from_word(first))
        }
        _ => Divisors::Table(words.iter().map(|&w| L::from_word(w)).collect()),
    }
}

fn worker_loop<L: WireLoad>(
    mut conn: WireStream,
    shard: u32,
    first_plan: PlanFrame,
) -> Result<(), WireError> {
    let mut state = ShardState::<L>::install(shard, first_plan)?;
    let kind = kernel_kind_cached();
    loop {
        match read_frame(&mut conn) {
            Ok(Frame::Plan(plan)) => {
                assert_eq!(
                    plan.load_type,
                    L::LOAD_TYPE,
                    "load type cannot change within a session"
                );
                state = ShardState::install(shard, plan)?;
            }
            Ok(Frame::RoundCmd(cmd)) => {
                // Drain every inbound frame the command announces *before*
                // deciding the round's fate, so a rejected round leaves
                // the stream at a frame boundary for the next one. Values
                // decode straight into the frame; whatever a rejected
                // round wrote there is overwritten by the next accepted
                // one, which refills every owned and halo slot. The read
                // buffer lives for this round's value frames only.
                //
                // The stream is ordered, so the installed plan is always
                // the one this command was built against (the coordinator
                // writes Plan immediately before the RoundCmd that first
                // uses it); `state.seq` records when it arrived, not a
                // per-round token.
                let mut ok = cmd.seq >= state.seq
                    && (cmd.mode == RoundMode::Precomputed || state.kernel.is_some());
                let mut buf = Vec::new();
                match read_frame_raw(&mut conn, &mut buf)? {
                    RawFrame::Words(f) if f.kind == WordFrameKind::OwnedValues => {
                        ok &= f.seq == cmd.seq
                            && decode_into(&f, &state.owned, &[], &mut state.frame);
                    }
                    other => return Err(protocol_violation(shard, "owned-values", &other)),
                }
                let mut filled = vec![false; state.recv_groups.len()];
                for _ in 0..cmd.halo_batches {
                    match read_frame_raw(&mut conn, &mut buf)? {
                        RawFrame::Words(
                            f @ WordFrame {
                                kind: WordFrameKind::HaloBatch { src },
                                ..
                            },
                        ) => {
                            // A stale batch, one from a shard the plan
                            // never names, a group sent twice or a wrong
                            // cardinality rejects the round rather than
                            // compute on garbage.
                            let group = state.recv_groups.iter().position(|(g, _)| *g == src);
                            ok &= match group {
                                Some(i) if f.seq == cmd.seq && !filled[i] => {
                                    filled[i] = true;
                                    decode_into(&f, &state.recv_groups[i].1, &[], &mut state.frame)
                                }
                                _ => false,
                            };
                        }
                        other => return Err(protocol_violation(shard, "halo-batch", &other)),
                    }
                }
                drop(buf);
                if cmd.mode == RoundMode::Diffusion {
                    ok &= filled.iter().all(|&f| f);
                }
                if !ok {
                    write_done(&mut conn, cmd.seq, false)?;
                    continue;
                }
                // The round body: evaluate (diffusion) or read back
                // (precomputed), straight into the Results frame. A panic
                // — kernel bug, poisoned values — is caught and reported,
                // keeping the worker serving.
                let state_ref = &state;
                let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let order = &state_ref.order;
                    match (cmd.mode, &state_ref.kernel) {
                        (RoundMode::Diffusion, Some((graph, gplan, divisors))) => {
                            let spec = GatherSpec {
                                graph,
                                slot_div: divisors,
                            };
                            let mut results =
                                WordWriter::new(WordFrameKind::Results, cmd.seq, order.len());
                            crate::kernels::gather_list(
                                kind,
                                gplan,
                                &spec,
                                &state_ref.frame,
                                order,
                                &mut |_, value: L| results.push(value.to_word()),
                            );
                            results.finish()
                        }
                        _ => encode_words(
                            WordFrameKind::Results,
                            cmd.seq,
                            order.iter().map(|&v| state_ref.frame[v as usize].to_word()),
                        ),
                    }
                }));
                match computed {
                    Ok(results) => {
                        conn.write_all(&results).map_err(WireError::Io)?;
                        write_done(&mut conn, cmd.seq, true)?;
                    }
                    Err(_) => write_done(&mut conn, cmd.seq, false)?,
                }
            }
            Ok(Frame::Exit) | Err(WireError::Closed) => return Ok(()),
            Ok(other) => {
                return Err(protocol_violation(
                    shard,
                    "round-cmd",
                    &RawFrame::Other(other),
                ))
            }
            Err(e) => return Err(e),
        }
    }
}

/// Decodes a value frame straight into `dest`: word `i` lands at the
/// `i`-th id of `ids` ⧺ `tail`. A word count that differs from the id
/// count writes nothing and returns false.
fn decode_into<L: WireLoad>(
    values: &WordFrame<'_>,
    ids: &[u32],
    tail: &[u32],
    dest: &mut [L],
) -> bool {
    if values.len() != ids.len() + tail.len() {
        return false;
    }
    let mut words = values.words();
    for (&v, word) in ids.iter().zip(words.by_ref()) {
        dest[v as usize] = L::from_word(word);
    }
    for (&v, word) in tail.iter().zip(words) {
        dest[v as usize] = L::from_word(word);
    }
    true
}

fn write_done(conn: &mut WireStream, seq: u64, ok: bool) -> Result<(), WireError> {
    conn.write_all(&Frame::Done(DoneFrame { seq, ok }).encode())
        .map_err(WireError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes `values` as a Results frame into a sentinel-filled vector
    /// through the interior ⧺ boundary split `[2, 0] ⧺ [3]`.
    fn decode_results(values: &[f64]) -> (bool, Vec<f64>) {
        let bytes = encode_words(
            WordFrameKind::Results,
            5,
            values.iter().map(|v| v.to_word()),
        );
        let mut buf = Vec::new();
        let frame = match read_frame_raw(&mut bytes.as_slice(), &mut buf).unwrap() {
            RawFrame::Words(f) => f,
            other => panic!("decoded {other:?}"),
        };
        let mut out = vec![-1.0; 4];
        let ok = decode_into(&frame, &[2, 0], &[3], &mut out);
        (ok, out)
    }

    #[test]
    fn results_land_in_interior_then_boundary_order() {
        assert_eq!(
            decode_results(&[10.0, 20.0, 30.0]),
            (true, vec![20.0, -1.0, 10.0, 30.0])
        );
    }

    #[test]
    fn short_results_are_rejected_before_any_write() {
        assert_eq!(decode_results(&[10.0, 20.0]), (false, vec![-1.0; 4]));
        assert_eq!(decode_results(&[]), (false, vec![-1.0; 4]));
    }

    #[test]
    fn long_results_are_rejected_before_any_write() {
        assert_eq!(
            decode_results(&[10.0, 20.0, 30.0, 40.0]),
            (false, vec![-1.0; 4])
        );
    }
}
