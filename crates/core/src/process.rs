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
//! sessions).
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
    read_frame, read_hello, read_hello_ack, write_hello, write_hello_ack, CountingStream,
    DoneFrame, Frame, KernelPlan, LoadType, PlanFrame, RoundCmdFrame, RoundMode, Transport,
    WireError, WireListener, WireStream,
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
    /// coordinator-side kernel every other protocol's rounds are
    /// evaluated with. Returns the first failed shard.
    pub(crate) fn round(
        &mut self,
        snapshot: &[L],
        out: &mut [L],
        gather_spec: Option<GatherSpec<'_, L>>,
        precompute: &mut dyn FnMut(&[u32], &mut Vec<L>),
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
        // — in diffusion mode — the halo batches, per shard. Serialize
        // spans land on the shard's own telemetry lane: this encode/write
        // is that worker's inbound traffic.
        let rebroadcast = self.broadcast_key != Some(key);
        let mut per_src_sent = vec![0usize; shards];
        let mut owned_scratch: Vec<L> = Vec::new();
        for s in 0..shards {
            let t0 = tel.start();
            if !self.workers[s].alive {
                self.fail_comm(comm);
                return Err(s);
            }
            let view = &plan.views()[s];
            let mut frames: Vec<Vec<u8>> = Vec::with_capacity(3 + plan.recv[s].len());
            if rebroadcast {
                frames.push(
                    Frame::Plan(plan_frame_for::<L>(
                        &plan,
                        s,
                        self.n,
                        seq,
                        diffusion,
                        gather_spec,
                    ))
                    .encode(),
                );
            }
            frames.push(
                Frame::RoundCmd(RoundCmdFrame {
                    seq,
                    round: round_no,
                    mode,
                    halo_batches: if diffusion {
                        plan.recv[s].len() as u32
                    } else {
                        0
                    },
                })
                .encode(),
            );
            // Owned seed: round-start values in diffusion mode, the
            // coordinator-evaluated *new* values in precomputed mode —
            // both aligned to the view's owned order.
            owned_scratch.clear();
            if diffusion {
                owned_scratch.extend(view.owned().iter().map(|&v| snapshot[v as usize]));
            } else {
                // In precomputed mode the protocol kernel runs *here*, on
                // the coordinator; a panicking kernel becomes this
                // shard's typed error — parity with the other backends'
                // supervised gathers.
                let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    precompute(view.owned(), &mut owned_scratch)
                }));
                if computed.is_err() {
                    self.fail_comm(comm);
                    return Err(s);
                }
            }
            comm.owned_values_in += owned_scratch.len();
            frames.push(
                Frame::OwnedValues {
                    seq,
                    values: owned_scratch.iter().map(|v| v.to_word()).collect(),
                }
                .encode(),
            );
            if diffusion {
                for (src, ids) in &plan.recv[s] {
                    let values: Vec<u64> = ids
                        .iter()
                        .map(|&v| snapshot[v as usize].to_word())
                        .collect();
                    comm.messages += 1;
                    comm.values_sent += values.len();
                    per_src_sent[*src] += values.len();
                    frames.push(
                        Frame::HaloBatch {
                            seq,
                            src: *src as u32,
                            values,
                        }
                        .encode(),
                    );
                }
            }
            for bytes in &frames {
                if self.workers[s].conn.write_all(bytes).is_err() {
                    self.workers[s].alive = false;
                    self.fail_comm(comm);
                    return Err(s);
                }
            }
            let _ = self.workers[s].conn.flush();
            tel.record(s as u32, round_no, SpanPhase::Serialize, t0);
        }
        self.broadcast_key = Some(key);
        comm.max_shard_values_sent = per_src_sent.iter().copied().max().unwrap_or(0);

        // Collect: every worker answers Results + Done (or a lone
        // not-ok Done). Workers only ever wait on the coordinator — all
        // inbound frames for the round are already written — so a dead
        // worker is an EOF/timeout *here*, never a stalled peer
        // elsewhere: the barrier cannot deadlock.
        let mut failed: Option<usize> = None;
        let mut results: Vec<Option<Vec<L>>> = (0..shards).map(|_| None).collect();
        'collect: for (s, slot) in results.iter_mut().enumerate() {
            let t0 = tel.start();
            loop {
                match read_frame(&mut self.workers[s].conn) {
                    Ok(Frame::Results { seq: got, values }) if got == seq => {
                        *slot = Some(values.into_iter().map(L::from_word).collect());
                    }
                    Ok(Frame::Done(DoneFrame { seq: got, ok })) if got == seq => {
                        if !ok || slot.is_none() {
                            failed.get_or_insert(s);
                            break 'collect;
                        }
                        comm.owned_values_out += slot.as_ref().map_or(0, Vec::len);
                        break;
                    }
                    // Stale frames from a previous failed attempt are
                    // drained, mirroring the message backend's seq dedup.
                    Ok(Frame::Results { .. }) | Ok(Frame::Done(_)) => continue,
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
        if let Some(shard) = failed {
            return Err(shard);
        }

        // Scatter the per-shard results into the global vector — the
        // same interior-then-boundary order every backend scatters in.
        let t_scatter = tel.start();
        for (view, shard_results) in plan.views().iter().zip(results) {
            let shard_results = shard_results.expect("every shard reported");
            debug_assert_eq!(shard_results.len(), view.owned().len());
            let order = view.interior().iter().chain(view.boundary());
            for (&v, &value) in order.zip(shard_results.iter()) {
                out[v as usize] = value;
            }
        }
        tel.record(
            dlb_telemetry::ENGINE_LANE,
            round_no,
            SpanPhase::ScatterOwned,
            t_scatter,
        );
        Ok(())
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
        Ok(other) => Err(protocol_violation(shard, "plan", &other)),
        Err(e) => Err(e),
    }
}

fn protocol_violation(shard: u32, expected: &str, got: &Frame) -> WireError {
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
                // Drain the round's inbound frames *before* validating,
                // so a rejected round leaves the stream at a frame
                // boundary for the next attempt.
                let owned_values = match read_frame(&mut conn)? {
                    Frame::OwnedValues { seq, values } if seq == cmd.seq => values,
                    Frame::OwnedValues { .. } => {
                        write_done(&mut conn, cmd.seq, false)?;
                        continue;
                    }
                    other => return Err(protocol_violation(shard, "owned-values", &other)),
                };
                let mut halos = Vec::with_capacity(cmd.halo_batches as usize);
                for _ in 0..cmd.halo_batches {
                    match read_frame(&mut conn)? {
                        Frame::HaloBatch { seq, src, values } if seq == cmd.seq => {
                            halos.push((src, values));
                        }
                        Frame::HaloBatch { .. } => {}
                        other => return Err(protocol_violation(shard, "halo-batch", &other)),
                    }
                }
                // The stream is ordered, so the installed plan is always
                // the one this command was built against (the coordinator
                // writes Plan immediately before the RoundCmd that first
                // uses it); `state.seq` records when it arrived, not a
                // per-round token.
                let mut ok = cmd.seq >= state.seq
                    && owned_values.len() == state.owned.len()
                    && (cmd.mode == RoundMode::Precomputed || state.kernel.is_some());
                if ok {
                    for (&v, &word) in state.owned.iter().zip(&owned_values) {
                        state.frame[v as usize] = L::from_word(word);
                    }
                    for (src, values) in &halos {
                        match state.recv_groups.iter().find(|(g, _)| g == src) {
                            Some((_, ids)) if ids.len() == values.len() => {
                                for (&v, &word) in ids.iter().zip(values) {
                                    state.frame[v as usize] = L::from_word(word);
                                }
                            }
                            // A batch from a shard the plan never names,
                            // or with the wrong cardinality: reject the
                            // round rather than compute on garbage.
                            _ => ok = false,
                        }
                    }
                }
                if !ok {
                    write_done(&mut conn, cmd.seq, false)?;
                    continue;
                }
                // The round body: evaluate (diffusion) or read back
                // (precomputed). A panic — kernel bug, poisoned values —
                // is caught and reported, keeping the worker serving.
                let state_ref = &state;
                let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    match (cmd.mode, &state_ref.kernel) {
                        (RoundMode::Diffusion, Some((graph, gplan, divisors))) => {
                            let spec = GatherSpec {
                                graph,
                                slot_div: divisors,
                            };
                            let mut out = Vec::with_capacity(state_ref.order.len());
                            crate::kernels::gather_list(
                                kind,
                                gplan,
                                &spec,
                                &state_ref.frame,
                                &state_ref.order,
                                &mut |_, value| out.push(value),
                            );
                            out
                        }
                        _ => state_ref
                            .order
                            .iter()
                            .map(|&v| state_ref.frame[v as usize])
                            .collect(),
                    }
                }));
                match computed {
                    Ok(results) => {
                        let frame = Frame::Results {
                            seq: cmd.seq,
                            values: results.iter().map(|v| v.to_word()).collect(),
                        };
                        conn.write_all(&frame.encode()).map_err(WireError::Io)?;
                        write_done(&mut conn, cmd.seq, true)?;
                    }
                    Err(_) => write_done(&mut conn, cmd.seq, false)?,
                }
            }
            Ok(Frame::Exit) | Err(WireError::Closed) => return Ok(()),
            Ok(other) => return Err(protocol_violation(shard, "round-cmd", &other)),
            Err(e) => return Err(e),
        }
    }
}

fn write_done(conn: &mut WireStream, seq: u64, ok: bool) -> Result<(), WireError> {
    conn.write_all(&Frame::Done(DoneFrame { seq, ok }).encode())
        .map_err(WireError::Io)
}
