//! Process-backend integration suite: shards as OS processes speaking
//! `dlb-wire/1` over real sockets.
//!
//! It lives in the worker crate because cargo builds the
//! `dlb-shard-worker` binary only for this package's integration tests.
//!
//! (Per-protocol serial ≡ process bit-identity lives in
//! `process_properties.rs`; codec round-trips and truncation at every
//! byte boundary are property-tested inside `dlb-wire`. This file covers
//! what only a live fleet can: the TCP transport, wire-level comm
//! accounting, worker death mid-round surfacing as a *typed* engine
//! error within bounded time, handshake rejection of malformed peers,
//! and the scenario layer's gating of the new backend.)

use std::time::{Duration, Instant};

use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::engine::{Backend, Engine, EnginePhase};
use dlb_core::Transport;
use dlb_graphs::{topology, PartitionSpec};
use dlb_wire::{read_hello, WireError, WireListener, WireStream, MAGIC};

/// Points the coordinator at the worker binary cargo built for these
/// tests. Every test that spawns workers calls this first.
fn use_built_worker() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("DLB_WORKER_BIN", env!("CARGO_BIN_EXE_dlb-shard-worker"));
    });
}

fn process(shards: usize, transport: Transport) -> Backend {
    use_built_worker();
    Backend::Process {
        partition: PartitionSpec::Bfs { shards },
        transport,
    }
}

fn spike(n: usize) -> Vec<f64> {
    let mut loads = vec![1.0; n];
    loads[0] = n as f64 * 10.0;
    loads
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

#[test]
fn tcp_transport_matches_serial() {
    let g = topology::torus2d(6, 6);
    let mut serial = spike(g.n());
    let mut engine = Engine::serial(ContinuousDiffusion::new(&g));
    for _ in 0..5 {
        engine.round(&mut serial);
    }

    let mut loads = spike(g.n());
    let mut engine = Engine::with_backend(ContinuousDiffusion::new(&g), process(4, Transport::Tcp));
    for _ in 0..5 {
        engine.round(&mut loads);
    }
    assert_eq!(serial, loads, "TCP transport diverged from serial");

    let comm = engine.comm_metrics().expect("process rounds report comm");
    assert!(comm.wire_bytes_out > 0, "no framed bytes counted out");
    assert!(comm.wire_bytes_in > 0, "no framed bytes counted in");
    // The framed streams carry envelopes and round commands on top of
    // the value payloads, so wire bytes must exceed the value volume.
    assert!(
        comm.wire_bytes_out > comm.halo_bytes,
        "wire bytes ({}) should exceed raw halo value bytes ({})",
        comm.wire_bytes_out,
        comm.halo_bytes
    );
}

#[test]
fn worker_pids_exposed_only_on_process_backend() {
    let g = topology::torus2d(4, 4);
    let engine = Engine::with_backend(ContinuousDiffusion::new(&g), process(3, Transport::Unix));
    let pids = engine.process_worker_pids().expect("process backend");
    assert_eq!(pids.len(), 3);
    assert!(pids.iter().all(|&p| p > 0));

    let serial = Engine::serial(ContinuousDiffusion::new(&g));
    assert!(serial.process_worker_pids().is_none());
}

// ---------------------------------------------------------------------------
// Failure model: death is typed and bounded, never a deadlock
// ---------------------------------------------------------------------------

#[test]
fn killed_worker_mid_run_yields_typed_error_not_deadlock() {
    let g = topology::torus2d(6, 6);
    let mut loads = spike(g.n());
    let mut engine =
        Engine::with_backend(ContinuousDiffusion::new(&g), process(4, Transport::Unix));
    engine.try_round(&mut loads).expect("healthy round");

    engine.process_kill_worker(2);
    let t0 = Instant::now();
    let err = engine
        .try_round(&mut loads)
        .expect_err("round over a dead worker must fail");
    // The coordinator notices the closed socket well inside the wire
    // timeout; anything near a minute would be a stall, not detection.
    assert!(
        t0.elapsed() < Duration::from_secs(40),
        "death detection took {:?}",
        t0.elapsed()
    );
    assert_eq!(err.shard, 2);
    assert_eq!(err.phase, EnginePhase::Wire);

    // The worker stays marked dead: subsequent rounds fail fast on the
    // same typed error instead of re-timing-out.
    let t1 = Instant::now();
    let err = engine
        .try_round(&mut loads)
        .expect_err("dead worker stays dead");
    assert_eq!(err.shard, 2);
    assert_eq!(err.phase, EnginePhase::Wire);
    assert!(t1.elapsed() < Duration::from_secs(5));

    // Failed rounds still publish their comm metrics (the bytes spent on
    // the doomed round stay visible).
    assert!(engine.comm_metrics().is_some());
}

// ---------------------------------------------------------------------------
// Handshake rejection: each corruption mode is a distinct typed error
// ---------------------------------------------------------------------------

/// Runs `run_worker` against a scripted fake coordinator and returns the
/// worker's error. The server closure receives the accepted stream
/// *after* the worker's 16-byte hello has been consumed and validated.
fn worker_against(server: impl FnOnce(&mut WireStream) + Send + 'static) -> WireError {
    let listener = WireListener::bind(Transport::Unix).expect("bind");
    let endpoint = listener.endpoint();
    let worker = std::thread::spawn(move || {
        let stream = WireStream::connect(&endpoint).expect("connect");
        dlb_core::run_worker(stream, 0)
    });
    let mut stream = listener.accept().expect("accept");
    let hello = read_hello(&mut stream).expect("worker sends a valid hello");
    assert_eq!(hello.shard, 0);
    server(&mut stream);
    worker
        .join()
        .expect("worker thread")
        .expect_err("worker must reject the scripted coordinator")
}

#[test]
fn handshake_bad_magic_is_typed() {
    use std::io::Write;
    let err = worker_against(|stream| {
        stream
            .write_all(b"NOPE\x01\x00\x00\x00\x01\x00\x00\x00")
            .unwrap();
    });
    match err {
        WireError::BadMagic { found } => assert_eq!(&found, b"NOPE"),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn handshake_version_mismatch_is_typed() {
    use std::io::Write;
    let err = worker_against(|stream| {
        let mut ack = [0u8; 12];
        ack[0..4].copy_from_slice(&MAGIC);
        ack[4..8].copy_from_slice(&99u32.to_le_bytes());
        ack[8..12].copy_from_slice(&1u32.to_le_bytes());
        stream.write_all(&ack).unwrap();
    });
    match err {
        WireError::VersionMismatch { ours, theirs } => {
            assert_eq!(ours, dlb_wire::WIRE_VERSION);
            assert_eq!(theirs, 99);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_frame_is_typed() {
    use std::io::Write;
    let err = worker_against(|stream| {
        dlb_wire::write_hello_ack(stream).unwrap();
        // A frame that declares a 64-byte Plan payload, delivers 3 bytes,
        // and hangs up: the worker must report the truncation with the
        // frame type it died inside.
        let plan_tag = 1u8;
        let mut partial = vec![plan_tag];
        partial.extend_from_slice(&64u32.to_le_bytes());
        partial.extend_from_slice(&[0, 1, 2]);
        stream.write_all(&partial).unwrap();
        let _ = stream.shutdown_write();
    });
    match err {
        WireError::Truncated { frame: Some(tag) } => assert_eq!(tag, 1),
        other => panic!("expected Truncated{{frame: Some(1)}}, got {other:?}"),
    }
}

#[test]
fn eof_between_frames_is_an_orderly_shutdown() {
    // A coordinator that completes the handshake and disappears is a
    // normal exit for the worker (EOF between frames), not an error.
    let listener = WireListener::bind(Transport::Unix).expect("bind");
    let endpoint = listener.endpoint();
    let worker = std::thread::spawn(move || {
        let stream = WireStream::connect(&endpoint).expect("connect");
        dlb_core::run_worker(stream, 7)
    });
    let mut stream = listener.accept().expect("accept");
    let hello = read_hello(&mut stream).expect("hello");
    assert_eq!(hello.shard, 7);
    dlb_wire::write_hello_ack(&mut stream).unwrap();
    drop(stream);
    worker
        .join()
        .expect("worker thread")
        .expect("clean EOF exit");
}

// ---------------------------------------------------------------------------
// Scenario-layer gating
// ---------------------------------------------------------------------------

#[test]
fn scenario_faults_and_process_backend_are_mutually_exclusive() {
    use dlb_workloads::{ExecSpec, FaultsSpec, Scenario};
    let sc = Scenario::builtin("bursty-torus")
        .expect("builtin")
        .with_exec(ExecSpec::Process {
            partition: PartitionSpec::Range { shards: 4 },
            transport: Transport::Unix,
        })
        .with_faults(FaultsSpec::default());
    let err = sc
        .validate()
        .expect_err("faults x process must be rejected");
    assert!(err.contains("process"), "unhelpful error: {err}");
}

#[test]
fn scenario_toml_round_trips_process_backend() {
    use dlb_workloads::{ExecSpec, Scenario};
    for transport in [Transport::Unix, Transport::Tcp] {
        let sc = Scenario::builtin("bursty-torus")
            .expect("builtin")
            .with_exec(ExecSpec::Process {
                partition: PartitionSpec::Bfs { shards: 6 },
                transport,
            });
        let toml = sc.to_toml();
        assert!(toml.contains("backend = \"process\""), "{toml}");
        // The default transport is omitted so legacy files stay
        // byte-stable; tcp must be spelled out.
        assert_eq!(
            toml.contains("transport = \"tcp\""),
            transport == Transport::Tcp,
            "{toml}"
        );
        let back = Scenario::from_spec(&toml).expect("reparse");
        assert_eq!(back.exec, sc.exec, "exec spec did not round-trip");
    }
}

#[test]
fn scenario_builtin_process_runs_and_reports_wire_bytes() {
    use dlb_workloads::{Scenario, ScenarioRunner};
    use_built_worker();
    // Trim the run: equivalence over the full trajectory is covered by
    // the CI matrix; here we only need a live fleet and its accounting.
    let sc = Scenario::builtin("bursty-torus-process")
        .expect("builtin")
        .with_stop(dlb_workloads::StopSpec::Rounds { rounds: 8 });
    let report = ScenarioRunner::new(sc).run().expect("run");
    assert_eq!(report.backend, "process");
    let comm = report.comm.expect("process runs report comm totals");
    assert!(comm.wire_bytes_out > 0);
    assert!(comm.wire_bytes_in > 0);
    let header = report.to_jsonl();
    let header = header.lines().next().unwrap().to_string();
    assert!(header.contains("\"comm_wire_bytes_out\""), "{header}");
    assert!(header.contains("\"comm_wire_bytes_in\""), "{header}");
}

/// The process-backed half of `dlb-workloads`' `builtins_run_and_conserve`
/// (that crate cannot spawn the worker binary): every built-in scenario on
/// the process backend runs to its stop condition and conserves load.
#[test]
fn process_builtins_run_and_conserve() {
    use dlb_workloads::{ExecSpec, Scenario};
    use_built_worker();
    let mut ran = 0;
    for name in Scenario::builtin_names() {
        let sc = Scenario::builtin(name).unwrap();
        if !matches!(sc.exec, ExecSpec::Process { .. }) {
            continue;
        }
        let report = sc.run().expect(name);
        assert!(report.rounds > 0, "{name}");
        assert_eq!(report.phi_trace.len(), report.rounds + 1, "{name}");
        assert_eq!(report.records.len(), report.rounds, "{name}");
        assert!(
            report.conservation_relative_error() < 1e-9,
            "{name}: conservation error {}",
            report.conservation_error()
        );
        ran += 1;
    }
    assert!(ran > 0, "no process-backed built-in scenario");
}
