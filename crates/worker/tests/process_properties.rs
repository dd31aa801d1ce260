//! Process-backend bit-identity: for **every** `Protocol` implementation
//! in the workspace, `Backend::Process` (one `dlb-shard-worker` OS process
//! per shard, range and BFS partitions, shard counts exceeding `n`) must
//! reproduce the serial scalar engine's load vectors **and per-round
//! statistics** bit for bit.
//!
//! This is the process half of `tests/tests/engine_properties.rs`. It
//! lives in the worker crate because cargo builds the `dlb-shard-worker`
//! binary only for this package's integration tests, and hands its path
//! over as `CARGO_BIN_EXE_dlb-shard-worker`.

use dlb_baselines::{
    ChebyshevContinuous, FirstOrderContinuous, FirstOrderDiscrete, MatchingExchangeContinuous,
    MatchingExchangeDiscrete, MatchingKind, SecondOrderContinuous, SequentialComparator,
};
use dlb_core::continuous::{ContinuousDiffusion, GeneralizedDiffusion};
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::{Backend, Engine, Protocol};
use dlb_core::heterogeneous::{HeterogeneousDiffusion, HeterogeneousDiscreteDiffusion};
use dlb_core::random_partner::{RandomPartnerContinuous, RandomPartnerDiscrete};
use dlb_core::KernelKind;
use dlb_graphs::PartitionSpec;
use dlb_graphs::{topology, Graph};

/// Points the coordinator at the worker binary cargo built for these
/// tests. Every test calls this before building a process engine.
fn use_built_worker() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        std::env::set_var("DLB_WORKER_BIN", env!("CARGO_BIN_EXE_dlb-shard-worker"));
    });
}

fn run_collecting<P: Protocol>(
    mut engine: Engine<P>,
    init: &[P::Load],
    rounds: usize,
) -> (Vec<P::Load>, Vec<Option<P::Stats>>) {
    let mut loads = init.to_vec();
    let stats = (0..rounds).map(|_| engine.round(&mut loads)).collect();
    (loads, stats)
}

// The process backend spawns one OS worker per shard, so it runs outside
// the proptest sweeps (24 cases × a backend list would fork hundreds of
// process fleets). One deterministic fixture per protocol is the right
// trade: the wire codec is itself property-tested in `dlb-wire`, and the
// serialization path these tests pin is value-shape-independent — every
// owned load and halo value crosses the socket as a raw bit pattern in
// both round modes, so bit-identity on one trajectory proves the codec
// preserves bits on all of them.

/// Serial (scalar kernel) vs `Backend::Process` over Unix sockets: final
/// loads AND every round's statistics must be bitwise identical.
fn assert_process_identical<P, M>(make: M, init: &[P::Load], rounds: usize)
where
    P: Protocol + Sync,
    P::Stats: PartialEq + std::fmt::Debug,
    M: Fn() -> P,
{
    use_built_worker();
    let (serial, serial_stats) = run_collecting(
        Engine::serial(make()).with_kernel(KernelKind::Scalar),
        init,
        rounds,
    );
    let name = make().name();
    for partition in [
        PartitionSpec::Range { shards: 3 },
        PartitionSpec::Bfs { shards: 3 },
    ] {
        let backend = Backend::Process {
            partition,
            transport: dlb_core::Transport::Unix,
        };
        let (loads, stats) = run_collecting(Engine::with_backend(make(), backend), init, rounds);
        assert_eq!(
            serial, loads,
            "{name}: serial and {backend:?} loads diverged"
        );
        assert_eq!(
            serial_stats, stats,
            "{name}: serial and {backend:?} statistics diverged"
        );
    }
}

/// Deterministic fixture shared by the process sweep: a 2-D grid (mixed
/// degrees exercise the kernel plan) and loads with bit-rich mantissas.
fn process_fixture() -> (Graph, Vec<f64>, Vec<i64>) {
    let g = topology::grid2d(4, 5);
    let loads: Vec<f64> = (0..g.n()).map(|i| 1.0 + (i as f64) * 13.7).collect();
    let tokens: Vec<i64> = (0..g.n()).map(|i| (i as i64 * 977) % 4021).collect();
    (g, loads, tokens)
}

#[test]
fn process_backend_bit_identical_all_protocols() {
    let (g, loads, tokens) = process_fixture();
    let n = g.n();
    let caps: Vec<f64> = (0..n).map(|i| 0.5 + (i % 5) as f64).collect();
    let icaps: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64 * 0.5).collect();

    assert_process_identical(|| ContinuousDiffusion::new(&g), &loads, 4);
    assert_process_identical(|| GeneralizedDiffusion::new(&g, 6.0), &loads, 4);
    assert_process_identical(|| DiscreteDiffusion::new(&g), &tokens, 4);
    assert_process_identical(|| HeterogeneousDiffusion::new(&g, caps.clone()), &loads, 4);
    assert_process_identical(
        || HeterogeneousDiscreteDiffusion::new(&g, icaps.clone()),
        &tokens,
        4,
    );
    assert_process_identical(|| RandomPartnerContinuous::new(n, 42), &loads, 4);
    assert_process_identical(|| RandomPartnerDiscrete::new(n, 42), &tokens, 4);
    assert_process_identical(|| FirstOrderContinuous::new(&g), &loads, 4);
    assert_process_identical(|| FirstOrderDiscrete::new(&g), &tokens, 4);
    assert_process_identical(|| SecondOrderContinuous::with_beta(&g, 1.7), &loads, 4);
    assert_process_identical(|| ChebyshevContinuous::with_gamma(&g, 0.9), &loads, 4);
    assert_process_identical(
        || MatchingExchangeContinuous::new(&g, MatchingKind::Proposal, 42),
        &loads,
        4,
    );
    assert_process_identical(
        || MatchingExchangeContinuous::new(&g, MatchingKind::GreedyMaximal, 42),
        &loads,
        4,
    );
    assert_process_identical(
        || MatchingExchangeDiscrete::new(&g, MatchingKind::Proposal, 42),
        &tokens,
        4,
    );
    assert_process_identical(
        || MatchingExchangeDiscrete::new(&g, MatchingKind::GreedyMaximal, 42),
        &tokens,
        4,
    );
    assert_process_identical(
        || SequentialComparator::new(&g, dlb_core::seq::AdaptiveOrder::Random, 42),
        &loads,
        4,
    );
}

/// Shards exceeding `n` (empty shards on the wire) and every kernel
/// flavour on the worker side still reproduce the serial trajectory.
#[test]
fn process_backend_edge_shapes_bit_identical() {
    use_built_worker();
    let (g, loads, _) = process_fixture();
    let (serial, serial_stats) = run_collecting(
        Engine::serial(ContinuousDiffusion::new(&g)).with_kernel(KernelKind::Scalar),
        &loads,
        4,
    );
    let backend = Backend::Process {
        partition: PartitionSpec::Range { shards: g.n() + 3 },
        transport: dlb_core::Transport::Unix,
    };
    let (got, got_stats) = run_collecting(
        Engine::with_backend(ContinuousDiffusion::new(&g), backend),
        &loads,
        4,
    );
    assert_eq!(serial, got, "shards > n over the wire diverged");
    assert_eq!(serial_stats, got_stats);

    for kind in KernelKind::ALL {
        let backend = Backend::Process {
            partition: PartitionSpec::Bfs { shards: 3 },
            transport: dlb_core::Transport::Unix,
        };
        let engine = Engine::with_backend(ContinuousDiffusion::new(&g), backend).with_kernel(kind);
        let (got, got_stats) = run_collecting(engine, &loads, 4);
        assert_eq!(
            serial,
            got,
            "process backend with the {} kernel diverged",
            kind.name()
        );
        assert_eq!(serial_stats, got_stats);
    }
}

/// Regular graphs ship a constant divisor list, which workers collapse to
/// one uniform divisor: the torus's 16 takes the exact-reciprocal path,
/// the 5-cube's 20 and every token divisor the broadcast division (the
/// workers run the `DLB_KERNEL` flavour, `unrolled` by default). Both must
/// reproduce the serial scalar trajectory.
#[test]
fn process_backend_uniform_divisors_bit_identical() {
    for g in [topology::torus2d(4, 5), topology::hypercube(5)] {
        let n = g.n();
        let loads: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 13.7).collect();
        let tokens: Vec<i64> = (0..n).map(|i| (i as i64 * 977) % 4021).collect();
        assert_process_identical(|| ContinuousDiffusion::new(&g), &loads, 4);
        assert_process_identical(|| GeneralizedDiffusion::new(&g, 6.0), &loads, 4);
        assert_process_identical(|| DiscreteDiffusion::new(&g), &tokens, 4);
    }
}
