//! The four benchmark workloads and the seeded inputs they run on.
//!
//! Why each workload exists, and which layer it stresses, is recorded in
//! `README.md` next to this crate.

use dlb_core::engine::StatsMode;
use dlb_core::init;
use dlb_core::{Backend, Transport};
use dlb_graphs::partition::PartitionSpec;
use dlb_graphs::{topology, Graph};
use dlb_workloads::{Arrivals, Compose, Drain, Placement, RatePattern, StopSpec, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every node changes every round; serial executor; stats off.
    DenseSerial,
    /// One node changes per round; resident message executor; stats off.
    SparseResident,
    /// The same inputs as `SparseResident` on worker processes.
    SparseProcess,
    /// No arrivals; converge to ε on the pool executor with full stats.
    ConvergePool,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, Kind); 4] = [
    ("torus-dense-serial", Kind::DenseSerial),
    ("torus-sparse-resident", Kind::SparseResident),
    ("torus-sparse-process", Kind::SparseProcess),
    ("hypercube-converge-pool", Kind::ConvergePool),
];

/// Problem sizes. `full` is the benchmark of record; `tiny` exists for the
/// self-tests, which only check that every metric is produced.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub torus_side: usize,
    pub hypercube_dim: u32,
    /// Rounds per scenario run on the fixed-length workloads.
    pub rounds: usize,
    /// Set-ups per invocation; `setup_s` is their median.
    pub setups: usize,
}

impl Size {
    pub fn full() -> Size {
        Size {
            torus_side: 1000,
            hypercube_dim: 20,
            rounds: 100,
            setups: 5,
        }
    }

    pub fn tiny() -> Size {
        Size {
            torus_side: 128,
            hypercube_dim: 10,
            rounds: 100,
            setups: 2,
        }
    }
}

/// Average initial load per node.
const AVG_LOAD: f64 = 100.0;
/// Load arriving per round on the sparse workloads, all on one node: one
/// average node's worth, so arrivals stay small beside Φ₀ at every size.
const SPARSE_ARRIVAL: f64 = AVG_LOAD;
/// Shards (worker threads or processes) on every parallel executor.
const SHARDS: usize = 2;
/// Round cap of a converge run, far above the Theorem 4 bound at ε.
const CONVERGE_MAX_ROUNDS: usize = 5000;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub size: Size,
}

impl Spec {
    pub fn by_name(name: &str, size: Size) -> Option<Spec> {
        WORKLOADS
            .into_iter()
            .find(|&(n, _)| n == name)
            .map(|(name, kind)| Spec { name, kind, size })
    }

    pub fn n(&self) -> usize {
        match self.kind {
            Kind::ConvergePool => 1 << self.size.hypercube_dim,
            _ => self.size.torus_side * self.size.torus_side,
        }
    }

    /// CSR adjacency slots (directed edges) the gather reads per round.
    pub fn csr_slots(&self) -> usize {
        match self.kind {
            Kind::ConvergePool => self.n() * self.size.hypercube_dim as usize,
            _ => self.n() * 4,
        }
    }

    /// Bytes one gather round touches, computed from array sizes (cache
    /// hits and misses ignored): per CSR slot a 4 B neighbour id, an 8 B
    /// divisor and the 8 B neighbour load; per node an 8 B offset, its own
    /// 8 B load and the 8 B result.
    pub fn gather_bytes(&self) -> usize {
        self.csr_slots() * 20 + self.n() * 24
    }

    pub fn build_graph(&self) -> Graph {
        match self.kind {
            Kind::ConvergePool => topology::hypercube(self.size.hypercube_dim),
            _ => topology::torus2d(self.size.torus_side, self.size.torus_side),
        }
    }

    /// Closed-form λ₂ of the workload's graph.
    pub fn lambda2(&self) -> f64 {
        match self.kind {
            Kind::ConvergePool => {
                dlb_spectral::closed_form::lambda2_hypercube(self.size.hypercube_dim)
            }
            _ => dlb_spectral::closed_form::lambda2_torus2d(
                self.size.torus_side,
                self.size.torus_side,
            ),
        }
    }

    pub fn partition(&self) -> Option<PartitionSpec> {
        match self.kind {
            Kind::SparseResident | Kind::SparseProcess => {
                Some(PartitionSpec::Bfs { shards: SHARDS })
            }
            _ => None,
        }
    }

    pub fn backend(&self) -> Backend {
        match self.kind {
            Kind::DenseSerial => Backend::Serial,
            Kind::SparseResident => Backend::Message {
                partition: PartitionSpec::Bfs { shards: SHARDS },
                resident: true,
            },
            Kind::SparseProcess => Backend::Process {
                partition: PartitionSpec::Bfs { shards: SHARDS },
                transport: Transport::Unix,
            },
            Kind::ConvergePool => Backend::Pool { threads: SHARDS },
        }
    }

    /// Span lanes a recorder needs for this backend's shard workers.
    pub fn lanes(&self) -> usize {
        self.partition().map_or(0, |p| p.shards())
    }

    pub fn stats(&self) -> StatsMode {
        match self.kind {
            Kind::ConvergePool => StatsMode::Full,
            _ => StatsMode::Off,
        }
    }

    /// The ε of `rounds_to_eps`/`time_to_eps_s`. On the converge workload
    /// it is also the stop condition; the fixed-length workloads report
    /// when their Φ first falls to ε·Φ₀ and run on to their round budget.
    pub fn eps(&self) -> f64 {
        match self.kind {
            Kind::DenseSerial => 0.005,
            Kind::SparseResident | Kind::SparseProcess => 0.01,
            Kind::ConvergePool => 1e-8,
        }
    }

    pub fn stop(&self, phi0: f64) -> StopSpec {
        match self.kind {
            Kind::ConvergePool => StopSpec::PhiBelow {
                target: self.eps() * phi0,
                max_rounds: CONVERGE_MAX_ROUNDS,
            },
            _ => StopSpec::Rounds {
                rounds: self.size.rounds,
            },
        }
    }

    /// Whether results must match a serial replay bit for bit (the
    /// distributed executors).
    pub fn replays(&self) -> bool {
        matches!(self.kind, Kind::SparseResident | Kind::SparseProcess)
    }

    /// Whether Theorem 4 is checked as an oracle (workload-free runs only:
    /// arrivals may raise Φ, which the theorem does not cover).
    pub fn oracle(&self) -> bool {
        self.kind == Kind::ConvergePool
    }

    pub fn workload(&self, inputs: &Inputs) -> Option<Box<dyn Workload<f64>>> {
        match self.kind {
            Kind::DenseSerial => {
                let n = inputs.init.len() as f64;
                Some(Box::new(Compose::new(vec![
                    Box::new(Arrivals::bursty(2.0 * n, 0.0, 10, 10)),
                    Box::new(Drain::proportional(0.01)),
                ])))
            }
            Kind::SparseResident | Kind::SparseProcess => Some(Box::new(Arrivals::new(
                RatePattern::Constant {
                    per_round: SPARSE_ARRIVAL,
                },
                Placement::RandomNode(StdRng::seed_from_u64(inputs.placement_seed)),
            ))),
            Kind::ConvergePool => None,
        }
    }
}

/// Everything the program receives, derived from the benchmark seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub init: Vec<f64>,
    pub placement_seed: u64,
}

impl Inputs {
    pub fn generate(n: usize, seed: u64) -> Inputs {
        let init_seed = splitmix64(seed ^ 0x696e_6974);
        let placement_seed = splitmix64(seed ^ 0x706c_6163);
        let mut rng = StdRng::seed_from_u64(init_seed);
        Inputs {
            init: init::continuous_loads(n, AVG_LOAD, init::Workload::UniformRandom, &mut rng),
            placement_seed,
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
