//! The `touched` contract of [`Workload::apply`]: every node whose value
//! an application changed must appear in the returned
//! [`WorkloadDelta::touched`] report. Shard-resident runs ship exactly the
//! reported nodes to their owners, so a missed node would silently fork a
//! worker's loads from the serial trajectory. Each case checks the report
//! against a full before/after diff of the load vector, bit for bit.

use dlb_workloads::{
    zipf_weights, Arrivals, Compose, Drain, Placement, RatePattern, ScenarioLoad, Touched,
    Workload, WorkloadCtx, WorkloadDelta,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CTX: WorkloadCtx = WorkloadCtx { initial_total: 0.0 };

/// Exact identity of a load value (`-0.0` and `0.0` differ).
trait Bits: ScenarioLoad {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for i64 {
    fn bits(self) -> u64 {
        self as u64
    }
}

fn patterns(rate: f64) -> Vec<RatePattern> {
    vec![
        RatePattern::Constant { per_round: rate },
        RatePattern::OnOff {
            high: rate,
            low: rate / 8.0,
            on_rounds: 2,
            off_rounds: 3,
        },
        RatePattern::Diurnal {
            mean: rate,
            amplitude: 1.5,
            period: 7,
        },
        // A bursty source with silent off phases.
        RatePattern::OnOff {
            high: rate,
            low: 0.0,
            on_rounds: 3,
            off_rounds: 2,
        },
    ]
}

fn placements(n: usize, seed: u64) -> Vec<Placement> {
    vec![
        Placement::Uniform,
        Placement::Weighted(zipf_weights(n, 1.1, seed)),
        Placement::Hotspot((seed % n as u64) as u32),
        Placement::MaxLoaded,
        Placement::RandomNode(StdRng::seed_from_u64(seed)),
    ]
}

/// Every workload shape the crate ships, over `n` nodes.
fn all_workloads<L: ScenarioLoad>(n: usize, seed: u64, rate: f64) -> Vec<Box<dyn Workload<L>>> {
    let mut out: Vec<Box<dyn Workload<L>>> = Vec::new();
    for pattern in patterns(rate) {
        for placement in placements(n, seed) {
            out.push(Box::new(Arrivals::new(pattern.clone(), placement)));
        }
    }
    out.push(Box::new(Drain::fixed_capacity(rate / n as f64)));
    out.push(Box::new(Drain::proportional(0.1)));
    // Two sparse parts: the report is the union of both node lists.
    out.push(Box::new(Compose::new(vec![
        Box::new(Arrivals::new(
            RatePattern::Constant { per_round: rate },
            Placement::Hotspot(0),
        )),
        Box::new(Arrivals::new(
            RatePattern::Constant { per_round: rate },
            Placement::RandomNode(StdRng::seed_from_u64(seed ^ 1)),
        )),
    ])));
    // A sparse part and a dense one: the report is every node.
    out.push(Box::new(Compose::new(vec![
        Box::new(Arrivals::adversarial(rate)),
        Box::new(Drain::proportional(0.05)),
    ])));
    out.push(Box::new(Compose::new(Vec::new())));
    out
}

/// Applies `w` for `rounds` rounds and checks each report against the
/// diff of the loads it produced.
fn check_reports<L: Bits>(w: &mut dyn Workload<L>, loads: &mut [L], rounds: u64) {
    let mut before = loads.to_vec();
    for round in 1..=rounds {
        before.copy_from_slice(loads);
        let delta = w.apply(round, loads, &CTX);
        for (v, (&a, &b)) in before.iter().zip(loads.iter()).enumerate() {
            if a.bits() == b.bits() {
                continue;
            }
            let reported = match &delta.touched {
                Touched::All => true,
                Touched::Nodes(nodes) => nodes.contains(&(v as u32)),
            };
            assert!(
                reported,
                "{}: round {round} changed node {v} ({a:?} -> {b:?}) but reported {:?}",
                w.name(),
                delta.touched
            );
        }
    }
}

#[test]
fn default_delta_reports_every_node() {
    assert_eq!(WorkloadDelta::default().touched, Touched::All);
}

#[test]
fn sparse_placements_report_only_their_node() {
    let mut loads = vec![1.0f64; 8];
    let mut w = Arrivals::new(
        RatePattern::Constant { per_round: 3.0 },
        Placement::Hotspot(5),
    );
    let delta = Workload::<f64>::apply(&mut w, 1, &mut loads, &CTX);
    assert_eq!(delta.touched, Touched::Nodes(vec![5]));
    let mut empty: Compose<f64> = Compose::new(Vec::new());
    assert_eq!(
        empty.apply(1, &mut loads, &CTX).touched,
        Touched::Nodes(Vec::new())
    );
}

#[test]
fn zero_rate_rounds_of_spread_placements_report_no_node() {
    for placement in [
        Placement::Uniform,
        Placement::Weighted(zipf_weights(8, 1.1, 3)),
    ] {
        let mut w = Arrivals::new(
            RatePattern::OnOff {
                high: 16.0,
                low: 0.0,
                on_rounds: 1,
                off_rounds: 1,
            },
            placement,
        );
        let mut loads = vec![1i64; 8];
        let on = Workload::<i64>::apply(&mut w, 1, &mut loads, &CTX);
        assert_eq!(on.touched, Touched::All);
        let before = loads.clone();
        let off = Workload::<i64>::apply(&mut w, 2, &mut loads, &CTX);
        assert_eq!(off.touched, Touched::Nodes(Vec::new()));
        assert_eq!(loads, before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn continuous_reports_cover_every_change(
        loads in proptest::collection::vec(-50.0f64..500.0, 2..40),
        seed in 0u64..1_000,
        rate in 0.0f64..200.0,
    ) {
        for mut w in all_workloads::<f64>(loads.len(), seed, rate) {
            check_reports(w.as_mut(), &mut loads.clone(), 12);
        }
    }

    #[test]
    fn token_reports_cover_every_change(
        loads in proptest::collection::vec(-50i64..500, 2..40),
        seed in 0u64..1_000,
        rate in 0.0f64..200.0,
    ) {
        for mut w in all_workloads::<i64>(loads.len(), seed, rate) {
            check_reports(w.as_mut(), &mut loads.clone(), 12);
        }
    }
}
