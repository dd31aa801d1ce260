//! Cluster scheduler scenario: token balancing as job-queue equalization.
//!
//! ```text
//! cargo run -p dlb-examples --example cluster_scheduler [-- --racks 16]
//! ```
//!
//! A datacenter with `racks × 32` worker nodes on a torus-of-racks
//! interconnect receives a bursty batch of jobs: a few ingress nodes get
//! huge queues while the rest idle. Jobs are indivisible (the *discrete*
//! model), and each scheduling tick every node may hand jobs to directly
//! connected peers — exactly Algorithm 1. The example races the BFH
//! protocol against dimension exchange [12] and first-order diffusion
//! [15], and reports ticks until the worst queue is within 10% of the
//! mean.

use dlb_baselines::{FirstOrderDiscrete, MatchingExchangeDiscrete, MatchingKind};
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::IntoEngine;
use dlb_core::model::DiscreteBalancer;
use dlb_core::potential;
use dlb_examples::{arg_usize, require_flags};
use dlb_graphs::topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ticks until `max queue ≤ 1.1 × mean` (or the budget runs out).
fn ticks_to_near_balance(b: &mut dyn DiscreteBalancer, mut queues: Vec<i64>) -> (usize, i64) {
    let mean = potential::total_discrete(&queues) / queues.len() as i128;
    let target = (mean as f64 * 1.1).ceil() as i64;
    for tick in 0..200_000 {
        let max = *queues.iter().max().expect("non-empty");
        if max <= target {
            return (tick, potential::discrepancy_discrete(&queues));
        }
        b.round(&mut queues);
    }
    (200_000, potential::discrepancy_discrete(&queues))
}

fn main() {
    require_flags(&["--racks"], &[]);
    let racks = arg_usize("--racks", 16);
    assert!(racks >= 3, "--racks must be ≥ 3");
    let per_rack = 32usize;
    let n = racks * per_rack;

    // Interconnect: torus over racks × workers (wraparound in both
    // dimensions — a common mesh fabric shape).
    let g = topology::torus2d(racks, per_rack);
    println!(
        "cluster: {racks} racks × {per_rack} workers = {n} nodes on a torus fabric \
         (δ = {})",
        g.max_degree()
    );

    // Bursty arrival: 4 ingress nodes receive ~250k jobs each.
    let mut rng = StdRng::seed_from_u64(0xC1);
    let mut queues = vec![0i64; n];
    for _ in 0..4 {
        let ingress = rng.gen_range(0..n);
        queues[ingress] += 250_000;
    }
    let mean = potential::total_discrete(&queues) / n as i128;
    println!("burst: 1M jobs on 4 ingress nodes; target steady-state ≈ {mean} jobs/node\n");

    println!(
        "{:<28}{:>12}{:>22}",
        "protocol", "ticks", "final max−min (jobs)"
    );
    println!("{}", "-".repeat(62));
    let rows: Vec<(&str, (usize, i64))> = vec![
        (
            "BFH Algorithm 1",
            ticks_to_near_balance(&mut DiscreteDiffusion::new(&g).engine(), queues.clone()),
        ),
        (
            "dimension exchange [12]",
            ticks_to_near_balance(
                &mut MatchingExchangeDiscrete::new(&g, MatchingKind::Proposal, 7).engine(),
                queues.clone(),
            ),
        ),
        (
            "dim. exchange (greedy M)",
            ticks_to_near_balance(
                &mut MatchingExchangeDiscrete::new(&g, MatchingKind::GreedyMaximal, 7).engine(),
                queues.clone(),
            ),
        ),
        (
            "first-order scheme [15]",
            ticks_to_near_balance(&mut FirstOrderDiscrete::new(&g).engine(), queues.clone()),
        ),
    ];
    for (name, (ticks, spread)) in &rows {
        println!("{name:<28}{ticks:>12}{spread:>22}");
    }

    let alg1 = rows[0].1 .0 as f64;
    let gm = rows[1].1 .0 as f64;
    println!(
        "\nAlgorithm 1 needed {:.1}× fewer ticks than matching-based dimension exchange — \
         the paper's Section 3 claim, in job-scheduler clothing.",
        gm / alg1
    );
    println!(
        "(jobs are conserved exactly: the discrete executor moves whole tokens and the \
         final spread is bounded by the Theorem 6 plateau.)"
    );
}
