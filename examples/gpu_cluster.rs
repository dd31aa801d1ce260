//! Heterogeneous cluster: capacity-proportional balancing (extension E15).
//!
//! ```text
//! cargo run --release -p dlb-examples --example gpu_cluster [-- --side 16]
//! ```
//!
//! A mixed cluster: most workers are CPU nodes (capacity 1), one in eight
//! is a GPU node that processes work 8× faster (capacity 8). Plain
//! diffusion would equalize *queue lengths* — leaving GPUs starved and
//! CPUs drowning. The heterogeneous protocol balances *normalized* load
//! `ℓᵢ/cᵢ`, so every node finishes its queue at the same time.

use dlb_core::engine::IntoEngine;
use dlb_core::heterogeneous::{proportional_target, weighted_phi, HeterogeneousDiffusion};
use dlb_core::potential;
use dlb_examples::{arg_usize, require_flags};
use dlb_graphs::topology;

fn main() {
    require_flags(&["--side"], &[]);
    let side = arg_usize("--side", 16);
    let n = side * side;
    let g = topology::torus2d(side, side);

    // One GPU per 8 workers.
    let caps: Vec<f64> = (0..n).map(|i| if i % 8 == 0 { 8.0 } else { 1.0 }).collect();
    let total_capacity: f64 = caps.iter().sum();
    println!(
        "cluster: {side}×{side} torus, {} GPU nodes (cap 8) + {} CPU nodes (cap 1)",
        n / 8 + usize::from(!n.is_multiple_of(8)),
        n - n / 8 - usize::from(!n.is_multiple_of(8)),
    );

    // A burst of 100k work items lands on one ingress node.
    let mut queue = vec![0.0f64; n];
    queue[n / 2] = 100_000.0;
    let total: f64 = queue.iter().sum();
    let rho = total / total_capacity;
    println!("burst: {total} items on one node; ideal per-unit-capacity share ρ = {rho:.1}\n");

    // Heterogeneous diffusion.
    let mut hetero = HeterogeneousDiffusion::new(&g, caps.clone()).engine();
    let mut h_queue = queue.clone();
    let phi0 = weighted_phi(&h_queue, &caps);
    let mut rounds = 0usize;
    while weighted_phi(&h_queue, &caps) > 1e-8 * phi0 && rounds < 100_000 {
        hetero.round(&mut h_queue);
        rounds += 1;
    }
    let target = proportional_target(&h_queue, &caps);
    let worst_dev = h_queue
        .iter()
        .zip(&target)
        .map(|(&l, &t)| ((l - t) / t).abs())
        .fold(0.0f64, f64::max);
    let gpu_share = h_queue[0]; // node 0 is a GPU (0 % 8 == 0)
    let cpu_share = h_queue[1];
    println!("heterogeneous diffusion (capacity-aware):");
    println!("  converged in {rounds} rounds");
    println!("  GPU node queue ≈ {gpu_share:.1}   CPU node queue ≈ {cpu_share:.1}  (ratio ≈ 8)");
    println!("  worst relative deviation from cᵢ·ρ: {worst_dev:.2e}");

    // Contrast: homogeneous diffusion equalizes raw queues.
    let mut homo = dlb_core::continuous::ContinuousDiffusion::new(&g).engine();
    let mut q2 = queue;
    homo.rounds(&mut q2, rounds.max(2000));
    println!("\nplain Algorithm 1 (capacity-blind), same rounds:");
    println!(
        "  GPU node queue ≈ {:.1}   CPU node queue ≈ {:.1}",
        q2[0], q2[1]
    );
    println!(
        "  → every queue ≈ {:.1} items: GPUs idle 8× too early; makespan is {:.2}× worse.",
        potential::mean(&q2),
        // Makespan ratio: CPU finish time (items/cap 1) vs ideal ρ.
        potential::mean(&q2) / rho
    );

    println!(
        "\nthe min(cᵢ,cⱼ)-capped transfer keeps the weighted potential Φ_c strictly \
         decreasing, mirroring the paper's Lemma 1 argument in the weighted geometry \
         (see crates/core/src/heterogeneous.rs and experiment E15)."
    );
}
