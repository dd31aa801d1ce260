//! Quickstart: diffusion load balancing on a torus in five minutes.
//!
//! ```text
//! cargo run -p dlb-examples --example quickstart [-- --n 1024]
//! ```
//!
//! Builds a √n×√n torus, drops all load on one node, runs the continuous
//! and the discrete Algorithm 1 of Berenbrink–Friedetzky–Hu (IPPS 2006),
//! and checks the measured convergence against the paper's Theorem 4 and
//! Theorem 6 bounds.

use dlb_core::continuous::ContinuousDiffusion;
use dlb_core::discrete::DiscreteDiffusion;
use dlb_core::engine::IntoEngine;
use dlb_core::runner::{rounds_to_epsilon, run_discrete};
use dlb_core::{bounds, potential};
use dlb_examples::{arg_usize, log_sparkline, require_flags};
use dlb_graphs::topology;
use dlb_spectral::closed_form;

fn main() {
    require_flags(&["--n"], &[]);
    let n = arg_usize("--n", 1024);
    let side = (n as f64).sqrt().round() as usize;
    assert!(
        side >= 3 && side * side == n,
        "--n must be a perfect square ≥ 9"
    );

    // 1. The network: a torus, the canonical NUMA/mesh-like topology.
    let g = topology::torus2d(side, side);
    let delta = g.max_degree();
    let lambda2 = closed_form::lambda2_torus2d(side, side);
    println!("network: {side}×{side} torus   n = {n}, δ = {delta}, λ₂ = {lambda2:.5}");

    // 2. Continuous protocol: all load starts on node 0.
    let mut loads = vec![0.0f64; n];
    loads[0] = n as f64 * 100.0;
    let phi0 = potential::phi(&loads);
    let eps = 1e-6;
    let t_paper = bounds::theorem4_rounds(delta, lambda2, eps);
    let mut exec = ContinuousDiffusion::new(&g).engine();
    let out = rounds_to_epsilon(&mut exec, &mut loads, eps, t_paper.ceil() as usize + 10);
    println!("\ncontinuous Algorithm 1 (spike → ε = {eps:.0e}):");
    println!("  Φ₀ = {phi0:.3e}");
    println!("  Theorem 4 bound : {:>8} rounds", t_paper.ceil());
    println!(
        "  measured        : {:>8} rounds   (converged: {})",
        out.rounds, out.converged
    );

    // 3. Discrete protocol: whole tokens, floor rounding.
    let mut tokens = vec![0i64; n];
    tokens[0] = n as i64 * 100_000;
    let phi0_disc = potential::phi_discrete(&tokens);
    let threshold = bounds::theorem6_threshold(delta, lambda2, n);
    let threshold_hat = bounds::theorem6_threshold_hat(delta, lambda2, n);
    let t6 = bounds::theorem6_rounds(delta, lambda2, phi0_disc, n);
    let mut dexec = DiscreteDiffusion::new(&g).engine();
    let dout = run_discrete(
        &mut dexec,
        &mut tokens,
        threshold_hat,
        t6.ceil() as usize + 10,
        true,
    );
    println!("\ndiscrete Algorithm 1 (tokens, plateau Φ* = 64δ³n/λ₂ = {threshold:.3e}):");
    println!("  Φ₀ = {phi0_disc:.3e}");
    println!("  Theorem 6 bound : {:>8} rounds", t6.ceil());
    println!(
        "  measured        : {:>8} rounds   (reached plateau: {})",
        dout.rounds, dout.converged
    );
    println!(
        "  final discrepancy (max−min tokens): {}",
        potential::discrepancy_discrete(&tokens)
    );
    let trace: Vec<f64> = dout
        .trace
        .iter()
        .map(|&p| p as f64 / (n as f64 * n as f64))
        .collect();
    println!("  Φ trace (log scale): {}", log_sparkline(&trace, 1e-6));

    println!(
        "\nboth runs sit inside the paper's bounds — see `repro all` for the full \
         experiment suite (E1–E18)."
    );
}
