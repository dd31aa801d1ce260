//! Dynamic P2P overlay: balancing under churn and outages.
//!
//! ```text
//! cargo run -p dlb-examples --example dynamic_p2p [-- --n 256]
//! ```
//!
//! A peer-to-peer storage overlay wants every peer to hold a similar
//! number of objects. Links come and go (Markov churn over a random
//! 8-regular ground overlay), every 10th tick the network blacks out
//! entirely, and — in a second scenario — peers have no overlay at all
//! and just gossip with a uniformly random partner each tick
//! (Algorithm 2). This exercises the paper's Section 5 (Theorems 7/8) and
//! Section 6 (Theorems 12/14) machinery on one realistic workload.

use dlb_core::engine::IntoEngine;
use dlb_core::potential;
use dlb_core::random_partner::RandomPartnerContinuous;
use dlb_dynamics::{run_dynamic_continuous, MarkovChurnSequence, OutageSequence};
use dlb_examples::{arg_usize, log_sparkline, require_flags};
use dlb_graphs::topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    require_flags(&["--n"], &[]);
    let n = arg_usize("--n", 256);
    assert!(n >= 16, "--n must be ≥ 16");
    let mut rng = StdRng::seed_from_u64(0xD2D);

    // Initial object placement: heavy-tailed (a few peers joined early and
    // hold most objects).
    let mut objects = vec![0.0f64; n];
    for o in objects.iter_mut() {
        *o = if rng.gen::<f64>() < 0.05 {
            rng.gen_range(5_000.0..20_000.0)
        } else {
            rng.gen_range(0.0..100.0)
        };
    }
    let phi0 = potential::phi(&objects);
    println!(
        "overlay: {n} peers, heavy-tailed placement; Φ₀ = {phi0:.3e}, \
         max/mean = {:.1}",
        objects.iter().cloned().fold(f64::MIN, f64::max) / potential::mean(&objects)
    );

    // Scenario A: structured overlay with churn + periodic total outages.
    let ground = topology::random_regular(n, 8, &mut rng);
    let churn = MarkovChurnSequence::new(ground, 0.3, 0.5, 0xD2D);
    let mut seq = OutageSequence::new(churn, 10);
    let mut a_loads = objects.clone();
    let target = 1e-6 * phi0;
    let out = run_dynamic_continuous(&mut seq, &mut a_loads, target, 100_000, false);
    println!("\nscenario A — 8-regular overlay, Markov churn (30%/50%), outage every 10th tick:");
    println!(
        "  converged to 1e-6·Φ₀ in {} ticks (link availability ≈ {:.0}%, plus total \
         outages)",
        out.rounds,
        100.0 * 0.5 / (0.3 + 0.5)
    );
    println!(
        "  objects conserved: drift {:.2e} (relative)",
        (a_loads.iter().sum::<f64>() - objects.iter().sum::<f64>()).abs()
            / objects.iter().sum::<f64>()
    );

    // Scenario B: no overlay — Algorithm 2 gossip.
    let mut b_loads = objects.clone();
    let mut alg2 = RandomPartnerContinuous::new(n, 0xD2D).engine();
    let mut trace = vec![potential::phi(&b_loads)];
    let mut ticks = 0usize;
    while *trace.last().expect("non-empty") > target && ticks < 100_000 {
        let s = alg2.round(&mut b_loads).expect("full stats");
        trace.push(s.phi_after);
        ticks += 1;
    }
    println!("\nscenario B — overlay-free gossip (Algorithm 2, uniform random partners):");
    println!("  converged to 1e-6·Φ₀ in {ticks} ticks");
    println!("  Φ trace (log): {}", log_sparkline(&trace, target));
    println!(
        "  Theorem 12 budget for this Φ₀ (c = ln(1/1e-6·Φ₀) regime): {} ticks — the \
         measured run uses a tiny fraction of it.",
        (120.0 * phi0.ln()).ceil()
    );

    println!(
        "\ntakeaway: with *any* overlay that is connected on average, diffusion heals the \
         imbalance; with none at all, random partners still give network-independent \
         logarithmic convergence (Section 6)."
    );
}
