//! Algorithm 1 (continuous case) as an engine [`Protocol`].
//!
//! One synchronous round, exactly as the paper's `diff-balancing(G)`:
//! every node `i`, in parallel, sends `(ℓᵢ − ℓⱼ)/(4·max(dᵢ, dⱼ))` to each
//! neighbour `j` with `ℓⱼ < ℓᵢ`.
//!
//! ### Gather formulation
//!
//! Because the per-edge flow is an odd function of the load difference, a
//! round is equivalently written as the *gather*
//!
//! ```text
//! ℓᵢ ← ℓᵢ + Σ_{j ∈ N(i)} (ℓⱼ − ℓᵢ) / (4·max(dᵢ, dⱼ))
//! ```
//!
//! evaluated against an immutable snapshot of round-start loads — which is
//! exactly the engine's round shape, so [`ContinuousDiffusion`] is a thin
//! [`Protocol`]: its kernel is one summation in CSR neighbour order over
//! the divisors `4·max(dᵢ, dⱼ)`, decided at construction as one uniform
//! value on a regular graph or tables precomputed per CSR slot otherwise
//! (see [`Divisors`] and [`dlb_graphs::weights`]). Serial and parallel
//! execution are bit-identical by the engine's contract, and the
//! precomputed divisors are bit-identical to the historical on-the-fly
//! computation (pinned by golden fixtures in the workspace test-suite).

use crate::engine::{FlowTally, Protocol, StatsCtx};
use crate::kernels::{exact_reciprocal, gather_node, Divisors};
use crate::model::RoundStats;
use dlb_graphs::Graph;

/// Per-edge flow divisor `4·max(dᵢ, dⱼ)` of Algorithm 1.
#[inline]
pub fn edge_divisor(g: &Graph, u: u32, v: u32) -> f64 {
    4.0 * g.degree(u).max(g.degree(v)) as f64
}

/// The reference gather kernel of continuous Algorithm 1, with the divisor
/// computed on the fly from degree lookups: node `v`'s new load from the
/// round-start snapshot.
///
/// This is *the* definition of the concurrent round. The fixed-network
/// protocol below performs the bit-identical computation against
/// precomputed divisors; the dynamic protocols (whose graph changes every
/// round, so there is nothing to amortize) and the engine benchmarks call
/// this form directly.
#[inline]
pub fn node_new_load(g: &Graph, snapshot: &[f64], v: u32) -> f64 {
    let lv = snapshot[v as usize];
    let dv = g.degree(v);
    let mut acc = lv;
    for &u in g.neighbors(v) {
        let c = 4.0 * dv.max(g.degree(u)) as f64;
        acc += (snapshot[u as usize] - lv) / c;
    }
    acc
}

/// Per-round flow statistics over edge-list-aligned precomputed divisors,
/// reduced in blocked order through `ctx` (pool-parallel when available).
/// A uniform power-of-two divisor multiplies by its exact reciprocal,
/// bit-identical to dividing (see [`crate::kernels`]).
pub(crate) fn flow_tally_precomputed(
    g: &Graph,
    edge_div: &Divisors<f64>,
    snapshot: &[f64],
    ctx: &StatsCtx<'_>,
) -> FlowTally {
    let edges = g.edges();
    let diff = |k: usize| {
        let (u, v) = edges[k];
        (snapshot[u as usize] - snapshot[v as usize]).abs()
    };
    match edge_div {
        Divisors::Table(t) => ctx.flow_tally(edges.len(), |k| diff(k) / t[k]),
        &Divisors::Uniform(c) => match exact_reciprocal(c) {
            Some(r) => ctx.flow_tally(edges.len(), |k| diff(k) * r),
            None => ctx.flow_tally(edges.len(), |k| diff(k) / c),
        },
    }
}

/// Continuous Algorithm 1 on a fixed network.
///
/// Run it through the engine: `ContinuousDiffusion::new(&g).engine()` for
/// the serial executor, `.engine_parallel(threads)` for the pooled one.
#[derive(Debug)]
pub struct ContinuousDiffusion<'g> {
    g: &'g Graph,
    /// CSR-slot-aligned divisors `4·max(dᵢ, dⱼ)` (one value on a regular
    /// graph).
    slot_div: Divisors<f64>,
    /// Edge-list-aligned divisors for the statistics sweep.
    edge_div: Divisors<f64>,
}

impl<'g> ContinuousDiffusion<'g> {
    /// Creates the protocol for `g`, precomputing the edge divisors (one
    /// uniform value when `g` is regular).
    pub fn new(g: &'g Graph) -> Self {
        let (slot_div, edge_div) = Divisors::of_graph(g, 4.0);
        ContinuousDiffusion {
            g,
            slot_div,
            edge_div,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }
}

impl Protocol for ContinuousDiffusion<'_> {
    // `begin_round`/`finish_round` never read the snapshot, so resident
    // message sessions may skip the collect phase on stats-off rounds.
    fn hooks_read_loads(&self) -> bool {
        false
    }

    type Load = f64;
    type Stats = RoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "alg1-cont"
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        gather_node(self.g, &self.slot_div, snapshot, v)
    }

    fn compute_stats(
        &mut self,
        snapshot: &[f64],
        new_loads: &[f64],
        ctx: &StatsCtx<'_>,
    ) -> RoundStats {
        flow_tally_precomputed(self.g, &self.edge_div, snapshot, ctx)
            .stats(ctx.phi(snapshot), ctx.phi(new_loads))
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }

    fn gather_spec(&self) -> Option<crate::kernels::GatherSpec<'_, f64>> {
        Some(crate::kernels::GatherSpec {
            graph: self.g,
            slot_div: &self.slot_div,
        })
    }
}

/// Generalized protocol with a configurable divisor factor `k`:
/// transfers `(ℓᵢ − ℓⱼ)/(k·max(dᵢ, dⱼ))` per edge.
///
/// The paper fixes `k = 4`; this protocol exists to *ablate* that choice
/// (experiment E17): `k ∈ {1, 2}` can overshoot — the potential may
/// oscillate or even increase on high-degree nodes — while large `k`
/// converges monotonically but proportionally slower. `k = 4` matches
/// [`ContinuousDiffusion`] exactly.
#[derive(Debug)]
pub struct GeneralizedDiffusion<'g> {
    g: &'g Graph,
    factor: f64,
    slot_div: Divisors<f64>,
    edge_div: Divisors<f64>,
}

impl<'g> GeneralizedDiffusion<'g> {
    /// Creates the protocol with divisor factor `k > 0`.
    pub fn new(g: &'g Graph, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "divisor factor must be positive"
        );
        let (slot_div, edge_div) = Divisors::of_graph(g, factor);
        GeneralizedDiffusion {
            g,
            factor,
            slot_div,
            edge_div,
        }
    }

    /// The divisor factor `k`.
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl Protocol for GeneralizedDiffusion<'_> {
    // `begin_round`/`finish_round` never read the snapshot, so resident
    // message sessions may skip the collect phase on stats-off rounds.
    fn hooks_read_loads(&self) -> bool {
        false
    }

    type Load = f64;
    type Stats = RoundStats;

    fn n(&self) -> usize {
        self.g.n()
    }

    fn name(&self) -> &'static str {
        "alg1-general"
    }

    #[inline]
    fn node_new_load(&self, snapshot: &[f64], v: u32) -> f64 {
        gather_node(self.g, &self.slot_div, snapshot, v)
    }

    fn compute_stats(
        &mut self,
        snapshot: &[f64],
        new_loads: &[f64],
        ctx: &StatsCtx<'_>,
    ) -> RoundStats {
        flow_tally_precomputed(self.g, &self.edge_div, snapshot, ctx)
            .stats(ctx.phi(snapshot), ctx.phi(new_loads))
    }

    fn current_graph(&self) -> Option<&Graph> {
        Some(self.g)
    }

    fn gather_spec(&self) -> Option<crate::kernels::GatherSpec<'_, f64>> {
        Some(crate::kernels::GatherSpec {
            graph: self.g,
            slot_div: &self.slot_div,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IntoEngine;
    use crate::potential;
    use dlb_graphs::topology;

    fn total(loads: &[f64]) -> f64 {
        loads.iter().sum()
    }

    #[test]
    fn single_edge_moves_quarter_of_difference() {
        // P_2: degrees 1,1; flow = (l0-l1)/4.
        let g = topology::path(2);
        let mut loads = vec![8.0, 0.0];
        let stats = ContinuousDiffusion::new(&g)
            .engine()
            .round(&mut loads)
            .expect("full stats");
        assert!((loads[0] - 6.0).abs() < 1e-12);
        assert!((loads[1] - 2.0).abs() < 1e-12);
        assert_eq!(stats.active_edges, 1);
        assert!((stats.total_flow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_vector_is_fixed_point() {
        let g = topology::torus2d(3, 3);
        let mut loads = vec![4.0; 9];
        let stats = ContinuousDiffusion::new(&g)
            .engine()
            .round(&mut loads)
            .expect("full stats");
        assert!(loads.iter().all(|&l| (l - 4.0).abs() < 1e-12));
        assert_eq!(stats.active_edges, 0);
        assert_eq!(stats.phi_after, 0.0);
    }

    #[test]
    fn load_conserved() {
        let g = topology::hypercube(4);
        let mut loads: Vec<f64> = (0..16).map(|i| (i * i % 23) as f64).collect();
        let before = total(&loads);
        let mut d = ContinuousDiffusion::new(&g).engine();
        for _ in 0..50 {
            d.round(&mut loads);
        }
        assert!((total(&loads) - before).abs() < 1e-9 * before.abs().max(1.0));
    }

    #[test]
    fn potential_never_increases() {
        let g = topology::cycle(12);
        let mut loads: Vec<f64> = (0..12).map(|i| ((i * 7 + 3) % 11) as f64).collect();
        let mut d = ContinuousDiffusion::new(&g).engine();
        for _ in 0..100 {
            let s = d.round(&mut loads).expect("full stats");
            assert!(
                s.phi_after <= s.phi_before + 1e-9,
                "potential increased: {} -> {}",
                s.phi_before,
                s.phi_after
            );
        }
    }

    #[test]
    fn converges_on_star() {
        let g = topology::star(8);
        let mut loads = vec![0.0; 8];
        loads[0] = 80.0;
        let mut d = ContinuousDiffusion::new(&g).engine();
        for _ in 0..400 {
            d.round(&mut loads);
        }
        let mu = potential::mean(&loads);
        assert!((mu - 10.0).abs() < 1e-9);
        assert!(
            potential::phi(&loads) < 1e-6,
            "Φ = {}",
            potential::phi(&loads)
        );
    }

    #[test]
    fn theorem4_rate_holds_per_round() {
        // Per-round relative drop must be at least λ₂/(4δ) (Theorem 4's
        // Inequality 3) — checked on a cycle with a spike.
        let n = 16;
        let g = topology::cycle(n);
        let lambda2 = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        let rate = lambda2 / (4.0 * g.max_degree() as f64);
        let mut loads = vec![0.0; n];
        loads[0] = n as f64;
        let mut d = ContinuousDiffusion::new(&g).engine();
        for _ in 0..200 {
            let s = d.round(&mut loads).expect("full stats");
            if s.phi_before < 1e-12 {
                break;
            }
            assert!(
                s.relative_drop() >= rate - 1e-9,
                "relative drop {} < λ₂/4δ = {}",
                s.relative_drop(),
                rate
            );
        }
    }

    #[test]
    fn flows_bounded_by_degree_rule() {
        let g = topology::complete(6);
        let mut loads: Vec<f64> = (0..6).map(|i| (i * 10) as f64).collect();
        let s = ContinuousDiffusion::new(&g)
            .engine()
            .round(&mut loads)
            .expect("full stats");
        // max single-edge flow on K_6: diff 50, divisor 4*5 = 20 -> 2.5.
        assert!((s.max_flow - 2.5).abs() < 1e-12);
    }

    #[test]
    fn negative_loads_allowed() {
        // The model is translation-invariant; negative "loads" are just a
        // shifted instance.
        let g = topology::path(4);
        let mut loads = vec![-10.0, 0.0, 0.0, 10.0];
        let shifted: Vec<f64> = loads.iter().map(|l| l + 10.0).collect();
        let mut d = ContinuousDiffusion::new(&g).engine();
        let mut d2 = ContinuousDiffusion::new(&g).engine();
        let mut loads2 = shifted;
        for _ in 0..10 {
            d.round(&mut loads);
            d2.round(&mut loads2);
        }
        for (a, b) in loads.iter().zip(&loads2) {
            assert!((a + 10.0 - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "length must equal")]
    fn wrong_length_rejected() {
        let g = topology::path(3);
        let mut d = ContinuousDiffusion::new(&g).engine();
        let mut loads = vec![0.0; 4];
        d.round(&mut loads);
    }

    #[test]
    fn generalized_k4_matches_algorithm1_exactly() {
        let g = topology::torus2d(4, 4);
        let init: Vec<f64> = (0..16).map(|i| ((i * 53 + 7) % 71) as f64).collect();
        let mut a = init.clone();
        let mut b = init;
        ContinuousDiffusion::new(&g).engine().round(&mut a);
        GeneralizedDiffusion::new(&g, 4.0).engine().round(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn factor_below_one_diverges_on_star() {
        // k < 1 breaks double stochasticity: the hub sends more than it
        // has and the potential explodes. (For k ≥ 1 the round matrix is
        // doubly stochastic thanks to the max(dᵢ,dⱼ) divisor, so Φ can
        // never increase — the 4 buys the *discrete/sequentialization*
        // constants and strict contraction, not bare stability.)
        let g = topology::star(10);
        let mut loads = vec![0.0; 10];
        loads[0] = 90.0;
        let s = GeneralizedDiffusion::new(&g, 0.5)
            .engine()
            .round(&mut loads)
            .expect("full stats");
        assert!(
            s.phi_after > s.phi_before,
            "expected overshoot: {} -> {}",
            s.phi_before,
            s.phi_after
        );
    }

    #[test]
    fn factor_one_stalls_on_bipartite_oscillation() {
        // k = 1 on a single edge swaps the full difference: a period-2
        // oscillation with frozen potential (eigenvalue −1 of the round
        // matrix). This is why k must exceed 1 even in the continuous
        // model.
        let g = topology::path(2);
        let mut loads = vec![8.0, 0.0];
        let mut exec = GeneralizedDiffusion::new(&g, 1.0).engine();
        let s1 = exec.round(&mut loads).expect("full stats");
        assert_eq!(loads, vec![0.0, 8.0]);
        let s2 = exec.round(&mut loads).expect("full stats");
        assert_eq!(loads, vec![8.0, 0.0]);
        assert_eq!(s1.phi_before, s2.phi_after); // Φ frozen forever
    }

    #[test]
    fn factor_two_smoothly_balances_an_edge() {
        // On a single edge k = 2 moves exactly half the difference from
        // each side's perspective: perfect balance in one round, and the
        // round matrix is PSD (eigenvalues in [0, 1]) so no oscillation.
        let g = topology::path(2);
        let mut loads = vec![8.0, 0.0];
        let s = GeneralizedDiffusion::new(&g, 2.0)
            .engine()
            .round(&mut loads)
            .expect("full stats");
        assert!(s.phi_after <= s.phi_before);
        assert_eq!(loads, vec![4.0, 4.0]);
    }

    #[test]
    fn larger_factor_converges_slower() {
        let g = topology::cycle(16);
        let run = |k: f64| {
            let mut loads = vec![0.0; 16];
            loads[0] = 160.0;
            let mut exec = GeneralizedDiffusion::new(&g, k).engine();
            crate::runner::rounds_to_epsilon(&mut exec, &mut loads, 1e-4, 1_000_000).rounds
        };
        let r4 = run(4.0);
        let r8 = run(8.0);
        assert!(r8 > r4, "k=8 ({r8}) should be slower than k=4 ({r4})");
    }

    #[test]
    fn parallel_engine_bit_identical_to_serial() {
        let g = topology::torus2d(8, 8);
        let init: Vec<f64> = (0..64)
            .map(|i| ((i * 37 + 11) % 101) as f64 / 3.0)
            .collect();

        let mut serial = init.clone();
        let mut s_exec = ContinuousDiffusion::new(&g).engine();
        for _ in 0..20 {
            s_exec.round(&mut serial);
        }

        for threads in [1, 2, 3, 8] {
            let mut par = init.clone();
            let mut p_exec = ContinuousDiffusion::new(&g).engine_parallel(threads);
            for _ in 0..20 {
                p_exec.round(&mut par);
            }
            assert_eq!(serial, par, "threads = {threads}: not bit-identical");
        }
    }
}
