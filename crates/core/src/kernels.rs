//! Degree-specialized gather kernels and the runtime kernel dispatcher.
//!
//! Algorithm 1's round is one sparse gather — per node `v`,
//! `ℓᵥ' = ℓᵥ + Σᵤ (ℓᵤ − ℓᵥ)/(4·max(dᵥ, dᵤ))` over the CSR neighbourhood —
//! and all three canonical-divisor protocols ([`crate::continuous`],
//! [`crate::discrete`]) run the *same* loop, differing only in the load
//! scalar (`f64` vs `i64` tokens). This module factors that loop into:
//!
//! * [`DiffusionLoad`] — the scalar abstraction (accumulator type,
//!   per-neighbour quotient, ordered accumulate) instantiated once for
//!   `f64` and once for `i64`, so specialized kernels are written once;
//! * [`GatherSpec`] — what a protocol exposes to opt into dispatch: its
//!   graph plus its per-slot [`Divisors`], decided once at construction:
//!   one value `k·d` when every degree equals `d`, the table of
//!   [`dlb_graphs::weights`] otherwise;
//! * [`KernelKind`] — the runtime-selectable kernel flavour (`scalar` or
//!   `unrolled`), overridable via the `DLB_KERNEL` environment variable;
//! * the batch entry points `gather_span` / `gather_list`, which walk a
//!   [`GatherPlan`]'s degree runs in L2-sized tiles and dispatch a
//!   fixed-degree unrolled kernel (d = 2, 3, 4, 8), a chunked-lanes
//!   kernel for other uniform degrees, or the per-node scalar loop.
//!
//! ## Why this preserves bit-identity
//!
//! The engine's non-negotiable invariant is that every backend and every
//! kernel produce bit-identical loads. The specialized kernels keep it by
//! construction: each per-neighbour quotient `(ℓᵤ − ℓᵥ)/div` depends only
//! on its own three inputs, and IEEE 754 subtraction and division are
//! correctly rounded — computing the quotients as independent
//! (autovectorized) lanes yields exactly the bits the scalar loop computes one at a time. The
//! **additions** are different: floating-point `+` is not associative, so
//! the accumulation always runs sequentially in CSR neighbour order, the
//! same order as the scalar reference. Only the order-free work
//! vectorizes; the order-sensitive reduction never does.
//!
//! ### Uniform divisors
//!
//! On a `d`-regular graph every slot's divisor is the same `k·d`, so
//! [`Divisors::of_graph`] builds no table and the tile kernels pick their
//! divisor source once per gather call instead of loading one divisor per
//! slot:
//!
//! * **table** — any graph with unequal degrees: load `div[slot]` (the
//!   historical path, unchanged);
//! * **broadcast** — uniform divisor without an exact reciprocal (the
//!   hypercube's 80, every integer token divisor): divide by the constant.
//!   Same operands, same division, same bits;
//! * **reciprocal** — uniform `f64` divisor `2ᵏ` whose reciprocal `2⁻ᵏ` is
//!   a normal number (the torus: 16). Multiply by `2⁻ᵏ` instead of
//!   dividing. For every `x`, `x/2ᵏ` and `x·2⁻ᵏ` denote the same real
//!   number, and both operations round that real number correctly under
//!   the same rounding mode (gradual underflow included), so they return
//!   the same bits; `±0`, `±∞` and NaN pass through both alike.
//!   [`exact_reciprocal`] accepts exactly these divisors.
//!
//! [`KernelKind::Scalar`] (`gather_node`) and every protocol's
//! `node_new_load` stay the division-based reference the other paths are
//! tested against.
//!
//! perfbench's `kernels.bytes_per_round_computed` is a fixed formula that
//! still counts an 8-byte divisor per slot, so the saving shows in
//! `kernels.ns_per_edge` and `phase.gather-interior_ms_per_round`.

use dlb_graphs::{weights, GatherPlan, Graph};

/// Nodes per dispatch tile. At 8 bytes per load this keeps a tile's
/// output window (32 KiB) plus its divisor/neighbour stream comfortably
/// inside a typical 256 KiB–1 MiB L2, so the snapshot lines a tile
/// re-touches (e.g. the ±row wraps of a torus) stay resident while the
/// tile runs.
const TILE_NODES: u32 = 4096;

/// Lane width of the chunked generic-degree kernel (uniform degrees
/// outside the unrolled set, e.g. a hypercube's `log n` or a star hub).
const LANES: usize = 8;

/// Runtime-selectable gather kernel flavour.
///
/// Every flavour produces bit-identical results (see the module docs);
/// they differ only in how the per-neighbour quotients are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The reference loop: one quotient at a time, accumulated
    /// immediately. Exactly [`Protocol::node_new_load`] per node.
    ///
    /// [`Protocol::node_new_load`]: crate::engine::Protocol::node_new_load
    Scalar,
    /// Degree-run dispatch with fixed-degree unrolled quotient lanes
    /// (d = 2, 3, 4, 8) written in autovectorization-friendly shape, plus
    /// a chunked-lanes path for other uniform degrees. The default.
    #[default]
    Unrolled,
}

impl KernelKind {
    /// Every kernel flavour, for sweeps in tests and benches.
    pub const ALL: [KernelKind; 2] = [KernelKind::Scalar, KernelKind::Unrolled];

    /// Stable lowercase name (`scalar` / `unrolled`), matching
    /// the accepted `DLB_KERNEL` values.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Unrolled => "unrolled",
        }
    }

    /// Reads `DLB_KERNEL` (uncached). Unset means the default
    /// ([`KernelKind::Unrolled`]); any value other than
    /// `scalar`/`unrolled` panics loudly, mirroring the
    /// `DLB_THREADS` contract — a typo must never silently change which
    /// kernel CI exercises.
    pub fn from_env() -> KernelKind {
        match std::env::var("DLB_KERNEL") {
            Ok(value) => match value.as_str() {
                "scalar" => KernelKind::Scalar,
                "unrolled" => KernelKind::Unrolled,
                _ => panic!(
                    "DLB_KERNEL must be \"scalar\" or \"unrolled\", got {value:?} \
                     (unset the variable to use the default kernel)"
                ),
            },
            Err(_) => KernelKind::default(),
        }
    }
}

/// Process-wide cached `DLB_KERNEL` reading, for engine constructors on
/// the hot path (the variable is read once, like `DLB_THREADS` via
/// `recommended_threads_cached`). Tests exercising the parsing use
/// [`KernelKind::from_env`] directly.
pub(crate) fn kernel_kind_cached() -> KernelKind {
    static CACHE: std::sync::OnceLock<KernelKind> = std::sync::OnceLock::new();
    *CACHE.get_or_init(KernelKind::from_env)
}

/// A load scalar the canonical diffusion gather can be written
/// generically over: `f64` (continuous load) or `i64` (integral tokens).
///
/// The contract that makes specialization safe is *operation equality*:
/// for any inputs, [`DiffusionLoad::quotient`] and
/// [`DiffusionLoad::accumulate`] must compute exactly what the historical
/// scalar loops computed, so that any kernel performing the same
/// operations in the same accumulation order is bit-identical.
pub trait DiffusionLoad: Copy + Send + Sync + 'static {
    /// Accumulator wide enough for a full neighbourhood sum (`f64`
    /// itself; `i128` for `i64` tokens, which cannot overflow across a
    /// `u32`-indexed neighbourhood).
    type Acc: Copy;

    /// Lifts a load into the accumulator domain.
    fn lift(self) -> Self::Acc;

    /// Lowers a finished accumulator back to the load type
    /// (overflow-checked for tokens).
    fn lower(acc: Self::Acc) -> Self;

    /// The per-neighbour transfer quotient: `(ℓᵤ − ℓᵥ)/div` for `f64`,
    /// the sign-split floor quotient for tokens. Pure in its three
    /// inputs — lane order never changes its bits.
    fn quotient(lv: Self, lu: Self, div: Self) -> Self::Acc;

    /// One ordered accumulation step. **Order-sensitive** for `f64`;
    /// callers must apply quotients in CSR neighbour order.
    fn accumulate(acc: Self::Acc, q: Self::Acc) -> Self::Acc;

    /// `Some(r)` when `(ℓᵤ − ℓᵥ)·r` is bit-identical to
    /// [`DiffusionLoad::quotient`] by `div` for every input (see
    /// [`exact_reciprocal`]); `None` keeps the division.
    fn exact_reciprocal(div: Self) -> Option<Self>;

    /// The quotient as a product `(ℓᵤ − ℓᵥ)·r`, for an `r` returned by
    /// [`DiffusionLoad::exact_reciprocal`].
    fn scaled(lv: Self, lu: Self, recip: Self) -> Self::Acc;

    /// `D` independent quotients at once. The default is a plain per-lane
    /// loop over arrays — the `chunks_exact`-shaped form LLVM
    /// autovectorizes — and implementations must keep it semantically
    /// identical to `D` calls of [`DiffusionLoad::quotient`].
    #[inline]
    fn quotient_lanes<const D: usize>(lv: Self, lus: [Self; D], divs: [Self; D]) -> [Self::Acc; D] {
        std::array::from_fn(|i| Self::quotient(lv, lus[i], divs[i]))
    }
}

impl DiffusionLoad for f64 {
    type Acc = f64;

    #[inline]
    fn lift(self) -> f64 {
        self
    }

    #[inline]
    fn lower(acc: f64) -> f64 {
        acc
    }

    #[inline]
    fn quotient(lv: f64, lu: f64, div: f64) -> f64 {
        (lu - lv) / div
    }

    #[inline]
    fn accumulate(acc: f64, q: f64) -> f64 {
        acc + q
    }

    #[inline]
    fn exact_reciprocal(div: f64) -> Option<f64> {
        exact_reciprocal(div)
    }

    #[inline]
    fn scaled(lv: f64, lu: f64, recip: f64) -> f64 {
        (lu - lv) * recip
    }
}

impl DiffusionLoad for i64 {
    type Acc = i128;

    #[inline]
    fn lift(self) -> i128 {
        self as i128
    }

    #[inline]
    fn lower(acc: i128) -> i64 {
        i64::try_from(acc).expect("load fits i64")
    }

    #[inline]
    fn quotient(lv: i64, lu: i64, div: i64) -> i128 {
        let (lv, lu, c) = (lv as i128, lu as i128, div as i128);
        if lu > lv {
            (lu - lv) / c
        } else if lv > lu {
            -((lv - lu) / c)
        } else {
            0
        }
    }

    #[inline]
    fn accumulate(acc: i128, q: i128) -> i128 {
        acc + q
    }

    /// Token quotients are floor divisions; they always divide.
    #[inline]
    fn exact_reciprocal(_div: i64) -> Option<i64> {
        None
    }

    fn scaled(_lv: i64, _lu: i64, _recip: i64) -> i128 {
        unreachable!("integer divisors have no exact reciprocal")
    }
}

/// `Some(1/div)` exactly when `div` is a positive power of two `2ᵏ` whose
/// reciprocal `2⁻ᵏ` is a normal number. For such a divisor `x·2⁻ᵏ` and
/// `x/2ᵏ` are correctly rounded results of the same real number, hence
/// bit-identical for every `x` (see the module docs). Every other
/// divisor — 80, 3, subnormals, zero, infinities, NaN — returns `None`.
pub fn exact_reciprocal(div: f64) -> Option<f64> {
    const MANTISSA: u64 = (1 << 52) - 1;
    let recip = 1.0 / div;
    (div > 0.0 && div.is_normal() && div.to_bits() & MANTISSA == 0 && recip.is_normal())
        .then_some(recip)
}

/// A protocol's divisors `k·max(dᵢ, dⱼ)` along one alignment — the CSR
/// slots (in a [`GatherSpec`]) or [`Graph::edges`] (in the statistics
/// sweeps): one value shared by every entry, or a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Divisors<L> {
    /// Every entry divides by this value (a regular graph's `k·d`); no
    /// table is built.
    Uniform(L),
    /// One divisor per entry.
    Table(Vec<L>),
}

impl<L: Copy> Divisors<L> {
    /// The divisor at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> L {
        match self {
            Divisors::Uniform(c) => *c,
            Divisors::Table(t) => t[i],
        }
    }
}

impl Divisors<f64> {
    /// The CSR-slot-aligned and edge-list-aligned divisors `k·max(dᵢ, dⱼ)`
    /// of `g`: one uniform value each when every degree is equal, the
    /// tables of [`dlb_graphs::weights`] otherwise.
    pub fn of_graph(g: &Graph, k: f64) -> (Self, Self) {
        match weights::uniform_divisor(g, k) {
            Some(c) => (Divisors::Uniform(c), Divisors::Uniform(c)),
            None => (
                Divisors::Table(weights::csr_divisors(g, k)),
                Divisors::Table(weights::edge_divisors(g, k)),
            ),
        }
    }
}

impl Divisors<i64> {
    /// Integer twin of [`Divisors::of_graph`], for the token kernels.
    pub fn of_graph_int(g: &Graph, k: u32) -> (Self, Self) {
        match weights::uniform_divisor_int(g, k) {
            Some(c) => (Divisors::Uniform(c), Divisors::Uniform(c)),
            None => (
                Divisors::Table(weights::csr_divisors_int(g, k)),
                Divisors::Table(weights::edge_divisors_int(g, k)),
            ),
        }
    }
}

/// What a protocol exposes to opt into kernel dispatch: the fixed graph
/// its gather walks and its per-slot divisors `4·max(dᵥ, dᵤ)`.
///
/// Protocols whose per-node update is *not* the canonical
/// quotient-accumulate loop (FOS/SOS α-scaled flows, capacity-weighted
/// heterogeneous diffusion, matching exchanges, …) simply never expose a
/// spec and keep running their own `node_new_load` everywhere.
#[derive(Debug, Clone, Copy)]
pub struct GatherSpec<'p, L> {
    /// The CSR graph the gather iterates (also the graph the engine
    /// fingerprints for plan memoization).
    pub graph: &'p Graph,
    /// Per-neighbour-slot divisors: one uniform value, or a table of
    /// length [`Graph::degree_sum`] indexed by
    /// [`Graph::neighbor_offset`]`(v) + i`.
    pub slot_div: &'p Divisors<L>,
}

/// The one generic per-node gather: the `node_new_load` of continuous,
/// generalized and discrete diffusion (`f64` and `i64` instantiations of
/// the same loop). This is also the [`KernelKind::Scalar`] reference
/// every specialized kernel must match bit-for-bit, and it always
/// divides.
#[inline]
pub(crate) fn gather_node<L: DiffusionLoad>(
    g: &Graph,
    slot_div: &Divisors<L>,
    snapshot: &[L],
    v: u32,
) -> L {
    let lv = snapshot[v as usize];
    let off = g.neighbor_offset(v);
    let mut acc = lv.lift();
    for (i, &u) in g.neighbors(v).iter().enumerate() {
        acc = L::accumulate(
            acc,
            L::quotient(lv, snapshot[u as usize], slot_div.get(off + i)),
        );
    }
    L::lower(acc)
}

/// How the tile kernels obtain each slot's quotient. Chosen once per
/// gather call from the [`GatherSpec`]'s [`Divisors`] (see the
/// module docs for why all three are bit-identical).
trait Quotients<L: DiffusionLoad>: Copy {
    /// The quotients of `D` neighbours whose slots start at `off`.
    fn lanes<const D: usize>(self, lv: L, lus: [L; D], off: usize) -> [L::Acc; D];

    /// One neighbour's quotient at `slot` (chunk remainders).
    fn one(self, lv: L, lu: L, slot: usize) -> L::Acc;
}

/// Loads each slot's divisor from the table.
#[derive(Clone, Copy)]
struct TableDiv<'a, L>(&'a [L]);

impl<L: DiffusionLoad> Quotients<L> for TableDiv<'_, L> {
    #[inline(always)]
    fn lanes<const D: usize>(self, lv: L, lus: [L; D], off: usize) -> [L::Acc; D] {
        let window = &self.0[off..off + D];
        let divs: [L; D] = std::array::from_fn(|i| window[i]);
        L::quotient_lanes(lv, lus, divs)
    }

    #[inline(always)]
    fn one(self, lv: L, lu: L, slot: usize) -> L::Acc {
        L::quotient(lv, lu, self.0[slot])
    }
}

/// Divides every slot by one broadcast divisor.
#[derive(Clone, Copy)]
struct UniformDiv<L>(L);

impl<L: DiffusionLoad> Quotients<L> for UniformDiv<L> {
    #[inline(always)]
    fn lanes<const D: usize>(self, lv: L, lus: [L; D], _off: usize) -> [L::Acc; D] {
        L::quotient_lanes(lv, lus, [self.0; D])
    }

    #[inline(always)]
    fn one(self, lv: L, lu: L, _slot: usize) -> L::Acc {
        L::quotient(lv, lu, self.0)
    }
}

/// Multiplies every slot by the exact reciprocal of a uniform divisor.
#[derive(Clone, Copy)]
struct UniformRecip<L>(L);

impl<L: DiffusionLoad> Quotients<L> for UniformRecip<L> {
    #[inline(always)]
    fn lanes<const D: usize>(self, lv: L, lus: [L; D], _off: usize) -> [L::Acc; D] {
        std::array::from_fn(|i| L::scaled(lv, lus[i], self.0))
    }

    #[inline(always)]
    fn one(self, lv: L, lu: L, _slot: usize) -> L::Acc {
        L::scaled(lv, lu, self.0)
    }
}

/// Per-run slices threaded through the specialized kernels: the flat CSR
/// adjacency and the snapshot plus the run's stride origin.
struct RunSlices<'a, L> {
    flat: &'a [u32],
    snapshot: &'a [L],
    /// First node of the degree run.
    start: u32,
    /// CSR offset of `start`; node `v` in the run has slots at
    /// `base + (v − start)·degree`.
    base: usize,
}

/// Fixed-degree unrolled kernel: the whole neighbourhood is one `[_; D]`
/// quotient-lane array, then a sequential in-order accumulation.
#[inline]
fn tile_fixed<L: DiffusionLoad, Q: Quotients<L>, const D: usize, F: FnMut(u32, L)>(
    q: Q,
    rs: &RunSlices<'_, L>,
    lo: u32,
    hi: u32,
    emit: &mut F,
) {
    for v in lo..hi {
        let off = rs.base + (v - rs.start) as usize * D;
        let nbrs = &rs.flat[off..off + D];
        let lv = rs.snapshot[v as usize];
        let lus: [L; D] = std::array::from_fn(|i| rs.snapshot[nbrs[i] as usize]);
        let mut acc = lv.lift();
        for lane in q.lanes(lv, lus, off) {
            acc = L::accumulate(acc, lane);
        }
        emit(v, L::lower(acc));
    }
}

/// Chunked-lanes kernel for uniform degrees outside the unrolled set
/// (hypercubes, cliques, star hubs): `LANES`-wide quotient blocks via
/// `chunks_exact`, scalar remainder, accumulation still in CSR order.
#[inline]
fn tile_lanes<L: DiffusionLoad, Q: Quotients<L>, F: FnMut(u32, L)>(
    q: Q,
    rs: &RunSlices<'_, L>,
    degree: usize,
    lo: u32,
    hi: u32,
    emit: &mut F,
) {
    for v in lo..hi {
        let off = rs.base + (v - rs.start) as usize * degree;
        let nbrs = &rs.flat[off..off + degree];
        let lv = rs.snapshot[v as usize];
        let mut acc = lv.lift();
        let mut chunks = nbrs.chunks_exact(LANES);
        let mut slot = off;
        for cn in &mut chunks {
            let lus: [L; LANES] = std::array::from_fn(|i| rs.snapshot[cn[i] as usize]);
            for lane in q.lanes(lv, lus, slot) {
                acc = L::accumulate(acc, lane);
            }
            slot += LANES;
        }
        for (i, &u) in chunks.remainder().iter().enumerate() {
            acc = L::accumulate(acc, q.one(lv, rs.snapshot[u as usize], slot + i));
        }
        emit(v, L::lower(acc));
    }
}

/// Gathers the contiguous node range `lo..hi`, dispatching per degree run
/// and walking each run in [`TILE_NODES`]-sized L2 tiles. `emit` is
/// called exactly once per node, in ascending node order.
fn gather_contiguous<L: DiffusionLoad, F: FnMut(u32, L)>(
    kind: KernelKind,
    plan: &GatherPlan,
    spec: &GatherSpec<'_, L>,
    snapshot: &[L],
    lo: u32,
    hi: u32,
    emit: &mut F,
) {
    debug_assert_eq!(plan.n(), spec.graph.n(), "plan built for a different graph");
    if let Divisors::Table(t) = spec.slot_div {
        debug_assert_eq!(
            t.len(),
            spec.graph.degree_sum(),
            "divisor table must be CSR-slot aligned"
        );
    }
    if lo >= hi {
        return;
    }
    if kind == KernelKind::Scalar {
        for v in lo..hi {
            emit(v, gather_node(spec.graph, spec.slot_div, snapshot, v));
        }
        return;
    }
    let g = spec.graph;
    match spec.slot_div {
        Divisors::Table(table) => walk_runs(TableDiv(table), plan, g, snapshot, lo, hi, emit),
        &Divisors::Uniform(div) => match L::exact_reciprocal(div) {
            Some(r) => walk_runs(UniformRecip(r), plan, g, snapshot, lo, hi, emit),
            None => walk_runs(UniformDiv(div), plan, g, snapshot, lo, hi, emit),
        },
    }
}

/// The degree-run walk behind [`gather_contiguous`], monomorphized per
/// divisor source.
#[inline]
fn walk_runs<L: DiffusionLoad, Q: Quotients<L>, F: FnMut(u32, L)>(
    q: Q,
    plan: &GatherPlan,
    g: &Graph,
    snapshot: &[L],
    lo: u32,
    hi: u32,
    emit: &mut F,
) {
    let flat = g.neighbor_slots();
    let runs = plan.runs();
    let mut r = plan.run_index(lo);
    let mut v = lo;
    while v < hi {
        let run = &runs[r];
        let run_hi = hi.min(run.end);
        let rs = RunSlices {
            flat,
            snapshot,
            start: run.start,
            base: run.base,
        };
        let mut t = v;
        while t < run_hi {
            let te = run_hi.min(t + TILE_NODES);
            match run.degree {
                0 => {
                    // Isolated nodes: the gather degenerates to the
                    // identity (lift/lower round-trip, exact for both
                    // load types).
                    for w in t..te {
                        emit(w, L::lower(snapshot[w as usize].lift()));
                    }
                }
                2 => tile_fixed::<L, Q, 2, _>(q, &rs, t, te, emit),
                3 => tile_fixed::<L, Q, 3, _>(q, &rs, t, te, emit),
                4 => tile_fixed::<L, Q, 4, _>(q, &rs, t, te, emit),
                8 => tile_fixed::<L, Q, 8, _>(q, &rs, t, te, emit),
                d => tile_lanes(q, &rs, d as usize, t, te, emit),
            }
            t = te;
        }
        v = run_hi;
        r += 1;
    }
}

/// Batch gather over the contiguous node range `start .. start + out.len()`,
/// writing `out[i] = new_load(start + i)`. The serial backend calls this
/// with the whole vector; pool workers call it per chunk.
pub(crate) fn gather_span<L: DiffusionLoad>(
    kind: KernelKind,
    plan: &GatherPlan,
    spec: &GatherSpec<'_, L>,
    snapshot: &[L],
    start: u32,
    out: &mut [L],
) {
    let hi = start + out.len() as u32;
    gather_contiguous(kind, plan, spec, snapshot, start, hi, &mut |v, val| {
        out[(v - start) as usize] = val;
    });
}

/// Batch gather over an arbitrary node list (a shard's interior or
/// boundary, a message worker's owned set), detecting maximal contiguous
/// ascending segments so range/contiguous partitions still hit the
/// strided run kernels. `emit` is called once per node **in list order**.
pub(crate) fn gather_list<L: DiffusionLoad, F: FnMut(u32, L)>(
    kind: KernelKind,
    plan: &GatherPlan,
    spec: &GatherSpec<'_, L>,
    snapshot: &[L],
    nodes: &[u32],
    emit: &mut F,
) {
    let mut i = 0;
    while i < nodes.len() {
        let lo = nodes[i];
        let mut j = i + 1;
        while j < nodes.len() && nodes[j] == nodes[j - 1] + 1 {
            j += 1;
        }
        gather_contiguous(kind, plan, spec, snapshot, lo, lo + (j - i) as u32, emit);
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_graphs::weights::{csr_divisors, csr_divisors_int};
    use dlb_graphs::{topology, GraphBuilder};

    fn f64_loads(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 131 + 17) % 4099) as f64 * 0.37)
            .collect()
    }

    fn i64_loads(n: usize) -> Vec<i64> {
        (0..n).map(|i| ((i * 977 + 31) % 100_003) as i64).collect()
    }

    /// A degree-mixed graph: short path spine with hanging leaves and an
    /// isolated tail — runs of degree 2/3/1/0 that don't tile any width.
    fn comb() -> Graph {
        let mut b = GraphBuilder::new(14).unwrap();
        for i in 0..5u32 {
            b.add_edge(i, i + 1).unwrap();
            b.add_edge(i, 6 + i).unwrap();
        }
        b.build()
    }

    fn adversarial_graphs() -> Vec<Graph> {
        vec![
            topology::torus2d(5, 7), // regular d=4, one run
            topology::cycle(17),     // regular d=2
            topology::hypercube(4),  // regular d=4
            topology::hypercube(5),  // regular d=5 → lanes path
            topology::complete(10),  // regular d=9 → 8-lane chunk + remainder
            topology::star(40),      // hub d=39 + leaves d=1
            topology::path(11),      // endpoint runs
            topology::binary_tree(21),
            comb(),
            Graph::from_edges(9, [(0, 1), (1, 2)]).unwrap(), // mostly isolated
        ]
    }

    #[test]
    fn span_matches_scalar_reference_f64() {
        for g in adversarial_graphs() {
            let div = Divisors::Table(csr_divisors(&g, 4.0));
            let spec = GatherSpec {
                graph: &g,
                slot_div: &div,
            };
            let plan = GatherPlan::build(&g);
            let snap = f64_loads(g.n());
            let reference: Vec<f64> = g.nodes().map(|v| gather_node(&g, &div, &snap, v)).collect();
            for kind in KernelKind::ALL {
                let mut out = vec![0.0; g.n()];
                gather_span(kind, &plan, &spec, &snap, 0, &mut out);
                for (v, (a, b)) in reference.iter().zip(&out).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{kind:?} diverged at node {v} on {g:?}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn span_matches_scalar_reference_i64() {
        for g in adversarial_graphs() {
            let div = Divisors::Table(csr_divisors_int(&g, 4));
            let spec = GatherSpec {
                graph: &g,
                slot_div: &div,
            };
            let plan = GatherPlan::build(&g);
            let snap = i64_loads(g.n());
            let reference: Vec<i64> = g.nodes().map(|v| gather_node(&g, &div, &snap, v)).collect();
            for kind in KernelKind::ALL {
                let mut out = vec![0i64; g.n()];
                gather_span(kind, &plan, &spec, &snap, 0, &mut out);
                assert_eq!(reference, out, "{kind:?} diverged on {g:?}");
            }
        }
    }

    #[test]
    fn partial_spans_respect_offsets() {
        let g = topology::torus2d(6, 6);
        let div = Divisors::Table(csr_divisors(&g, 4.0));
        let spec = GatherSpec {
            graph: &g,
            slot_div: &div,
        };
        let plan = GatherPlan::build(&g);
        let snap = f64_loads(g.n());
        let mut full = vec![0.0; g.n()];
        gather_span(KernelKind::Scalar, &plan, &spec, &snap, 0, &mut full);
        for kind in KernelKind::ALL {
            for (lo, len) in [(0u32, 7usize), (5, 13), (30, 6), (35, 1), (36, 0)] {
                let mut out = vec![0.0; len];
                gather_span(kind, &plan, &spec, &snap, lo, &mut out);
                assert_eq!(&full[lo as usize..lo as usize + len], &out[..], "{kind:?}");
            }
        }
    }

    #[test]
    fn list_gather_detects_contiguous_segments() {
        let g = topology::star(23);
        let div = Divisors::Table(csr_divisors(&g, 4.0));
        let spec = GatherSpec {
            graph: &g,
            slot_div: &div,
        };
        let plan = GatherPlan::build(&g);
        let snap = f64_loads(g.n());
        // Shard-shaped list: a contiguous leaf range, a gap, the hub last
        // (boundary-after-interior ordering).
        let nodes: Vec<u32> = (3..9).chain(12..19).chain([0]).collect();
        for kind in KernelKind::ALL {
            let mut got = Vec::new();
            gather_list(kind, &plan, &spec, &snap, &nodes, &mut |v, val: f64| {
                got.push((v, val))
            });
            let want: Vec<(u32, f64)> = nodes
                .iter()
                .map(|&v| (v, gather_node(&g, &div, &snap, v)))
                .collect();
            assert_eq!(
                want.len(),
                got.len(),
                "{kind:?} emitted a different node count"
            );
            for (w, g2) in want.iter().zip(&got) {
                assert_eq!(w.0, g2.0, "{kind:?} emission order");
                assert_eq!(w.1.to_bits(), g2.1.to_bits(), "{kind:?} value");
            }
        }
    }

    #[test]
    fn discrete_quotient_matches_sign_split_reference() {
        for (lv, lu, c) in [
            (10i64, 4, 8),
            (4, 10, 8),
            (7, 7, 12),
            (-5, 9, 4),
            (9, -5, 4),
        ] {
            let q = <i64 as DiffusionLoad>::quotient(lv, lu, c);
            let reference = {
                let (lv, lu, c) = (lv as i128, lu as i128, c as i128);
                if lu > lv {
                    (lu - lv) / c
                } else if lv > lu {
                    -((lv - lu) / c)
                } else {
                    0
                }
            };
            assert_eq!(q, reference);
        }
    }

    /// Loads that stress the multiply-for-divide argument: signed zeros,
    /// subnormals, infinities, NaN, magnitudes near `f64::MAX` and mixed
    /// signs.
    const SPECIAL: [f64; 16] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        2.2e-308,
        -1.5e-310,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::MAX,
        -f64::MAX,
        0.75 * f64::MAX,
        -0.9 * f64::MAX,
        1.0,
        -3.5,
    ];

    /// Ring, torus, hypercubes (unrolled d = 4, lanes d = 5) and random
    /// d-regular graphs (unrolled d = 3, lanes d = 6 with a remainder).
    fn regular_graphs() -> Vec<Graph> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        vec![
            topology::cycle(13),
            topology::torus2d(5, 6),
            topology::hypercube(4),
            topology::hypercube(5),
            topology::random_regular(20, 3, &mut rng),
            topology::random_regular(18, 6, &mut rng),
        ]
    }

    /// Draws a load vector: a pick below `SPECIAL.len()` takes that
    /// special value, any other pick the (mixed-sign) random magnitude.
    fn special_loads(picks: &[(usize, f64)], n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let (k, x) = picks[i % picks.len()];
                SPECIAL.get(k).copied().unwrap_or(x)
            })
            .collect()
    }

    /// Every kernel flavour over a uniform divisor, through both batch
    /// entry points, against the scalar reference dividing by a table
    /// holding the same value.
    fn assert_uniform_matches_table<L: DiffusionLoad + PartialEq + std::fmt::Debug>(
        g: &Graph,
        c: L,
        snap: &[L],
        same: impl Fn(L, L) -> bool,
    ) {
        let table = Divisors::Table(vec![c; g.degree_sum()]);
        let plan = GatherPlan::build(g);
        let reference: Vec<L> = g.nodes().map(|v| gather_node(g, &table, snap, v)).collect();
        let spec = GatherSpec {
            graph: g,
            slot_div: &Divisors::Uniform(c),
        };
        // A shard-shaped list: two ascending runs, then a straggler.
        let n = g.n() as u32;
        let list: Vec<u32> = (n / 2..n).chain(1..n / 3).chain([0]).collect();
        for kind in KernelKind::ALL {
            let mut out = vec![c; g.n()];
            gather_span(kind, &plan, &spec, snap, 0, &mut out);
            for (v, (a, b)) in reference.iter().zip(&out).enumerate() {
                assert!(
                    same(*a, *b),
                    "{kind:?} diverged at node {v} with divisor {c:?}: {a:?} vs {b:?}"
                );
            }
            let mut got = Vec::new();
            gather_list(kind, &plan, &spec, snap, &list, &mut |v, x| {
                got.push((v, x))
            });
            for (&v, (w, x)) in list.iter().zip(&got) {
                assert_eq!(v, *w, "{kind:?} emission order");
                assert!(
                    same(reference[v as usize], *x),
                    "{kind:?} list value at {v}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn uniform_f64_matches_scalar_reference(
            gi in 0usize..6,
            picks in proptest::collection::vec((0usize..32, -1.0e6f64..1.0e6), 1..48),
        ) {
            let g = &regular_graphs()[gi];
            let snap = special_loads(&picks, g.n());
            // 16, 8 and 0.5 take the exact-reciprocal product; 80, 20
            // and 3 the broadcast division.
            for c in [16.0, 8.0, 0.5, 80.0, 20.0, 3.0] {
                assert_eq!(exact_reciprocal(c).is_some(), [16.0, 8.0, 0.5].contains(&c));
                assert_uniform_matches_table(g, c, &snap, |a: f64, b: f64| a.to_bits() == b.to_bits());
            }
        }

        #[test]
        fn uniform_i64_matches_scalar_reference(
            gi in 0usize..6,
            tokens in proptest::collection::vec(-1_000_000_000_000i64..1_000_000_000_000, 1..48),
        ) {
            let g = &regular_graphs()[gi];
            let d = g.max_degree() as i64;
            let snap: Vec<i64> = (0..g.n()).map(|i| tokens[i % tokens.len()]).collect();
            // Tokens always divide, power of two or not.
            for c in [4 * d, 5 * d, 64] {
                assert_uniform_matches_table(g, c, &snap, |a: i64, b: i64| a == b);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn uniform_flow_tally_matches_table(
            gi in 0usize..6,
            picks in proptest::collection::vec((0usize..32, -1.0e6f64..1.0e6), 1..48),
        ) {
            use crate::continuous::flow_tally_precomputed;
            let g = &regular_graphs()[gi];
            let snap = special_loads(&picks, g.n());
            let ctx = crate::engine::StatsCtx::serial();
            // k = 4 gives 8/16 (products) on the ring and torus, 12..24
            // (divisions) elsewhere; k = 5 always divides.
            for k in [4.0, 5.0] {
                let table = Divisors::Table(weights::edge_divisors(g, k));
                let (_, uniform) = Divisors::of_graph(g, k);
                assert!(matches!(uniform, Divisors::Uniform(_)));
                let a = flow_tally_precomputed(g, &uniform, &snap, &ctx);
                let b = flow_tally_precomputed(g, &table, &snap, &ctx);
                assert_eq!(a.active, b.active, "k = {k}");
                assert_eq!(a.total.to_bits(), b.total.to_bits(), "k = {k}");
                assert_eq!(a.max.to_bits(), b.max.to_bits(), "k = {k}");
            }
        }

        #[test]
        fn uniform_token_tally_matches_table(
            gi in 0usize..6,
            tokens in proptest::collection::vec(-1_000_000_000_000_000i64..1_000_000_000_000_000, 1..48),
        ) {
            use crate::discrete::token_tally_precomputed;
            let g = &regular_graphs()[gi];
            let snap: Vec<i64> = (0..g.n()).map(|i| tokens[i % tokens.len()]).collect();
            let ctx = crate::engine::StatsCtx::serial();
            let table = Divisors::Table(weights::edge_divisors_int(g, 4));
            let (_, uniform) = Divisors::of_graph_int(g, 4);
            assert!(matches!(uniform, Divisors::Uniform(_)));
            let a = token_tally_precomputed(g, &uniform, &snap, &ctx);
            let b = token_tally_precomputed(g, &table, &snap, &ctx);
            assert_eq!((a.active, a.total, a.max), (b.active, b.total, b.max));
        }
    }

    #[test]
    fn only_regular_graphs_get_a_uniform_divisor() {
        use dlb_graphs::weights::{edge_divisors, edge_divisors_int};
        for g in regular_graphs() {
            let d = g.max_degree();
            let (c, ci) = (4.0 * d as f64, 4 * d as i64);
            assert_eq!(
                Divisors::of_graph(&g, 4.0),
                (Divisors::Uniform(c), Divisors::Uniform(c))
            );
            assert_eq!(
                Divisors::of_graph_int(&g, 4),
                (Divisors::Uniform(ci), Divisors::Uniform(ci))
            );
        }
        // Grids with a boundary, stars and combs keep today's tables.
        for g in [topology::grid2d(4, 5), topology::star(9), comb()] {
            assert_eq!(
                Divisors::of_graph(&g, 4.0),
                (
                    Divisors::Table(csr_divisors(&g, 4.0)),
                    Divisors::Table(edge_divisors(&g, 4.0))
                )
            );
            assert_eq!(
                Divisors::of_graph_int(&g, 4),
                (
                    Divisors::Table(csr_divisors_int(&g, 4)),
                    Divisors::Table(edge_divisors_int(&g, 4))
                )
            );
        }
    }

    #[test]
    fn exact_reciprocal_accepts_only_powers_of_two_with_normal_reciprocals() {
        for d in [1.0, 2.0, 4.0, 16.0, 0.5, 2f64.powi(-1022), 2f64.powi(1022)] {
            let r = exact_reciprocal(d).expect("power of two");
            assert_eq!(r * d, 1.0);
            assert!(r.is_normal());
        }
        // 2^1023's reciprocal 2^-1023 is subnormal.
        let rejected = [
            80.0,
            3.0,
            20.0,
            12.0,
            2f64.powi(1023),
            f64::MIN_POSITIVE / 2.0,
            5e-324,
            0.0,
            -0.0,
            -16.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for d in rejected {
            assert_eq!(exact_reciprocal(d), None, "{d:e}");
        }
        assert_eq!(<i64 as DiffusionLoad>::exact_reciprocal(16), None);
    }

    #[test]
    fn kernel_kind_names_round_trip() {
        for kind in KernelKind::ALL {
            assert!(matches!(kind.name(), "scalar" | "unrolled"));
        }
        assert_eq!(KernelKind::default(), KernelKind::Unrolled);
    }
}
