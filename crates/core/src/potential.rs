//! The quadratic potential `Φ` and related load-vector statistics.
//!
//! The paper's entire analysis is driven by `Φ(L) = Σᵢ (ℓᵢ − ℓ̄)²` with
//! `ℓ̄ = (Σᵢ ℓᵢ)/n`. For the discrete protocol `ℓ̄` is rational, so this
//! module also provides the *scaled* integer potential
//!
//! ```text
//! Φ̂(L) = Σᵢ (n·ℓᵢ − S)²  =  n² · Φ(L),      S = Σᵢ ℓᵢ,
//! ```
//!
//! computed exactly in 128-bit arithmetic. All discrete-case theorem
//! thresholds (`Φ ≥ 64δ³n/λ₂` in Lemma 5, `Φ ≥ 3200n` in Lemma 13) are
//! compared through `Φ̂` so floating-point rounding can never flip a
//! threshold decision.
//!
//! Lemma 10's identity `Σᵢ Σⱼ (ℓᵢ − ℓⱼ)² = 2n·Φ(L)` becomes the exact
//! integer identity `n · Σᵢⱼ (ℓᵢ − ℓⱼ)² = 2·Φ̂(L)`, verified by
//! [`lemma10_exact_identity_holds`] and experiment E9.
//!
//! ### Deterministic block-ordered reductions
//!
//! Every potential sweep here reduces through **fixed-size blocks of
//! [`REDUCE_BLOCK`] elements whose partial results are combined in block
//! order**. The block size is a constant — *not* derived from a thread
//! count — so the floating-point summation order is one single, fully
//! deterministic order no matter how the partials are produced: the serial
//! path and the pool-parallel path (`*_with` variants taking an optional
//! [`WorkerPool`]) evaluate the identical per-block loops and the identical
//! left-to-right combine, and are therefore **bit-identical** to each
//! other at any thread count. Vectors no longer than [`REDUCE_BLOCK`] are
//! a single block, i.e. the plain linear sum.
//!
//! ### Lockstep blocks
//!
//! A block's sum is one floating-point dependency chain: each add waits
//! for the previous one, so a block-by-block sweep retires about one
//! element per add latency. The one block-partials primitive behind
//! every statistic (`fold_blocks`) instead advances four consecutive
//! blocks together, each with its own accumulator, so the CPU overlaps
//! their chains. This is bit-identical to the block-by-block sweep
//! because nothing about any single chain changes: each block still
//! starts from the same value (`Sum for f64` starts at −0.0), still
//! visits its own elements in ascending order, and the partials are
//! still folded in block order. Only the interleaving of independent
//! chains differs, and floating-point results do not depend on it.
//! Summing the same vector in strided lanes instead would be as fast but
//! reassociates the chain, which moves Φ by an ulp. Integer accumulators
//! (`Φ̂`, token tallies) have no latency to hide and go block by block.
//!
//! ### One summary sweep
//!
//! [`summary`] reads a load vector once for its total, minimum and
//! maximum. The total stays the single in-order chain of
//! `loads.iter().sum::<f64>()`. The extremes need no such care: a
//! strict `x < min` update keeps the first load to reach the minimum, and
//! that rule gives the same answer over any grouping. So each group of
//! four loads finds its own extremes from `±∞`, and only the group's
//! result is compared with the running value, which then advances once
//! per four loads instead of once per load. NaN loads fail every
//! comparison and are skipped, as `f64::min` skips them; ties keep the
//! earlier load, as the sequential `f64::min`/`max` fold does here, so
//! even the sign of a zero extreme is unchanged.

use std::ops::Range;

use crate::engine::WorkerPool;

/// Elements per reduction block. Fixed (never thread-derived) so serial
/// and parallel reductions share one deterministic summation order; large
/// enough that per-block dispatch overhead is negligible, small enough
/// that a 1M-node vector still yields a few hundred blocks to parallelize.
pub const REDUCE_BLOCK: usize = 4096;

/// Blocks [`fold_blocks`] advances in lockstep, one accumulator each.
const LOCKSTEP: usize = 4;

/// An accumulator [`fold_blocks`] carries through a block.
pub(crate) trait Partial: Copy + Send + Sync {
    /// Whether blocks advance [`LOCKSTEP`] at a time. That pays when the
    /// accumulator holds a floating-point chain, whose add latency the
    /// interleaving hides. Exact integer accumulators have no such chain:
    /// four of them only run out of registers, so they go block by block.
    const LOCKSTEP: bool;
}

impl Partial for f64 {
    const LOCKSTEP: bool = true;
}

impl Partial for i128 {
    const LOCKSTEP: bool = false;
}

impl Partial for u128 {
    const LOCKSTEP: bool = false;
}

/// Number of blocks covering `n` items (0 for an empty range).
#[inline]
fn num_blocks(n: usize) -> usize {
    n.div_ceil(REDUCE_BLOCK)
}

/// Item range of block `b` over `n` items.
#[inline]
fn block_range(b: usize, n: usize) -> Range<usize> {
    let start = b * REDUCE_BLOCK;
    start..(start + REDUCE_BLOCK).min(n)
}

/// The block-partials primitive behind every statistic: folds each block
/// of the index range `0..n` into its own partial, then folds the
/// partials **in block order** with `merge`, starting from `zero`.
///
/// `block(range)` returns the fold step of the block covering `range`:
/// `step(acc, i)` folds the block's `i`-th item into `acc`, and a block's
/// partial is `step` applied from `init` for `i = 0, 1, …` in order.
/// Slicing the block once in `block` lets the step index a slice whose
/// length the compiler knows, so the lockstep loop carries no bounds
/// checks.
///
/// With a `pool`, each worker fills a contiguous run of partials through
/// [`WorkerPool::gather_chunks`]; serially, runs of [`LOCKSTEP`] partials
/// are filled and merged one after another. Both evaluate the identical
/// per-block chains and the identical combine, which is the workspace's
/// serial ≡ parallel bit-identity guarantee for statistics.
pub(crate) fn fold_blocks<T, B, F, M>(
    n: usize,
    pool: Option<&WorkerPool>,
    init: T,
    block: B,
    mut merge: M,
    zero: T,
) -> T
where
    T: Partial,
    B: Fn(Range<usize>) -> F + Sync,
    F: Fn(T, usize) -> T,
    M: FnMut(T, T) -> T,
{
    let blocks = num_blocks(n);
    let fill = |first: usize, out: &mut [T]| fill_partials(n, first, out, init, &block);
    match pool {
        Some(pool) if blocks > 1 => {
            let mut partials = vec![init; blocks];
            pool.gather_chunks(&mut partials, fill);
            partials.into_iter().fold(zero, merge)
        }
        _ => {
            let mut acc = zero;
            let mut run = [init; LOCKSTEP];
            for first in (0..blocks).step_by(LOCKSTEP) {
                let run = &mut run[..LOCKSTEP.min(blocks - first)];
                fill(first, run);
                acc = run.iter().fold(acc, |a, &p| merge(a, p));
            }
            acc
        }
    }
}

/// Writes the partials of blocks `first..first + out.len()` over `n`
/// items into `out`. Each group of [`LOCKSTEP`] full blocks is advanced
/// together, one accumulator per block; a short group (the tail of `out`
/// or of the range) and every block of an integer accumulator go block
/// by block. Either way every partial is the same chain.
fn fill_partials<T: Partial, F: Fn(T, usize) -> T>(
    n: usize,
    first: usize,
    out: &mut [T],
    init: T,
    block: &impl Fn(Range<usize>) -> F,
) {
    let width = if T::LOCKSTEP { LOCKSTEP } else { 1 };
    for (g, group) in out.chunks_mut(width).enumerate() {
        let b = first + g * width;
        if let [p0, p1, p2, p3] = group {
            if (b + LOCKSTEP) * REDUCE_BLOCK <= n {
                // Full blocks, spelled as such so a sliced block's length
                // is the constant `REDUCE_BLOCK`.
                let steps: [F; LOCKSTEP] = std::array::from_fn(|j| {
                    let start = (b + j) * REDUCE_BLOCK;
                    block(start..start + REDUCE_BLOCK)
                });
                let mut acc = [init; LOCKSTEP];
                for i in 0..REDUCE_BLOCK {
                    for (a, step) in acc.iter_mut().zip(&steps) {
                        *a = step(*a, i);
                    }
                }
                // One store per partial: a single contiguous store of
                // `acc` invites the optimizer to pair two blocks' chains
                // in one vector register, which costs a shuffle per item.
                (*p0, *p1, *p2, *p3) = (acc[0], acc[1], acc[2], acc[3]);
                continue;
            }
        }
        for (j, partial) in group.iter_mut().enumerate() {
            let range = block_range(b + j, n);
            *partial = (0..range.len()).fold(init, block(range));
        }
    }
}

/// Block-ordered sum of a continuous vector.
#[inline]
pub(crate) fn sum_with(loads: &[f64], pool: Option<&WorkerPool>) -> f64 {
    fold_blocks(
        loads.len(),
        pool,
        -0.0,
        |r| {
            let block = &loads[r];
            move |acc, i| acc + block[i]
        },
        |a, b| a + b,
        0.0,
    )
}

/// Mean load `ℓ̄` of a continuous load vector.
pub fn mean(loads: &[f64]) -> f64 {
    mean_with(loads, None)
}

/// [`mean`] with the block partials optionally computed over `pool`
/// (bit-identical to the serial result).
pub fn mean_with(loads: &[f64], pool: Option<&WorkerPool>) -> f64 {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    sum_with(loads, pool) / loads.len() as f64
}

/// Potential `Φ(L) = Σᵢ (ℓᵢ − ℓ̄)²` of a continuous load vector.
pub fn phi(loads: &[f64]) -> f64 {
    phi_with(loads, None)
}

/// [`phi`] with the block partials optionally computed over `pool`
/// (bit-identical to the serial result — see the module docs).
pub fn phi_with(loads: &[f64], pool: Option<&WorkerPool>) -> f64 {
    let mu = mean_with(loads, pool);
    fold_blocks(
        loads.len(),
        pool,
        -0.0,
        |r| {
            let block = &loads[r];
            move |acc, i| {
                let d = block[i] - mu;
                acc + d * d
            }
        },
        |a, b| a + b,
        0.0,
    )
}

/// Load scalars [`summary`] sweeps: continuous `f64` loads and `i64`
/// tokens.
pub trait SummaryLoad: Copy + PartialOrd {
    /// Starting value of the running minimum: no load is above it.
    const MIN_START: Self;
    /// Starting value of the running maximum: no load is below it.
    const MAX_START: Self;

    /// The load as `f64` (exact for tokens within the mantissa).
    fn to_f64(self) -> f64;
}

impl SummaryLoad for f64 {
    const MIN_START: f64 = f64::INFINITY;
    const MAX_START: f64 = f64::NEG_INFINITY;

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl SummaryLoad for i64 {
    const MIN_START: i64 = i64::MAX;
    const MAX_START: i64 = i64::MIN;

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// A load vector's total, minimum and maximum, from one [`summary`] sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary<L> {
    /// `Σᵢ ℓᵢ` as `f64`, bit for bit
    /// `loads.iter().map(|l| l.to_f64()).sum::<f64>()`.
    pub total: f64,
    /// The smallest load, the earliest on ties (`MIN_START` when empty;
    /// NaN loads are skipped, as `f64::min` skips them).
    pub min: L,
    /// The largest load, the earliest on ties (`MAX_START` when empty).
    pub max: L,
}

/// Total, minimum and maximum of `loads` in one pass (see the module
/// docs): bit-identical to summing in index order and folding
/// `f64::min`/`f64::max` from `±∞`.
pub fn summary<L: SummaryLoad>(loads: &[L]) -> Summary<L> {
    let (mut total, mut min, mut max) = (-0.0, L::MIN_START, L::MAX_START);
    let mut quads = loads.chunks_exact(4);
    for q in &mut quads {
        total = total + q[0].to_f64() + q[1].to_f64() + q[2].to_f64() + q[3].to_f64();
        // The group's own extremes first: their chains restart every
        // group, so only one comparison per group waits on the last.
        let (mut lo, mut hi) = (L::MIN_START, L::MAX_START);
        for &x in q {
            if x < lo {
                lo = x;
            }
            if x > hi {
                hi = x;
            }
        }
        if lo < min {
            min = lo;
        }
        if hi > max {
            max = hi;
        }
    }
    for &x in quads.remainder() {
        total += x.to_f64();
        if x < min {
            min = x;
        }
        if x > max {
            max = x;
        }
    }
    Summary { total, min, max }
}

/// Discrepancy `K = maxᵢ ℓᵢ − minᵢ ℓᵢ` of a continuous load vector.
pub fn discrepancy(loads: &[f64]) -> f64 {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    let s = summary(loads);
    s.max - s.min
}

/// Total load `S` of a discrete vector, exactly.
pub fn total_discrete(loads: &[i64]) -> i128 {
    loads.iter().map(|&l| l as i128).sum()
}

/// Exact scaled potential `Φ̂(L) = Σᵢ (n·ℓᵢ − S)² = n²·Φ(L)`.
///
/// Exact for `|ℓᵢ| ≤ 2⁶² / n`; the experiments use loads ≤ 2³² and
/// `n ≤ 2²⁰`, far inside the safe range.
pub fn phi_hat(loads: &[i64]) -> u128 {
    phi_hat_with(loads, None)
}

/// [`phi_hat`] with the block partials optionally computed over `pool`.
/// Integer sums are exact in any order; the blocked structure is kept so
/// the serial and parallel paths run the identical code.
pub fn phi_hat_with(loads: &[i64], pool: Option<&WorkerPool>) -> u128 {
    let n = loads.len() as i128;
    assert!(n >= 1, "load vector must be non-empty");
    let s: i128 = fold_blocks(
        loads.len(),
        pool,
        0,
        |r| {
            let block = &loads[r];
            move |acc, i| acc + block[i] as i128
        },
        |a, b| a + b,
        0,
    );
    fold_blocks(
        loads.len(),
        pool,
        0,
        |r| {
            let block = &loads[r];
            move |acc, i| {
                let centred = n * block[i] as i128 - s;
                acc + (centred * centred) as u128
            }
        },
        |a, b| a + b,
        0,
    )
}

/// Floating-point potential of a discrete vector: `Φ = Φ̂ / n²`.
pub fn phi_discrete(loads: &[i64]) -> f64 {
    let n = loads.len() as f64;
    phi_hat(loads) as f64 / (n * n)
}

/// Discrepancy of a discrete load vector.
pub fn discrepancy_discrete(loads: &[i64]) -> i64 {
    assert!(!loads.is_empty(), "load vector must be non-empty");
    let s = summary(loads);
    s.max - s.min
}

/// Exact all-pairs squared-difference sum `Σᵢ Σⱼ (ℓᵢ − ℓⱼ)²` (both ordered
/// pairs, matching the paper's double sum in Lemma 10).
///
/// Computed in `O(n)` via the expansion
/// `Σᵢⱼ (ℓᵢ − ℓⱼ)² = 2n·Σᵢ ℓᵢ² − 2·S²`.
pub fn pairwise_sq_sum(loads: &[i64]) -> u128 {
    let n = loads.len() as i128;
    let s: i128 = total_discrete(loads);
    let sq: i128 = loads.iter().map(|&l| (l as i128) * (l as i128)).sum();
    (2 * n * sq - 2 * s * s) as u128
}

/// Lemma 10 as an exact predicate: `n · Σᵢⱼ (ℓᵢ − ℓⱼ)² == 2 · Φ̂(L)`.
///
/// Always true — kept as an executable statement of the lemma (experiment
/// E9 evaluates it over randomized vectors; property tests over arbitrary
/// ones).
pub fn lemma10_exact_identity_holds(loads: &[i64]) -> bool {
    let n = loads.len() as u128;
    n * pairwise_sq_sum(loads) == 2 * phi_hat(loads)
}

/// Continuous all-pairs squared-difference sum, `O(n)`.
pub fn pairwise_sq_sum_continuous(loads: &[f64]) -> f64 {
    let n = loads.len() as f64;
    let s: f64 = loads.iter().sum();
    let sq: f64 = loads.iter().map(|&l| l * l).sum();
    2.0 * n * sq - 2.0 * s * s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FlowTally, TokenTally};

    #[test]
    fn phi_of_balanced_vector_is_zero() {
        assert_eq!(phi(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(phi_hat(&[7, 7, 7, 7]), 0);
    }

    #[test]
    fn phi_simple_example() {
        // loads [0, 2], mean 1: Φ = 1 + 1 = 2.
        assert!((phi(&[0.0, 2.0]) - 2.0).abs() < 1e-12);
        // Φ̂ = n²Φ = 8.
        assert_eq!(phi_hat(&[0, 2]), 8);
        assert!((phi_discrete(&[0, 2]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn phi_hat_handles_non_integer_mean() {
        // loads [0, 1]: mean 1/2, Φ = 1/2, Φ̂ = 4 * 1/2 = 2.
        assert_eq!(phi_hat(&[0, 1]), 2);
        assert!((phi_discrete(&[0, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phi_hat_negative_loads() {
        // Potential is translation-invariant.
        assert_eq!(phi_hat(&[-3, -1]), phi_hat(&[0, 2]));
    }

    #[test]
    fn discrepancy_basic() {
        assert_eq!(discrepancy(&[1.0, 9.0, 4.0]), 8.0);
        assert_eq!(discrepancy_discrete(&[-5, 3, 0]), 8);
        assert_eq!(discrepancy_discrete(&[2]), 0);
    }

    #[test]
    fn lemma10_identity_small_vectors() {
        for loads in [
            vec![0i64],
            vec![0, 1],
            vec![5, 5, 5],
            vec![0, 1, 2, 3, 4],
            vec![-10, 3, 7, 0, 0, 22],
            vec![1_000_000_007, 0, -999, 42],
        ] {
            assert!(lemma10_exact_identity_holds(&loads), "failed for {loads:?}");
        }
    }

    #[test]
    fn pairwise_sum_matches_naive() {
        let loads = [3i64, -1, 4, 1, -5];
        let mut naive: i128 = 0;
        for &a in &loads {
            for &b in &loads {
                naive += ((a - b) as i128).pow(2);
            }
        }
        assert_eq!(pairwise_sq_sum(&loads), naive as u128);
    }

    #[test]
    fn pairwise_continuous_matches_naive() {
        let loads = [0.5f64, -1.25, 3.75, 2.0];
        let mut naive = 0.0;
        for &a in &loads {
            for &b in &loads {
                naive += (a - b) * (a - b);
            }
        }
        assert!((pairwise_sq_sum_continuous(&loads) - naive).abs() < 1e-9);
    }

    #[test]
    fn phi_discrete_matches_float_phi() {
        let loads = [17i64, 3, 99, 0, 45, 45];
        let float: Vec<f64> = loads.iter().map(|&l| l as f64).collect();
        assert!((phi_discrete(&loads) - phi(&float)).abs() < 1e-9);
    }

    #[test]
    fn large_loads_do_not_overflow() {
        let loads = vec![1i64 << 32; 1000];
        assert_eq!(phi_hat(&loads), 0);
        let mut loads = loads;
        loads[0] += 1 << 20;
        assert!(phi_hat(&loads) > 0);
        assert!(lemma10_exact_identity_holds(&loads));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_vector_rejected() {
        phi(&[]);
    }

    /// Lengths around every lockstep edge: empty, one item, a block short
    /// of / exactly / just past one block and one lockstep group, and a
    /// run of groups with a short tail.
    const LENGTHS: [usize; 9] = [
        0,
        1,
        REDUCE_BLOCK - 1,
        REDUCE_BLOCK,
        REDUCE_BLOCK + 1,
        4 * REDUCE_BLOCK - 1,
        4 * REDUCE_BLOCK,
        4 * REDUCE_BLOCK + 1,
        9 * REDUCE_BLOCK + 7,
    ];

    /// Deterministic values mixing ±0.0, subnormals, magnitudes near
    /// 1e300 of both signs and ordinary loads.
    fn awkward(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
                match h % 9 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(1 + h % 1000),
                    3 => -f64::MIN_POSITIVE / (2.0 + (h % 7) as f64),
                    4 => 1e300 * (1.0 + (h % 13) as f64 / 16.0),
                    5 => -1e300 * (1.0 + (h % 11) as f64 / 16.0),
                    _ => (h % 100_003) as f64 * 0.37 - 9_000.0,
                }
            })
            .collect()
    }

    /// No pool, then pools of 1, 2 and 3 workers.
    fn pools() -> Vec<Option<WorkerPool>> {
        vec![
            None,
            Some(WorkerPool::new(1)),
            Some(WorkerPool::new(2)),
            Some(WorkerPool::new(3)),
        ]
    }

    /// The block-by-block reference: each block's `iter().sum()`, the
    /// partials folded in block order from +0.0.
    fn blockwise_sum(v: impl Iterator<Item = f64> + Clone, n: usize) -> f64 {
        let items: Vec<f64> = v.collect();
        assert_eq!(items.len(), n);
        items
            .chunks(REDUCE_BLOCK)
            .map(|c| c.iter().sum::<f64>())
            .fold(0.0, |a, b| a + b)
    }

    #[test]
    fn lockstep_sums_match_block_by_block_sums_bit_for_bit() {
        let pools = pools();
        for n in LENGTHS {
            let v = awkward(n);
            let want = blockwise_sum(v.iter().copied(), n);
            for pool in &pools {
                let got = fold_blocks(
                    n,
                    pool.as_ref(),
                    -0.0,
                    |r| {
                        let block = &v[r];
                        move |acc, i| acc + block[i]
                    },
                    |a, b| a + b,
                    0.0,
                );
                assert_eq!(got.to_bits(), want.to_bits(), "n = {n}, pool = {pool:?}");
                assert_eq!(sum_with(&v, pool.as_ref()).to_bits(), want.to_bits());
            }
            if n == 0 {
                continue;
            }
            // Φ: the same reference over the squared deviations, around
            // the reference mean; and a finite vector, so Φ is not ∞.
            let finite: Vec<f64> = v.iter().map(|x| x / 1e290).collect();
            let mu = blockwise_sum(finite.iter().copied(), n) / n as f64;
            let want = blockwise_sum(finite.iter().map(|&l| (l - mu) * (l - mu)), n);
            for pool in &pools {
                let got = phi_with(&finite, pool.as_ref());
                assert_eq!(got.to_bits(), want.to_bits(), "Φ, n = {n}, pool = {pool:?}");
            }
        }
    }

    #[test]
    fn lockstep_integer_sums_match_block_by_block_sums() {
        let pools = pools();
        for n in LENGTHS.into_iter().filter(|&n| n > 0) {
            let v: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 20_011 - 9_000).collect();
            let len = n as i128;
            let s: i128 = v
                .chunks(REDUCE_BLOCK)
                .map(|c| c.iter().map(|&l| l as i128).sum::<i128>())
                .sum();
            let want: u128 = v
                .chunks(REDUCE_BLOCK)
                .map(|c| {
                    c.iter()
                        .map(|&l| ((len * l as i128 - s) * (len * l as i128 - s)) as u128)
                        .sum::<u128>()
                })
                .sum();
            for pool in &pools {
                assert_eq!(
                    phi_hat_with(&v, pool.as_ref()),
                    want,
                    "n = {n}, pool = {pool:?}"
                );
            }
        }
    }

    /// `FlowTally::add` as it was before it went branch-free.
    fn branchy_flow(t: &mut FlowTally, w: f64) {
        if w > 0.0 {
            t.active += 1;
            t.total += w;
            t.max = t.max.max(w);
        }
    }

    #[test]
    fn lockstep_tallies_match_block_by_block_tallies_bit_for_bit() {
        let pools = pools();
        for n in LENGTHS {
            // Zero, negative-zero, negative and NaN flows must count for
            // nothing; positive ones (subnormal to 1e300) for everything.
            let flows: Vec<f64> = awkward(n)
                .into_iter()
                .enumerate()
                .map(|(i, w)| if i % 17 == 3 { f64::NAN } else { w })
                .collect();
            let want = flows
                .chunks(REDUCE_BLOCK)
                .map(|c| {
                    let mut t = FlowTally::default();
                    c.iter().for_each(|&w| branchy_flow(&mut t, w));
                    t
                })
                .fold(FlowTally::default(), FlowTally::merge);
            for pool in &pools {
                let got = fold_blocks(
                    n,
                    pool.as_ref(),
                    FlowTally::default(),
                    |r| {
                        let block = &flows[r];
                        move |mut t: FlowTally, i| {
                            t.add(block[i]);
                            t
                        }
                    },
                    FlowTally::merge,
                    FlowTally::default(),
                );
                assert_eq!(got.active, want.active, "n = {n}, pool = {pool:?}");
                assert_eq!(got.total.to_bits(), want.total.to_bits(), "n = {n}");
                assert_eq!(got.max.to_bits(), want.max.to_bits(), "n = {n}");
            }
            let serial = crate::engine::StatsCtx::serial().flow_tally(n, |k| flows[k]);
            assert_eq!(serial.total.to_bits(), want.total.to_bits(), "n = {n}");
            assert_eq!(
                (serial.active, serial.max.to_bits()),
                (want.active, want.max.to_bits())
            );

            let tokens: Vec<u64> = (0..n as u64).map(|k| (k * 2_654_435_761) % 7).collect();
            let want = tokens
                .chunks(REDUCE_BLOCK)
                .map(|c| {
                    let mut t = TokenTally::default();
                    for &x in c {
                        if x > 0 {
                            t.active += 1;
                            t.total += x;
                            t.max = t.max.max(x);
                        }
                    }
                    t
                })
                .fold(TokenTally::default(), TokenTally::merge);
            let got = crate::engine::StatsCtx::serial().token_tally(n, |k| tokens[k]);
            assert_eq!(
                (got.active, got.total, got.max),
                (want.active, want.total, want.max)
            );
        }
    }

    /// The three folds the scenario runner made before the summary sweep.
    fn old_folds(v: &[f64]) -> (f64, f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in v {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (v.iter().sum(), lo, hi)
    }

    fn summary_vectors() -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = LENGTHS.iter().map(|&n| awkward(n)).collect();
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 4097] {
            out.push(
                (0..n)
                    .map(|i| if i % 3 == 1 { -0.0 } else { 0.0 })
                    .collect(),
            );
            out.push(
                (0..n)
                    .map(|i| if i % 2 == 0 { -0.0 } else { 0.0 })
                    .collect(),
            );
            out.push(vec![-0.0; n]);
            out.push(vec![f64::INFINITY; n]);
            out.push(vec![f64::NEG_INFINITY; n]);
            out.push(
                (0..n)
                    .map(|i| [f64::INFINITY, -1.0, f64::NEG_INFINITY, f64::NAN][i % 4])
                    .collect(),
            );
            out.push((0..n).map(|i| [3.0, 0.0, -0.0, 3.0, 1.0][i % 5]).collect());
            out.push(
                (0..n)
                    .map(|i| [-0.0, -2.0, 0.0, -2.0][(i + 1) % 4])
                    .collect(),
            );
        }
        out
    }

    #[test]
    fn summary_matches_the_three_folds_it_replaces() {
        for v in summary_vectors() {
            let (total, lo, hi) = old_folds(&v);
            let s = summary(&v);
            assert_eq!(
                s.total.to_bits(),
                total.to_bits(),
                "{:?}",
                &v[..v.len().min(9)]
            );
            assert_eq!(s.min.to_bits(), lo.to_bits(), "{:?}", &v[..v.len().min(9)]);
            assert_eq!(s.max.to_bits(), hi.to_bits(), "{:?}", &v[..v.len().min(9)]);
            assert_eq!((s.max - s.min).to_bits(), (hi - lo).to_bits());
            if !v.is_empty() {
                assert_eq!(discrepancy(&v).to_bits(), (hi - lo).to_bits());
            }

            // Tokens: the old folds ran over `as f64` conversions.
            let tokens: Vec<i64> = v
                .iter()
                .enumerate()
                .map(|(i, &x)| match x {
                    x if x.is_nan() => i as i64,
                    x if x.is_infinite() => x.signum() as i64 * (1 << 53),
                    x => (x / 1e290) as i64 + i as i64 % 5 - 2,
                })
                .collect();
            if tokens.is_empty() {
                continue;
            }
            let as_f64: Vec<f64> = tokens.iter().map(|&t| t as f64).collect();
            let (total, lo, hi) = old_folds(&as_f64);
            let s = summary(&tokens);
            assert_eq!(s.total.to_bits(), total.to_bits());
            assert_eq!((s.min as f64).to_bits(), lo.to_bits());
            assert_eq!((s.max as f64).to_bits(), hi.to_bits());
            assert_eq!((s.max as f64 - s.min as f64).to_bits(), (hi - lo).to_bits());
            let (imin, imax) = (tokens.iter().min().unwrap(), tokens.iter().max().unwrap());
            assert_eq!(discrepancy_discrete(&tokens), imax - imin);
        }
    }

    #[test]
    fn summary_keeps_the_earliest_of_tied_extremes() {
        // `<` cannot tell +0.0 from −0.0; the earliest zero wins, wherever
        // it falls inside a group of four.
        for lead in 0..6 {
            let mut v = vec![1.0; lead];
            v.extend([-0.0, 0.0, 2.0, 0.0, -0.0]);
            let s = summary(&v);
            assert_eq!(s.min.to_bits(), (-0.0f64).to_bits(), "lead {lead}");
            let mut v = vec![-1.0; lead];
            v.extend([0.0, -0.0, -2.0, -0.0]);
            assert_eq!(summary(&v).max.to_bits(), 0.0f64.to_bits(), "lead {lead}");
        }
        // NaN is never an extreme, in any position.
        let s = summary(&[f64::NAN, 2.0, f64::NAN, 1.0, f64::NAN]);
        assert_eq!((s.min, s.max), (1.0, 2.0));
        let s = summary::<f64>(&[]);
        assert_eq!(
            (s.total.to_bits(), s.min, s.max),
            ((-0.0f64).to_bits(), f64::INFINITY, f64::NEG_INFINITY)
        );
    }
}
