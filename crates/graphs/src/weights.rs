//! Precomputed per-slot edge weights for the diffusion gather kernels.
//!
//! Algorithm 1 divides every per-edge transfer by `k·max(dᵢ, dⱼ)` (the
//! paper fixes `k = 4`). Recomputing that divisor inside the hot gather
//! loop costs two degree lookups, a `max`, an integer→float conversion and
//! a multiply per neighbour slot — all of it round-invariant on a fixed
//! graph. These helpers materialize the divisors once, aligned with the
//! CSR neighbour slots (index with [`Graph::neighbor_offset`]) or with the
//! canonical edge list, so the gather reduces to a stream over two
//! contiguous arrays.
//!
//! The tables store the **divisor** `k·max(dᵢ, dⱼ)` rather than its
//! reciprocal: dividing by the precomputed value performs bit-for-bit the
//! same floating-point operation as the historical on-the-fly kernel
//! (multiplying by a precomputed reciprocal would change the last-ulp
//! rounding whenever the divisor is not a power of two, breaking the exact
//! golden-value equivalence the test-suite pins).
//!
//! On a regular graph every divisor is the same `k·d`, so the tables carry
//! no information: [`uniform_divisor`] / [`uniform_divisor_int`] return
//! that one value (computed with the per-slot expression) and callers can
//! skip materializing the tables altogether.

use crate::Graph;

/// The one divisor `k·d` shared by every slot and edge when all degrees
/// equal `d`, computed exactly as [`csr_divisors`] computes each slot;
/// `None` when the degrees differ.
pub fn uniform_divisor(g: &Graph, k: f64) -> Option<f64> {
    assert!(k > 0.0 && k.is_finite(), "divisor factor must be positive");
    let d = g.max_degree();
    (g.min_degree() == d).then_some(k * d as f64)
}

/// Integer twin of [`uniform_divisor`]: `Some(k·d)` on a `d`-regular graph,
/// computed exactly as [`csr_divisors_int`] computes each slot.
pub fn uniform_divisor_int(g: &Graph, k: u32) -> Option<i64> {
    assert!(k > 0, "divisor factor must be positive");
    let d = g.max_degree();
    (g.min_degree() == d).then_some(k as i64 * d as i64)
}

/// CSR-slot-aligned divisors `k·max(dᵢ, dⱼ)` as `f64`.
///
/// Slot `Graph::neighbor_offset(v) + i` holds the divisor for the edge from
/// `v` to `neighbors(v)[i]`; both orientations of an edge carry the same
/// value. Length `2m`.
pub fn csr_divisors(g: &Graph, k: f64) -> Vec<f64> {
    assert!(k > 0.0 && k.is_finite(), "divisor factor must be positive");
    let mut out = Vec::with_capacity(g.degree_sum());
    for v in g.nodes() {
        let dv = g.degree(v);
        for &u in g.neighbors(v) {
            out.push(k * dv.max(g.degree(u)) as f64);
        }
    }
    out
}

/// CSR-slot-aligned integer divisors `k·max(dᵢ, dⱼ)` for the discrete
/// (token) kernels. Length `2m`.
pub fn csr_divisors_int(g: &Graph, k: u32) -> Vec<i64> {
    assert!(k > 0, "divisor factor must be positive");
    let mut out = Vec::with_capacity(g.degree_sum());
    for v in g.nodes() {
        let dv = g.degree(v);
        for &u in g.neighbors(v) {
            out.push(k as i64 * dv.max(g.degree(u)) as i64);
        }
    }
    out
}

/// Edge-list-aligned divisors `k·max(dᵤ, dᵥ)` as `f64`, index-matched with
/// [`Graph::edges`]. Length `m`. Used by the per-round flow-statistics
/// sweeps.
pub fn edge_divisors(g: &Graph, k: f64) -> Vec<f64> {
    assert!(k > 0.0 && k.is_finite(), "divisor factor must be positive");
    g.edges()
        .iter()
        .map(|&(u, v)| k * g.degree(u).max(g.degree(v)) as f64)
        .collect()
}

/// Edge-list-aligned integer divisors `k·max(dᵤ, dᵥ)`, index-matched with
/// [`Graph::edges`]. Length `m`.
pub fn edge_divisors_int(g: &Graph, k: u32) -> Vec<i64> {
    assert!(k > 0, "divisor factor must be positive");
    g.edges()
        .iter()
        .map(|&(u, v)| k as i64 * g.degree(u).max(g.degree(v)) as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn csr_divisors_match_on_the_fly() {
        let g = topology::barbell(5);
        let w = csr_divisors(&g, 4.0);
        assert_eq!(w.len(), g.degree_sum());
        for v in g.nodes() {
            let off = g.neighbor_offset(v);
            for (i, &u) in g.neighbors(v).iter().enumerate() {
                let expect = 4.0 * g.degree(v).max(g.degree(u)) as f64;
                assert_eq!(w[off + i], expect, "slot ({v},{u})");
            }
        }
    }

    #[test]
    fn csr_divisors_symmetric_across_orientations() {
        let g = topology::wheel(9);
        let w = csr_divisors(&g, 4.0);
        for &(u, v) in g.edges() {
            let iu = g.neighbors(u).binary_search(&v).unwrap();
            let iv = g.neighbors(v).binary_search(&u).unwrap();
            assert_eq!(w[g.neighbor_offset(u) + iu], w[g.neighbor_offset(v) + iv]);
        }
    }

    #[test]
    fn edge_divisors_match_edge_list() {
        let g = topology::binary_tree(12);
        let w = edge_divisors(&g, 4.0);
        let wi = edge_divisors_int(&g, 4);
        assert_eq!(w.len(), g.m());
        for (k, &(u, v)) in g.edges().iter().enumerate() {
            let d = g.degree(u).max(g.degree(v));
            assert_eq!(w[k], 4.0 * d as f64);
            assert_eq!(wi[k], 4 * d as i64);
        }
    }

    #[test]
    fn uniform_divisor_only_on_regular_graphs() {
        for g in [
            topology::torus2d(4, 5),
            topology::hypercube(5),
            topology::cycle(9),
        ] {
            let c = uniform_divisor(&g, 4.0).expect("regular");
            assert!(csr_divisors(&g, 4.0).iter().all(|&d| d == c));
            assert!(edge_divisors(&g, 4.0).iter().all(|&d| d == c));
            let ci = uniform_divisor_int(&g, 4).expect("regular");
            assert!(csr_divisors_int(&g, 4).iter().all(|&d| d == ci));
            assert!(edge_divisors_int(&g, 4).iter().all(|&d| d == ci));
        }
        for g in [topology::star(6), topology::grid2d(3, 4), topology::path(5)] {
            assert_eq!(uniform_divisor(&g, 4.0), None);
            assert_eq!(uniform_divisor_int(&g, 4), None);
        }
    }

    #[test]
    fn int_divisors_agree_with_float() {
        let g = topology::complete(7);
        let f = csr_divisors(&g, 4.0);
        let i = csr_divisors_int(&g, 4);
        for (a, b) in f.iter().zip(&i) {
            assert_eq!(*a, *b as f64);
        }
    }
}
