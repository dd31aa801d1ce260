//! Output checks applied to every scenario repetition. A repetition that
//! fails any of them counts as failed; no check is relaxed to let a run
//! pass.

/// Relative tolerance of the conservation check — the same bound the
/// scenarios CLI enforces. Continuous loads conserve only up to
/// floating-point rounding, which stays orders of magnitude below this.
pub const CONSERVATION_TOL: f64 = 1e-9;

/// Load conservation: `final = initial + injected − consumed`, within
/// [`CONSERVATION_TOL`] relative to the magnitude of the flows.
pub fn conservation(
    initial: f64,
    injected: f64,
    consumed: f64,
    final_total: f64,
) -> Result<(), String> {
    let expected = initial + injected - consumed;
    let scale = (initial.abs() + injected + consumed).max(1.0);
    let rel = (final_total - expected).abs() / scale;
    if rel <= CONSERVATION_TOL {
        Ok(())
    } else {
        Err(format!(
            "conservation: final total {final_total} vs expected {expected} \
             (relative error {rel:.3e} > {CONSERVATION_TOL:e})"
        ))
    }
}

/// Bit-exact fingerprint of a run's outcome: final Φ, final total and an
/// FNV-1a hash over the bits of every final load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub phi_bits: u64,
    pub total_bits: u64,
    pub loads_hash: u64,
}

impl Digest {
    pub fn of(phi: f64, total: f64, loads: &[f64]) -> Digest {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for v in loads {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Digest {
            phi_bits: phi.to_bits(),
            total_bits: total.to_bits(),
            loads_hash: hash,
        }
    }
}

/// The executor under test must reproduce the serial replay bit for bit.
pub fn replay_matches(run: Digest, replay: Digest) -> Result<(), String> {
    if run == replay {
        Ok(())
    } else {
        Err(format!(
            "replay mismatch: final Φ {} vs serial {}, total {} vs serial {}, \
             loads hash {:#x} vs serial {:#x}",
            f64::from_bits(run.phi_bits),
            f64::from_bits(replay.phi_bits),
            f64::from_bits(run.total_bits),
            f64::from_bits(replay.total_bits),
            run.loads_hash,
            replay.loads_hash
        ))
    }
}

/// First round whose Φ is at most `eps·Φ₀` (`phi_trace[0]` is Φ₀).
pub fn rounds_to_eps(phi_trace: &[f64], eps: f64) -> Option<usize> {
    let target = eps * phi_trace.first()?;
    phi_trace.iter().position(|&phi| phi <= target)
}

/// Theorem 4 of the paper as an oracle on a workload-free run: Φ reaches
/// `eps·Φ₀` within `rounds_bound` rounds, and every round drops Φ by at
/// least the relative factor `drop_factor`.
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    pub eps: f64,
    pub rounds_bound: f64,
    pub drop_factor: f64,
}

impl Oracle {
    /// Counts violations in a Φ trace: one if Φ never reaches `eps·Φ₀` or
    /// reaches it later than the bound, plus one per round whose relative
    /// drop falls short of the factor.
    pub fn violations(&self, phi_trace: &[f64]) -> u64 {
        let late = match rounds_to_eps(phi_trace, self.eps) {
            Some(rounds) => rounds as f64 > self.rounds_bound,
            None => true,
        };
        let slow = phi_trace
            .windows(2)
            .filter(|w| w[0] > 0.0 && (w[0] - w[1]) / w[0] < self.drop_factor)
            .count() as u64;
        u64::from(late) + slow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_accepts_exact_and_fires_on_perturbed_total() {
        assert!(conservation(1000.0, 50.0, 20.0, 1030.0).is_ok());
        let perturbed = 1030.0 * (1.0 + 1e-6);
        assert!(conservation(1000.0, 50.0, 20.0, perturbed).is_err());
    }

    #[test]
    fn replay_fires_on_a_flipped_digest_bit() {
        let loads = [1.0, 2.5, 3.25];
        let d = Digest::of(4.0, 6.75, &loads);
        assert!(replay_matches(d, Digest::of(4.0, 6.75, &loads)).is_ok());
        for flip in [
            Digest {
                phi_bits: d.phi_bits ^ 1,
                ..d
            },
            Digest {
                total_bits: d.total_bits ^ 1,
                ..d
            },
            Digest {
                loads_hash: d.loads_hash ^ 1,
                ..d
            },
        ] {
            assert!(replay_matches(flip, d).is_err());
        }
        // One flipped mantissa bit in one load changes the hash.
        let mut nudged = loads;
        nudged[1] = f64::from_bits(nudged[1].to_bits() ^ 1);
        assert_ne!(Digest::of(4.0, 6.75, &nudged), d);
    }

    #[test]
    fn oracle_fires_when_bound_is_below_observed() {
        // Φ halves each round: reaches 1e-3·Φ₀ at round 10.
        let trace: Vec<f64> = (0..12).map(|t| 0.5f64.powi(t)).collect();
        assert_eq!(rounds_to_eps(&trace, 1e-3), Some(10));
        let ok = Oracle {
            eps: 1e-3,
            rounds_bound: 10.0,
            drop_factor: 0.5,
        };
        assert_eq!(ok.violations(&trace), 0);
        let bound_below = Oracle {
            rounds_bound: 9.0,
            ..ok
        };
        assert_eq!(bound_below.violations(&trace), 1);
        let factor_above = Oracle {
            drop_factor: 0.6,
            ..ok
        };
        assert_eq!(factor_above.violations(&trace), 11);
        let never = Oracle { eps: 1e-9, ..ok };
        assert_eq!(never.violations(&trace), 1);
    }
}
