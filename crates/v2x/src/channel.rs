//! DSRC radio propagation: log-distance path loss with Nakagami-m fading and
//! SINR-based reception, the standard highway V2V channel model (as used in
//! Veins, the network simulator underlying Plexe \[39\]).

use crate::message::{distance, Position};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Physical-layer parameters of the 5.9 GHz DSRC channel.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DsrcPhy {
    /// Bit rate in bits/s (802.11p default data rate is 6 Mb/s).
    pub bitrate: f64,
    /// Path-loss exponent (highway LOS ≈ 2.0–2.5).
    pub path_loss_exponent: f64,
    /// Path loss at the 1 m reference distance, dB (≈ 47.86 dB at 5.9 GHz
    /// free space).
    pub reference_loss_db: f64,
    /// Nakagami fading shape parameter m (m = 3 near, m = 1 ⇒ Rayleigh far).
    pub nakagami_m: f64,
    /// Thermal noise floor in dBm for a 10 MHz channel (≈ −104 dBm + NF).
    pub noise_floor_dbm: f64,
    /// Minimum SINR in dB for successful decoding at the default rate.
    pub sinr_threshold_db: f64,
    /// Default transmit power in dBm.
    pub default_tx_power_dbm: f64,
}

impl Default for DsrcPhy {
    fn default() -> Self {
        DsrcPhy {
            bitrate: 6e6,
            path_loss_exponent: 2.2,
            reference_loss_db: 47.86,
            nakagami_m: 3.0,
            noise_floor_dbm: -99.0,
            sinr_threshold_db: 8.0,
            default_tx_power_dbm: 20.0,
        }
    }
}

impl DsrcPhy {
    /// Deterministic (median) received power at a given distance, in dBm.
    ///
    /// Distances below 1 m are clamped to the reference distance.
    pub fn median_rx_power_dbm(&self, tx_power_dbm: f64, dist_m: f64) -> f64 {
        let d = dist_m.max(1.0);
        tx_power_dbm - self.reference_loss_db - 10.0 * self.path_loss_exponent * d.log10()
    }

    /// Samples a faded received power (median power scaled by a Nakagami-m
    /// power gain with unit mean).
    pub fn sample_rx_power_dbm<R: Rng + ?Sized>(
        &self,
        tx_power_dbm: f64,
        dist_m: f64,
        rng: &mut R,
    ) -> f64 {
        let median = self.median_rx_power_dbm(tx_power_dbm, dist_m);
        let gain = nakagami_power_gain(self.nakagami_m, rng);
        median + 10.0 * gain.log10()
    }

    /// The distance at which the median received power hits the decoding
    /// threshold (SINR threshold over noise alone) — the nominal radio range.
    pub fn nominal_range_m(&self, tx_power_dbm: f64) -> f64 {
        let budget =
            tx_power_dbm - self.reference_loss_db - self.noise_floor_dbm - self.sinr_threshold_db;
        10f64.powf(budget / (10.0 * self.path_loss_exponent))
    }

    /// The distance beyond which the *median* received power falls below
    /// `floor_dbm`. Clamped to the 1 m reference distance (below which
    /// [`Self::median_rx_power_dbm`] is constant), so any position whose
    /// median power reaches the floor lies within the returned range — a
    /// safe pruning radius for carrier-sense checks.
    pub fn range_for_median_power_m(&self, tx_power_dbm: f64, floor_dbm: f64) -> f64 {
        let budget = tx_power_dbm - self.reference_loss_db - floor_dbm;
        10f64
            .powf(budget / (10.0 * self.path_loss_exponent))
            .max(1.0)
    }

    /// The receiver noise floor in both units, for callers that test many
    /// signals against it.
    pub(crate) fn noise(&self) -> NoiseFloor {
        let mw = dbm_to_mw(self.noise_floor_dbm);
        NoiseFloor {
            mw,
            dbm: mw_to_dbm(mw),
        }
    }

    /// Whether a signal at `signal_dbm` decodes against `interference_mw`
    /// milliwatts of co-channel interference.
    pub fn decodes(&self, signal_dbm: f64, interference_mw: f64) -> bool {
        self.decodes_over(self.noise(), signal_dbm, interference_mw)
    }

    /// [`Self::decodes`] against a precomputed [`Self::noise`]. Without
    /// interference the floor is `noise.dbm`, which is bit-identical to
    /// `mw_to_dbm(noise.mw + 0.0)`, so the log is skipped exactly.
    pub(crate) fn decodes_over(
        &self,
        noise: NoiseFloor,
        signal_dbm: f64,
        interference_mw: f64,
    ) -> bool {
        let floor_dbm = if interference_mw == 0.0 {
            noise.dbm
        } else {
            mw_to_dbm(noise.mw + interference_mw)
        };
        signal_dbm - floor_dbm >= self.sinr_threshold_db
    }
}

/// A PHY's noise floor in milliwatts and in dBm (the dBm value is the
/// round trip of the milliwatts, as an SINR sum would see it).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NoiseFloor {
    mw: f64,
    dbm: f64,
}

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.log10()
}

/// Samples a unit-mean Nakagami-m *power* gain (i.e. a Gamma(m, 1/m) draw).
///
/// Uses the Marsaglia–Tsang method for m ≥ 1, which covers the V2V range.
pub fn nakagami_power_gain<R: Rng + ?Sized>(m: f64, rng: &mut R) -> f64 {
    assert!(m >= 0.5, "Nakagami m must be >= 0.5");
    // Gamma(shape=m, scale=1/m) via Marsaglia-Tsang (valid for shape >= 1;
    // for 0.5 <= m < 1 use the boost trick with a uniform power).
    let shape = if m >= 1.0 { m } else { m + 1.0 };
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    let sample = loop {
        // Standard normal via Box-Muller.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            break d * v;
        }
    };
    let sample = if m >= 1.0 {
        sample
    } else {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        sample * u.powf(1.0 / m)
    };
    sample / m // scale to unit mean
}

/// Convenience: SINR-based reception test between two positions.
pub fn link_decodes<R: Rng + ?Sized>(
    phy: &DsrcPhy,
    tx_power_dbm: f64,
    from: Position,
    to: Position,
    interference_mw: f64,
    rng: &mut R,
) -> (bool, f64) {
    let d = distance(from, to);
    let rx = phy.sample_rx_power_dbm(tx_power_dbm, d, rng);
    (phy.decodes(rx, interference_mw), rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn median_power_decreases_with_distance() {
        let phy = DsrcPhy::default();
        let p10 = phy.median_rx_power_dbm(20.0, 10.0);
        let p100 = phy.median_rx_power_dbm(20.0, 100.0);
        let p1000 = phy.median_rx_power_dbm(20.0, 1000.0);
        assert!(p10 > p100 && p100 > p1000);
        // Per decade: 10·n dB.
        assert!((p10 - p100 - 22.0).abs() < 1e-9);
    }

    #[test]
    fn nominal_range_is_plausible_for_dsrc() {
        let phy = DsrcPhy::default();
        let range = phy.nominal_range_m(phy.default_tx_power_dbm);
        // 802.11p at 20 dBm typically reaches several hundred metres.
        assert!(
            (200.0..2000.0).contains(&range),
            "implausible nominal range {range} m"
        );
    }

    #[test]
    fn median_power_range_is_a_safe_pruning_radius() {
        let phy = DsrcPhy::default();
        for floor in [-85.0, -70.0, -99.0] {
            let r = phy.range_for_median_power_m(20.0, floor);
            // Just inside: median power at or above the floor.
            assert!(phy.median_rx_power_dbm(20.0, r * 0.999) >= floor);
            // Just outside: below the floor.
            assert!(phy.median_rx_power_dbm(20.0, r * 1.001) < floor);
        }
        // A hopeless budget still returns the 1 m clamp, never less.
        assert_eq!(phy.range_for_median_power_m(-200.0, -85.0), 1.0);
    }

    #[test]
    fn dbm_mw_roundtrip() {
        for dbm in [-100.0, -50.0, 0.0, 20.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(30.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn nakagami_gain_has_unit_mean() {
        let mut rng = rng();
        for m in [1.0, 3.0] {
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|_| nakagami_power_gain(m, &mut rng))
                .sum::<f64>()
                / n as f64;
            assert!((mean - 1.0).abs() < 0.05, "m={m} mean={mean}");
        }
    }

    #[test]
    fn higher_m_means_less_variance() {
        let mut rng = rng();
        let var = |m: f64, rng: &mut StdRng| {
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| nakagami_power_gain(m, rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64
        };
        assert!(var(5.0, &mut rng) < var(1.0, &mut rng));
    }

    #[test]
    fn close_link_decodes_far_link_does_not() {
        let phy = DsrcPhy::default();
        let mut rng = rng();
        let mut close_ok = 0;
        let mut far_ok = 0;
        for _ in 0..200 {
            if link_decodes(&phy, 20.0, (0.0, 0.0), (20.0, 0.0), 0.0, &mut rng).0 {
                close_ok += 1;
            }
            if link_decodes(&phy, 20.0, (0.0, 0.0), (5000.0, 0.0), 0.0, &mut rng).0 {
                far_ok += 1;
            }
        }
        assert!(close_ok > 195, "close link PDR too low: {close_ok}/200");
        assert!(far_ok < 5, "5 km link should not decode: {far_ok}/200");
    }

    #[test]
    fn interference_breaks_decoding() {
        let phy = DsrcPhy::default();
        let signal = phy.median_rx_power_dbm(20.0, 50.0);
        assert!(phy.decodes(signal, 0.0));
        // Interference 30 dB above the noise floor.
        let strong_interference = dbm_to_mw(phy.noise_floor_dbm + 40.0);
        assert!(!phy.decodes(signal, strong_interference));
    }

    #[test]
    fn precomputed_noise_decides_like_the_direct_sinr_formula() {
        let phy = DsrcPhy::default();
        let noise = phy.noise();
        for interference_mw in [0.0, 1e-13, 1e-10, 1e-7] {
            let floor = mw_to_dbm(dbm_to_mw(phy.noise_floor_dbm) + interference_mw);
            let edge = floor + phy.sinr_threshold_db;
            // The exact threshold and its neighbouring floats.
            for signal_dbm in [edge, f64::from_bits(edge.to_bits() - 1), edge + 1e-12] {
                assert_eq!(
                    phy.decodes_over(noise, signal_dbm, interference_mw),
                    signal_dbm - floor >= phy.sinr_threshold_db,
                    "signal {signal_dbm} interference {interference_mw}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "Nakagami")]
    fn tiny_m_panics() {
        nakagami_power_gain(0.1, &mut rng());
    }
}
