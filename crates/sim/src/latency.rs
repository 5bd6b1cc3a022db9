//! Latency and CPU models.
//!
//! §3.1 of the paper motivates optimism with concrete numbers: a
//! transcontinental fibre channel has a 30 ms round trip; a 100 MIPS CPU
//! executes over 3 million instructions in that window. [`LatencyModel`]
//! produces message latencies (deterministically, from a [`SimRng`]);
//! [`CpuModel`] converts instruction counts to virtual compute time so the
//! §3.1 arithmetic is reproducible (experiment E3).

use std::fmt;

use crate::rng::SimRng;
use crate::time::VirtualDuration;

/// A distribution of one-way message latencies.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(VirtualDuration),
    /// Uniformly distributed between `lo` and `hi` (inclusive of `lo`,
    /// exclusive of `hi`).
    Uniform {
        /// Minimum latency.
        lo: VirtualDuration,
        /// Maximum latency (exclusive).
        hi: VirtualDuration,
    },
}

impl LatencyModel {
    /// Zero latency (co-located processes).
    pub fn zero() -> Self {
        LatencyModel::Fixed(VirtualDuration::ZERO)
    }

    /// A LAN-like fixed latency: 100 µs one-way.
    pub fn lan() -> Self {
        LatencyModel::Fixed(VirtualDuration::from_micros(100))
    }

    /// The paper's transcontinental link: 30 ms round trip, so 15 ms
    /// one-way (§3.1).
    pub fn coast_to_coast() -> Self {
        LatencyModel::Fixed(VirtualDuration::from_millis(15))
    }

    /// Draw one latency sample.
    pub fn sample(&self, rng: &mut SimRng) -> VirtualDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform { lo, hi } => {
                let (a, b) = (lo.as_nanos(), hi.as_nanos());
                if a >= b {
                    *lo
                } else {
                    VirtualDuration::from_nanos(rng.range_u64(a, b))
                }
            }
        }
    }

    /// The expected latency of this model.
    pub fn mean(&self) -> VirtualDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform { lo, hi } => {
                VirtualDuration::from_nanos((lo.as_nanos() + hi.as_nanos()) / 2)
            }
        }
    }
}

impl Default for LatencyModel {
    /// Defaults to [`LatencyModel::lan`].
    fn default() -> Self {
        LatencyModel::lan()
    }
}

impl fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyModel::Fixed(d) => write!(f, "fixed({d})"),
            LatencyModel::Uniform { lo, hi } => write!(f, "uniform({lo}..{hi})"),
        }
    }
}

/// A CPU speed model: converts instruction counts to virtual time.
///
/// # Examples
///
/// The paper's §3.1 claim, verified:
///
/// ```
/// use hope_sim::{CpuModel, VirtualDuration};
///
/// let cpu = CpuModel::mips(100);
/// let rtt = VirtualDuration::from_millis(30);
/// assert!(cpu.instructions_in(rtt) >= 3_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuModel {
    /// Instructions executed per second.
    instructions_per_sec: u64,
}

impl CpuModel {
    /// A CPU executing `m` million instructions per second.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mips(m: u64) -> Self {
        assert!(m > 0, "CPU speed must be positive");
        CpuModel {
            instructions_per_sec: m * 1_000_000,
        }
    }

    /// Instructions executable within `d`.
    pub fn instructions_in(&self, d: VirtualDuration) -> u64 {
        ((d.as_nanos() as u128 * self.instructions_per_sec as u128) / 1_000_000_000u128) as u64
    }
}

impl Default for CpuModel {
    /// The paper's 100 MIPS CPU.
    fn default() -> Self {
        CpuModel::mips(100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_same() {
        let m = LatencyModel::Fixed(VirtualDuration::from_millis(5));
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), VirtualDuration::from_millis(5));
        }
        assert_eq!(m.mean(), VirtualDuration::from_millis(5));
    }

    #[test]
    fn uniform_within_bounds() {
        let m = LatencyModel::Uniform {
            lo: VirtualDuration::from_millis(1),
            hi: VirtualDuration::from_millis(2),
        };
        let mut rng = SimRng::new(2);
        for _ in 0..100 {
            let s = m.sample(&mut rng);
            assert!(s >= VirtualDuration::from_millis(1));
            assert!(s < VirtualDuration::from_millis(2));
        }
        assert_eq!(m.mean().as_nanos(), 1_500_000);
    }

    #[test]
    fn uniform_degenerate_range() {
        let d = VirtualDuration::from_millis(3);
        let m = LatencyModel::Uniform { lo: d, hi: d };
        let mut rng = SimRng::new(2);
        assert_eq!(m.sample(&mut rng), d);
    }

    #[test]
    fn presets() {
        assert_eq!(
            LatencyModel::lan().mean(),
            VirtualDuration::from_micros(100)
        );
        assert_eq!(
            LatencyModel::coast_to_coast().mean(),
            VirtualDuration::from_millis(15)
        );
        assert_eq!(LatencyModel::default(), LatencyModel::lan());
    }

    #[test]
    fn display() {
        assert!(LatencyModel::lan().to_string().starts_with("fixed("));
        let u = LatencyModel::Uniform {
            lo: VirtualDuration::ZERO,
            hi: VirtualDuration::from_millis(1),
        };
        assert!(u.to_string().starts_with("uniform("));
    }

    #[test]
    fn cpu_paper_arithmetic() {
        // §3.1: 100 MIPS × 30 ms RTT > 3 million instructions.
        let cpu = CpuModel::mips(100);
        let n = cpu.instructions_in(VirtualDuration::from_millis(30));
        assert_eq!(n, 3_000_000);
    }
}
