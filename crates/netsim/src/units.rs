//! Data-rate and size units.
//!
//! Rates are bits per second wrapped in [`Rate`]; sizes are plain byte counts
//! (`u64`). [`Rate`] knows how to convert between bytes and transmission time,
//! which is the single conversion every part of the simulator needs.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A data rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Rate(f64);

impl Rate {
    /// The zero rate.
    pub const ZERO: Rate = Rate(0.0);

    /// Construct from bits per second.
    pub fn from_bps(bps: f64) -> Self {
        debug_assert!(bps >= 0.0 && bps.is_finite(), "invalid rate {bps}");
        Rate(bps)
    }

    /// Construct from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        Rate::from_bps(mbps * 1e6)
    }

    /// Construct from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Rate::from_bps(gbps * 1e9)
    }

    /// Rate in bits per second.
    pub fn bps(self) -> f64 {
        self.0
    }

    /// Rate in megabits per second.
    pub fn mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// Rate in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// Time to transmit `bytes` at this rate.
    ///
    /// A zero rate returns [`SimDuration::MAX`] (the transfer never finishes),
    /// so callers can treat a paused link uniformly.
    pub fn time_to_send(self, bytes: u64) -> SimDuration {
        if self.0 <= 0.0 {
            return SimDuration::MAX;
        }
        SimDuration::from_secs_f64((bytes as f64 * 8.0) / self.0)
    }

    /// The smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// The larger of two rates.
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// True if this rate is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl Sub for Rate {
    type Output = Rate;
    fn sub(self, rhs: Rate) -> Rate {
        Rate((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Rate {
    type Output = Rate;
    fn mul(self, rhs: f64) -> Rate {
        debug_assert!(rhs >= 0.0 && rhs.is_finite());
        Rate(self.0 * rhs)
    }
}

impl Div<f64> for Rate {
    type Output = Rate;
    fn div(self, rhs: f64) -> Rate {
        debug_assert!(rhs > 0.0 && rhs.is_finite());
        Rate(self.0 / rhs)
    }
}

impl Div<Rate> for Rate {
    type Output = f64;
    fn div(self, rhs: Rate) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2}Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2}Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2}Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0}bps", self.0)
        }
    }
}

/// Standard Ethernet MTU payload size used throughout the simulator.
pub const MTU_BYTES: u64 = 1500;

/// Bytes of TCP/IP header overhead we model per packet.
pub const HEADER_BYTES: u64 = 40;

/// Maximum segment size: MTU minus header overhead.
pub const MSS_BYTES: u64 = MTU_BYTES - HEADER_BYTES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn conversions() {
        let r = Rate::from_mbps(8.0);
        assert_eq!(r.bps(), 8e6);
        assert_eq!(r.bytes_per_sec(), 1e6);
        assert_eq!(Rate::from_gbps(1.0), Rate::from_mbps(1000.0));
    }

    #[test]
    fn time_to_send_one_packet() {
        let r = Rate::from_mbps(12.0);
        // 1500 bytes at 12 Mbps = 1 ms.
        assert_eq!(r.time_to_send(1500), SimDuration::from_millis(1));
    }

    #[test]
    fn zero_rate_never_finishes() {
        assert_eq!(Rate::ZERO.time_to_send(1), SimDuration::MAX);
    }

    #[test]
    fn arithmetic_saturates_at_zero() {
        let a = Rate::from_mbps(5.0);
        let b = Rate::from_mbps(8.0);
        assert_eq!(a - b, Rate::ZERO);
        assert_eq!(b - a, Rate::from_mbps(3.0));
        assert_eq!(a + b, Rate::from_mbps(13.0));
        assert_eq!(a * 2.0, Rate::from_mbps(10.0));
        assert_eq!(b / 2.0, Rate::from_mbps(4.0));
        assert!((b / a - 1.6).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let a = Rate::from_mbps(5.0);
        let b = Rate::from_mbps(8.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Rate::from_mbps(2.5)), "2.50Mbps");
        assert_eq!(format!("{}", Rate::from_gbps(1.0)), "1.00Gbps");
        assert_eq!(format!("{}", Rate::from_bps(500.0)), "500bps");
    }

    #[test]
    fn mss_consistent() {
        assert_eq!(MSS_BYTES + HEADER_BYTES, MTU_BYTES);
    }
}
