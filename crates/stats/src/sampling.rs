//! SMARTS-style systematic sampling: the sampling specification and the
//! per-window statistics that turn sampled runs into mean ± confidence
//! interval figures.
//!
//! A sampled run divides the instruction stream into periods of
//! [`SamplingSpec::period`] instructions. Each period ends with a detailed
//! window of [`SamplingSpec::window`] instructions simulated by the cycle
//! loop, preceded by [`SamplingSpec::warmup`] instructions of functional
//! cache/filter warming; everything before the warm-up is functionally
//! fast-forwarded (architectural state advances, no cycles are modelled).
//!
//! ```text
//! |----------- period -----------|----------- period -----------| ...
//! |   skip    | warmup | window  |   skip    | warmup | window  |
//!  fast-fwd     warm     detailed
//! ```
//!
//! Each detailed window contributes one IPC observation; the collection of
//! windows yields a sample mean and, from the per-window variance, a 95%
//! confidence half-width (`1.96·s/√n`, the SMARTS formulation). All of the
//! arithmetic is plain `f64` over deterministic inputs, so identically
//! specified runs produce byte-identical statistics.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// The z-score of a two-sided 95% confidence interval.
pub const Z_95: f64 = 1.96;

/// A systematic-sampling specification: how a sampled run carves the
/// instruction stream into fast-forward, warm-up and detailed phases.
///
/// Parsed from the CLI syntax `PERIOD:WINDOW[:WARMUP]` (warm-up defaults
/// to 0). Invariants, enforced by [`SamplingSpec::new`] and the parser:
/// `window >= 1` and `warmup + window <= period` (so every period has a
/// non-negative fast-forward phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SamplingSpec {
    /// Instructions per sampling period (fast-forward + warm-up + window).
    pub period: u64,
    /// Instructions simulated in detail at the end of each period.
    pub window: u64,
    /// Instructions of functional cache/filter warming before each window.
    pub warmup: u64,
}

impl SamplingSpec {
    /// Creates a validated spec.
    pub fn new(period: u64, window: u64, warmup: u64) -> Result<Self, String> {
        if window == 0 {
            return Err("sampling window must be at least 1 instruction".to_owned());
        }
        let occupied = warmup
            .checked_add(window)
            .ok_or_else(|| "sampling warmup + window overflows".to_owned())?;
        if occupied > period {
            return Err(format!(
                "sampling warmup ({warmup}) + window ({window}) exceed the period ({period})"
            ));
        }
        Ok(Self {
            period,
            window,
            warmup,
        })
    }

    /// Parses the CLI syntax `PERIOD:WINDOW[:WARMUP]`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!(
                "malformed sampling spec `{s}`: expected PERIOD:WINDOW[:WARMUP]"
            ));
        }
        let num = |part: &str, what: &str| -> Result<u64, String> {
            part.parse()
                .map_err(|_| format!("malformed sampling spec `{s}`: invalid {what} `{part}`"))
        };
        let period = num(parts[0], "period")?;
        let window = num(parts[1], "window")?;
        let warmup = match parts.get(2) {
            Some(part) => num(part, "warmup")?,
            None => 0,
        };
        Self::new(period, window, warmup)
    }

    /// Instructions fast-forwarded (neither warmed nor simulated) per
    /// period.
    pub fn skip(&self) -> u64 {
        self.period - self.warmup - self.window
    }

    /// The periods a sampled run over a budget of `total` instructions
    /// walks, in stream order, each phase clipped to what is left of the
    /// budget. The last period may be partial; the walk ends after the
    /// first period whose window is clipped to zero.
    ///
    /// This is the one definition of the sampling schedule: the sampled
    /// cycle loop follows it, and [`SamplingSpec::read_ranges`] derives
    /// the positions a sparse stream capture must hold from it.
    pub fn schedule(&self, total: u64) -> impl Iterator<Item = SamplePeriod> {
        let spec = *self;
        let mut start = 0u64;
        let mut ended = false;
        std::iter::from_fn(move || {
            if ended || start >= total {
                return None;
            }
            let mut left = total - start;
            let skip = spec.skip().min(left);
            left -= skip;
            let warm = spec.warmup.min(left);
            left -= warm;
            let window = spec.window.min(left);
            let period = SamplePeriod {
                start,
                skip,
                warm,
                window,
            };
            start += skip + warm + window;
            ended = window == 0;
            Some(period)
        })
    }

    /// The stream positions a sampled run over `total` instructions reads
    /// with `next_inst`: the warm-up plus window of every period of
    /// [`SamplingSpec::schedule`], in order. Fast-forwarded positions are
    /// never read, so a capture of only these ranges serves the run.
    pub fn read_ranges(&self, total: u64) -> impl Iterator<Item = Range<u64>> {
        self.schedule(total)
            .map(|p| p.start + p.skip..p.start + p.skip + p.warm + p.window)
            .filter(|r| !r.is_empty())
    }
}

/// One period of a sampled run's schedule ([`SamplingSpec::schedule`]):
/// its first stream position and the length of each phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePeriod {
    /// Stream position at which the period starts.
    pub start: u64,
    /// Instructions fast-forwarded.
    pub skip: u64,
    /// Instructions functionally warmed.
    pub warm: u64,
    /// Instructions simulated in detail.
    pub window: u64,
}

impl fmt::Display for SamplingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.period, self.window, self.warmup)
    }
}

/// One detailed window's observation: what it committed and how many
/// cycles the cycle loop spent on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowSample {
    /// Instructions committed inside the window.
    pub committed: u64,
    /// Cycles elapsed across the window.
    pub cycles: u64,
}

impl WindowSample {
    /// The window's IPC observation (0 for an empty window).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The sampling record of one workload's sampled run: the spec it ran
/// under, the phase totals, and every detailed window's observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplingStats {
    /// The specification the run sampled under.
    pub spec: SamplingSpec,
    /// Instructions functionally fast-forwarded (no warming, no cycles).
    pub skipped: u64,
    /// Instructions spent warming caches/filters before windows.
    pub warmed: u64,
    /// Every detailed window, in stream order.
    pub windows: Vec<WindowSample>,
}

impl SamplingStats {
    /// Number of detailed windows observed.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Arithmetic mean of the per-window IPC observations (the sampled IPC
    /// estimate; 0 when no window completed).
    pub fn mean_ipc(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().map(WindowSample::ipc).sum::<f64>() / self.windows.len() as f64
    }

    /// Sample variance (n−1 denominator) of the per-window IPC
    /// observations; 0 with fewer than two windows.
    pub fn ipc_variance(&self) -> f64 {
        let n = self.windows.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_ipc();
        self.windows
            .iter()
            .map(|w| {
                let d = w.ipc() - mean;
                d * d
            })
            .sum::<f64>()
            / (n as f64 - 1.0)
    }

    /// Half-width of the 95% confidence interval around [`mean_ipc`]
    /// (`1.96·s/√n`); 0 with fewer than two windows.
    ///
    /// [`mean_ipc`]: SamplingStats::mean_ipc
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.windows.len();
        if n < 2 {
            return 0.0;
        }
        Z_95 * (self.ipc_variance() / n as f64).sqrt()
    }
}

/// Combines per-workload `(mean, ci95 half-width)` pairs into a suite-level
/// `(mean, half-width)`: the suite mean is the arithmetic mean of the
/// members (matching the unsampled suite-mean-IPC convention) and, the
/// members being independent, their standard errors combine in quadrature
/// scaled by `1/K`.
pub fn combine_ci(members: &[(f64, f64)]) -> (f64, f64) {
    if members.is_empty() {
        return (0.0, 0.0);
    }
    let k = members.len() as f64;
    let mean = members.iter().map(|(m, _)| m).sum::<f64>() / k;
    let half = members.iter().map(|(_, h)| h * h).sum::<f64>().sqrt() / k;
    (mean, half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_two_and_three_part_specs() {
        let spec = SamplingSpec::parse("10000:1000").unwrap();
        assert_eq!(
            spec,
            SamplingSpec {
                period: 10_000,
                window: 1_000,
                warmup: 0
            }
        );
        assert_eq!(spec.skip(), 9_000);
        let spec = SamplingSpec::parse("10000:1000:500").unwrap();
        assert_eq!(spec.warmup, 500);
        assert_eq!(spec.skip(), 8_500);
        assert_eq!(spec.to_string(), "10000:1000:500");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "1000",
            "a:b",
            "1000:",
            ":100",
            "1000:0",
            "1000:100:x",
            "100:90:20",
            "1000:100:500:7",
        ] {
            assert!(SamplingSpec::parse(bad).is_err(), "`{bad}` should fail");
        }
        // Window exactly filling the period is legal (degenerate: all
        // detailed).
        assert!(SamplingSpec::parse("100:100").is_ok());
        assert!(SamplingSpec::parse("100:80:20").is_ok());
    }

    #[test]
    fn schedule_clips_the_last_period_to_the_budget() {
        let spec = SamplingSpec::new(10, 3, 2).unwrap();
        let period = |start, skip, warm, window| SamplePeriod {
            start,
            skip,
            warm,
            window,
        };
        let walk: Vec<SamplePeriod> = spec.schedule(28).collect();
        assert_eq!(
            walk,
            [period(0, 5, 2, 3), period(10, 5, 2, 3), period(20, 5, 2, 1)]
        );
        let ranges: Vec<_> = spec.read_ranges(28).collect();
        assert_eq!(ranges, [5..10, 15..20, 25..28]);
        // A budget ending inside a fast-forward: the walk stops there and
        // reads nothing past the last full window.
        let walk: Vec<SamplePeriod> = spec.schedule(24).collect();
        assert_eq!(walk.last(), Some(&period(20, 4, 0, 0)));
        assert_eq!(spec.read_ranges(24).count(), 2);
        assert_eq!(spec.schedule(0).count(), 0);
    }

    #[test]
    fn schedule_covers_the_budget_with_ordered_reads() {
        for (period, window, warmup) in [(7, 1, 0), (7, 7, 0), (50, 5, 10), (13, 4, 9)] {
            let spec = SamplingSpec::new(period, window, warmup).unwrap();
            for total in [0, 1, 6, 7, 8, 49, 50, 51, 333] {
                let walk: Vec<SamplePeriod> = spec.schedule(total).collect();
                let covered: u64 = walk.iter().map(|p| p.skip + p.warm + p.window).sum();
                assert_eq!(covered, total, "{spec} over {total}");
                let mut end = 0;
                for r in spec.read_ranges(total) {
                    assert!(r.start >= end && r.start < r.end && r.end <= total);
                    end = r.end;
                }
            }
        }
        // A hand-built degenerate spec still ends its walk.
        let empty = SamplingSpec {
            period: 0,
            window: 0,
            warmup: 0,
        };
        assert_eq!(empty.schedule(100).count(), 1);
    }

    #[test]
    fn window_ipc_and_empty_cases() {
        assert_eq!(
            WindowSample {
                committed: 500,
                cycles: 250
            }
            .ipc(),
            2.0
        );
        assert_eq!(
            WindowSample {
                committed: 0,
                cycles: 0
            }
            .ipc(),
            0.0
        );
    }

    fn stats(ipcs: &[(u64, u64)]) -> SamplingStats {
        SamplingStats {
            spec: SamplingSpec::new(1_000, 100, 0).unwrap(),
            skipped: 0,
            warmed: 0,
            windows: ipcs
                .iter()
                .map(|&(committed, cycles)| WindowSample { committed, cycles })
                .collect(),
        }
    }

    #[test]
    fn mean_variance_and_ci_match_hand_computation() {
        // IPCs: 1.0, 2.0, 3.0 -> mean 2, variance 1, s = 1.
        let s = stats(&[(100, 100), (200, 100), (300, 100)]);
        assert_eq!(s.window_count(), 3);
        assert!((s.mean_ipc() - 2.0).abs() < 1e-12);
        assert!((s.ipc_variance() - 1.0).abs() < 1e-12);
        let expected = Z_95 * (1.0f64 / 3.0).sqrt();
        assert!((s.ci95_half_width() - expected).abs() < 1e-12);
    }

    #[test]
    fn degenerate_window_counts_have_zero_width() {
        assert_eq!(stats(&[]).mean_ipc(), 0.0);
        assert_eq!(stats(&[]).ci95_half_width(), 0.0);
        let one = stats(&[(100, 50)]);
        assert_eq!(one.mean_ipc(), 2.0);
        assert_eq!(one.ci95_half_width(), 0.0);
    }

    #[test]
    fn combine_ci_averages_means_and_quadrature_halves() {
        let (mean, half) = combine_ci(&[(1.0, 0.3), (3.0, 0.4)]);
        assert!((mean - 2.0).abs() < 1e-12);
        assert!((half - 0.25).abs() < 1e-12); // sqrt(0.09+0.16)/2
        assert_eq!(combine_ci(&[]), (0.0, 0.0));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SamplingSpec::parse("50000:2000:1000").unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SamplingSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
