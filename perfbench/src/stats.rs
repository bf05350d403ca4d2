//! Order statistics over per-op samples.

use crate::common::Sample;
use crate::host::{steal_share, CpuSample};
use std::time::Instant;

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values` without their lowest and highest tenth; `0.0`
/// for an empty slice.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// A run's throughput and latency percentiles, each the trimmed mean over
/// its quiet chunks of consecutive ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chunked {
    /// Completed ops per second.
    pub ops_per_s: f64,
    /// Median latency, ms.
    pub p50: f64,
    /// 90th percentile latency, ms.
    pub p90: f64,
    /// Full chunks in the run.
    pub chunks: usize,
    /// Chunks the figures are medians over.
    pub quiet: usize,
    /// Share of CPU time stolen by the hypervisor over the whole run and
    /// over the quiet chunks.
    pub steal: f64,
    /// See [`Chunked::steal`].
    pub quiet_steal: f64,
}

/// Split `samples` (in any order) by end time into consecutive chunks of
/// `chunk` ops and take each full chunk's rate (its ops over the time
/// since the previous chunk ended, or since `start`), latency p50/p90,
/// and the share of CPU time the hypervisor stole during it. Return the
/// trimmed means ([`trimmed_mean`]) over the quiet chunks: those with no
/// steal, or, when fewer than a tenth (and at least five) are, that many
/// least-stolen ones. On a shared host steal comes and goes and
/// multiplies tail latency several times over; taking the quiet chunks
/// reports the program, not its neighbours. A mean rather than a median:
/// the host's CPU speed also alternates, without steal, between regimes
/// up to ~1.8x apart that last seconds to minutes, and a median over
/// chunks jumps from one regime to the other when a run's share of slow
/// chunks crosses a half, where a mean moves in proportion to that share.
/// Trimming keeps one disturbed chunk from moving it. Without steal
/// readings every chunk is quiet. With less than one full chunk the whole
/// run is one chunk.
pub fn chunked(samples: &[Sample], start: Instant, chunk: usize, cpu: &[CpuSample]) -> Chunked {
    let mut sorted = samples.to_vec();
    sorted.sort_by_key(|s| s.end);
    let chunk = chunk.clamp(1, sorted.len().max(1));
    // (rate, p50, p90, steal) per chunk.
    let mut stats = Vec::new();
    let mut prev_end = start;
    for part in sorted.chunks_exact(chunk) {
        let last = part[part.len() - 1].end;
        let secs = last.duration_since(prev_end).as_secs_f64();
        let ms: Vec<f64> = part.iter().map(|s| s.ms).collect();
        stats.push((
            part.len() as f64 / secs.max(1e-9),
            quantile(&ms, 0.5),
            quantile(&ms, 0.9),
            steal_share(cpu, prev_end, last),
        ));
        prev_end = last;
    }
    let need = (stats.len() / 10).max(5).min(stats.len());
    let mut quiet: Vec<_> = stats.iter().filter(|s| s.3 == 0.0).collect();
    if quiet.len() < need {
        quiet = stats.iter().collect();
        quiet.sort_by(|a, b| a.3.total_cmp(&b.3));
        quiet.truncate(need);
    }
    let pick = |f: fn(&(f64, f64, f64, f64)) -> f64| {
        trimmed_mean(&quiet.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    Chunked {
        ops_per_s: pick(|s| s.0),
        p50: pick(|s| s.1),
        p90: pick(|s| s.2),
        chunks: stats.len(),
        quiet: quiet.len(),
        steal: steal_share(cpu, start, prev_end),
        quiet_steal: pick(|s| s.3),
    }
}

/// The median duration, in seconds, of the quiet ones among `spans`: those
/// the hypervisor stole no CPU time during, or, when fewer than half are,
/// the least-stolen half (see [`chunked`]).
pub fn quiet_median(spans: &[(Instant, Instant)], cpu: &[CpuSample]) -> f64 {
    let mut reps: Vec<(f64, f64)> = spans
        .iter()
        .map(|&(from, to)| {
            (
                to.duration_since(from).as_secs_f64(),
                steal_share(cpu, from, to),
            )
        })
        .collect();
    let need = reps.len().div_ceil(2);
    if reps.iter().filter(|r| r.1 == 0.0).count() >= need {
        reps.retain(|r| r.1 == 0.0);
    } else {
        reps.sort_by(|a, b| a.1.total_cmp(&b.1));
        reps.truncate(need);
    }
    median(&reps.iter().map(|r| r.0).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_each_end_tenth() {
        let mut v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(trimmed_mean(&v), 5.0);
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v), 5.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn chunk_figures_are_trimmed_means_over_chunks() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // Ten chunks of two ops, 20 ms apart; the fourth is a slow burst
        // that trimming drops, and the fast ones are half 1 ms, half 3 ms.
        let samples: Vec<Sample> = (0..20u64)
            .map(|i| {
                let ms = match i / 2 {
                    3 => 50.0,
                    c if c % 2 == 0 => 1.0,
                    _ => 3.0,
                };
                Sample {
                    end: at(10 * (i + 1)),
                    ms,
                }
            })
            .collect();
        let c = chunked(&samples, t0, 2, &[]);
        assert_eq!((c.chunks, c.quiet), (10, 10));
        assert!((c.p50 - 2.0).abs() < 1e-9, "{}", c.p50);
        assert!((c.ops_per_s - 100.0).abs() < 1e-6);
        let whole = chunked(&samples[..1], t0, 2, &[]);
        assert_eq!(whole.chunks, 1);
    }

    #[test]
    fn stolen_chunks_are_left_out() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        // Ten chunks of one op; steal hits the even ones.
        let samples: Vec<Sample> = (1..=10u64)
            .map(|i| Sample {
                end: at(100 * i),
                ms: if i % 2 == 0 { 9.0 } else { i as f64 },
            })
            .collect();
        let cpu: Vec<CpuSample> = (0..=10u64)
            .map(|i| CpuSample {
                at: at(100 * i),
                steal: 10 * (i / 2),
                total: 20 * i,
            })
            .collect();
        let c = chunked(&samples, t0, 1, &cpu);
        assert_eq!((c.chunks, c.quiet), (10, 5));
        assert_eq!(c.p50, 5.0);
        assert!((c.steal - 0.25).abs() < 1e-12);
        assert_eq!(c.quiet_steal, 0.0);
        // Too few clean chunks: the least-stolen five.
        let c = chunked(&samples[..6], t0, 1, &cpu);
        assert_eq!((c.chunks, c.quiet), (6, 5));
        // Set-up reps: the clean first and third, not the stolen 0.3 s one.
        let spans = [(at(0), at(100)), (at(100), at(400)), (at(400), at(500))];
        let setup = quiet_median(&spans, &cpu);
        assert!((setup - 0.1).abs() < 1e-9, "{setup}");
    }
}
