//! Order statistics for the reports: medians, tail percentiles under the
//! ten-samples-beyond rule, and the seeded RNG helpers shared by the
//! workloads.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// Nearest-rank `q`-quantile of `xs`, reported only when at least
/// [`MIN_BEYOND`] samples lie strictly above its rank.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let s = sorted(xs);
    let rank = ((s.len() as f64 * q).ceil() as usize).saturating_sub(1).min(s.len() - 1);
    (s.len() - 1 - rank >= MIN_BEYOND).then_some(s[rank])
}

/// Largest value of `xs`.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64 finalizer: derives independent, reproducible sub-seeds from
/// the workload seed.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1) from a sub-seed.
pub fn unit(seed: u64) -> f64 {
    (seed >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 sits at rank 89, with exactly 10 above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        // 99 samples: p90 sits at rank 89 with only 9 above it.
        assert_eq!(percentile(&xs[..99], 0.9), None);
        // The median of 21 samples has 10 above it; of 20 it has 10 too.
        assert_eq!(percentile(&xs[..21], 0.5), Some(11.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&xs, 0.9);
        xs.reverse();
        assert_eq!(a, percentile(&xs, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 1, 2), mix(7, 1, 2));
        assert_ne!(mix(7, 1, 2), mix(8, 1, 2));
        assert_ne!(mix(7, 1, 2), mix(7, 2, 1));
        let u = unit(mix(1, 2, 3));
        assert!((0.0..1.0).contains(&u));
    }
}
