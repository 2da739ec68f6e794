//! Order statistics and process memory.

/// The `p`-th percentile (0–100) of `samples` by nearest rank; 0 for an
/// empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fastest decile of repeated rate measurements (their 90th
/// percentile). Interference from other tenants of the host only ever
/// slows a pass down, so the fast end of the distribution tracks the
/// code's own speed and, on a shared host, moves less between runs than
/// the median.
pub fn fastest_rate(samples: &[f64]) -> f64 {
    percentile(samples, 90.0)
}

/// The fastest decile of repeated time measurements (their 10th
/// percentile); see [`fastest_rate`].
pub fn fastest_time(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

/// Median, averaging the middle pair of an even-sized sample (Python's
/// `statistics.median`); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (its default "exclusive" method); a single value
/// is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (0.0, 0.0),
        1 => (sorted[0], sorted[0]),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
            };
            (cut(1), cut(3))
        }
    }
}

/// Restarts the peak resident set size from the current one, after handing
/// freed heap pages back to the kernel, so that `peak_rss_mb` covers only
/// what runs from here on: the reference outputs a run computes for its
/// checks are gone by then and must not set the peak.
pub fn forget_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only returns free heap memory to the
        // kernel; it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the process's VmHWM to its current RSS (proc(5))
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("peak RSS reset needs /proc/self/clear_refs");
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("peak RSS needs /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&values), 5.5);
    }

    #[test]
    fn forgotten_peak_excludes_freed_reference_data() {
        // 64 MB in small blocks, like the search oracle's postings
        let blocks: Vec<Vec<u8>> = (0..16_384).map(|i| vec![i as u8; 4096]).collect();
        let with_blocks = peak_rss_mb();
        drop(blocks);
        forget_peak_rss();
        let after = peak_rss_mb();
        assert!(
            after < with_blocks - 48.0,
            "peak {after} MB after forgetting, {with_blocks} MB with the blocks"
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
