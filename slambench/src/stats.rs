//! Order statistics and the metric sheet every run prints.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for even counts); `0.0` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail of a latency sample: the highest whole percentile that still
/// has at least ten samples above it (nearest-rank), or the median when
/// there are too few samples for any higher percentile.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile reported.
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Samples above it.
    pub beyond: usize,
}

/// See [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    for percentile in (50..100u32).rev() {
        let rank = (percentile as usize * n).div_ceil(100).max(1);
        if n >= rank && n - rank >= 10 {
            return Tail { percentile, value: sorted[rank - 1], beyond: n - rank };
        }
    }
    let rank = (n / 2).max(1);
    Tail { percentile: 50, value: sorted.get(rank - 1).copied().unwrap_or(0.0), beyond: n - rank }
}

/// `n=… p50 … pNN … max …` for a note beside a metric; the tail
/// percentile is left out when fewer than ten samples lie beyond it.
pub fn describe(values: &[f64]) -> String {
    let t = tail(values);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let tail = if t.beyond >= 10 && t.percentile > 50 {
        format!(" p{} {:.3}", t.percentile, t.value)
    } else {
        String::new()
    };
    format!("n={} p50 {:.3}{tail} max {max:.3}", values.len(), median(values))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// CPU time the whole process has consumed so far, in seconds: every
/// thread, live or exited (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it
/// leaves out the time the host's hypervisor runs other guests on this
/// machine's virtual CPUs (steal), which on a shared host moves wall-clock
/// throughput of the same binary on the same frames by tens of percent.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("slambench reads the process CPU clock through 64-bit Linux clock_gettime");

/// Percentage `part / whole × 100`; `0.0` for an empty whole.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// One printed metric.
struct Entry {
    value: f64,
    unit: &'static str,
    note: String,
}

/// The metrics of one run, keyed by name. Every value is printed on its own
/// line with its unit and a note (sample count, percentile), then once more
/// in the closing JSON object.
#[derive(Default)]
pub struct Sheet {
    entries: BTreeMap<&'static str, Entry>,
}

impl Sheet {
    /// Records `name`; each name may be set once per run.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        let previous = self.entries.insert(name, Entry { value, unit, note });
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// Prints the human-readable lines and the closing JSON line. Fails
    /// (without printing) when a value is not finite or the set of names
    /// differs from `expected`.
    pub fn emit(
        &self,
        expected: &[(&str, &str)],
        attempted: u64,
        failed: u64,
    ) -> Result<(), String> {
        let names: Vec<&str> = self.entries.keys().copied().collect();
        let mut want: Vec<&str> = expected.iter().map(|(name, _)| *name).collect();
        want.sort_unstable();
        if names != want {
            return Err(format!("metric set {names:?} differs from the declared {want:?}"));
        }
        for (name, unit) in expected {
            let entry = &self.entries[name];
            if entry.unit != *unit {
                return Err(format!("{name}: unit {} differs from declared {unit}", entry.unit));
            }
            if !entry.value.is_finite() {
                return Err(format!("{name} is not finite: {}", entry.value));
            }
        }
        for (name, entry) in &self.entries {
            println!("{name:<28} {:>14.4} {:<9} {}", entry.value, entry.unit, entry.note);
        }
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, e)| {
                format!("\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", e.value, e.unit)
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        let t = tail(&values[..60]);
        assert_eq!((t.percentile, t.beyond), (83, 10));
        assert_eq!(tail(&values[..12]).percentile, 50);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
