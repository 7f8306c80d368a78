//! Sample statistics and process memory readings.

/// Timing samples of one operation kind, in the unit they were pushed in.
#[derive(Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn with_capacity(capacity: usize) -> Samples {
        Samples(Vec::with_capacity(capacity))
    }

    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Quantile `q` in `[0, 1]` with linear interpolation between closest
    /// ranks; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        quantile_sorted(&sorted, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Timing samples of one operation, kept apart by the kind of work that
/// produced each, so that a quantile is taken over like samples only.
#[derive(Debug)]
pub struct ByKind(Vec<Samples>);

impl ByKind {
    pub fn new(kinds: usize) -> ByKind {
        ByKind((0..kinds).map(|_| Samples::default()).collect())
    }

    pub fn push(&mut self, kind: usize, value: f64) {
        self.0[kind].push(value);
    }

    /// Samples over all kinds.
    pub fn len(&self) -> usize {
        self.0.iter().map(Samples::len).sum()
    }

    /// Mean over the kinds that have samples of each kind's quantile `q`;
    /// `NaN` when there are none.
    pub fn mean_quantile(&self, q: f64) -> f64 {
        let per_kind: Vec<f64> = self
            .0
            .iter()
            .filter(|s| s.len() > 0)
            .map(|s| s.quantile(q))
            .collect();
        per_kind.iter().sum::<f64>() / per_kind.len() as f64
    }
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.9), 4.6);
        assert_eq!(s.quantile(0.0), 1.0);
        assert!(Samples::default().median().is_nan());
    }

    #[test]
    fn kinds_are_summarised_apart() {
        let mut k = ByKind::new(3);
        for v in [1.0, 2.0, 3.0] {
            k.push(0, v);
            k.push(2, 10.0 * v);
        }
        assert_eq!(k.len(), 6);
        assert_eq!(k.mean_quantile(0.5), 11.0);
        assert!(ByKind::new(2).mean_quantile(0.9).is_nan());
    }
}
