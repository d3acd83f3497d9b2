//! In-memory wall-clock spans recorded around calls into midq, plus the
//! order statistics the metrics are built from.
//!
//! A span has a name, start, end, parent span and statement id. Spans
//! stay in memory while the benchmark runs and are written out as JSON
//! lines once it ends. A span's self time is its duration minus the
//! time its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub stmt: Option<u64>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The span recorder. When disabled it records nothing, so untraced
/// runs pay only for reading the clock where they measure latency.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Time `f` as a span named `name` nested in the innermost open
    /// span, and return its result with its duration.
    pub fn span<R>(
        &mut self,
        name: &str,
        stmt: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let idx = self.enabled.then(|| {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                stmt,
                start: Instant::now(),
                end: Instant::now(),
            });
            let idx = self.spans.len() - 1;
            self.open.push(idx);
            idx
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].start = start;
            self.spans[idx].end = end;
        }
        (out, end - start)
    }

    /// Record a span measured elsewhere (e.g. on a worker thread) as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: &str, stmt: Option<u64>, start: Instant, end: Instant) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                stmt,
                start,
                end,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur().as_secs_f64())
            .collect()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children recorded from worker threads may
    /// overlap each other).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut cur: Option<(Instant, Instant)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(selfs).enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"stmt\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.stmt.map_or("null".to_string(), |p| p.to_string()),
                us(s.start),
                us(s.end),
                own.as_secs_f64() * 1e6,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", Some(1), |t| {
            std::thread::sleep(Duration::from_millis(4));
            t.span("inner", Some(1), |_| {
                std::thread::sleep(Duration::from_millis(8))
            });
        });
        let selfs = t.self_times();
        let (outer, inner) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!(inner.parent, Some(0));
        assert!(selfs[0] < outer.dur());
        assert!(selfs[0] + inner.dur() <= outer.dur() + Duration::from_micros(1));
        assert_eq!(selfs[1], inner.dur());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }
}
