//! Point-in-time views of the registry.

/// Aggregate statistics for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Full hierarchical path, segments joined by `/`.
    pub path: String,
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall-clock nanoseconds across completions.
    pub total_ns: u64,
    /// Fastest single completion in nanoseconds.
    pub min_ns: u64,
    /// Slowest single completion in nanoseconds.
    pub max_ns: u64,
}

/// One monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStat {
    /// Counter name.
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One histogram, flattened to plain vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Histogram name.
    pub name: String,
    /// Ascending upper bounds (overflow bucket implied).
    pub bounds: Vec<u64>,
    /// Bucket counts, `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Exact sum of all observed values.
    pub sum: u64,
}

impl HistogramStat {
    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A point-in-time view of every registered metric, sorted by name so
/// two snapshots of identical registries compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramStat>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Value of a counter in this snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Span aggregate for a path, when present.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// A copy with every wall-clock field zeroed, leaving only the
    /// deterministic shape (paths, counts, counters, histograms).
    /// Snapshots of the same workload taken under different thread
    /// counts must be identical after this transform.
    pub fn without_wall_clock(&self) -> Self {
        let mut out = self.clone();
        for s in &mut out.spans {
            s.total_ns = 0;
            s.min_ns = 0;
            s.max_ns = 0;
        }
        out
    }

    /// What happened between `earlier` and `self`: counter and span
    /// counts subtract exactly; histogram buckets subtract bucket-wise
    /// when the bounds match. `min_ns`/`max_ns` cannot be recovered
    /// for an interval, so they are reported as the cumulative bounds
    /// (`0` and the cumulative max). Entries whose delta is zero are
    /// dropped.
    pub fn delta_since(&self, earlier: &Self) -> Self {
        let spans = self
            .spans
            .iter()
            .filter_map(|s| {
                let count = s.count - earlier.span(&s.path).map_or(0, |e| e.count);
                let total_ns = s.total_ns - earlier.span(&s.path).map_or(0, |e| e.total_ns);
                (count > 0).then(|| SpanStat {
                    path: s.path.clone(),
                    count,
                    total_ns,
                    min_ns: 0,
                    max_ns: s.max_ns,
                })
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                let value = c.value - earlier.counter(&c.name);
                (value > 0).then(|| CounterStat {
                    name: c.name.clone(),
                    value,
                })
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let counts: Vec<u64> = match earlier.histogram(&h.name) {
                    Some(e) if e.bounds == h.bounds => {
                        h.counts.iter().zip(&e.counts).map(|(a, b)| a - b).collect()
                    }
                    _ => h.counts.clone(),
                };
                let sum = h.sum - earlier.histogram(&h.name).map_or(0, |e| e.sum);
                (counts.iter().any(|&c| c > 0)).then(|| HistogramStat {
                    name: h.name.clone(),
                    bounds: h.bounds.clone(),
                    counts,
                    sum,
                })
            })
            .collect();
        Self {
            spans,
            counters,
            histograms,
        }
    }

    /// Render the span hierarchy as an indented tree, followed by
    /// counters and histograms — the output of `repro --trace`.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let mut spans = self.spans.clone();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        for s in &spans {
            let depth = s.path.matches('/').count();
            let name = s.path.rsplit('/').next().unwrap_or(&s.path);
            let mean_ms = if s.count > 0 {
                s.total_ns as f64 / s.count as f64 / 1.0e6
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:indent$}{name}  count={} total={:.3}ms mean={:.3}ms\n",
                "",
                s.count,
                s.total_ns as f64 / 1.0e6,
                mean_ms,
                indent = depth * 2,
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!("  {} = {}\n", c.name, c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {}  n={} sum={} buckets={:?}\n",
                    h.name,
                    h.total(),
                    h.sum,
                    h.counts
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> MetricsSnapshot {
        MetricsSnapshot {
            spans: vec![
                SpanStat {
                    path: "a".into(),
                    count: 2,
                    total_ns: 100,
                    min_ns: 40,
                    max_ns: 60,
                },
                SpanStat {
                    path: "a/b".into(),
                    count: 4,
                    total_ns: 80,
                    min_ns: 10,
                    max_ns: 30,
                },
            ],
            counters: vec![CounterStat {
                name: "c".into(),
                value: 7,
            }],
            histograms: vec![HistogramStat {
                name: "h".into(),
                bounds: vec![10],
                counts: vec![3, 1],
                sum: 25,
            }],
        }
    }

    #[test]
    fn without_wall_clock_zeroes_only_time() {
        let s = snap().without_wall_clock();
        assert_eq!(s.spans[0].count, 2);
        assert_eq!(s.spans[0].total_ns, 0);
        assert_eq!(s.spans[0].min_ns, 0);
        assert_eq!(s.spans[0].max_ns, 0);
        assert_eq!(s.counter("c"), 7);
    }

    #[test]
    fn delta_subtracts_counts_and_drops_zero_entries() {
        let earlier = snap();
        let mut later = snap();
        later.spans[1].count += 3;
        later.spans[1].total_ns += 90;
        later.counters[0].value += 5;
        later.histograms[0].counts[1] += 2;
        later.histograms[0].sum += 40;
        let d = later.delta_since(&earlier);
        assert_eq!(d.spans.len(), 1, "unchanged span a must be dropped");
        assert_eq!(d.spans[0].path, "a/b");
        assert_eq!(d.spans[0].count, 3);
        assert_eq!(d.spans[0].total_ns, 90);
        assert_eq!(d.counter("c"), 5);
        let h = d.histogram("h").unwrap();
        assert_eq!(h.counts, vec![0, 2]);
        assert_eq!(h.sum, 40);
    }

    #[test]
    fn tree_indents_children() {
        let t = snap().render_tree();
        assert!(t.contains("a  count=2"));
        assert!(t.contains("  b  count=4"));
        assert!(t.contains("c = 7"));
    }
}
