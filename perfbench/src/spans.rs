//! In-memory spans recorded around calls into each layer, and the
//! per-layer self time they imply.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: its layer-qualified name (`layer.operation`),
/// when it ran, the span that caused it, and the user or job it served.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `sim.record`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The user or job this work was for.
    pub subject: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer part of the name (everything before the first `.`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread. Spans stay in memory until
/// [`Tracer::to_tsv`] writes them out.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` for `subject`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        subject: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, subject });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.nanos()).sum::<u64>() as f64 / 1e9
    }

    /// Tab-separated dump: `id parent name subject start_ns end_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tsubject\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{id}\t{parent}\t{}\t{}\t{}\t{}\n",
                s.name, s.subject, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Self seconds per layer: each span's duration minus the part of its
/// interval its direct children cover, summed by [`Span::layer`].
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.nanos();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (span, child_ns) in spans.iter().zip(covered) {
        let own = span.nanos().saturating_sub(child_ns);
        *by_layer.entry(span.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, subject: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // probe [0, 100) ⊃ user [10, 90) ⊃ { sim.record [20, 50), sim.replay [50, 80) ⊃ sim.inner [55, 65) }
        let spans = vec![
            span("probe.run", 0, 100_000_000, None),
            span("probe.user", 10_000_000, 90_000_000, Some(0)),
            span("sim.record", 20_000_000, 50_000_000, Some(1)),
            span("sim.replay", 50_000_000, 80_000_000, Some(1)),
            span("sim.inner", 55_000_000, 65_000_000, Some(3)),
        ];
        let by_layer = self_seconds_by_layer(&spans);
        // probe: (100 - 80) + (80 - 60) = 40 ms; sim: 30 + (30 - 10) + 10 = 60 ms.
        assert!((by_layer["probe"] - 0.040).abs() < 1e-12, "{by_layer:?}");
        assert!((by_layer["sim"] - 0.060).abs() < 1e-12, "{by_layer:?}");
        // Self times partition the root interval.
        let total: f64 = by_layer.values().sum();
        assert!((total - 0.100).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_names_layers() {
        let mut tracer = Tracer::default();
        tracer.span("probe.run", 7, |t| {
            t.span("workload.generate", 7, |_| ());
            t.span("sim.record", 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].layer(), "workload");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.subject == 7));
        assert_eq!(tracer.to_tsv().lines().count(), 4);
    }
}
