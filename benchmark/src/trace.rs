//! In-memory spans around the calls into each layer, taken in the
//! benchmark's own code. Spans stay in memory until the run ends and are
//! then written as JSON lines; a layer's self time is its span minus the
//! part its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the tracer's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread. A disabled tracer records nothing and
/// costs one branch per call, so the same code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tags the spans recorded from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            let now = self.now_ns();
            assert_eq!(
                self.open.pop(),
                Some(id),
                "spans must close innermost first"
            );
            self.spans[id].end_ns = now;
        }
    }

    /// Closes `id` under a name only known once the call returned (which
    /// path a batch took).
    pub fn end_as(&mut self, id: SpanId, name: &'static str) {
        self.end(id);
        if let Some(id) = id.0 {
            self.spans[id].name = name;
        }
    }

    /// Times `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Total seconds of all closed spans named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name under the root span `root`, in first-seen
    /// order: each span's duration minus its direct children's. The root's
    /// own self time is reported as the `unattributed` row, so the rows sum
    /// to the root's wall exactly.
    pub fn self_time_table(&self, root: usize) -> Vec<(&'static str, usize, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !self.is_under(i, root) {
                continue;
            }
            let self_s = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            let name = if i == root { "unattributed" } else { s.name };
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += self_s;
                }
                None => rows.push((name, 1, self_s)),
            }
        }
        rows
    }

    fn is_under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Index of the last root-level span named `name`.
    fn last_root(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.parent.is_none() && s.name == name)
    }

    /// What every traced run ends with: prints the self-time table of the
    /// last `rep` root span, requires its rows to sum to the traced wall
    /// within 2 %, writes all spans to the workload's trace file, and
    /// returns the traced wall in seconds.
    ///
    /// # Errors
    ///
    /// No `rep` span, rows that do not sum to the wall, or an I/O error.
    pub fn report(&self, workload: &str) -> Result<f64, String> {
        let root = self
            .last_root("rep")
            .ok_or("the traced run recorded no `rep` span")?;
        let (sum, wall) = self.print_table(workload, root);
        if (sum - wall).abs() > 0.02 * wall {
            return Err(format!(
                "trace rows sum to {sum} s, traced wall is {wall} s"
            ));
        }
        self.write_jsonl(&crate::trace_path(workload), workload)
            .map_err(|e| format!("writing the trace: {e}"))?;
        Ok(wall)
    }

    /// Prints the self-time table of `root` to stderr and returns
    /// `(sum of rows, root wall)` in seconds.
    fn print_table(&self, workload: &str, root: usize) -> (f64, f64) {
        let wall = self.spans[root].seconds();
        let rows = self.self_time_table(root);
        let sum: f64 = rows.iter().map(|r| r.2).sum();
        eprintln!("traced repetition of {workload}: {wall:.6} s");
        eprintln!(
            "  {:<36} {:>7} {:>12} {:>7}",
            "layer (self time)", "spans", "seconds", "share"
        );
        for (name, count, secs) in &rows {
            eprintln!(
                "  {name:<36} {count:>7} {secs:>12.6} {:>6.1}%",
                100.0 * secs / wall.max(f64::MIN_POSITIVE)
            );
        }
        eprintln!("  {:<36} {:>7} {sum:>12.6}", "sum of rows", "");
        (sum, wall)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or writing the file.
    fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{workload}\", \"rep\": {}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_wall() {
        let mut t = Tracer::new(true);
        let root = t.begin("rep");
        let a = t.begin("a");
        t.span("b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(a);
        t.span("b", || ());
        t.end(root);
        let root = t.last_root("rep").unwrap();
        let rows = t.self_time_table(root);
        assert_eq!(
            rows.iter().map(|r| r.0).collect::<Vec<_>>(),
            ["unattributed", "a", "b"]
        );
        assert_eq!(rows[2].1, 2);
        let sum: f64 = rows.iter().map(|r| r.2).sum();
        assert!((sum - t.spans[root].seconds()).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x");
        t.end(id);
        assert!(t.spans.is_empty());
    }
}
