//! In-memory spans recorded around the calls into each layer, and the
//! self-time arithmetic over them.
//!
//! No crate carries a span for this benchmark: every span here is timed
//! from the outside, around a public entry point. Where a layer is only
//! reachable *through* another (the engine search inside the route), the
//! inner call is repeated on its own with the same inputs and its
//! duration is [`SpanLog::nest`]ed into the outer span, so the log is
//! still a tree whose children lie inside their parents.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its log.
pub type SpanId = usize;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `explorer.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to.
    pub req: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one traced run, kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    /// Records a span measured in place.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, req });
        self.spans.len() - 1
    }

    /// Records a child whose duration was measured by a separate call:
    /// it is placed inside `parent` right after the children already
    /// there, and cut off at the parent's end.
    pub fn nest(&mut self, name: &'static str, parent: SpanId, duration: Duration) -> SpanId {
        let p = &self.spans[parent];
        let (p_end, req) = (p.end_ns, p.req);
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns);
        let end_ns = (start_ns + duration.as_nanos() as u64).min(p_end);
        self.spans.push(Span { name, start_ns, end_ns, parent: Some(parent), req });
        self.spans.len() - 1
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its direct children cover (overlapping children
    /// count once; a child reaching outside its parent counts only for
    /// the part inside).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) =
                    (s.start_ns.max(self.spans[p].start_ns), s.end_ns.min(self.spans[p].end_ns));
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// Per span name: every duration and every self time, in ns.
    pub fn by_name(&self) -> BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0.push(s.duration_ns());
            e.1.push(self_ns);
        }
        out
    }

    /// Per request: the sum of the self times of its spans — what the
    /// layers together account for.
    pub fn accounted_by_request_ns(&self) -> BTreeMap<u32, u64> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.req).or_insert(0) += self_ns;
        }
        out
    }

    /// Writes one JSON object per span: `{name, start_ns, end_ns,
    /// parent, req}` (`parent` is a line index, or `null`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                f,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> SpanLog {
        let mut log = SpanLog::default();
        for &(name, start_ns, end_ns, parent) in spans {
            log.spans.push(Span { name, start_ns, end_ns, parent, req: 0 });
        }
        log
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let log = log_of(&[
            ("request", 0, 100, None),
            ("parse", 0, 10, Some(0)),
            ("handle", 10, 90, Some(0)),
            ("search", 20, 60, Some(2)),
            ("acq", 25, 55, Some(3)),
            ("analyze", 60, 70, Some(2)),
        ]);
        assert_eq!(log.self_times_ns(), vec![10, 10, 30, 10, 30, 10]);
        // Self times of a tree telescope to the root's duration.
        assert_eq!(log.accounted_by_request_ns()[&0], 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let log = log_of(&[
            ("parent", 100, 200, None),
            ("a", 110, 150, Some(0)),
            ("b", 140, 160, Some(0)), // overlaps a by 10
            ("c", 190, 230, Some(0)), // 30 of it hangs outside
            ("d", 50, 90, Some(0)),   // entirely outside
        ]);
        // Cover inside the parent: [110,160) ∪ [190,200) = 60.
        assert_eq!(log.self_times_ns()[0], 40);
    }

    #[test]
    fn nested_children_queue_up_inside_the_parent_and_are_cut_at_its_end() {
        let mut log = log_of(&[("handle", 1_000, 2_000, None)]);
        let a = log.nest("pin", 0, Duration::from_nanos(100));
        let b = log.nest("search", 0, Duration::from_nanos(600));
        let c = log.nest("display", 0, Duration::from_nanos(500)); // 200 too long
        let inner = log.nest("acq", b, Duration::from_nanos(450));
        let s = log.spans();
        assert_eq!((s[a].start_ns, s[a].end_ns), (1_000, 1_100));
        assert_eq!((s[b].start_ns, s[b].end_ns), (1_100, 1_700));
        assert_eq!((s[c].start_ns, s[c].end_ns), (1_700, 2_000));
        assert_eq!((s[inner].start_ns, s[inner].end_ns, s[inner].parent), (1_100, 1_550, Some(b)));
        let selfs = log.self_times_ns();
        assert_eq!(selfs[0], 0);
        assert_eq!(selfs[b], 150);
        let by_name = log.by_name();
        assert_eq!(by_name["search"], (vec![600], vec![150]));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let log = log_of(&[("request", 0, 9, None), ("parse", 1, 2, Some(0))]);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/work");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("span-test-{}.jsonl", std::process::id()));
        log.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"name":"request","start_ns":0,"end_ns":9,"parent":null,"req":0}"#);
        assert!(cx_server::Json::parse(lines[1]).is_ok());
    }
}
