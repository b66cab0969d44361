//! In-memory spans around every call the harness makes into a crate.
//!
//! Spans live in the benchmark's own files (the program under test is not
//! instrumented): one per boot, campaign call, fold/digest and probe
//! batch, each naming the span that caused it. They are kept in memory and
//! written out once, when the traced pass ends. The untraced pass runs
//! with the tracer disabled, so end-to-end timings never include it.

use std::time::Instant;

use crate::json::Json;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran, e.g. `core.run_slo_campaign` or `kernel.ipc_send_ns`.
    pub name: String,
    /// Start, nanoseconds since tracer creation.
    pub start_ns: u64,
    /// End, nanoseconds since tracer creation.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// Span recorder for one workload process.
///
/// Recording allocates nothing: names are static and the buffers are
/// reserved up front, so spans opened inside a measured region leave the
/// traced pass's allocation counts exact.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<(&'static str, u64, u64, Option<usize>)>,
    open: Vec<usize>,
}

/// Spans a worker can record without growing its buffers: a handful per
/// rep plus a few hundred probe batches.
const SPAN_CAPACITY: usize = 4_096;

/// Nanoseconds since `since`, saturating.
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer; a disabled one runs closures without recording anything.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        elapsed_ns(self.epoch)
    }

    /// Runs `f` inside a span named `name`, child of whatever span is
    /// open. `f` gets the tracer back so it can open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans
            .push((name, start_ns, start_ns, self.open.last().copied()));
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].2 = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Structural check of a span list: every parent index points at an
/// earlier span that encloses the child. Returns the first violation.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let Some(parent) = spans.get(p).filter(|_| p < i) else {
                return Err(format!("span {i} `{}` has no such parent {p}", s.name));
            };
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} `{}` leaves its parent `{}`",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// The spans of one workload as JSON objects
/// `{name,start_ns,end_ns,parent,workload,self_ns}`; `parent` is an index
/// into the same workload's list (offset by `base` when lists are
/// concatenated) or `null` for a root, `self_ns` the span's self time.
pub fn spans_to_json(spans: &[Span], workload: &str, base: usize) -> Vec<Json> {
    spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            Json::obj(vec![
                ("name", Json::str(&s.name)),
                ("start_ns", Json::uint(s.start_ns)),
                ("end_ns", Json::uint(s.end_ns)),
                (
                    "parent",
                    s.parent
                        .map_or(Json::Null, |p| Json::uint((p + base) as u64)),
                ),
                ("workload", Json::str(workload)),
                ("self_ns", Json::uint(self_ns)),
            ])
        })
        .collect()
}

/// Inverse of [`spans_to_json`] for one workload's list (`base` 0).
pub fn spans_from_json(items: &[Json]) -> Option<Vec<Span>> {
    items
        .iter()
        .map(|j| {
            Some(Span {
                name: j.get("name")?.as_str()?.to_string(),
                start_ns: j.get("start_ns")?.as_u64()?,
                end_ns: j.get("end_ns")?.as_u64()?,
                parent: match j.get("parent")? {
                    Json::Null => None,
                    p => Some(usize::try_from(p.as_u64()?).ok()?),
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("boot", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("fold", 40, 50, Some(2)),
        ];
        // rep: 100 - (20 + 60); boot: leaf; run: 60 - 10; fold: leaf.
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped_to_the_parent() {
        let spans = vec![
            span("p", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            span("c", 190, 260, Some(0)),
            span("d", 120, 130, Some(0)),
        ];
        // Cover = [110,170) + [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
        // A child that covers everything leaves zero, never a negative.
        let full = vec![span("p", 0, 10, None), span("k", 0, 50, Some(0))];
        assert_eq!(self_times(&full)[0], 0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| {
            t.span("inner", |_| 7) + t.span("inner2", |_| 1)
        });
        assert_eq!(v, 8);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        check_tree(&spans).expect("well formed");

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |t| t.span("y", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn check_tree_rejects_escaping_and_dangling_spans() {
        assert!(check_tree(&[span("a", 0, 10, None), span("b", 5, 20, Some(0))]).is_err());
        assert!(check_tree(&[span("a", 0, 10, Some(3))]).is_err());
        assert!(check_tree(&[span("a", 10, 0, None)]).is_err());
    }

    #[test]
    fn spans_survive_the_json_round_trip() {
        let spans = vec![span("rep", 0, 9, None), span("boot", 1, 4, Some(0))];
        let json = spans_to_json(&spans, "bulk_io", 0);
        assert_eq!(
            json[1].encode(),
            "{\"name\":\"boot\",\"start_ns\":1,\"end_ns\":4,\"parent\":0,\"workload\":\"bulk_io\",\"self_ns\":3}"
        );
        assert_eq!(json[0].get("self_ns"), Some(&Json::Int(6)));
        assert_eq!(spans_from_json(&json), Some(spans.clone()));
        // Concatenated lists shift parent indices by the base.
        let shifted = spans_to_json(&spans, "w", 5);
        assert_eq!(shifted[1].get("parent"), Some(&Json::Int(5)));
    }
}
