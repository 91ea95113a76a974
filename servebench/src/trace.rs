//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is opened by [`span`] around one public call; spans opened while
//! another is open on the same thread become its children. Tracing is off
//! unless [`start`] was called on the thread, and then costs one
//! thread-local lookup per call. Spans stay in memory until [`stop`]
//! hands them back; the benchmark writes them out only where its command
//! line says.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        });
    });
}

/// Stop recording and return every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Tag the spans that follow with operation number `req`.
pub fn set_request(req: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.req = req;
        }
    });
}

/// Run `f` inside a span called `name` (a plain call when tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|t| {
            let id = t.spans.len();
            t.spans.push(Span {
                name,
                start_ns: t.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: t.open.last().copied(),
                req: t.req,
            });
            t.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[id].end_ns = t.epoch.elapsed().as_nanos() as u64;
                t.open.pop();
            }
        });
    }
    out
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once, and a
/// child reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start_ns.max(ps.start_ns), s.end_ns.min(ps.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
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
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// One JSON object per line: name, start, end, parent, request.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.req
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("op", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("b", 20, 50, Some(0)),  // overlaps a: union 10..50
            sp("c", 90, 120, Some(0)), // sticks out: only 90..100 counts
            sp("d", 12, 18, Some(1)),  // grandchild: charged to a, not op
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
        let t = totals(&spans);
        assert_eq!(
            t["op"],
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(t["a"].self_ns, 14);
    }

    #[test]
    fn spans_nest_by_call_structure() {
        start();
        set_request(7);
        span("outer", || {
            span("inner", || ());
            span("inner", || ());
        });
        span("after", || ());
        let spans = stop();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("after", None)
            ]
        );
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        // Off again: no spans are kept.
        span("untraced", || ());
        assert!(stop().is_empty());
    }
}
