//! In-memory spans around every call the harness makes into a layer's
//! public function. Off by default (one thread-local flag test per
//! call); the traced run turns it on, and the spans are written out only
//! when the run ends.
//!
//! All layer calls happen on the harness's main thread, so the recorder
//! is a thread-local: spans of one thread nest properly and a span's
//! self time is its duration minus its direct children's.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    rep: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (drops anything recorded before).
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        })
    });
}

/// Stops recording and returns what was recorded (empty if never on).
pub fn disable() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Tags the spans that follow with a repetition number.
pub fn set_rep(rep: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.rep = rep;
        }
    });
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard is dropped"]
pub struct SpanGuard(Option<u32>);

/// Opens a span; a no-op guard while recording is off.
pub fn span(layer: &'static str, name: &'static str) -> SpanGuard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else {
            return SpanGuard(None);
        };
        let id = rec.spans.len() as u32;
        let start_ns = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            layer,
            name,
            rep: rec.rep,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        SpanGuard(Some(id))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let end = rec.epoch.elapsed().as_nanos() as u64;
                if let Some(span) = rec.spans.get_mut(id as usize) {
                    span.end_ns = end;
                }
                // Normally the top of the stack; `retain` also copes with a
                // guard dropped out of order.
                rec.open.retain(|open| *open != id);
            }
        });
    }
}

/// Per `(layer, name)` totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Self time of every span: duration minus direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Aggregates spans by `(layer, name)`.
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), Totals> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<_, Totals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let t = out.entry((span.layer, span.name)).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Wall time covered by top-level spans (no parent), seconds — compared
/// with the measured wall to state how much of it the harness can see.
pub fn root_covered_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// The `*.trace.json` document: the raw spans plus the per-name totals.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let num = |n: u64| Json::Num(n as f64);
    let rows = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), num(u64::from(s.id))),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| num(u64::from(p))),
                ),
                ("layer".into(), Json::Str(s.layer.into())),
                ("name".into(), Json::Str(s.name.into())),
                ("workload".into(), Json::Str(workload.into())),
                ("rep".into(), num(u64::from(s.rep))),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
            ])
        })
        .collect();
    let summary = totals(spans)
        .into_iter()
        .map(|((layer, name), t)| {
            Json::Obj(vec![
                ("layer".into(), Json::Str(layer.into())),
                ("name".into(), Json::Str(name.into())),
                ("calls".into(), num(t.calls)),
                ("total_ns".into(), num(t.total_ns)),
                ("self_ns".into(), num(t.self_ns)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("totals".into(), Json::Arr(summary)),
        ("spans".into(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer: "l",
            name,
            rep: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100, child a 10..40 with grandchild 20..30, child b 50..90.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "g", 20, 30),
            span(3, Some(0), "b", 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        let t = totals(&spans);
        assert_eq!(t[&("l", "root")].self_ns, 30);
        assert_eq!(t[&("l", "a")].total_ns, 30);
        // Self times partition the root's wall.
        let sum: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(sum, 100);
        assert!((root_covered_s(&spans) - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn guards_nest_and_are_free_when_off() {
        drop(span_guard_off());
        enable();
        set_rep(3);
        {
            let _outer = super::span("x", "outer");
            let _inner = super::span("y", "inner");
        }
        let _sibling = super::span("x", "sibling");
        drop(_sibling);
        let spans = disable();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(disable().is_empty());
    }

    fn span_guard_off() -> SpanGuard {
        let g = super::span("x", "off");
        assert!(g.0.is_none());
        g
    }
}
