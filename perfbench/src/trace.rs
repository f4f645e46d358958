//! Outside-in host-time tracing: spans the benchmark records around
//! its own calls into each crate, kept in memory and written at exit,
//! plus the percentile discipline every reported timing follows.
//!
//! A disabled [`Recorder`] never reads the clock, so an untraced run
//! pays nothing for the instrumentation it carries.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: `[start, end)` in nanoseconds since the recorder's
/// origin, with the span that was open on the same thread when it
/// began as its parent.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span closed when the guard drops. Nested guards on one
    /// thread become children of the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                rec: self,
                open: None,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        Guard {
            rec: self,
            open: Some((id, parent, name, self.now())),
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every closed span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

pub struct Guard<'a> {
    rec: &'a Recorder,
    open: Option<(u64, Option<u64>, &'static str, u64)>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            OPEN.with(|o| {
                let mut o = o.borrow_mut();
                if let Some(pos) = o.iter().rposition(|&x| x == id) {
                    o.remove(pos);
                }
            });
            let end = self.rec.now();
            self.rec.push(Span {
                id,
                parent,
                name,
                start,
                end,
            });
        }
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
pub fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span named `name`: its duration minus the part
/// of its interval that its child spans cover (children that overlap
/// each other count once).
pub fn self_times(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start, c.end))
                .collect();
            s.dur() - covered(s.start, s.end, &kids)
        })
        .collect()
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// The percentiles a timing may be reported at, highest last.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples beyond the `pct`-th percentile of `n` samples.
fn beyond(n: usize, pct: f64) -> usize {
    ((n as f64) * (100.0 - pct) / 100.0).floor() as usize
}

/// The `pct`-th percentile (nearest rank), refused unless at least ten
/// samples lie beyond it.
pub fn percentile(samples: &[f64], pct: f64) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, pct) < 10 {
        return Err(format!(
            "p{pct} of {n} sample(s) refused: fewer than ten samples beyond it"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    Ok(sorted[rank.clamp(1, n) - 1])
}

/// A timing as reported: its p50 and the highest percentile of the
/// ladder that has at least ten samples beyond it, with the count.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub tail: (f64, f64),
}

impl Timing {
    pub fn of(samples: &[f64]) -> Result<Timing, String> {
        let p50 = percentile(samples, 50.0)?;
        let mut tail = (50.0, p50);
        for &pct in &LADDER[1..] {
            if let Ok(v) = percentile(samples, pct) {
                tail = (pct, v);
            }
        }
        Ok(Timing {
            n: samples.len(),
            p50,
            tail,
        })
    }
}

impl std::fmt::Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.6}", self.p50)?;
        if self.tail.0 > 50.0 {
            write!(f, " p{} {:.6}", self.tail.0, self.tail.1)?;
        }
        write!(f, " (n={})", self.n)
    }
}

/// Whether `name` may be used as a metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
        && name.as_bytes()[0].is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span(1, None, "step", 0, 100),
            span(2, Some(1), "exec", 10, 40),
            span(3, Some(1), "exec", 50, 70),
        ];
        assert_eq!(self_times(&spans, "step"), vec![50]);
        assert_eq!(self_times(&spans, "exec"), vec![30, 20]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children on different threads overlapping in [30, 40).
        let spans = vec![
            span(1, None, "pump", 0, 100),
            span(2, Some(1), "exec", 10, 40),
            span(3, Some(1), "exec", 30, 60),
        ];
        assert_eq!(self_times(&spans, "pump"), vec![50]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(1, None, "a", 10, 50),
            span(2, Some(1), "b", 0, 20),
            span(3, Some(1), "b", 45, 90),
        ];
        assert_eq!(self_times(&spans, "a"), vec![25]);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent_twice() {
        let spans = vec![
            span(1, None, "a", 0, 100),
            span(2, Some(1), "b", 0, 60),
            span(3, Some(2), "c", 10, 30),
        ];
        assert_eq!(self_times(&spans, "a"), vec![40]);
        assert_eq!(self_times(&spans, "b"), vec![40]);
        assert_eq!(self_times(&spans, "c"), vec![20]);
    }

    #[test]
    fn recorder_nests_spans_on_one_thread() {
        let rec = Recorder::new(true);
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        let off = Recorder::new(false);
        drop(off.span("x"));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&xs, 50.0).is_err());
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Ok(10.0));
        assert!(percentile(&xs, 90.0).is_err());
        let floor = |pct: f64| (1..).find(|&n| beyond(n, pct) >= 10).unwrap();
        assert_eq!((floor(50.0), floor(90.0), floor(99.0)), (20, 100, 1000));
        let t = Timing::of(&(1..=1000).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.n, t.p50, t.tail), (1000, 500.0, (99.0, 990.0)));
        let t = Timing::of(&(1..=150).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.tail, (90.0, 135.0));
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_name("md.pme.spread_ms"));
        assert!(valid_name("gateway.route_ms.submit"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("p99/ms"));
        assert!(!valid_name(""));
    }
}
