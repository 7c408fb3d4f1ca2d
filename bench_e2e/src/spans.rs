//! The harness's clock: a span recorder for the `--trace 1` run and the
//! yardstick that steadies the end-to-end times.
//!
//! A span is one call from the harness into a layer: name, start, end,
//! the span that was open when it started, and the step (or path/window)
//! index it belongs to. Spans are kept in a `Vec` and written once when
//! the run ends; nothing inside the libraries is instrumented. With the
//! recorder off, [`Tracer::timed`] is two `Instant::now()` calls, so the
//! timing-off run pays nothing for the spans it does not keep.
//!
//! Span times are nanoseconds since the Unix epoch, so the spans a
//! cold-query child process records line up with the parent's without a
//! handshake.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::Value;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Step, path or window index the call belongs to.
    pub step: u32,
}

#[derive(Debug)]
struct Recorder {
    origin: Instant,
    origin_epoch_ns: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Share of a measured section's time the yardstick takes for itself.
const YARDSTICK_SHARE: f64 = 0.05;

/// Passes every measured section gets, however short it is.
const YARDSTICK_MIN_PASSES: u64 = 3;

/// A fixed piece of work, about a millisecond on this sandbox when it is
/// quiet, run in between the calls a section measures.
///
/// The sandbox's speed drifts by tens of percent over seconds to minutes
/// (other tenants, not this process: steal time stays near zero). The
/// same 1.5 s rack iteration took 1.36–2.73 s within one 150 s run, so
/// no amount of repetition inside a run steadies a raw time. The
/// yardstick slows down with the machine — it mixes integer work over a
/// 512 KiB table with the allocation, formatting and hashing the
/// pipeline does per event — so a section's time *divided by the mean
/// yardstick pass taken alongside it* repeats to about 6 % where the raw
/// time spreads by 20 %.
#[derive(Debug)]
struct Yardstick {
    table: Vec<u64>,
    state: u64,
    section: Instant,
    secs: f64,
    passes: u64,
}

impl Yardstick {
    fn new() -> Self {
        Yardstick {
            table: vec![0; 1 << 16],
            state: 0x9e37_79b9_7f4a_7c15,
            section: Instant::now(),
            secs: 0.0,
            passes: 0,
        }
    }

    fn pass(&mut self) {
        let start = Instant::now();
        let mut x = self.state;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..150_000u64 {
            let x = step();
            let slot = &mut self.table[x as usize & 0xffff];
            *slot = slot.wrapping_add(x ^ i);
        }
        let mut map: HashMap<String, Vec<u8>> = HashMap::new();
        for i in 0..3_000u64 {
            let x = step();
            map.entry(format!("dev{}-{}", x % 257, i % 7))
                .or_default()
                .push(i as u8);
            black_box(vec![i as u8; 64 + (x % 256) as usize]);
        }
        black_box((&map, &self.table));
        self.state = x;
        self.secs += start.elapsed().as_secs_f64();
        self.passes += 1;
    }

    /// Seconds of the current section spent outside the yardstick.
    fn measured_s(&self) -> f64 {
        self.section.elapsed().as_secs_f64() - self.secs
    }
}

/// What [`Tracer::normalised`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Section {
    /// Seconds spent in the section, yardstick passes excluded.
    pub raw_s: f64,
    /// Mean yardstick pass during the section, in milliseconds.
    pub yardstick_ms: f64,
}

impl Section {
    /// `raw_s` in yardstick-normalised seconds: what the section would
    /// have taken had the yardstick run at one millisecond per pass.
    pub fn norm_s(&self) -> f64 {
        self.raw_s / self.yardstick_ms
    }

    /// The three figures an iteration reports about its timed section.
    pub fn values(&self) -> [(String, f64); 3] {
        [
            ("wall_s".to_owned(), self.norm_s()),
            ("wall_raw_s".to_owned(), self.raw_s),
            ("harness.yardstick_ms".to_owned(), self.yardstick_ms),
        ]
    }
}

/// Shared handle to the recorder and the yardstick; clones use the same.
#[derive(Debug, Clone)]
pub struct Tracer {
    rec: Option<Rc<RefCell<Recorder>>>,
    yard: Rc<RefCell<Yardstick>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only times (`!on`).
    pub fn new(on: bool) -> Self {
        let rec = on.then(|| {
            let origin_epoch_ns = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .expect("clock after 1970")
                .as_nanos() as u64;
            Rc::new(RefCell::new(Recorder {
                origin: Instant::now(),
                origin_epoch_ns,
                spans: Vec::new(),
                open: Vec::new(),
            }))
        });
        Tracer {
            rec,
            yard: Rc::new(RefCell::new(Yardstick::new())),
        }
    }

    /// Whether spans are being kept.
    pub fn is_on(&self) -> bool {
        self.rec.is_some()
    }

    /// Runs `f`, returns its result and how long it took in seconds, and
    /// keeps a span for it when the recorder is on.
    pub fn timed<T>(&self, name: &str, step: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let Some(rec) = &self.rec else {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        };
        let idx = {
            let mut r = rec.borrow_mut();
            let start_ns = r.origin_epoch_ns + r.origin.elapsed().as_nanos() as u64;
            let parent = r.open.last().copied();
            r.spans.push(Span {
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
                parent,
                step,
            });
            let idx = r.spans.len() - 1;
            r.open.push(idx);
            idx
        };
        let out = f();
        let mut r = rec.borrow_mut();
        let end_ns = r.origin_epoch_ns + r.origin.elapsed().as_nanos() as u64;
        r.spans[idx].end_ns = end_ns;
        let closed = r.open.pop();
        debug_assert_eq!(closed, Some(idx), "spans close in LIFO order");
        let secs = (end_ns - r.spans[idx].start_ns) as f64 / 1e9;
        (out, secs)
    }

    /// Measures a section against the yardstick: runs `f` as the span
    /// `name`, with yardstick passes wherever `f` calls
    /// [`Tracer::catch_up`] and once more at its end. Sections do not
    /// nest.
    pub fn normalised<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Section) {
        {
            let mut y = self.yard.borrow_mut();
            y.section = Instant::now();
            y.secs = 0.0;
            y.passes = 0;
        }
        let (out, _) = self.timed(name, 0, || {
            let out = f();
            self.catch_up();
            out
        });
        let y = self.yard.borrow();
        let section = Section {
            raw_s: y.measured_s(),
            yardstick_ms: y.secs * 1e3 / y.passes as f64,
        };
        (out, section)
    }

    /// Lets the yardstick catch up with the section measured so far: it
    /// runs passes until it has had its share of the section's time.
    /// Call between the calls being measured, never inside one.
    pub fn catch_up(&self) {
        let behind = |y: &Yardstick| {
            y.passes < YARDSTICK_MIN_PASSES || y.secs < YARDSTICK_SHARE * y.measured_s()
        };
        if !behind(&self.yard.borrow()) {
            return;
        }
        self.timed("harness.yardstick", 0, || {
            let mut y = self.yard.borrow_mut();
            while behind(&y) {
                y.pass();
            }
        });
    }

    /// The yardstick's `(seconds, passes)` in the current section, for a
    /// child process to hand to its parent.
    pub fn yardstick(&self) -> (f64, u64) {
        let y = self.yard.borrow();
        (y.secs, y.passes)
    }

    /// Counts the yardstick passes a child process ran as this
    /// section's own: the child's time is part of the section.
    pub fn absorb_yardstick(&self, secs: f64, passes: u64) {
        let mut y = self.yard.borrow_mut();
        y.secs += secs;
        y.passes += passes;
    }

    /// Appends spans recorded by a child process under the innermost
    /// open span, clamped into it (the two processes read the same
    /// clock, but not at the same instant).
    pub fn adopt(&self, child: Vec<Span>) {
        let Some(rec) = &self.rec else { return };
        let mut r = rec.borrow_mut();
        let host = r.open.last().copied();
        let (lo, hi) = match host {
            Some(h) => {
                let now = r.origin_epoch_ns + r.origin.elapsed().as_nanos() as u64;
                (r.spans[h].start_ns, now)
            }
            None => (0, u64::MAX),
        };
        let base = r.spans.len();
        for s in child {
            r.spans.push(Span {
                start_ns: s.start_ns.clamp(lo, hi),
                end_ns: s.end_ns.clamp(lo, hi),
                parent: s.parent.map(|p| p + base).or(host),
                ..s
            });
        }
    }

    /// The spans recorded so far (empty when off).
    pub fn spans(&self) -> Vec<Span> {
        self.rec
            .as_ref()
            .map(|r| r.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// it its direct children cover.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self time per span name, in seconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name.clone()).or_default() += own as f64 / 1e9;
    }
    out
}

/// Share of the first span named `root` that its descendants attribute
/// to a layer: their self time, leaving out the harness's own
/// (`harness.*`) spans, over the root's duration.
pub fn attributed_share(spans: &[Span], root: &str) -> f64 {
    let Some(r) = spans.iter().position(|s| s.name == root) else {
        return 0.0;
    };
    let mut inside = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate().skip(r + 1) {
        inside[i] = s.parent.is_some_and(|p| p == r || inside[p]);
    }
    let layer_ns: u64 = spans
        .iter()
        .zip(self_ns(spans))
        .zip(inside)
        .filter(|((s, _), inside)| *inside && !s.name.starts_with("harness."))
        .map(|((_, own), _)| own)
        .sum();
    layer_ns as f64 / (spans[r].end_ns - spans[r].start_ns).max(1) as f64
}

/// Checks the tree is well-formed: parents precede children, every child
/// lies inside its parent, siblings do not overlap (so self times cannot
/// go negative).
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        if p >= i {
            return Err(format!("span {i} ({}) precedes its parent {p}", s.name));
        }
        let parent = &spans[p];
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) leaves its parent {p} ({})",
                s.name, parent.name
            ));
        }
        if s.start_ns < last_child_end[p] {
            return Err(format!(
                "span {i} ({}) overlaps a sibling under {p} ({})",
                s.name, parent.name
            ));
        }
        last_child_end[p] = s.end_ns;
    }
    Ok(())
}

/// Spans as a JSON array of `[name, start_ns, end_ns, parent|null, step]`.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                Value::Array(vec![
                    Value::String(s.name.clone()),
                    Value::UInt(s.start_ns),
                    Value::UInt(s.end_ns),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    Value::UInt(u64::from(s.step)),
                ])
            })
            .collect(),
    )
}

/// Inverse of [`to_json`].
pub fn from_json(v: &Value) -> Result<Vec<Span>, String> {
    let rows = v.as_array().ok_or("spans: not an array")?;
    rows.iter()
        .map(|row| {
            let f = row.as_array().filter(|f| f.len() == 5).ok_or("span row")?;
            Ok(Span {
                name: f[0].as_str().ok_or("span name")?.to_owned(),
                start_ns: f[1].as_u64().ok_or("span start")?,
                end_ns: f[2].as_u64().ok_or("span end")?,
                parent: match &f[3] {
                    Value::Null => None,
                    p => Some(p.as_u64().ok_or("span parent")? as usize),
                },
                step: f[4].as_u64().ok_or("span step")? as u32,
            })
        })
        .collect::<Result<_, &str>>()
        .map_err(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let tree = [
            span("iteration", 0, 100, None),
            span("core.collect", 10, 60, Some(0)),
            span("live.on_batch", 20, 50, Some(1)),
            span("harness.child", 60, 90, Some(0)),
        ];
        check_tree(&tree).unwrap();
        let own = self_times(&tree);
        assert_eq!(own["iteration"], 20e-9);
        assert_eq!(own["core.collect"], 20e-9);
        assert_eq!(own["live.on_batch"], 30e-9);
        // 50 ns of the root went to layers; the harness's 30 do not count.
        assert_eq!(attributed_share(&tree, "iteration"), 0.5);
        assert_eq!(from_json(&to_json(&tree)).unwrap(), tree);
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let escapes = [span("a", 10, 20, None), span("b", 15, 25, Some(0))];
        assert!(check_tree(&escapes).is_err());
        let overlap = [
            span("a", 0, 100, None),
            span("b", 10, 50, Some(0)),
            span("c", 40, 60, Some(0)),
        ];
        assert!(check_tree(&overlap).is_err());
    }

    #[test]
    fn a_tracer_that_is_off_only_times() {
        let off = Tracer::new(false);
        let (x, secs) = off.timed("anything", 0, || 7);
        assert_eq!(x, 7);
        assert!(secs >= 0.0);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.timed("outer", 1, || on.timed("inner", 2, || ()));
        let tree = on.spans();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[1].parent, Some(0));
        check_tree(&tree).unwrap();
    }
}
