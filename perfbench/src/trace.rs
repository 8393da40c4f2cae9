//! Host-time layer spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer, kept in memory, and written as one Chrome trace-event JSON
//! document when the run ends. Each span carries the id of the rep it
//! belongs to and the span that enclosed it. The benchmark is single
//! threaded on the host side (the simulator runs every core on the
//! calling thread), so children nest strictly inside their parent and a
//! layer's self time is its duration minus its children's.
//!
//! Inside the simulator a host-time span around one queue operation
//! would be meaningless — a fiber's operation returns only after the
//! scheduler has run other cores' events — so spans stop at the
//! `Backend::run` / `Machine::run` boundary.

use crate::util::{jnum, jstr, Checks};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

struct Span {
    name: &'static str,
    run: u64,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

/// The span recorder. While inactive it records nothing and costs one
/// branch per call.
pub struct Tracer {
    active: Cell<bool>,
    st: RefCell<State>,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            active: Cell::new(false),
            st: RefCell::new(State::default()),
        }
    }

    /// Starts rep `run`, recording its spans only if `active`: a traced
    /// run alternates traced and untraced reps to measure the overhead.
    pub fn start_rep(&self, run: u64, active: bool) {
        self.st.borrow_mut().run = run;
        self.active.set(active);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.active.get() {
            return f();
        }
        let idx = {
            let mut st = self.st.borrow_mut();
            let idx = st.spans.len();
            let parent = st.open.last().copied();
            let run = st.run;
            st.spans.push(Span {
                name,
                run,
                parent,
                start: crate::util::host_ns(),
                end: 0,
            });
            st.open.push(idx);
            idx
        };
        let out = f();
        let mut st = self.st.borrow_mut();
        st.spans[idx].end = crate::util::host_ns();
        st.open.pop();
        out
    }

    /// Per-layer count, total and self time. A span whose end precedes
    /// its start, or whose children outlast it, is a failed check.
    pub fn layers(&self, checks: &mut Checks) -> BTreeMap<&'static str, LayerTime> {
        let st = self.st.borrow();
        let mut child_ns = vec![0u64; st.spans.len()];
        let mut durs = vec![0u64; st.spans.len()];
        for (i, s) in st.spans.iter().enumerate() {
            let d = checks.host_interval(s.name, s.start, s.end).unwrap_or(0);
            durs[i] = d;
            if let Some(p) = s.parent {
                child_ns[p] += d;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in st.spans.iter().enumerate() {
            let self_ns = durs[i].checked_sub(child_ns[i]);
            checks.check(self_ns.is_some(), || {
                format!("{}: children cover more than the span", s.name)
            });
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += durs[i];
            e.self_ns += self_ns.unwrap_or(0);
        }
        out
    }

    /// The spans as a Chrome trace-event document (timestamps and
    /// durations in microseconds, as Chrome expects), plus host-clock op
    /// spans `(thread, name, start, end)` from native threads, one track
    /// per thread after the layer track. `layers` has already counted an
    /// end before a start as a failed check; such a span renders empty.
    pub fn chrome_json(&self, label: &str, threads: &[(usize, &str, u64, u64)]) -> String {
        let st = self.st.borrow();
        let mut s = String::from("{\"traceEvents\":[");
        let _ = write!(
            s,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":{}}}}}",
            jstr(label)
        );
        for (i, sp) in st.spans.iter().enumerate() {
            let dur = sp.end.saturating_sub(sp.start);
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                ",{{\"name\":{},\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\"args\":{{\"id\":{i},\"run\":{},\"parent\":{parent}}}}}",
                jstr(sp.name),
                jnum(sp.start as f64 / 1e3),
                jnum(dur as f64 / 1e3),
                sp.run
            );
        }
        for &(tid, name, start, end) in threads {
            let dur = end.saturating_sub(start);
            let _ = write!(
                s,
                ",{{\"name\":{},\"cat\":\"native-op\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                jstr(name),
                jnum(start as f64 / 1e3),
                jnum(dur as f64 / 1e3),
                tid + 1
            );
        }
        s.push_str("]}\n");
        s
    }
}
