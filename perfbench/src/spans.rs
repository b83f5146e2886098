//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, on the single caller thread. Each span
//! keeps its name, start, end, parent span and pass id; counts recorded
//! with [`Recorder::count`] are kept per pass. Nothing is written until
//! [`Recorder::write_jsonl`] runs at the end of the benchmark. A
//! disabled recorder ([`Recorder::off`]) records nothing, so the timed
//! run calls the same code with tracing off.
//!
//! Separately, a recorder can ask for the detailed path
//! ([`Recorder::set_detail`]): `link` then drives each cell through the
//! public `TrialBatch` stages and `fleet` runs each row with a counting
//! MAC observer. Those passes feed the stage and MAC-event metrics and
//! must reproduce the outputs of the path users call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name; the per-layer metric it feeds.
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass the span belongs to.
    pub pass: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Body name of each pass, indexed by pass id.
    passes: Vec<String>,
    current: usize,
    counts: BTreeMap<(usize, String), f64>,
}

/// Closes its span on drop.
struct OpenSpan<'r> {
    rec: &'r Recorder,
    idx: usize,
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        let mut s = self.rec.state.borrow_mut();
        s.spans[self.idx].end_ns = end;
        while let Some(top) = s.open.pop() {
            if top == self.idx {
                break;
            }
        }
    }
}

/// Records spans and counts when enabled; does nothing otherwise.
pub struct Recorder {
    on: bool,
    detail: Cell<bool>,
    origin: Instant,
    state: RefCell<State>,
}

impl Recorder {
    /// A recorder that records.
    pub fn on() -> Self {
        let mut state = State::default();
        state.passes.push("none".to_string());
        Recorder {
            on: true,
            detail: Cell::new(false),
            origin: Instant::now(),
            state: RefCell::new(state),
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder { on: false, ..Recorder::on() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Whether ops take the detailed path (see the module docs).
    pub fn detail(&self) -> bool {
        self.detail.get()
    }

    /// Sets whether the passes that follow take the detailed path.
    pub fn set_detail(&self, on: bool) {
        self.detail.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new pass of `body`; spans and counts until
    /// [`Recorder::end_pass`] belong to it.
    pub fn begin_pass(&self, body: &str) {
        if !self.on {
            return;
        }
        let mut s = self.state.borrow_mut();
        s.passes.push(body.to_string());
        s.current = s.passes.len() - 1;
    }

    /// Ends the current pass.
    pub fn end_pass(&self) {
        if self.on {
            self.state.borrow_mut().current = 0;
        }
    }

    /// Runs `f` inside a span named `name`. The span closes when `f`
    /// returns or unwinds.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let _open = self.open(name);
        f()
    }

    fn open(&self, name: &str) -> OpenSpan<'_> {
        let mut s = self.state.borrow_mut();
        let parent = s.open.last().copied();
        let pass = s.current;
        let start_ns = self.now_ns();
        s.spans.push(Span { name: name.to_string(), start_ns, end_ns: start_ns, parent, pass });
        let idx = s.spans.len() - 1;
        s.open.push(idx);
        OpenSpan { rec: self, idx }
    }

    /// Adds `v` to the count `name` of the current pass.
    pub fn count(&self, name: &str, v: f64) {
        if !self.on {
            return;
        }
        let mut s = self.state.borrow_mut();
        let pass = s.current;
        *s.counts.entry((pass, name.to_string())).or_insert(0.0) += v;
    }

    /// Pass ids of body `body`, in order.
    fn passes_of(&self, body: &str) -> Vec<usize> {
        let s = self.state.borrow();
        (0..s.passes.len()).filter(|&i| s.passes[i] == body).collect()
    }

    /// Per-pass totals over the passes of `body`: summed durations of
    /// spans named `name`, seconds.
    pub fn span_totals(&self, body: &str, name: &str) -> Vec<f64> {
        let ids = self.passes_of(body);
        let s = self.state.borrow();
        ids.iter()
            .map(|&p| {
                s.spans.iter().filter(|sp| sp.pass == p && sp.name == name).map(Span::secs).sum()
            })
            .collect()
    }

    /// Per-pass values of count `name` over the passes of `body`.
    pub fn count_totals(&self, body: &str, name: &str) -> Vec<f64> {
        let ids = self.passes_of(body);
        let s = self.state.borrow();
        ids.iter().map(|&p| s.counts.get(&(p, name.to_string())).copied().unwrap_or(0.0)).collect()
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover, seconds.
    pub fn self_times(&self) -> Vec<f64> {
        let s = self.state.borrow();
        let mut own: Vec<f64> = s.spans.iter().map(Span::secs).collect();
        for sp in &s.spans {
            if let Some(p) = sp.parent {
                own[p] -= sp.secs();
            }
        }
        own
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Writes every span (with its self time) and every count as JSON
    /// lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let s = self.state.borrow();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, sp) in s.spans.iter().enumerate() {
            let parent = sp.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string());
            writeln!(
                w,
                "{{\"kind\":\"span\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"pass\":{},\"body\":\"{}\",\"self_s\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.pass, s.passes[sp.pass], own[i]
            )?;
        }
        for ((pass, name), v) in &s.counts {
            writeln!(
                w,
                "{{\"kind\":\"count\",\"name\":\"{name}\",\"pass\":{pass},\"body\":\"{}\",\
                 \"value\":{v}}}",
                s.passes[*pass]
            )?;
        }
        w.flush()
    }
}
