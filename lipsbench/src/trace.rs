//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public functions; the program itself is not instrumented. A span's name
//! is `<layer>.<what>`, so self time can be rolled up by layer. Spans are
//! kept in memory and written out as JSON lines once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::host::Probe;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The LP epoch (index into the pass's epoch records) the span
    /// belongs to, when it belongs to one.
    pub epoch: Option<usize>,
}

/// Records spans while enabled; always hands back the measured duration,
/// so untraced runs time the same calls without keeping spans. Also owns
/// the host-speed probe, so that every workload can run it next to what it
/// times.
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    probe: Probe,
    /// Host ms spent in the probe so far, to take out of the intervals
    /// that enclose it.
    probe_ms: f64,
}

/// Handle of an open span (`None` while not recording).
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

impl Open {
    /// Span id, to parent nested spans under.
    pub fn id(self) -> Option<usize> {
        self.id
    }
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            probe: Probe::new(),
            probe_ms: 0.0,
        }
    }

    /// Run the host-speed probe as a `host.probe` span; returns the factor
    /// that scales a host time measured just before to reference speed.
    pub fn host_speed(&mut self, parent: Option<usize>) -> f64 {
        let open = self.open("host.probe", parent, None);
        let speed = self.probe.speed();
        self.probe_ms += self.close(open);
        speed
    }

    /// Host ms spent in the probe since the tracer was created.
    pub fn probe_ms(&self) -> f64 {
        self.probe_ms
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Stop or resume keeping spans (open spans still close normally).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        epoch: Option<usize>,
    ) -> Open {
        let start = Instant::now();
        let id = self.recording.then(|| {
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                epoch,
            });
            self.spans.len() - 1
        });
        Open { id, start }
    }

    /// Close a span; returns its duration in milliseconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            self.spans[id].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64() * 1e3
    }

    /// Run `f` inside a span; returns its result and duration in ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, None);
        let out = f();
        (out, self.close(open))
    }

    /// Re-tag a span with the LP epoch it turned out to belong to.
    pub fn set_epoch(&mut self, open: Open, epoch: usize) {
        if let Some(id) = open.id {
            self.spans[id].epoch = Some(epoch);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds elapsed since the tracer was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Share of `[0, until_ns]` covered by the union of root spans.
    pub fn coverage(&self, until_ns: u64) -> f64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns.min(until_ns)))
            .collect();
        roots.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (start, end) in roots {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered as f64 / until_ns.max(1) as f64
    }

    /// Self time (duration minus children) of every span, summed by the
    /// span's layer (the name before the first `.`), in ms.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let ms = (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6;
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, total)) => *total += ms,
                None => layers.push((layer, ms)),
            }
        }
        layers
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.epoch)
            );
        }
        out
    }
}
