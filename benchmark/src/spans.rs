//! Spans recorded by the benchmark's own driver around each call it
//! makes into a layer, and the probes that record them.
//!
//! Spans sit in preallocated buffers while a run measures and are written
//! to `benchmark/out/` when it ends. The untraced pass uses [`NoProbe`],
//! which compiles to nothing.

use std::io::Write;
use std::time::Instant;

use crate::surface::Session;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `rbtree.get` or `service.run_service`.
    pub name: &'static str,
    pub thread: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Modeled cycles the call charged to its session (0 where the call
    /// exposes no cycle counter).
    pub cycles: u64,
    /// Index of the enclosing span in the written file, or [`ROOT`].
    pub parent: u32,
}

/// Hooks around one call into a layer through a [`Session`].
pub trait Probe {
    type Token;
    fn begin(&mut self, session: &Session) -> Self::Token;
    fn end(&mut self, session: &Session, name: &'static str, token: Self::Token);
    /// Tells the probe which span encloses the calls that follow.
    fn enter(&mut self, _parent: u32) {}
}

/// The untraced pass: nothing is read, nothing is stored.
pub struct NoProbe;

impl Probe for NoProbe {
    type Token = ();
    #[inline(always)]
    fn begin(&mut self, _: &Session) {}
    #[inline(always)]
    fn end(&mut self, _: &Session, _: &'static str, _: ()) {}
}

/// Records only the modeled cycles of each call: the latency slice of the
/// closed-loop workloads, whose per-operation modeled time is exact.
pub struct CycleProbe {
    pub cycles: Vec<u64>,
}

impl CycleProbe {
    pub fn with_capacity(calls: u64) -> CycleProbe {
        CycleProbe { cycles: Vec::with_capacity(calls as usize) }
    }
}

impl Probe for CycleProbe {
    type Token = u64;
    #[inline]
    fn begin(&mut self, session: &Session) -> u64 {
        session.stats().cycles
    }
    #[inline]
    fn end(&mut self, session: &Session, _: &'static str, before: u64) {
        self.cycles.push(session.stats().cycles - before);
    }
}

/// Records a full span per call into a preallocated buffer; calls past
/// the buffer's capacity are counted, not stored.
pub struct SpanProbe {
    epoch: Instant,
    thread: u16,
    parent: u32,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanProbe {
    pub fn new(epoch: Instant, thread: usize, capacity: usize) -> SpanProbe {
        SpanProbe {
            epoch,
            thread: thread as u16,
            parent: ROOT,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span around a call that goes through no session.
    pub fn around<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = call();
        let end_ns = self.now_ns();
        self.store(Span { name, thread: self.thread, start_ns, end_ns, cycles: 0, parent: self.parent });
        out
    }

    fn store(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

impl Probe for SpanProbe {
    type Token = (u64, u64);
    #[inline]
    fn begin(&mut self, session: &Session) -> (u64, u64) {
        (self.now_ns(), session.stats().cycles)
    }
    #[inline]
    fn end(&mut self, session: &Session, name: &'static str, (start_ns, before): (u64, u64)) {
        let span = Span {
            name,
            thread: self.thread,
            start_ns,
            end_ns: self.now_ns(),
            cycles: session.stats().cycles - before,
            parent: self.parent,
        };
        self.store(span);
    }
    fn enter(&mut self, parent: u32) {
        self.parent = parent;
    }
}

/// Everything one traced workload recorded. Root spans (phases, slices)
/// come first in the file, so a call span's `parent` is the line index
/// of the slice it ran in.
#[derive(Default)]
pub struct SpanLog {
    pub roots: Vec<Span>,
    pub calls: Vec<Span>,
    pub dropped: u64,
}

impl SpanLog {
    /// Adds a root span; its index is what [`Probe::enter`] was told.
    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.roots.push(Span { name, thread: 0, start_ns, end_ns, cycles: 0, parent: ROOT });
    }

    pub fn absorb(&mut self, probe: SpanProbe) {
        self.calls.extend(probe.spans);
        self.dropped += probe.dropped;
    }

    /// Wall nanoseconds of every call span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.calls.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// [`durations`](Self::durations) of the calls under the root spans
    /// named `root` only.
    pub fn durations_under(&self, name: &str, root: &str) -> Vec<u64> {
        let under = |s: &&Span| self.roots.get(s.parent as usize).is_some_and(|r| r.name == root);
        self.calls.iter().filter(|s| s.name == name).filter(under).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Writes `<dir>/spans-<label>.csv`; returns its path with the number
    /// of spans written and of calls that found the buffers full.
    pub fn write(&self, dir: &str, label: &str) -> std::io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/spans-{label}.csv");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "id,parent,name,thread,start_ns,end_ns,modeled_cycles")?;
        for (id, s) in self.roots.iter().chain(self.calls.iter()).enumerate() {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{id},{parent},{},{},{},{},{}", s.name, s.thread, s.start_ns, s.end_ns, s.cycles)?;
        }
        out.flush()?;
        Ok(format!(
            "{path} ({} spans, {} calls not stored)",
            self.roots.len() + self.calls.len(),
            self.dropped
        ))
    }
}
