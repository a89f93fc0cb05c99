//! In-memory spans of a traced run, written out when the run ends.
//!
//! One span per call the benchmark makes into the program: each build and
//! load of set-up, each op (split into its timed call and the client-side
//! check), and each crypto calibration call. Spans of one op share the op
//! number. A span's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::counters::{idx, Counters};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, e.g. `op.call`.
    pub name: &'static str,
    /// Enclosing span.
    pub parent: Option<SpanId>,
    /// Op number shared by the spans of one op.
    pub op: Option<u64>,
    /// Start, ns since the tracer began.
    pub start_ns: u64,
    /// End, ns since the tracer began.
    pub end_ns: u64,
    /// Counter deltas over the span, where the span has any.
    pub delta: Option<Counters>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// ns since the origin.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// ns from the origin to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: Option<u64>) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Add a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
            delta: None,
        });
        self.spans.len() - 1
    }

    /// Attach counter deltas to span `id`.
    pub fn set_delta(&mut self, id: SpanId, delta: Counters) {
        self.spans[id].delta = Some(delta);
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total ns, self ns), where self time is the
    /// span's duration minus that of its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(kids);
        }
        out
    }

    /// Write the spans as JSON lines, one span a line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let counted = [
            ("faults", idx("sgx-sim.faults")),
            ("pages_fetched", idx("runtime.pages_fetched")),
            ("pages_evicted", idx("runtime.pages_evicted")),
            ("oram_accesses", idx("oram.accesses")),
            ("cache_misses", idx("oram.cache_misses")),
            ("sim_cycles", idx("sgx-sim.sim_cycles")),
        ];
        for (id, s) in self.spans.iter().enumerate() {
            write!(out, "{{\"id\":{id},\"name\":\"{}\"", s.name)?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            if let Some(op) = s.op {
                write!(out, ",\"op\":{op}")?;
            }
            write!(out, ",\"start_ns\":{},\"end_ns\":{}", s.start_ns, s.end_ns)?;
            if let Some(d) = &s.delta {
                for (key, i) in counted {
                    write!(out, ",\"{key}\":{}", d.get(i))?;
                }
            }
            writeln!(out, "}}")?;
        }
        Ok(())
    }
}
