//! In-memory spans of the traced run, written out as JSON lines when the
//! benchmark ends.
//!
//! A root span covers one public engine call; its children are the
//! standalone replays of the layers that call went through, made by the
//! harness on the same inputs (`replayed: true`). Spans of one engine call
//! share its `op` identifier. A layer's self time is its span's duration
//! minus its children's.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run, from 1.
    pub id: u32,
    /// The span that caused this one (0 = none: a root).
    pub parent: u32,
    /// The engine call this span belongs to.
    pub op: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, likewise.
    pub end_ns: u64,
    /// Whether the harness produced this span by replaying the layer
    /// outside the engine (children) rather than by timing an engine call
    /// (roots).
    pub replayed: bool,
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Reserves the id of a span whose children are recorded before it.
    pub fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under a reserved or fresh id and returns the id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: Option<u32>,
        parent: u32,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        replayed: bool,
    ) -> u32 {
        let id = id.unwrap_or_else(|| self.reserve());
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            replayed,
        });
        id
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.replayed
            )?;
        }
        w.flush()
    }
}
