//! In-memory spans recorded around calls into the program's layers.
//!
//! Spans of one request share its id. The benchmark keeps them in
//! memory while it measures and writes them out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Duration;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request (or task) id shared by the spans of one request.
    pub id: u64,
    /// Layer, named by module.
    pub layer: &'static str,
    /// Layer of the span that caused this one (`""` for a root).
    pub parent: &'static str,
    /// Start, after the phase start.
    pub start: Duration,
    /// End, after the phase start.
    pub end: Duration,
}

impl Span {
    /// The span's length in ms.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Lengths in ms of the spans of `layer`.
pub fn lengths_ms(spans: &[Span], layer: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(Span::ms)
        .collect()
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"layer\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id,
            s.layer,
            s.parent,
            s.start.as_secs_f64() * 1e6,
            s.end.as_secs_f64() * 1e6
        )?;
    }
    out.flush()
}
