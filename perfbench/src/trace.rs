//! In-memory spans recorded around calls into the workspace crates, written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `parent` is the index of the enclosing span, `request`
/// the request (image, unit or request id) it served.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Records spans when enabled; a disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn disabled() -> Self {
        Self {
            origin: Instant::now(),
            spans: None,
        }
    }

    pub fn enabled() -> Self {
        Self {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Record a finished span and return its index (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let Some(spans) = &self.spans else {
            return 0;
        };
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Reserve a span for a scope whose end is not known yet; finish it with
    /// [`Tracer::close`]. Lets children name their parent while it runs.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        let now = Instant::now();
        self.spans.as_ref()?;
        Some(self.record(name, now, now, parent, request))
    }

    pub fn close(&self, span: Option<usize>) {
        let (Some(index), Some(spans)) = (span, &self.spans) else {
            return;
        };
        let end = self.origin.elapsed().as_nanos() as u64;
        if let Some(span) = spans.lock().expect("span store poisoned").get_mut(index) {
            span.end_ns = end;
        }
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
