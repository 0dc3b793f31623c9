//! Benchmark-side spans: one in-memory record around each call into a
//! layer, off while the end-to-end metrics are measured and on for the
//! per-layer run. Nothing is written until [`flush`].

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `parent` indexes the span that was open on the
/// same thread when this one started; `cell` ties the spans of one cell
/// (or daemon job) together.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: String,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices (into `SPANS`) of the spans open on this thread.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("no span holder panics")
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span; a no-op costing one atomic load while spans are off.
pub fn enter(name: &'static str, cell: &str) -> Guard {
    if !ENABLED.load(Ordering::SeqCst) {
        return Guard(None);
    }
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let mut all = spans();
    let idx = all.len();
    all.push(Span {
        name,
        start_ns: now_ns(),
        end_ns: 0,
        parent,
        cell: cell.to_string(),
    });
    drop(all);
    OPEN.with(|o| o.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            OPEN.with(|o| o.borrow_mut().retain(|&i| i != idx));
            spans()[idx].end_ns = end;
        }
    }
}

/// Total seconds spent inside spans called `name`.
pub fn total_s(name: &str) -> f64 {
    spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
        .sum()
}

/// Writes every recorded span as one JSON object per line.
pub fn flush(path: &Path) -> std::io::Result<usize> {
    let all = spans();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in all.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":\"{}\"}}",
            s.name, s.start_ns, s.end_ns, s.cell
        )?;
    }
    out.flush()?;
    Ok(all.len())
}
