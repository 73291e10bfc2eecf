//! Benchmark-side spans: wall-clock intervals recorded around the calls
//! the benchmark makes into the program's layers, with parent links, so
//! the traced run can report each call's self time (its duration minus
//! the part its child spans cover). Kept in memory until the run ends.

use std::cell::RefCell;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder for one thread.
pub struct Spans {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                parent: open.last().copied(),
                start_ns,
                end_ns: start_ns,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end = self.now_ns();
        self.spans.borrow_mut()[idx].end_ns = end;
        self.open.borrow_mut().pop();
        out
    }

    /// Summed self time in seconds of every span called `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum::<u64>() as f64
            * 1e-9
    }
}
