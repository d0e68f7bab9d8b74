//! Span recorder for the traced run.
//!
//! The harness measures every layer from outside, by timing its calls
//! into the layer's public functions. A pass is generic over a [`Probe`]:
//! [`Untraced`] compiles to the bare calls (end-to-end metrics always come
//! from it), [`Recorder`] wraps each call in a pair of clock reads, keeps
//! spans in memory and hands them to the trace writer when the run ends.
//!
//! A span is `(name, start_ns, end_ns, parent, id)`. Calls a layer
//! receives once per chunk are not one span each: they accumulate into one
//! span per (file, layer) whose `busy_ns` is the summed call time and
//! whose start/end bracket the first and last call. A layer's self time
//! is its `busy_ns`; a structural span's (`pass`, `ingest`, `restore`,
//! `file`) self time is its duration minus what its children cover — the
//! harness's own glue, reported as `trace.unattributed_s`.

use crate::json::Json;
use std::time::Instant;

/// The layers the harness calls into, named `<crate>.<module>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Cdc,
    Sha256,
    Cache,
    Index,
    Spool,
    DurablePut,
    DurableGet,
    Sim,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Cdc,
    Layer::Sha256,
    Layer::Cache,
    Layer::Index,
    Layer::Spool,
    Layer::DurablePut,
    Layer::DurableGet,
    Layer::Sim,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cdc => "chunking.cdc",
            Layer::Sha256 => "chunking.sha256",
            Layer::Cache => "kvstore.cache",
            Layer::Index => "kvstore.index",
            Layer::Spool => "kvstore.spool",
            Layer::DurablePut => "cloudstore.durable.put",
            Layer::DurableGet => "cloudstore.durable.get",
            Layer::Sim => "kvstore.sim",
        }
    }
}

/// What a pass reports to while it runs.
pub trait Probe {
    /// True when layer calls are being timed. A traced pass splits
    /// `chunk()` into `boundaries()` + `fingerprint_batch()` so the two
    /// layers can be told apart.
    const TRACED: bool;

    /// Opens a structural span (`pass`, `ingest`, `restore`, `file`)
    /// under the innermost open one.
    fn open(&mut self, name: &'static str, id: u64);

    /// Closes the innermost structural span, first emitting one span per
    /// layer called since it was opened.
    fn close(&mut self);

    /// Runs `f`, one call into `layer`.
    fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T;
}

/// Tracing off: every method is the identity.
pub struct Untraced;

impl Probe for Untraced {
    const TRACED: bool = false;

    #[inline(always)]
    fn open(&mut self, _name: &'static str, _id: u64) {}

    #[inline(always)]
    fn close(&mut self) {}

    #[inline(always)]
    fn call<T>(&mut self, _layer: Layer, f: impl FnOnce() -> T) -> T {
        f()
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder's list.
    pub parent: Option<usize>,
    /// File number (real-byte workloads) or pass number; spans of one
    /// file share it.
    pub id: u64,
    /// Summed call time for a layer span; the duration for a structural
    /// one.
    pub busy_ns: u64,
    pub calls: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    first_ns: u64,
    last_ns: u64,
    busy_ns: u64,
    calls: u64,
}

/// Tracing on: spans kept in memory, per-layer busy time per pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    open_layers: [Acc; LAYERS.len()],
    busy_ns: [u64; LAYERS.len()],
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            open_layers: [Acc::default(); LAYERS.len()],
            busy_ns: [0; LAYERS.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Seconds each layer was busy since the last call, then resets.
    pub fn take_busy_s(&mut self) -> [f64; LAYERS.len()] {
        let busy = self.busy_ns.map(|ns| ns as f64 / 1e9);
        self.busy_ns = [0; LAYERS.len()];
        busy
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON line per span, in recording order.
    pub fn span_lines(&self) -> impl Iterator<Item = String> + '_ {
        self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("span", Json::from(i as u64)),
                ("name", s.name.into()),
                ("id", s.id.into()),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                ("busy_ns", s.busy_ns.into()),
                ("calls", s.calls.into()),
            ])
            .to_string()
        })
    }
}

impl Probe for Recorder {
    const TRACED: bool = true;

    fn open(&mut self, name: &'static str, id: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            id,
            busy_ns: 0,
            calls: 1,
        });
        self.stack.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let Some(me) = self.stack.pop() else {
            return;
        };
        let id = self.spans[me].id;
        for (layer, acc) in LAYERS.iter().zip(std::mem::take(&mut self.open_layers)) {
            if acc.calls > 0 {
                self.spans.push(Span {
                    name: layer.name(),
                    start_ns: acc.first_ns,
                    end_ns: acc.last_ns,
                    parent: Some(me),
                    id,
                    busy_ns: acc.busy_ns,
                    calls: acc.calls,
                });
            }
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[me];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    #[inline]
    fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let acc = &mut self.open_layers[layer as usize];
        if acc.calls == 0 {
            acc.first_ns = start;
        }
        acc.last_ns = end;
        acc.busy_ns += end - start;
        acc.calls += 1;
        self.busy_ns[layer as usize] += end - start;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_chunk_calls_fold_into_one_span_per_file_and_layer() {
        let mut rec = Recorder::new();
        rec.open("pass", 0);
        for file in 0..2u64 {
            rec.open("file", file);
            for _ in 0..5 {
                rec.call(Layer::Cache, || std::hint::black_box(1 + 1));
                rec.call(Layer::Index, || std::hint::black_box(2 + 2));
            }
            rec.close();
        }
        rec.close();
        let spans = rec.spans();
        // pass, then per file: file + 2 layer spans.
        assert_eq!(spans.len(), 1 + 2 * 3);
        let cache: Vec<&Span> = spans.iter().filter(|s| s.name == "kvstore.cache").collect();
        assert_eq!(cache.len(), 2);
        for (file, s) in cache.iter().enumerate() {
            assert_eq!(s.calls, 5);
            assert_eq!(s.id, file as u64);
            let parent = &spans[s.parent.unwrap()];
            assert_eq!((parent.name, parent.id), ("file", file as u64));
            assert!(s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns);
            assert!(s.busy_ns <= s.end_ns - s.start_ns);
        }
        assert_eq!(spans[0].parent, None);
        let lines: Vec<String> = rec.span_lines().collect();
        assert_eq!(lines.len(), spans.len());
        let first = crate::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("pass"));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        let busy = rec.take_busy_s();
        assert!(busy[Layer::Cache as usize] > 0.0 && busy[Layer::Cdc as usize] == 0.0);
        assert_eq!(rec.take_busy_s()[Layer::Cache as usize], 0.0);
    }

    #[test]
    fn untraced_probe_is_transparent() {
        let mut p = Untraced;
        p.open("pass", 0);
        assert_eq!(p.call(Layer::Sim, || 7), 7);
        p.close();
    }
}
