//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written at exit in Chrome trace format (open the file in
//! Perfetto or `about://tracing`). Spans inside the program are a later
//! change; these are the view from outside.

use crate::api::json_escape;
use std::time::Instant;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    /// The layer (one of this repo's modules), written as the span's `cat`.
    pub layer: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Times one call into a layer as a span; returns its result and its
    /// duration in nanoseconds.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, layer, parent);
        let out = std::hint::black_box(f());
        let ns = self.close(id);
        (out, ns as f64)
    }

    /// The spans as a Chrome `trace_event` document: one async `b`/`e`
    /// pair per span, timestamps in whole microseconds, exact nanoseconds
    /// and the parent link in `args`.
    pub fn to_chrome_trace(&self, workload: &str) -> String {
        // A span's self time is its duration minus what its direct children
        // cover.
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut events: Vec<(u64, u8, String)> = Vec::with_capacity(self.spans.len() * 2);
        for (id, s) in self.spans.iter().enumerate() {
            let head = format!(
                "\"name\":\"{}\",\"cat\":\"{}\",\"id\":\"{id}\",\"pid\":1,\"tid\":1",
                json_escape(s.name),
                json_escape(s.layer)
            );
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_us = s.dur_ns().saturating_sub(child_ns[id]) as f64 / 1e3;
            events.push((
                s.start_ns / 1000,
                0,
                format!(
                    "{{{head},\"ph\":\"b\",\"ts\":{},\"args\":{{\"parent\":{parent},\"dur_ns\":{},\"self_us\":{self_us:.3}}}}}",
                    s.start_ns / 1000,
                    s.dur_ns()
                ),
            ));
            events.push((
                s.end_ns / 1000,
                1,
                format!("{{{head},\"ph\":\"e\",\"ts\":{}}}", s.end_ns / 1000),
            ));
        }
        // Per-track timestamps must not go backwards; at equal timestamps
        // begins sort before ends so zero-length spans stay well-formed.
        events.sort_by_key(|e| (e.0, e.1));
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"benchmark probes: {}\"}}}}",
            json_escape(workload)
        ));
        for (_, _, e) in events {
            out.push_str(",\n");
            out.push_str(&e);
        }
        out.push_str("\n]}\n");
        out
    }
}
