//! In-memory spans around the benchmark's calls into each layer, written
//! out as `trace-<workload>.json` when the run ends.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use ssr_ctl::Json;

/// Nanoseconds since the first call in this process: the one clock every
/// span is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `ctl.request` or `serve.handle`.
    pub name: &'static str,
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// End, [`now_ns`] clock.
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Request id shared by every span of one lease operation.
    pub req: Option<u64>,
}

impl Span {
    /// A span from `start_ns` to now.
    pub fn until_now(name: &'static str, start_ns: u64, req: Option<u64>) -> Span {
        Span { name, start_ns, end_ns: now_ns(), parent: None, req }
    }

    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn contains(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns <= self.end_ns
    }
}

/// For each child span, the index of the span in `parents` that carries the
/// same request id and whose interval contains the child's. A server-side
/// span matches the client request that was on the wire while it ran, so
/// retries of one request id each find their own attempt.
pub fn match_requests(parents: &[Span], children: &[Span]) -> Vec<Option<usize>> {
    let mut by_req: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, p) in parents.iter().enumerate() {
        if let Some(req) = p.req {
            by_req.entry(req).or_default().push(i);
        }
    }
    children
        .iter()
        .map(|c| {
            let candidates = by_req.get(&c.req?)?;
            candidates.iter().copied().find(|&i| parents[i].contains(c))
        })
        .collect()
}

/// Write `spans` as a JSON array, one record per line: id (the index),
/// name, start and end in ns, parent id and request id.
pub fn write(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "[")?;
    for (id, s) in spans.iter().enumerate() {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        let record = Json::obj(vec![
            ("id", Json::Num(id as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("parent", opt(s.parent.map(|p| p as u64))),
            ("req", opt(s.req)),
        ]);
        let sep = if id + 1 == spans.len() { "" } else { "," };
        writeln!(out, "{}{sep}", record.render())?;
    }
    writeln!(out, "]")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, req: Option<u64>) -> Span {
        Span { name, start_ns, end_ns, parent: None, req }
    }

    #[test]
    fn children_match_the_request_on_the_wire() {
        let requests = vec![
            span("ctl.request", 0, 100, Some(1)),   // first attempt of op 1
            span("ctl.request", 150, 260, Some(1)), // retry of op 1
            span("ctl.request", 120, 200, Some(2)), // op 2, overlapping op 1's retry
            span("ctl.request", 300, 400, None),    // no request id
        ];
        let handles = vec![
            span("serve.handle", 160, 170, Some(1)),
            span("serve.handle", 10, 20, Some(1)),
            span("serve.handle", 160, 170, Some(2)),
            span("serve.handle", 90, 110, Some(1)), // outlives every op-1 attempt
            span("serve.handle", 310, 320, Some(9)), // unknown id
            span("serve.handle", 310, 320, None),
        ];
        assert_eq!(
            match_requests(&requests, &handles),
            vec![Some(1), Some(0), Some(2), None, None, None]
        );
    }

    #[test]
    fn written_traces_parse_back() {
        let dir = std::env::temp_dir().join(format!("ssr-perf-trace-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        let mut spans = vec![span("a", 1, 5, Some(3)), span("b", 2, 4, None)];
        spans[1].parent = Some(0);
        write(&path, &spans).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let items = doc.as_arr().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(items[0].get("req").unwrap().as_u64(), Some(3));
        assert_eq!(items[1].get("name").unwrap().as_str(), Some("b"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
