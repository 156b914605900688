//! Raw-sample statistics, the benchmark's in-memory spans, host facts
//! and result printing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw samples, sorted once at the end (no histogram bucketing, so a
/// median never jumps by a bucket width).
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sorts in place (call once, before quantiles).
    pub fn sort(&mut self) {
        self.0.sort_by(f64::total_cmp);
    }

    /// Quantile `q` of the sorted samples (nearest rank; NaN if empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1]
    }

    /// Median of the sorted samples.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            self.0[n / 2]
        } else {
            (self.0[n / 2 - 1] + self.0[n / 2]) / 2.0
        }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// `"median X, pQ Y (n=N)"`: the median and the highest of p99.9,
    /// p99, p90 with at least ten samples beyond it.
    pub fn describe(&self, unit: &str) -> String {
        let n = self.0.len();
        let mut s = format!("median {:.3} {unit}", self.median());
        for (q, label) in [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")] {
            if (n as f64) * (1.0 - q) >= 10.0 {
                let _ = write!(s, ", {label} {:.3} {unit}", self.quantile(q));
                break;
            }
        }
        let _ = write!(s, " (n={n})");
        s
    }
}

/// One benchmark-side span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Groups the spans of one request (or one replayed chunk).
    pub id: u64,
    /// Layer-call name, e.g. `core.locate`.
    pub name: &'static str,
    /// Parent span name (`""` for a root).
    pub parent: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Calls the span covers.
    pub calls: u64,
}

/// The in-memory span store of one traced run.
pub struct Spans {
    epoch: Instant,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the store's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds between the store's epoch and `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span.
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Runs `f` `calls` times inside one span and returns the mean ns
    /// per call.
    pub fn time<R>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: &'static str,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> f64 {
        let start_ns = self.now();
        std::hint::black_box(f());
        let end_ns = self.now();
        self.record(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns,
            calls,
        });
        (end_ns - start_ns) as f64 / calls.max(1) as f64
    }

    /// Self time per span name: total duration minus the part covered
    /// by child spans (same id, `parent` = the name), per call.
    pub fn self_ns_per_call(&self) -> Vec<(&'static str, f64)> {
        // Child intervals by (parent name, id); overlapping children
        // (pipelined requests) count once, as their union.
        let mut children: BTreeMap<(&'static str, u64), Vec<(u64, u64)>> = BTreeMap::new();
        for c in self.spans.iter().filter(|c| !c.parent.is_empty()) {
            children
                .entry((c.parent, c.id))
                .or_default()
                .push((c.start_ns, c.end_ns));
        }
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get_mut(&(s.name, s.id)).map_or(0, |kids| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                covered
            });
            let entry = totals.entry(s.name).or_default();
            entry.0 += (s.end_ns - s.start_ns).saturating_sub(covered);
            entry.1 += s.calls;
        }
        totals
            .into_iter()
            .map(|(name, (ns, calls))| (name, ns as f64 / calls.max(1) as f64))
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.name, s.parent, s.start_ns, s.end_ns, s.calls
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cache_size(index: u32) -> String {
    let base = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = std::fs::read_to_string(format!("{base}/level")).unwrap_or_default();
    let size = std::fs::read_to_string(format!("{base}/size")).unwrap_or_default();
    format!("L{}={}", level.trim(), size.trim())
}

/// The commit of the checkout, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host facts the numbers depend on, as one line.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches: Vec<String> = (0..8)
        .filter(|i| {
            std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/type"))
                .is_ok_and(|t| t.trim() != "Instruction")
        })
        .map(cache_size)
        .collect();
    format!(
        "host nproc={nproc} caches=[{}] transport=loopback(127.0.0.1) commit={}",
        caches.join(","),
        git_commit()
    )
}

/// One metric of the result line.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
