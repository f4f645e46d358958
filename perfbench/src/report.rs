//! The result line the benchmark prints last, the metric catalogue it
//! must fill, and the provenance every result records.

use crate::trace::valid_name;
use std::path::Path;

/// End-to-end metrics, printed by every untraced run of the driven
/// workloads. `op_p50_s` is the median time of the workload's unit of
/// work: a cell for the MD workloads, a campaign (submit to results
/// fetched) for `serve_closed` (see README.md).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never reaches reports 0 and says so in the text report.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("md.nonbonded.ns_per_pair", "ns"),
    ("md.nonbonded.pairs", "count"),
    ("md.neighbor.build_ms", "ms"),
    ("md.erfc.ns_per_call", "ns"),
    ("md.pme.splines_ms", "ms"),
    ("md.pme.spread_ms", "ms"),
    ("md.pme.recip_ms", "ms"),
    ("md.evaluate_ms", "ms"),
    ("fft.fft3d.forward_ms", "ms"),
    ("fft.fft3d.mflop_computed", "MFLOP"),
    ("charmm.run_s", "s"),
    ("charmm.cpu_s", "s"),
    ("mpi.msgs_per_cell", "count"),
    ("mpi.bytes_per_cell", "bytes"),
    ("charmm.virtual_energy_s", "s"),
    ("pool.scoped_spawns", "count"),
    ("workload.service.overhead_ms", "ms"),
    ("workload.cache.hit_ratio", "ratio"),
    ("workload.journal.appends", "count"),
    ("vfs.fsyncs_per_cell", "count"),
    ("vfs.fsync_p50_ms", "ms"),
    ("vfs.bytes_written_per_cell", "bytes"),
    ("gateway.lock_wait_p90_ms", "ms"),
    ("gateway.route_ms.submit", "ms"),
    ("gateway.route_ms.status", "ms"),
    ("gateway.route_ms.results", "ms"),
    ("gateway.pump_ms_per_cell", "ms"),
    ("gateway.shed", "count"),
    ("http.ttfb_p50_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// What one run produced: the oracle verdict, the operation counts,
/// the metric values and human-readable lines printed before them.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64)>,
    pub text: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.text.push(line.into());
    }

    /// A failed oracle: the run is reported as incorrect, with why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.text.push(format!("ORACLE FAILED: {}", why.into()));
    }

    /// The result line, checked against `catalogue`: every metric
    /// present exactly once, valid names, finite values.
    pub fn json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for &(name, unit) in catalogue {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect();
            let [value] = values[..] else {
                return Err(format!("metric {name} reported {} time(s)", values.len()));
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Flags the cells run at more ranks than the host has CPUs: no
/// wall-clock scaling is claimed from them.
pub fn oversubscribed(procs: impl Iterator<Item = usize>, out: &mut Outcome) {
    let nproc = crate::nproc();
    let mut over: Vec<usize> = procs.filter(|&p| p > nproc).collect();
    if over.is_empty() {
        return;
    }
    let cells = over.len();
    over.sort_unstable();
    over.dedup();
    let counts: Vec<String> = over.iter().map(usize::to_string).collect();
    out.note(format!(
        "oversubscribed: {cells} cell(s) at p > nproc={nproc} (p = {}); no wall-clock \
         scaling is claimed from them",
        counts.join(",")
    ));
}

/// Where a result came from: enough to rerun it and to judge it.
pub fn provenance(workload: &str, seed: u64) -> String {
    let nproc = crate::nproc();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let command: Vec<String> = std::env::args().collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"nproc\": {nproc}, \"profile\": {}, \
         \"rustc\": {}, \"commit\": {}, \"command\": {}}}",
        json_str(workload),
        json_str(profile),
        json_str(&rustc),
        json_str(&commit),
        json_str(&command.join(" "))
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the recorded spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[crate::trace::Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for s in spans {
        text.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            json_str(s.name),
            s.start,
            s.end
        ));
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|&(n, _)| n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn result_line_requires_every_metric_once() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        for &(n, _) in &END_TO_END {
            o.metric(n, 1.5);
        }
        let line = o.json(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.metric("setup_s", 2.0);
        assert!(o.json(&END_TO_END).is_err());
        assert!(o.json(&PER_LAYER).is_err());
    }
}
