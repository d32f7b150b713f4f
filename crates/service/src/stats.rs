//! Live exposition of the hub's metrics: the `stats` (JSON snapshot)
//! and `metrics` (Prometheus text) protocol commands.
//!
//! Both render one **catalogue**: one row per exposed series, giving
//! its dotted path in the `stats` object, its Prometheus series (a
//! family plus at most one fixed label), and its value, read from the
//! hub's [`freezeml_obs::Registry`] and the live structure sizes
//! (scheme bank, caches, parse frontend). A series is named in exactly
//! one row, so a counter cannot reach one format and miss the other.
//! The Prometheus kind follows from the value: counts are `counter`s,
//! sizes and flags `gauge`s, latencies `histogram`s.
//!
//! Latencies come out of the log-bucketed histograms as both derived
//! percentiles (`p50_us`/`p90_us`/`p99_us`, octave-accurate) and the
//! raw non-empty buckets, so a client can compute any quantile itself.
//! A command's latency runs from its decoded JSON value to its answer
//! written into the session buffer, so it covers writing the answer
//! body (the whole report, for `open`/`edit`/`check`). Decoding the
//! line and writing the buffer to the transport fall outside it.
//!
//! The Prometheus rendering is the plain text exposition format:
//! `# TYPE` lines, cumulative `_bucket{le="…"}` series (in seconds)
//! with `_sum`/`_count`. Bucket series are emitted sparsely — only
//! where the cumulative count changes, plus `+Inf` — which is valid
//! exposition and keeps the payload proportional to observed spread,
//! not to the 40-bucket domain. Like a client library's lazily created
//! children, a labelled histogram shows only the label values it has
//! observed.

use crate::protocol::Json;
use crate::shared::Shared;
use freezeml_obs::{bucket_le_ns, Cmd, HistSnapshot};
use std::fmt::{Display, Write as _};

/// What a catalogue row reads.
enum Value {
    /// A monotonic count: a `counter`.
    Count(u64),
    /// A live size or stamp: a `gauge`.
    Gauge(u64),
    /// An on/off state: a JSON bool, a `gauge` of 0 or 1.
    Flag(bool),
    /// Hits over probes (hits, misses): `null` before the first probe.
    Rate(u64, u64),
    /// A latency distribution: a `histogram`.
    Hist(Box<HistSnapshot>),
    /// Counts by a dynamic label value, keyed by the label name: a JSON
    /// object, and one `counter` sample per value.
    PerLabel(&'static str, Vec<(String, u64)>),
}

use Value::{Count, Flag, Gauge, Hist, PerLabel, Rate};

/// One exposed series.
struct Row {
    /// Dotted path in the `stats` object; `None` keeps the row out of
    /// `stats`.
    path: Option<String>,
    /// Prometheus family and fixed label; `None` keeps the row out of
    /// `metrics`.
    series: Option<(&'static str, Option<(&'static str, &'static str)>)>,
    value: Value,
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Count(_) | PerLabel(..) => "counter",
            Gauge(_) | Flag(_) | Rate(..) => "gauge",
            Hist(_) => "histogram",
        }
    }

    fn json(&self) -> Json {
        match self {
            Count(n) | Gauge(n) => Json::Num(*n as f64),
            Flag(on) => Json::Bool(*on),
            Rate(hits, misses) => match hits + misses {
                0 => Json::Null,
                total => Json::Num(*hits as f64 / total as f64),
            },
            Hist(h) => hist_json(h),
            PerLabel(_, counts) => Json::Obj(
                counts
                    .iter()
                    .map(|(label, n)| (label.clone(), Json::Num(*n as f64)))
                    .collect(),
            ),
        }
    }

    /// This value as a row in both formats.
    fn at(self, path: &str, family: &'static str) -> Row {
        Row {
            path: Some(path.to_string()),
            series: Some((family, None)),
            value: self,
        }
    }

    /// This value as a row in `stats` only.
    fn stat(self, path: &str) -> Row {
        Row {
            path: Some(path.to_string()),
            series: None,
            value: self,
        }
    }
}

impl Row {
    /// This row with the fixed Prometheus label `key="val"`.
    fn by(mut self, key: &'static str, val: &'static str) -> Row {
        if let Some((_, label)) = &mut self.series {
            *label = Some((key, val));
        }
        self
    }
}

/// The `stats` object holding one object per command answered so far;
/// present (empty) before the first answer.
const COMMANDS: &str = "commands";

/// The catalogue, in `stats` order. The frontend lock is taken first
/// and only once, and released before anything else is read.
fn catalogue(shared: &Shared) -> Vec<Row> {
    let parse = {
        let fe = shared.frontend();
        (fe.parse_hits(), fe.parse_misses(), fe.chunk_count())
    };
    let (m, bank, cache) = (shared.metrics(), shared.bank(), shared.cache());
    let mut rows = Vec::new();
    for c in Cmd::ALL {
        let cm = m.cmd(c);
        let count = cm.count.get();
        let at = |leaf: &str| format!("{COMMANDS}.{}{leaf}", c.name());
        let cmd_rows = [
            Count(count).at(&at(".count"), "freezeml_requests_total"),
            Count(cm.errors.get()).at(&at(".errors"), "freezeml_request_errors_total"),
            // Merges into the command's object, keeping the `count` above.
            Hist(Box::new(cm.latency.snapshot())).at(&at(""), "freezeml_request_latency_seconds"),
        ];
        for mut r in cmd_rows {
            // `stats` lists only the commands answered so far.
            r.path = r.path.filter(|_| count > 0);
            rows.push(r.by("cmd", c.name()));
        }
    }
    rows.extend([
        Count(m.sessions.get()).at("sessions", "freezeml_sessions_total"),
        Count(m.connections.get()).at("connections", "freezeml_connections_total"),
        Count(m.slow_requests.get()).at("slow_requests", "freezeml_slow_requests_total"),
        Count(m.bindings.get()).at("reports.bindings", "freezeml_report_bindings_total"),
        Count(m.rechecked.get()).at("reports.rechecked", "freezeml_report_rechecked_total"),
        Count(m.reused.get()).at("reports.reused", "freezeml_report_reused_total"),
        Count(m.blocked.get()).at("reports.blocked", "freezeml_report_blocked_total"),
        Count(m.waves.get()).at("reports.waves", "freezeml_report_waves_total"),
    ]);
    let hits_total = "freezeml_cache_hits_total";
    let verdict = (m.verdict_hits.get(), m.verdict_misses.get(), cache.len());
    let doc = (
        m.doc_hits.get(),
        m.doc_misses.get(),
        shared.doc_reports_len(),
    );
    for (name, (hits, misses, entries)) in [("verdict", verdict), ("doc", doc), ("parse", parse)] {
        let at = |leaf: &str| format!("caches.{name}.{leaf}");
        let cache_rows = [
            Count(hits).at(&at("hits"), hits_total),
            Count(misses).at(&at("misses"), "freezeml_cache_misses_total"),
            Rate(hits, misses).stat(&at("hit_rate")),
            Gauge(entries as u64).at(&at("entries"), "freezeml_cache_entries"),
        ];
        rows.extend(cache_rows.map(|r| r.by("cache", name)));
    }
    rows.extend([
        Count(bank.renders()).at("caches.scheme.renders", "freezeml_scheme_renders_total"),
        Count(bank.render_hits())
            .at("caches.scheme.render_hits", hits_total)
            .by("cache", "render"),
        Gauge(bank.len() as u64).at("caches.scheme.nodes", "freezeml_scheme_nodes"),
        Count(m.requests_shed.get()).at("resilience.requests_shed", "freezeml_requests_shed_total"),
        Count(m.deadline_exceeded.get()).at(
            "resilience.deadline_exceeded",
            "freezeml_deadline_exceeded_total",
        ),
        Flag(shared.draining()).at("resilience.draining", "freezeml_draining"),
        Count(m.session_thread_deaths.get()).at(
            "resilience.session_thread_deaths",
            "freezeml_session_thread_deaths_total",
        ),
        PerLabel("site", m.failpoint_trips.snapshot()).at(
            "resilience.failpoint_trips",
            "freezeml_failpoint_trips_total",
        ),
        Count(m.evictions.get()).at("persistence.evictions", "freezeml_cache_evictions_total"),
        Count(m.cache_loads.get()).at("persistence.loads", "freezeml_cache_loads_total"),
        PerLabel("reason", m.cache_load_failures.snapshot()).at(
            "persistence.load_failures",
            "freezeml_cache_load_failures_total",
        ),
        Count(m.checkpoints.get()).at("persistence.checkpoints", "freezeml_checkpoints_total"),
        Count(m.checkpoint_failures.get()).at(
            "persistence.checkpoint_failures",
            "freezeml_checkpoint_failures_total",
        ),
        Count(m.checkpoint_bytes.get()).at(
            "persistence.checkpoint_bytes",
            "freezeml_checkpoint_bytes_total",
        ),
        Hist(Box::new(m.checkpoint_duration.snapshot()))
            .at("persistence.checkpoint", "freezeml_checkpoint_seconds"),
        Gauge(cache.generation()).at("persistence.generation", "freezeml_cache_generation"),
    ]);
    rows
}

/// Microseconds (JSON exposition unit) from a nanosecond value.
fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// A latency histogram as JSON: derived percentiles plus the non-empty
/// buckets as `[le_us, count]` pairs.
fn hist_json(h: &HistSnapshot) -> Json {
    let buckets: Vec<Json> = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| {
            let le = if bucket_le_ns(i) == u64::MAX {
                Json::Str("+Inf".into())
            } else {
                Json::Num(us(bucket_le_ns(i)))
            };
            Json::Arr(vec![le, Json::Num(c as f64)])
        })
        .collect();
    Json::obj([
        ("count", Json::Num(h.count() as f64)),
        ("p50_us", Json::Num(us(h.p50_ns()))),
        ("p90_us", Json::Num(us(h.p90_ns()))),
        ("p99_us", Json::Num(us(h.p99_ns()))),
        ("mean_us", Json::Num(us(h.mean_ns()))),
        ("buckets_us", Json::Arr(buckets)),
    ])
}

/// Set the dotted `path` under `obj` to `v`, creating objects on the
/// way. An object merges into one already there, whose keys win.
fn put(obj: &mut Json, path: &str, v: Json) {
    let Json::Obj(fields) = obj else { return };
    let (key, rest) = path.split_once('.').unwrap_or((path, ""));
    let i = match fields.iter().position(|(k, _)| k == key) {
        Some(i) => i,
        None => {
            fields.push((key.to_string(), Json::Obj(Vec::new())));
            fields.len() - 1
        }
    };
    let slot = &mut fields[i].1;
    match (rest, slot, v) {
        ("", Json::Obj(old), Json::Obj(new)) => {
            for (k, x) in new {
                if !old.iter().any(|(o, _)| *o == k) {
                    old.push((k, x));
                }
            }
        }
        ("", slot, v) => *slot = v,
        (rest, slot, v) => put(slot, rest, v),
    }
}

/// The `stats` response: one JSON object snapshotting every counter,
/// cache, and latency histogram the hub tracks.
pub fn stats_json(shared: &Shared) -> Json {
    let mut root = Json::obj([("ok", Json::Bool(true)), (COMMANDS, Json::Obj(Vec::new()))]);
    for row in catalogue(shared) {
        if let Some(path) = &row.path {
            put(&mut root, path, row.value.json());
        }
    }
    root
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// One row's samples (the family's `# TYPE` line is the caller's).
fn write_samples(out: &mut String, family: &str, label: Option<(&str, &str)>, value: &Value) {
    let fixed = label.map(|(k, v)| format!("{k}=\"{v}\""));
    let mut line = |suffix: &str, extra: Option<String>, v: &dyn Display| {
        let labels: Vec<&str> = fixed.iter().chain(&extra).map(String::as_str).collect();
        let _ = match labels.is_empty() {
            true => writeln!(out, "{family}{suffix} {v}"),
            false => writeln!(out, "{family}{suffix}{{{}}} {v}", labels.join(",")),
        };
    };
    match value {
        Count(n) | Gauge(n) => line("", None, n),
        Flag(on) => line("", None, &u8::from(*on)),
        Rate(..) => {} // `stats` only
        PerLabel(key, counts) => {
            for (l, n) in counts {
                line("", Some(format!("{key}=\"{l}\"")), n);
            }
        }
        Hist(h) if h.count() == 0 && label.is_some() => {}
        Hist(h) => {
            let mut cum = 0u64;
            for (i, &c) in h.buckets.iter().enumerate() {
                cum += c;
                let le = bucket_le_ns(i);
                // The open-ended last bucket is the `+Inf` line below.
                if c > 0 && le != u64::MAX {
                    line("_bucket", Some(format!("le=\"{}\"", seconds(le))), &cum);
                }
            }
            line("_bucket", Some("le=\"+Inf\"".into()), &h.count());
            line("_sum", None, &seconds(h.sum_ns));
            line("_count", None, &h.count());
        }
    }
}

/// The `metrics` response body: Prometheus plain-text exposition of the
/// catalogue, each family's samples under its one `# TYPE` line.
pub fn prometheus_text(shared: &Shared) -> String {
    let rows = catalogue(shared);
    let mut out = String::with_capacity(4096);
    let mut typed: Vec<&str> = Vec::new();
    for row in &rows {
        let Some((family, _)) = row.series.filter(|(f, _)| !typed.contains(f)) else {
            continue;
        };
        typed.push(family);
        let _ = writeln!(out, "# TYPE {family} {}", row.value.kind());
        for r in &rows {
            if let Some((f, label)) = r.series.filter(|(f, _)| *f == family) {
                write_samples(&mut out, f, label, &r.value);
            }
        }
    }
    out
}

/// Classify a parsed request for per-command metrics.
pub(crate) fn cmd_of(req: &crate::protocol::Request) -> Cmd {
    use crate::protocol::Request as R;
    match req {
        R::Open { .. } => Cmd::Open,
        R::Edit { .. } => Cmd::Edit,
        R::Check { .. } => Cmd::Check,
        R::TypeOf { .. } => Cmd::TypeOf,
        R::Elaborate { .. } => Cmd::Elaborate,
        R::Close { .. } => Cmd::Close,
        R::Stats => Cmd::Stats,
        R::Metrics => Cmd::Metrics,
        R::Shutdown => Cmd::Shutdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::EngineSel;
    use crate::protocol::handle_line;
    use crate::service::{Service, ServiceConfig};
    use freezeml_core::Options;
    use freezeml_obs::Registry;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn uf_service() -> Service {
        Service::new(ServiceConfig {
            opts: Options::default(),
            engine: EngineSel::Uf,
            workers: 1,
        })
    }

    /// The requests [`warmed_service`] answers: open a two-binding
    /// document, check it, ask for a type.
    const WARMING: [&str; 3] = [
        r##"{"cmd":"open","doc":"m","text":"#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n"}"##,
        r#"{"cmd":"check","doc":"m"}"#,
        r#"{"cmd":"type-of","doc":"m","name":"f"}"#,
    ];

    fn warmed_service() -> Service {
        let mut s = uf_service();
        for line in WARMING {
            handle_line(&mut s, line, &mut String::new());
        }
        s
    }

    #[test]
    fn stats_json_reports_commands_reports_and_caches() {
        let mut s = uf_service();
        let doc_probes = |s: &Service| {
            let v = stats_json(s.shared());
            let doc = v.get("caches").and_then(|c| c.get("doc")).unwrap();
            let n = |k| doc.get(k).and_then(Json::as_num).unwrap();
            (n("hits"), n("misses"))
        };
        // One document-report probe per request: the open misses once,
        // and the check that follows hits.
        handle_line(&mut s, WARMING[0], &mut String::new());
        assert_eq!(doc_probes(&s), (0.0, 1.0), "after open");
        handle_line(&mut s, WARMING[1], &mut String::new());
        assert_eq!(doc_probes(&s), (1.0, 1.0), "after check");
        handle_line(&mut s, WARMING[2], &mut String::new());
        let v = stats_json(s.shared());
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let reports = v.get("reports").expect("reports object");
        assert_eq!(reports.get("bindings").and_then(Json::as_num), Some(4.0));
        assert_eq!(reports.get("rechecked").and_then(Json::as_num), Some(2.0));
        assert_eq!(reports.get("reused").and_then(Json::as_num), Some(2.0));
        let open = v
            .get("commands")
            .and_then(|c| c.get("open"))
            .expect("open row");
        assert_eq!(open.get("count").and_then(Json::as_num), Some(1.0));
        assert!(open.get("p50_us").and_then(Json::as_num).unwrap_or(0.0) > 0.0);
        let verdict = v
            .get("caches")
            .and_then(|c| c.get("verdict"))
            .expect("verdict cache");
        assert_eq!(verdict.get("misses").and_then(Json::as_num), Some(2.0));
        // The snapshot is itself valid JSON end to end.
        assert!(Json::parse(&v.to_string()).is_ok());
    }

    /// A `metrics` body as family → (`# TYPE` line, sorted samples),
    /// checking on the way that each family has one `# TYPE` line with
    /// all its samples under it, and that there is no other line.
    fn families(text: &str) -> BTreeMap<String, (String, Vec<String>)> {
        let mut out: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
        let mut current = String::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                current = rest.split(' ').next().unwrap().to_string();
                let fresh = out.insert(current.clone(), (line.to_string(), Vec::new()));
                assert!(fresh.is_none(), "second TYPE line for {current}");
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let base = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s).filter(|b| *b == current))
                .unwrap_or(name);
            assert_eq!(base, current, "`{line}` is not under its TYPE line");
            out.get_mut(&current).unwrap().1.push(line.to_string());
        }
        for (_, samples) in out.values_mut() {
            samples.sort();
        }
        out
    }

    #[test]
    fn prometheus_text_is_well_formed_exposition() {
        let s = warmed_service();
        let text = prometheus_text(s.shared());
        for (type_line, samples) in families(&text).values() {
            let kind = type_line.rsplit(' ').next().unwrap();
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "{type_line}"
            );
            for line in samples {
                let value = line.rsplit(' ').next().unwrap();
                assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            }
        }
        // Cumulative buckets end at +Inf with the total count.
        assert!(
            text.contains("freezeml_request_latency_seconds_bucket{cmd=\"open\",le=\"+Inf\"} 1")
        );
    }

    #[test]
    fn resilience_counters_are_exposed_in_both_formats() {
        let s = warmed_service();
        let m = s.shared().metrics();
        m.requests_shed.add(2);
        m.deadline_exceeded.inc();
        m.failpoint_trips.inc("persist.write");
        m.session_thread_deaths.inc();
        s.shared().request_drain();
        let v = stats_json(s.shared());
        let r = v.get("resilience").expect("resilience object");
        assert_eq!(r.get("requests_shed").and_then(Json::as_num), Some(2.0));
        assert_eq!(r.get("deadline_exceeded").and_then(Json::as_num), Some(1.0));
        assert_eq!(r.get("draining"), Some(&Json::Bool(true)));
        assert_eq!(
            r.get("session_thread_deaths").and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(
            r.get("failpoint_trips")
                .and_then(|f| f.get("persist.write"))
                .and_then(Json::as_num),
            Some(1.0)
        );
        let text = prometheus_text(s.shared());
        assert!(text.contains("freezeml_requests_shed_total 2"));
        assert!(text.contains("freezeml_deadline_exceeded_total 1"));
        assert!(text.contains("freezeml_draining 1"));
        assert!(text.contains("freezeml_session_thread_deaths_total 1"));
        assert!(text.contains("freezeml_failpoint_trips_total{site=\"persist.write\"} 1"));
    }

    #[test]
    fn hit_rate_is_null_when_nothing_was_probed() {
        let v = stats_json(uf_service().shared());
        let verdict = v.get("caches").and_then(|c| c.get("verdict")).unwrap();
        assert_eq!(verdict.get("hit_rate"), Some(&Json::Null));
    }

    /// The `Registry`'s public fields as (name, type), read off its
    /// declaration.
    fn registry_fields() -> Vec<(&'static str, &'static str)> {
        let src = include_str!("../../obs/src/metrics.rs");
        let (_, body) = src.split_once("pub struct Registry {").unwrap();
        let (body, _) = body.split_once("\n}").unwrap();
        body.lines()
            .filter_map(|l| l.trim().strip_prefix("pub ")?.split_once(": "))
            .map(|(name, ty)| (name, ty.trim_end_matches(',')))
            .collect()
    }

    /// Add `n` to the `Registry` field named `field`: a labelled counter
    /// gains the label `l<n>`, the histogram an `n`-ns sample. `false`
    /// for a field this function does not know.
    fn bump(m: &Registry, field: &str, n: u64) -> bool {
        let label = format!("l{n}");
        match field {
            "connections" => m.connections.add(n),
            "sessions" => m.sessions.add(n),
            "slow_requests" => m.slow_requests.add(n),
            "bindings" => m.bindings.add(n),
            "rechecked" => m.rechecked.add(n),
            "reused" => m.reused.add(n),
            "blocked" => m.blocked.add(n),
            "waves" => m.waves.add(n),
            "verdict_hits" => m.verdict_hits.add(n),
            "verdict_misses" => m.verdict_misses.add(n),
            "doc_hits" => m.doc_hits.add(n),
            "doc_misses" => m.doc_misses.add(n),
            "evictions" => m.evictions.add(n),
            "cache_loads" => m.cache_loads.add(n),
            "checkpoints" => m.checkpoints.add(n),
            "checkpoint_failures" => m.checkpoint_failures.add(n),
            "checkpoint_bytes" => m.checkpoint_bytes.add(n),
            "requests_shed" => m.requests_shed.add(n),
            "deadline_exceeded" => m.deadline_exceeded.add(n),
            "session_thread_deaths" => m.session_thread_deaths.add(n),
            "cache_load_failures" => m.cache_load_failures.inc(&label),
            "failpoint_trips" => m.failpoint_trips.inc(&label),
            "checkpoint_duration" => m.checkpoint_duration.record_ns(n),
            _ => return false,
        }
        true
    }

    /// A hub whose every exposed value is fixed: a one-worker uf
    /// service that opened and checked a two-binding program, the
    /// `i`-th plain counter in declaration order bumped by `1000·(i+1)`,
    /// fixed-duration requests on three commands, two labels on each
    /// labelled counter, one checkpoint, and a drain.
    fn golden_hub() -> Service {
        let mut s = uf_service();
        let program = "#use prelude\nlet f = fun x -> x;;\nlet p = poly ~f;;\n";
        s.open("m", program).unwrap();
        s.check("m").unwrap();
        let m = s.shared().metrics();
        let counters = registry_fields().into_iter().filter(|f| f.1 == "Counter");
        for (i, (field, _)) in counters.enumerate() {
            assert!(bump(m, field, 1000 * (i as u64 + 1)), "{field}");
        }
        for (i, c) in [Cmd::Open, Cmd::Check, Cmd::Stats].into_iter().enumerate() {
            m.record_request(c, Duration::from_micros(40 << i), false);
            m.record_request(c, Duration::from_micros(900), i == 1);
        }
        for (c, label, n) in [
            (&m.cache_load_failures, "checksum", 1),
            (&m.cache_load_failures, "epoch", 2),
            (&m.failpoint_trips, "persist.write", 1),
            (&m.failpoint_trips, "infer.binding", 2),
        ] {
            (0..n).for_each(|_| c.inc(label));
        }
        m.checkpoint_duration.record(Duration::from_millis(3));
        s.shared().request_drain();
        s
    }

    #[test]
    fn outputs_match_the_goldens() {
        // Captured from the renderers the catalogue replaced.
        let s = golden_hub();
        let stats = format!("{}\n", stats_json(s.shared()));
        assert_eq!(stats, include_str!("../tests/golden/stats.json"));
        let want = include_str!("../tests/golden/metrics.txt");
        assert_eq!(families(&prometheus_text(s.shared())), families(want));
    }

    #[test]
    fn rows_in_both_formats_report_the_same_value() {
        let s = golden_hub();
        let json = stats_json(s.shared());
        let text = prometheus_text(s.shared());
        let samples: BTreeMap<&str, f64> = text
            .lines()
            .filter_map(|l| l.rsplit_once(' ').filter(|_| !l.starts_with('#')))
            .map(|(series, v)| (series, v.parse().unwrap()))
            .collect();
        let mut both = 0;
        for row in catalogue(s.shared()) {
            let (Some(path), Some((family, label))) = (&row.path, row.series) else {
                continue;
            };
            both += 1;
            let at = path.split('.').try_fold(&json, |v, k| v.get(k)).unwrap();
            let sample = |suffix: &str, extra: Option<String>| {
                let fixed = label.map(|(k, v)| format!("{k}=\"{v}\""));
                let labels: Vec<String> = fixed.into_iter().chain(extra).collect();
                let series = match labels.is_empty() {
                    true => format!("{family}{suffix}"),
                    false => format!("{family}{suffix}{{{}}}", labels.join(",")),
                };
                *samples
                    .get(&*series)
                    .unwrap_or_else(|| panic!("no sample {series}"))
            };
            let (json_value, prom_value) = match &row.value {
                Count(_) | Gauge(_) => (at.as_num(), sample("", None)),
                Flag(_) => (
                    Some(f64::from(u8::from(*at == Json::Bool(true)))),
                    sample("", None),
                ),
                Hist(_) => (
                    at.get("count").and_then(Json::as_num),
                    sample("_count", None),
                ),
                PerLabel(key, counts) => {
                    assert_eq!(counts.len(), 2, "{path}: the golden hub sets two labels");
                    for (l, _) in counts {
                        let n = sample("", Some(format!("{key}=\"{l}\"")));
                        assert_eq!(at.get(l).and_then(Json::as_num), Some(n), "{path}.{l}");
                    }
                    continue;
                }
                Rate(..) => panic!("{path}: hit rates are `stats` only"),
            };
            assert_eq!(json_value, Some(prom_value), "{path}");
        }
        assert!(both > 30, "only {both} rows in both formats");
    }

    #[test]
    fn every_registry_field_has_a_row_in_both_formats() {
        let fields = registry_fields();
        assert!(fields.len() > 20, "{fields:?}");
        let shared = Shared::new();
        let n = |i: usize| 1_000 + i as u64;
        for (i, (f, _)) in fields.iter().enumerate() {
            assert!(
                bump(shared.metrics(), f, n(i)),
                "`Registry::{f}` is new: give it a catalogue row, then a case in `bump`"
            );
        }
        let rows = catalogue(&shared);
        for (i, (f, _)) in fields.iter().enumerate() {
            let label = format!("l{}", n(i));
            let row = rows.iter().find(|r| match &r.value {
                Count(v) => *v == n(i),
                Hist(h) => h.sum_ns == n(i),
                PerLabel(_, counts) => counts.iter().any(|(l, _)| *l == label),
                _ => false,
            });
            let row = row.unwrap_or_else(|| panic!("`Registry::{f}` reaches no catalogue row"));
            assert!(
                row.path.is_some() && row.series.is_some(),
                "`Registry::{f}` is missing from one format"
            );
        }
    }
}
