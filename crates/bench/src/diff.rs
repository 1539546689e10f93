//! Bench reports and the gate tables that judge them.
//!
//! Every harness builds its report as one ordered [`Json`] tree and
//! declares, next to it, one table of [`Gate`] rows: a metric path, the
//! direction that counts as better, the [`Rule`] it must meet and the
//! [`Policy`] that decides when a miss is only advisory. The harness
//! binary is the one place a table is evaluated: [`write_and_enforce`]
//! runs [`evaluate`] over every row on every run and exits 1 on a hard
//! miss. Each row needs nothing but the report itself — an integrity
//! boolean, or an absolute floor or bound, most of them on a ratio of
//! two timings taken on the same host in the same run — so no report
//! recorded on another run or host is ever compared against.
//!
//! The offline build has no serde, so this module also carries a
//! pretty-printer (`Display`) covering exactly the subset the reports
//! use (objects, arrays, strings, numbers, booleans, null), and, for
//! the tests, a minimal recursive-descent reader (`Json::parse`).

use std::fmt;
use std::process::ExitCode;

/// A parsed JSON value (the bench-report subset).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64`.
    Num(f64),
    /// A string (escape sequences are decoded minimally: `\"`, `\\`,
    /// `\/`, `\n`, `\t`, `\r`).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as a single JSON value (trailing whitespace only).
    #[cfg(test)]
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// An object with `members` in the given order.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn boolean(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `true` iff member `key` is the boolean `true`.
    pub fn is_true(&self, key: &str) -> bool {
        self.get(key).and_then(Json::boolean) == Some(true)
    }

    /// The value as an array slice.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Drills `path` through nested objects, then reads a number.
    pub fn num_at(&self, path: &[&str]) -> Option<f64> {
        let mut cur = self;
        for key in path {
            cur = cur.get(key)?;
        }
        cur.num()
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Pretty-prints at nesting depth `depth`: a container holding only
    /// scalars stays on one line, any other container puts each child
    /// on its own line.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, children): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(n) => return write_num(f, *n),
            Json::Str(s) => return write_str(f, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => {
                ('{', '}', members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let inline = !children.iter().any(|(_, v)| v.is_container());
        let pad = "  ".repeat(depth + 1);
        write!(f, "{open}")?;
        for (i, (key, value)) in children.iter().enumerate() {
            match (i, inline) {
                (0, true) => {}
                (_, true) => f.write_str(", ")?,
                (0, false) => write!(f, "\n{pad}")?,
                (_, false) => write!(f, ",\n{pad}")?,
            }
            if let Some(key) = key {
                write_str(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, depth + 1)?;
        }
        if !inline && !children.is_empty() {
            write!(f, "\n{}", "  ".repeat(depth))?;
        }
        write!(f, "{close}")
    }
}

/// The report file format: pretty-printed, newline-terminated.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)?;
        writeln!(f)
    }
}

/// A number as a report records it: integers exactly, fractions to six
/// significant digits (a measurement carries no more; float noise
/// beyond that only obscures the file), non-finite values as `null`.
fn write_num(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        return f.write_str("null");
    }
    if n.fract() == 0.0 {
        return write!(f, "{n}");
    }
    let decimals = (5 - n.abs().log10().floor() as i32).clamp(0, 17) as usize;
    let text = format!("{n:.decimals$}");
    let text = if text.contains('.') { text.trim_end_matches('0') } else { &text };
    f.write_str(text.trim_end_matches('.'))
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

#[cfg(test)]
fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

#[cfg(test)]
fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        let c = match b.get(*pos) {
                            Some(b'"') => '"',
                            Some(b'\\') => '\\',
                            Some(b'/') => '/',
                            Some(b'n') => '\n',
                            Some(b't') => '\t',
                            Some(b'r') => '\r',
                            other => return Err(format!("unsupported escape {other:?}")),
                        };
                        s.push(c);
                        *pos += 1;
                    }
                    Some(&c) => {
                        s.push(c as char);
                        *pos += 1;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

/// Minimum runner parallelism for parallel-scaling gates to mean
/// anything: below this, "N threads beat 1 thread" measures the
/// scheduler, not the code, so [`Policy::Cores`] rows run advisory-only.
pub const PARALLEL_GATE_MIN_CORES: usize = 4;

/// Which side of its bar a [`Rule::Limit`] metric must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A floor: the metric must reach the bar (speedups, counts).
    Higher,
    /// A bound: the metric must not exceed the bar (latencies).
    Lower,
}

/// The absolute value a [`Rule::Limit`] row compares against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A fixed number.
    Fixed(f64),
    /// Another top-level member of the same report (e.g. the storm
    /// must hold `clients` connections, a run must reach its own
    /// recorded `min_facts`).
    Field(&'static str),
}

/// What a row demands of its metric. A metric the report lacks fails
/// its row under either rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// An integrity boolean: must be `true`.
    Holds,
    /// An absolute floor ([`Better::Higher`]) or bound
    /// ([`Better::Lower`]).
    Limit(Bound),
}

/// When a miss only warns instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Always fails: booleans, and floors and bounds any runner can
    /// meet.
    Hard,
    /// Advisory on runners with fewer than [`PARALLEL_GATE_MIN_CORES`]
    /// cores (the report's `available_parallelism`), which cannot
    /// exhibit parallel scaling at all.
    Cores,
}

/// One row of a harness's gate table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Metric path: a top-level `field`, or `array[key=value].field` —
    /// the `field` of the one `array` entry whose `key` is `value`. A
    /// `threads` key labels its row `{value}t`.
    pub path: &'static str,
    /// Which side of a [`Rule::Limit`] bar passes.
    pub better: Better,
    /// What the metric must meet.
    pub rule: Rule,
    /// When a miss is advisory.
    pub policy: Policy,
}

impl Gate {
    const fn new(path: &'static str, better: Better, rule: Rule) -> Gate {
        Gate { path, better, rule, policy: Policy::Hard }
    }

    /// An integrity boolean ([`Rule::Holds`]).
    pub const fn holds(path: &'static str) -> Gate {
        Gate::new(path, Better::Higher, Rule::Holds)
    }

    /// An absolute floor: the metric must reach `bound`.
    pub const fn floor(path: &'static str, bound: Bound) -> Gate {
        Gate::new(path, Better::Higher, Rule::Limit(bound))
    }

    /// An absolute bound: the metric must not exceed `bound`.
    pub const fn bound(path: &'static str, bound: Bound) -> Gate {
        Gate::new(path, Better::Lower, Rule::Limit(bound))
    }

    /// Sets the row's [`Policy`].
    pub const fn policy(mut self, policy: Policy) -> Gate {
        self.policy = policy;
        self
    }
}

/// One row's verdict on one report.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Human-readable metric name, e.g. `stress.4t.speedup_vs_1`.
    pub name: String,
    /// The floor or bound (1 for booleans).
    pub bar: f64,
    /// The measured value (1 or 0 for booleans; NaN when absent).
    pub current: f64,
    /// `false` = the row was missed.
    pub ok: bool,
    /// `true` when the row cannot gate under its [`Policy`] on this
    /// report. Advisory checks are reported but never fail the gate.
    pub advisory: bool,
}

impl MetricCheck {
    /// `true` when this check fails the gate (a non-advisory miss).
    pub fn is_regression(&self) -> bool {
        !self.ok && !self.advisory
    }
}

impl fmt::Display for MetricCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let delta = if self.bar.abs() > f64::EPSILON {
            (self.current - self.bar) / self.bar * 100.0
        } else {
            0.0
        };
        let verdict = if self.ok {
            "ok  "
        } else if self.advisory {
            "warn"
        } else {
            "FAIL"
        };
        write!(
            f,
            "{verdict} {:>40}  bar {:>12.2}  now {:>12.2}  ({:+6.1}%)",
            self.name, self.bar, self.current, delta,
        )
    }
}

/// The gate table of the harness whose reports carry `"bench": bench`.
#[cfg(test)]
pub(crate) fn gates_for(bench: &str) -> Option<&'static [Gate]> {
    Some(match bench {
        "stress" => crate::stress::GATES,
        "ingest" => crate::ingest::GATES,
        "planning" => crate::planning::GATES,
        "spatial" => crate::spatial::GATES,
        "net" => crate::net::GATES,
        "forecast" => crate::forecast::GATES,
        "columnar" => crate::columnar::GATES,
        _ => return None,
    })
}

/// A row's path split into its `array[key=value]` selector, if any,
/// and its field.
fn split(path: &str) -> (Option<(&str, &str, &str)>, &str) {
    let Some((array, rest)) = path.split_once('[') else { return (None, path) };
    let (selector, field) = rest.split_once("].").expect("a selector is followed by .field");
    let (key, value) = selector.split_once('=').expect("a selector reads key=value");
    (Some((array, key, value)), field)
}

/// The entry of `report`'s `array` whose `key` is `value` (compared as
/// a number when it parses as one).
fn entry<'a>(report: &'a Json, array: &str, key: &str, value: &str) -> Option<&'a Json> {
    let value = value.parse().map_or_else(|_| Json::Str(value.into()), Json::Num);
    report.get(array)?.arr()?.iter().find(|e| e.get(key) == Some(&value))
}

/// Evaluates every row of `gates` on a report of harness `section`, in
/// table order.
pub fn evaluate(section: &str, gates: &[Gate], report: &Json) -> Vec<MetricCheck> {
    let small_runner = report
        .num_at(&["available_parallelism"])
        .is_some_and(|cores| cores < PARALLEL_GATE_MIN_CORES as f64);
    gates
        .iter()
        .map(|gate| {
            let (selector, field) = split(gate.path);
            let (label, source) = match selector {
                None => (field.to_string(), Some(report)),
                Some((array, key, value)) => {
                    let unit = if key == "threads" { "t" } else { "" };
                    (format!("{value}{unit}.{field}"), entry(report, array, key, value))
                }
            };
            let (bar, current, ok) = match gate.rule {
                Rule::Holds => {
                    let holds = source.is_some_and(|s| s.is_true(field));
                    (1.0, f64::from(u8::from(holds)), holds)
                }
                Rule::Limit(bound) => {
                    let bar = match bound {
                        Bound::Fixed(v) => Some(v),
                        Bound::Field(f) => report.num_at(&[f]),
                    };
                    let current = source.and_then(|s| s.get(field)).and_then(Json::num);
                    let ok = bar.zip(current).is_some_and(|(bar, c)| match gate.better {
                        Better::Higher => c >= bar,
                        Better::Lower => c <= bar,
                    });
                    (bar.unwrap_or(f64::NAN), current.unwrap_or(f64::NAN), ok)
                }
            };
            let advisory = gate.policy == Policy::Cores && small_runner;
            MetricCheck { name: format!("{section}.{label}"), bar, current, ok, advisory }
        })
        .collect()
}

/// The harness binary's end of its gate table: prints `report` and
/// writes it to `path`, evaluates every row of `gates` on it, prints
/// each verdict, and fails on any hard miss (or when the write fails).
pub fn write_and_enforce(path: &str, gates: &[Gate], report: &Json) -> ExitCode {
    let text = report.to_string();
    print!("{text}");
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}\ngates:");
    let section = match report.get("bench") {
        Some(Json::Str(bench)) => bench.as_str(),
        _ => "?",
    };
    let checks = evaluate(section, gates, report);
    for c in &checks {
        println!("  {c}");
    }
    let failed = checks.iter().filter(|c| c.is_regression()).count();
    if failed > 0 {
        eprintln!("FAIL: {failed} gate(s) missed");
        return ExitCode::FAILURE;
    }
    if checks.iter().any(|c| !c.ok) {
        println!("(warn rows are advisory: fewer than {PARALLEL_GATE_MIN_CORES} cores here)");
    }
    ExitCode::SUCCESS
}

/// `true` when `path` names a value in `report`.
#[cfg(test)]
fn resolves(path: &str, report: &Json) -> bool {
    match split(path) {
        (None, field) => report.get(field).is_some(),
        (Some((array, key, value)), field) => {
            entry(report, array, key, value).is_some_and(|e| e.get(field).is_some())
        }
    }
}

/// Test helper for the harness modules: `report` round-trips through
/// the writer and the reader, its `bench` name selects `gates` in
/// [`gates_for`], and every row of `gates` (and every bound field it
/// reads) names a value in it, so a typo cannot fail a row on every run
/// or leave an advisory row silently unmeasured.
#[cfg(test)]
pub(crate) fn assert_binary_rows_resolve(gates: &[Gate], report: &Json) {
    let text = report.to_string();
    assert_eq!(Json::parse(&text).map(|back| back.to_string()), Ok(text));
    let Some(Json::Str(bench)) = report.get("bench") else { panic!("no bench name in {report}") };
    assert!(gates_for(bench) == Some(gates), "a {bench:?} report does not select its gate table");
    for gate in gates {
        if let Rule::Limit(Bound::Field(f)) = gate.rule {
            assert!(report.get(f).is_some(), "bound field {f} missing");
        }
        assert!(resolves(gate.path, report), "{} does not resolve in {report}", gate.path);
    }
}

/// Test helper for the harness modules: every member of the JSON object
/// `pinned` prints in `report` exactly as it prints there — a pin on
/// seed-deterministic outputs at the precision the report records.
#[cfg(test)]
pub(crate) fn assert_pinned(report: &Json, pinned: &str) {
    let Ok(Json::Obj(members)) = Json::parse(pinned) else { panic!("pins must be an object") };
    for (key, value) in members {
        let printed = report.get(&key).map(Json::to_string);
        assert_eq!(printed, Some(value.to_string()), "{key} moved in {report}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness binary's verdict on a report of `section`.
    fn binary(section: &str, report: &Json) -> Vec<MetricCheck> {
        evaluate(section, gates_for(section).unwrap(), report)
    }

    /// `true` when the binary fails `report`.
    fn binary_fails(section: &str, report: &Json) -> bool {
        binary(section, report).iter().any(MetricCheck::is_regression)
    }

    /// `true` when the binary fails `report` on row `name`.
    fn fails_on(section: &str, report: &Json, name: &str) -> bool {
        binary(section, report).iter().any(|c| c.is_regression() && c.name == name)
    }

    /// `report` with member `key` set to `value`.
    fn with(mut report: Json, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(members) = &mut report {
            members.retain(|(k, _)| k != key);
            members.push((key.into(), value.into()));
        }
        report
    }

    #[test]
    fn parses_the_bench_report_shape() {
        let j = Json::parse(
            r#"{"bench": "stress", "n": -1.5e2, "flag": true, "none": null,
                "runs": [{"threads": 1, "p99_us": 10.25}, {"threads": 4, "p99_us": 3.5}]}"#,
        )
        .unwrap();
        assert_eq!(j.num_at(&["n"]), Some(-150.0));
        assert_eq!(j.get("flag").and_then(Json::boolean), Some(true));
        assert_eq!(j.get("none"), Some(&Json::Null));
        assert_eq!(j.get("bench"), Some(&Json::Str("stress".into())));
        let runs = j.get("runs").unwrap().arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(entry(&j, "runs", "threads", "4").unwrap().num_at(&["p99_us"]), Some(3.5));
        assert!(entry(&j, "runs", "threads", "2").is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{1: 2}").is_err());
    }

    fn stress_json(cps: f64, p99: f64, det: bool) -> Json {
        Json::parse(&format!(
            r#"{{"offers": 500, "determinism_ok": {det}, "hover_speedup": 40,
                 "runs": [{{"threads": 1, "commands_per_s": {cps}, "p99_us": {p99},
                            "speedup_vs_1": 1}},
                          {{"threads": 4, "commands_per_s": {}, "p99_us": {p99},
                            "speedup_vs_1": 3}}]}}"#,
            cps * 3.0,
        ))
        .unwrap()
    }

    #[test]
    fn stress_diff_flags_only_regressions() {
        let ok = binary("stress", &stress_json(1000.0, 6_000.0, true));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 3); // determinism + 4-thread speedup + warm hover
                                 // Throughput and tails are reported, not gated: absolute timings
                                 // move 2-4x between runs on one shared host.
        assert!(!binary_fails("stress", &stress_json(10.0, 900_000.0, true)));

        let torn = stress_json(1000.0, 6_000.0, false);
        assert!(fails_on("stress", &torn, "stress.determinism_ok"));
        let cold = with(stress_json(1000.0, 6_000.0, true), "hover_speedup", 9.0);
        assert!(fails_on("stress", &cold, "stress.hover_speedup"));
        assert!(binary_fails("stress", &Json::parse("{}").unwrap()));
    }

    fn ingest_json(probe: f64, bulk: f64, stable: bool) -> Json {
        Json::parse(&format!(
            r#"{{"initial_offers": 100, "hash_stable": {stable}, "publish_1k_ms": {probe},
                 "publish_bulk_ms": {bulk}, "publish_bulk_delta_ms": {bulk},
                 "runs": [{{"threads": 2, "reader_commands_per_s": 5000,
                            "publish_p99_ms": 2}}]}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn ingest_diff_gates_probe_and_stability() {
        let ok = binary("ingest", &ingest_json(10.0, 10.0, true));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 4); // stability + three publish walls

        let unstable = ingest_json(10.0, 10.0, false);
        assert!(fails_on("ingest", &unstable, "ingest.hash_stable"));

        let probe = binary("ingest", &ingest_json(100.5, 10.0, true));
        assert!(probe.iter().any(|c| c.is_regression() && c.name == "ingest.publish_1k_ms"));

        // The bulk probes hold the same 100 ms wall.
        let bulk = ingest_json(10.0, 120.0, true);
        assert!(fails_on("ingest", &bulk, "ingest.publish_bulk_ms"));
        assert!(fails_on("ingest", &bulk, "ingest.publish_bulk_delta_ms"));

        // Display renders both verdicts.
        let line = probe.iter().find(|c| !c.ok).unwrap().to_string();
        assert!(line.starts_with("FAIL"), "{line}");
        assert!(ok[0].to_string().starts_with("ok"), "{}", ok[0]);
    }

    fn planning_json(incremental: f64, det: bool, frames: bool) -> Json {
        Json::parse(&format!(
            r#"{{"incremental_speedup": {incremental}, "full_replan_ms": 40.0,
                 "incremental_replan_ms": 1.0, "determinism_ok": {det},
                 "frame_hash_stable": {frames},
                 "bundle_raw_ms": 40.0, "bundled_replan_ms": 5.0,
                 "bundle_speedup": 8.0, "bundle_roundtrip_ok": true,
                 "cell_replan_ms": 0.5, "bundle_replan_speedup": 10.0,
                 "bundle_replan_roundtrip_ok": true,
                 "schedulers": [{{"name": "greedy-best-start", "improvement": 0.8}}]}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn planning_diff_gates_determinism_and_speedups() {
        let ok = binary("planning", &planning_json(40.0, true, true));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 4 + 3); // 4 booleans + 3 speedup floors

        let torn = planning_json(40.0, false, true);
        assert!(fails_on("planning", &torn, "planning.determinism_ok"));
        let frames = planning_json(40.0, true, false);
        assert!(fails_on("planning", &frames, "planning.frame_hash_stable"));
        let slow = planning_json(9.5, true, true);
        assert!(fails_on("planning", &slow, "planning.incremental_speedup"));

        assert!(binary_fails("planning", &Json::parse("{}").unwrap()));
    }

    #[test]
    fn planning_diff_gates_the_bundle_pipeline() {
        // Bundling losing its edge is a miss even though the raw latency
        // is unchanged.
        let slow = with(planning_json(40.0, true, true), "bundle_speedup", 5.75);
        assert!(fails_on("planning", &slow, "planning.bundle_speedup"));
        let at_bar = with(planning_json(40.0, true, true), "bundle_speedup", 5.76);
        assert!(!binary_fails("planning", &at_bar));
        // A broken round trip is a hard boolean gate.
        let broken = with(planning_json(40.0, true, true), "bundle_roundtrip_ok", false);
        assert!(fails_on("planning", &broken, "planning.bundle_roundtrip_ok"));
        // A report predating the bundle section cannot pass: the
        // boolean and the speedup both fail.
        let legacy = Json::parse(
            r#"{"incremental_speedup": 40.0, "full_replan_ms": 40.0,
                "incremental_replan_ms": 1.0, "determinism_ok": true,
                "frame_hash_stable": true, "schedulers": []}"#,
        )
        .unwrap();
        assert!(fails_on("planning", &legacy, "planning.bundle_roundtrip_ok"));
        assert!(fails_on("planning", &legacy, "planning.bundle_speedup"));
    }

    #[test]
    fn planning_diff_gates_bundle_aware_replanning() {
        // The warm single-cell re-plan must beat the cold full re-group
        // by the bar, not merely match it.
        let slower = with(planning_json(40.0, true, true), "bundle_replan_speedup", 5.43);
        assert!(fails_on("planning", &slower, "planning.bundle_replan_speedup"));
        let at_bar = with(planning_json(40.0, true, true), "bundle_replan_speedup", 5.44);
        assert!(!binary_fails("planning", &at_bar));
        // A broken warm round trip is a hard boolean gate.
        let broken = with(planning_json(40.0, true, true), "bundle_replan_roundtrip_ok", false);
        assert!(fails_on("planning", &broken, "planning.bundle_replan_roundtrip_ok"));
    }

    fn net_json(cps: f64, p99: f64, outcomes: bool, hashes: bool) -> Json {
        Json::parse(&format!(
            r#"{{"clients": 4, "outcome_match": {outcomes}, "hash_match": {hashes},
                 "storm_outcome_match": true, "storm_hash_match": true,
                 "commands_per_s": {cps}, "p99_us": {p99},
                 "peak_connections": 4, "accepts_per_s": 5000}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn net_diff_gates_wire_equivalence_hard_and_latency_soft() {
        let ok = binary("net", &net_json(20_000.0, 2_000.0, true, true));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 4 + 2); // 4 equivalence booleans + peak + accept rate

        let torn = net_json(20_000.0, 2_000.0, false, true);
        assert!(fails_on("net", &torn, "net.outcome_match"));
        let frames = net_json(20_000.0, 2_000.0, true, false);
        assert!(fails_on("net", &frames, "net.hash_match"));
        // A report predating the storm round (or one that failed it)
        // fails the storm gates — absence is not a pass.
        let legacy = Json::parse(
            r#"{"clients": 4, "outcome_match": true, "hash_match": true,
                "commands_per_s": 20000.0, "p99_us": 2000.0,
                "peak_connections": 4, "accepts_per_s": 5000}"#,
        )
        .unwrap();
        assert!(fails_on("net", &legacy, "net.storm_outcome_match"));
        assert!(fails_on("net", &legacy, "net.storm_hash_match"));

        // Request throughput and tail are reported, not gated.
        assert!(!binary_fails("net", &net_json(10.0, 900_000.0, true, true)));
        assert!(binary_fails("net", &Json::parse("{}").unwrap()));
    }

    fn net_json_scaled(peak: usize, accepts: f64, connect_p99: f64, cores: usize) -> Json {
        Json::parse(&format!(
            r#"{{"clients": 256, "outcome_match": true, "hash_match": true,
                 "storm_outcome_match": true, "storm_hash_match": true,
                 "commands_per_s": 20000.0, "p99_us": 2000.0,
                 "peak_connections": {peak}, "accepts_per_s": {accepts},
                 "connect_p99_us": {connect_p99},
                 "available_parallelism": {cores}}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn net_connection_scale_gates_peak_hard_and_floors_by_machine_class() {
        // Healthy: every connection held, throughput over the floor.
        let ok = binary("net", &net_json_scaled(256, 4_500.0, 35_000.0, 8));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert!(ok.iter().any(|c| c.name == "net.peak_connections"));

        // A dropped connection is a hard failure on any runner.
        let dropped = net_json_scaled(255, 5_000.0, 30_000.0, 1);
        assert!(fails_on("net", &dropped, "net.peak_connections"));

        // Accept throughput under the floor: hard on >= 4 cores…
        let slow = net_json_scaled(256, 199.0, 30_000.0, 4);
        assert!(fails_on("net", &slow, "net.accepts_per_s"));
        // …advisory on a small runner, where the herd and the reactor
        // share a core.
        let small = binary("net", &net_json_scaled(256, 120.0, 30_000.0, 2));
        let accepts = small.iter().find(|c| c.name == "net.accepts_per_s").unwrap();
        assert!(!accepts.ok && accepts.advisory && !accepts.is_regression());
        assert!(accepts.to_string().starts_with("warn"), "{accepts}");

        // The connect tail queues on the listener backlog by design: it
        // is reported, not gated.
        assert!(!binary_fails("net", &net_json_scaled(256, 5_000.0, 400_000.0, 8)));
    }

    #[test]
    fn net_equivalence_gates_stay_hard_across_machine_classes() {
        for cores in [1.0, 2.0, 8.0] {
            let cur = with(net_json(5_000.0, 9_000.0, false, true), "available_parallelism", cores);
            assert!(fails_on("net", &cur, "net.outcome_match"), "{cores} cores");
        }
    }

    fn forecast_json(ms: f64, beats: bool) -> Json {
        Json::parse(&format!(
            r#"{{"mape_executions": 0.2, "mape_envelope": 2.0,
                 "executions_beat_envelope": {beats}, "forecast_ms": {ms}}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn forecast_diff_gates_quality_hard_and_wall_time_soft() {
        let ok = binary("forecast", &forecast_json(50.0, true));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 1);

        let lost = forecast_json(50.0, false);
        assert!(fails_on("forecast", &lost, "forecast.executions_beat_envelope"));
        // The wall time is reported, not gated; the MAPEs are pinned
        // exactly by the forecast harness test.
        assert!(!binary_fails("forecast", &forecast_json(5_000.0, true)));
        assert!(binary_fails("forecast", &Json::parse("{}").unwrap()));
    }

    fn spatial_json(speedup: f64, publish: f64, cores: usize, matches: bool, frames: bool) -> Json {
        Json::parse(&format!(
            r#"{{"min_facts": 1000000, "publish_bound_ms": 100,
                 "facts": 1017100, "available_parallelism": {cores},
                 "results_match": {matches}, "frame_hash_stable": {frames},
                 "indexed_total_ms": 30.0, "scan_total_ms": 900.0,
                 "query_speedup": {speedup}, "parallel_speedup": 1.4,
                 "publish_ms": {publish}}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn spatial_diff_gates_equality_determinism_speedup_and_publish() {
        let ok = binary("spatial", &spatial_json(30.0, 42.0, 8, true, true));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 2 + 3); // booleans + scale, speedup and publish limits

        let torn = spatial_json(30.0, 40.0, 8, false, true);
        assert!(fails_on("spatial", &torn, "spatial.results_match"));
        let frames = spatial_json(30.0, 40.0, 8, true, false);
        assert!(fails_on("spatial", &frames, "spatial.frame_hash_stable"));

        let slow = spatial_json(9.9, 40.0, 8, true, true);
        assert!(fails_on("spatial", &slow, "spatial.query_speedup"));
        let publish = spatial_json(30.0, 101.0, 8, true, true);
        assert!(fails_on("spatial", &publish, "spatial.publish_ms"));
        let toy = with(spatial_json(30.0, 40.0, 8, true, true), "facts", 999_999.0);
        assert!(fails_on("spatial", &toy, "spatial.facts"));

        assert!(binary_fails("spatial", &Json::parse("{}").unwrap()));
    }

    #[test]
    fn spatial_query_speedup_gates_hard_across_machine_classes() {
        // The query speedup is a same-host ratio and the result/frame
        // gates are booleans: all hard on 1 core as on 8.
        for cores in [1, 8] {
            let checks = binary("spatial", &spatial_json(9.0, 40.0, cores, false, true));
            assert!(checks.iter().any(|c| c.is_regression() && c.name == "spatial.query_speedup"));
            assert!(checks.iter().any(|c| c.is_regression() && c.name == "spatial.results_match"));
            assert!(checks.iter().all(|c| !c.advisory), "{checks:?}");
        }
    }

    #[test]
    fn parallel_speedup_is_advisory_on_small_runners() {
        // A runner with fewer than 4 cores cannot exhibit 4-thread
        // scaling, so the stress speedup floor only warns there…
        let flat = |cores: f64| {
            let report = stress_json(1000.0, 6_000.0, true);
            let runs = Json::parse(r#"[{"threads": 4, "speedup_vs_1": 1.5}]"#).unwrap();
            with(with(report, "runs", runs), "available_parallelism", cores)
        };
        for cores in [1.0, 2.0, 3.0] {
            let checks = binary("stress", &flat(cores));
            let parallel = checks.iter().find(|c| c.name == "stress.4t.speedup_vs_1").unwrap();
            assert!(!parallel.ok && parallel.advisory && !parallel.is_regression());
            assert!(checks.iter().filter(|c| c.name != parallel.name).all(|c| !c.advisory));
        }
        // …and gates hard from 4 cores up.
        for cores in [4.0, 8.0] {
            assert!(fails_on("stress", &flat(cores), "stress.4t.speedup_vs_1"));
        }
        // The spatial planner's thread scaling is reported, not gated.
        let spatial = with(spatial_json(30.0, 40.0, 8, true, true), "parallel_speedup", 0.3);
        assert!(!binary_fails("spatial", &spatial));
    }

    fn columnar_json(eq: bool, views: bool, speedup: f64, cols_ms: f64) -> Json {
        Json::parse(&format!(
            r#"{{"queries": 400, "views": 48, "equality_ok": {eq}, "views_ok": {views},
                 "columnar_eval_ms": {cols_ms}, "row_eval_ms": 40.0,
                 "eval_speedup": {speedup}, "filtered_equality_ok": true,
                 "filtered_pushdown_ms": 20.0, "filtered_scan_ms": 80.0,
                 "filtered_speedup": 4.0, "pivot_equality_ok": true, "pivot_speedup": 7.0,
                 "window_view_speedup": 40.0}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn columnar_diff_gates_equality_hard_and_latency_soft() {
        let ok = binary("columnar", &columnar_json(true, true, 4.0, 10.0));
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 4 + 4); // 4 equality booleans + 4 speedup floors

        let diverged = columnar_json(false, true, 4.0, 10.0);
        assert!(fails_on("columnar", &diverged, "columnar.equality_ok"));
        let views = columnar_json(true, false, 4.0, 10.0);
        assert!(fails_on("columnar", &views, "columnar.views_ok"));
        let slower = columnar_json(true, true, 1.5, 10.0);
        assert!(fails_on("columnar", &slower, "columnar.eval_speedup"));
        let pivot = with(columnar_json(true, true, 4.0, 10.0), "pivot_equality_ok", false);
        assert!(fails_on("columnar", &pivot, "columnar.pivot_equality_ok"));
        let per_cell = with(columnar_json(true, true, 4.0, 10.0), "pivot_speedup", 2.5);
        assert!(fails_on("columnar", &per_cell, "columnar.pivot_speedup"));
        let scanning = with(columnar_json(true, true, 4.0, 10.0), "window_view_speedup", 1.5);
        assert!(fails_on("columnar", &scanning, "columnar.window_view_speedup"));

        // Latencies are reported, not gated: only their same-run ratios
        // are.
        assert!(!binary_fails("columnar", &columnar_json(true, true, 4.0, 500.0)));

        // Absence of the equality booleans is a failure, not a skip.
        let bare = Json::parse(
            r#"{"queries": 400, "views": 48, "columnar_eval_ms": 10.0,
                "row_eval_ms": 40.0, "eval_speedup": 4.0,
                "filtered_pushdown_ms": 20.0, "filtered_scan_ms": 80.0,
                "filtered_speedup": 4.0, "pivot_speedup": 7.0,
                "window_view_speedup": 40.0}"#,
        )
        .unwrap();
        assert!(fails_on("columnar", &bare, "columnar.equality_ok"));
        assert!(fails_on("columnar", &bare, "columnar.filtered_equality_ok"));
        assert!(fails_on("columnar", &bare, "columnar.pivot_equality_ok"));

        assert!(binary_fails("columnar", &Json::parse("{}").unwrap()));
    }

    #[test]
    fn columnar_diff_gates_the_filtered_probe() {
        // A three-way divergence on the filtered battery is hard.
        let diverged = with(columnar_json(true, true, 4.0, 10.0), "filtered_equality_ok", false);
        assert!(fails_on("columnar", &diverged, "columnar.filtered_equality_ok"));
        // The absolute floors: ≥ 2x for the battery, ≥ 3x for the
        // filtered probe.
        let sluggish = with(columnar_json(true, true, 1.8, 10.0), "filtered_speedup", 2.5);
        assert!(fails_on("columnar", &sluggish, "columnar.eval_speedup"));
        assert!(fails_on("columnar", &sluggish, "columnar.filtered_speedup"));
        let at_bars = with(columnar_json(true, true, 2.0, 10.0), "filtered_speedup", 3.0);
        assert!(!binary_fails("columnar", &at_bars));
    }

    #[test]
    fn columnar_speedup_gates_hard_across_machine_classes() {
        for cores in [1.0, 8.0] {
            let cur = with(columnar_json(true, true, 1.5, 200.0), "available_parallelism", cores);
            let checks = binary("columnar", &cur);
            assert!(checks.iter().any(|c| c.is_regression() && c.name == "columnar.eval_speedup"));
            assert!(checks.iter().all(|c| !c.advisory), "{checks:?}");
        }
    }

    #[test]
    fn the_writer_round_trips_through_the_reader() {
        let report = Json::obj([
            ("bench", "stress".into()),
            ("name", "a \"quoted\"\\ line\n".into()),
            ("ratio", 12.087_312_345.into()),
            ("tiny", 0.000_356_871_2.into()),
            ("count", 1_017_100usize.into()),
            ("unmeasured", f64::INFINITY.into()),
            ("ok", true.into()),
            ("runs", Json::Arr(vec![Json::obj([("threads", 1usize.into())]), Json::Arr(vec![])])),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = report.to_string();
        assert!(text.contains("\"ratio\": 12.0873,\n"), "{text}");
        assert!(text.contains("\"tiny\": 0.000356871,\n"), "{text}");
        assert!(text.contains("\"count\": 1017100,\n"), "{text}");
        assert!(text.contains("    {\"threads\": 1},\n"), "{text}");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("unmeasured"), Some(&Json::Null), "non-finite numbers write null");
        assert_eq!(back.get("name"), report.get("name"));
        assert_eq!(back.to_string(), text, "writing what was read is the identity");
    }

    #[test]
    fn binaries_fail_exactly_on_the_ci_conditions() {
        // One passing report per harness, then each gate row just past
        // its bar must fail it (and together the failing cases must
        // cover every row of the table); the passing changes must not.
        type Changes = Vec<(&'static str, Json)>;
        let runs = |speedup: f64| {
            Json::Arr(vec![Json::obj([
                ("threads", 4usize.into()),
                ("speedup_vs_1", speedup.into()),
            ])])
        };
        let cases: [(&str, Changes, Changes); 7] = [
            (
                r#"{"bench": "stress", "available_parallelism": 4, "determinism_ok": true,
                    "hover_speedup": 40, "runs": [{"threads": 4, "speedup_vs_1": 2.5}]}"#,
                vec![
                    ("determinism_ok", false.into()),
                    ("runs", Json::Arr(vec![])),
                    ("runs", runs(1.99)),
                    ("hover_speedup", 9.99.into()),
                ],
                vec![("available_parallelism", 2.0.into()), ("runs", runs(2.0))],
            ),
            (
                r#"{"bench": "ingest", "hash_stable": true, "publish_1k_ms": 1,
                    "publish_bulk_ms": 2, "publish_bulk_delta_ms": 0.1}"#,
                vec![
                    ("hash_stable", false.into()),
                    ("publish_1k_ms", 100.01.into()),
                    ("publish_bulk_ms", 100.01.into()),
                    ("publish_bulk_delta_ms", 100.01.into()),
                ],
                vec![("publish_1k_ms", 100.0.into())],
            ),
            (
                r#"{"bench": "planning", "determinism_ok": true, "frame_hash_stable": true,
                    "bundle_roundtrip_ok": true, "bundle_replan_roundtrip_ok": true,
                    "incremental_speedup": 45, "bundle_speedup": 6,
                    "bundle_replan_speedup": 7}"#,
                vec![
                    ("determinism_ok", false.into()),
                    ("frame_hash_stable", false.into()),
                    ("bundle_roundtrip_ok", false.into()),
                    ("bundle_replan_roundtrip_ok", false.into()),
                    ("incremental_speedup", 9.99.into()),
                    ("bundle_speedup", 5.75.into()),
                    ("bundle_replan_speedup", 5.43.into()),
                ],
                vec![("bundle_speedup", 5.76.into()), ("bundle_replan_speedup", 5.44.into())],
            ),
            (
                r#"{"bench": "spatial", "min_facts": 1000000, "publish_bound_ms": 100,
                    "facts": 1017100, "results_match": true, "frame_hash_stable": true,
                    "query_speedup": 12, "parallel_speedup": 0.2, "publish_ms": 50}"#,
                vec![
                    ("results_match", false.into()),
                    ("frame_hash_stable", false.into()),
                    ("facts", 999_999.0.into()),
                    ("query_speedup", 9.99.into()),
                    ("publish_ms", 100.01.into()),
                ],
                vec![("publish_bound_ms", 200.0.into()), ("query_speedup", 10.0.into())],
            ),
            (
                r#"{"bench": "net", "available_parallelism": 4, "clients": 256,
                    "outcome_match": true, "hash_match": true, "storm_outcome_match": true,
                    "storm_hash_match": true, "peak_connections": 256, "accepts_per_s": 5000}"#,
                vec![
                    ("outcome_match", false.into()),
                    ("hash_match", false.into()),
                    ("storm_outcome_match", false.into()),
                    ("storm_hash_match", false.into()),
                    ("peak_connections", 255.0.into()),
                    ("accepts_per_s", 199.0.into()),
                ],
                vec![("accepts_per_s", 200.0.into())],
            ),
            (
                r#"{"bench": "forecast", "executions_beat_envelope": true}"#,
                vec![("executions_beat_envelope", false.into())],
                vec![],
            ),
            (
                r#"{"bench": "columnar", "equality_ok": true, "views_ok": true,
                    "filtered_equality_ok": true, "eval_speedup": 2.5, "filtered_speedup": 3.2,
                    "pivot_equality_ok": true, "pivot_speedup": 7.0,
                    "window_view_speedup": 50.0}"#,
                vec![
                    ("equality_ok", false.into()),
                    ("views_ok", false.into()),
                    ("filtered_equality_ok", false.into()),
                    ("pivot_equality_ok", false.into()),
                    ("eval_speedup", 1.99.into()),
                    ("filtered_speedup", 2.99.into()),
                    ("pivot_speedup", 4.69.into()),
                    ("window_view_speedup", 24.99.into()),
                ],
                vec![("eval_speedup", 2.0.into()), ("window_view_speedup", 25.0.into())],
            ),
        ];
        for (report, failing, passing) in cases {
            let report = Json::parse(report).unwrap();
            let Some(Json::Str(section)) = report.get("bench") else { unreachable!() };
            let rows = binary(section, &report);
            assert!(rows.iter().all(|c| c.ok), "{rows:?}");
            let mut covered = Vec::new();
            for (key, value) in failing {
                let broken = with(report.clone(), key, value);
                let missed = binary(section, &broken).into_iter().filter(|c| c.is_regression());
                let missed: Vec<_> = missed.map(|c| c.name).collect();
                assert!(!missed.is_empty(), "{section}: {key} must fail {broken}");
                covered.extend(missed);
            }
            for row in &rows {
                assert!(covered.contains(&row.name), "no failing case for {}", row.name);
            }
            for (key, value) in passing {
                let fine = with(report.clone(), key, value);
                assert!(!binary_fails(section, &fine), "{section}: {key} must pass {fine}");
            }
        }
        // Below 4 cores the Cores rows only warn, even with no 4-thread
        // run to judge.
        let small = Json::parse(
            r#"{"bench": "stress", "available_parallelism": 2, "determinism_ok": true,
                "hover_speedup": 40, "runs": [{"threads": 4, "speedup_vs_1": 0.9}]}"#,
        )
        .unwrap();
        assert!(!binary_fails("stress", &small));
        assert!(!binary_fails("stress", &with(small, "runs", Json::Arr(vec![]))));
        let herd = Json::parse(
            r#"{"bench": "net", "available_parallelism": 2, "clients": 256,
                "outcome_match": true, "hash_match": true, "storm_outcome_match": true,
                "storm_hash_match": true, "peak_connections": 256, "accepts_per_s": 50}"#,
        )
        .unwrap();
        assert!(!binary_fails("net", &herd));
    }
}
