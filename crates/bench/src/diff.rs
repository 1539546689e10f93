//! Bench reports and the gate tables that judge them.
//!
//! Every harness builds its report as one ordered [`Json`] tree and
//! declares, next to it, one table of [`Gate`] rows: a metric path, the
//! direction that counts as better, the [`Rule`] it must meet and the
//! [`Policy`] that decides when a miss is only advisory. One evaluator
//! ([`evaluate`]) runs a table in both places a report is judged:
//!
//! * the **harness binary** ([`write_and_enforce`]) checks the rows
//!   that need no baseline — the integrity booleans and the absolute limits — and
//!   exits 1 on a hard miss;
//! * **`bench_diff`** checks a report against its section of the
//!   committed `BENCH_baseline.json`: the booleans, the relative rows
//!   (±[`TOLERANCE`], one-sided — improvements always pass) and the
//!   limits scoped to it.
//!
//! The offline build has no serde, so this module also carries a
//! minimal recursive-descent JSON reader ([`Json::parse`]) and a
//! pretty-printer (`Display`) covering exactly the subset the reports
//! use (objects, arrays, strings, numbers, booleans, null).

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

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

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

/// Relative tolerance of every baseline-relative row: a metric may not
/// move the wrong way by more than 20 % of its baseline.
pub const TOLERANCE: f64 = 0.20;

/// Minimum runner parallelism for parallel-scaling gates to mean
/// anything: below this, "N threads beat 1 thread" measures the
/// scheduler, not the code, so [`Policy::Cores`] rows run advisory-only.
pub const PARALLEL_GATE_MIN_CORES: usize = 4;

/// Which way a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Throughput-like: regression = dropping below `base × (1 − tol)`.
    Higher,
    /// Latency-like: regression = rising above `base × (1 + tol)`.
    Lower,
}

/// Where a [`Rule::Limit`] row is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Only the harness binary checks it.
    Binary,
    /// Only `bench_diff` checks it.
    Diff,
    /// Both do.
    Both,
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

/// What a row demands of its metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// An integrity boolean: must be `true`; absence fails. Checked by
    /// the harness binary and by `bench_diff`.
    Holds,
    /// Within [`TOLERANCE`] of the baseline (relative). For
    /// [`Better::Lower`] metrics, values up to the `noise` floor pass
    /// regardless — sub-floor jitter is timer noise, not a signal. A
    /// required row whose metric is absent is a structural error; an
    /// `optional` one is skipped.
    Relative {
        /// Absolute noise floor (latency rows only).
        noise: f64,
        /// Skip, rather than fail, when either report lacks the metric.
        optional: bool,
    },
    /// Within an absolute slack of [`TOLERANCE`] below the baseline —
    /// for metrics that are already relative and may sit at or below
    /// zero, where a relative tolerance would flip sign.
    Slack,
    /// An absolute floor ([`Better::Higher`]) or bound
    /// ([`Better::Lower`]), independent of any baseline. `bench_diff`
    /// skips it when the report lacks the metric (a missing
    /// measurement, not a failed one); the binary fails it.
    Limit {
        /// The floor or bound.
        bound: Bound,
        /// Who enforces it.
        scope: Scope,
    },
}

/// When a miss only warns instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Always fails: booleans, seed-deterministic counts and quality,
    /// and timing ratios taken on one host in one run.
    Hard,
    /// Advisory when baseline and report come from different machine
    /// classes (`available_parallelism` differs): absolute timings are
    /// not comparable across hosts.
    Class,
    /// Advisory across machine classes and on runners with fewer than
    /// [`PARALLEL_GATE_MIN_CORES`] cores, which cannot exhibit parallel
    /// scaling at all.
    Cores,
}

/// One row of a harness's gate table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Metric path: `field`, `array[key].field` (one row per baseline
    /// entry, matched to the report's entry by `key`; entries the
    /// report lacks are skipped), or `array[key=value].field` (one
    /// fixed entry). A `threads` key labels its rows `{n}t`.
    pub path: &'static str,
    /// Row label when it is not the path itself.
    pub name: Option<&'static str>,
    /// Which direction is an improvement.
    pub better: Better,
    /// What the metric must meet.
    pub rule: Rule,
    /// When a miss is advisory.
    pub policy: Policy,
}

impl Gate {
    const fn new(path: &'static str, better: Better, rule: Rule) -> Gate {
        Gate { path, name: None, better, rule, policy: Policy::Hard }
    }

    /// An integrity boolean ([`Rule::Holds`]).
    pub const fn holds(path: &'static str) -> Gate {
        Gate::new(path, Better::Higher, Rule::Holds)
    }

    /// A throughput-like metric held against the baseline.
    pub const fn higher(path: &'static str) -> Gate {
        Gate::new(path, Better::Higher, Rule::Relative { noise: 0.0, optional: false })
    }

    /// A latency-like metric held against the baseline, passing at or
    /// under the `noise` floor.
    pub const fn lower(path: &'static str, noise: f64) -> Gate {
        Gate::new(path, Better::Lower, Rule::Relative { noise, optional: false })
    }

    /// A metric held within an absolute slack of the baseline.
    pub const fn slack(path: &'static str) -> Gate {
        Gate::new(path, Better::Higher, Rule::Slack)
    }

    /// An absolute floor: the metric must reach `bound`.
    pub const fn floor(path: &'static str, bound: Bound, scope: Scope) -> Gate {
        Gate::new(path, Better::Higher, Rule::Limit { bound, scope })
    }

    /// An absolute bound: the metric must not exceed `bound`.
    pub const fn bound(path: &'static str, bound: Bound, scope: Scope) -> Gate {
        Gate::new(path, Better::Lower, Rule::Limit { bound, scope })
    }

    /// Labels the row `name` instead of its path.
    pub const fn named(mut self, name: &'static str) -> Gate {
        self.name = Some(name);
        self
    }

    /// Sets the row's [`Policy`].
    pub const fn policy(mut self, policy: Policy) -> Gate {
        self.policy = policy;
        self
    }

    /// Makes a [`Rule::Relative`] row skip when the metric is absent.
    pub const fn optional(mut self) -> Gate {
        if let Rule::Relative { noise, .. } = self.rule {
            self.rule = Rule::Relative { noise, optional: true };
        }
        self
    }
}

/// One metric's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Human-readable metric name, e.g. `stress.4t.commands_per_s`.
    pub name: String,
    /// Baseline value (the limit, for absolute rows; 1 for booleans).
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Which direction is an improvement.
    pub better: Better,
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
        let delta = if self.baseline.abs() > f64::EPSILON {
            (self.current - self.baseline) / self.baseline * 100.0
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
            "{verdict} {:>40}  base {:>12.2}  now {:>12.2}  ({:+6.1}%)",
            self.name, self.baseline, self.current, delta,
        )
    }
}

/// `true` when both reports were measured on the same machine class
/// (equal `available_parallelism`). Missing fields count as same-class,
/// so hand-written fixtures and old reports stay strictly gated.
pub fn same_machine_class(baseline: &Json, current: &Json) -> bool {
    match (baseline.num_at(&["available_parallelism"]), current.num_at(&["available_parallelism"]))
    {
        (Some(a), Some(b)) => a == b,
        _ => true,
    }
}

/// Host parallelism recorded in a report (every harness stamps
/// `available_parallelism`); `None` for old or hand-written reports.
pub fn recorded_parallelism(report: &Json) -> Option<usize> {
    report.num_at(&["available_parallelism"]).map(|n| n as usize)
}

/// The hard half of the machine-class policy: a baseline recorded with
/// *more* parallelism than the runner has claims numbers this machine
/// can never reproduce, so the gate refuses to run at all instead of
/// silently downgrading every check to advisory. (The opposite
/// direction — a baseline from a *smaller* machine — stays the
/// [`Policy::Class`] downgrade: the runner can only be faster.)
pub fn guard_machine_class(section: &str, baseline: &Json, current: &Json) -> Result<(), String> {
    match (recorded_parallelism(baseline), recorded_parallelism(current)) {
        (Some(base), Some(cur)) if base > cur => Err(format!(
            "the {section} baseline was recorded with {base} cores but this runner has {cur} — \
             its throughput and latency bars are unreachable here; regenerate the baseline on \
             this runner class with --write-baseline"
        )),
        _ => Ok(()),
    }
}

/// The gate table of the harness whose reports carry `"bench": bench`.
pub fn gates_for(bench: &str) -> Option<&'static [Gate]> {
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

/// A row's path, split at its keyed array (if any).
struct Path<'a> {
    array: Option<(&'a str, &'a str, Option<&'a str>)>,
    field: &'a str,
}

fn split(path: &str) -> Path<'_> {
    match path.split_once('[').zip(path.split_once("].")) {
        Some(((array, _), (keyed, field))) => {
            let key = &keyed[array.len() + 1..];
            let (key, value) = match key.split_once('=') {
                Some((key, value)) => (key, Some(value)),
                None => (key, None),
            };
            Path { array: Some((array, key, value)), field }
        }
        None => Path { array: None, field: path },
    }
}

/// How a keyed entry labels its rows: `4t` for thread counts, the key
/// value itself otherwise.
fn entry_label(key: &str, value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        Json::Num(n) if key == "threads" => format!("{n}t"),
        Json::Num(n) => format!("{n}"),
        other => format!("{other:?}"),
    }
}

/// A fixed `array[key=value]` selector's value: a number when it
/// parses as one.
fn key_value(value: &str) -> Json {
    value.parse().map_or_else(|_| Json::Str(value.into()), Json::Num)
}

fn entry<'a>(report: &'a Json, array: &str, key: &str, value: &Json) -> Option<&'a Json> {
    report.get(array)?.arr()?.iter().find(|e| e.get(key) == Some(value))
}

/// Evaluates `gates` for a report of harness `section`.
///
/// With a `baseline` (its `section` of `BENCH_baseline.json`) this is
/// `bench_diff`'s verdict: booleans, relative rows and the limits
/// scoped to `bench_diff`. Without one it is the harness binary's:
/// booleans and the limits scoped to the binary. Rows come out in table
/// order, except that consecutive `array[key]` rows are interleaved per
/// baseline entry. A missing required metric, or a baseline without
/// the array a keyed row iterates, is an error.
pub fn evaluate(
    section: &str,
    gates: &[Gate],
    baseline: Option<&Json>,
    current: &Json,
) -> Result<Vec<MetricCheck>, String> {
    let class_mismatch = baseline.is_some_and(|b| !same_machine_class(b, current));
    let small_runner =
        recorded_parallelism(current).is_some_and(|cores| cores < PARALLEL_GATE_MIN_CORES);
    let enforced_here = |scope| match scope {
        Scope::Both => true,
        Scope::Binary => baseline.is_none(),
        Scope::Diff => baseline.is_some(),
    };
    let check = |gate: &Gate, label: String, base: Option<&Json>, cur: Option<&Json>| {
        let field = split(gate.path).field;
        let value = |report: Option<&Json>| report.and_then(|r| r.get(field)).and_then(Json::num);
        let advisory = match gate.policy {
            Policy::Hard => false,
            Policy::Class => class_mismatch,
            Policy::Cores => class_mismatch || small_runner,
        };
        let row = |baseline: f64, current: f64, ok: bool| {
            let name = format!("{section}.{}", gate.name.unwrap_or(&label));
            Ok(Some(MetricCheck { name, baseline, current, better: gate.better, ok, advisory }))
        };
        let missing = || Err(format!("missing {field} in a {section} report ({label})"));
        match gate.rule {
            Rule::Holds => {
                let holds = cur.is_some_and(|c| c.is_true(field));
                row(1.0, f64::from(u8::from(holds)), holds)
            }
            Rule::Relative { .. } | Rule::Slack if baseline.is_none() => Ok(None),
            Rule::Relative { noise, optional } => match (value(base), value(cur)) {
                (Some(b), Some(c)) => row(b, c, within(b, c, gate.better, noise)),
                _ if optional => Ok(None),
                _ => missing(),
            },
            Rule::Slack => match (value(base), value(cur)) {
                (Some(b), Some(c)) => row(b, c, c >= b - TOLERANCE),
                _ => missing(),
            },
            Rule::Limit { scope, .. } if !enforced_here(scope) => Ok(None),
            Rule::Limit { bound, .. } => {
                let limit = match bound {
                    Bound::Fixed(v) => Some(v),
                    Bound::Field(f) => current.num_at(&[f]),
                };
                match (limit, value(cur)) {
                    (Some(l), Some(c)) => row(
                        l,
                        c,
                        match gate.better {
                            Better::Higher => c >= l,
                            Better::Lower => c <= l,
                        },
                    ),
                    _ if baseline.is_some() => Ok(None),
                    (l, _) => row(l.unwrap_or(f64::NAN), f64::NAN, false),
                }
            }
        }
    };

    let mut checks = Vec::new();
    let mut i = 0;
    while i < gates.len() {
        let path = split(gates[i].path);
        match path.array {
            None => checks.extend(check(&gates[i], path.field.into(), baseline, Some(current))?),
            Some((array, key, Some(value))) => {
                let value = key_value(value);
                let label = format!("{}.{}", entry_label(key, &value), path.field);
                let base = baseline.and_then(|b| entry(b, array, key, &value));
                checks.extend(check(&gates[i], label, base, entry(current, array, key, &value))?);
            }
            Some((array, key, None)) => {
                let prefix = &gates[i].path[..gates[i].path.len() - path.field.len()];
                let group = gates[i..].iter().take_while(|g| g.path.starts_with(prefix)).count();
                if let Some(baseline) = baseline {
                    let missing = |whose: &str| format!("{whose} {section} report has no {array}");
                    current.get(array).and_then(Json::arr).ok_or_else(|| missing("the current"))?;
                    let entries = baseline.get(array).and_then(Json::arr);
                    for base in entries.ok_or_else(|| missing("the baseline"))? {
                        let value = base.get(key).ok_or_else(|| {
                            format!("a baseline {section} {array} entry has no {key}")
                        })?;
                        let Some(cur) = entry(current, array, key, value) else { continue };
                        for gate in &gates[i..i + group] {
                            let label =
                                format!("{}.{}", entry_label(key, value), split(gate.path).field);
                            checks.extend(check(gate, label, Some(base), Some(cur))?);
                        }
                    }
                }
                i += group;
                continue;
            }
        }
        i += 1;
    }
    Ok(checks)
}

/// The relative test: improvements always pass; a regression passes
/// within [`TOLERANCE`], and a lower-is-better metric also passes at or
/// under its `noise` floor.
fn within(baseline: f64, current: f64, better: Better, noise: f64) -> bool {
    match better {
        Better::Higher => current >= baseline * (1.0 - TOLERANCE),
        Better::Lower => current <= (baseline * (1.0 + TOLERANCE)).max(noise),
    }
}

/// The harness-binary end of a gate table: prints `report` and writes
/// it to `path`, checks it against the rows of `gates` that need no
/// baseline, prints every row, and fails on any hard miss (or when the
/// write fails).
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
    let checks = evaluate(section, gates, None, report).expect("binary rows never error");
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

/// `true` when `path` names a value in `report` — for keyed paths, in
/// every entry (`array[key]`) or in the one selected (`array[key=v]`).
#[cfg(test)]
fn resolves(path: &str, report: &Json) -> bool {
    let Path { array, field } = split(path);
    match array {
        None => report.get(field).is_some(),
        Some((array, key, Some(value))) => {
            entry(report, array, key, &key_value(value)).is_some_and(|e| e.get(field).is_some())
        }
        Some((array, key, None)) => report.get(array).and_then(Json::arr).is_some_and(|entries| {
            !entries.is_empty() && entries.iter().all(|e| e.get(key).and(e.get(field)).is_some())
        }),
    }
}

/// Test helper for the harness modules: `report` round-trips through
/// the writer and the reader, its `bench` name selects `gates` in
/// [`gates_for`], and every row of `gates` the binary checks (booleans,
/// limits and their bound fields) names a value in it, so a typo cannot
/// silently skip a gate.
#[cfg(test)]
pub(crate) fn assert_binary_rows_resolve(gates: &[Gate], report: &Json) {
    let text = report.to_string();
    assert_eq!(Json::parse(&text).map(|back| back.to_string()), Ok(text));
    let Some(Json::Str(bench)) = report.get("bench") else { panic!("no bench name in {report}") };
    assert!(gates_for(bench) == Some(gates), "a {bench:?} report does not select its gate table");
    for gate in gates {
        match gate.rule {
            Rule::Relative { .. } | Rule::Slack => continue,
            Rule::Limit { bound: Bound::Field(f), .. } => {
                assert!(report.get(f).is_some(), "bound field {f} missing");
            }
            Rule::Holds | Rule::Limit { .. } => {}
        }
        assert!(resolves(gate.path, report), "{} does not resolve in {report}", gate.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench_diff`'s verdict on one section.
    fn diff(section: &str, base: &Json, cur: &Json) -> Result<Vec<MetricCheck>, String> {
        evaluate(section, gates_for(section).unwrap(), Some(base), cur)
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
        assert_eq!(
            entry(&j, "runs", "threads", &Json::Num(4.0)).unwrap().num_at(&["p99_us"]),
            Some(3.5)
        );
        assert!(entry(&j, "runs", "threads", &Json::Num(2.0)).is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{1: 2}").is_err());
    }

    #[test]
    fn latency_floor_suppresses_noise_regressions() {
        // 0.07 → 0.11 ms is +60% but both sit under the 5 ms floor: ok.
        assert!(within(0.07, 0.11, Better::Lower, 5.0));
        assert!(within(0.01, 4.99, Better::Lower, 5.0));
        // Above the floor the relative gate arms again.
        assert!(!within(0.07, 5.01, Better::Lower, 5.0));
        assert!(!within(10.0, 13.0, Better::Lower, 5.0));
        assert!(within(10.0, 11.0, Better::Lower, 5.0));
        // The floor never touches throughput metrics.
        assert!(!within(100.0, 75.0, Better::Higher, 5.0));
    }

    #[test]
    fn tolerance_is_one_sided() {
        // Throughput: 25% drop fails, 15% drop passes, any gain passes.
        assert!(!within(100.0, 75.0, Better::Higher, 0.0));
        assert!(within(100.0, 85.0, Better::Higher, 0.0));
        assert!(within(100.0, 500.0, Better::Higher, 0.0));
        // Latency: 25% rise fails, 15% rise passes, any drop passes.
        assert!(!within(100.0, 125.0, Better::Lower, 0.0));
        assert!(within(100.0, 115.0, Better::Lower, 0.0));
        assert!(within(100.0, 1.0, Better::Lower, 0.0));
    }

    fn stress_json(cps: f64, p99: f64, det: bool) -> Json {
        Json::parse(&format!(
            r#"{{"offers": 500, "determinism_ok": {det},
                 "runs": [{{"threads": 1, "commands_per_s": {cps}, "p99_us": {p99}}},
                          {{"threads": 4, "commands_per_s": {}, "p99_us": {p99}}}]}}"#,
            cps * 3.0,
        ))
        .unwrap()
    }

    #[test]
    fn stress_diff_flags_only_regressions() {
        // p99 values sit above the 1 ms noise floor so the relative
        // tail gate is armed.
        let base = stress_json(1000.0, 6_000.0, true);
        let same = diff("stress", &base, &stress_json(1000.0, 6_000.0, true)).unwrap();
        assert!(same.iter().all(|c| c.ok), "{same:?}");
        assert_eq!(same.len(), 1 + 4); // gate + 2 metrics × 2 thread counts

        let slow = diff("stress", &base, &stress_json(700.0, 6_000.0, true)).unwrap();
        assert!(slow.iter().any(|c| !c.ok && c.name.contains("commands_per_s")));

        let tail = diff("stress", &base, &stress_json(1000.0, 9_000.0, true)).unwrap();
        assert!(tail.iter().any(|c| !c.ok && c.name.contains("p99_us")));

        let torn = diff("stress", &base, &stress_json(1000.0, 6_000.0, false)).unwrap();
        assert!(torn.iter().any(|c| !c.ok && c.name == "stress.determinism_ok"));

        // Under the 250 µs floor, a 2x tail swing is timer noise, not a
        // regression (the ingest gate has the same policy)...
        let noisy =
            diff("stress", &stress_json(1000.0, 100.0, true), &stress_json(1000.0, 200.0, true))
                .unwrap();
        assert!(noisy.iter().all(|c| c.ok), "{noisy:?}");
        // ...but sub-millisecond tails above the floor are armed (these
        // were ungated under the old 1 ms single-round floor).
        let armed =
            diff("stress", &stress_json(1000.0, 300.0, true), &stress_json(1000.0, 480.0, true))
                .unwrap();
        assert!(armed.iter().any(|c| !c.ok && c.name.contains("p99_us")), "{armed:?}");

        assert!(diff("stress", &base, &Json::parse("{}").unwrap()).is_err());
    }

    fn ingest_json(rcps: f64, p99: f64, probe: f64, stable: bool) -> Json {
        Json::parse(&format!(
            r#"{{"initial_offers": 100, "hash_stable": {stable}, "publish_1k_ms": {probe},
                 "publish_bulk_ms": 10.0, "publish_bulk_delta_ms": 10.0,
                 "runs": [{{"threads": 2, "reader_commands_per_s": {rcps},
                            "publish_p99_ms": {p99}}}]}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn ingest_diff_gates_probe_and_stability() {
        let base = ingest_json(5000.0, 2.0, 10.0, true);
        let ok = diff("ingest", &base, &ingest_json(4900.0, 2.1, 11.0, true)).unwrap();
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");

        let unstable = diff("ingest", &base, &ingest_json(5000.0, 2.0, 10.0, false)).unwrap();
        assert!(unstable.iter().any(|c| !c.ok && c.name == "ingest.hash_stable"));

        let probe = diff("ingest", &base, &ingest_json(5000.0, 2.0, 20.0, true)).unwrap();
        assert!(probe.iter().any(|c| !c.ok && c.name == "ingest.publish_1k_ms"));

        // The bulk probe gates relatively too (its absolute wall lives
        // in the ingest binary).
        let slow_bulk = with(ingest_json(5000.0, 2.0, 10.0, true), "publish_bulk_ms", 25.0);
        let bulk = diff("ingest", &base, &with(slow_bulk, "publish_bulk_delta_ms", 25.0)).unwrap();
        assert!(bulk.iter().any(|c| !c.ok && c.name == "ingest.publish_bulk_ms"));
        assert!(bulk.iter().any(|c| !c.ok && c.name == "ingest.publish_bulk_delta_ms"));

        // Display renders both verdicts.
        let line = probe.iter().find(|c| !c.ok).unwrap().to_string();
        assert!(line.starts_with("FAIL"), "{line}");
        assert!(ok[0].to_string().starts_with("ok"), "{}", ok[0]);
    }

    #[test]
    fn cross_machine_baselines_downgrade_numeric_checks_to_advisory() {
        // Baseline from a 1-CPU dev box, current from a 4-CPU runner: a
        // huge numeric "regression" must not gate, but the boolean
        // integrity check still must.
        let base = Json::parse(
            r#"{"offers": 1, "available_parallelism": 1, "determinism_ok": true,
                "runs": [{"threads": 4, "commands_per_s": 60000, "p99_us": 100}]}"#,
        )
        .unwrap();
        let current = Json::parse(
            r#"{"offers": 1, "available_parallelism": 4, "determinism_ok": false,
                "runs": [{"threads": 4, "commands_per_s": 10000, "p99_us": 900}]}"#,
        )
        .unwrap();
        assert!(!same_machine_class(&base, &current));
        let checks = diff("stress", &base, &current).unwrap();
        let throughput = checks.iter().find(|c| c.name.contains("commands_per_s")).unwrap();
        assert!(!throughput.ok && throughput.advisory && !throughput.is_regression());
        assert!(throughput.to_string().starts_with("warn"), "{throughput}");
        let det = checks.iter().find(|c| c.name == "stress.determinism_ok").unwrap();
        assert!(det.is_regression(), "boolean gates stay hard across machine classes");
        // Same machine class (or unknown): numeric checks gate again.
        let strict = diff(
            "stress",
            &base,
            &Json::parse(
                r#"{"offers": 1, "available_parallelism": 1, "determinism_ok": true,
                "runs": [{"threads": 4, "commands_per_s": 10000, "p99_us": 900}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(strict.iter().any(MetricCheck::is_regression));
    }

    fn planning_json(speedup: f64, improvement: f64, det: bool, frames: bool) -> Json {
        Json::parse(&format!(
            r#"{{"incremental_speedup": {speedup}, "full_replan_ms": 40.0,
                 "incremental_replan_ms": 1.0, "determinism_ok": {det},
                 "frame_hash_stable": {frames},
                 "bundle_raw_ms": 40.0, "bundled_replan_ms": 5.0,
                 "bundle_speedup": 8.0, "bundle_roundtrip_ok": true,
                 "cell_replan_ms": 0.5, "bundle_replan_speedup": 10.0,
                 "bundle_replan_roundtrip_ok": true,
                 "schedulers": [{{"name": "greedy-best-start", "improvement": {improvement}}},
                                {{"name": "earliest-start", "improvement": 0.1}}]}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn planning_diff_gates_determinism_speedup_and_quality() {
        let base = planning_json(40.0, 0.8, true, true);
        let ok = diff("planning", &base, &planning_json(38.0, 0.81, true, true)).unwrap();
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        // 4 boolean gates + 2 bundle ratios + the replan floor +
        // 6 numerics + 2 schedulers
        assert_eq!(ok.len(), 4 + 2 + 1 + 6 + 2);

        let torn = diff("planning", &base, &planning_json(40.0, 0.8, false, true)).unwrap();
        assert!(torn.iter().any(|c| !c.ok && c.name == "planning.determinism_ok"));
        let frames = diff("planning", &base, &planning_json(40.0, 0.8, true, false)).unwrap();
        assert!(frames.iter().any(|c| !c.ok && c.name == "planning.frame_hash_stable"));

        let slow = diff("planning", &base, &planning_json(20.0, 0.8, true, true)).unwrap();
        assert!(slow.iter().any(|c| !c.ok && c.name == "planning.incremental_speedup"));

        let worse = diff("planning", &base, &planning_json(40.0, 0.5, true, true)).unwrap();
        assert!(worse.iter().any(|c| !c.ok && c.name == "planning.greedy-best-start.improvement"));

        // Improvement slack is absolute: a baseline scheduler pinned at
        // a slightly negative improvement must pass against itself.
        let negative = planning_json(40.0, -0.002, true, true);
        let same = diff("planning", &negative, &negative.clone()).unwrap();
        assert!(same.iter().all(|c| c.ok), "{same:?}");

        assert!(diff("planning", &base, &Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn planning_diff_gates_the_bundle_pipeline() {
        let base = planning_json(40.0, 0.8, true, true);
        // Bundling losing its edge is a regression even though the raw
        // latency is unchanged.
        let slow = diff(
            "planning",
            &base,
            &with(planning_json(40.0, 0.8, true, true), "bundle_speedup", 4.0),
        )
        .unwrap();
        assert!(slow.iter().any(|c| c.is_regression() && c.name == "planning.bundle_speedup"));
        // A broken round trip is a hard boolean gate.
        let broken = diff(
            "planning",
            &base,
            &with(planning_json(40.0, 0.8, true, true), "bundle_roundtrip_ok", false),
        )
        .unwrap();
        assert!(broken
            .iter()
            .any(|c| c.is_regression() && c.name == "planning.bundle_roundtrip_ok"));
        // A report predating the bundle section cannot pass: the
        // boolean fails and the missing speedup is a structural error.
        let legacy = Json::parse(
            r#"{"incremental_speedup": 40.0, "full_replan_ms": 40.0,
                "incremental_replan_ms": 1.0, "determinism_ok": true,
                "frame_hash_stable": true, "schedulers": []}"#,
        )
        .unwrap();
        assert!(diff("planning", &base, &legacy).is_err());
    }

    #[test]
    fn planning_diff_gates_bundle_aware_replanning() {
        let base = planning_json(40.0, 0.8, true, true);
        // Losing the warm-replan edge relative to the baseline fails.
        let slower = diff(
            "planning",
            &base,
            &with(planning_json(40.0, 0.8, true, true), "bundle_replan_speedup", 6.0),
        )
        .unwrap();
        assert!(slower
            .iter()
            .any(|c| c.is_regression() && c.name == "planning.bundle_replan_speedup"));
        // The absolute ≥5x floor fails even when the relative check
        // would pass against a slow baseline.
        let sluggish = with(planning_json(40.0, 0.8, true, true), "bundle_replan_speedup", 4.5);
        let floored = diff("planning", &sluggish, &sluggish.clone()).unwrap();
        assert!(floored
            .iter()
            .any(|c| c.is_regression() && c.name == "planning.bundle_replan_speedup_floor"));
        assert!(floored.iter().all(|c| c.name != "planning.bundle_replan_speedup" || c.ok));
        // A broken warm round trip is a hard boolean gate.
        let broken = diff(
            "planning",
            &base,
            &with(planning_json(40.0, 0.8, true, true), "bundle_replan_roundtrip_ok", false),
        )
        .unwrap();
        assert!(broken
            .iter()
            .any(|c| c.is_regression() && c.name == "planning.bundle_replan_roundtrip_ok"));
    }

    #[test]
    fn planning_quality_gates_stay_hard_across_machine_classes() {
        // Latency checks downgrade to advisory on a machine-class
        // mismatch, but determinism and seed-deterministic quality must
        // not.
        let base = with(planning_json(40.0, 0.8, true, true), "available_parallelism", 1.0);
        let cur = with(planning_json(40.0, 0.5, true, true), "available_parallelism", 8.0);
        let checks = diff("planning", &base, &cur).unwrap();
        let quality =
            checks.iter().find(|c| c.name == "planning.greedy-best-start.improvement").unwrap();
        assert!(quality.is_regression(), "quality must gate across machine classes");
        let latency = checks.iter().find(|c| c.name == "planning.full_replan_ms").unwrap();
        assert!(latency.advisory);
    }

    fn net_json(cps: f64, p99: f64, outcomes: bool, hashes: bool) -> Json {
        Json::parse(&format!(
            r#"{{"clients": 4, "outcome_match": {outcomes}, "hash_match": {hashes},
                 "storm_outcome_match": true, "storm_hash_match": true,
                 "commands_per_s": {cps}, "p99_us": {p99}}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn net_diff_gates_wire_equivalence_hard_and_latency_soft() {
        let base = net_json(20_000.0, 2_000.0, true, true);
        let ok = diff("net", &base, &net_json(19_000.0, 2_100.0, true, true)).unwrap();
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 4 + 2); // 4 hard gates + 2 numerics

        let torn = diff("net", &base, &net_json(20_000.0, 2_000.0, false, true)).unwrap();
        assert!(torn.iter().any(|c| !c.ok && c.name == "net.outcome_match"));
        let frames = diff("net", &base, &net_json(20_000.0, 2_000.0, true, false)).unwrap();
        assert!(frames.iter().any(|c| !c.ok && c.name == "net.hash_match"));
        // A report predating the storm round (or one that failed it)
        // fails the storm gates — absence is not a pass.
        let legacy = Json::parse(
            r#"{"clients": 4, "outcome_match": true, "hash_match": true,
                "commands_per_s": 20000.0, "p99_us": 2000.0}"#,
        )
        .unwrap();
        let stormless = diff("net", &base, &legacy).unwrap();
        assert!(stormless.iter().any(|c| !c.ok && c.name == "net.storm_outcome_match"));
        assert!(stormless.iter().any(|c| !c.ok && c.name == "net.storm_hash_match"));

        let slow = diff("net", &base, &net_json(10_000.0, 2_000.0, true, true)).unwrap();
        assert!(slow.iter().any(|c| !c.ok && c.name == "net.commands_per_s"));
        let tail = diff("net", &base, &net_json(20_000.0, 3_000.0, true, true)).unwrap();
        assert!(tail.iter().any(|c| !c.ok && c.name == "net.p99_us"));

        // RTT jitter under the 1 ms floor never gates.
        let noisy = diff(
            "net",
            &net_json(20_000.0, 300.0, true, true),
            &net_json(20_000.0, 900.0, true, true),
        )
        .unwrap();
        assert!(noisy.iter().all(|c| c.ok), "{noisy:?}");

        assert!(diff("net", &base, &Json::parse("{}").unwrap()).is_err());
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
        let base = net_json_scaled(256, 5_000.0, 30_000.0, 8);

        // Healthy: every connection held, throughput over the floor.
        let ok = diff("net", &base, &net_json_scaled(256, 4_500.0, 35_000.0, 8)).unwrap();
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert!(ok.iter().any(|c| c.name == "net.peak_connections"));

        // A dropped connection is a hard failure on any machine class.
        let dropped = diff("net", &base, &net_json_scaled(255, 5_000.0, 30_000.0, 1)).unwrap();
        let peak = dropped.iter().find(|c| c.name == "net.peak_connections").unwrap();
        assert!(peak.is_regression(), "a lost storm connection must gate hard");

        // Accept throughput under the floor: hard on >= 4 cores…
        let slow = diff("net", &base, &net_json_scaled(256, 120.0, 30_000.0, 8)).unwrap();
        let accepts = slow.iter().find(|c| c.name == "net.accepts_per_s").unwrap();
        assert!(accepts.is_regression(), "sub-floor accept throughput must gate");
        // …advisory on a small runner, where the herd and the reactor
        // share a core.
        let small = diff("net", &base, &net_json_scaled(256, 120.0, 30_000.0, 1)).unwrap();
        let accepts = small.iter().find(|c| c.name == "net.accepts_per_s").unwrap();
        assert!(accepts.advisory && !accepts.is_regression());

        // Connect p99 regressions gate above the queueing noise floor…
        let tail = diff("net", &base, &net_json_scaled(256, 5_000.0, 400_000.0, 8)).unwrap();
        let p99 = tail.iter().find(|c| c.name == "net.connect_p99_us").unwrap();
        assert!(p99.is_regression());
        // …but jitter below it never does.
        let noise = diff(
            "net",
            &net_json_scaled(256, 5_000.0, 20_000.0, 8),
            &net_json_scaled(256, 5_000.0, 190_000.0, 8),
        )
        .unwrap();
        assert!(noise.iter().all(|c| c.ok), "{noise:?}");

        // Legacy reports without the section skip it cleanly.
        let legacy = net_json(20_000.0, 2_000.0, true, true);
        let checks = diff("net", &legacy, &legacy).unwrap();
        assert!(checks.iter().all(|c| !c.name.contains("peak") && !c.name.contains("accepts")));
    }

    #[test]
    fn net_equivalence_gates_stay_hard_across_machine_classes() {
        let base = with(net_json(20_000.0, 2_000.0, true, true), "available_parallelism", 1.0);
        let cur = with(net_json(5_000.0, 9_000.0, false, true), "available_parallelism", 8.0);
        let checks = diff("net", &base, &cur).unwrap();
        let outcome = checks.iter().find(|c| c.name == "net.outcome_match").unwrap();
        assert!(outcome.is_regression(), "wire equivalence must gate on any machine");
        let throughput = checks.iter().find(|c| c.name == "net.commands_per_s").unwrap();
        assert!(throughput.advisory && !throughput.is_regression());
    }

    fn forecast_json(mape_exec: f64, ms: f64, beats: bool) -> Json {
        Json::parse(&format!(
            r#"{{"mape_executions": {mape_exec}, "mape_envelope": 2.0,
                 "executions_beat_envelope": {beats}, "forecast_ms": {ms}}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn forecast_diff_gates_quality_hard_and_wall_time_soft() {
        let base = forecast_json(0.20, 50.0, true);
        let ok = diff("forecast", &base, &forecast_json(0.21, 55.0, true)).unwrap();
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 3); // quality gate + MAPE + wall time

        let lost = diff("forecast", &base, &forecast_json(0.21, 50.0, false)).unwrap();
        assert!(lost.iter().any(|c| !c.ok && c.name == "forecast.executions_beat_envelope"));
        let worse = diff("forecast", &base, &forecast_json(0.30, 50.0, true)).unwrap();
        assert!(worse.iter().any(|c| !c.ok && c.name == "forecast.mape_executions"));

        // Wall-time jitter under the floor never gates; a machine-class
        // mismatch makes it advisory but leaves the quality gates hard.
        let base_1core = with(forecast_json(0.20, 50.0, true), "available_parallelism", 1.0);
        let cur_8core = with(forecast_json(0.30, 500.0, true), "available_parallelism", 8.0);
        let checks = diff("forecast", &base_1core, &cur_8core).unwrap();
        let quality = checks.iter().find(|c| c.name == "forecast.mape_executions").unwrap();
        assert!(quality.is_regression(), "MAPE must gate across machine classes");
        let wall = checks.iter().find(|c| c.name == "forecast.forecast_ms").unwrap();
        assert!(wall.advisory && !wall.is_regression());

        assert!(diff("forecast", &base, &Json::parse("{}").unwrap()).is_err());
    }

    fn spatial_json(speedup: f64, publish: f64, cores: usize, matches: bool, frames: bool) -> Json {
        Json::parse(&format!(
            r#"{{"facts": 1000000, "available_parallelism": {cores},
                 "results_match": {matches}, "frame_hash_stable": {frames},
                 "indexed_total_ms": 30.0, "scan_total_ms": 900.0,
                 "query_speedup": {speedup}, "parallel_speedup": 1.4,
                 "publish_ms": {publish}}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn spatial_diff_gates_equality_determinism_speedup_and_publish() {
        let base = spatial_json(30.0, 40.0, 8, true, true);
        let ok = diff("spatial", &base, &spatial_json(28.0, 42.0, 8, true, true)).unwrap();
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        assert_eq!(ok.len(), 2 + 1 + 1 + 2 + 1); // gates + facts + speedup + latencies + parallel

        let torn = diff("spatial", &base, &spatial_json(30.0, 40.0, 8, false, true)).unwrap();
        assert!(torn.iter().any(|c| !c.ok && c.name == "spatial.results_match"));
        let frames = diff("spatial", &base, &spatial_json(30.0, 40.0, 8, true, false)).unwrap();
        assert!(frames.iter().any(|c| !c.ok && c.name == "spatial.frame_hash_stable"));

        let slow = diff("spatial", &base, &spatial_json(10.0, 40.0, 8, true, true)).unwrap();
        assert!(slow.iter().any(|c| c.is_regression() && c.name == "spatial.query_speedup"));
        let publish = diff("spatial", &base, &spatial_json(30.0, 90.0, 8, true, true)).unwrap();
        assert!(publish.iter().any(|c| c.is_regression() && c.name == "spatial.publish_ms"));

        assert!(diff("spatial", &base, &Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn spatial_query_speedup_gates_hard_across_machine_classes() {
        // Baseline from a 1-core box, current from an 8-core runner: the
        // publish latency downgrades to advisory, but the query speedup
        // is a same-host ratio and the result/frame gates are booleans —
        // all three stay hard.
        let base = spatial_json(30.0, 40.0, 1, true, true);
        let cur = spatial_json(10.0, 200.0, 8, false, true);
        let checks = diff("spatial", &base, &cur).unwrap();
        assert!(checks.iter().any(|c| c.is_regression() && c.name == "spatial.query_speedup"));
        assert!(checks.iter().any(|c| c.is_regression() && c.name == "spatial.results_match"));
        let publish = checks.iter().find(|c| c.name == "spatial.publish_ms").unwrap();
        assert!(publish.advisory && !publish.is_regression());
    }

    #[test]
    fn parallel_speedup_is_advisory_on_small_runners() {
        // Same machine class (1 core on both sides), so every other
        // numeric check is hard — but a 1-core runner cannot exhibit
        // parallel speedup, so that one check is advisory-only.
        let base = spatial_json(30.0, 40.0, 1, true, true);
        let cur = with(spatial_json(29.0, 41.0, 1, true, true), "parallel_speedup", 0.3);
        let checks = diff("spatial", &base, &cur).unwrap();
        let parallel = checks.iter().find(|c| c.name == "spatial.parallel_speedup").unwrap();
        assert!(!parallel.ok && parallel.advisory && !parallel.is_regression());
        assert!(checks
            .iter()
            .filter(|c| c.name != "spatial.parallel_speedup")
            .all(|c| !c.advisory));
        // On a 4-core runner the same drop gates hard.
        let big = diff(
            "spatial",
            &spatial_json(30.0, 40.0, 4, true, true),
            &with(spatial_json(29.0, 41.0, 4, true, true), "parallel_speedup", 0.3),
        )
        .unwrap();
        assert!(big.iter().any(|c| c.is_regression() && c.name == "spatial.parallel_speedup"));
    }

    #[test]
    fn machine_class_guard_rejects_baselines_from_bigger_machines() {
        let big = spatial_json(30.0, 40.0, 8, true, true);
        let small = spatial_json(30.0, 40.0, 1, true, true);
        // Baseline claims 8 cores, runner has 1: refuse to gate.
        let err = guard_machine_class("spatial", &big, &small).unwrap_err();
        assert!(err.contains("regenerate the baseline"), "{err}");
        // Runner grew: fine (checks go advisory via same_machine_class).
        assert!(guard_machine_class("spatial", &small, &big).is_ok());
        assert!(guard_machine_class("spatial", &big, &big).is_ok());
        // Old reports without the field are never rejected.
        let bare = Json::parse(r#"{"facts": 1}"#).unwrap();
        assert!(guard_machine_class("spatial", &big, &bare).is_ok());
        assert!(guard_machine_class("spatial", &bare, &small).is_ok());
        assert_eq!(recorded_parallelism(&big), Some(8));
        assert_eq!(recorded_parallelism(&bare), None);
    }

    fn columnar_json(eq: bool, views: bool, speedup: f64, cols_ms: f64) -> Json {
        Json::parse(&format!(
            r#"{{"queries": 400, "views": 48, "equality_ok": {eq}, "views_ok": {views},
                 "columnar_eval_ms": {cols_ms}, "row_eval_ms": 40.0,
                 "eval_speedup": {speedup}, "filtered_equality_ok": true,
                 "filtered_pushdown_ms": 20.0, "filtered_scan_ms": 80.0,
                 "filtered_speedup": 4.0}}"#,
        ))
        .unwrap()
    }

    #[test]
    fn columnar_diff_gates_equality_hard_and_latency_soft() {
        let base = columnar_json(true, true, 4.0, 10.0);
        let ok = diff("columnar", &base, &columnar_json(true, true, 3.8, 10.5)).unwrap();
        assert!(ok.iter().all(|c| c.ok), "{ok:?}");
        // 3 boolean gates + 2 counts + 2 speedups + 2 floors +
        // 4 latencies
        assert_eq!(ok.len(), 3 + 2 + 2 + 2 + 4);

        let diverged = diff("columnar", &base, &columnar_json(false, true, 4.0, 10.0)).unwrap();
        assert!(diverged.iter().any(|c| c.is_regression() && c.name == "columnar.equality_ok"));
        let views = diff("columnar", &base, &columnar_json(true, false, 4.0, 10.0)).unwrap();
        assert!(views.iter().any(|c| c.is_regression() && c.name == "columnar.views_ok"));
        let slower = diff("columnar", &base, &columnar_json(true, true, 1.5, 10.0)).unwrap();
        assert!(slower.iter().any(|c| c.is_regression() && c.name == "columnar.eval_speedup"));

        // A shrunken battery fails even when everything it still runs
        // agrees: coverage is part of the gate.
        let shrunk = Json::parse(
            r#"{"queries": 40, "views": 48, "equality_ok": true, "views_ok": true,
                "columnar_eval_ms": 1.0, "row_eval_ms": 4.0, "eval_speedup": 4.0,
                "filtered_equality_ok": true, "filtered_pushdown_ms": 1.0,
                "filtered_scan_ms": 4.0, "filtered_speedup": 4.0}"#,
        )
        .unwrap();
        let small = diff("columnar", &base, &shrunk).unwrap();
        assert!(small.iter().any(|c| c.is_regression() && c.name == "columnar.queries"));

        // Absence of the equality booleans is a failure, not a skip.
        let bare = Json::parse(
            r#"{"queries": 400, "views": 48, "columnar_eval_ms": 10.0,
                "row_eval_ms": 40.0, "eval_speedup": 4.0,
                "filtered_pushdown_ms": 20.0, "filtered_scan_ms": 80.0,
                "filtered_speedup": 4.0}"#,
        )
        .unwrap();
        let missing = diff("columnar", &base, &bare).unwrap();
        assert!(missing.iter().any(|c| c.is_regression() && c.name == "columnar.equality_ok"));
        assert!(missing
            .iter()
            .any(|c| c.is_regression() && c.name == "columnar.filtered_equality_ok"));

        assert!(diff("columnar", &base, &Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn columnar_diff_gates_the_filtered_probe() {
        let base = columnar_json(true, true, 4.0, 10.0);
        // A three-way divergence on the filtered battery is hard.
        let diverged = diff(
            "columnar",
            &base,
            &with(columnar_json(true, true, 4.0, 10.0), "filtered_equality_ok", false),
        )
        .unwrap();
        assert!(diverged
            .iter()
            .any(|c| c.is_regression() && c.name == "columnar.filtered_equality_ok"));
        // Pushdown losing its edge relative to the baseline fails.
        let slower = diff(
            "columnar",
            &base,
            &with(columnar_json(true, true, 4.0, 10.0), "filtered_speedup", 3.1),
        )
        .unwrap();
        assert!(slower.iter().any(|c| c.is_regression() && c.name == "columnar.filtered_speedup"));
        // The absolute floors fail even against an equally slow
        // baseline: ≥2x for the battery, ≥3x for the filtered probe.
        let sluggish = with(columnar_json(true, true, 1.8, 10.0), "filtered_speedup", 2.5);
        let floored = diff("columnar", &sluggish, &sluggish.clone()).unwrap();
        assert!(floored
            .iter()
            .any(|c| c.is_regression() && c.name == "columnar.eval_speedup_floor"));
        assert!(floored
            .iter()
            .any(|c| c.is_regression() && c.name == "columnar.filtered_speedup_floor"));
        assert!(floored.iter().all(|c| !c.name.ends_with("_floor") || !c.ok || c.current >= 2.0));
    }

    #[test]
    fn columnar_speedup_gates_hard_across_machine_classes() {
        let base = with(columnar_json(true, true, 4.0, 10.0), "available_parallelism", 1.0);
        let cur = with(columnar_json(true, true, 1.5, 200.0), "available_parallelism", 8.0);
        let checks = diff("columnar", &base, &cur).unwrap();
        assert!(checks.iter().any(|c| c.is_regression() && c.name == "columnar.eval_speedup"));
        let latency = checks.iter().find(|c| c.name == "columnar.columnar_eval_ms").unwrap();
        assert!(latency.advisory && !latency.is_regression());
    }

    #[test]
    fn missing_baseline_threads_are_skipped_not_fatal() {
        let base = ingest_json(5000.0, 2.0, 10.0, true);
        // Current measured only 8 threads: nothing to compare, no error.
        let current = Json::parse(
            r#"{"initial_offers": 10, "hash_stable": true, "publish_1k_ms": 9.0,
                "runs": [{"threads": 8, "reader_commands_per_s": 1.0, "publish_p99_ms": 1.0}]}"#,
        )
        .unwrap();
        let checks = diff("ingest", &base, &current).unwrap();
        assert!(checks.iter().all(|c| c.ok));
        assert_eq!(checks.len(), 2); // hash_stable + publish_1k_ms only
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

    /// The harness binary's verdict: does `report` fail the rows of
    /// `section`'s table that need no baseline?
    fn binary_fails(section: &str, report: &Json) -> bool {
        let checks = evaluate(section, gates_for(section).unwrap(), None, report).unwrap();
        checks.iter().any(MetricCheck::is_regression)
    }

    #[test]
    fn binaries_fail_exactly_on_the_ci_conditions() {
        // One passing report per harness, then each CI failure condition
        // alone must fail it — and the rows that belong to bench_diff
        // (or are advisory below 4 cores) must not.
        type Changes = Vec<(&'static str, Json)>;
        let cases: [(&str, Changes, Changes); 7] = [
            (
                r#"{"bench": "stress", "available_parallelism": 4, "determinism_ok": true,
                    "hover_speedup": 40, "runs": [{"threads": 4, "speedup_vs_1": 2.5}]}"#,
                vec![
                    ("determinism_ok", false.into()),
                    ("runs", Json::Arr(vec![])),
                    ("runs", Json::parse(r#"[{"threads": 4, "speedup_vs_1": 1.5}]"#).unwrap()),
                    ("hover_speedup", 9.0.into()),
                ],
                vec![("available_parallelism", 2.0.into())],
            ),
            (
                r#"{"bench": "ingest", "hash_stable": true, "publish_1k_ms": 1,
                    "publish_bulk_ms": 2, "publish_bulk_delta_ms": 0.1}"#,
                vec![
                    ("hash_stable", false.into()),
                    ("publish_1k_ms", 101.0.into()),
                    ("publish_bulk_ms", 120.0.into()),
                    ("publish_bulk_delta_ms", 100.5.into()),
                ],
                vec![],
            ),
            (
                r#"{"bench": "planning", "determinism_ok": true, "frame_hash_stable": true,
                    "bundle_roundtrip_ok": true, "bundle_replan_roundtrip_ok": true,
                    "incremental_speedup": 45, "bundle_speedup": 6,
                    "bundle_replan_speedup": 7}"#,
                vec![
                    ("frame_hash_stable", false.into()),
                    ("bundle_roundtrip_ok", false.into()),
                    ("incremental_speedup", 9.0.into()),
                    ("bundle_speedup", 4.9.into()),
                    ("bundle_replan_speedup", 4.9.into()),
                ],
                vec![],
            ),
            (
                r#"{"bench": "spatial", "min_facts": 1000000, "publish_bound_ms": 100,
                    "facts": 1017100, "results_match": true, "frame_hash_stable": true,
                    "query_speedup": 12, "parallel_speedup": 0.2, "publish_ms": 50}"#,
                vec![
                    ("results_match", false.into()),
                    ("facts", 999_999.0.into()),
                    ("query_speedup", 9.2.into()),
                    ("publish_ms", 150.0.into()),
                ],
                vec![("publish_bound_ms", 200.0.into())],
            ),
            (
                r#"{"bench": "net", "available_parallelism": 8, "clients": 256,
                    "outcome_match": true, "hash_match": true, "storm_outcome_match": true,
                    "storm_hash_match": true, "peak_connections": 256, "accepts_per_s": 5000}"#,
                vec![("storm_outcome_match", false.into()), ("peak_connections", 255.0.into())],
                vec![("accepts_per_s", 50.0.into())],
            ),
            (
                r#"{"bench": "forecast", "executions_beat_envelope": true}"#,
                vec![("executions_beat_envelope", false.into())],
                vec![],
            ),
            (
                r#"{"bench": "columnar", "equality_ok": true, "views_ok": true,
                    "filtered_equality_ok": true, "eval_speedup": 2.5, "filtered_speedup": 3.2}"#,
                vec![("views_ok", false.into()), ("filtered_speedup", 2.95.into())],
                vec![("eval_speedup", 1.5.into())],
            ),
        ];
        for (report, failing, passing) in cases {
            let report = Json::parse(report).unwrap();
            let Some(Json::Str(section)) = report.get("bench") else { unreachable!() };
            assert!(!binary_fails(section, &report), "{report}");
            for (key, value) in failing {
                let broken = with(report.clone(), key, value);
                assert!(binary_fails(section, &broken), "{section}: {key} must fail {broken}");
            }
            for (key, value) in passing {
                let fine = with(report.clone(), key, value);
                assert!(!binary_fails(section, &fine), "{section}: {key} must pass {fine}");
            }
        }
        // Below 4 cores the stress speedup floor only warns, even with
        // no 4-thread run to judge.
        let small = Json::parse(
            r#"{"bench": "stress", "available_parallelism": 2, "determinism_ok": true,
                "hover_speedup": 40, "runs": [{"threads": 4, "speedup_vs_1": 0.9}]}"#,
        )
        .unwrap();
        assert!(!binary_fails("stress", &small));
        assert!(!binary_fails("stress", &with(small, "runs", Json::Arr(vec![]))));
    }

    #[test]
    fn every_relative_row_resolves_in_the_committed_baseline() {
        let baseline = Json::parse(include_str!("../../../BENCH_baseline.json")).unwrap();
        for bench in ["stress", "ingest", "planning", "net", "spatial", "forecast", "columnar"] {
            let section = baseline.get(bench).unwrap_or_else(|| panic!("no {bench} section"));
            assert_eq!(section.get("bench"), Some(&Json::Str(bench.into())));
            for gate in gates_for(bench).unwrap() {
                if matches!(gate.rule, Rule::Relative { .. } | Rule::Slack) {
                    assert!(resolves(gate.path, section), "{bench}: {} unresolved", gate.path);
                }
            }
            // And the section gates cleanly against itself.
            let checks = diff(bench, section, section).unwrap();
            assert!(checks.iter().all(|c| c.ok), "{checks:?}");
        }
    }
}
