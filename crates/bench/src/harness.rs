//! The one home of bench plumbing: the flag parser of every `ceaff-bench`
//! binary, the timing helpers, and the `BENCH_*.json` report — its common
//! header (`schema_version`, `bench`, `detected_cores`, `check_mode`,
//! `notes`), one schema per bench, and [`write_report`], which validates
//! before it writes, so a schema violation is a crash, not a malformed
//! artifact. DESIGN.md §12 lists every bench's validation rules.

use ceaff_sim::SimStore;
use serde_json::{json, Value};
use std::str::FromStr;
use std::time::Instant;

/// Schema version stamped into (and required from) every report.
pub const SCHEMA_VERSION: u64 = 1;

/// Below this median wall-clock, a speedup ratio is noise and is refused.
pub const MIN_MEANINGFUL_SECS: f64 = 0.010;

/// A parsed command line: every value given to a value flag, in order,
/// and the switches that were given.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parse `args` (without the program name) against the flags a
    /// binary accepts: each of `valued` takes the next argument as its
    /// value, each of `switches` takes none. Any other flag, or a value
    /// flag with nothing after it, is an error.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if switches.contains(&flag.as_str()) {
                out.switches.push(flag);
            } else if valued.contains(&flag.as_str()) {
                let value = args
                    .next()
                    .ok_or_else(|| format!("missing value for {flag}"))?;
                out.values.push((flag, value));
            } else {
                let known: Vec<&str> = valued.iter().chain(switches).copied().collect();
                return Err(format!("unknown flag {flag}; known: {}", known.join(" ")));
            }
        }
        Ok(out)
    }

    /// [`Args::parse`] over this process's arguments. A malformed command
    /// line prints the problem and exits with status 2.
    pub fn from_env(valued: &[&str], switches: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), valued, switches).unwrap_or_else(|e| usage_error(&e))
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Every value given to `name`, parsed, in order. A value that does
    /// not parse exits like a malformed command line.
    pub fn all<T: FromStr>(&self, name: &str) -> Vec<T> {
        self.try_all(name).unwrap_or_else(|e| usage_error(&e))
    }

    /// The last value given to `name`, parsed, if any.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        self.all(name).pop()
    }

    /// The last value given to `name`, parsed, or `default`.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T {
        self.opt(name).unwrap_or(default)
    }

    fn try_all<T: FromStr>(&self, name: &str) -> Result<Vec<T>, String> {
        self.values
            .iter()
            .filter(|(flag, _)| flag == name)
            .map(|(_, v)| v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")))
            .collect()
    }
}

fn usage_error(problem: &str) -> ! {
    eprintln!("error: {problem}");
    std::process::exit(2);
}

/// The core count the host reports (1 when it cannot tell), recorded
/// verbatim in every report.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nearest-rank percentile of an unsorted sample, sorted in place.
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of an unsorted sample, sorted in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The wall-clock seconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// One warm-up call, then the median of `reps` timed calls under
/// `threads` threads. Returns the median seconds and the last result.
pub fn warm_median<R>(threads: usize, reps: usize, f: impl Fn() -> R) -> (f64, R) {
    let _ = ceaff_parallel::with_threads(threads, &f);
    let mut last = None;
    let mut secs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (secs, out) = timed(|| ceaff_parallel::with_threads(threads, &f));
            last = Some(out);
            secs
        })
        .collect();
    (median(&mut secs), last.expect("reps >= 1"))
}

/// `numer / denom`, or `null` when either side is too fast to trust.
pub fn honest_speedup(numer: f64, denom: f64) -> Value {
    if numer < MIN_MEANINGFUL_SECS || denom < MIN_MEANINGFUL_SECS {
        Value::Null
    } else {
        json!(numer / denom)
    }
}

/// Every bit of a similarity store: its shape, then its values (a sparse
/// row as its length, columns and values). Two stores are bitwise
/// identical exactly when their `store_bits` are equal.
pub fn store_bits(store: &SimStore) -> Vec<u32> {
    let mut bits = vec![store.sources() as u32, store.targets() as u32];
    match store {
        SimStore::Dense(m) => bits.extend(m.as_matrix().as_slice().iter().map(|v| v.to_bits())),
        SimStore::Sparse(s) => {
            for i in 0..s.sources() {
                let (cols, vals) = s.row_entries(i);
                bits.push(cols.len() as u32);
                bits.extend(cols);
                bits.extend(vals.iter().map(|v| v.to_bits()));
            }
        }
    }
    bits
}

/// A report: the common header, then `body`'s fields, then `notes`.
///
/// # Panics
/// Panics when `body` is not a JSON object.
pub fn report(bench: &str, check_mode: bool, body: Value, notes: &[&str]) -> Value {
    let Value::Object(fields) = body else {
        panic!("a report body is a JSON object");
    };
    let mut doc = vec![
        ("schema_version".to_owned(), json!(SCHEMA_VERSION)),
        ("bench".to_owned(), json!(bench)),
        ("detected_cores".to_owned(), json!(detected_cores())),
        ("check_mode".to_owned(), json!(check_mode)),
    ];
    doc.extend(fields);
    doc.push(("notes".to_owned(), json!(notes)));
    Value::Object(doc)
}

/// Validate `doc`, then write it to `path` as pretty JSON plus a newline.
///
/// # Panics
/// Panics when `doc` fails [`validate`] or the file cannot be written.
pub fn write_report(path: &str, doc: &Value) {
    if let Err(problem) = validate(doc) {
        panic!("schema-invalid report, not written: {problem}");
    }
    let pretty = serde_json::to_string_pretty(doc).expect("serialize report");
    std::fs::write(path, pretty + "\n").expect("write report");
    eprintln!("wrote {path}");
}

/// What a bench's report must hold beyond the common header.
struct Schema {
    bench: &'static str,
    /// Top-level keys holding positive integers.
    positive: &'static [&'static str],
    /// The key of the entries array.
    entries: &'static str,
    /// The entries array's exact length; `None` asks only for one entry.
    len: Option<usize>,
    /// What each entry must hold.
    each: Rules,
}

/// What one entry must hold. Keys may be dotted paths into nested
/// objects (`"blocked.seconds"`).
struct Rules {
    /// Finite, non-negative numbers.
    non_negative: &'static [&'static str],
    /// Numbers in `[0, 1]`.
    fractions: &'static [&'static str],
    /// Flags that must be `true`.
    flags: &'static [&'static str],
    /// A positive number, or `null` when the timing was too fast to trust.
    speedups: &'static [&'static str],
    /// The bench's cross-field gate, told whether this is a `--check` run.
    gate: fn(&Value, bool) -> Result<(), String>,
}

/// No rules: the base the schemas below fill in.
const NONE: Rules = Rules {
    non_negative: &[],
    fractions: &[],
    flags: &[],
    speedups: &[],
    gate: |_, _| Ok(()),
};

const SCHEMAS: [Schema; 5] = [
    Schema {
        bench: "delta",
        positive: &["threads", "steps", "scratch_reps"],
        entries: "modes",
        len: Some(2),
        each: Rules {
            non_negative: &[
                "warm_build_ms",
                "incremental_mean_ms",
                "incremental_median_ms",
                "incremental_max_ms",
                "feature_patch_mean_ms",
                "global_stages_mean_ms",
                "bookkeeping_mean_ms",
                "from_scratch_ms",
                "speedup",
            ],
            fractions: &["mean_recompute_fraction"],
            flags: &["parity_bitwise"],
            gate: full_run_speedup,
            ..NONE
        },
    },
    Schema {
        bench: "restart",
        positive: &["threads", "steps", "reps", "snapshot_every"],
        entries: "modes",
        len: Some(2),
        each: Rules {
            non_negative: &[
                "cold_build_ms",
                "warm_restart_ms",
                "cold_restart_ms",
                "speedup",
            ],
            flags: &["parity_bitwise"],
            gate: restart_gate,
            ..NONE
        },
    },
    Schema {
        bench: "server",
        positive: &["workers", "queue_capacity", "reps", "requests_per_round"],
        entries: "levels",
        len: Some(2),
        each: Rules {
            non_negative: &["p50_ms", "p99_ms"],
            fractions: &["shed_rate", "degraded_fraction"],
            gate: |level, _| match level.get("errors").and_then(Value::as_u64) {
                Some(0) => Ok(()),
                errors => Err(format!("level reported transport/5xx errors: {errors:?}")),
            },
            ..NONE
        },
    },
    Schema {
        bench: "kernels",
        positive: &["parallel_threads", "reps"],
        entries: "runs",
        len: None,
        each: Rules {
            gate: kernel_run,
            ..NONE
        },
    },
    Schema {
        bench: "sparse",
        positive: &["threads"],
        entries: "results",
        len: Some(2),
        each: Rules {
            non_negative: &["dense.seconds", "blocked.seconds"],
            fractions: &["blocked.accuracy"],
            gate: sparse_gate,
            ..NONE
        },
    },
];

/// Check `doc` against the common header and its bench's schema. Returns
/// the first problem found, as a readable message.
pub fn validate(doc: &Value) -> Result<(), String> {
    if doc.get("schema_version").and_then(Value::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!("schema_version must be {SCHEMA_VERSION}"));
    }
    let bench = doc.get("bench").and_then(Value::as_str);
    let schema = SCHEMAS
        .iter()
        .find(|s| Some(s.bench) == bench)
        .ok_or_else(|| format!("unknown bench {bench:?}"))?;
    let check_mode = doc
        .get("check_mode")
        .and_then(Value::as_bool)
        .ok_or("check_mode must be a boolean")?;
    let notes = doc.get("notes").and_then(Value::as_array);
    if notes.is_none_or(|n| n.is_empty() || n.iter().any(|s| s.as_str().is_none())) {
        return Err("notes must be a non-empty array of strings".into());
    }
    for key in std::iter::once(&"detected_cores").chain(schema.positive) {
        if doc.get(key).and_then(Value::as_u64).is_none_or(|v| v == 0) {
            return Err(format!("{key} must be a positive integer"));
        }
    }
    let key = schema.entries;
    let entries = doc.get(key).and_then(Value::as_array);
    let entries = entries.ok_or_else(|| format!("{key} must be an array"))?;
    match (schema.len, entries.len()) {
        (Some(want), n) if n != want => {
            return Err(format!("{key} holds {n} entries, want {want}"))
        }
        (None, 0) => return Err(format!("{key} is empty")),
        _ => {}
    }
    entries
        .iter()
        .try_for_each(|entry| check(entry, &schema.each, check_mode))
}

fn check(entry: &Value, rules: &Rules, check_mode: bool) -> Result<(), String> {
    type Holds = fn(&Value) -> bool;
    let non_negative: Holds = |v| v.as_f64().is_some_and(|x| x.is_finite() && x >= 0.0);
    let fraction: Holds = |v| v.as_f64().is_some_and(|x| (0.0..=1.0).contains(&x));
    let flag: Holds = |v| v.as_bool() == Some(true);
    let speedup: Holds = |v| v.is_null() || v.as_f64().is_some_and(|x| x > 0.0);
    let kinds = [
        (
            rules.non_negative,
            non_negative,
            "a finite, non-negative number",
        ),
        (rules.fractions, fraction, "a number in [0, 1]"),
        (rules.flags, flag, "true"),
        (rules.speedups, speedup, "a positive number or null"),
    ];
    for (keys, holds, what) in kinds {
        if let Some(key) = keys.iter().find(|k| !field(entry, k).is_some_and(holds)) {
            return Err(format!("{key} must be {what}"));
        }
    }
    (rules.gate)(entry, check_mode)
}

/// `entry`'s field at a dotted `path`.
fn field<'a>(entry: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(entry, |v, key| v.get(key))
}

/// The headline claim of delta and restart — the fast path beats the
/// slow one — gated on full runs only: a `--check` run is too small for
/// the ratio to mean anything.
fn full_run_speedup(mode: &Value, check_mode: bool) -> Result<(), String> {
    let speedup = mode.get("speedup").and_then(Value::as_f64).unwrap_or(0.0);
    if !check_mode && speedup <= 1.0 {
        return Err(format!(
            "a full run must show the fast path winning (speedup {speedup:.2})"
        ));
    }
    Ok(())
}

/// A warm restart must skip work: it replays only the tail past the last
/// snapshot, the cold path replays the whole log.
fn restart_gate(mode: &Value, check_mode: bool) -> Result<(), String> {
    let replayed = |key| mode.get(key).and_then(Value::as_u64);
    match (replayed("replayed_warm"), replayed("replayed_cold")) {
        (Some(warm), Some(cold)) if warm < cold => full_run_speedup(mode, check_mode),
        (warm, cold) => Err(format!(
            "warm restart must replay a strict tail ({warm:?} vs {cold:?} frames)"
        )),
    }
}

/// One kernel run: a positive scale and a non-empty list of workloads.
fn kernel_run(run: &Value, check_mode: bool) -> Result<(), String> {
    let scale = run.get("scale").and_then(Value::as_f64);
    match (scale, run.get("workloads").and_then(Value::as_array)) {
        (Some(s), Some(workloads)) if s > 0.0 && !workloads.is_empty() => workloads
            .iter()
            .try_for_each(|w| kernel_workload(w, check_mode)),
        _ => Err(format!(
            "a run needs a positive scale ({scale:?}) and workloads"
        )),
    }
}

/// One kernel workload: named, sized, timed on both sides, and with its
/// parity declared; a bitwise workload also has a single-thread speedup.
fn kernel_workload(w: &Value, check_mode: bool) -> Result<(), String> {
    let name = w
        .get("name")
        .and_then(Value::as_str)
        .ok_or("workload.name must be a string")?;
    if w.get("dims").and_then(Value::as_str).is_none() {
        return Err(format!("{name}: dims must be a string"));
    }
    for key in ["seconds_tiled_1t", "seconds_tiled_par"] {
        if !w.get(key).and_then(Value::as_f64).is_some_and(|v| v > 0.0) {
            return Err(format!("{name}: {key} must be a positive number"));
        }
    }
    let speedups: &[&str] = match w.get("parity").and_then(Value::as_str) {
        Some("bitwise") => &["parallel_speedup", "single_thread_speedup"],
        Some("thread-invariant") => &["parallel_speedup"],
        other => return Err(format!("{name}: parity must be declared, got {other:?}")),
    };
    check(w, &Rules { speedups, ..NONE }, check_mode).map_err(|e| format!("{name}: {e}"))
}

/// The run at scale must show the dense path over the cap and the
/// blocked path completing under it.
fn sparse_gate(result: &Value, _check_mode: bool) -> Result<(), String> {
    let outcome = |side: &str| field(result, &format!("{side}.outcome")).and_then(Value::as_str);
    match result.get("workload").and_then(Value::as_str) {
        Some("parity") => Ok(()),
        Some("scale") if (outcome("dense"), outcome("blocked")) == CAPPED => Ok(()),
        other => Err(format!(
            "{other:?}: want parity, or scale with dense over the cap and blocked under it"
        )),
    }
}

const CAPPED: (Option<&str>, Option<&str>) = (Some("budget_exceeded"), Some("completed"));

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str], valued: &[&str], switches: &[&str]) -> Result<Args, String> {
        Args::parse(line.iter().map(|s| s.to_string()), valued, switches)
    }

    #[test]
    fn a_value_flag_at_the_end_of_the_line_is_an_error() {
        let err = parse(&["--scale", "0.5", "--json"], &["--scale", "--json"], &[]).unwrap_err();
        assert_eq!(err, "missing value for --json");
    }

    #[test]
    fn an_unknown_flag_is_an_error_naming_the_known_ones() {
        let err = parse(&["--check", "--stpes", "3"], &["--steps"], &["--check"]).unwrap_err();
        assert_eq!(err, "unknown flag --stpes; known: --steps --check");
    }

    #[test]
    fn a_repeated_value_flag_keeps_every_value_in_order() {
        let line = ["--scale", "0.2", "--check", "--scale", "5"];
        let kernels = ["--scale", "--reps", "--threads", "--out"];
        let args = parse(&line, &kernels, &["--check"]).expect("valid line");
        assert_eq!(args.all::<f64>("--scale"), [0.2, 5.0]);
        assert_eq!(args.get("--scale", 1.0), 5.0);
        assert_eq!(args.get("--reps", 5usize), 5);
        assert!(args.switch("--check"));
        assert!(args.try_all::<usize>("--scale").is_err());
    }

    #[test]
    fn sweep_takes_its_value_like_any_other_flag() {
        let flags = [
            "--scale", "--dim", "--epochs", "--json", "--trace", "--sweep",
        ];
        let args = parse(&["--sweep", "dim", "--scale", "0.5"], &flags, &[]).expect("valid line");
        assert_eq!(args.get("--sweep", "theta".to_owned()), "dim");
        assert_eq!(args.get("--scale", 0.3), 0.5);
        assert_eq!(args.opt::<String>("--json"), None);
        assert!(parse(&["--scale", "0.5", "--sweep"], &flags, &[]).is_err());
    }

    #[test]
    fn honest_speedup_refuses_fast_workloads() {
        assert!(honest_speedup(0.005, 0.5).is_null());
        assert!(honest_speedup(0.5, 0.005).is_null());
        let v = honest_speedup(0.5, 0.25);
        assert!((v.as_f64().unwrap() - 2.0).abs() < 1e-12);
    }
}
