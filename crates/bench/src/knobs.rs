//! The `SHOTGUN_*` environment knobs: the one place each variable
//! shared by `figures` and the tools is read, and the one value parser
//! every knob goes through.
//!
//! An unset knob gives its default. A knob that is set but does not
//! parse stops the binary before it does any work: it prints
//! `SHOTGUN_<X>=<value>: <why>` and exits 2, so a typo never runs the
//! default in silence. Numbers may carry `_` digit separators
//! (`SHOTGUN_INSTRS=8_000_000`).
//!
//! Each parse is a pure function of a variable lookup, so tests pass
//! a table in place of the process environment.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use fe_cfg::{workloads, MixSpec};
use fe_sim::{RunLength, SamplingSpec};

/// A knob that is set but does not parse.
#[derive(Debug, PartialEq)]
struct KnobError {
    name: String,
    value: String,
    why: String,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}: {}", self.name, self.value, self.why)
    }
}

/// A variable lookup: the value of a set variable, `None` when unset.
type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The text of the environment variable `name`, `None` when unset —
/// the lookup every knob parses through, and the reader of the list-
/// and name-valued knobs that one binary checks itself. A value that
/// is not UTF-8 cannot be a valid knob, so it stops the binary like
/// any other malformed value.
pub fn text(name: &str) -> Option<String> {
    let value = std::env::var_os(name)?;
    let text = value.into_string().unwrap_or_else(|raw| {
        exit(KnobError {
            name: name.into(),
            value: raw.to_string_lossy().into_owned(),
            why: "not valid UTF-8".into(),
        })
    });
    Some(text)
}

/// Prints `e` and exits 2.
fn exit(e: KnobError) -> ! {
    eprintln!("{e}");
    std::process::exit(2)
}

fn or_exit<T>(parsed: Result<T, KnobError>) -> T {
    parsed.unwrap_or_else(|e| exit(e))
}

/// Parses one knob value as `T`, `_` digit separators removed.
fn parse<T: FromStr>(name: &str, value: &str) -> Result<T, KnobError>
where
    T::Err: fmt::Display,
{
    value
        .replace('_', "")
        .parse()
        .map_err(|e: T::Err| KnobError {
            name: name.into(),
            value: value.into(),
            why: e.to_string(),
        })
}

/// `name` parsed as `T` through `get`, `None` when unset.
fn var_in<T: FromStr>(name: &str, get: Lookup) -> Result<Option<T>, KnobError>
where
    T::Err: fmt::Display,
{
    get(name).map(|value| parse(name, &value)).transpose()
}

/// The number in the environment variable `name`, `None` when unset —
/// for knobs that one binary reads. Exits 2 on a malformed value.
pub fn var<T: FromStr>(name: &str) -> Option<T>
where
    T::Err: fmt::Display,
{
    or_exit(var_in(name, &text))
}

/// `default` with `SHOTGUN_WARMUP` / `SHOTGUN_INSTRS` applied.
fn run_length_in(default: RunLength, get: Lookup) -> Result<RunLength, KnobError> {
    Ok(RunLength {
        warmup: var_in("SHOTGUN_WARMUP", get)?.unwrap_or(default.warmup),
        measure: var_in("SHOTGUN_INSTRS", get)?.unwrap_or(default.measure),
    })
}

/// `default` with `SHOTGUN_WARMUP` (warmup instructions) and
/// `SHOTGUN_INSTRS` (measured instructions) applied.
pub fn run_length(default: RunLength) -> RunLength {
    or_exit(run_length_in(default, &text))
}

/// [`SamplingSpec::DEFAULT`] under the sampling knobs, and whether
/// `SHOTGUN_SAMPLING` itself is set. `SHOTGUN_SAMPLING=interval[:detail[:warmup]]`
/// sets the leading fields first; `SHOTGUN_SAMPLING_INTERVAL`,
/// `_DETAIL` and `_WARMUP` then override one field each.
fn sampling_in(get: Lookup) -> Result<(SamplingSpec, bool), KnobError> {
    let mut spec = SamplingSpec::DEFAULT;
    let compact = get("SHOTGUN_SAMPLING");
    if let Some(value) = &compact {
        let fields: Vec<&str> = value.split(':').collect();
        if fields.len() > 3 {
            return Err(KnobError {
                name: "SHOTGUN_SAMPLING".into(),
                value: value.clone(),
                why: "expected interval[:detail[:warmup]]".into(),
            });
        }
        let slots = [&mut spec.interval, &mut spec.detail, &mut spec.warmup];
        for (slot, field) in slots.into_iter().zip(fields) {
            *slot = parse("SHOTGUN_SAMPLING", field).map_err(|e| KnobError {
                value: value.clone(),
                why: format!("field `{field}`: {}", e.why),
                ..e
            })?;
        }
    }
    for (name, slot) in [
        ("SHOTGUN_SAMPLING_INTERVAL", &mut spec.interval),
        ("SHOTGUN_SAMPLING_DETAIL", &mut spec.detail),
        ("SHOTGUN_SAMPLING_WARMUP", &mut spec.warmup),
    ] {
        if let Some(v) = var_in(name, get)? {
            *slot = v;
        }
    }
    Ok((spec, compact.is_some()))
}

/// Exits 2 when `spec` cannot run.
fn runnable(spec: SamplingSpec) -> SamplingSpec {
    if let Err(e) = spec.validate() {
        eprintln!("invalid sampling spec: {e}");
        std::process::exit(2);
    }
    spec
}

/// The sampling shape the `SHOTGUN_SAMPLING*` knobs give (see
/// [`SamplingSpec::DEFAULT`] for the unset shape). Exits 2 when the
/// shape cannot run.
pub fn sampling() -> SamplingSpec {
    runnable(or_exit(sampling_in(&text)).0)
}

/// [`sampling`] when `SHOTGUN_SAMPLING` is set, `None` otherwise: the
/// binaries whose sweeps run full detail unless sampling is asked for.
pub fn sampling_if_set() -> Option<SamplingSpec> {
    let (spec, set) = or_exit(sampling_in(&text));
    set.then(|| runnable(spec))
}

/// `SHOTGUN_SCALE`: the workload scale factor (default 1.0).
pub fn scale() -> f64 {
    var("SHOTGUN_SCALE").unwrap_or(1.0)
}

/// The mix `SHOTGUN_MIX` names (`+`-separated preset names),
/// `apache+db2` when unset.
fn mix_in(get: Lookup) -> Result<MixSpec, KnobError> {
    let Some(value) = get("SHOTGUN_MIX") else {
        return Ok(workloads::apache_db2());
    };
    workloads::mix_by_name(&value).ok_or_else(|| KnobError {
        name: "SHOTGUN_MIX".into(),
        value,
        why: "unknown mix (want e.g. apache+db2)".into(),
    })
}

/// `SHOTGUN_MIX`: the consolidation mix (default `apache+db2`). Exits
/// 2 on a name that is not a mix of presets.
pub fn mix() -> MixSpec {
    or_exit(mix_in(&text))
}

/// `SHOTGUN_THREADS`: sweep worker threads (default: all cores).
pub fn threads() -> usize {
    var("SHOTGUN_THREADS").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// `SHOTGUN_TRACE_DIR`: where sweeps persist and reuse recorded
/// traces, when set. Any path is valid, UTF-8 or not.
pub fn trace_dir() -> Option<PathBuf> {
    std::env::var_os("SHOTGUN_TRACE_DIR").map(PathBuf::from)
}

/// Writes `json` as `BENCH_<name>.json` under `SHOTGUN_JSON_DIR`, when
/// that is set, and reports the path written or the failure on stderr.
/// A failed write does not stop the binary: its tables are printed
/// either way.
pub fn write_bench_json(name: &str, json: &str) {
    let Some(dir) = std::env::var_os("SHOTGUN_JSON_DIR") else {
        return;
    };
    let path = PathBuf::from(dir).join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lookup over `vars`, every other name unset.
    fn table<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        }
    }

    const LEN: RunLength = RunLength {
        warmup: 2_000_000,
        measure: 8_000_000,
    };

    #[test]
    fn unset_knobs_give_the_defaults() {
        let none = table(&[]);
        assert_eq!(run_length_in(LEN, &none), Ok(LEN));
        assert_eq!(sampling_in(&none), Ok((SamplingSpec::DEFAULT, false)));
        assert_eq!(var_in::<f64>("SHOTGUN_SCALE", &none), Ok(None));
    }

    #[test]
    fn numbers_take_digit_separators() {
        let vars = table(&[
            ("SHOTGUN_WARMUP", "20_000"),
            ("SHOTGUN_INSTRS", "8_000_000"),
        ]);
        assert_eq!(
            run_length_in(LEN, &vars),
            Ok(RunLength {
                warmup: 20_000,
                measure: 8_000_000,
            })
        );
        let vars = table(&[("SHOTGUN_SAMPLING", "100_000:10_000:20_000")]);
        let (spec, set) = sampling_in(&vars).expect("valid");
        assert!(set);
        assert_eq!(
            (spec.interval, spec.detail, spec.warmup),
            (100_000, 10_000, 20_000)
        );
    }

    #[test]
    fn compact_sampling_sets_the_leading_fields() {
        let d = SamplingSpec::DEFAULT;
        for (value, expect) in [
            ("400000", (400_000, d.detail, d.warmup)),
            ("400000:40000", (400_000, 40_000, d.warmup)),
            ("400000:40000:80000", (400_000, 40_000, 80_000)),
        ] {
            let (spec, set) = sampling_in(&table(&[("SHOTGUN_SAMPLING", value)])).expect(value);
            assert!(set);
            assert_eq!((spec.interval, spec.detail, spec.warmup), expect, "{value}");
        }
    }

    #[test]
    fn per_field_sampling_knobs_override_the_compact_form() {
        let vars = table(&[
            ("SHOTGUN_SAMPLING", "400000:40000:80000"),
            ("SHOTGUN_SAMPLING_DETAIL", "10000"),
            ("SHOTGUN_SAMPLING_WARMUP", "5_000"),
        ]);
        let (spec, set) = sampling_in(&vars).expect("valid");
        assert!(set);
        assert_eq!(
            (spec.interval, spec.detail, spec.warmup),
            (400_000, 10_000, 5_000)
        );
        // Without the compact form, an override still applies but does
        // not count as asking for sampling.
        let vars = table(&[("SHOTGUN_SAMPLING_INTERVAL", "500000")]);
        let (spec, set) = sampling_in(&vars).expect("valid");
        assert!(!set);
        assert_eq!(spec.interval, 500_000);
    }

    #[test]
    fn malformed_values_name_the_variable() {
        let err = run_length_in(LEN, &table(&[("SHOTGUN_INSTRS", "8M")])).unwrap_err();
        assert!(err.to_string().starts_with("SHOTGUN_INSTRS=8M: "), "{err}");
        let err = var_in::<f64>("SHOTGUN_SCALE", &table(&[("SHOTGUN_SCALE", "0,1")])).unwrap_err();
        assert!(err.to_string().starts_with("SHOTGUN_SCALE=0,1: "), "{err}");
        for value in ["250000:x", "250000::1000", "1:2:3:4"] {
            let err = sampling_in(&table(&[("SHOTGUN_SAMPLING", value)])).unwrap_err();
            assert!(
                err.to_string()
                    .starts_with(&format!("SHOTGUN_SAMPLING={value}: ")),
                "{err}"
            );
        }
        let err = sampling_in(&table(&[("SHOTGUN_SAMPLING_WARMUP", "-1")])).unwrap_err();
        assert!(
            err.to_string().starts_with("SHOTGUN_SAMPLING_WARMUP=-1: "),
            "{err}"
        );
    }

    #[test]
    fn mix_defaults_to_apache_db2_and_rejects_unknown_names() {
        assert_eq!(mix_in(&table(&[])).expect("default").name, "apache+db2");
        let vars = table(&[("SHOTGUN_MIX", "oracle+oracle")]);
        assert_eq!(mix_in(&vars).expect("known").name, "oracle+oracle");
        let err = mix_in(&table(&[("SHOTGUN_MIX", "apache+db3")])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "SHOTGUN_MIX=apache+db3: unknown mix (want e.g. apache+db2)"
        );
    }
}
