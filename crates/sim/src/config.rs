//! The knob table: the one definition of every user-settable knob of a
//! [`Device`] — name, accepted values, default, effect text, setter.
//!
//! Everything that names a knob is derived from the `KNOBS` table: the
//! defaults of a fresh device, `SYCL_MLIR_SIM_<NAME>` environment
//! parsing ([`Device::from_vars`]), `--<name>=<value>` flag parsing
//! ([`Device::with_flags`]), the `--help`/README table ([`knob_table`])
//! and the `Display` of a device's effective configuration. A setting
//! that does not parse — a malformed value, or a name the table does not
//! have — is a [`ConfigError`], never a warning and a fallback: a typo
//! must not silently benchmark the wrong configuration.

use crate::device::{auto_threads, Device, Engine};
use std::fmt;

/// One row of the knob table.
struct Knob {
    /// Flag spelling without the dashes (`max-ops`); the environment
    /// variable is `SYCL_MLIR_SIM_` + the upper-snake form.
    name: &'static str,
    /// Accepted values, as shown in `--help` and in [`ConfigError`]s.
    values: &'static str,
    /// The value a fresh device starts from (one of `values`).
    default: &'static str,
    /// What the knob does (`--help`/README text, pre-wrapped).
    effect: &'static str,
    /// Parse `value` and apply it; `false` when it is not one of `values`.
    set: fn(&mut Device, &str) -> bool,
    /// The setting in effect, canonically spelled. A plan-engine-only
    /// knob reports what applies under the tree walk (sequential), so a
    /// `--engine=tree --threads=4` run never masquerades as a 4-thread
    /// measurement.
    get: fn(&Device) -> String,
}

fn on_off(v: &str) -> Option<bool> {
    match v {
        "on" | "1" | "true" => Some(true),
        "off" | "0" | "false" => Some(false),
        _ => None,
    }
}

fn show_on_off(on: bool) -> String {
    if on { "on" } else { "off" }.to_string()
}

/// An optional limit: `off`, or a non-negative integer.
fn limit(v: &str) -> Option<Option<u64>> {
    match v {
        "off" => Some(None),
        _ => v.parse().ok().map(Some),
    }
}

fn show_limit(l: Option<u64>) -> String {
    l.map_or_else(|| "off".to_string(), |n| n.to_string())
}

/// Store a parsed value through `store`; `false` when parsing failed.
fn put<T>(parsed: Option<T>, store: impl FnOnce(T)) -> bool {
    parsed.map(store).is_some()
}

fn plan_engine(d: &Device) -> bool {
    d.engine == Engine::Plan
}

const KNOBS: [Knob; 6] = [
    Knob {
        name: "engine",
        values: "tree | plan",
        default: "plan",
        effect: "tree = the resumable tree-walk reference interpreter over the structured IR\n\
                 (sequential, launches in submission order); plan = pre-decoded register-file\n\
                 bytecode run by the out-of-order launch scheduler",
        set: |d, v| {
            put(
                match v {
                    "tree" | "treewalk" | "tree-walk" => Some(Engine::TreeWalk),
                    "plan" => Some(Engine::Plan),
                    _ => None,
                },
                |e| d.engine = e,
            )
        },
        get: |d| d.engine.name().to_string(),
    },
    Knob {
        name: "threads",
        values: "N | auto | 0",
        default: "1",
        effect: "worker threads for plan-engine launches (auto/0 = the machine's available\n\
                 parallelism); results are bit-identical for every count",
        set: |d, v| {
            put(
                match v {
                    "auto" | "0" => Some(auto_threads()),
                    _ => v.parse().ok(),
                },
                |n| d.threads = n,
            )
        },
        get: |d| if plan_engine(d) { d.threads } else { 1 }.to_string(),
    },
    Knob {
        name: "profile",
        values: "on | off",
        default: "off",
        effect: "count executed plan instructions and dump per-opcode totals plus the ranked\n\
                 fusion candidates (Device::report)",
        set: |d, v| put(on_off(v), |on| d.profile = on),
        get: |d| show_on_off(d.profile),
    },
    Knob {
        name: "max-ops",
        values: "N | off",
        default: "off",
        effect: "weighted-operation budget per launch: a kernel exceeding it fails with a\n\
                 structured limit error (repro binaries exit 3) instead of spinning forever",
        set: |d, v| put(limit(v), |l| d.limits.max_ops = l),
        get: |d| show_limit(d.limits.max_ops),
    },
    Knob {
        name: "mem-cap",
        values: "BYTES | off",
        default: "off",
        effect: "cap on kernel-driven allocation growth (allocas, materialized constants)\n\
                 per worker per launch",
        set: |d, v| put(limit(v), |l| d.limits.mem_cap = l),
        get: |d| show_limit(d.limits.mem_cap),
    },
    Knob {
        name: "deadline-ms",
        values: "MS | off",
        default: "off",
        effect: "wall-clock deadline per launch graph, measured from submission",
        set: |d, v| put(limit(v), |l| d.limits.deadline_ms = l),
        get: |d| show_limit(d.limits.deadline_ms),
    },
];

/// Where a setting was written, which fixes how knob names are spelled
/// there (and so in the [`ConfigError`] naming them).
#[derive(Clone, Copy)]
enum Origin {
    /// `SYCL_MLIR_SIM_MAX_OPS`
    Env,
    /// `--max-ops`
    Flag,
}

impl Origin {
    fn spell(self, knob: &str) -> String {
        match self {
            Origin::Env => format!("{ENV_PREFIX}{}", knob.to_uppercase().replace('-', "_")),
            Origin::Flag => format!("--{knob}"),
        }
    }
}

const ENV_PREFIX: &str = "SYCL_MLIR_SIM_";

/// A rejected simulator setting: a value its knob does not accept, or a
/// `SYCL_MLIR_SIM_*` variable / `--name=value` flag naming no knob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The setting as the user wrote it (`SYCL_MLIR_SIM_THREADS=many`,
    /// `--sched=fifo`).
    pub setting: String,
    /// What is accepted in its place: the knob's values, or the known
    /// names when the name itself is unknown.
    pub accepted: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid simulator setting `{}` (expected {})",
            self.setting, self.accepted
        )
    }
}

impl std::error::Error for ConfigError {}

/// Apply one setting, `name` spelled as at `origin`.
fn apply(device: &mut Device, origin: Origin, name: &str, value: &str) -> Result<(), ConfigError> {
    let Some(knob) = KNOBS.iter().find(|k| origin.spell(k.name) == name) else {
        let known: Vec<String> = KNOBS.iter().map(|k| origin.spell(k.name)).collect();
        return Err(ConfigError {
            setting: format!("{name}={value}"),
            accepted: format!("one of {}", known.join(", ")),
        });
    };
    if (knob.set)(device, value) {
        Ok(())
    } else {
        Err(ConfigError {
            setting: format!("{name}={value}"),
            accepted: knob.values.to_string(),
        })
    }
}

impl Device {
    /// A device with every knob at its table default, reading nothing
    /// from the environment.
    pub(crate) fn table_defaults() -> Device {
        let mut device = Device::blank();
        for knob in &KNOBS {
            assert!(
                (knob.set)(&mut device, knob.default),
                "knob `{}`: default `{}` is not an accepted value",
                knob.name,
                knob.default
            );
        }
        device
    }

    /// The device configured by environment-style `(NAME, value)` pairs
    /// on top of the table defaults — the pure core of
    /// [`Device::try_from_env`]. Names outside the `SYCL_MLIR_SIM_`
    /// namespace are ignored.
    ///
    /// # Errors
    ///
    /// A `SYCL_MLIR_SIM_*` name that is not a knob, or a value its knob
    /// does not accept.
    pub fn from_vars<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<Device, ConfigError>
    where
        K: AsRef<str>,
        V: AsRef<str>,
    {
        let mut device = Device::table_defaults();
        for (name, value) in vars {
            if name.as_ref().starts_with(ENV_PREFIX) {
                apply(&mut device, Origin::Env, name.as_ref(), value.as_ref())?;
            }
        }
        Ok(device)
    }

    /// The device configured by the process environment
    /// (`SYCL_MLIR_SIM_<NAME>` per knob of the table).
    ///
    /// # Errors
    ///
    /// Like [`Device::from_vars`].
    pub fn try_from_env() -> Result<Device, ConfigError> {
        // Names that are not UTF-8 cannot be ours; a non-UTF-8 value of
        // one of ours degrades to a string its knob rejects.
        Device::from_vars(std::env::vars_os().filter_map(|(name, value)| {
            Some((
                name.into_string().ok()?,
                value.to_string_lossy().into_owned(),
            ))
        }))
    }

    /// Apply every `--<name>=<value>` argument on top of this device
    /// (flags win over the environment). Arguments of any other shape —
    /// `--quick`, positional words — belong to the caller and are
    /// skipped.
    ///
    /// # Errors
    ///
    /// A `--name=value` flag that names no knob, or a value its knob
    /// does not accept.
    pub fn with_flags<S: AsRef<str>>(
        mut self,
        args: impl IntoIterator<Item = S>,
    ) -> Result<Device, ConfigError> {
        for arg in args {
            if let Some((name, value)) = arg.as_ref().split_once('=') {
                if name.starts_with("--") {
                    apply(&mut self, Origin::Flag, name, value)?;
                }
            }
        }
        Ok(self)
    }

    /// Every knob with the setting in effect on this device, in table
    /// order.
    pub fn settings(&self) -> Vec<(&'static str, String)> {
        KNOBS.iter().map(|k| (k.name, (k.get)(self))).collect()
    }
}

/// The effective configuration, one `name: value` per knob in table
/// order — the `repro_wall_time_seconds:` trailer and (via
/// [`Device::settings`]) the `--json` header.
impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.settings().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{name}: {value}")?;
        }
        Ok(())
    }
}

/// The knob table as text: per knob its flag, environment variable,
/// accepted values and default, then what it does. `repro_* --help`
/// prints it and README.md embeds it (a test keeps them equal).
pub fn knob_table() -> String {
    let mut out = format!(
        "{:<15} {:<26} {:<20} {}\n",
        "flag", "env variable", "values", "default"
    );
    for k in &KNOBS {
        out.push_str(&format!(
            "{:<15} {:<26} {:<20} {}\n",
            format!("{}=", Origin::Flag.spell(k.name)),
            Origin::Env.spell(k.name),
            k.values,
            k.default
        ));
        for line in k.effect.lines() {
            out.push_str(&format!("    {line}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every knob: its accepted spellings, through the environment and
    /// through a flag, land on the expected effective setting; one bad
    /// value each is a [`ConfigError`] naming the variable and the
    /// accepted values.
    #[test]
    fn every_knob_parses_its_spellings_and_rejects_a_bad_value() {
        struct Case<'a> {
            knob: &'a str,
            /// `(spelling, effective setting)`
            good: &'a [(&'a str, &'a str)],
            bad: &'a str,
        }
        let case = |knob, good, bad| Case { knob, good, bad };
        let auto = auto_threads().to_string();
        let threads = [("1", "1"), ("4", "4"), ("auto", &*auto), ("0", &*auto)];
        let cases = [
            case(
                "engine",
                &[
                    ("tree", "tree-walk"),
                    ("treewalk", "tree-walk"),
                    ("tree-walk", "tree-walk"),
                    ("plan", "plan"),
                ],
                "bytecode",
            ),
            case("threads", &threads, "many"),
            case(
                "profile",
                &[
                    ("on", "on"),
                    ("1", "on"),
                    ("true", "on"),
                    ("off", "off"),
                    ("0", "off"),
                    ("false", "off"),
                ],
                "yes",
            ),
            case("max-ops", &[("2000000", "2000000"), ("off", "off")], "-1"),
            case("mem-cap", &[("4096", "4096"), ("off", "off")], "4k"),
            case("deadline-ms", &[("250", "250"), ("off", "off")], "soon"),
        ];
        assert_eq!(
            cases.each_ref().map(|c| c.knob),
            KNOBS.each_ref().map(|k| k.name),
            "the cases must cover the table, in order"
        );
        let setting_of = |d: &Device, knob: &str| {
            let (_, v) = d.settings().into_iter().find(|(n, _)| *n == knob).unwrap();
            v
        };
        for Case { knob, good, bad } in cases {
            let var = Origin::Env.spell(knob);
            let flag = Origin::Flag.spell(knob);
            let values = KNOBS.iter().find(|k| k.name == knob).unwrap().values;
            for &(spelling, want) in good {
                let from_env = Device::from_vars([(var.as_str(), spelling)]).unwrap();
                assert_eq!(setting_of(&from_env, knob), want, "{var}={spelling}");
                let from_flag = Device::table_defaults()
                    .with_flags([format!("{flag}={spelling}")])
                    .unwrap();
                assert_eq!(setting_of(&from_flag, knob), want, "{flag}={spelling}");
            }
            let err = Device::from_vars([(var.as_str(), bad)]).unwrap_err();
            assert_eq!(err.setting, format!("{var}={bad}"));
            assert_eq!(err.accepted, values);
            let err = Device::table_defaults()
                .with_flags([format!("{flag}={bad}")])
                .unwrap_err();
            assert_eq!(err.setting, format!("{flag}={bad}"));
            assert_eq!(err.accepted, values);
        }
    }

    /// The retired A/B settings are errors, not silently ignored: each
    /// removed variable and flag, and any other unknown name in the
    /// namespace.
    #[test]
    fn removed_and_unknown_names_are_errors() {
        for removed in [
            "BATCH",
            "OVERLAP",
            "HOST_NODES",
            "SCHED",
            "JIT_THRESHOLD",
            "JIT",
            "FUSE",
            "VERIFY",
            "FAULT",
            "TYPO",
        ] {
            let var = format!("SYCL_MLIR_SIM_{removed}");
            let err = Device::from_vars([(var.as_str(), "on")]).unwrap_err();
            assert_eq!(err.setting, format!("{var}=on"));
            assert!(
                err.accepted.contains("SYCL_MLIR_SIM_ENGINE")
                    && err.accepted.contains("SYCL_MLIR_SIM_DEADLINE_MS"),
                "unknown names list the known ones: {err}"
            );
        }
        for removed in [
            "batch",
            "overlap",
            "host-nodes",
            "sched",
            "jit-threshold",
            "jit",
            "fuse",
            "verify",
        ] {
            let err = Device::table_defaults()
                .with_flags([format!("--{removed}=off")])
                .unwrap_err();
            assert_eq!(err.setting, format!("--{removed}=off"));
            assert!(err.accepted.contains("--engine"), "{err}");
        }
        let err = Device::from_vars([("SYCL_MLIR_SIM_VERIFY", "strict")]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid simulator setting `SYCL_MLIR_SIM_VERIFY=strict` (expected one of \
             SYCL_MLIR_SIM_ENGINE, SYCL_MLIR_SIM_THREADS, SYCL_MLIR_SIM_PROFILE, \
             SYCL_MLIR_SIM_MAX_OPS, SYCL_MLIR_SIM_MEM_CAP, SYCL_MLIR_SIM_DEADLINE_MS)"
        );
        // Other programs' variables and the binaries' own flags pass.
        let d = Device::from_vars([("PATH", "/bin"), ("SYCL_MLIR_OTHER", "x")]).unwrap();
        let d = d.with_flags(["--quick", "--json", "positional"]).unwrap();
        assert_eq!(d.to_string(), Device::table_defaults().to_string());
    }

    /// Flags win over the environment, and the `Display` reports what is
    /// in effect: the tree walk runs sequentially.
    #[test]
    fn display_is_the_effective_configuration() {
        let d = Device::from_vars([
            ("SYCL_MLIR_SIM_THREADS", "4"),
            ("SYCL_MLIR_SIM_PROFILE", "on"),
        ])
        .unwrap()
        .with_flags(["--profile=off", "--max-ops=7"])
        .unwrap();
        assert_eq!(
            d.to_string(),
            "engine: plan, threads: 4, profile: off, max-ops: 7, mem-cap: off, deadline-ms: off"
        );
        let tree = d.with_flags(["--engine=tree"]).unwrap();
        assert_eq!(
            tree.to_string(),
            "engine: tree-walk, threads: 1, profile: off, max-ops: 7, mem-cap: off, \
             deadline-ms: off"
        );
    }

    /// README.md embeds [`knob_table`] verbatim; a knob added, removed
    /// or reworded without regenerating the README fails here.
    #[test]
    fn readme_embeds_the_knob_table() {
        let readme = include_str!("../../../README.md");
        for line in knob_table().lines() {
            assert!(
                readme.contains(line),
                "README.md is missing this knob-table line (regenerate the table from \
                 `repro_all --help`):\n{line}"
            );
        }
    }
}
