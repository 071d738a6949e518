//! Experiment specifications: one serde-round-trippable schema shared by
//! the `sammy-serve` HTTP API, the `sammy-sim` CLI, and the bench
//! harnesses.
//!
//! Before this crate, `LabConfig`, `TcpConfig`, `ExperimentConfig`, and the
//! CLI's string-matched flags each re-declared overlapping fields; every
//! consumer now builds its config *from* these types. JSON is the wire
//! format (see [`json`] — the serde shim is a no-op, so the codec is
//! hand-rolled), with three schema rules applied uniformly:
//!
//! - **unknown fields are rejected** (`deny_unknown_fields` semantics): a
//!   typo in a submitted spec is a 4xx, never a silently-defaulted run;
//! - **missing fields take defaults**, so a minimal `{}` is a valid spec;
//! - **writing is deterministic**: field order is fixed and floats use
//!   shortest round-trip form, so a spec (or a search checkpoint built
//!   from one) re-renders byte-identically after any number of
//!   parse/write cycles.

pub mod json;

use json::{obj, Value};
use netsim::{DumbbellConfig, Rate, SimDuration, SimError};
use serde::{Deserialize, Serialize};
use transport::{CcAlgorithm, Protocol};

fn no_unknown_field(
    what: &'static str,
    known: &[&str],
    fields: &[(String, Value)],
) -> Result<(), SimError> {
    match fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        None => Ok(()),
        Some((k, _)) => Err(SimError::Parse {
            what,
            input: k.clone(),
            reason: format!("unknown field `{k}` (known fields: {})", known.join(", ")),
        }),
    }
}

fn want_obj<'v>(what: &'static str, v: &'v Value) -> Result<&'v [(String, Value)], SimError> {
    v.as_obj().ok_or_else(|| SimError::Parse {
        what,
        input: v.to_string(),
        reason: "expected a JSON object".into(),
    })
}

fn field_err(what: &'static str, key: &str, v: &Value, want: &str) -> SimError {
    SimError::Parse {
        what,
        input: v.to_string(),
        reason: format!("field `{key}`: expected {want}"),
    }
}

/// A spec field type: how it renders to JSON and parses back. `what` and
/// `key` name the enclosing object and field for the error message; a
/// nested spec reports its own errors and ignores them.
trait Field: Sized {
    fn render(&self) -> Value;
    fn parse(what: &'static str, key: &str, v: &Value) -> Result<Self, SimError>;
}

impl Field for f64 {
    fn render(&self) -> Value {
        Value::Num(*self)
    }
    fn parse(what: &'static str, key: &str, v: &Value) -> Result<Self, SimError> {
        v.as_f64()
            .ok_or_else(|| field_err(what, key, v, "a number"))
    }
}

/// Integers travel as JSON numbers, exact up to 2^53 (`as_u64` refuses
/// more); one that does not fit the field's type is refused, not truncated.
macro_rules! int_field {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn render(&self) -> Value {
                Value::Num(*self as f64)
            }
            fn parse(what: &'static str, key: &str, v: &Value) -> Result<Self, SimError> {
                v.as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| field_err(what, key, v, "a non-negative integer"))
            }
        }
    )+};
}
int_field!(u64, usize, u32);

impl Field for bool {
    fn render(&self) -> Value {
        Value::Bool(*self)
    }
    fn parse(what: &'static str, key: &str, v: &Value) -> Result<Self, SimError> {
        v.as_bool()
            .ok_or_else(|| field_err(what, key, v, "a boolean"))
    }
}

impl Field for String {
    fn render(&self) -> Value {
        Value::Str(self.clone())
    }
    fn parse(what: &'static str, key: &str, v: &Value) -> Result<Self, SimError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| field_err(what, key, v, "a string"))
    }
}

/// The two wire enums: a string, then their own `FromStr`.
macro_rules! enum_field {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn render(&self) -> Value {
                Value::Str(self.to_string())
            }
            fn parse(what: &'static str, key: &str, v: &Value) -> Result<Self, SimError> {
                v.as_str()
                    .ok_or_else(|| field_err(what, key, v, "a string"))?
                    .parse()
            }
        }
    )+};
}
enum_field!(Protocol, CcAlgorithm);

impl Field for Vec<ArmPoint> {
    fn render(&self) -> Value {
        Value::Arr(self.iter().map(ArmPoint::to_json).collect())
    }
    fn parse(what: &'static str, key: &str, v: &Value) -> Result<Self, SimError> {
        v.as_arr()
            .ok_or_else(|| field_err(what, key, v, "an array"))?
            .iter()
            .map(ArmPoint::from_json)
            .collect()
    }
}

/// A nested spec is a field of its parent through its own codec.
macro_rules! nested_field {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn render(&self) -> Value {
                self.to_json()
            }
            fn parse(_: &'static str, _: &str, v: &Value) -> Result<Self, SimError> {
                Self::from_json(v)
            }
        }
    )+};
}
nested_field!(ArmSpec);

/// One field list per spec struct. Emits, in declaration order: the
/// struct, its `Default`, `to_json` (fixed field order — deterministic
/// bytes) and `from_json` (an object; unknown fields rejected naming the
/// known ones; missing fields default), and its [`Field`] impl so it nests.
/// `checked by f` runs `f(&spec)?` on the parsed value — the hand-written
/// semantic checks.
macro_rules! spec_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(checked by $check:path)? {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident: $ty:ty = $default:expr,
            )+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )+
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $( $field: $default, )+ }
            }
        }

        impl $name {
            /// Render as a JSON value.
            pub fn to_json(&self) -> Value {
                obj(vec![ $( (stringify!($field), self.$field.render()), )+ ])
            }

            /// Parse from a JSON value; missing fields default, unknown fields err.
            pub fn from_json(v: &Value) -> Result<Self, SimError> {
                const WHAT: &str = stringify!($name);
                let fields = want_obj(WHAT, v)?;
                no_unknown_field(WHAT, &[$(stringify!($field)),+], fields)?;
                let mut spec = $name::default();
                $(
                    if let Some(f) = v.get(stringify!($field)) {
                        spec.$field = Field::parse(WHAT, stringify!($field), f)?;
                    }
                )+
                $( $check(&spec)?; )?
                Ok(spec)
            }
        }

        nested_field!($name);
    };
}

/// A pace multiplier: a number, and positive. The runner's
/// `PaceSelector::new` / `NaivePacedAbr::new` assert exactly this, so a
/// zero or negative one that got past here would be a panic per user.
fn get_multiplier(
    what: &'static str,
    v: &Value,
    key: &'static str,
    default: f64,
) -> Result<f64, SimError> {
    let m = match v.get(key) {
        None => default,
        Some(f) => f64::parse(what, key, f)?,
    };
    if m > 0.0 {
        Ok(m)
    } else {
        Err(SimError::InvalidConfig {
            field: key,
            reason: format!("pace multipliers must be positive, got {m}"),
        })
    }
}

spec_struct! {
    /// Wire protocol + congestion control + pacing burst for the video sender.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct TransportSpec {
        /// Wire protocol (`"tcp"` or `"quic"`).
        pub protocol: Protocol = Protocol::Tcp,
        /// Congestion control (`"reno"`, `"cubic"`, `"bbr"`, `"ledbat"`).
        pub cc: CcAlgorithm = CcAlgorithm::Reno,
        /// Pacer burst allowance in packets.
        pub burst_packets: u32 = 4,
    }
}

spec_struct! {
    /// Bottleneck network shape for lab (dumbbell) experiments. Defaults
    /// to the paper's lab setup (§6): 40 Mbps, 5 ms RTT, 4x BDP queue.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct NetworkSpec checked by NetworkSpec::check {
        /// Bottleneck rate in Mbps.
        pub rate_mbps: f64 = 40.0,
        /// Path round-trip propagation time in ms.
        pub rtt_ms: f64 = 5.0,
        /// Bottleneck queue size as a multiple of the BDP.
        pub queue_bdp: f64 = 4.0,
        /// Simulated run length in seconds.
        pub run_secs: u64 = 120,
    }
}

impl NetworkSpec {
    /// A dumbbell needs a positive rate and queue and a non-negative RTT,
    /// all finite: a zero rate divides, and its play delay prints NaN. The
    /// run length and the RTT must fit the simulation clock.
    fn check(&self) -> Result<(), SimError> {
        for (field, value, lowest_ok) in [
            ("rate_mbps", self.rate_mbps, f64::MIN_POSITIVE),
            ("rtt_ms", self.rtt_ms, 0.0),
            ("queue_bdp", self.queue_bdp, f64::MIN_POSITIVE),
        ] {
            if !(value.is_finite() && value >= lowest_ok) {
                let bound = if lowest_ok > 0.0 {
                    "positive"
                } else {
                    "non-negative"
                };
                return Err(SimError::InvalidConfig {
                    field,
                    reason: format!("must be finite and {bound}, got {value}"),
                });
            }
        }
        // Both become `u64` nanoseconds: past that a run length wraps and
        // an RTT saturates, and the run is silently another one.
        let clock = |field, value: String| SimError::InvalidConfig {
            field,
            reason: format!("must fit in u64 nanoseconds, got {value}"),
        };
        if self.run_secs.checked_mul(1_000_000_000).is_none() {
            return Err(clock("run_secs", self.run_secs.to_string()));
        }
        if (self.rtt_ms / 1000.0 * 1e9).round() >= u64::MAX as f64 {
            return Err(clock("rtt_ms", self.rtt_ms.to_string()));
        }
        Ok(())
    }

    /// The dumbbell this network describes, with `pairs` host pairs.
    pub fn dumbbell(&self, pairs: usize) -> DumbbellConfig {
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(self.rate_mbps),
            rtt: SimDuration::from_secs_f64(self.rtt_ms / 1000.0),
            queue_bdp_multiple: self.queue_bdp,
            pairs,
        }
    }

    /// The run length as a simulation duration.
    pub fn run_for(&self) -> SimDuration {
        SimDuration::from_secs(self.run_secs)
    }
}

/// Which algorithm variant an arm runs (tagged by `kind` on the wire).
/// Each maps onto an `abtest::Arm`; the runner's Fig 6 history-reset arm
/// has no spec form and is reached from code only.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArmSpec {
    /// Production MPC, all-samples history, no pacing.
    Production,
    /// Sammy with the given pace multipliers.
    Sammy {
        /// Pace multiplier at empty buffer.
        c0: f64,
        /// Pace multiplier at full buffer.
        c1: f64,
    },
    /// Sammy's initial-phase changes only, no pacing.
    InitialOnly,
    /// Production ABR with a constant pace multiplier on every chunk.
    NaivePaced {
        /// Constant pace multiplier.
        multiplier: f64,
    },
}

impl ArmSpec {
    const WHAT: &'static str = "ArmSpec";

    /// Render as a JSON value: `{"kind":"sammy","c0":3.2,"c1":2.8}` etc.
    pub fn to_json(&self) -> Value {
        match *self {
            ArmSpec::Production => obj(vec![("kind", Value::Str("production".into()))]),
            ArmSpec::Sammy { c0, c1 } => obj(vec![
                ("kind", Value::Str("sammy".into())),
                ("c0", Value::Num(c0)),
                ("c1", Value::Num(c1)),
            ]),
            ArmSpec::InitialOnly => obj(vec![("kind", Value::Str("initial-only".into()))]),
            ArmSpec::NaivePaced { multiplier } => obj(vec![
                ("kind", Value::Str("naive-paced".into())),
                ("multiplier", Value::Num(multiplier)),
            ]),
        }
    }

    /// Parse from a JSON value. The `kind` tag is required; per-kind
    /// numeric fields default to the paper's production values.
    pub fn from_json(v: &Value) -> Result<Self, SimError> {
        let fields = want_obj(Self::WHAT, v)?;
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| SimError::Parse {
                what: Self::WHAT,
                input: v.to_string(),
                reason: "missing `kind` tag (production, sammy, initial-only, naive-paced)".into(),
            })?;
        let known: &[&str] = match kind {
            "production" | "initial-only" => &["kind"],
            "sammy" => &["kind", "c0", "c1"],
            "naive-paced" => &["kind", "multiplier"],
            other => {
                return Err(SimError::Parse {
                    what: Self::WHAT,
                    input: other.to_string(),
                    reason: "expected production, sammy, initial-only, or naive-paced".into(),
                })
            }
        };
        no_unknown_field(Self::WHAT, known, fields)?;
        Ok(match kind {
            "production" => ArmSpec::Production,
            "initial-only" => ArmSpec::InitialOnly,
            "sammy" => ArmSpec::Sammy {
                c0: get_multiplier(Self::WHAT, v, "c0", 3.2)?,
                c1: get_multiplier(Self::WHAT, v, "c1", 2.8)?,
            },
            _ => ArmSpec::NaivePaced {
                multiplier: get_multiplier(Self::WHAT, v, "multiplier", 4.0)?,
            },
        })
    }
}

/// Ceiling on [`ExperimentSpec::bootstrap_reps`]. The streaming runner
/// holds `8 × reps` 16-byte replicate slots per shard state (12.8 MB
/// here); an unbounded count is an allocation abort, not an error.
pub const MAX_BOOTSTRAP_REPS: usize = 100_000;

/// Ceiling on the users per arm of a search's final rung
/// (`initial_users × eta^(rungs−1)`). An evaluation derives its users one
/// at a time and folds them at O(threads) memory, so the cap bounds run
/// time — every arm of the final rung is that many user pairs — not memory.
/// [`SearchSpec::validate`] computes the product with checked arithmetic.
pub const MAX_SEARCH_USERS: usize = 100_000;

spec_struct! {
    /// A complete A/B experiment: arms, population sizing, seeds, and the
    /// network/transport substrate. The single source of truth consumed by
    /// `POST /runs`, `sammy-sim`, and `bench::{lab,matrix}`.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct ExperimentSpec checked by ExperimentSpec::check {
        /// Human-readable experiment name (labels reports and run dirs).
        pub name: String = "experiment".into(),
        /// Control arm.
        pub control: ArmSpec = ArmSpec::Production,
        /// Treatment arm.
        pub treatment: ArmSpec = ArmSpec::Sammy { c0: 3.2, c1: 2.8 },
        /// Users per arm.
        pub users_per_arm: usize = 400,
        /// Pre-experiment sessions per user (history warm-up).
        pub pre_sessions: usize = 3,
        /// Experiment sessions per user.
        pub sessions_per_user: usize = 4,
        /// Seed for population and session randomness.
        pub seed: u64 = 1,
        /// Bootstrap replicates for CIs.
        pub bootstrap_reps: usize = 600,
        /// Worker threads (0 = all cores); never affects results.
        pub threads: usize = 0,
        /// Users per shard for the streaming runner.
        pub shard_size: usize = 256,
        /// Use the trimmed-down population model (fast CI runs).
        pub light_population: bool = false,
        /// Bottleneck network shape (lab harnesses only).
        pub network: NetworkSpec = NetworkSpec::default(),
        /// Transport substrate (lab harnesses only).
        pub transport: TransportSpec = TransportSpec::default(),
    }
}

impl ExperimentSpec {
    /// An experiment needs a user, a session and a replicate — a zero is
    /// refused where the spec enters (`POST /runs`, a search's base, the
    /// CLI), not by the job it would have become — and a replicate count
    /// under [`MAX_BOOTSTRAP_REPS`].
    fn check(&self) -> Result<(), SimError> {
        for (field, value) in [
            ("users_per_arm", self.users_per_arm),
            ("sessions_per_user", self.sessions_per_user),
            ("bootstrap_reps", self.bootstrap_reps),
        ] {
            if value == 0 {
                return Err(SimError::InvalidConfig {
                    field,
                    reason: "must be at least 1".into(),
                });
            }
        }
        if self.bootstrap_reps > MAX_BOOTSTRAP_REPS {
            return Err(SimError::InvalidConfig {
                field: "bootstrap_reps",
                reason: format!(
                    "must be at most {MAX_BOOTSTRAP_REPS}, got {}",
                    self.bootstrap_reps
                ),
            });
        }
        Ok(())
    }

    /// Parse from a JSON string.
    pub fn from_json_str(s: &str) -> Result<Self, SimError> {
        Self::from_json(&json::parse(s)?)
    }
}

spec_struct! {
    /// QoE guardrails a candidate arm must satisfy (percent-change bounds vs
    /// control, from the median statistic).
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct GuardSpec {
        /// Lowest acceptable VMAF change (%).
        pub min_vmaf_pct: f64 = -0.1,
        /// Highest acceptable play-delay change (%).
        pub max_play_delay_pct: f64 = 1.0,
        /// Highest acceptable rebuffer-rate change (%).
        pub max_rebuffer_pct: f64 = 5.0,
    }
}

/// One `(c0, c1)` candidate point in a search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmPoint {
    /// Pace multiplier at empty buffer.
    pub c0: f64,
    /// Pace multiplier at full buffer.
    pub c1: f64,
}

impl ArmPoint {
    const WHAT: &'static str = "ArmPoint";
    const FIELDS: &'static [&'static str] = &["c0", "c1"];

    /// Render as a JSON value.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("c0", Value::Num(self.c0)),
            ("c1", Value::Num(self.c1)),
        ])
    }

    /// Parse from a JSON value. Both coordinates are required, and
    /// positive.
    pub fn from_json(v: &Value) -> Result<Self, SimError> {
        let fields = want_obj(Self::WHAT, v)?;
        no_unknown_field(Self::WHAT, Self::FIELDS, fields)?;
        let need = |key: &'static str| match v.get(key) {
            Some(_) => get_multiplier(Self::WHAT, v, key, f64::NAN),
            None => Err(SimError::Parse {
                what: Self::WHAT,
                input: v.to_string(),
                reason: format!("field `{key}` is required and must be a number"),
            }),
        };
        Ok(ArmPoint {
            c0: need("c0")?,
            c1: need("c1")?,
        })
    }
}

spec_struct! {
    /// A successive-halving `(c0, c1)` search: candidate arms, rung sizing,
    /// QoE guards, and the base experiment every evaluation derives from.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct SearchSpec checked by SearchSpec::validate {
        /// Human-readable search name.
        pub name: String = "search".into(),
        /// Candidate `(c0, c1)` arms entering rung 0.
        pub arms: Vec<ArmPoint> = Vec::new(),
        /// Users per arm in rung 0; each rung multiplies this by `eta`.
        pub initial_users: usize = 32,
        /// Halving factor: survivors per rung = ceil(n / eta).
        pub eta: usize = 2,
        /// Number of rungs.
        pub rungs: usize = 3,
        /// QoE guardrails pruning candidates early.
        pub guards: GuardSpec = GuardSpec::default(),
        /// Base experiment each evaluation derives from (`users_per_arm` and
        /// `treatment` are overridden per rung/arm; everything else applies).
        pub base: ExperimentSpec = ExperimentSpec::default(),
    }
}

impl SearchSpec {
    /// Reject a search that cannot run: no arms, an empty rung 0, a
    /// halving factor that does not halve, a rung count outside 1..=20, or
    /// a final rung past [`MAX_SEARCH_USERS`]. [`from_json`](Self::from_json)
    /// ends with this and the search itself starts with it, so the HTTP
    /// submit path, the daemon's worker re-reading `spec.json`, and a spec
    /// built in code all meet the same check.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid =
            |field: &'static str, reason: String| Err(SimError::InvalidConfig { field, reason });
        if self.arms.is_empty() {
            return invalid("arms", "need at least one candidate arm".into());
        }
        if self.initial_users == 0 {
            return invalid("initial_users", "need at least one user in rung 0".into());
        }
        if self.eta < 2 {
            return invalid("eta", "halving needs eta >= 2".into());
        }
        if self.rungs == 0 || self.rungs > 20 {
            return invalid("rungs", "need 1..=20 rungs".into());
        }
        let final_rung = u32::try_from(self.rungs - 1)
            .ok()
            .and_then(|r| self.eta.checked_pow(r))
            .and_then(|growth| self.initial_users.checked_mul(growth));
        match final_rung {
            Some(users) if users <= MAX_SEARCH_USERS => Ok(()),
            _ => invalid(
                "initial_users",
                format!(
                    "final rung needs initial_users x eta^(rungs-1) = {} x {}^{} users per arm, \
                     over MAX_SEARCH_USERS = {MAX_SEARCH_USERS}",
                    self.initial_users,
                    self.eta,
                    self.rungs - 1
                ),
            ),
        }
    }

    /// Users per arm at `rung` (0-based) of a [validated](Self::validate)
    /// search.
    pub fn rung_users(&self, rung: usize) -> usize {
        self.initial_users * self.eta.pow(rung as u32)
    }

    /// Parse from a JSON string.
    pub fn from_json_str(s: &str) -> Result<Self, SimError> {
        Self::from_json(&json::parse(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_experiment() -> ExperimentSpec {
        // Every field away from its default, so a dropped field in either
        // direction of the codec fails the equality check.
        ExperimentSpec {
            name: "full \"quoted\" name".into(),
            control: ArmSpec::InitialOnly,
            treatment: ArmSpec::NaivePaced { multiplier: 4.5 },
            users_per_arm: 17,
            pre_sessions: 5,
            sessions_per_user: 7,
            seed: u64::from(u32::MAX) + 12,
            bootstrap_reps: 321,
            threads: 3,
            shard_size: 64,
            light_population: true,
            network: NetworkSpec {
                rate_mbps: 17.25,
                rtt_ms: 41.5,
                queue_bdp: 2.75,
                run_secs: 77,
            },
            transport: TransportSpec {
                protocol: Protocol::Quic,
                cc: CcAlgorithm::Cubic,
                burst_packets: 9,
            },
        }
    }

    #[test]
    fn experiment_spec_round_trips_every_field() {
        let spec = full_experiment();
        let text = spec.to_json().to_string();
        let back = ExperimentSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        // And the re-render is byte-identical (deterministic writer).
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn arm_spec_round_trips_all_kinds() {
        for arm in [
            ArmSpec::Production,
            ArmSpec::Sammy { c0: 3.2, c1: 2.8 },
            ArmSpec::Sammy {
                c0: 1.0 / 3.0,
                c1: 0.1 + 0.2,
            },
            ArmSpec::InitialOnly,
            ArmSpec::NaivePaced { multiplier: 4.0 },
        ] {
            let text = arm.to_json().to_string();
            assert_eq!(
                ArmSpec::from_json(&json::parse(&text).unwrap()).unwrap(),
                arm
            );
        }
    }

    #[test]
    fn search_spec_round_trips_every_field() {
        let spec = SearchSpec {
            name: "tune".into(),
            arms: vec![ArmPoint { c0: 3.2, c1: 2.8 }, ArmPoint { c0: 1.4, c1: 1.2 }],
            initial_users: 8,
            eta: 3,
            rungs: 4,
            guards: GuardSpec {
                min_vmaf_pct: -0.25,
                max_play_delay_pct: 2.5,
                max_rebuffer_pct: 7.5,
            },
            base: full_experiment(),
        };
        let text = spec.to_json().to_string();
        let back = SearchSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn minimal_object_takes_defaults() {
        let spec = ExperimentSpec::from_json_str("{}").unwrap();
        assert_eq!(spec, ExperimentSpec::default());
        // A search needs its arms; everything else defaults.
        let arms = vec![ArmPoint { c0: 2.0, c1: 1.75 }];
        let search = SearchSpec::from_json_str(r#"{"arms":[{"c0":2.0,"c1":1.75}]}"#).unwrap();
        assert_eq!(
            search,
            SearchSpec {
                arms,
                ..SearchSpec::default()
            }
        );
        // Partial objects override only what they name.
        let spec = ExperimentSpec::from_json_str(r#"{"seed":9,"network":{"rtt_ms":80}}"#).unwrap();
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.network.rtt_ms, 80.0);
        assert_eq!(spec.network.rate_mbps, 40.0);
        assert_eq!(spec.users_per_arm, 400);
    }

    #[test]
    fn bootstrap_reps_has_a_ceiling_in_runs_and_search_bases() {
        let at = format!(r#"{{"bootstrap_reps":{MAX_BOOTSTRAP_REPS}}}"#);
        assert!(ExperimentSpec::from_json_str(&at).is_ok());
        let over = format!(r#"{{"bootstrap_reps":{}}}"#, MAX_BOOTSTRAP_REPS + 1);
        for err in [
            ExperimentSpec::from_json_str(&over).unwrap_err(),
            SearchSpec::from_json_str(&format!(r#"{{"base":{over}}}"#)).unwrap_err(),
        ] {
            assert!(
                matches!(
                    err,
                    SimError::InvalidConfig {
                        field: "bootstrap_reps",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn zero_sized_experiments_are_refused_naming_the_field() {
        for field in ["users_per_arm", "sessions_per_user", "bootstrap_reps"] {
            let zero = format!(r#"{{"{field}":0}}"#);
            assert_eq!(invalid_field(ExperimentSpec::from_json_str(&zero)), field);
            let base = format!(r#"{{"arms":[{{"c0":2,"c1":2}}],"base":{zero}}}"#);
            assert_eq!(invalid_field(SearchSpec::from_json_str(&base)), field);
            let one = format!(r#"{{"{field}":1}}"#);
            assert!(ExperimentSpec::from_json_str(&one).is_ok());
        }
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        for (text, name) in [
            (r#"{"users":10}"#, "users"),
            (r#"{"network":{"rate":40}}"#, "rate"),
            (r#"{"transport":{"proto":"tcp"}}"#, "proto"),
            (r#"{"treatment":{"kind":"sammy","c2":1.0}}"#, "c2"),
            (r#"{"treatment":{"kind":"production","c0":1.0}}"#, "c0"),
        ] {
            let e = ExperimentSpec::from_json_str(text).unwrap_err().to_string();
            assert!(e.contains(name), "{text}: {e}");
        }
        let e = SearchSpec::from_json_str(r#"{"arms":[{"c0":1.0,"c1":1.0,"c3":0.0}]}"#)
            .unwrap_err()
            .to_string();
        assert!(e.contains("c3"), "{e}");

        // The generated codecs: `to_json` lists exactly the struct's fields
        // in declaration order, and the same object with any one of them
        // misspelt is rejected naming the misspelling.
        fn misspellings(rendered: Value, declared: &[&str], parse: fn(&Value) -> Option<SimError>) {
            let fields = rendered.as_obj().unwrap();
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, declared);
            assert!(parse(&rendered).is_none(), "{rendered}");
            for i in 0..fields.len() {
                let mut bad = fields.to_vec();
                bad[i].0.push('x');
                let e = parse(&Value::Obj(bad)).expect("misspelt field accepted");
                let typo = format!("unknown field `{}x`", declared[i]);
                assert!(e.to_string().contains(&typo), "{e}");
            }
        }
        let search = SearchSpec {
            arms: vec![ArmPoint { c0: 2.0, c1: 2.0 }],
            ..Default::default()
        };
        misspellings(
            search.base.transport.to_json(),
            &["protocol", "cc", "burst_packets"],
            |v| TransportSpec::from_json(v).err(),
        );
        misspellings(
            search.base.network.to_json(),
            &["rate_mbps", "rtt_ms", "queue_bdp", "run_secs"],
            |v| NetworkSpec::from_json(v).err(),
        );
        misspellings(
            search.guards.to_json(),
            &["min_vmaf_pct", "max_play_delay_pct", "max_rebuffer_pct"],
            |v| GuardSpec::from_json(v).err(),
        );
        misspellings(
            search.base.to_json(),
            &[
                "name",
                "control",
                "treatment",
                "users_per_arm",
                "pre_sessions",
                "sessions_per_user",
                "seed",
                "bootstrap_reps",
                "threads",
                "shard_size",
                "light_population",
                "network",
                "transport",
            ],
            |v| ExperimentSpec::from_json(v).err(),
        );
        misspellings(
            search.to_json(),
            &[
                "name",
                "arms",
                "initial_users",
                "eta",
                "rungs",
                "guards",
                "base",
            ],
            |v| SearchSpec::from_json(v).err(),
        );
    }

    #[test]
    fn bad_enum_spellings_are_parse_errors() {
        let e = ExperimentSpec::from_json_str(r#"{"transport":{"protocol":"sctp"}}"#)
            .unwrap_err()
            .to_string();
        assert!(e.contains("sctp"), "{e}");
        let e = ExperimentSpec::from_json_str(r#"{"transport":{"cc":"vegas"}}"#)
            .unwrap_err()
            .to_string();
        assert!(e.contains("vegas"), "{e}");
        let e = ExperimentSpec::from_json_str(r#"{"control":{"kind":"sammy2"}}"#)
            .unwrap_err()
            .to_string();
        assert!(e.contains("sammy2"), "{e}");
    }

    #[test]
    fn integers_that_do_not_fit_are_refused_not_truncated() {
        // 2^32 + 4 used to parse as a burst of 4 packets.
        let e = ExperimentSpec::from_json_str(r#"{"transport":{"burst_packets":4294967300}}"#)
            .unwrap_err()
            .to_string();
        assert!(e.contains("burst_packets"), "{e}");
        // Past 2^53 a JSON number is no longer an exact integer.
        let e = ExperimentSpec::from_json_str(r#"{"seed":18446744073709551615}"#)
            .unwrap_err()
            .to_string();
        assert!(e.contains("seed"), "{e}");
    }

    /// What `field` an `InvalidConfig` rejection names.
    fn invalid_field<T: std::fmt::Debug>(r: Result<T, SimError>) -> &'static str {
        match r {
            Err(SimError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn search_spec_rejects_bad_setups() {
        let ok = SearchSpec {
            arms: vec![ArmPoint { c0: 2.0, c1: 2.0 }, ArmPoint { c0: 3.0, c1: 3.0 }],
            initial_users: 4,
            ..Default::default()
        };
        assert!(ok.validate().is_ok());
        type Breakage = (fn(&mut SearchSpec), &'static str);
        let breakages: [Breakage; 8] = [
            (|s| s.arms.clear(), "arms"),
            (|s| s.initial_users = 0, "initial_users"),
            (|s| s.eta = 1, "eta"),
            (|s| s.rungs = 0, "rungs"),
            (|s| s.rungs = 99, "rungs"),
            // The reproducer: 4 × (10^11)^2 overflows a usize.
            (|s| s.eta = 100_000_000_000, "initial_users"),
            // No overflow, but a final rung of 4 × 2^19 users.
            (|s| s.rungs = 20, "initial_users"),
            (
                |s| s.initial_users = MAX_SEARCH_USERS / 4 + 1,
                "initial_users",
            ),
        ];
        for (breakage, field) in breakages {
            let mut bad = ok.clone();
            breakage(&mut bad);
            assert_eq!(invalid_field(bad.validate()), field, "{bad:?}");
            // Parsing ends with the same check, so neither the HTTP API
            // nor a `spec.json` already on disk can carry one in.
            let text = bad.to_json().to_string();
            assert_eq!(invalid_field(SearchSpec::from_json_str(&text)), field);
        }
        // At the ceiling is fine, and the rung sizes are what it bounded.
        let at = SearchSpec {
            initial_users: MAX_SEARCH_USERS / 4,
            ..ok
        };
        assert!(at.validate().is_ok());
        assert_eq!(at.rung_users(0), MAX_SEARCH_USERS / 4);
        assert_eq!(at.rung_users(2), MAX_SEARCH_USERS);
        let msg = SearchSpec::from_json_str(
            r#"{"arms":[{"c0":2,"c1":2}],"initial_users":4,"eta":100000000000,"rungs":3}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(msg.contains("MAX_SEARCH_USERS"), "{msg}");
    }

    #[test]
    fn pace_multipliers_must_be_positive() {
        for text in [
            r#"{"treatment":{"kind":"sammy","c0":-1,"c1":0}}"#,
            r#"{"treatment":{"kind":"sammy","c0":0}}"#,
            r#"{"control":{"kind":"sammy","c1":-0.5}}"#,
            r#"{"treatment":{"kind":"naive-paced","multiplier":0}}"#,
            r#"{"treatment":{"kind":"naive-paced","multiplier":-4}}"#,
        ] {
            let field = invalid_field(ExperimentSpec::from_json_str(text));
            assert!(["c0", "c1", "multiplier"].contains(&field), "{text}");
        }
        for text in [
            r#"{"arms":[{"c0":2,"c1":2},{"c0":-1,"c1":2}]}"#,
            r#"{"arms":[{"c0":2,"c1":0}]}"#,
        ] {
            let field = invalid_field(SearchSpec::from_json_str(text));
            assert!(["c0", "c1"].contains(&field), "{text}");
        }
    }

    #[test]
    fn arm_point_requires_both_coordinates() {
        assert!(ArmPoint::from_json(&json::parse(r#"{"c0":1.0}"#).unwrap()).is_err());
        assert!(ArmPoint::from_json(&json::parse(r#"{"c1":1.0}"#).unwrap()).is_err());
    }

    /// `{"network":{<field>:<value>}}` through the experiment parser.
    fn network_field(field: &str, value: &str) -> Result<ExperimentSpec, SimError> {
        ExperimentSpec::from_json_str(&format!(r#"{{"network":{{"{field}":{value}}}}}"#))
    }

    #[test]
    fn network_rate_must_be_positive() {
        for bad in ["0", "-5", "-0.0"] {
            assert_eq!(invalid_field(network_field("rate_mbps", bad)), "rate_mbps");
        }
        assert!(network_field("rate_mbps", "0.5").is_ok());
    }

    #[test]
    fn network_rtt_must_not_be_negative() {
        assert_eq!(invalid_field(network_field("rtt_ms", "-1")), "rtt_ms");
        assert!(network_field("rtt_ms", "0").is_ok());
    }

    #[test]
    fn network_queue_must_be_positive() {
        for bad in ["0", "-2"] {
            assert_eq!(invalid_field(network_field("queue_bdp", bad)), "queue_bdp");
        }
        assert!(network_field("queue_bdp", "0.25").is_ok());
    }

    #[test]
    fn network_numbers_must_be_finite() {
        // JSON cannot spell one, but a spec built in code (the CLI's) can
        // carry one into its own parser.
        for field in ["rate_mbps", "rtt_ms", "queue_bdp"] {
            for bad in [f64::NAN, f64::INFINITY] {
                let v = obj(vec![(field, Value::Num(bad))]);
                assert_eq!(invalid_field(NetworkSpec::from_json(&v)), field);
            }
        }
    }

    /// The run length and the RTT are `u64` nanoseconds in the simulator:
    /// one past the largest that fits is refused, not wrapped.
    #[test]
    fn network_lengths_must_fit_the_clock() {
        let max_secs = u64::MAX / 1_000_000_000;
        for (field, value, ok) in [
            ("run_secs", max_secs.to_string(), true),
            ("run_secs", (max_secs + 1).to_string(), false),
            ("run_secs", (1u64 << 53).to_string(), false),
            ("rtt_ms", "1.8e13".to_string(), true),
            ("rtt_ms", "1.9e13".to_string(), false),
            ("rtt_ms", "1e300".to_string(), false),
        ] {
            let spec = network_field(field, &value);
            if ok {
                assert!(spec.is_ok(), "{field} = {value}: {spec:?}");
            } else {
                assert_eq!(invalid_field(spec), field, "{field} = {value}");
            }
        }
    }

    #[test]
    fn network_spec_builds_the_paper_dumbbell() {
        let d = NetworkSpec::default().dumbbell(2);
        assert_eq!(d.bottleneck_rate, Rate::from_mbps(40.0));
        assert_eq!(d.rtt, SimDuration::from_millis(5));
        assert_eq!(d.pairs, 2);
        assert_eq!(
            NetworkSpec::default().run_for(),
            SimDuration::from_secs(120)
        );
    }
}
