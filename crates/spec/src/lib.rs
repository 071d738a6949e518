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

fn unknown_field(
    what: &'static str,
    known: &[&str],
    fields: &[(String, Value)],
) -> Option<SimError> {
    fields
        .iter()
        .find(|(k, _)| !known.contains(&k.as_str()))
        .map(|(k, _)| SimError::Parse {
            what,
            input: k.clone(),
            reason: format!("unknown field `{k}` (known fields: {})", known.join(", ")),
        })
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

fn get_f64(what: &'static str, v: &Value, key: &str, default: f64) -> Result<f64, SimError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_f64()
            .ok_or_else(|| field_err(what, key, f, "a number")),
    }
}

/// A pace multiplier: like [`get_f64`], and positive. The runner's
/// `PaceSelector::new` / `NaivePacedAbr::new` assert exactly this, so a
/// zero or negative one that got past here would be a panic per user.
fn get_multiplier(
    what: &'static str,
    v: &Value,
    key: &'static str,
    default: f64,
) -> Result<f64, SimError> {
    let m = get_f64(what, v, key, default)?;
    if m > 0.0 {
        Ok(m)
    } else {
        Err(SimError::InvalidConfig {
            field: key,
            reason: format!("pace multipliers must be positive, got {m}"),
        })
    }
}

fn get_u64(what: &'static str, v: &Value, key: &str, default: u64) -> Result<u64, SimError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_u64()
            .ok_or_else(|| field_err(what, key, f, "a non-negative integer")),
    }
}

fn get_usize(what: &'static str, v: &Value, key: &str, default: usize) -> Result<usize, SimError> {
    get_u64(what, v, key, default as u64).map(|n| n as usize)
}

fn get_bool(what: &'static str, v: &Value, key: &str, default: bool) -> Result<bool, SimError> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_bool()
            .ok_or_else(|| field_err(what, key, f, "a boolean")),
    }
}

fn get_string(what: &'static str, v: &Value, key: &str, default: &str) -> Result<String, SimError> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(f) => f
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| field_err(what, key, f, "a string")),
    }
}

/// Wire protocol + congestion control + pacing burst for the video sender.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransportSpec {
    /// Wire protocol (`"tcp"` or `"quic"`).
    pub protocol: Protocol,
    /// Congestion control (`"reno"`, `"cubic"`, `"bbr"`, `"ledbat"`).
    pub cc: CcAlgorithm,
    /// Pacer burst allowance in packets.
    pub burst_packets: u32,
}

impl Default for TransportSpec {
    fn default() -> Self {
        TransportSpec {
            protocol: Protocol::Tcp,
            cc: CcAlgorithm::Reno,
            burst_packets: 4,
        }
    }
}

impl TransportSpec {
    const WHAT: &'static str = "TransportSpec";
    const FIELDS: &'static [&'static str] = &["protocol", "cc", "burst_packets"];

    /// Render as a JSON value.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("protocol", Value::Str(self.protocol.to_string())),
            ("cc", Value::Str(self.cc.to_string())),
            ("burst_packets", Value::Num(self.burst_packets as f64)),
        ])
    }

    /// Parse from a JSON value; missing fields default, unknown fields err.
    pub fn from_json(v: &Value) -> Result<Self, SimError> {
        let fields = want_obj(Self::WHAT, v)?;
        if let Some(e) = unknown_field(Self::WHAT, Self::FIELDS, fields) {
            return Err(e);
        }
        let d = TransportSpec::default();
        let protocol = match v.get("protocol") {
            None => d.protocol,
            Some(f) => f
                .as_str()
                .ok_or_else(|| field_err(Self::WHAT, "protocol", f, "a string"))?
                .parse()?,
        };
        let cc = match v.get("cc") {
            None => d.cc,
            Some(f) => f
                .as_str()
                .ok_or_else(|| field_err(Self::WHAT, "cc", f, "a string"))?
                .parse()?,
        };
        let burst_packets = get_u64(Self::WHAT, v, "burst_packets", d.burst_packets as u64)? as u32;
        Ok(TransportSpec {
            protocol,
            cc,
            burst_packets,
        })
    }
}

/// Bottleneck network shape for lab (dumbbell) experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Bottleneck rate in Mbps.
    pub rate_mbps: f64,
    /// Path round-trip propagation time in ms.
    pub rtt_ms: f64,
    /// Bottleneck queue size as a multiple of the BDP.
    pub queue_bdp: f64,
    /// Simulated run length in seconds.
    pub run_secs: u64,
}

impl Default for NetworkSpec {
    /// The paper's lab setup (§6): 40 Mbps, 5 ms RTT, 4x BDP queue.
    fn default() -> Self {
        NetworkSpec {
            rate_mbps: 40.0,
            rtt_ms: 5.0,
            queue_bdp: 4.0,
            run_secs: 120,
        }
    }
}

impl NetworkSpec {
    const WHAT: &'static str = "NetworkSpec";
    const FIELDS: &'static [&'static str] = &["rate_mbps", "rtt_ms", "queue_bdp", "run_secs"];

    /// Render as a JSON value.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("rate_mbps", Value::Num(self.rate_mbps)),
            ("rtt_ms", Value::Num(self.rtt_ms)),
            ("queue_bdp", Value::Num(self.queue_bdp)),
            ("run_secs", Value::Num(self.run_secs as f64)),
        ])
    }

    /// Parse from a JSON value; missing fields default, unknown fields err.
    pub fn from_json(v: &Value) -> Result<Self, SimError> {
        let fields = want_obj(Self::WHAT, v)?;
        if let Some(e) = unknown_field(Self::WHAT, Self::FIELDS, fields) {
            return Err(e);
        }
        let d = NetworkSpec::default();
        Ok(NetworkSpec {
            rate_mbps: get_f64(Self::WHAT, v, "rate_mbps", d.rate_mbps)?,
            rtt_ms: get_f64(Self::WHAT, v, "rtt_ms", d.rtt_ms)?,
            queue_bdp: get_f64(Self::WHAT, v, "queue_bdp", d.queue_bdp)?,
            run_secs: get_u64(Self::WHAT, v, "run_secs", d.run_secs)?,
        })
    }

    /// The dumbbell this network describes, with `pairs` host pairs.
    pub fn dumbbell(&self, pairs: usize) -> DumbbellConfig {
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(self.rate_mbps),
            rtt: SimDuration::from_secs_f64(self.rtt_ms / 1000.0),
            queue_bdp_multiple: self.queue_bdp,
            pairs,
            ..DumbbellConfig::default()
        }
    }

    /// The run length as a simulation duration.
    pub fn run_for(&self) -> SimDuration {
        SimDuration::from_secs(self.run_secs)
    }
}

/// Which algorithm variant an arm runs — the spec-level mirror of
/// `abtest::Arm` (tagged by `kind` on the wire).
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
        if let Some(e) = unknown_field(Self::WHAT, known, fields) {
            return Err(e);
        }
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
/// (`initial_users × eta^(rungs−1)`). An evaluation runs on the collecting
/// runner, which holds every `SessionRecord` of the rung: `2 ×
/// sessions_per_user` a user, about 3 kB each with the full population's
/// ~340 chunk throughputs — 2.4 GB here at the default four sessions. An
/// unbounded rung is an allocation abort, not an error.
pub const MAX_SEARCH_USERS: usize = 100_000;

/// A complete A/B experiment: arms, population sizing, seeds, and the
/// network/transport substrate. The single source of truth consumed by
/// `POST /runs`, `sammy-sim`, and `bench::{lab,matrix}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Human-readable experiment name (labels reports and run dirs).
    pub name: String,
    /// Control arm.
    pub control: ArmSpec,
    /// Treatment arm.
    pub treatment: ArmSpec,
    /// Users per arm.
    pub users_per_arm: usize,
    /// Pre-experiment sessions per user (history warm-up).
    pub pre_sessions: usize,
    /// Experiment sessions per user.
    pub sessions_per_user: usize,
    /// Seed for population and session randomness.
    pub seed: u64,
    /// Bootstrap replicates for CIs.
    pub bootstrap_reps: usize,
    /// Worker threads (0 = all cores); never affects results.
    pub threads: usize,
    /// Users per shard for the streaming runner.
    pub shard_size: usize,
    /// Use the trimmed-down population model (fast CI runs).
    pub light_population: bool,
    /// Bottleneck network shape (lab harnesses only).
    pub network: NetworkSpec,
    /// Transport substrate (lab harnesses only).
    pub transport: TransportSpec,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            name: "experiment".into(),
            control: ArmSpec::Production,
            treatment: ArmSpec::Sammy { c0: 3.2, c1: 2.8 },
            users_per_arm: 400,
            pre_sessions: 3,
            sessions_per_user: 4,
            seed: 1,
            bootstrap_reps: 600,
            threads: 0,
            shard_size: 256,
            light_population: false,
            network: NetworkSpec::default(),
            transport: TransportSpec::default(),
        }
    }
}

impl ExperimentSpec {
    const WHAT: &'static str = "ExperimentSpec";
    const FIELDS: &'static [&'static str] = &[
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
    ];

    /// Render as a JSON value (fixed field order — deterministic bytes).
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("control", self.control.to_json()),
            ("treatment", self.treatment.to_json()),
            ("users_per_arm", Value::Num(self.users_per_arm as f64)),
            ("pre_sessions", Value::Num(self.pre_sessions as f64)),
            (
                "sessions_per_user",
                Value::Num(self.sessions_per_user as f64),
            ),
            ("seed", Value::Num(self.seed as f64)),
            ("bootstrap_reps", Value::Num(self.bootstrap_reps as f64)),
            ("threads", Value::Num(self.threads as f64)),
            ("shard_size", Value::Num(self.shard_size as f64)),
            ("light_population", Value::Bool(self.light_population)),
            ("network", self.network.to_json()),
            ("transport", self.transport.to_json()),
        ])
    }

    /// Parse from a JSON value; missing fields default, unknown fields err.
    pub fn from_json(v: &Value) -> Result<Self, SimError> {
        let fields = want_obj(Self::WHAT, v)?;
        if let Some(e) = unknown_field(Self::WHAT, Self::FIELDS, fields) {
            return Err(e);
        }
        let d = ExperimentSpec::default();
        let bootstrap_reps = get_usize(Self::WHAT, v, "bootstrap_reps", d.bootstrap_reps)?;
        if bootstrap_reps > MAX_BOOTSTRAP_REPS {
            return Err(SimError::InvalidConfig {
                field: "bootstrap_reps",
                reason: format!("must be at most {MAX_BOOTSTRAP_REPS}, got {bootstrap_reps}"),
            });
        }
        Ok(ExperimentSpec {
            name: get_string(Self::WHAT, v, "name", &d.name)?,
            control: match v.get("control") {
                None => d.control,
                Some(f) => ArmSpec::from_json(f)?,
            },
            treatment: match v.get("treatment") {
                None => d.treatment,
                Some(f) => ArmSpec::from_json(f)?,
            },
            users_per_arm: get_usize(Self::WHAT, v, "users_per_arm", d.users_per_arm)?,
            pre_sessions: get_usize(Self::WHAT, v, "pre_sessions", d.pre_sessions)?,
            sessions_per_user: get_usize(Self::WHAT, v, "sessions_per_user", d.sessions_per_user)?,
            seed: get_u64(Self::WHAT, v, "seed", d.seed)?,
            bootstrap_reps,
            threads: get_usize(Self::WHAT, v, "threads", d.threads)?,
            shard_size: get_usize(Self::WHAT, v, "shard_size", d.shard_size)?,
            light_population: get_bool(Self::WHAT, v, "light_population", d.light_population)?,
            network: match v.get("network") {
                None => d.network,
                Some(f) => NetworkSpec::from_json(f)?,
            },
            transport: match v.get("transport") {
                None => d.transport,
                Some(f) => TransportSpec::from_json(f)?,
            },
        })
    }

    /// Parse from a JSON string.
    pub fn from_json_str(s: &str) -> Result<Self, SimError> {
        Self::from_json(&json::parse(s)?)
    }
}

/// QoE guardrails a candidate arm must satisfy (percent-change bounds vs
/// control, from the median statistic).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GuardSpec {
    /// Lowest acceptable VMAF change (%).
    pub min_vmaf_pct: f64,
    /// Highest acceptable play-delay change (%).
    pub max_play_delay_pct: f64,
    /// Highest acceptable rebuffer-rate change (%).
    pub max_rebuffer_pct: f64,
}

impl Default for GuardSpec {
    fn default() -> Self {
        GuardSpec {
            min_vmaf_pct: -0.1,
            max_play_delay_pct: 1.0,
            max_rebuffer_pct: 5.0,
        }
    }
}

impl GuardSpec {
    const WHAT: &'static str = "GuardSpec";
    const FIELDS: &'static [&'static str] =
        &["min_vmaf_pct", "max_play_delay_pct", "max_rebuffer_pct"];

    /// Render as a JSON value.
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("min_vmaf_pct", Value::Num(self.min_vmaf_pct)),
            ("max_play_delay_pct", Value::Num(self.max_play_delay_pct)),
            ("max_rebuffer_pct", Value::Num(self.max_rebuffer_pct)),
        ])
    }

    /// Parse from a JSON value; missing fields default, unknown fields err.
    pub fn from_json(v: &Value) -> Result<Self, SimError> {
        let fields = want_obj(Self::WHAT, v)?;
        if let Some(e) = unknown_field(Self::WHAT, Self::FIELDS, fields) {
            return Err(e);
        }
        let d = GuardSpec::default();
        Ok(GuardSpec {
            min_vmaf_pct: get_f64(Self::WHAT, v, "min_vmaf_pct", d.min_vmaf_pct)?,
            max_play_delay_pct: get_f64(Self::WHAT, v, "max_play_delay_pct", d.max_play_delay_pct)?,
            max_rebuffer_pct: get_f64(Self::WHAT, v, "max_rebuffer_pct", d.max_rebuffer_pct)?,
        })
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
        if let Some(e) = unknown_field(Self::WHAT, Self::FIELDS, fields) {
            return Err(e);
        }
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

/// A successive-halving `(c0, c1)` search: candidate arms, rung sizing,
/// QoE guards, and the base experiment every evaluation derives from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpec {
    /// Human-readable search name.
    pub name: String,
    /// Candidate `(c0, c1)` arms entering rung 0.
    pub arms: Vec<ArmPoint>,
    /// Users per arm in rung 0; each rung multiplies this by `eta`.
    pub initial_users: usize,
    /// Halving factor: survivors per rung = ceil(n / eta).
    pub eta: usize,
    /// Number of rungs.
    pub rungs: usize,
    /// QoE guardrails pruning candidates early.
    pub guards: GuardSpec,
    /// Base experiment each evaluation derives from (`users_per_arm` and
    /// `treatment` are overridden per rung/arm; everything else applies).
    pub base: ExperimentSpec,
}

impl Default for SearchSpec {
    fn default() -> Self {
        SearchSpec {
            name: "search".into(),
            arms: Vec::new(),
            initial_users: 32,
            eta: 2,
            rungs: 3,
            guards: GuardSpec::default(),
            base: ExperimentSpec::default(),
        }
    }
}

impl SearchSpec {
    const WHAT: &'static str = "SearchSpec";
    const FIELDS: &'static [&'static str] = &[
        "name",
        "arms",
        "initial_users",
        "eta",
        "rungs",
        "guards",
        "base",
    ];

    /// Render as a JSON value (fixed field order — deterministic bytes).
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            (
                "arms",
                Value::Arr(self.arms.iter().map(ArmPoint::to_json).collect()),
            ),
            ("initial_users", Value::Num(self.initial_users as f64)),
            ("eta", Value::Num(self.eta as f64)),
            ("rungs", Value::Num(self.rungs as f64)),
            ("guards", self.guards.to_json()),
            ("base", self.base.to_json()),
        ])
    }

    /// Parse from a JSON value; missing fields default, unknown fields err.
    pub fn from_json(v: &Value) -> Result<Self, SimError> {
        let fields = want_obj(Self::WHAT, v)?;
        if let Some(e) = unknown_field(Self::WHAT, Self::FIELDS, fields) {
            return Err(e);
        }
        let d = SearchSpec::default();
        let arms = match v.get("arms") {
            None => d.arms,
            Some(f) => f
                .as_arr()
                .ok_or_else(|| field_err(Self::WHAT, "arms", f, "an array"))?
                .iter()
                .map(ArmPoint::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let spec = SearchSpec {
            name: get_string(Self::WHAT, v, "name", &d.name)?,
            arms,
            initial_users: get_usize(Self::WHAT, v, "initial_users", d.initial_users)?,
            eta: get_usize(Self::WHAT, v, "eta", d.eta)?,
            rungs: get_usize(Self::WHAT, v, "rungs", d.rungs)?,
            guards: match v.get("guards") {
                None => d.guards,
                Some(f) => GuardSpec::from_json(f)?,
            },
            base: match v.get("base") {
                None => d.base,
                Some(f) => ExperimentSpec::from_json(f)?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

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
