//! Experiment specs: the one description of a cell of the paper's
//! algorithm × dataset × prefetcher matrix, shared by the `droplet-sim`
//! CLI flags and the `droplet-serve` HTTP/JSON endpoints.
//!
//! Both front ends feed one field table, [`SPEC_FIELDS`], into a
//! [`SpecBuilder`] — JSON members by name, CLI flags by their dashed
//! spelling (`--l1-policy` → `l1_policy`) — and build configurations with
//! [`RunSpec::config_for`], so a spec means the same machine, with the same
//! store key, whichever way it arrives. Every parser returns [`SpecError`]
//! naming the offending field, the rejected value, and the accepted domain
//! — so the CLI can print `error: --budget: invalid value "abc" (expected
//! a non-negative integer)` and the server can reject the same spec with
//! an HTTP 400 carrying the same field-level message.

use crate::config::{PrefetcherKind, SystemConfig};
use crate::datasets::WorkloadSpec;
use crate::system::config_hash;
use droplet_cache::ReplacementPolicy;
use droplet_gap::Algorithm;
use droplet_graph::{Dataset, DatasetScale};
use droplet_obs::{fnv1a, json, ObsConfig};
use std::fmt;

/// A rejected spec field: which field, what value, what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Spec field name, without flag dashes (`"budget"`, `"algo"`).
    pub field: String,
    /// The value as submitted.
    pub value: String,
    /// Human-readable domain description.
    pub expected: &'static str,
}

impl SpecError {
    fn new(field: &str, value: &str, expected: &'static str) -> Self {
        SpecError {
            field: field.to_string(),
            value: value.to_string(),
            expected,
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: invalid value {:?} (expected {})",
            self.field, self.value, self.expected
        )
    }
}

impl std::error::Error for SpecError {}

/// Parses an algorithm name (`bc|bfs|pr|sssp|cc`), naming `field` on error.
pub fn parse_algo(field: &str, value: &str) -> Result<Algorithm, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "bc" => Ok(Algorithm::Bc),
        "bfs" => Ok(Algorithm::Bfs),
        "pr" => Ok(Algorithm::Pr),
        "sssp" => Ok(Algorithm::Sssp),
        "cc" => Ok(Algorithm::Cc),
        _ => Err(SpecError::new(field, value, "one of bc|bfs|pr|sssp|cc")),
    }
}

/// Parses a dataset name (`kron|urand|orkut|livejournal|road`).
pub fn parse_dataset(field: &str, value: &str) -> Result<Dataset, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "kron" => Ok(Dataset::Kron),
        "urand" => Ok(Dataset::Urand),
        "orkut" => Ok(Dataset::Orkut),
        "livejournal" | "lj" => Ok(Dataset::LiveJournal),
        "road" => Ok(Dataset::Road),
        _ => Err(SpecError::new(
            field,
            value,
            "one of kron|urand|orkut|livejournal|road",
        )),
    }
}

/// Parses a prefetcher configuration name.
pub fn parse_prefetcher(field: &str, value: &str) -> Result<PrefetcherKind, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "none" | "baseline" => Ok(PrefetcherKind::None),
        "nextline" | "next-line" => Ok(PrefetcherKind::NextLine),
        "ghb" => Ok(PrefetcherKind::Ghb),
        "vldp" => Ok(PrefetcherKind::Vldp),
        "stream" => Ok(PrefetcherKind::Stream),
        "streammpp1" | "stream-mpp1" => Ok(PrefetcherKind::StreamMpp1),
        "droplet" => Ok(PrefetcherKind::Droplet),
        "mono" | "monodropletl1" => Ok(PrefetcherKind::MonoDropletL1),
        "adaptive" | "droplet-adaptive" => Ok(PrefetcherKind::AdaptiveDroplet),
        _ => Err(SpecError::new(
            field,
            value,
            "one of none|nextline|ghb|vldp|stream|streammpp1|droplet|mono|adaptive",
        )),
    }
}

/// Parses a dataset scale (`tiny|small|sim`).
pub fn parse_scale(field: &str, value: &str) -> Result<DatasetScale, SpecError> {
    match value.to_ascii_lowercase().as_str() {
        "tiny" => Ok(DatasetScale::Tiny),
        "small" => Ok(DatasetScale::Small),
        "sim" => Ok(DatasetScale::Sim),
        _ => Err(SpecError::new(field, value, "one of tiny|small|sim")),
    }
}

/// Parses a replacement-policy name (`lru|srrip|brrip|drrip|ship`).
pub fn parse_policy(field: &str, value: &str) -> Result<ReplacementPolicy, SpecError> {
    ReplacementPolicy::parse(value)
        .ok_or_else(|| SpecError::new(field, value, "one of lru|srrip|brrip|drrip|ship"))
}

/// Parses a non-negative integer field (`budget`, `epoch_ops`).
pub fn parse_u64(field: &str, value: &str) -> Result<u64, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError::new(field, value, "a non-negative integer"))
}

/// Parses a positive integer field (`threads`).
pub fn parse_positive_usize(field: &str, value: &str) -> Result<usize, SpecError> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(SpecError::new(field, value, "a positive integer")),
    }
}

/// A field setter: parses `value` for the field named by the second
/// argument and stores it in the builder.
type Setter = fn(&mut SpecBuilder, &'static str, &str) -> Result<(), SpecError>;

/// One row of the spec field table.
pub struct SpecField {
    /// The JSON member name; the CLI flag is `--` plus the name with
    /// dashes for underscores.
    pub name: &'static str,
    /// A list field takes a JSON array, each item set in turn; it has no
    /// CLI flag.
    list: bool,
    set: Setter,
}

const fn field(name: &'static str, set: Setter) -> SpecField {
    SpecField {
        name,
        list: false,
        set,
    }
}

/// Every spec field, in the order error messages list them.
#[rustfmt::skip]
pub static SPEC_FIELDS: [SpecField; 10] = [
    field("algo", |b, f, v| parse_algo(f, v).map(|x| b.algorithm = Some(x))),
    field("dataset", |b, f, v| parse_dataset(f, v).map(|x| b.dataset = Some(x))),
    field("prefetcher", |b, f, v| parse_prefetcher(f, v).map(|x| b.prefetcher = Some(x))),
    field("scale", |b, f, v| parse_scale(f, v).map(|x| b.scale = Some(x))),
    field("budget", |b, f, v| parse_u64(f, v).map(|x| b.budget = Some(x))),
    field("epoch_ops", |b, f, v| parse_u64(f, v).map(|x| b.epoch_ops = Some(x))),
    field("l1_policy", |b, f, v| parse_policy(f, v).map(|x| b.policies[0] = Some(x))),
    field("l2_policy", |b, f, v| parse_policy(f, v).map(|x| b.policies[1] = Some(x))),
    field("l3_policy", |b, f, v| parse_policy(f, v).map(|x| b.policies[2] = Some(x))),
    SpecField { list: true, ..field("prefetchers", |b, f, v| parse_prefetcher(f, v).map(|x| b.prefetchers.push(x))) },
];

impl SpecField {
    /// The field a `droplet-sim` flag names (`--l1-policy` → `l1_policy`);
    /// `None` for unknown flags and list fields.
    pub fn for_flag(flag: &str) -> Option<&'static SpecField> {
        let name = flag.strip_prefix("--")?;
        SPEC_FIELDS
            .iter()
            .find(|f| !f.list && f.name.replace('_', "-") == name)
    }
}

/// A [`RunSpec`] being assembled one field at a time.
#[derive(Debug, Default)]
pub struct SpecBuilder {
    algorithm: Option<Algorithm>,
    dataset: Option<Dataset>,
    scale: Option<DatasetScale>,
    prefetcher: Option<PrefetcherKind>,
    budget: Option<u64>,
    epoch_ops: Option<u64>,
    policies: [Option<ReplacementPolicy>; 3],
    prefetchers: Vec<PrefetcherKind>,
}

impl SpecBuilder {
    /// Sets the table field `name` from one value (a list field gains one
    /// item).
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), SpecError> {
        let field = SPEC_FIELDS
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| unknown_field(name, value))?;
        (field.set)(self, field.name, value)
    }

    /// Sets the field `key` from a JSON member's raw value: one scalar, or
    /// an array of scalars for a list field.
    fn set_member(&mut self, key: &str, raw: &str) -> Result<(), SpecError> {
        let Some(field) = SPEC_FIELDS.iter().find(|f| f.name == key) else {
            return Err(unknown_field(key, &json::scalar(raw).unwrap_or(raw.into())));
        };
        let (items, expected) = if field.list {
            (json::scalars(raw), "a list of values")
        } else {
            (json::scalar(raw).map(|v| vec![v]), "a single value")
        };
        let items = items.ok_or_else(|| SpecError::new(key, raw, expected))?;
        items.iter().try_for_each(|v| self.set(key, v))
    }

    /// The finished spec: `algo` and `dataset` are required, `scale`
    /// defaults to `default_scale`, `prefetcher` to DROPLET, and `budget`
    /// to the scale's standard trace budget.
    pub fn finish(self, default_scale: DatasetScale) -> Result<RunSpec, SpecError> {
        let missing = |field: &str| SpecError::new(field, "", "a value (field is required)");
        let scale = self.scale.unwrap_or(default_scale);
        Ok(RunSpec {
            algorithm: self.algorithm.ok_or_else(|| missing("algo"))?,
            dataset: self.dataset.ok_or_else(|| missing("dataset"))?,
            scale,
            prefetcher: self.prefetcher.unwrap_or(PrefetcherKind::Droplet),
            budget: self
                .budget
                .unwrap_or_else(|| WorkloadSpec::default_budget(scale)),
            epoch_ops: self.epoch_ops,
            l1_policy: self.policies[0],
            l2_policy: self.policies[1],
            l3_policy: self.policies[2],
            prefetchers: self.prefetchers,
        })
    }
}

fn unknown_field(key: &str, value: &str) -> SpecError {
    SpecError::new(
        key,
        value,
        "a known spec field (algo|dataset|prefetcher|scale|budget|epoch_ops|l1_policy|l2_policy|l3_policy|prefetchers)",
    )
}

/// A validated experiment spec: one workload, one configuration, plus the
/// optional `prefetchers` list `/sweep` fans out over.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The algorithm (required field `algo`).
    pub algorithm: Algorithm,
    /// The dataset (required field `dataset`).
    pub dataset: Dataset,
    /// Dataset scale (field `scale`; default is the front end's).
    pub scale: DatasetScale,
    /// Prefetcher under test (field `prefetcher`; default `droplet`).
    pub prefetcher: PrefetcherKind,
    /// Trace op budget (field `budget`; default per scale).
    pub budget: u64,
    /// Epoch sampling cadence (field `epoch_ops`); enables the journal
    /// and live epoch streaming.
    pub epoch_ops: Option<u64>,
    /// Per-level replacement-policy overrides (`l1_policy` …).
    pub l1_policy: Option<ReplacementPolicy>,
    /// See [`RunSpec::l1_policy`].
    pub l2_policy: Option<ReplacementPolicy>,
    /// See [`RunSpec::l1_policy`].
    pub l3_policy: Option<ReplacementPolicy>,
    /// `/sweep` only: the configurations to fan out over one shared
    /// warm-up (field `prefetchers`).
    pub prefetchers: Vec<PrefetcherKind>,
}

impl RunSpec {
    /// Parses and validates a JSON request body: a flat object whose
    /// members are [`SPEC_FIELDS`]. Syntax errors name the field `body`.
    pub fn parse(body: &str, default_scale: DatasetScale) -> Result<RunSpec, SpecError> {
        let members = json::split_top_level(body).map_err(|e| SpecError {
            field: "body".to_string(),
            value: e,
            expected: "a flat JSON object",
        })?;
        let mut spec = SpecBuilder::default();
        for (key, raw) in members {
            spec.set_member(&key, raw)?;
        }
        spec.finish(default_scale)
    }

    /// The workload this spec names.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec {
            algorithm: self.algorithm,
            dataset: self.dataset,
            scale: self.scale,
        }
    }

    /// Warm-up ops excluded from statistics.
    pub fn warmup(&self) -> usize {
        WorkloadSpec::warmup_for(self.budget)
    }

    /// The full system configuration for the spec's prefetcher, derived
    /// from the base configuration for this scale.
    pub fn config(&self, base: &SystemConfig) -> SystemConfig {
        self.config_for(base, self.prefetcher)
    }

    /// [`RunSpec::config`] with an explicit prefetcher (sweep cells and
    /// the CLI's baseline run).
    pub fn config_for(&self, base: &SystemConfig, kind: PrefetcherKind) -> SystemConfig {
        let mut cfg = if kind == PrefetcherKind::None {
            base.clone()
        } else {
            base.with_prefetcher(kind)
        };
        if let Some(p) = self.l1_policy {
            cfg = cfg.with_l1_policy(p);
        }
        if let Some(p) = self.l2_policy {
            cfg = cfg.with_l2_policy(p);
        }
        if let Some(p) = self.l3_policy {
            cfg = cfg.with_l3_policy(p);
        }
        if let Some(n) = self.epoch_ops {
            cfg.obs = Some(ObsConfig::every(n));
        }
        cfg
    }

    /// FNV-1a hash of the trace identity: workload plus budget plus
    /// warm-up split. Together with [`config_hash`] this is the job key —
    /// two submissions with equal keys are guaranteed bit-identical
    /// results, which is what licenses in-flight dedupe and the store.
    pub fn workload_hash(&self) -> u64 {
        let repr = format!(
            "{:?}|{:?}|{:?}|{}|{}",
            self.algorithm,
            self.dataset,
            self.scale,
            self.budget,
            self.warmup()
        );
        fnv1a(repr.as_bytes())
    }

    /// The content-address for this spec under `cfg`:
    /// `{config_hash:016x}-{workload_hash:016x}`.
    pub fn key(&self, cfg: &SystemConfig) -> String {
        format!("{:016x}-{:016x}", config_hash(cfg), self.workload_hash())
    }

    /// The spec echoed back as JSON (the `"spec"` object in responses).
    pub fn render_json(&self, kind: PrefetcherKind) -> String {
        json::object(&[
            ("algo", json::quote(self.algorithm.name())),
            ("dataset", json::quote(self.dataset.name())),
            (
                "scale",
                json::quote(&format!("{:?}", self.scale).to_lowercase()),
            ),
            ("prefetcher", json::quote(kind.name())),
            ("budget", self.budget.to_string()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_values_parse() {
        assert_eq!(parse_algo("algo", "PR").unwrap(), Algorithm::Pr);
        assert_eq!(
            parse_dataset("dataset", "lj").unwrap(),
            Dataset::LiveJournal
        );
        assert_eq!(
            parse_prefetcher("prefetcher", "droplet").unwrap(),
            PrefetcherKind::Droplet
        );
        assert_eq!(parse_scale("scale", "tiny").unwrap(), DatasetScale::Tiny);
        assert_eq!(
            parse_policy("l3_policy", "srrip").unwrap(),
            ReplacementPolicy::Srrip
        );
        assert_eq!(parse_u64("budget", "30000").unwrap(), 30_000);
        assert_eq!(parse_positive_usize("threads", "4").unwrap(), 4);
    }

    #[test]
    fn errors_name_field_value_and_domain() {
        let e = parse_u64("budget", "abc").unwrap_err();
        assert_eq!(e.field, "budget");
        assert_eq!(e.value, "abc");
        assert_eq!(
            e.to_string(),
            "budget: invalid value \"abc\" (expected a non-negative integer)"
        );
        let e = parse_algo("algo", "dijkstra").unwrap_err();
        assert!(e.to_string().contains("bc|bfs|pr|sssp|cc"));
        let e = parse_positive_usize("threads", "0").unwrap_err();
        assert_eq!(e.expected, "a positive integer");
        let e = parse_policy("l2_policy", "mru").unwrap_err();
        assert_eq!(e.field, "l2_policy");
        assert!(parse_prefetcher("prefetcher", "magic").is_err());
        assert!(parse_scale("scale", "huge").is_err());
        assert!(parse_dataset("dataset", "twitter").is_err());
    }

    #[test]
    fn parses_full_spec() {
        let s = RunSpec::parse(
            r#"{"algo": "pr", "dataset": "kron", "scale": "tiny",
                "prefetcher": "droplet", "budget": 30000, "epoch_ops": 5000,
                "l3_policy": "srrip", "prefetchers": ["none", "ghb"]}"#,
            DatasetScale::Small,
        )
        .unwrap();
        assert_eq!(s.algorithm, Algorithm::Pr);
        assert_eq!(s.dataset, Dataset::Kron);
        assert_eq!(s.scale, DatasetScale::Tiny);
        assert_eq!(s.budget, 30_000);
        assert_eq!(s.warmup(), 7_500);
        assert_eq!(s.epoch_ops, Some(5_000));
        assert_eq!(s.l3_policy, Some(ReplacementPolicy::Srrip));
        assert_eq!(s.prefetchers, [PrefetcherKind::None, PrefetcherKind::Ghb]);
    }

    #[test]
    fn defaults_follow_the_cli() {
        let s =
            RunSpec::parse(r#"{"algo": "bfs", "dataset": "road"}"#, DatasetScale::Tiny).unwrap();
        assert_eq!(s.scale, DatasetScale::Tiny);
        assert_eq!(s.prefetcher, PrefetcherKind::Droplet);
        assert_eq!(s.budget, WorkloadSpec::default_budget(DatasetScale::Tiny));
        assert_eq!(s.warmup(), WorkloadSpec::default_warmup(DatasetScale::Tiny));
    }

    #[test]
    fn field_errors_match_the_cli_diagnostics() {
        let parse = |body| RunSpec::parse(body, DatasetScale::Tiny).unwrap_err();
        let e = parse(r#"{"algo": "pr", "dataset": "kron", "budget": "abc"}"#);
        assert_eq!(
            e.to_string(),
            "budget: invalid value \"abc\" (expected a non-negative integer)"
        );
        assert_eq!(parse(r#"{"dataset": "kron"}"#).field, "algo");
        let e = parse(r#"{"algo": "pr", "dataset": "kron", "turbo": "on"}"#);
        assert_eq!((e.field.as_str(), e.value.as_str()), ("turbo", "on"));
        assert_eq!(parse("not json").field, "body");
        assert_eq!(parse(r#"{"algo": ["pr"]}"#).field, "algo");
        assert_eq!(parse(r#"{"prefetchers": "ghb"}"#).field, "prefetchers");
    }

    #[test]
    fn key_separates_config_and_workload() {
        let base = SystemConfig::test_scale();
        let spec = |algo| {
            let body = format!(r#"{{"algo": "{algo}", "dataset": "kron", "scale": "tiny"}}"#);
            RunSpec::parse(&body, DatasetScale::Tiny).unwrap()
        };
        let (a, b) = (spec("pr"), spec("bfs"));
        let (ka, kb) = (a.key(&a.config(&base)), b.key(&b.config(&base)));
        assert_ne!(ka, kb);
        // Same machine: config half of the key is shared.
        assert_eq!(ka.split('-').next(), kb.split('-').next());
        // Sampling cadence does not change the machine identity.
        let mut c = a.clone();
        c.epoch_ops = Some(5_000);
        assert_eq!(ka, c.key(&c.config(&base)));
    }

    /// Arbitrary bodies never panic the JSON scanner, its decoders or the
    /// spec parser, and every rejection names a field: `body`, a table
    /// field, or the unknown member it refused.
    #[test]
    fn arbitrary_bodies_never_panic_and_errors_name_a_field() {
        const PIECES: &str =
            "{|}|[|]|,|:| |\"|\\|\"algo\"|\"pr\"|\"dataset\"|\"kron\"|\"budget\"|12|-1\
            |\"prefetchers\"|\"l1_policy\"|\"srrip\"|\"x\"|\"\\u00e9\"|\\ud83d|null|é";
        let pieces: Vec<&str> = PIECES.split('|').collect();
        let mut rng = proptest::TestRng::for_test("arbitrary_bodies_never_panic");
        for _ in 0..3000 {
            let n = rng.below(20) as usize;
            let body: String = if rng.below(4) == 0 {
                let bytes: Vec<u8> = (0..n).map(|_| rng.below(256) as u8).collect();
                String::from_utf8_lossy(&bytes).into_owned()
            } else {
                (0..n)
                    .map(|_| pieces[rng.below(pieces.len() as u64) as usize])
                    .collect()
            };
            let _ = (json::scalar(&body), json::scalars(&body));
            let Err(e) = RunSpec::parse(&body, DatasetScale::Tiny) else {
                continue;
            };
            let member =
                json::split_top_level(&body).is_ok_and(|m| m.iter().any(|(k, _)| *k == e.field));
            assert!(
                e.field == "body" || member || SPEC_FIELDS.iter().any(|f| f.name == e.field),
                "{body:?}: {e}"
            );
        }
    }

    /// An invalid value is the same [`SpecError`] whether it arrives as a
    /// JSON member or as a CLI flag; list fields have no flag, and their
    /// items go through the same setter.
    #[test]
    fn invalid_values_match_across_json_and_cli() {
        for field in &SPEC_FIELDS {
            let flag = format!("--{}", field.name.replace('_', "-"));
            let cli = SpecField::for_flag(&flag);
            assert_eq!(cli.is_none(), field.list, "{flag}");
            for bad in ["bogus", "-1", "é", "q\"\t", ""] {
                let member = if field.list {
                    format!("[{}]", json::quote(bad))
                } else {
                    json::quote(bad)
                };
                let body = format!(
                    r#"{{"algo": "pr", "dataset": "kron", {}: {member}}}"#,
                    json::quote(field.name)
                );
                let from_json = RunSpec::parse(&body, DatasetScale::Tiny).unwrap_err();
                let name = cli.map_or(field.name, |f| f.name);
                let from_cli = SpecBuilder::default().set(name, bad).unwrap_err();
                assert_eq!(from_json, from_cli, "{body}");
                assert_eq!(from_cli.field, field.name);
            }
        }
        assert!(SpecField::for_flag("--l1_policy").is_none());
        assert!(SpecField::for_flag("l1-policy").is_none());
    }
}
