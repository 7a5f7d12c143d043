//! String-addressable technique specifications.
//!
//! A [`TechniqueSpec`] names a reordering technique (optionally with
//! parameters) the way Ligra/GAPBS-style suites name apps and
//! orderings on the command line: `"dbg"`, `"dbg:groups=4"`,
//! `"hubsort-o"`, `"rcb:4"`, `"sort"`. Specs compose with `+` —
//! `"gorder+dbg"` runs Gorder, rebuilds the graph, runs DBG on the
//! result, and composes the permutations.
//!
//! Every spec round-trips through [`std::fmt::Display`] /
//! [`std::str::FromStr`]: `spec.to_string().parse()` returns an equal
//! spec, and parsing a canonical string back out reproduces it
//! verbatim. Parse errors ([`SpecError`]) always carry the offending
//! token and, for unknown names, the list of valid ones.

use std::fmt;
use std::str::FromStr;

/// Seed shared by the random probes unless overridden, matching the
/// paper reproduction's fixed methodology seed.
pub const DEFAULT_SEED: u64 = 0xDECAF;

/// DBG's default number of geometric hot groups (the paper's 8-group
/// configuration: 6 hot + 2 cold).
pub const DEFAULT_DBG_HOT_GROUPS: u32 = 6;

/// Canonical names accepted by [`TechniqueSpec::from_str`], in display
/// order. Custom techniques registered on a
/// [`TechniqueRegistry`](crate::TechniqueRegistry) extend this set for
/// that registry only.
pub const BUILTIN_TECHNIQUES: [&str; 10] = [
    "orig",
    "sort",
    "hubsort",
    "hubcluster",
    "dbg",
    "gorder",
    "hubsort-o",
    "hubcluster-o",
    "rv",
    "rcb",
];

/// Why a spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string was empty (or an atom between `+` was).
    Empty,
    /// The technique name is not registered. Carries the offending
    /// token and the valid names.
    UnknownTechnique {
        /// The name that failed to resolve.
        token: String,
        /// Every name that would have been accepted.
        valid: Vec<String>,
    },
    /// The technique exists but does not accept this parameter.
    UnknownParam {
        /// The technique the parameter was attached to.
        technique: String,
        /// The offending `key=value` (or bare) token.
        token: String,
    },
    /// A parameter was recognized but its value is malformed or out of
    /// range.
    InvalidValue {
        /// The technique the parameter was attached to.
        technique: String,
        /// The offending token.
        token: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// The application name is not one of the five evaluated apps.
    UnknownApp {
        /// The name that failed to resolve.
        token: String,
        /// Every name that would have been accepted.
        valid: Vec<String>,
    },
    /// The dataset name is not registered and is not a `file:`/`lgr:`
    /// form.
    UnknownDataset {
        /// The name that failed to resolve.
        token: String,
        /// Every name and spec form that would have been accepted.
        valid: Vec<String>,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "empty spec"),
            SpecError::UnknownTechnique { token, valid } => {
                write!(
                    f,
                    "unknown technique `{token}`; valid: {}",
                    valid.join(", ")
                )
            }
            SpecError::UnknownParam { technique, token } => {
                write!(
                    f,
                    "technique `{technique}` does not accept parameter `{token}`"
                )
            }
            SpecError::InvalidValue {
                technique,
                token,
                expected,
            } => write!(
                f,
                "invalid value `{token}` for `{technique}`: expected {expected}"
            ),
            SpecError::UnknownApp { token, valid } => {
                write!(f, "unknown app `{token}`; valid: {}", valid.join(", "))
            }
            SpecError::UnknownDataset { token, valid } => {
                write!(f, "unknown dataset `{token}`; valid: {}", valid.join(", "))
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// One stage of a technique spec: a single reordering technique with
/// its parameters resolved.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TechniqueAtom {
    /// The do-nothing baseline (`orig`).
    Original,
    /// Full descending-degree sort (`sort`).
    Sort,
    /// Framework Hub Sorting (`hubsort`).
    HubSort,
    /// Framework Hub Clustering (`hubcluster`).
    HubCluster,
    /// The authors' original HubSort variant (`hubsort-o`).
    HubSortO,
    /// The authors' original HubCluster variant (`hubcluster-o`).
    HubClusterO,
    /// Degree-Based Grouping (`dbg`, `dbg:groups=4`).
    Dbg {
        /// Number of geometric hot groups.
        hot_groups: u32,
    },
    /// Gorder (`gorder`).
    Gorder,
    /// Random vertex-granularity probe (`rv`, `rv:seed=7`).
    RandomVertex {
        /// RNG seed.
        seed: u64,
    },
    /// Random cache-block probe (`rcb:4`, `rcb:4:seed=7`).
    RandomCacheBlock {
        /// Blocks moved as one unit.
        blocks: u32,
        /// RNG seed.
        seed: u64,
    },
    /// A technique registered on a
    /// [`TechniqueRegistry`](crate::TechniqueRegistry) beyond the
    /// built-in set. Parameters are passed through verbatim.
    Custom {
        /// Registered name.
        name: String,
        /// Raw `:`-separated parameter tokens.
        args: Vec<String>,
    },
}

impl TechniqueAtom {
    /// Canonical spec token (parseable back via [`TechniqueSpec::from_str`]).
    fn write_spec(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechniqueAtom::Original => f.write_str("orig"),
            TechniqueAtom::Sort => f.write_str("sort"),
            TechniqueAtom::HubSort => f.write_str("hubsort"),
            TechniqueAtom::HubCluster => f.write_str("hubcluster"),
            TechniqueAtom::HubSortO => f.write_str("hubsort-o"),
            TechniqueAtom::HubClusterO => f.write_str("hubcluster-o"),
            TechniqueAtom::Gorder => f.write_str("gorder"),
            TechniqueAtom::Dbg { hot_groups } => {
                if *hot_groups == DEFAULT_DBG_HOT_GROUPS {
                    f.write_str("dbg")
                } else {
                    write!(f, "dbg:groups={hot_groups}")
                }
            }
            TechniqueAtom::RandomVertex { seed } => {
                if *seed == DEFAULT_SEED {
                    f.write_str("rv")
                } else {
                    write!(f, "rv:seed={seed}")
                }
            }
            TechniqueAtom::RandomCacheBlock { blocks, seed } => {
                if *seed == DEFAULT_SEED {
                    write!(f, "rcb:{blocks}")
                } else {
                    write!(f, "rcb:{blocks}:seed={seed}")
                }
            }
            TechniqueAtom::Custom { name, args } => {
                f.write_str(name)?;
                for a in args {
                    write!(f, ":{a}")?;
                }
                Ok(())
            }
        }
    }

    /// Human-facing label matching the paper's figures (`"DBG"`,
    /// `"RCB-3"`, ...). This formats the *actual* parameter values:
    /// `rcb:3` labels as `RCB-3`, and non-default probe seeds are
    /// spelled out so differently-seeded columns stay distinguishable.
    pub fn label(&self) -> String {
        match self {
            TechniqueAtom::Original => "Original".to_owned(),
            TechniqueAtom::Sort => "Sort".to_owned(),
            TechniqueAtom::HubSort => "HubSort".to_owned(),
            TechniqueAtom::HubCluster => "HubCluster".to_owned(),
            TechniqueAtom::HubSortO => "HubSort-O".to_owned(),
            TechniqueAtom::HubClusterO => "HubCluster-O".to_owned(),
            TechniqueAtom::Gorder => "Gorder".to_owned(),
            TechniqueAtom::Dbg { hot_groups } => {
                if *hot_groups == DEFAULT_DBG_HOT_GROUPS {
                    "DBG".to_owned()
                } else {
                    format!("DBG({hot_groups})")
                }
            }
            TechniqueAtom::RandomVertex { seed } => {
                if *seed == DEFAULT_SEED {
                    "RV".to_owned()
                } else {
                    format!("RV(seed={seed})")
                }
            }
            TechniqueAtom::RandomCacheBlock { blocks, seed } => {
                if *seed == DEFAULT_SEED {
                    format!("RCB-{blocks}")
                } else {
                    format!("RCB-{blocks}(seed={seed})")
                }
            }
            TechniqueAtom::Custom { name, .. } => name.clone(),
        }
    }

    /// Whether this technique's permutation depends on the degree kind
    /// it is given. Kind-insensitive techniques share one cached
    /// permutation per dataset.
    pub fn uses_degree_kind(&self) -> bool {
        match self {
            TechniqueAtom::Sort
            | TechniqueAtom::HubSort
            | TechniqueAtom::HubCluster
            | TechniqueAtom::Dbg { .. } => true,
            TechniqueAtom::Original
            | TechniqueAtom::HubSortO
            | TechniqueAtom::HubClusterO
            | TechniqueAtom::Gorder
            | TechniqueAtom::RandomVertex { .. }
            | TechniqueAtom::RandomCacheBlock { .. } => false,
            // Conservative: an unknown technique may inspect the kind.
            TechniqueAtom::Custom { .. } => true,
        }
    }
}

/// A parsed, string-addressable reordering technique: one or more
/// [`TechniqueAtom`]s composed left to right.
///
/// # Examples
///
/// ```
/// use lgr_engine::TechniqueSpec;
///
/// let spec: TechniqueSpec = "dbg:groups=4".parse().unwrap();
/// assert_eq!(spec.to_string(), "dbg:groups=4");
/// assert_eq!(spec.label(), "DBG(4)");
///
/// let combo: TechniqueSpec = "gorder+dbg".parse().unwrap();
/// assert_eq!(combo.label(), "Gorder+DBG");
///
/// let err = "grail".parse::<TechniqueSpec>().unwrap_err();
/// assert!(err.to_string().contains("grail"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TechniqueSpec {
    atoms: Vec<TechniqueAtom>,
}

impl TechniqueSpec {
    /// A spec made of the given stages.
    ///
    /// # Panics
    ///
    /// Panics if `atoms` is empty.
    pub fn from_atoms(atoms: Vec<TechniqueAtom>) -> Self {
        assert!(
            !atoms.is_empty(),
            "a technique spec needs at least one stage"
        );
        TechniqueSpec { atoms }
    }

    /// The stages, in application order.
    pub fn atoms(&self) -> &[TechniqueAtom] {
        &self.atoms
    }

    /// The do-nothing baseline.
    pub fn original() -> Self {
        Self::from_atoms(vec![TechniqueAtom::Original])
    }

    /// Full descending-degree sort.
    pub fn sort() -> Self {
        Self::from_atoms(vec![TechniqueAtom::Sort])
    }

    /// Framework Hub Sorting.
    pub fn hubsort() -> Self {
        Self::from_atoms(vec![TechniqueAtom::HubSort])
    }

    /// Framework Hub Clustering.
    pub fn hubcluster() -> Self {
        Self::from_atoms(vec![TechniqueAtom::HubCluster])
    }

    /// The authors' original HubSort variant.
    pub fn hubsort_o() -> Self {
        Self::from_atoms(vec![TechniqueAtom::HubSortO])
    }

    /// The authors' original HubCluster variant.
    pub fn hubcluster_o() -> Self {
        Self::from_atoms(vec![TechniqueAtom::HubClusterO])
    }

    /// DBG with the paper's default grouping.
    pub fn dbg() -> Self {
        Self::dbg_groups(DEFAULT_DBG_HOT_GROUPS)
    }

    /// DBG with `hot_groups` geometric hot groups.
    pub fn dbg_groups(hot_groups: u32) -> Self {
        Self::from_atoms(vec![TechniqueAtom::Dbg { hot_groups }])
    }

    /// Gorder.
    pub fn gorder() -> Self {
        Self::from_atoms(vec![TechniqueAtom::Gorder])
    }

    /// The paper's Gorder+DBG layering (Sec. VII).
    pub fn gorder_dbg() -> Self {
        Self::from_atoms(vec![
            TechniqueAtom::Gorder,
            TechniqueAtom::Dbg {
                hot_groups: DEFAULT_DBG_HOT_GROUPS,
            },
        ])
    }

    /// The random vertex probe with the default seed.
    pub fn rv() -> Self {
        Self::from_atoms(vec![TechniqueAtom::RandomVertex { seed: DEFAULT_SEED }])
    }

    /// The random cache-block probe at `blocks` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is 0 (the probe needs at least one block,
    /// and `rcb:0` is unparseable, which would break the Display →
    /// FromStr round-trip).
    pub fn rcb(blocks: u32) -> Self {
        assert!(blocks >= 1, "rcb needs at least one block");
        Self::from_atoms(vec![TechniqueAtom::RandomCacheBlock {
            blocks,
            seed: DEFAULT_SEED,
        }])
    }

    /// The five techniques of the paper's main evaluation (Fig. 6), in
    /// paper order.
    pub fn main_eval() -> Vec<TechniqueSpec> {
        vec![
            Self::sort(),
            Self::hubsort(),
            Self::hubcluster(),
            Self::dbg(),
            Self::gorder(),
        ]
    }

    /// The four skew-aware techniques (main evaluation minus Gorder).
    pub fn skew_aware() -> Vec<TechniqueSpec> {
        vec![
            Self::sort(),
            Self::hubsort(),
            Self::hubcluster(),
            Self::dbg(),
        ]
    }

    /// Composes `self` with `next` (self first, then `next` on the
    /// reordered graph).
    pub fn then(mut self, next: TechniqueSpec) -> TechniqueSpec {
        self.atoms.extend(next.atoms);
        self
    }

    /// Human-facing label matching the paper's figures: stage labels
    /// joined with `+` (`"Gorder+DBG"`). This is the string report
    /// tables should print.
    pub fn label(&self) -> String {
        self.atoms
            .iter()
            .map(TechniqueAtom::label)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Whether any stage's permutation depends on the degree kind.
    pub fn uses_degree_kind(&self) -> bool {
        self.atoms.iter().any(TechniqueAtom::uses_degree_kind)
    }
}

impl fmt::Display for TechniqueSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            atom.write_spec(f)?;
        }
        Ok(())
    }
}

impl FromStr for TechniqueSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        parse_spec(s, &[])
    }
}

/// One raw `key=value` or bare parameter token.
struct Param<'a> {
    token: &'a str,
    key: Option<&'a str>,
    value: &'a str,
}

fn split_params<'a>(segments: &[&'a str]) -> Vec<Param<'a>> {
    segments
        .iter()
        .map(|&token| match token.split_once('=') {
            Some((k, v)) => Param {
                token,
                key: Some(k),
                value: v,
            },
            None => Param {
                token,
                key: None,
                value: token,
            },
        })
        .collect()
}

fn parse_u32(technique: &str, p: &Param<'_>, expected: &'static str) -> Result<u32, SpecError> {
    p.value
        .parse::<u32>()
        .ok()
        .filter(|&v| v >= 1)
        .ok_or_else(|| SpecError::InvalidValue {
            technique: technique.to_owned(),
            token: p.token.to_owned(),
            expected,
        })
}

fn parse_u64(technique: &str, p: &Param<'_>, expected: &'static str) -> Result<u64, SpecError> {
    p.value.parse::<u64>().map_err(|_| SpecError::InvalidValue {
        technique: technique.to_owned(),
        token: p.token.to_owned(),
        expected,
    })
}

fn reject_params(name: &str, params: &[Param<'_>]) -> Result<(), SpecError> {
    match params.first() {
        None => Ok(()),
        Some(p) => Err(SpecError::UnknownParam {
            technique: name.to_owned(),
            token: p.token.to_owned(),
        }),
    }
}

/// Parses one `name[:param]*` atom. `custom_names` extends the
/// accepted head names (used by [`TechniqueRegistry::parse`](crate::TechniqueRegistry::parse)).
fn parse_atom(atom: &str, custom_names: &[&str]) -> Result<TechniqueAtom, SpecError> {
    let segments: Vec<&str> = atom.split(':').map(str::trim).collect();
    // `split` always yields at least one segment; the destructure
    // keeps that fact local instead of encoding it as an index.
    let Some((&head, rest)) = segments.split_first() else {
        return Err(SpecError::Empty);
    };
    if head.is_empty() {
        return Err(SpecError::Empty);
    }
    let lower = head.to_ascii_lowercase();
    let params = split_params(rest);
    match lower.as_str() {
        "orig" | "original" | "identity" | "none" => {
            reject_params("orig", &params)?;
            Ok(TechniqueAtom::Original)
        }
        "sort" => {
            reject_params("sort", &params)?;
            Ok(TechniqueAtom::Sort)
        }
        "hubsort" | "hs" => {
            reject_params("hubsort", &params)?;
            Ok(TechniqueAtom::HubSort)
        }
        "hubcluster" | "hc" => {
            reject_params("hubcluster", &params)?;
            Ok(TechniqueAtom::HubCluster)
        }
        "hubsort-o" | "hubsorto" => {
            reject_params("hubsort-o", &params)?;
            Ok(TechniqueAtom::HubSortO)
        }
        "hubcluster-o" | "hubclustero" => {
            reject_params("hubcluster-o", &params)?;
            Ok(TechniqueAtom::HubClusterO)
        }
        "gorder" => {
            reject_params("gorder", &params)?;
            Ok(TechniqueAtom::Gorder)
        }
        "dbg" => {
            let mut hot_groups = DEFAULT_DBG_HOT_GROUPS;
            for p in &params {
                match p.key {
                    None | Some("groups") => {
                        hot_groups = parse_u32("dbg", p, "a positive group count")?;
                    }
                    Some(_) => {
                        return Err(SpecError::UnknownParam {
                            technique: "dbg".to_owned(),
                            token: p.token.to_owned(),
                        })
                    }
                }
            }
            Ok(TechniqueAtom::Dbg { hot_groups })
        }
        "rv" | "random-vertex" => {
            let mut seed = DEFAULT_SEED;
            for p in &params {
                match p.key {
                    None | Some("seed") => seed = parse_u64("rv", p, "a u64 seed")?,
                    Some(_) => {
                        return Err(SpecError::UnknownParam {
                            technique: "rv".to_owned(),
                            token: p.token.to_owned(),
                        })
                    }
                }
            }
            Ok(TechniqueAtom::RandomVertex { seed })
        }
        "rcb" | "random-cache-block" => {
            let mut blocks: Option<u32> = None;
            let mut seed = DEFAULT_SEED;
            for p in &params {
                match p.key {
                    None | Some("blocks") => {
                        blocks = Some(parse_u32("rcb", p, "a positive block count")?);
                    }
                    Some("seed") => seed = parse_u64("rcb", p, "a u64 seed")?,
                    Some(_) => {
                        return Err(SpecError::UnknownParam {
                            technique: "rcb".to_owned(),
                            token: p.token.to_owned(),
                        })
                    }
                }
            }
            let blocks = blocks.ok_or(SpecError::InvalidValue {
                technique: "rcb".to_owned(),
                token: atom.to_owned(),
                expected: "a block count, e.g. `rcb:4`",
            })?;
            Ok(TechniqueAtom::RandomCacheBlock { blocks, seed })
        }
        other if custom_names.contains(&other) => Ok(TechniqueAtom::Custom {
            name: other.to_owned(),
            args: rest.iter().map(|s| s.to_string()).collect(),
        }),
        _ => {
            let mut valid: Vec<String> = BUILTIN_TECHNIQUES.iter().map(|s| s.to_string()).collect();
            valid.extend(custom_names.iter().map(|s| s.to_string()));
            Err(SpecError::UnknownTechnique {
                token: head.to_owned(),
                valid,
            })
        }
    }
}

/// Shared parser behind [`TechniqueSpec::from_str`] and the registry.
pub(crate) fn parse_spec(s: &str, custom_names: &[&str]) -> Result<TechniqueSpec, SpecError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(SpecError::Empty);
    }
    let atoms = s
        .split('+')
        .map(|atom| parse_atom(atom.trim(), custom_names))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TechniqueSpec::from_atoms(atoms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_examples_parse() {
        assert_eq!(
            "dbg".parse::<TechniqueSpec>().unwrap(),
            TechniqueSpec::dbg()
        );
        assert_eq!(
            "dbg:groups=6".parse::<TechniqueSpec>().unwrap(),
            TechniqueSpec::dbg()
        );
        assert_eq!(
            "hubsort-o".parse::<TechniqueSpec>().unwrap(),
            TechniqueSpec::hubsort_o()
        );
        assert_eq!(
            "rcb:4".parse::<TechniqueSpec>().unwrap(),
            TechniqueSpec::rcb(4)
        );
        assert_eq!(
            "sort".parse::<TechniqueSpec>().unwrap(),
            TechniqueSpec::sort()
        );
        assert_eq!(
            "gorder+dbg".parse::<TechniqueSpec>().unwrap(),
            TechniqueSpec::gorder_dbg()
        );
    }

    #[test]
    fn canonical_display_is_a_parse_fixpoint() {
        for s in [
            "orig",
            "sort",
            "hubsort",
            "hubcluster",
            "hubsort-o",
            "hubcluster-o",
            "dbg",
            "dbg:groups=3",
            "gorder",
            "gorder+dbg",
            "rv",
            "rv:seed=7",
            "rcb:4",
            "rcb:3:seed=9",
            "sort+dbg:groups=2",
        ] {
            let spec: TechniqueSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s, "canonical form of {s}");
            assert_eq!(spec.to_string().parse::<TechniqueSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn labels_format_actual_parameters() {
        // RCB labels carry the real block count for every n.
        assert_eq!(TechniqueSpec::rcb(3).label(), "RCB-3");
        assert_eq!(TechniqueSpec::rcb(16).label(), "RCB-16");
        assert_eq!(TechniqueSpec::rcb(4).label(), "RCB-4");
        assert_eq!(TechniqueSpec::dbg().label(), "DBG");
        assert_eq!(TechniqueSpec::dbg_groups(4).label(), "DBG(4)");
        assert_eq!(TechniqueSpec::gorder_dbg().label(), "Gorder+DBG");
        assert_eq!(TechniqueSpec::hubsort_o().label(), "HubSort-O");
        // Non-default probe seeds stay distinguishable in reports.
        assert_eq!(TechniqueSpec::rv().label(), "RV");
        assert_eq!(
            "rv:seed=1".parse::<TechniqueSpec>().unwrap().label(),
            "RV(seed=1)"
        );
        assert_eq!(
            "rcb:2:seed=9".parse::<TechniqueSpec>().unwrap().label(),
            "RCB-2(seed=9)"
        );
    }

    #[test]
    fn errors_carry_the_offending_token() {
        match "grail".parse::<TechniqueSpec>() {
            Err(SpecError::UnknownTechnique { token, valid }) => {
                assert_eq!(token, "grail");
                assert!(valid.contains(&"dbg".to_owned()));
            }
            other => panic!("expected UnknownTechnique, got {other:?}"),
        }
        match "sort:groups=4".parse::<TechniqueSpec>() {
            Err(SpecError::UnknownParam { technique, token }) => {
                assert_eq!(technique, "sort");
                assert_eq!(token, "groups=4");
            }
            other => panic!("expected UnknownParam, got {other:?}"),
        }
        match "dbg:groups=zero".parse::<TechniqueSpec>() {
            Err(SpecError::InvalidValue { token, .. }) => assert_eq!(token, "groups=zero"),
            other => panic!("expected InvalidValue, got {other:?}"),
        }
        assert_eq!("".parse::<TechniqueSpec>(), Err(SpecError::Empty));
        assert_eq!("dbg+".parse::<TechniqueSpec>(), Err(SpecError::Empty));
    }

    #[test]
    fn aliases_normalize() {
        for (alias, canonical) in [
            ("original", "orig"),
            ("identity", "orig"),
            ("hs", "hubsort"),
            ("hc", "hubcluster"),
            ("hubsorto", "hubsort-o"),
            ("DBG", "dbg"),
            ("Gorder+DBG", "gorder+dbg"),
            ("rcb:blocks=4", "rcb:4"),
        ] {
            let spec: TechniqueSpec = alias.parse().unwrap();
            assert_eq!(spec.to_string(), canonical, "{alias}");
        }
    }

    #[test]
    fn degree_kind_sensitivity_matches_the_harness_canonicalization() {
        for (s, sensitive) in [
            ("sort", true),
            ("hubsort", true),
            ("hubcluster", true),
            ("dbg", true),
            ("gorder", false),
            ("hubsort-o", false),
            ("hubcluster-o", false),
            ("rv", false),
            ("rcb:1", false),
            ("orig", false),
            ("gorder+dbg", true),
        ] {
            let spec: TechniqueSpec = s.parse().unwrap();
            assert_eq!(spec.uses_degree_kind(), sensitive, "{s}");
        }
    }
}
