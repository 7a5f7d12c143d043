//! The audit ratchet: a committed file (`xtask/audit.ratchet`)
//! acknowledging known finding groups, so the audit gates on *new*
//! sites while existing debt is visible, justified, and monotonically
//! shrinking.
//!
//! ## Format
//!
//! One entry per line, whitespace-separated, `#` starts the
//! justification (required):
//!
//! ```text
//! <file-pattern> <fn-pattern> <rule> <count> # justification
//! ```
//!
//! * `file-pattern` — exact workspace-relative path, or a prefix
//!   glob ending in `*` (`crates/analytics/*`).
//! * `fn-pattern` — bare name, `Type::name`, or `*`.
//! * `rule` — a rule id (`unwrap`, `expect`, `panic-macro`, `index`,
//!   `unsafe-no-contract`, `wrapper-untested`, `taint-capacity`,
//!   `taint-read`, `taint-loop`) or `*`.
//! * `count` — exact number of sites the entry acknowledges, or `*`.
//!   An exact count is a two-sided ratchet: **more** sites fail the
//!   audit (a regression), **fewer** sites also fail it with a
//!   "shrink this entry" message, so fixed debt is locked in.
//!
//! ## Invariants checked
//!
//! * every finding group is covered by exactly-one-or-more entries;
//!   uncovered groups fail;
//! * every entry matches at least one group (stale entries fail);
//! * no entry may cover a zero-zone region of its own rule family
//!   (panic-family zones vs `taint-*` zones are scoped separately,
//!   so the text loaders can ratchet index sites while staying taint
//!   zero zones), and zero-zone findings fail regardless of entries
//!   (see [`crate::audit::ZeroZone`]).

use std::path::PathBuf;

use crate::audit::{SiteGroup, ZeroZone};
use crate::Finding;

/// One parsed ratchet entry.
#[derive(Debug, Clone)]
pub struct RatchetEntry {
    /// File path or `…*` prefix glob.
    pub file_pat: String,
    /// Function pattern (`*`, bare name, or `Type::name`).
    pub fn_pat: String,
    /// Rule id or `*`.
    pub rule_pat: String,
    /// Acknowledged site count; `None` for `*`.
    pub count: Option<usize>,
    /// Justification (after `#`).
    pub note: String,
    /// 1-based line in the ratchet file.
    pub line: usize,
}

impl RatchetEntry {
    /// Whether this entry covers the group.
    pub fn matches(&self, g: &SiteGroup) -> bool {
        let file_ok = match self.file_pat.strip_suffix('*') {
            Some(prefix) => g.file.starts_with(prefix),
            None => g.file == self.file_pat,
        };
        let fn_ok = self.fn_pat == "*" || self.fn_pat == g.fn_disp || self.fn_pat == g.fn_name;
        let rule_ok = self.rule_pat == "*" || self.rule_pat == g.rule;
        file_ok && fn_ok && rule_ok
    }

    fn bare_fn(&self) -> &str {
        self.fn_pat.rsplit("::").next().unwrap_or(&self.fn_pat)
    }

    /// Whether this entry could acknowledge anything inside a zero
    /// zone (such entries are rejected outright).
    pub fn overlaps_zone(&self, zone: &ZeroZone) -> bool {
        match zone {
            ZeroZone::Prefix(p) => {
                let stripped = self.file_pat.strip_suffix('*').unwrap_or(&self.file_pat);
                stripped.starts_with(p.as_str()) || p.starts_with(stripped)
            }
            ZeroZone::Fns {
                file,
                names,
                name_prefixes,
            } => {
                let file_ok = match self.file_pat.strip_suffix('*') {
                    Some(prefix) => file.starts_with(prefix),
                    None => file == &self.file_pat,
                };
                if !file_ok {
                    return false;
                }
                if self.fn_pat == "*" {
                    return true;
                }
                let bare = self.bare_fn();
                names.iter().any(|n| n == bare)
                    || name_prefixes.iter().any(|p| bare.starts_with(p.as_str()))
            }
        }
    }
}

/// Parses the ratchet text. Blank lines and `#`-only lines are
/// comments; every entry must carry a justification.
pub fn parse(text: &str) -> Result<Vec<RatchetEntry>, String> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (fields, note) = match trimmed.split_once('#') {
            Some((f, n)) => (f, n.trim()),
            None => (trimmed, ""),
        };
        let parts: Vec<&str> = fields.split_whitespace().collect();
        if parts.len() != 4 {
            return Err(format!(
                "audit.ratchet:{line}: expected `<file> <fn> <rule> <count> # note`, got \
                 {} field(s)",
                parts.len()
            ));
        }
        if note.is_empty() {
            return Err(format!(
                "audit.ratchet:{line}: entry needs a `# justification` comment"
            ));
        }
        let count = if parts[3] == "*" {
            None
        } else {
            Some(
                parts[3]
                    .parse::<usize>()
                    .map_err(|_| format!("audit.ratchet:{line}: count must be a number or `*`"))?,
            )
        };
        entries.push(RatchetEntry {
            file_pat: parts[0].to_owned(),
            fn_pat: parts[1].to_owned(),
            rule_pat: parts[2].to_owned(),
            count,
            note: note.to_owned(),
            line,
        });
    }
    Ok(entries)
}

/// Whether an entry could acknowledge findings of the given rule
/// family (`taint` or not): zones are family-scoped, so a
/// panic-family entry on a file that is only a *taint* zero zone is
/// legal, and vice versa.
fn entry_in_zones(e: &RatchetEntry, zones: &[ZeroZone], taint_zones: &[ZeroZone]) -> bool {
    let covers_taint = e.rule_pat == "*" || crate::taint::is_taint_rule(&e.rule_pat);
    let covers_panic = e.rule_pat == "*" || !crate::taint::is_taint_rule(&e.rule_pat);
    (covers_panic && zones.iter().any(|z| e.overlaps_zone(z)))
        || (covers_taint && taint_zones.iter().any(|z| e.overlaps_zone(z)))
}

/// Diffs finding groups against the ratchet. An empty return means
/// the audit passes. `zones` guards panic-family rules,
/// `taint_zones` guards `taint-*` rules.
pub fn check(
    groups: &[SiteGroup],
    entries: &[RatchetEntry],
    zones: &[ZeroZone],
    taint_zones: &[ZeroZone],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let ratchet_path = PathBuf::from("xtask/audit.ratchet");

    // Entries must keep out of zero zones.
    for e in entries {
        if entry_in_zones(e, zones, taint_zones) {
            out.push(Finding {
                path: ratchet_path.clone(),
                line: e.line,
                rule: "ratchet-forbidden",
                message: format!(
                    "entry `{} {} {}` covers a zero zone (serve / lgr-io codec / spec \
                     parsing) — fix the code instead of acknowledging it",
                    e.file_pat, e.fn_pat, e.rule_pat
                ),
            });
        }
    }

    let mut matched = vec![false; entries.len()];
    for g in groups {
        if g.zero_zone {
            out.push(Finding {
                path: PathBuf::from(&g.file),
                line: g.lines.first().copied().unwrap_or(0),
                rule: g.rule,
                message: format!(
                    "{} site(s) in zero-zone fn `{}` ({}) — must be fixed, cannot be \
                     ratcheted; lines {:?}",
                    g.count(),
                    g.fn_disp,
                    g.sample,
                    g.lines
                ),
            });
            continue;
        }
        let mut covered = false;
        for (ei, e) in entries.iter().enumerate() {
            if !e.matches(g) {
                continue;
            }
            matched[ei] = true;
            covered = true;
            if let Some(n) = e.count {
                if g.count() > n {
                    out.push(Finding {
                        path: PathBuf::from(&g.file),
                        line: g.lines.first().copied().unwrap_or(0),
                        rule: g.rule,
                        message: format!(
                            "`{}` has {} `{}` site(s) but the ratchet acknowledges {n} — \
                             new sites are a regression (lines {:?}; `cargo xtask audit \
                             --explain {}`)",
                            g.fn_disp,
                            g.count(),
                            g.rule,
                            g.lines,
                            g.fn_disp
                        ),
                    });
                } else if g.count() < n {
                    out.push(Finding {
                        path: ratchet_path.clone(),
                        line: e.line,
                        rule: "ratchet-shrink",
                        message: format!(
                            "`{}` now has only {} `{}` site(s); shrink the acknowledged \
                             count from {n} (run `cargo xtask audit --update-ratchet`)",
                            g.fn_disp,
                            g.count(),
                            g.rule
                        ),
                    });
                }
            }
            break;
        }
        if !covered {
            out.push(Finding {
                path: PathBuf::from(&g.file),
                line: g.lines.first().copied().unwrap_or(0),
                rule: g.rule,
                message: format!(
                    "unacknowledged: `{}` has {} `{}` site(s) (lines {:?}; first: {}) — \
                     fix them or add a justified ratchet entry",
                    g.fn_disp,
                    g.count(),
                    g.rule,
                    g.lines,
                    g.sample
                ),
            });
        }
    }

    for (ei, e) in entries.iter().enumerate() {
        if !matched[ei] && !entry_in_zones(e, zones, taint_zones) {
            out.push(Finding {
                path: ratchet_path.clone(),
                line: e.line,
                rule: "ratchet-stale",
                message: format!(
                    "entry `{} {} {} {}` matches no current finding — delete it (debt \
                     paid down!)",
                    e.file_pat,
                    e.fn_pat,
                    e.rule_pat,
                    e.count.map_or("*".to_owned(), |c| c.to_string())
                ),
            });
        }
    }

    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

/// Regenerates ratchet text from current groups, preserving the
/// justifications (and wildcard shapes) of entries that still match.
/// Newly uncovered groups get a `TODO: justify` note so the diff is
/// visible in review.
pub fn render_update(groups: &[SiteGroup], old: &[RatchetEntry]) -> String {
    let mut lines = vec![
        "# xtask audit ratchet — acknowledged static-analysis findings.".to_owned(),
        "# Format: <file-pattern> <fn-pattern> <rule> <count> # justification".to_owned(),
        "# See README \"Static analysis\" and `cargo xtask audit --help`.".to_owned(),
        String::new(),
    ];
    let mut kept: Vec<&RatchetEntry> = Vec::new();
    for e in old {
        if groups.iter().any(|g| !g.zero_zone && e.matches(g)) {
            kept.push(e);
        }
    }
    let covered_note = |g: &SiteGroup| -> Option<String> {
        for e in &kept {
            if e.matches(g) {
                return if e.count.is_none() {
                    None // wildcard entry stays verbatim, once
                } else {
                    Some(e.note.clone())
                };
            }
        }
        Some("TODO: justify".to_owned())
    };
    let mut emitted_wildcards: Vec<String> = Vec::new();
    for e in &kept {
        if e.count.is_none() {
            let line = format!("{} {} {} * # {}", e.file_pat, e.fn_pat, e.rule_pat, e.note);
            if !emitted_wildcards.contains(&line) {
                emitted_wildcards.push(line.clone());
                lines.push(line);
            }
        }
    }
    for g in groups {
        if g.zero_zone {
            continue;
        }
        if let Some(note) = covered_note(g) {
            lines.push(format!(
                "{} {} {} {} # {}",
                g.file,
                g.fn_disp,
                g.rule,
                g.count(),
                note
            ));
        }
    }
    lines.push(String::new());
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(file: &str, fn_disp: &str, rule: &'static str, n: usize, zero: bool) -> SiteGroup {
        SiteGroup {
            file: file.to_owned(),
            fn_disp: fn_disp.to_owned(),
            fn_name: fn_disp.rsplit("::").next().unwrap_or(fn_disp).to_owned(),
            rule,
            lines: (1..=n).collect(),
            sample: "x".to_owned(),
            zero_zone: zero,
        }
    }

    #[test]
    fn parse_accepts_wildcards_and_requires_notes() {
        let e = parse(
            "# comment\n\ncrates/core/* * index * # kernel loops\n\
             crates/engine/src/spec.rs TechniqueSpec::from_atoms panic-macro 2 # ctor contract\n",
        )
        .unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].count, None);
        assert_eq!(e[1].count, Some(2));
        assert!(parse("crates/a/src/x.rs f index 1\n").is_err()); // no note
        assert!(parse("crates/a/src/x.rs f index\n").is_err()); // 3 fields
        assert!(parse("crates/a/src/x.rs f index q # note\n").is_err()); // bad count
    }

    #[test]
    fn exact_counts_ratchet_both_directions() {
        let entries = parse("crates/a/src/x.rs f index 2 # why\n").unwrap();
        let ok = check(
            &[group("crates/a/src/x.rs", "f", "index", 2, false)],
            &entries,
            &[],
            &[],
        );
        assert!(ok.is_empty());
        let grew = check(
            &[group("crates/a/src/x.rs", "f", "index", 3, false)],
            &entries,
            &[],
            &[],
        );
        assert_eq!(grew.len(), 1);
        assert!(grew[0].message.contains("regression"));
        let shrank = check(
            &[group("crates/a/src/x.rs", "f", "index", 1, false)],
            &entries,
            &[],
            &[],
        );
        assert_eq!(shrank.len(), 1);
        assert_eq!(shrank[0].rule, "ratchet-shrink");
    }

    #[test]
    fn uncovered_groups_and_stale_entries_both_fail() {
        let entries = parse("crates/a/src/x.rs f index 1 # why\n").unwrap();
        let uncovered = check(
            &[group("crates/a/src/y.rs", "g", "unwrap", 1, false)],
            &entries,
            &[],
            &[],
        );
        assert_eq!(uncovered.len(), 2); // unacknowledged group + stale entry
        assert!(uncovered.iter().any(|f| f.rule == "unwrap"));
        assert!(uncovered.iter().any(|f| f.rule == "ratchet-stale"));
    }

    #[test]
    fn wildcard_prefix_entries_cover_many_groups() {
        let entries = parse("crates/core/* * * * # kernels index CSR arrays\n").unwrap();
        let groups = [
            group("crates/core/src/grouping.rs", "a", "index", 7, false),
            group("crates/core/src/gorder.rs", "B::b", "unwrap", 2, false),
        ];
        assert!(check(&groups, &entries, &[], &[]).is_empty());
    }

    #[test]
    fn zero_zone_groups_and_entries_are_rejected() {
        let zones = vec![ZeroZone::Prefix("crates/serve/src".to_owned())];
        let entries = parse("crates/serve/* * * * # nope\n").unwrap();
        let groups = [group(
            "crates/serve/src/protocol.rs",
            "parse",
            "unwrap",
            1,
            true,
        )];
        let out = check(&groups, &entries, &zones, &[]);
        assert!(out.iter().any(|f| f.rule == "ratchet-forbidden"));
        assert!(out.iter().any(|f| f.rule == "unwrap"));
        // Fn-scoped zones reject matching fn patterns but not others.
        let zone = ZeroZone::Fns {
            file: "crates/engine/src/spec.rs".to_owned(),
            names: vec!["from_str".to_owned()],
            name_prefixes: vec!["parse_".to_owned()],
        };
        let reject = parse("crates/engine/src/spec.rs parse_atom index 1 # nope\n").unwrap();
        assert!(reject[0].overlaps_zone(&zone));
        let allow =
            parse("crates/engine/src/spec.rs TechniqueSpec::from_atoms panic-macro 1 # ctor\n")
                .unwrap();
        assert!(!allow[0].overlaps_zone(&zone));
    }

    #[test]
    fn zone_rejection_is_scoped_by_rule_family() {
        let taint_zones = vec![ZeroZone::Prefix("crates/io/src/text.rs".to_owned())];
        // A panic-family entry on a taint-only zero zone stays legal…
        let panic_entry = parse("crates/io/src/text.rs * index 2 # own-scan offsets\n").unwrap();
        let groups = [group("crates/io/src/text.rs", "f", "index", 2, false)];
        assert!(check(&groups, &panic_entry, &[], &taint_zones).is_empty());
        // …while taint-family and rule-wildcard entries are rejected.
        for bad in [
            "crates/io/src/text.rs * taint-capacity 1 # nope\n",
            "crates/io/src/text.rs * * * # nope\n",
        ] {
            let e = parse(bad).unwrap();
            let out = check(&groups, &e, &[], &taint_zones);
            assert!(
                out.iter().any(|f| f.rule == "ratchet-forbidden"),
                "expected rejection for {bad}"
            );
        }
        // Taint findings in a taint zone always fail, entry or not.
        let zz = [group(
            "crates/io/src/text.rs",
            "f",
            "taint-capacity",
            1,
            true,
        )];
        assert!(check(&zz, &[], &[], &taint_zones)
            .iter()
            .any(|f| f.rule == "taint-capacity"));
    }

    #[test]
    fn update_preserves_notes_and_wildcards() {
        let old =
            parse("crates/core/* * * * # kernels\ncrates/a/src/x.rs f index 2 # checked above\n")
                .unwrap();
        let groups = [
            group("crates/core/src/grouping.rs", "k", "index", 9, false),
            group("crates/a/src/x.rs", "f", "index", 1, false),
            group("crates/b/src/y.rs", "g", "unwrap", 1, false),
        ];
        let text = render_update(&groups, &old);
        assert!(text.contains("crates/core/* * * * # kernels"));
        assert!(text.contains("crates/a/src/x.rs f index 1 # checked above"));
        assert!(text.contains("crates/b/src/y.rs g unwrap 1 # TODO: justify"));
        // The regenerated file must parse and pass its own check.
        let reparsed = parse(&text).unwrap();
        assert!(check(&groups, &reparsed, &[], &[]).is_empty());
    }
}
