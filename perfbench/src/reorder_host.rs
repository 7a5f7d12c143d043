//! `reorder_host`: the real-hardware cost path of Tables XI and XII,
//! with no simulator.
//!
//! Datasets `sd` and `kr` at sd=2^18 are written once to the
//! benchmark's own `.lgr` dataset cache; every pass then opens a fresh
//! `Session` that loads them back (set-up). For Original, dbg, sort,
//! hubsort and hubcluster the pass calls `dataset_reorder`, then
//! `reordered_graph`, then `wall` for `pr` (out-degree order) and for
//! `sssp` (in-degree order). Gorder is left out: its permutation alone
//! would dwarf every other figure here, and `sim_sweep` measures it.

use std::path::Path;
use std::time::Instant;

use lgr_analytics::apps::{pagerank, sssp, PrConfig, SsspConfig};
use lgr_analytics::verify::{dijkstra_reference, pagerank_reference, remap};
use lgr_cachesim::NullTracer;
use lgr_engine::{AppSpec, DatasetSpec, Job, Session, SessionConfig, TechniqueSpec};
use lgr_graph::{Csr, Permutation, VertexId};

use crate::{median, spec, Checks, Outcome, Params, Tracer};

/// Default scale exponent: `sd` gets 2^18 vertices.
pub const SCALE: u32 = 18;

/// Fewest set-up samples in a run; set-up is repeated alone when the
/// passes gave fewer.
const SETUPS: usize = 11;

const DATASETS: [&str; 2] = ["sd", "kr"];
const TECHNIQUES: [&str; 5] = ["orig", "dbg", "sort", "hubsort", "hubcluster"];
const APPS: [&str; 2] = ["pr", "sssp"];

/// Largest relative difference allowed between a PageRank score on a
/// reordered graph (mapped back) and the reference: the two sum the
/// same terms in different orders, nothing more.
pub const PR_TOLERANCE: f64 = 1e-9;

struct Plan {
    cfg: SessionConfig,
    datasets: Vec<DatasetSpec>,
    /// `None` is Original.
    techniques: Vec<Option<TechniqueSpec>>,
    apps: Vec<AppSpec>,
}

impl Plan {
    fn new(p: &Params, cache_dir: &Path) -> Plan {
        let mut cfg = SessionConfig::default().with_scale_exp(p.scale.unwrap_or(SCALE));
        cfg.dataset_cache = Some(cache_dir.to_path_buf());
        Plan {
            cfg,
            datasets: DATASETS
                .iter()
                .map(|d| spec(&format!("{d}:seed={}", p.seed)))
                .collect(),
            techniques: TECHNIQUES
                .iter()
                .map(|t| (*t != "orig").then(|| spec(t)))
                .collect(),
            apps: APPS.iter().map(|a| spec(a)).collect(),
        }
    }

    /// A fresh session with every dataset loaded from the `.lgr`
    /// cache, and how long that took.
    fn setup(&self, tr: &Tracer) -> Result<(Session, f64), String> {
        let t = Instant::now();
        let s = Session::new(self.cfg.clone());
        for ds in &self.datasets {
            tr.span("io.lgr_load", 0, || s.try_graph(ds))
                .map_err(|e| format!("loading {ds}: {e}"))?;
        }
        Ok((s, t.elapsed().as_secs_f64()))
    }
}

struct Pass {
    setup_s: f64,
    wall_s: f64,
    reorder_s: f64,
    host_app_s: f64,
    window: (u64, u64),
}

fn pass(plan: &Plan, tr: &Tracer) -> Result<(Session, Pass), String> {
    let (s, setup_s) = plan.setup(tr)?;
    let from = tr.now_ns();
    let t = Instant::now();
    let (mut reorder_s, mut host_app_s) = (0.0, 0.0);
    let mut job_id = 0u64;
    for ds in &plan.datasets {
        for tech in &plan.techniques {
            for app in &plan.apps {
                job_id += 1;
                let mut job = Job::new(app.clone(), ds.clone());
                if let Some(tech) = tech {
                    let kind = app.id().reorder_degree();
                    let r = Instant::now();
                    tr.span(&format!("core.perm.{tech}"), job_id, || {
                        s.dataset_reorder(ds, tech, kind)
                    });
                    tr.span("graph.relabel", job_id, || {
                        s.reordered_graph(ds, tech, kind)
                    });
                    reorder_s += r.elapsed().as_secs_f64();
                    job = job.with_technique(tech.clone());
                }
                let kernel = tr.span(&format!("analytics.host.{}", app.token()), job_id, || {
                    s.wall(&job)
                });
                host_app_s += kernel.as_secs_f64();
            }
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let pass = Pass {
        setup_s,
        wall_s,
        reorder_s,
        host_app_s,
        window: (from, tr.now_ns()),
    };
    Ok((s, pass))
}

/// Output checks on a session whose pass has run, outside any timed
/// region: every permutation is a bijection, every relabeled CSR keeps
/// the edge count and the permuted degree sequence, and `pr` and
/// `sssp` on every reordered graph, mapped back, match the references
/// on the original graph.
fn check_outputs(s: &Session, plan: &Plan, mut tamper: bool, checks: &mut Checks) {
    let cfg = s.config();
    for ds in &plan.datasets {
        let base = s.graph(ds);
        let roots = s.roots(ds, cfg.roots);
        let want_pr = pagerank_reference(&base, PrConfig::default().damping, cfg.pr_iters);
        let want_sssp: Vec<Vec<u64>> = roots
            .iter()
            .map(|&r| dijkstra_reference(&base, r))
            .collect();
        for tech in &plan.techniques {
            for app in &plan.apps {
                let (graph, perm) = match tech {
                    None => (base.clone(), Permutation::identity(base.num_vertices())),
                    Some(tech) => {
                        let kind = app.id().reorder_degree();
                        let timed = s.dataset_reorder(ds, tech, kind);
                        let graph = s.reordered_graph(ds, tech, kind);
                        let label = format!("{ds}/{tech}/{kind:?}");
                        check_relabel(&base, &graph, &timed.permutation, &label, checks);
                        (graph, timed.permutation.clone())
                    }
                };
                let label = format!(
                    "{ds}/{}/{app}",
                    tech.as_ref()
                        .map_or_else(|| "orig".to_owned(), ToString::to_string)
                );
                if app.token() == "pr" {
                    let pr_cfg = PrConfig {
                        max_iters: cfg.pr_iters,
                        tolerance: 0.0,
                        cores: cfg.sim.cores,
                        ..PrConfig::default()
                    };
                    let mut got = remap(&pagerank(&graph, &pr_cfg, &mut NullTracer).ranks, &perm);
                    if std::mem::take(&mut tamper) {
                        got[0] *= 1.5;
                    }
                    let worst = got
                        .iter()
                        .zip(&want_pr)
                        .map(|(g, w)| (g - w).abs() / w.abs().max(f64::MIN_POSITIVE))
                        .fold(0.0, f64::max);
                    checks.check(worst <= PR_TOLERANCE, || {
                        format!(
                            "{label}: pagerank differs from the reference by {worst:e} (relative)"
                        )
                    });
                } else {
                    for (&root, want) in roots.iter().zip(&want_sssp) {
                        let sssp_cfg = SsspConfig {
                            cores: cfg.sim.cores,
                            ..SsspConfig::from_root(perm.new_id(root))
                        };
                        let got = remap(&sssp(&graph, &sssp_cfg, &mut NullTracer).distances, &perm);
                        checks.check(&got == want, || {
                            format!("{label}: sssp from {root} differs from dijkstra_reference")
                        });
                    }
                }
            }
        }
    }
}

fn check_relabel(base: &Csr, graph: &Csr, perm: &Permutation, label: &str, checks: &mut Checks) {
    let n = base.num_vertices();
    let bijection = perm.len() == n && Permutation::from_new_ids(perm.new_ids().to_vec()).is_ok();
    checks.check(bijection, || {
        format!("{label}: permutation is not a bijection")
    });
    checks.check(graph.num_edges() == base.num_edges(), || {
        format!("{label}: relabel changed the edge count")
    });
    let degrees_kept = bijection
        && (0..n as VertexId).all(|v| {
            let new = perm.new_id(v);
            graph.out_degree(new) == base.out_degree(v) && graph.in_degree(new) == base.in_degree(v)
        });
    checks.check(degrees_kept, || {
        format!("{label}: relabel did not permute the degree sequence")
    });
}

pub fn run(p: &Params, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cache_dir = p.out_dir.join(format!("lgr-{}", std::process::id()));
    let result = measure(p, tr, &cache_dir, &mut out);
    let _ = std::fs::remove_dir_all(&cache_dir);
    if let Err(e) = result {
        out.checks.check(false, || e);
    }
    out
}

fn measure(p: &Params, tr: &Tracer, cache_dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let plan = Plan::new(p, cache_dir);
    // Before timing: write every dataset to the `.lgr` cache.
    let writer = Session::new(plan.cfg.clone());
    for ds in &plan.datasets {
        writer
            .try_graph(ds)
            .map_err(|e| format!("building {ds}: {e}"))?;
    }
    drop(writer);

    let untraced = Tracer::new(false);
    let start = Instant::now();
    let (first, pass0) = pass(&plan, &untraced)?;
    check_outputs(&first, &plan, p.tamper, &mut out.checks);
    drop(first);
    let mut passes = vec![pass0];
    while p.another_pass(passes.len(), start) {
        passes.push(pass(&plan, &untraced)?.1);
    }
    let mut setups: Vec<f64> = passes.iter().map(|x| x.setup_s).collect();
    while setups.len() < SETUPS {
        setups.push(plan.setup(&untraced)?.1);
    }
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median(&setups));
    out.set("wall_s", med(|x| x.wall_s));
    out.extra("reorder_s", med(|x| x.reorder_s), "s");
    out.extra("host_app_s", med(|x| x.host_app_s), "s");
    out.extra("passes", passes.len() as f64, "count");
    out.extra("setup_samples", setups.len() as f64, "count");

    if p.trace {
        let traced = pass(&plan, tr)?.1;
        out.add_trace(tr, traced.window, med(|x| x.wall_s));
        let dominant: f64 = [
            "graph.relabel_ms",
            "analytics.host_ms.pr",
            "analytics.host_ms.sssp",
        ]
        .iter()
        .filter_map(|m| out.metrics.get(*m))
        .sum();
        out.extra(
            "relabel_host_share_of_wall",
            dominant / 1e3 / traced.wall_s,
            "ratio",
        );
    }
    Ok(())
}
