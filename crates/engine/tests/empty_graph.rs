//! A dataset with no vertices runs every app under every ordering:
//! there are no roots to map through the (empty) permutation, so
//! traced and untraced runs finish instead of indexing out of bounds.

use lgr_analytics::apps::AppId;
use lgr_engine::{AppSpec, Job, Session, SessionConfig, TechniqueSpec};
use lgr_graph::EdgeList;

#[test]
fn empty_dataset_runs_every_app_and_ordering() {
    let mut session = Session::new(SessionConfig::quick());
    session.dataset_registry_mut().register(
        "empty",
        "a graph with no vertices",
        |_args, _scale| Ok(EdgeList::new(0)),
    );
    let empty = session.dataset_registry().parse("empty").unwrap();
    assert_eq!(session.graph(&empty).num_vertices(), 0);

    let orderings = std::iter::once(None).chain(TechniqueSpec::main_eval().into_iter().map(Some));
    for technique in orderings {
        for app in AppId::ALL {
            let mut job = Job::new(AppSpec::new(app), empty.clone());
            if let Some(spec) = &technique {
                job = job.with_technique(spec.clone());
            }
            let _ = session.report(&job);
            let _ = session.wall(&job);
        }
    }
}
