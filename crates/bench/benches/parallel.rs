//! Criterion micro-benchmarks: pooled vs sequential graph
//! construction — CSR build from an edge list and permutation apply —
//! on the `sd`-scale generated dataset.
//!
//! These are the two biggest wall-clock sinks of the
//! reorder→rebuild→run pipeline; the multi-threaded paths should beat
//! the sequential ones on any multicore host (on a single-core host
//! the pool degenerates to sequential-plus-overhead, so expect rough
//! parity there). `apply/via_edge_list` additionally shows what the
//! pre-optimization seed implementation (EdgeList round-trip + full
//! counting-sort rebuild) cost: the direct CSR-to-CSR scatter beats it
//! even single-threaded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lgr_core::{Dbg, ReorderingTechnique};
use lgr_graph::datasets::{build, DatasetId, DatasetScale};
use lgr_graph::{Csr, DegreeKind};
use lgr_parallel::Pool;

const THREADS: [usize; 3] = [2, 4, 8];

fn bench_parallel(c: &mut Criterion) {
    let mut el = build(DatasetId::Sd, DatasetScale::with_sd_vertices(1 << 15));
    el.randomize_weights(64, 7);
    let graph = Csr::from_edge_list(&el);
    let perm = Dbg::default().reorder(&graph, DegreeKind::Out);

    let mut group = c.benchmark_group("csr_build");
    group.sample_size(10);
    group.bench_function("sequential", |b| b.iter(|| Csr::from_edge_list(&el)));
    for threads in THREADS {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::new("pooled", threads), &pool, |b, pool| {
            b.iter(|| Csr::from_edge_list_with(&el, pool));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("apply_permutation");
    group.sample_size(10);
    group.bench_function("via_edge_list", |b| {
        // The seed implementation: relabel through an EdgeList and
        // rebuild with the counting-sort path.
        b.iter(|| Csr::from_edge_list(&graph.to_edge_list().relabel(&perm)));
    });
    group.bench_function("direct_sequential", |b| {
        b.iter(|| graph.apply_permutation(&perm));
    });
    for threads in THREADS {
        let pool = Pool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("direct_pooled", threads),
            &pool,
            |b, pool| {
                b.iter(|| graph.apply_permutation_with(&perm, pool));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
