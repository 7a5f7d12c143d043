//! Criterion micro-benchmarks: CSR build from an edge list and
//! permutation apply on the `sd`-scale generated dataset, across pool
//! sizes. There is one implementation of each; a 1-thread pool runs it
//! entirely on the calling thread, so that arm is the sequential
//! baseline.
//!
//! These are the two biggest wall-clock sinks of the
//! reorder→rebuild→run pipeline; more threads should win on any
//! multicore host (on a single-core host expect rough parity).
//! `apply_permutation/via_edge_list` additionally shows what the
//! pre-optimization seed implementation (EdgeList round-trip + full
//! counting-sort rebuild) cost: the direct CSR-to-CSR scatter beats it
//! even single-threaded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lgr_core::{Dbg, ReorderingTechnique};
use lgr_graph::datasets::{build, DatasetId, DatasetScale};
use lgr_graph::{Csr, DegreeKind};
use lgr_parallel::Pool;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel(c: &mut Criterion) {
    let mut el = build(DatasetId::Sd, DatasetScale::with_sd_vertices(1 << 15));
    el.randomize_weights(64, 7);
    let graph = Csr::from_edge_list(&el);
    let perm = Dbg::default().reorder(&graph, DegreeKind::Out);

    let mut group = c.benchmark_group("csr_build");
    group.sample_size(10);
    for threads in THREADS {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &pool, |b, pool| {
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
    for threads in THREADS {
        let pool = Pool::new(threads);
        group.bench_with_input(BenchmarkId::new("direct", threads), &pool, |b, pool| {
            b.iter(|| graph.apply_permutation_with(&perm, pool));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
