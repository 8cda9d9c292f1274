//! Criterion bench for the serial substrate: the conventional O(n³)
//! kernels whose unit time normalises every result in the paper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dense::{gen, kernel};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");

    for n in [32usize, 64, 128] {
        let a = gen::random(n, n, 1);
        let b = gen::random(n, n, 2);
        g.throughput(Throughput::Elements((n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("naive_ijk", n), &n, |bch, _| {
            bch.iter(|| black_box(kernel::matmul_naive(&a, &b)));
        });
        g.bench_with_input(BenchmarkId::new("ikj", n), &n, |bch, _| {
            bch.iter(|| black_box(kernel::matmul(&a, &b)));
        });
    }

    // The per-block accumulate primitive the simulated algorithms use.
    let a = gen::random(16, 16, 3);
    let b = gen::random(16, 16, 4);
    g.bench_function("accumulate_16_block", |bch| {
        let mut cacc = dense::Matrix::zeros(16, 16);
        bch.iter(|| {
            kernel::matmul_accumulate(&mut cacc, &a, &b);
            black_box(cacc.as_slice()[0]);
        });
    });

    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
