//! Criterion bench for the staged batch pipeline: serial vs pipelined
//! submit over both storage backends, on a read-heavy (YCSB-B) and a
//! mixed (YCSB-A) profile. The pipeline's contract is that simulated
//! results are byte-identical between modes — what this bench measures is
//! the *wall-clock* difference between the staged and the plain serial
//! path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datacase_bench::figures::pipeline_cell;
use datacase_storage::backend::BackendKind;
use datacase_workloads::ycsb::YcsbWorkload;

fn bench_pipeline_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_throughput");
    group.sample_size(10);
    for backend in BackendKind::ALL {
        for workload in [YcsbWorkload::B, YcsbWorkload::A] {
            for pipeline in [false, true] {
                let id = format!(
                    "{}/{}/{}",
                    backend.label(),
                    workload.label(),
                    if pipeline { "pipelined" } else { "serial" }
                );
                group.bench_with_input(
                    BenchmarkId::from_parameter(id),
                    &(backend, workload, pipeline),
                    |b, &(backend, workload, pipeline)| {
                        b.iter(|| pipeline_cell(backend, workload, pipeline, 2_000, 2_000, 4242));
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_throughput);
criterion_main!(benches);
