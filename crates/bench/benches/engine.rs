//! End-to-end engine throughput: a full oversubscribed trial per
//! mapper × dropper combination (events per second is the quantity that
//! bounds experiment wall-time).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use taskdrop_core::{DropPolicy, ProactiveDropper, ReactiveOnly};
use taskdrop_sched::{MappingHeuristic, MinMin, Pam};
use taskdrop_sim::{SimConfig, SimCore};
use taskdrop_workload::{OversubscriptionLevel, Scenario, Workload};

fn bench_engine(c: &mut Criterion) {
    let scenario = Scenario::specint(0xA5);
    let level = OversubscriptionLevel::new("bench", 600, 3_500);
    let workload = Workload::generate(&scenario, &level, 1.0, 11);
    let config = SimConfig { exclude_boundary: 0, ..SimConfig::default() };

    let mut group = c.benchmark_group("trial_600_tasks");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    type Combo = (&'static str, Box<dyn MappingHeuristic>, Box<dyn DropPolicy>);
    let combos: Vec<Combo> = vec![
        ("PAM+Heuristic", Box::new(Pam), Box::new(ProactiveDropper::paper_default())),
        ("PAM+ReactDrop", Box::new(Pam), Box::new(ReactiveOnly)),
        ("MM+Heuristic", Box::new(MinMin), Box::new(ProactiveDropper::paper_default())),
        ("MM+ReactDrop", Box::new(MinMin), Box::new(ReactiveOnly)),
    ];
    for (name, mapper, dropper) in &combos {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
            b.iter(|| {
                let mut core = SimCore::new(
                    &scenario,
                    &workload,
                    mapper.as_ref(),
                    dropper.as_ref(),
                    config,
                    1,
                )
                .expect("valid bench trial");
                black_box(core.run_to_completion().expect("bench trial drains"))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
