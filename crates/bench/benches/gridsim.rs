//! Benchmarks of the discrete-event substrate: raw throughput of the
//! timing-wheel event queue, host execution planning, task-server
//! issue/report cycles, and a whole scaled campaign per iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use gridsim::{
    EventQueue, Host, HostId, HostParams, SchedulerCore, ServerConfig, SimTime,
    VolunteerGridConfig, VolunteerGridSim,
};
use std::hint::black_box;

/// Schedules 10k scattered events and drains them.
fn schedule_pop_10k() -> u64 {
    let mut q = EventQueue::new();
    for i in 0..10_000u64 {
        // Scatter times deterministically.
        let t = ((i * 2_654_435_761) % 1_000_000) as f64;
        q.schedule(SimTime::new(t), i);
    }
    let mut acc = 0u64;
    while let Some((_, e)) = q.pop() {
        acc = acc.wrapping_add(e);
    }
    acc
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_schedule_pop_10k");
    group.bench_function("wheel", |b| b.iter(|| black_box(schedule_pop_10k())));
    group.finish();
}

fn bench_host_planning(c: &mut Criterion) {
    let params = HostParams::wcg_2007();
    let mut host = Host::sample(HostId(7), &params, 1);
    c.bench_function("host_plan_execution", |b| {
        b.iter(|| black_box(host.plan_execution(black_box(14_400.0), black_box(400.0))))
    });
}

fn bench_task_server(c: &mut Criterion) {
    c.bench_function("server_issue_report_10k_wus", |b| {
        b.iter(|| {
            let catalog: Vec<_> = (0..10_000)
                .map(|i| gridsim::sched::WorkunitCatalogEntry {
                    ref_seconds: 1000.0 + i as f32,
                    position_ref_seconds: 100.0,
                    receptor: (i % 168) as u16,
                })
                .collect();
            let mut server = SchedulerCore::new(
                catalog,
                ServerConfig {
                    validation_switch_day: Some(0),
                    ..Default::default()
                },
            );
            let now = SimTime::new(86_400.0);
            let mut done = 0u64;
            while let Some(assign) = server.fetch_work(now) {
                let out = server.report_result(now, assign.replica, false);
                done += u64::from(out.completed_workunit);
            }
            black_box(done)
        })
    });
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("hcmd_phase1_scale_200", |b| {
        // Build inputs once; the simulation itself is the benchmark body.
        let full = maxdo::ProteinLibrary::phase1_catalog();
        let model = maxdo::CostModel::reference(&full);
        let matrix = timemodel::CostMatrix::from_cost_model(&full, &model);
        let lib = full.with_scaled_nsep(200);
        let pkg = workunit::CampaignPackage::new(&lib, &matrix, workunit::PRODUCTION_WU_SECONDS);
        b.iter(|| {
            let config = VolunteerGridConfig::hcmd_phase1(200, 2007);
            black_box(VolunteerGridSim::new(&pkg, config).run())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_host_planning,
    bench_task_server,
    bench_campaign
);
criterion_main!(benches);
