//! Same seed ⇒ identical inputs; another seed ⇒ different inputs.

use hcc_benchmark::inputs::{Inputs, Phases};
use hcc_benchmark::workloads;

#[test]
fn same_seed_gives_the_same_dataset_and_query_schedule() {
    for w in workloads::all() {
        let w = w.smoke();
        let phases = Phases::of(&w, 2.0);
        let a = Inputs::generate(&w, 0x5eed, &phases);
        let b = Inputs::generate(&w, 0x5eed, &phases);
        assert_eq!(a.dataset_hash(), b.dataset_hash(), "{}: dataset", w.name);
        assert_eq!(a.schedule_hash(), b.schedule_hash(), "{}: schedule", w.name);
        assert_eq!(a.matrix.nnz(), w.nnz, "{}: every rating generated", w.name);

        let c = Inputs::generate(&w, 0x5eee, &phases);
        assert_ne!(a.dataset_hash(), c.dataset_hash(), "{}: dataset", w.name);
        assert_ne!(a.schedule_hash(), c.schedule_hash(), "{}: schedule", w.name);
    }
}

#[test]
fn open_loop_schedules_are_ordered_and_inside_their_phase() {
    let w = workloads::by_name("serve_open_scan")
        .expect("workload exists")
        .smoke();
    let phases = Phases::of(&w, 2.0);
    let inputs = Inputs::generate(&w, 7, &phases);
    assert_eq!(inputs.nominal.len(), workloads::ROUNDS);
    for (schedule, span) in inputs
        .nominal
        .iter()
        .map(|s| (s, phases.nominal))
        .chain(inputs.overload.iter().map(|s| (s, phases.overload)))
    {
        assert!(!schedule.is_empty());
        assert!(schedule.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
        assert!(schedule.iter().all(|a| a.due_ns < span.as_nanos() as u64));
        assert!(schedule.iter().all(|a| a.user < w.rows));
    }
}
