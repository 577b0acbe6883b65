//! Human-readable views over a recorded telemetry timeline: the per-epoch
//! phase breakdown and the measured-vs-model validation report.
//!
//! The numeric analysis lives in [`hcc_telemetry::summary`]; this module
//! formats it against an [`HccReport`] (which supplies the partition each
//! epoch actually ran with) into the text the CLI prints and
//! `results/model_validation.txt` archives.

use crate::report::HccReport;
use hcc_telemetry::{epoch_breakdown, validate_cost_model, ModelValidation, Timeline};

/// Renders the epoch summary: per-worker phase totals for each recorded
/// epoch plus wall-clock coverage (how much of the measured epoch wall time
/// the recorded `t_pull + t_comp + t_push + t_sync` spans account for).
pub fn epoch_summary(timeline: &Timeline) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "epoch breakdown ({} workers, k = {}, strategy {}, backend {}, schedule {})\n",
        timeline.header.workers,
        timeline.header.k,
        timeline.header.strategy,
        timeline.header.backend,
        timeline.header.schedule,
    ));
    out.push_str(
        "epoch | worker |  pull ms |  comp ms |  push ms |  sync ms |  sum ms | wall-clock coverage\n",
    );
    for b in epoch_breakdown(timeline) {
        for (w, t) in b.workers.iter().enumerate() {
            let coverage = if b.wall > 0.0 {
                format!("{:5.1}%", 100.0 * t.total() / b.wall)
            } else {
                "    — ".into()
            };
            out.push_str(&format!(
                "{:5} | {:6} | {:8.2} | {:8.2} | {:8.2} | {:8.2} | {:7.2} | {coverage}\n",
                b.epoch,
                w,
                t.pull * 1e3,
                t.comp * 1e3,
                t.push * 1e3,
                t.sync * 1e3,
                t.total() * 1e3,
            ));
        }
        if b.pull_bytes + b.push_bytes > 0 {
            out.push_str(&format!(
                "{:5} | wire: {} B pulled, {} B pushed\n",
                b.epoch, b.pull_bytes, b.push_bytes
            ));
        }
    }
    if timeline.dropped > 0 {
        out.push_str(&format!(
            "warning: {} events dropped (a telemetry lane reached its capacity)\n",
            timeline.dropped
        ));
    }
    out
}

/// Runs the Eq. 2 cost-model validation for a finished training run,
/// pairing the timeline with the partitions each accepted epoch used.
/// `None` when the report has no timeline or too few epochs to score.
pub fn model_validation(report: &HccReport) -> Option<ModelValidation> {
    let timeline = report.timeline.as_ref()?;
    validate_cost_model(timeline, &report.partition_history)
}

/// Formats a [`ModelValidation`] as the measured-vs-model report.
pub fn model_validation_text(v: &ModelValidation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "cost-model validation: B_i calibrated on the first warm epoch, \
         {} later epoch(s) predicted from partition fractions\n",
        v.epochs_scored
    ));
    out.push_str("worker |     B_i (MB/s) | measured t_comp | predicted t_comp | rel err\n");
    for r in &v.rows {
        out.push_str(&format!(
            "{:6} | {:14.1} | {:13.2} ms | {:14.2} ms | {:6.1}%\n",
            r.worker,
            r.bandwidth / 1e6,
            r.measured_comp * 1e3,
            r.predicted_comp * 1e3,
            r.rel_error * 100.0,
        ));
    }
    out.push_str(&format!(
        "mean error {:.1}%, worst {:.1}%\n",
        v.mean_error * 100.0,
        v.worst_error * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_telemetry::{Dir, Event, Header, Phase};

    fn timeline() -> Timeline {
        Timeline {
            header: Header {
                workers: 2,
                k: 8,
                nnz: 1000,
                strategy: "q-only".into(),
                streams: 1,
                backend: "scalar".into(),
                schedule: "stripe".into(),
            },
            events: vec![
                Event::Phase {
                    epoch: 0,
                    worker: 0,
                    phase: Phase::Comp,
                    start_us: 0,
                    dur_us: 9_000,
                },
                Event::Phase {
                    epoch: 0,
                    worker: 1,
                    phase: Phase::Comp,
                    start_us: 0,
                    dur_us: 9_000,
                },
                Event::Phase {
                    epoch: 0,
                    worker: 0,
                    phase: Phase::Sync,
                    start_us: 9_100,
                    dur_us: 400,
                },
                Event::Bytes {
                    epoch: 0,
                    dir: Dir::Pull,
                    bytes: 123,
                },
                Event::EpochEnd {
                    epoch: 0,
                    wall_us: 10_000,
                },
                Event::Phase {
                    epoch: 1,
                    worker: 0,
                    phase: Phase::Comp,
                    start_us: 11_000,
                    dur_us: 9_000,
                },
                Event::Phase {
                    epoch: 1,
                    worker: 1,
                    phase: Phase::Comp,
                    start_us: 11_000,
                    dur_us: 9_000,
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn epoch_summary_lists_workers_and_coverage() {
        let text = epoch_summary(&timeline());
        assert!(text.contains("epoch breakdown (2 workers"));
        // Worker 0, epoch 0: 9.4 ms of a 10 ms wall = 94%.
        assert!(text.contains("94.0%"), "{text}");
        assert!(text.contains("wire: 123 B pulled"));
    }

    #[test]
    fn validation_text_reports_errors() {
        let t = timeline();
        let v = validate_cost_model(&t, &[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let text = model_validation_text(&v);
        assert!(text.contains("cost-model validation"));
        assert!(text.contains("mean error 0.0%"), "{text}");
    }
}
