//! Pins the DAG executor's behaviour under faults: the healthy ZeRO-3
//! cell of the ext11 fault matrix and every fault scenario, driven through
//! `run_resilient` (checkpoint/restart recovery on node loss included),
//! must reproduce the recorded `TrainingReport::digest()` and resilience
//! metrics exactly. The digest hashes iteration timings, span timelines
//! and bandwidth tables, so any change in event order, slot arbitration
//! or fault handling shows up as a byte difference; the resilience pins
//! cover the recovery bookkeeping the digest leaves out.

use zerosim_bench::experiments::resilience::{cell_spec, fault_matrix_scenarios, MATRIX_BILLIONS};
use zerosim_core::{ResilienceMetrics, SweepRun};
use zerosim_model::GptConfig;
use zerosim_strategies::{Strategy, ZeroStage};

/// One cell's pinned outcome. Times are in nanoseconds; goodput is the
/// bit pattern of the `f64` FLOP/s.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    label: &'static str,
    digest: u64,
    goodput_bits: u64,
    iter_p50_ns: u64,
    iter_p90_ns: u64,
    iter_p99_ns: u64,
    executed: usize,
    committed: usize,
    replayed: usize,
    checkpoints: usize,
    checkpoint_ns: u64,
    recoveries: usize,
    recovery_ns: u64,
    faults_applied: usize,
    wall_ns: u64,
    schedule_digest: u64,
}

const HEALTHY_DIGEST: u64 = 0x232a_8c21_7cbe_8321;
const HEALTHY_GOODPUT: u64 = 0x42dd_5718_29ac_0819;

/// Builds a pin for a cell whose iterations ran exactly as the healthy
/// cell's did (only the schedule and the fault count differ).
const fn unperturbed(label: &'static str, faults_applied: usize, schedule_digest: u64) -> Pin {
    Pin {
        label,
        digest: HEALTHY_DIGEST,
        goodput_bits: HEALTHY_GOODPUT,
        iter_p50_ns: 2_196_461_925,
        iter_p90_ns: 2_196_539_283,
        iter_p99_ns: 2_196_539_283,
        executed: 4,
        committed: 4,
        replayed: 0,
        checkpoints: 0,
        checkpoint_ns: 0,
        recoveries: 0,
        recovery_ns: 0,
        faults_applied,
        wall_ns: 8_785_865_995,
        schedule_digest,
    }
}

/// The pinned matrix, in `fault_matrix_scenarios` order.
fn pins() -> Vec<Pin> {
    vec![
        unperturbed("healthy", 0, 0xfa75_c7b0_a07a_952e),
        unperturbed("RoCE@50%", 4, 0xad1e_3b6c_1320_66a6),
        unperturbed("RoCE@10%", 4, 0xa0e3_c50c_b0bb_e824),
        Pin {
            label: "straggler 0.7x",
            digest: 0x90d9_cf27_cd3a_3faf,
            goodput_bits: 0x42dd_45d1_6764_8cb0,
            iter_p50_ns: 2_201_333_557,
            iter_p90_ns: 2_202_059_692,
            iter_p99_ns: 2_202_059_692,
            faults_applied: 1,
            wall_ns: 8_806_121_111,
            schedule_digest: 0x0136_fa63_42d9_976d,
            ..unperturbed("", 0, 0)
        },
        unperturbed("nvme stall", 8, 0xa960_f779_78c1_4d9d),
        Pin {
            label: "node loss",
            digest: 0xefd6_3188_61a0_f123,
            goodput_bits: 0x42d8_d5a1_7081_c06e,
            iter_p50_ns: 2_196_423_350,
            iter_p90_ns: 2_196_539_283,
            iter_p99_ns: 2_196_539_283,
            executed: 5,
            committed: 4,
            replayed: 0,
            checkpoints: 2,
            checkpoint_ns: 154_695_128,
            recoveries: 1,
            recovery_ns: 1_077_347_564,
            faults_applied: 1,
            wall_ns: 10_379_884_058,
            schedule_digest: 0x3d2f_7e1f_e4db_5ecb,
        },
    ]
}

fn observed(label: &'static str, run: &SweepRun) -> Pin {
    let m: &ResilienceMetrics = run
        .report
        .resilience
        .as_ref()
        .expect("resilient runs carry metrics");
    Pin {
        label,
        digest: run.report.digest(),
        goodput_bits: m.goodput_flops.to_bits(),
        iter_p50_ns: m.iter_p50.as_nanos(),
        iter_p90_ns: m.iter_p90.as_nanos(),
        iter_p99_ns: m.iter_p99.as_nanos(),
        executed: m.executed_iterations,
        committed: m.committed_iterations,
        replayed: m.replayed_iterations,
        checkpoints: m.checkpoints_taken,
        checkpoint_ns: m.checkpoint_time.as_nanos(),
        recoveries: m.recoveries,
        recovery_ns: m.recovery_time.as_nanos(),
        faults_applied: m.faults_applied,
        wall_ns: m.wall_time.as_nanos(),
        schedule_digest: m.schedule_digest,
    }
}

#[test]
fn zero3_fault_matrix_matches_pins() {
    // ZeRO-3 exercises every resilient path: sharded collectives, the
    // checkpoint cadence, and restart-and-replay on node loss.
    let strategy = Strategy::Zero {
        stage: ZeroStage::Three,
    };
    let model = GptConfig::paper_model_with_params(MATRIX_BILLIONS);
    let pins = pins();

    // The healthy run anchors each fault's injection time, exactly as
    // ext11 does.
    let healthy = cell_spec(&strategy, &model, &fault_matrix_scenarios(1.0)[0])
        .execute()
        .expect("healthy cell executes");
    assert_eq!(healthy.digest, healthy.report.digest());
    assert_eq!(observed(pins[0].label, &healthy), pins[0]);
    let wall = healthy
        .report
        .resilience
        .as_ref()
        .expect("resilient runs carry metrics")
        .wall_time
        .as_secs();

    let scenarios = fault_matrix_scenarios(wall);
    assert_eq!(scenarios.len(), pins.len());
    for (scenario, pin) in scenarios.iter().zip(&pins).skip(1) {
        assert_eq!(scenario.label(), pin.label);
        let run = cell_spec(&strategy, &model, scenario)
            .execute()
            .expect("matrix cell executes");
        assert_eq!(
            observed(pin.label, &run),
            *pin,
            "fault scenario {}",
            pin.label
        );
    }
}
