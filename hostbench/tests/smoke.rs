//! Runs each workload at a small size and checks what the benchmark
//! promises: the output check passes and repeats, every metric named
//! in `BENCHMARK.json` is emitted with its unit, and each workload
//! stresses the layer it was chosen for.

use o1mem_hostbench::drive::{Scale, Workload};
use o1mem_hostbench::kernels::KernelKind;
use o1mem_hostbench::{run, Config, Outcome};

fn small(workload: Workload, trace: bool) -> Outcome {
    let outcome = run(&Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::SMOKE,
        spans_dir: None,
    });
    assert!(
        outcome.correct,
        "{} failed its output check: {:#?}",
        workload.name(),
        outcome.notes
    );
    assert_eq!(outcome.failed, 0);
    outcome
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(rest.split('"').next()?.to_string())
    };
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("section present");
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not emitted"))
        .value
}

#[test]
fn digests_repeat_and_match_the_interpreter() {
    for w in Workload::ALL {
        let a = small(w, false);
        let b = small(w, false);
        assert_eq!(a.digests.len(), KernelKind::ALL.len(), "{}", w.name());
        assert_eq!(
            a.digests,
            b.digests,
            "{} digests differ between runs",
            w.name()
        );
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert_eq!((e2e.len(), layers.len()), (12, 75));
    for w in Workload::ALL {
        assert_eq!(
            emitted(&small(w, false)),
            e2e,
            "{} end-to-end metrics",
            w.name()
        );
        assert_eq!(
            emitted(&small(w, true)),
            layers,
            "{} per-layer metrics",
            w.name()
        );
    }
}

#[test]
fn workloads_stress_the_layers_they_claim() {
    let sweep = small(Workload::Sweep, true);
    for k in KernelKind::ALL {
        let r = metric(&sweep, &format!("hw.{}.ffwd_ratio", k.name()));
        assert!(r >= 0.9, "sweep: {} fast-forward covers only {r}", k.name());
    }
    let scatter = small(Workload::Scatter, true);
    for k in [KernelKind::Baseline, KernelKind::FomPt] {
        let r = metric(&scatter, &format!("hw.{}.ffwd_ratio", k.name()));
        assert!(r <= 0.3, "scatter: {} fast-forward covers {r}", k.name());
    }
    // On fleet, the kernel calls take most of the loop's host time.
    let fleet = small(Workload::Fleet, true);
    let kernel_s: f64 = KernelKind::ALL
        .iter()
        .flat_map(|k| {
            let fleet = &fleet;
            [
                "create_process",
                "alloc",
                "access_runs",
                "release",
                "destroy_process",
            ]
            .map(move |op| metric(fleet, &format!("{}.{}.{op}.host_s", k.layer(), k.name())))
        })
        .sum::<f64>()
        / KernelKind::ALL.len() as f64;
    let loop_s = metric(&fleet, "workloads.self_s");
    assert!(
        kernel_s > loop_s,
        "fleet: kernel {kernel_s} s vs loop {loop_s} s per round"
    );
}
