//! Short-horizon runs of every workload: the output checks pass, the
//! ledger adds up, a seed repeats exactly, and `spawn` does not depend
//! on the engine's thread count.

use std::sync::Mutex;

use snipe_perfbench::report::registry_value;
use snipe_perfbench::{run, Config, Report, Scale, Workload};

/// The ledger is process-wide: runs in one test binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn small(workload: Workload, seed: u64, trace: bool, threads: Option<usize>) -> Report {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    run(&Config { workload, seed, seconds: 0.0, trace, setups: 1, scale: Scale::Small, threads })
}

fn virtual_metrics(r: &Report) -> Vec<(&'static str, Option<f64>)> {
    r.end_to_end()
        .into_iter()
        .filter(|m| m.name.starts_with("vt_") || m.name == "goodput_mbps")
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn checks_pass_and_the_ledger_adds_up() {
    for w in Workload::ALL {
        let r = small(w, 7, true, None);
        assert!(
            r.correct(),
            "{}: {:?} ({} of {} failed)",
            w.name(),
            r.errors,
            r.failed,
            r.attempted
        );
        assert!(r.attempted > 0 && !r.window.latencies.is_empty(), "{}: no requests", w.name());
        let wall_ms = r.wall.as_secs_f64() * 1e3;
        let sum = r.ledger_sum_ms();
        assert!(
            (sum - wall_ms).abs() <= 1e-6 * wall_ms,
            "{}: ledger rows sum to {sum} ms, window is {wall_ms} ms",
            w.name()
        );
        let layers = r.per_layer();
        for name in ["netsim.events", "netsim.packets", "bench.gen_ms"] {
            let v = layers.iter().find(|m| m.name == name).and_then(|m| m.value);
            assert!(v.is_some_and(|v| v > 0.0), "{}: {name} missing", w.name());
        }
    }
}

#[test]
fn one_seed_run_twice_is_identical() {
    for w in Workload::ALL {
        let a = small(w, 11, false, None);
        let b = small(w, 11, false, None);
        assert!(a.correct() && b.correct(), "{}: {:?} {:?}", w.name(), a.errors, b.errors);
        assert_eq!(virtual_metrics(&a), virtual_metrics(&b), "{}", w.name());
        assert_eq!(a.vt_end, b.vt_end, "{}", w.name());
        assert_eq!(
            registry_value(&a.reg1, "net.events"),
            registry_value(&b.reg1, "net.events"),
            "{}: event counts differ",
            w.name()
        );
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.attempted, b.attempted, "{}", w.name());
    }
}

#[test]
fn spawn_is_the_same_at_one_and_two_threads() {
    let one = small(Workload::Spawn, 5, false, Some(1));
    let two = small(Workload::Spawn, 5, false, Some(2));
    assert!(one.correct() && two.correct(), "{:?} {:?}", one.errors, two.errors);
    assert_eq!(one.threads, 1);
    assert_eq!(two.threads, 2);
    assert_eq!(virtual_metrics(&one), virtual_metrics(&two));
    assert_eq!(one.digest, two.digest, "engine digest depends on the thread count");
}
