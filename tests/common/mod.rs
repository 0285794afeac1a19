//! Helpers shared by the golden-digest tests.

use cata_core::RunReport;
use cata_sim::time::SimDuration;
use serde::{Serialize, Value};

/// The exact summary every latency distribution keeps, whatever it
/// stores: `{count, mean_ps, min_ps, max_ps}`.
fn summary(count: u64, mean: SimDuration, min: SimDuration, max: SimDuration) -> Value {
    Value::Map(vec![
        ("count".into(), Value::U64(count)),
        ("mean_ps".into(), Value::U64(mean.as_ps())),
        ("min_ps".into(), Value::U64(min.as_ps())),
        ("max_ps".into(), Value::U64(max.as_ps())),
    ])
}

macro_rules! summary_of {
    ($d:expr) => {
        summary($d.count() as u64, $d.mean(), $d.min(), $d.max())
    };
}

/// Replaces the value at `path` in a serialized report.
fn replace(v: &mut Value, path: &[&str], with: Value) {
    let Value::Map(fields) = v else {
        panic!("{path:?}: not a map");
    };
    let (_, slot) = fields
        .iter_mut()
        .find(|(k, _)| k == path[0])
        .unwrap_or_else(|| panic!("no field {}", path[0]));
    if path.len() == 1 {
        *slot = with;
    } else {
        replace(slot, &path[1..], with);
    }
}

/// FNV-1a of the serialized report after each latency distribution
/// (`lock_waits`, `reconfig_latencies`, the service histograms and the
/// fault recovery latency) is replaced by its exact count, mean, min and
/// max. It pins every reported bit except how a distribution stores its
/// samples, so it holds across a change of that storage.
pub fn invariant_digest(r: &RunReport) -> String {
    let mut v = r.to_value();
    replace(&mut v, &["lock_waits"], summary_of!(r.lock_waits));
    replace(
        &mut v,
        &["reconfig_latencies"],
        summary_of!(r.reconfig_latencies),
    );
    if let Some(s) = &r.service {
        replace(&mut v, &["service", "latency"], summary_of!(s.latency));
        replace(
            &mut v,
            &["service", "queue_wait"],
            summary_of!(s.queue_wait),
        );
        replace(
            &mut v,
            &["service", "service_time"],
            summary_of!(s.service_time),
        );
    }
    if let Some(f) = &r.fault {
        replace(
            &mut v,
            &["fault", "recovery_latency"],
            summary_of!(f.recovery_latency),
        );
    }
    cata_tdg::fnv1a_hex(serde_json::to_string(&v).expect("value serializes").bytes())
}
