//! `serve-contended`: `replay_tape` of generated tapes under CATA, below
//! saturation. Poisson arrivals mix two tiny PARSEC-shaped workloads;
//! memory is contended under `crit-first` arbitration with enough slots
//! that many requests wait but the backlog stays bounded; a low transient
//! task-fault rate rides along. The tapes are independent service runs,
//! replayed by the same worker threads as the sweeps use.

use crate::bench::{report_digest, timed, Batch, Ledger, Opts, SetupProfile, Size, Workload};
use crate::layers::Shape;
use crate::spans::span_under;
use cata_core::exp::{default_registries, derive_seed, ScenarioSpec, TraceMode, WorkloadSpec};
use cata_core::service::{
    default_admission_registry, replay_tape, ArrivalSpec, ServiceSpec, TrafficTape,
};
use cata_core::{FaultSpec, MemorySpec, RunReport};
use cata_sim::seeded::SplitMix64;
use cata_sim::time::SimDuration;
use cata_workloads::{Benchmark, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Mean arrivals per simulated second (both workloads together).
const RATE_HZ: f64 = 150.0;
/// Memory bandwidth slots on the 32-core machine.
pub const SLOTS: u64 = 8;
/// Transient task-fault probability.
const TASK_FAULT_P: f64 = 0.01;
/// Seeded graphs per PARSEC family in the tapes' workload table.
const GRAPHS_PER_FAMILY: u64 = 4;
/// Tapes per batch, each replayed as its own service run, and the
/// simulated arrival window of each. Many independent tapes make the
/// batch's cost and its peak memory (the largest of the tapes') steady
/// across seeds.
const TAPES: u64 = 16;
const TAPE_MS: u64 = 1250;

/// One tape's replay outcome and its host milliseconds.
type Slot = Mutex<Option<(Result<RunReport, String>, f64)>>;

pub struct ServeContended {
    jobs: usize,
    spec: ServiceSpec,
    traced_spec: ServiceSpec,
    /// Each tape as generated, and after a JSONL round trip.
    tapes: Vec<(TrafficTape, TrafficTape)>,
    profile: SetupProfile,
    /// First report digest per tape and trace mode, for batch-to-batch
    /// identity.
    first: Vec<[Option<String>; 2]>,
}

/// Conservation: arrivals = admitted + dropped, admitted = completed +
/// shed, nothing in flight, and memory serviced = demand + wait.
fn conservation(r: &RunReport) -> Result<(), String> {
    let s = r.service.as_ref().ok_or("no service section")?;
    let shed = r.fault.as_ref().map_or(0, |f| f.shed);
    if s.arrivals != s.admitted + s.dropped {
        return Err(format!(
            "arrivals {} != admitted {} + dropped {}",
            s.arrivals, s.admitted, s.dropped
        ));
    }
    if s.admitted != s.completed + shed || s.in_flight != 0 {
        return Err(format!(
            "admitted {} != completed {} + shed {shed} (in flight {})",
            s.admitted, s.completed, s.in_flight
        ));
    }
    let m = r.memory.as_ref().ok_or("no memory section")?;
    if m.serviced.as_ps() != m.demand.as_ps() + m.total_wait.as_ps() {
        return Err(format!(
            "memory serviced {} != demand {} + wait {}",
            m.serviced, m.demand, m.total_wait
        ));
    }
    Ok(())
}

impl ServeContended {
    pub fn setup(opts: &Opts) -> Self {
        let t0 = Instant::now();
        let (tapes, sim_ms) = match opts.size {
            Size::Full => (TAPES, TAPE_MS),
            Size::Smoke => (1, 500),
        };
        // Each family contributes several seeded instances, so one run's
        // cost averages over many graphs rather than riding on one draw.
        let workloads: Vec<WorkloadSpec> = [Benchmark::Dedup, Benchmark::Ferret]
            .into_iter()
            .flat_map(|b| (0..GRAPHS_PER_FAMILY).map(move |i| (b, i)))
            .map(|(b, i)| WorkloadSpec::parsec(b, Scale::Tiny, derive_seed(opts.seed, 16 + i)))
            .collect();
        let mut profile = SetupProfile::default();
        for w in &workloads {
            let (graph, ns) = timed(|| w.build_graph_shared());
            profile.gen_tasks += graph.num_tasks() as u64;
            profile.gen_ns += ns;
        }

        let mut pairs = Vec::new();
        for k in 0..tapes {
            // One Poisson stream per tape; each arrival picks its graph by a
            // seeded draw, so the mix is a property of the seed alone.
            let (generated, ns) = timed(|| {
                let mut tape = TrafficTape::generate(
                    format!("serve-contended-{k}"),
                    &ArrivalSpec::Poisson { rate_hz: RATE_HZ },
                    SimDuration::from_ms(sim_ms),
                    workloads[0].clone(),
                    derive_seed(opts.seed, 2 * k),
                )
                .expect("poisson tape generates");
                let mut pick = SplitMix64::new(derive_seed(opts.seed, 2 * k + 1));
                for r in &mut tape.records {
                    r.workload = (pick.next_u64() % workloads.len() as u64) as u32;
                }
                tape.workloads = workloads.clone();
                tape.refresh_digest();
                tape
            });
            profile.tape_generate_ns += ns;
            let path = opts.dir.join(format!("serve-contended-{k}.tape.jsonl"));
            std::fs::write(&path, generated.to_jsonl()).expect("tape file writes");
            let text = std::fs::read_to_string(&path).expect("tape file reads");
            profile.tape_bytes += text.len() as u64;
            let (parsed, ns) = timed(|| TrafficTape::from_jsonl(&text).expect("tape parses"));
            profile.tape_parse_ns += ns;
            pairs.push((generated, parsed));
        }

        let mut base = ScenarioSpec::preset("CATA", 16, workloads[0].clone())
            .expect("CATA preset resolves")
            .with_memory(MemorySpec {
                slots: SLOTS,
                arbitration: "crit-first".into(),
            })
            .with_faults(FaultSpec {
                task_fault_p: TASK_FAULT_P,
                ..FaultSpec::default()
            });
        base.seed = opts.seed;
        let spec = ServiceSpec::new(
            base,
            ArrivalSpec::Tape {
                digest: String::new(),
            },
            SimDuration::from_ms(sim_ms),
        );
        let mut traced_spec = spec.clone();
        traced_spec.base.trace = TraceMode::Counters;
        profile.seconds = t0.elapsed().as_secs_f64();
        ServeContended {
            jobs: opts.jobs,
            spec,
            traced_spec,
            first: vec![[None, None]; pairs.len()],
            tapes: pairs,
            profile,
        }
    }

    fn replay(spec: &ServiceSpec, tape: &TrafficTape, parent: u64) -> Result<RunReport, String> {
        span_under(parent, "service.replay_tape", || {
            replay_tape(
                spec,
                tape,
                default_registries(),
                default_admission_registry(),
            )
        })
        .map_err(|e| e.to_string())
    }
}

impl Workload for ServeContended {
    fn setup_profile(&self) -> &SetupProfile {
        &self.profile
    }

    fn preflight(&mut self, ledger: &mut Ledger) {
        for (generated, parsed) in &self.tapes {
            ledger.op(
                "tape-roundtrip",
                if parsed == generated {
                    Ok(())
                } else {
                    Err(format!("JSONL round trip changed {}", generated.name))
                },
            );
        }
    }

    fn batch(&mut self, traced: bool, ledger: &mut Ledger) -> Batch {
        let spec = if traced {
            &self.traced_spec
        } else {
            &self.spec
        };
        let mut batch = Batch::default();
        let parent = crate::spans::current();
        let next = AtomicUsize::new(0);
        let slots: Vec<Slot> = self.tapes.iter().map(|_| Mutex::new(None)).collect();
        let t_batch = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.clamp(1, self.tapes.len()) {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some((_, tape)) = self.tapes.get(k) else {
                        break;
                    };
                    let t0 = Instant::now();
                    let result = Self::replay(spec, tape, parent);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    *slots[k].lock().expect("result slot") = Some((result, ms));
                });
            }
        });
        batch.wall_s = t_batch.elapsed().as_secs_f64();
        batch.sim_s = batch.wall_s;
        let mut results = Vec::with_capacity(slots.len());
        for slot in slots {
            let (result, ms) = slot
                .into_inner()
                .expect("result slot")
                .expect("every tape replayed");
            batch.cell_ms.push(ms);
            results.push(result);
        }
        for (k, result) in results.into_iter().enumerate() {
            match result {
                Ok(report) => {
                    let digest = report_digest(&report);
                    let first =
                        self.first[k][traced as usize].get_or_insert_with(|| digest.clone());
                    let same = if *first == digest {
                        Ok(())
                    } else {
                        Err(format!("tape {k} replays differently than before"))
                    };
                    ledger.op("service-run", conservation(&report).and(same));
                    batch.tasks += report.counters.tasks_completed;
                    batch.cells.push((spec.base.clone(), report));
                }
                Err(e) => ledger.op("service-run", Err(e)),
            }
        }
        batch
    }

    fn final_checks(&mut self, ledger: &mut Ledger) {
        // The in-memory tape and its JSONL round trip replay identically.
        let outcome = match (
            Self::replay(&self.spec, &self.tapes[0].0, 0),
            &self.first[0][0],
        ) {
            (Ok(r), Some(want)) if report_digest(&r) == *want => Ok(()),
            (Ok(_), Some(_)) => Err("generated and parsed tapes replay differently".into()),
            (Ok(_), None) => Err("no plain replay to compare with".into()),
            (Err(e), _) => Err(e),
        };
        ledger.op("tape-replay-identity", outcome);
    }

    fn shape(&self) -> Shape {
        Shape::service(&self.spec, &self.tapes[0].1)
    }
}
