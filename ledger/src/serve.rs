//! Closed-loop service traffic: `ft_serve::loadgen` clients against a
//! `ft_serve::Service`, plus the check of results the service returns.

use crate::drivers::{
    call, classify, same_output, Driver, FaultOutcome, Output, Problem, Residuals,
};
use crate::plan::shuffle;
use crate::stats::median;
use ft_blas::Backend;
use ft_fault::FaultPlan;
use ft_serve::{loadgen, JobStatus, LoadgenConfig, Service, ServiceConfig, Shutdown};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Matrix orders of the job mix.
pub const SIZES: [usize; 5] = [32, 48, 64, 96, 128];
/// Panel width of every job.
pub const NB: usize = 8;
/// Closed-loop clients (each waits for its result before submitting).
pub const CLIENTS: usize = 2;
/// Executor workers.
pub const WORKERS: usize = 2;
/// Admission queue capacity.
pub const QUEUE_CAP: usize = 16;

/// Starts the service with every knob pinned: `WORKERS` workers on
/// `backend`, no deadline, default retry policy, no metrics endpoint.
pub fn start(backend: Backend) -> Service {
    Service::start(ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAP,
        default_deadline: None,
        worker_backend: Some(backend),
        metrics_addr: None,
        ..ServiceConfig::default()
    })
}

/// Stops the service after its queue drains.
pub fn stop(service: Service) {
    service.shutdown(Shutdown::Drain);
}

/// The loadgen job mix with its defaults of 25% faulted jobs, half of
/// them weak, drawn per job from `seed`. Used for the sampled result
/// check; the timed traffic runs the same mix stratified, see [`cycle`].
pub fn mix(jobs: usize, seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        clients: CLIENTS,
        jobs,
        sizes: SIZES.to_vec(),
        nb: NB,
        deadline: None,
        submit_timeout: Duration::from_secs(120),
        seed,
        ..LoadgenConfig::default()
    }
}

/// Jobs per size in a cycle of scale 1: the smallest count that holds
/// loadgen's default fault fractions (3/4 clean, 1/8 strong, 1/8 weak)
/// in whole jobs.
pub const JOBS_PER_SIZE: usize = 8;

/// One cycle of the job mix: for every size and fault class (clean,
/// faulted, faulted weak) one loadgen batch, each with its share of
/// `scale * JOBS_PER_SIZE` jobs per size, in an order shuffled by `seed`.
///
/// Drawn per job, as [`mix`] does, the share of small clean jobs moves
/// from one batch to the next, and the median latency sits at the edge
/// of the gap between the n ≤ 64 jobs and the rest: one 128-job batch's
/// median jumps between about 0.5 ms and 1.5 ms. A cycle holds every
/// stratum in its exact share, so the pooled quantiles and the mean work
/// per job are the same for every seed; the seed still picks each job's
/// matrix, fault position and priority, and the batch order.
pub fn cycle(scale: usize, seed: u64) -> Vec<LoadgenConfig> {
    let d = LoadgenConfig::default();
    let per_size = (scale * JOBS_PER_SIZE) as f64;
    let faulted = (per_size * d.fault_fraction).round() as usize;
    let weak = (faulted as f64 * d.weak_fraction).round() as usize;
    let classes = [
        (0.0, 0.0, scale * JOBS_PER_SIZE - faulted),
        (1.0, 0.0, faulted - weak),
        (1.0, 1.0, weak),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches: Vec<LoadgenConfig> = SIZES
        .iter()
        .flat_map(|&n| classes.iter().map(move |&c| (n, c)))
        .filter(|&(_, (_, _, jobs))| jobs > 0)
        .map(|(n, (fault_fraction, weak_fraction, jobs))| LoadgenConfig {
            jobs,
            sizes: vec![n],
            fault_fraction,
            weak_fraction,
            seed: rng.gen(),
            ..mix(0, 0)
        })
        .collect();
    shuffle(&mut batches, &mut rng);
    batches
}

/// Per-job samples of the timed batches.
#[derive(Default)]
pub struct Traffic {
    /// Submit-to-result latency of completed jobs, seconds.
    pub latency: Vec<f64>,
    /// Queue wait of completed jobs, seconds.
    pub queue_wait: Vec<f64>,
    /// Loadgen wall time summed over batches, seconds.
    pub wall: f64,
    /// Completed jobs per second of loadgen wall time, one per cycle.
    pub cycle_rate: Vec<f64>,
    /// Median latency of each cycle's completed jobs, seconds.
    pub cycle_p50: Vec<f64>,
    /// Jobs attempted (submitted or refused).
    pub attempted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs that came back with a terminal status.
    pub finished: u64,
    /// Submissions the service refused.
    pub rejected: u64,
    /// Jobs that failed, missed a deadline, were refused or lost, or broke
    /// a loadgen invariant.
    pub failed: u64,
    /// Executed attempts summed over finished jobs.
    pub attempts: u64,
    /// First invariant violations seen, for the error report.
    pub violations: Vec<String>,
}

impl Traffic {
    /// Runs every batch of one [`cycle`] and records the cycle's rate and
    /// median latency.
    pub fn cycle(&mut self, service: &Service, scale: usize, seed: u64) {
        let (done, wall, lat) = (self.completed, self.wall, self.latency.len());
        for cfg in cycle(scale, seed) {
            self.batch(service, &cfg);
        }
        self.cycle_rate
            .push((self.completed - done) as f64 / (self.wall - wall).max(1e-9));
        self.cycle_p50.extend(median(&self.latency[lat..]));
    }

    /// Runs one closed-loop batch and folds its outcomes in.
    fn batch(&mut self, service: &Service, cfg: &LoadgenConfig) {
        let s = loadgen::run(service, cfg);
        self.attempted += (s.accepted + s.submit_errors) as u64;
        self.failed += (s.lost + s.submit_errors) as u64;
        self.rejected += s.submit_errors as u64;
        self.finished += s.outcomes.len() as u64;
        for o in &s.outcomes {
            self.attempts += u64::from(o.attempts);
            if o.status == JobStatus::Completed && o.has_report {
                self.completed += 1;
                self.latency.push(o.total_us as f64 * 1e-6);
                self.queue_wait.push(o.queue_us as f64 * 1e-6);
            } else {
                self.failed += 1;
            }
        }
        let v = s.violations();
        self.failed += v.len() as u64;
        if self.violations.len() < 5 {
            self.violations.extend(v.into_iter().take(5));
        }
        self.wall += s.wall.as_secs_f64();
    }
}

/// Result of checking sampled jobs the service returned.
#[derive(Default)]
pub struct SampleCheck {
    /// Jobs checked.
    pub checked: u64,
    /// Jobs whose result was wrong or missing.
    pub failed: u64,
    /// What went wrong, for the error report.
    pub errors: Vec<String>,
}

/// Submits `count` jobs of the mix one at a time and checks each result
/// the service returns: a clean job must equal, bit for bit, a direct
/// `ft_gehrd_hybrid` call with the same configuration on `backend`; a
/// faulted job must complete with residuals within the bound.
pub fn check_sample(
    service: &Service,
    cfg: &LoadgenConfig,
    count: usize,
    backend: Backend,
) -> SampleCheck {
    let mut out = SampleCheck::default();
    for i in 0..count {
        let (spec, injected, _weak) = loadgen::job_for_index(cfg, i);
        let problem = Problem {
            a: spec.matrix.clone(),
            nb: spec.cfg.nb,
            backend,
        };
        out.checked += 1;
        let r = match service.submit(spec, cfg.submit_timeout) {
            Ok(h) => h.wait(),
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("sample job {i} refused: {e:?}"));
                continue;
            }
        };
        let Some(f) = r.result.filter(|_| r.status == JobStatus::Completed) else {
            out.failed += 1;
            out.errors
                .push(format!("sample job {i} ended {:?}", r.status));
            continue;
        };
        let got = Output {
            packed: f.packed,
            tau: f.tau,
            report: r.report,
            failure: None,
            sim_seconds: 0.0,
        };
        let ok = if injected {
            classify(&got, &Residuals::of(&problem.a, &got)) == FaultOutcome::Corrected
        } else {
            same_output(&got, &call(Driver::Ft, &problem, &mut FaultPlan::none()))
        };
        if !ok {
            out.failed += 1;
            out.errors.push(format!(
                "sample job {i} (n={}, faulted={injected}) returned a wrong result",
                problem.a.rows()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (size, faulted, weak) of every job of a cycle, in order.
    fn jobs(batches: &[LoadgenConfig]) -> Vec<(usize, bool, bool)> {
        batches
            .iter()
            .flat_map(|cfg| {
                (0..cfg.jobs).map(move |i| {
                    let (spec, injected, weak) = loadgen::job_for_index(cfg, i);
                    (spec.matrix.rows(), injected, weak)
                })
            })
            .collect()
    }

    #[test]
    fn cycle_holds_the_default_fractions_exactly() {
        let d = LoadgenConfig::default();
        for seed in [1, 2, 3] {
            let js = jobs(&cycle(2, seed));
            let per_size = 2 * JOBS_PER_SIZE;
            assert_eq!(js.len(), SIZES.len() * per_size);
            for n in SIZES {
                let of = |f: &dyn Fn(&(usize, bool, bool)) -> bool| {
                    js.iter().filter(|j| j.0 == n && f(j)).count() as f64 / per_size as f64
                };
                assert_eq!(of(&|j| j.1), d.fault_fraction, "n={n}");
                assert_eq!(of(&|j| j.2), d.fault_fraction * d.weak_fraction, "n={n}");
            }
        }
    }

    #[test]
    fn cycle_is_seeded() {
        let order = |seed| -> Vec<(usize, u64)> {
            cycle(1, seed)
                .iter()
                .map(|c| (c.sizes[0], c.seed))
                .collect()
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
        assert!(cycle(1, 5)
            .iter()
            .all(|c| c.clients == CLIENTS && c.nb == NB));
    }
}
