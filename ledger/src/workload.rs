//! The four workloads: set-up, the interleaved timed rounds, the output
//! checks and the metrics derived from them.

use crate::drivers::{
    call, classify, recovery_events, residual_bound, same_output, Driver, FaultOutcome, Output,
    Problem, Residuals,
};
use crate::plan::{fault_plan, mix};
use crate::probes::{ProbeSample, Probes};
use crate::replay::{replay, work, LayerTimes};
use crate::report::Report;
use crate::serve::{self, Traffic};
use crate::spans::Recorder;
use crate::stats::{fastest, median, paired_median, pct_over, tail_quantile};
use ft_blas::{with_backend, Backend};
use ft_fault::FaultPlan;
use ft_hessenberg::{FtReport, PhaseBreakdown};
use ft_serve::Service;
use ft_trace::TraceMode;
use std::time::Instant;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Matrix order of the direct driver calls.
    pub n: usize,
    /// Panel width.
    pub nb: usize,
    /// Kernel backend of every call and every service worker.
    pub backend: Backend,
    /// Fault plans; each round calls the FT driver once under each.
    pub plans: usize,
    /// Scale of the service cycle each round runs: `serve::JOBS_PER_SIZE`
    /// jobs per size per unit (see `serve::cycle`).
    pub cycle_scale: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense-1024",
        n: 1024,
        nb: 32,
        backend: Backend::Serial,
        plans: 0,
        cycle_scale: 4,
    },
    Workload {
        name: "dense-1024-2t",
        n: 1024,
        nb: 32,
        backend: Backend::Threaded(2),
        plans: 0,
        cycle_scale: 4,
    },
    Workload {
        name: "faults-512",
        n: 512,
        nb: 32,
        backend: Backend::Serial,
        plans: 6,
        cycle_scale: 4,
    },
    Workload {
        name: "serve-small",
        n: 128,
        nb: 8,
        backend: Backend::Serial,
        plans: 0,
        cycle_scale: 5,
    },
];

/// Set-ups per run: at least `SETUPS_MIN`, more until they have taken
/// `SETUP_BUDGET_S` seconds, at most `SETUPS_MAX`; `setup_s` is their
/// median.
const SETUPS_MIN: usize = 3;
const SETUPS_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 2.0;
/// Seed of the service warm-up cycle: fixed, so that every run warms the
/// service with the same jobs.
const WARMUP_SEED: u64 = 0x5EED;
/// Completed service jobs a run needs so that p99 has ten samples beyond.
const MIN_JOBS: usize = 1000;
/// Sampled service results checked after the timed window.
const CHECKED_JOBS: usize = 20;

/// Everything a set-up builds.
struct State {
    problem: Problem,
    plans: Vec<FaultPlan>,
    /// Reference output of each driver (warm-up call).
    refs: Vec<Output>,
    /// Reference output under each fault plan (warm-up call).
    fault_refs: Vec<Output>,
    service: Service,
    gen_s: f64,
}

/// Generates the inputs, starts the service and makes one warm-up call
/// of every driver (and every fault plan), whose outputs become the
/// run's references. Each part is a span under `setup`.
fn setup(w: &Workload, seed: u64, rec: &mut Recorder) -> State {
    let (a, gen_s) = rec.time("setup.gen", |_| {
        ft_matrix::random::uniform(w.n, w.n, mix(seed, 1))
    });
    let plans: Vec<FaultPlan> = (0..w.plans)
        .map(|p| fault_plan(w.n, w.nb, mix(seed, 100 + p as u64)))
        .collect();
    let problem = Problem {
        a,
        nb: w.nb,
        backend: w.backend,
    };
    let (service, _) = rec.time("setup.service", |_| {
        let service = serve::start(w.backend);
        // One cycle of scale 1 serves every size and fault class.
        Traffic::default().cycle(&service, 1, WARMUP_SEED);
        service
    });
    let refs = Driver::ALL
        .iter()
        .map(|&d| {
            rec.time(warmup_name(d), |_| {
                call(d, &problem, &mut FaultPlan::none())
            })
            .0
        })
        .collect();
    let fault_refs = plans
        .iter()
        .map(|p| {
            rec.time("setup.ft_faulted", |_| {
                call(Driver::Ft, &problem, &mut p.clone())
            })
            .0
        })
        .collect();
    State {
        problem,
        plans,
        refs,
        fault_refs,
        service,
        gen_s,
    }
}

/// One step of a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    Drive(Driver),
    Faulted,
    Serve,
    Replay,
    ReplayOther,
    Probe,
}

/// Samples of the timed window.
#[derive(Default)]
struct Samples {
    /// Per driver (index `Driver::idx`), one per round.
    drive: [Vec<f64>; 4],
    /// Faulted rounds: mean FT time over the plan set.
    faulted: Vec<f64>,
    /// Per driver, whether the round was traced.
    traced: [Vec<bool>; 4],
    ft_phases: Vec<PhaseBreakdown>,
    ft_wall: Vec<f64>,
    abft_phases: Vec<PhaseBreakdown>,
    fault_phases: Vec<PhaseBreakdown>,
    replay: Vec<LayerTimes>,
    replay_other: Vec<LayerTimes>,
    /// Gehrd time of the rounds that replayed, paired with `replay`.
    replay_gehrd: Vec<f64>,
    probes: Vec<ProbeSample>,
    dispatches: Vec<f64>,
    inline_fallbacks: Vec<f64>,
    false_positives: u64,
    faulted_flagged: u64,
    faulted_silent: u64,
}

/// Runs workload `w` and returns its report.
pub fn run(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Report {
    let mut rep = Report::default();
    ft_trace::set_mode(TraceMode::Off);

    // Set-up, several times; the last one is kept.
    let mut rec = Recorder::new();
    let mut setup_times = Vec::new();
    let mut gen_times = Vec::new();
    let mut state: Option<State> = None;
    while setup_times.len() < SETUPS_MIN
        || (setup_times.iter().sum::<f64>() < SETUP_BUDGET_S && setup_times.len() < SETUPS_MAX)
    {
        if let Some(old) = state.take() {
            serve::stop(old.service);
        }
        let (s, secs) = rec.time("setup", |rec| setup(w, seed, rec));
        setup_times.push(secs);
        gen_times.push(s.gen_s);
        state = Some(s);
    }
    let Some(st) = state else {
        unreachable!("at least SETUPS_MIN set-ups ran")
    };

    // Reference checks, outside every timed window.
    let bound = residual_bound();
    let mut residual_max = 0.0f64;
    let mut orth_max = 0.0f64;
    for (d, out) in Driver::ALL.iter().zip(&st.refs) {
        let r = Residuals::of(&st.problem.a, out);
        if !r.within_bound() {
            rep.error(format!(
                "{} reference residuals {:.3e}/{:.3e} exceed {bound:.3e}",
                d.name(),
                r.factorization,
                r.orthogonality
            ));
        }
        if out.report.as_ref().is_some_and(|r| recovery_events(r) > 0) {
            rep.error(format!("{} reference: recovery on a clean call", d.name()));
        }
        residual_max = residual_max.max(r.factorization);
        orth_max = orth_max.max(r.orthogonality);
    }
    let outcomes: Vec<FaultOutcome> = st
        .fault_refs
        .iter()
        .map(|out| {
            let r = Residuals::of(&st.problem.a, out);
            let o = classify(out, &r);
            if o == FaultOutcome::Corrected {
                residual_max = residual_max.max(r.factorization);
                orth_max = orth_max.max(r.orthogonality);
            }
            o
        })
        .collect();

    let mut probes = traced.then(|| Probes::new(w.n, w.nb, mix(seed, 3)));
    let mut smp = Samples::default();
    let mut traffic = Traffic::default();
    let other = if w.backend.is_threaded() {
        Backend::Serial
    } else {
        Backend::Threaded(2)
    };

    let mut steps: Vec<Step> = Driver::ALL.iter().map(|&d| Step::Drive(d)).collect();
    if w.plans > 0 {
        steps.push(Step::Faulted);
    }
    steps.push(Step::Serve);
    if traced {
        steps.extend([Step::Replay, Step::ReplayOther, Step::Probe]);
        // Warm the replay's own path before the window.
        for b in [w.backend, other] {
            with_backend(b, || {
                replay(&mut st.problem.a.clone(), w.nb, &mut Recorder::new())
            });
        }
    }

    let growth0 = ft_blas::workspace::growth_allocations();
    let window = Instant::now();
    let mut round = 0usize;
    while window.elapsed().as_secs_f64() < seconds as f64 {
        // In the traced run every other round collects.
        let collect = traced && round.is_multiple_of(2);
        ft_trace::set_mode(if collect {
            TraceMode::Summary
        } else {
            TraceMode::Off
        });
        rec.set_round(round);
        rec.open("round");
        let mut gehrd_this_round = None;
        let mut replay_this_round = None;
        for i in 0..steps.len() {
            let step = steps[(i + round) % steps.len()];
            match step {
                Step::Drive(d) => {
                    let (d0, f0) = (ft_blas::pool::dispatch_count(), inline_fallbacks());
                    let (out, secs) = rec.time(span_name(d), |_| {
                        call(d, &st.problem, &mut FaultPlan::none())
                    });
                    if d == Driver::Gehrd {
                        gehrd_this_round = Some(secs);
                        if collect {
                            smp.dispatches
                                .push((ft_blas::pool::dispatch_count() - d0) as f64);
                            smp.inline_fallbacks.push((inline_fallbacks() - f0) as f64);
                        }
                    }
                    smp.drive[d.idx()].push(secs);
                    smp.traced[d.idx()].push(collect);
                    rep.attempted += 1;
                    check_clean(&mut rep, &mut smp, d, &out, &st.refs[d.idx()]);
                    if collect {
                        if let Some(r) = &out.report {
                            match d {
                                Driver::Ft => {
                                    smp.ft_phases.push(r.phases.clone());
                                    smp.ft_wall.push(r.wall_seconds);
                                }
                                Driver::FtAbft => smp.abft_phases.push(r.phases.clone()),
                                _ => {}
                            }
                        }
                    }
                    ft_trace::take_events();
                }
                Step::Faulted => {
                    let mut total = 0.0;
                    for (p, plan) in st.plans.iter().enumerate() {
                        let (out, secs) = rec.time("drive.ft_faulted", |_| {
                            call(Driver::Ft, &st.problem, &mut plan.clone())
                        });
                        total += secs;
                        rep.attempted += 1;
                        let want = &st.fault_refs[p];
                        let same_counts = out.report.as_ref().map(recovery_events)
                            == want.report.as_ref().map(recovery_events);
                        if !same_output(&out, want) || !same_counts {
                            rep.failed += 1;
                            rep.error(format!("faulted call {p} differs from its reference"));
                        }
                        match outcomes[p] {
                            FaultOutcome::Corrected => {}
                            FaultOutcome::Flagged => smp.faulted_flagged += 1,
                            FaultOutcome::Silent => smp.faulted_silent += 1,
                        }
                        if collect {
                            if let Some(r) = &out.report {
                                smp.fault_phases.push(r.phases.clone());
                            }
                        }
                        ft_trace::take_events();
                    }
                    smp.faulted.push(total / st.plans.len() as f64);
                }
                Step::Serve => {
                    let s = mix(seed, 1000 + round as u64);
                    rec.time("serve.cycle", |_| {
                        traffic.cycle(&st.service, w.cycle_scale, s)
                    });
                    ft_trace::take_events();
                }
                Step::Replay | Step::ReplayOther => {
                    let b = if step == Step::Replay {
                        w.backend
                    } else {
                        other
                    };
                    let mut a = st.problem.a.clone();
                    let ((tau, layers), _) = rec.time("replay", |rec| {
                        with_backend(b, || replay(&mut a, w.nb, rec))
                    });
                    let want = &st.refs[Driver::Gehrd.idx()];
                    if !crate::drivers::same_bits(a.as_slice(), want.packed.as_slice())
                        || !crate::drivers::same_bits(&tau, &want.tau)
                    {
                        rep.error("layer replay differs from gehrd".to_string());
                    }
                    if step == Step::Replay {
                        replay_this_round = Some(layers);
                    } else {
                        smp.replay_other.push(layers);
                    }
                    ft_trace::take_events();
                }
                Step::Probe => {
                    let p = probes.as_mut().map(|p| p.sample(w.backend, &mut rec));
                    smp.probes.extend(p);
                }
            }
        }
        rec.close();
        if let (Some(g), Some(l)) = (gehrd_this_round, replay_this_round) {
            smp.replay_gehrd.push(g);
            smp.replay.push(l);
        }
        round += 1;
    }
    // Top the service samples up to the tail-percentile minimum.
    while traffic.latency.len() < MIN_JOBS {
        let s = mix(seed, 1000 + round as u64);
        rec.time("serve.cycle", |_| {
            traffic.cycle(&st.service, w.cycle_scale, s)
        });
        round += 1;
    }
    ft_trace::set_mode(TraceMode::Off);
    ft_trace::take_events();
    let growth = ft_blas::workspace::growth_allocations() - growth0;
    let serve_hist = serve_histograms();

    // Checks after the window.
    rep.attempted += traffic.attempted;
    rep.failed += traffic.failed;
    for v in &traffic.violations {
        rep.error(format!("service: {v}"));
    }
    let sample = serve::check_sample(
        &st.service,
        &serve::mix(CHECKED_JOBS, mix(seed, 4)),
        CHECKED_JOBS,
        w.backend,
    );
    rep.attempted += sample.checked;
    rep.failed += sample.failed;
    for e in sample.errors {
        rep.error(e);
    }
    if smp.false_positives > 0 {
        rep.error(format!(
            "{} clean FT calls reported recoveries",
            smp.false_positives
        ));
    }
    if w.backend.is_threaded() {
        // Threaded outputs must equal the serial ones bit for bit.
        let serial = Problem {
            a: st.problem.a.clone(),
            nb: w.nb,
            backend: Backend::Serial,
        };
        for (d, want) in Driver::ALL.iter().zip(&st.refs) {
            rep.attempted += 1;
            if !same_output(&call(*d, &serial, &mut FaultPlan::none()), want) {
                rep.failed += 1;
                rep.error(format!(
                    "{} on {:?} differs from serial",
                    d.name(),
                    w.backend
                ));
            }
        }
    }

    if traced {
        write_spans(w, seed, &rec);
        layer_metrics(&mut rep, w, &st, &outcomes, &smp, &traffic, &serve_hist);
        rep.put("workspace.growth_after_warmup", "count", growth as f64, 1);
        rep.put("verify.residual_max", "1", residual_max, st.refs.len());
        rep.put("verify.orth_max", "1", orth_max, st.refs.len());
        rep.put(
            "matrix.gen_s",
            "s",
            median(&gen_times).unwrap_or(0.0),
            gen_times.len(),
        );
        let failed_ops = rep.failed + smp.faulted_flagged + smp.faulted_silent;
        rep.put(
            "fail_ratio",
            "1",
            failed_ops as f64 / rep.attempted.max(1) as f64,
            rep.attempted as usize,
        );
    } else {
        end_to_end(&mut rep, &setup_times, &smp, &traffic);
    }
    serve::stop(st.service);
    rep
}

fn warmup_name(d: Driver) -> &'static str {
    match d {
        Driver::Gehrd => "setup.gehrd",
        Driver::Hybrid => "setup.hybrid",
        Driver::Ft => "setup.ft",
        Driver::FtAbft => "setup.ft_abft",
    }
}

fn span_name(d: Driver) -> &'static str {
    match d {
        Driver::Gehrd => "drive.gehrd",
        Driver::Hybrid => "drive.hybrid",
        Driver::Ft => "drive.ft",
        Driver::FtAbft => "drive.ft_abft",
    }
}

fn inline_fallbacks() -> u64 {
    ft_trace::counter("pool.inline_fallback").get()
}

/// Bit-compares a clean call with its reference and checks that a clean
/// FT call reports no recovery work.
fn check_clean(rep: &mut Report, smp: &mut Samples, d: Driver, out: &Output, want: &Output) {
    let false_positive =
        out.failure.is_some() || out.report.as_ref().is_some_and(|r| recovery_events(r) > 0);
    let same = same_output(out, want);
    if false_positive {
        smp.false_positives += 1;
        rep.error(format!(
            "{}: recovery work or a failure on a clean call",
            d.name()
        ));
    }
    if !same {
        rep.error(format!("{} output differs from its reference", d.name()));
    }
    if false_positive || !same {
        rep.failed += 1;
    }
}

fn end_to_end(rep: &mut Report, setup_times: &[f64], smp: &Samples, traffic: &Traffic) {
    rep.put(
        "setup_s",
        "s",
        median(setup_times).unwrap_or(0.0),
        setup_times.len(),
    );
    let mut put_fastest = |name: &str, xs: &[f64]| {
        rep.put(name, "s", fastest(xs).unwrap_or(0.0), xs.len());
    };
    put_fastest("gehrd_s", &smp.drive[Driver::Gehrd.idx()]);
    put_fastest("hybrid_s", &smp.drive[Driver::Hybrid.idx()]);
    // On faults-512, the faulted calls: time to a faulted call's result.
    if smp.faulted.is_empty() {
        put_fastest("ft_s", &smp.drive[Driver::Ft.idx()]);
    } else {
        put_fastest("ft_s", &smp.faulted);
    }
    put_fastest("ft_abft_s", &smp.drive[Driver::FtAbft.idx()]);
    serve_metrics(rep, traffic);
}

/// Service figures. A cycle has the same composition in every run, so
/// its rate and median latency are comparable across cycles; their
/// medians over the cycles do not follow a phase of the machine that
/// slows a minority of them. p99 needs at least 1000 jobs, so it is taken
/// over every timed job.
fn serve_metrics(rep: &mut Report, traffic: &Traffic) {
    let cycles = traffic.cycle_rate.len();
    rep.put(
        "jobs_per_s",
        "1/s",
        median(&traffic.cycle_rate).unwrap_or(0.0),
        cycles,
    );
    rep.put(
        "latency_p50_s",
        "s",
        median(&traffic.cycle_p50).unwrap_or(0.0),
        traffic.cycle_p50.len(),
    );
    let n = traffic.latency.len();
    match tail_quantile(&traffic.latency, 0.99) {
        Some(v) => rep.put("latency_p99_s", "s", v, n),
        None => rep.error(format!(
            "latency_p99_s: {n} samples leave fewer than ten beyond"
        )),
    }
}

/// Service histograms (µs) merged over the three priority lanes.
#[derive(Default)]
struct ServeHist {
    exec: ft_trace::HistSnapshot,
    backoff: ft_trace::HistSnapshot,
}

fn serve_histograms() -> ServeHist {
    let mut h = ServeHist::default();
    for (name, snap) in ft_trace::histograms() {
        if name.starts_with("serve.exec_") {
            h.exec.merge(&snap);
        } else if name.starts_with("serve.backoff_") {
            h.backoff.merge(&snap);
        }
    }
    h
}

/// The per-layer metrics of the traced run.
fn layer_metrics(
    rep: &mut Report,
    w: &Workload,
    st: &State,
    outcomes: &[FaultOutcome],
    smp: &Samples,
    traffic: &Traffic,
    hist: &ServeHist,
) {
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let gehrd = &smp.drive[Driver::Gehrd.idx()];
    let hybrid = &smp.drive[Driver::Hybrid.idx()];
    let ft = &smp.drive[Driver::Ft.idx()];
    let abft = &smp.drive[Driver::FtAbft.idx()];

    // ft-lapack, from the replay.
    let wk = work(w.n, w.nb);
    let panel: Vec<f64> = smp.replay.iter().map(|l| l.panel).collect();
    let right: Vec<f64> = smp.replay.iter().map(|l| l.right).collect();
    let left: Vec<f64> = smp.replay.iter().map(|l| l.left).collect();
    let update: Vec<f64> = smp.replay.iter().map(|l| l.right + l.left).collect();
    let total: Vec<f64> = smp.replay.iter().map(|l| l.total()).collect();
    let nr = smp.replay.len();
    let peak = med(&smp.probes.iter().map(|p| p.gemm_gflops).collect::<Vec<_>>());
    let update_gflops = wk.update_flops / med(&update) / 1e9;
    rep.put("lapack.panel_s", "s", med(&panel), nr);
    rep.put(
        "lapack.panel_gbps",
        "GB/s-computed",
        wk.panel_bytes / med(&panel) / 1e9,
        nr,
    );
    rep.put("lapack.right_update_s", "s", med(&right), nr);
    rep.put("lapack.left_update_s", "s", med(&left), nr);
    rep.put("lapack.update_gflops", "GF/s", update_gflops, nr);
    rep.put(
        "lapack.update_pct_peak",
        "%",
        100.0 * update_gflops / peak,
        nr,
    );
    rep.put(
        "lapack.replay_coverage",
        "1",
        paired_median(&total, &smp.replay_gehrd, |r, g| r / g).unwrap_or(0.0),
        nr,
    );

    // ft-blas.
    let np = smp.probes.len();
    let probe = |f: fn(&ProbeSample) -> f64| med(&smp.probes.iter().map(f).collect::<Vec<_>>());
    rep.put("blas.gemm_peak_gflops", "GF/s", peak, np);
    rep.put("blas.bw_gbps", "GB/s", probe(|p| p.bw_gbps), np);
    rep.put(
        "blas.gemm_ft_overhead_pct",
        "%",
        probe(|p| p.gemm_ft_overhead_pct),
        np,
    );
    rep.put(
        "pool.dispatch_per_op",
        "count",
        med(&smp.dispatches),
        smp.dispatches.len(),
    );
    rep.put(
        "pool.inline_fallback_per_op",
        "count",
        med(&smp.inline_fallbacks),
        smp.inline_fallbacks.len(),
    );
    rep.put("pool.dispatch_us", "us", probe(|p| p.dispatch_us), np);
    let (serial, two) = if w.backend.is_threaded() {
        (&smp.replay_other, &smp.replay)
    } else {
        (&smp.replay, &smp.replay_other)
    };
    let ratio = |f: fn(&LayerTimes) -> f64| {
        let s: Vec<f64> = serial.iter().map(f).collect();
        let t: Vec<f64> = two.iter().map(f).collect();
        paired_median(&s, &t, |a, b| a / b).unwrap_or(0.0)
    };
    let npair = serial.len().min(two.len());
    rep.put("blas.speedup_2t.panel", "1", ratio(|l| l.panel), npair);
    rep.put(
        "blas.speedup_2t.update",
        "1",
        ratio(|l| l.right + l.left),
        npair,
    );

    // ft-hybrid.
    rep.put(
        "hybrid.sim_s",
        "s",
        st.refs[Driver::Hybrid.idx()].sim_seconds,
        1,
    );
    rep.put(
        "hybrid.bookkeeping_s",
        "s",
        paired_median(hybrid, gehrd, |h, g| h - g).unwrap_or(0.0),
        hybrid.len().min(gehrd.len()),
    );

    // ft-hessenberg.
    let pairs = ft.len().min(hybrid.len());
    rep.put(
        "ft.overhead_pct",
        "%",
        paired_median(ft, hybrid, pct_over).unwrap_or(0.0),
        pairs,
    );
    rep.put(
        "ft.abft_overhead_pct",
        "%",
        paired_median(abft, hybrid, pct_over).unwrap_or(0.0),
        abft.len().min(hybrid.len()),
    );
    rep.put("ft.clean_s", "s", med(ft), ft.len());
    let phase = |ps: &[PhaseBreakdown], f: fn(&PhaseBreakdown) -> f64| {
        med(&ps.iter().map(f).collect::<Vec<_>>())
    };
    let nf = smp.ft_phases.len();
    rep.put("ft.encode_s", "s", phase(&smp.ft_phases, |p| p.encode), nf);
    rep.put("ft.detect_s", "s", phase(&smp.ft_phases, |p| p.detect), nf);
    rep.put(
        "ft.qprotect_s",
        "s",
        phase(&smp.ft_phases, |p| p.qprotect),
        nf,
    );
    rep.put("ft.panel_s", "s", phase(&smp.ft_phases, |p| p.panel), nf);
    rep.put(
        "ft.trailing_s",
        "s",
        phase(&smp.ft_phases, |p| p.trailing),
        nf,
    );
    rep.put(
        "ft.abft_s",
        "s",
        phase(&smp.abft_phases, |p| p.abft),
        smp.abft_phases.len(),
    );
    let nfp = smp.fault_phases.len();
    rep.put(
        "ft.reverse_s",
        "s",
        phase(&smp.fault_phases, |p| p.reverse),
        nfp,
    );
    rep.put(
        "ft.locate_s",
        "s",
        phase(&smp.fault_phases, |p| p.locate),
        nfp,
    );
    rep.put(
        "ft.correct_s",
        "s",
        phase(&smp.fault_phases, |p| p.correct),
        nfp,
    );
    // Each faulted round pairs with the clean FT call of the same round.
    rep.put(
        "ft.recovery_share",
        "1",
        paired_median(&smp.faulted, ft, |f, c| (f - c) / f).unwrap_or(0.0),
        smp.faulted.len(),
    );
    let coverage: Vec<f64> = smp
        .ft_phases
        .iter()
        .zip(&smp.ft_wall)
        .map(|(p, wall)| p.total() / wall)
        .collect();
    rep.put("ft.phase_coverage", "1", med(&coverage), coverage.len());

    // Exact counts over one pass of the fault-plan set.
    let sum = |f: fn(&FtReport) -> usize| -> f64 {
        st.fault_refs
            .iter()
            .filter_map(|o| o.report.as_ref())
            .map(f)
            .sum::<usize>() as f64
    };
    let np = st.fault_refs.len();
    rep.put("ft.recoveries", "count", sum(|r| r.recoveries.len()), np);
    rep.put(
        "ft.redone_iterations",
        "count",
        sum(|r| r.redone_iterations),
        np,
    );
    rep.put(
        "ft.q_corrections",
        "count",
        sum(|r| r.q_corrections.len()),
        np,
    );
    rep.put(
        "ft.online_detections",
        "count",
        sum(|r| r.online_detections),
        np,
    );
    rep.put("faults.injected", "count", sum(|r| r.injected.len()), np);
    let count = |o: FaultOutcome| outcomes.iter().filter(|&&x| x == o).count() as f64;
    rep.put(
        "faults.corrected",
        "calls",
        count(FaultOutcome::Corrected),
        np,
    );
    rep.put("faults.flagged", "calls", count(FaultOutcome::Flagged), np);
    rep.put("faults.silent", "calls", count(FaultOutcome::Silent), np);
    let clean_ft_calls = ft.len() + abft.len();
    rep.put(
        "ft.false_positives",
        "count",
        smp.false_positives as f64,
        clean_ft_calls,
    );

    // ft-serve.
    let nq = traffic.queue_wait.len();
    let q = |xs: &[f64], p: f64| tail_quantile(xs, p).unwrap_or(0.0);
    let us = |v: u64| v as f64 * 1e-6;
    let lat50 = q(&traffic.latency, 0.5);
    rep.put(
        "serve.queue_wait_p50_s",
        "s",
        q(&traffic.queue_wait, 0.5),
        nq,
    );
    rep.put(
        "serve.queue_wait_p99_s",
        "s",
        q(&traffic.queue_wait, 0.99),
        nq,
    );
    let ne = hist.exec.count as usize;
    rep.put("serve.exec_p50_s", "s", us(hist.exec.quantile(0.5)), ne);
    rep.put("serve.exec_p99_s", "s", us(hist.exec.quantile(0.99)), ne);
    rep.put(
        "serve.backoff_p90_s",
        "s",
        us(hist.backoff.quantile(0.9)),
        hist.backoff.count as usize,
    );
    rep.put(
        "serve.overhead_p50_s",
        "s",
        lat50 - us(hist.exec.quantile(0.5)),
        nq,
    );
    let finished = traffic.finished.max(1);
    rep.put(
        "serve.retries",
        "count",
        (traffic.attempts - traffic.finished) as f64,
        traffic.finished as usize,
    );
    rep.put(
        "serve.rejected",
        "count",
        traffic.rejected as f64,
        traffic.attempted as usize,
    );
    rep.put(
        "serve.attempts_per_job",
        "1",
        traffic.attempts as f64 / finished as f64,
        traffic.finished as usize,
    );

    // ft-trace: collecting vs not, per driver, from alternating rounds.
    for d in Driver::ALL {
        let samples = smp.drive[d.idx()].iter().zip(&smp.traced[d.idx()]);
        let on: Vec<f64> = samples
            .clone()
            .filter(|(_, &t)| t)
            .map(|(&x, _)| x)
            .collect();
        let off: Vec<f64> = samples.filter(|(_, &t)| !t).map(|(&x, _)| x).collect();
        let v = match (median(&on), median(&off)) {
            (Some(a), Some(b)) => pct_over(a, b),
            _ => 0.0,
        };
        rep.put(
            format!("trace.overhead_pct.{}", d.name()),
            "%",
            v,
            on.len() + off.len(),
        );
    }
}

/// Writes the run's spans next to the benchmark's sources.
fn write_spans(w: &Workload, seed: u64, rec: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.spans.jsonl", w.name));
    let res = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        rec.write_jsonl(&mut f)
    });
    match res {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
