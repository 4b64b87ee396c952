//! The four reduction drivers the benchmark times, called through their
//! public functions, and the checks applied to what they return.

use ft_blas::{with_backend, Backend};
use ft_fault::FaultPlan;
use ft_hessenberg::{
    ft_gehrd_hybrid, gehrd_hybrid, FailureReason, FtConfig, FtReport, HybridConfig, ThresholdPolicy,
};
use ft_hybrid::{CostModel, ExecMode, HybridCtx};
use ft_lapack::{gehrd, GehrdConfig};
use ft_matrix::Matrix;

/// A reduction driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `ft_lapack::gehrd`, blocked, no lookahead.
    Gehrd,
    /// `ft_hessenberg::gehrd_hybrid` in `ExecMode::Full` (Algorithm 2).
    Hybrid,
    /// `ft_hessenberg::ft_gehrd_hybrid` with the default protection
    /// (Algorithm 3).
    Ft,
    /// `ft_gehrd_hybrid` with the fused online ABFT kernels.
    FtAbft,
}

impl Driver {
    /// All drivers, in the order round 0 runs them.
    pub const ALL: [Driver; 4] = [Driver::Gehrd, Driver::Hybrid, Driver::Ft, Driver::FtAbft];

    /// Short name used in span and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Driver::Gehrd => "gehrd",
            Driver::Hybrid => "hybrid",
            Driver::Ft => "ft",
            Driver::FtAbft => "ft_abft",
        }
    }

    /// Index into per-driver arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// What one driver call returned.
#[derive(Debug)]
pub struct Output {
    /// Packed factorization (H on and above the sub-diagonal, reflectors
    /// below).
    pub packed: Matrix,
    /// Reflector scales.
    pub tau: Vec<f64>,
    /// The FT report (FT drivers only).
    pub report: Option<FtReport>,
    /// Failure the FT driver flagged, if any.
    pub failure: Option<FailureReason>,
    /// Simulated makespan of the hybrid platform (hybrid and FT drivers).
    pub sim_seconds: f64,
}

/// The problem every driver call of a workload solves.
pub struct Problem {
    /// Input matrix.
    pub a: Matrix,
    /// Panel width.
    pub nb: usize,
    /// Kernel backend, pinned for every call.
    pub backend: Backend,
}

fn ctx() -> HybridCtx {
    HybridCtx::new(CostModel::k40c_sandy_bridge(), ExecMode::Full, 2)
}

/// Calls `driver` once on `p` (FT drivers under `plan`). Every driver
/// starts from the same borrowed input, so `gehrd`'s copy of it is part
/// of its call as it is inside the other drivers.
pub fn call(driver: Driver, p: &Problem, plan: &mut FaultPlan) -> Output {
    with_backend(p.backend, || match driver {
        Driver::Gehrd => {
            let mut packed = p.a.clone();
            let cfg = GehrdConfig::with_nb(p.nb).with_lookahead(false);
            let tau = gehrd(&mut packed, &cfg);
            Output {
                packed,
                tau,
                report: None,
                failure: None,
                sim_seconds: 0.0,
            }
        }
        Driver::Hybrid => {
            let out = gehrd_hybrid(&p.a, &HybridConfig { nb: p.nb }, &mut ctx(), plan);
            let f = out
                .result
                .unwrap_or_else(|| unreachable!("ExecMode::Full returns a result"));
            Output {
                packed: f.packed,
                tau: f.tau,
                report: None,
                failure: None,
                sim_seconds: out.sim_seconds,
            }
        }
        Driver::Ft | Driver::FtAbft => {
            // Defaults, with panel width, backend and lookahead pinned.
            let cfg = FtConfig {
                nb: p.nb,
                backend: p.backend,
                online_abft: driver == Driver::FtAbft,
                lookahead: false,
                ..FtConfig::default()
            };
            let out = ft_gehrd_hybrid(&p.a, &cfg, &mut ctx(), plan);
            let f = out
                .result
                .unwrap_or_else(|| unreachable!("ExecMode::Full returns a result"));
            Output {
                packed: f.packed,
                tau: f.tau,
                sim_seconds: out.report.sim_seconds,
                report: Some(out.report),
                failure: out.failure,
            }
        }
    })
}

/// `true` when both slices hold the same bits.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `true` when two outputs hold the same factorization bit for bit.
pub fn same_output(a: &Output, b: &Output) -> bool {
    same_bits(a.packed.as_slice(), b.packed.as_slice()) && same_bits(&a.tau, &b.tau)
}

/// Recovery work an FT report shows: episodes, `Q`/`tau` repairs and
/// online detections. On a clean call any of these is a false positive.
pub fn recovery_events(r: &FtReport) -> usize {
    r.recoveries.len() + r.q_corrections.len() + r.tau_corrections.len() + r.online_detections
}

/// Largest normalized residuals a result may have and still count as
/// correct: `factor·ε` for both `‖A − QHQᵀ‖₁/(N‖A‖₁)` and `‖QQᵀ − I‖₁/N`,
/// where `factor` is the FT driver's default detection threshold
/// (`ThresholdPolicy::Scaled`, threshold `factor·ε·N‖A‖₁`). A corruption
/// the detector is designed to let through is at most that threshold,
/// which is `factor·ε` in the residual's normalization; a result above it
/// without a `FailureReason` means an error larger than the detector's
/// own tolerance went unreported, so it counts as silent. The bound comes
/// from the detector's definition, not from observed outcomes.
pub fn residual_bound() -> f64 {
    let factor = match ThresholdPolicy::default() {
        ThresholdPolicy::Scaled { factor } => factor,
        ThresholdPolicy::Absolute(_) => 100.0,
    };
    factor * f64::EPSILON
}

/// Residuals of one result.
#[derive(Clone, Copy, Debug)]
pub struct Residuals {
    /// `‖A − QHQᵀ‖₁/(N‖A‖₁)`.
    pub factorization: f64,
    /// `‖QQᵀ − I‖₁/N`.
    pub orthogonality: f64,
}

impl Residuals {
    /// Computes both residuals of `out` against the input `a` (O(n³)).
    pub fn of(a: &Matrix, out: &Output) -> Residuals {
        let f = ft_lapack::HessFactorization {
            packed: out.packed.clone(),
            tau: out.tau.clone(),
        };
        let q = f.q();
        let h = f.h();
        Residuals {
            factorization: ft_lapack::gehrd::factorization_residual(a, &q, &h),
            orthogonality: ft_lapack::gehrd::orthogonality_residual(&q),
        }
    }

    /// Both residuals within [`residual_bound`] (NaN fails).
    pub fn within_bound(&self) -> bool {
        let b = residual_bound();
        self.factorization <= b && self.orthogonality <= b
    }
}

/// How a faulted call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// No flag and residuals within the bound.
    Corrected,
    /// The driver reported a `FailureReason`.
    Flagged,
    /// No flag, but residuals above the bound.
    Silent,
}

/// Classifies a faulted call's output.
pub fn classify(out: &Output, res: &Residuals) -> FaultOutcome {
    if out.failure.is_some() {
        FaultOutcome::Flagged
    } else if res.within_bound() {
        FaultOutcome::Corrected
    } else {
        FaultOutcome::Silent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(n: usize, nb: usize) -> Problem {
        Problem {
            a: ft_matrix::random::uniform(n, n, 21),
            nb,
            backend: Backend::Serial,
        }
    }

    #[test]
    fn clean_drivers_are_correct_and_repeat() {
        let p = problem(70, 8);
        for d in Driver::ALL {
            let a = call(d, &p, &mut FaultPlan::none());
            let b = call(d, &p, &mut FaultPlan::none());
            assert!(same_output(&a, &b), "{d:?} is not deterministic");
            assert!(Residuals::of(&p.a, &a).within_bound(), "{d:?}");
            if let Some(r) = &a.report {
                assert_eq!(recovery_events(r), 0, "{d:?} false positive");
            }
        }
    }

    #[test]
    fn threaded_matches_serial() {
        let mut p = problem(96, 16);
        let serial: Vec<Output> = Driver::ALL
            .iter()
            .map(|&d| call(d, &p, &mut FaultPlan::none()))
            .collect();
        p.backend = Backend::Threaded(2);
        for (d, want) in Driver::ALL.iter().zip(&serial) {
            let got = call(*d, &p, &mut FaultPlan::none());
            assert!(same_output(&got, want), "{d:?}");
        }
    }

    #[test]
    fn residual_bound_is_the_detector_factor() {
        assert_eq!(residual_bound(), 100.0 * f64::EPSILON);
    }

    #[test]
    fn corrupted_output_is_silent() {
        let p = problem(40, 8);
        let mut out = call(Driver::Ft, &p, &mut FaultPlan::none());
        out.packed[(0, 5)] += 1e-3;
        let res = Residuals::of(&p.a, &out);
        assert_eq!(classify(&out, &res), FaultOutcome::Silent);
    }
}
