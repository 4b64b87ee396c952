//! Machine ceilings and single-kernel probes measured in the same run as
//! the reductions, through `ft_blas`'s public functions.

use crate::spans::Recorder;
use ft_blas::{copy, gemm, gemm_ft, parallel_map_into, with_backend, AbftOptions, Backend, Trans};
use ft_matrix::Matrix;
use std::hint::black_box;
use std::time::Instant;

/// Order of the square GEMM whose rate is the compute ceiling.
pub const PEAK_N: usize = 1024;

/// Elements of the bandwidth stream: 8 MiB per array, above the 2 MiB
/// per-core L2 and far inside a last-level cache of hundreds of MiB, so
/// the figure is the panel working set's cache bandwidth, not DRAM's.
pub const STREAM_LEN: usize = 1 << 20;

/// Reusable operands of the probes.
pub struct Probes {
    peak_a: Matrix,
    peak_b: Matrix,
    peak_c: Matrix,
    src: Vec<f64>,
    dst: Vec<f64>,
    y: Matrix,
    v: Matrix,
    c: Matrix,
    map_out: Vec<f64>,
}

/// One sample of every probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeSample {
    /// Square `PEAK_N` GEMM rate, GF/s.
    pub gemm_gflops: f64,
    /// `copy` stream rate (read + write bytes), GB/s.
    pub bw_gbps: f64,
    /// `gemm_ft` time over `gemm` time at the right-update shape, minus 1,
    /// in percent.
    pub gemm_ft_overhead_pct: f64,
    /// Wall time of one trivial two-way `parallel_map_into` dispatch, µs.
    pub dispatch_us: f64,
}

impl Probes {
    /// Operands for a workload of order `n` and panel width `nb`; the
    /// right-update shape is the first panel's: `(n × nb)·(nb × (n − nb))`.
    pub fn new(n: usize, nb: usize, seed: u64) -> Probes {
        let rand = |r, c, tag| ft_matrix::random::uniform(r, c, seed.wrapping_add(tag));
        Probes {
            peak_a: rand(PEAK_N, PEAK_N, 1),
            peak_b: rand(PEAK_N, PEAK_N, 2),
            peak_c: Matrix::zeros(PEAK_N, PEAK_N),
            src: rand(STREAM_LEN, 1, 3).into_vec(),
            dst: vec![0.0; STREAM_LEN],
            y: rand(n, nb, 4),
            v: rand(n - nb, nb, 5),
            c: rand(n, n - nb, 6),
            map_out: vec![0.0; 512],
        }
    }

    /// Takes one sample of every probe under `backend`.
    pub fn sample(&mut self, backend: Backend, rec: &mut Recorder) -> ProbeSample {
        with_backend(backend, || {
            let ((), secs) = rec.time("probe.gemm_peak", |_| {
                gemm(
                    Trans::No,
                    Trans::No,
                    1.0,
                    &self.peak_a.as_view(),
                    &self.peak_b.as_view(),
                    0.0,
                    &mut self.peak_c.as_view_mut(),
                )
            });
            let gemm_gflops = 2.0 * (PEAK_N as f64).powi(3) / secs / 1e9;

            let reps = 8;
            let ((), secs) = rec.time("probe.copy", |_| {
                for _ in 0..reps {
                    copy(black_box(&self.src), &mut self.dst);
                    black_box(&mut self.dst);
                }
            });
            let bw_gbps = (reps * 2 * 8 * STREAM_LEN) as f64 / secs / 1e9;

            let gemm_ft_overhead_pct = self.gemm_ft_pair(rec);
            let dispatch_us = self.dispatch(rec);
            ProbeSample {
                gemm_gflops,
                bw_gbps,
                gemm_ft_overhead_pct,
                dispatch_us,
            }
        })
    }

    /// `gemm` then `gemm_ft` on the right-update shape, three pairs; the
    /// median pair ratio as a percentage over `gemm`.
    fn gemm_ft_pair(&mut self, rec: &mut Recorder) -> f64 {
        let mut ratios = Vec::new();
        for _ in 0..3 {
            let ((), plain) = rec.time("probe.gemm", |_| {
                gemm(
                    Trans::No,
                    Trans::Yes,
                    -1.0,
                    &self.y.as_view(),
                    &self.v.as_view(),
                    1.0,
                    &mut self.c.as_view_mut(),
                )
            });
            let (res, ft) = rec.time("probe.gemm_ft", |_| {
                gemm_ft(
                    Trans::No,
                    Trans::Yes,
                    -1.0,
                    &self.y.as_view(),
                    &self.v.as_view(),
                    1.0,
                    &mut self.c.as_view_mut(),
                    AbftOptions::default(),
                )
            });
            black_box(res);
            ratios.push(ft / plain);
        }
        crate::stats::median(&ratios).map_or(0.0, |r| 100.0 * (r - 1.0))
    }

    /// Median of 64 trivial `parallel_map_into` calls on the two-thread
    /// backend; 512 outputs clear the memory-bound fork gate, so each call
    /// is one real dispatch to the pool.
    fn dispatch(&mut self, rec: &mut Recorder) -> f64 {
        with_backend(Backend::Threaded(2), || {
            let mut times = Vec::with_capacity(64);
            rec.open("probe.dispatch");
            for _ in 0..64 {
                let t0 = Instant::now();
                parallel_map_into(&mut self.map_out, |i| i as f64);
                times.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            rec.close();
            black_box(&self.map_out);
            crate::stats::median(&times).unwrap_or(0.0)
        })
    }
}
