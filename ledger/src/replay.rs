//! Layer replay: repeats, from outside the program, the exact
//! `lahr2` → right-update `gemm` → `larfb` sequence that one blocked
//! `ft_lapack::gehrd` call makes (with `nx = 0` and no lookahead), timing
//! each layer call in its own span.

use crate::spans::Recorder;
use ft_blas::{gemm, Side, Trans};
use ft_lapack::{lahr2, larfb};
use ft_matrix::Matrix;

/// Seconds spent in each layer during one replayed reduction.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `lahr2` panel factorizations.
    pub panel: f64,
    /// Right updates (`gemm` on the rows above the panel and on the
    /// trailing columns).
    pub right: f64,
    /// Left updates (`larfb`).
    pub left: f64,
}

impl LayerTimes {
    /// Time covered by the layer spans.
    pub fn total(&self) -> f64 {
        self.panel + self.right + self.left
    }
}

/// Work of one reduction, computed from the matrix shapes (not counted).
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerWork {
    /// Bytes the panel's `A·v` products read: each trailing element once
    /// per panel column, plus the rows above the panel once per panel.
    pub panel_bytes: f64,
    /// Flops of the right and left updates.
    pub update_flops: f64,
}

/// Whether [`replay`] covers the whole reduction of order `n`: `gehrd`
/// finishes a last panel of one column with its private unblocked
/// tail, which the replay cannot call.
pub fn replayable(n: usize, nb: usize) -> bool {
    nb > 1 && n.saturating_sub(2) % nb != 1
}

/// Replays the blocked reduction of `a` (order `n`, panel width `nb`) in
/// place under the calling thread's backend; returns `tau`.
pub fn replay(a: &mut Matrix, nb: usize, rec: &mut Recorder) -> (Vec<f64>, LayerTimes) {
    let n = a.rows();
    assert!(
        replayable(n, nb),
        "replay: n={n}, nb={nb} ends in gehrd's unblocked tail"
    );
    let total = n.saturating_sub(2);
    let mut tau = vec![0.0; total];
    let mut t = LayerTimes::default();
    let mut k = 0;
    while k < total {
        let ib = nb.min(total - k);
        let (panel, secs) = rec.time("replay.lahr2", |_| lahr2(a, k, ib));
        t.panel += secs;
        let m = panel.m();
        rec.open("replay.right_update");
        if ib > 1 {
            gemm(
                Trans::No,
                Trans::Yes,
                -1.0,
                &panel.y.view(0, 0, k + 1, ib),
                &panel.v.view(0, 0, ib - 1, ib),
                1.0,
                &mut a.view_mut(0, k + 1, k + 1, ib - 1),
            );
        }
        let ntrail = n - k - ib;
        if ntrail > 0 {
            gemm(
                Trans::No,
                Trans::Yes,
                -1.0,
                &panel.y.as_view(),
                &panel.v.view(ib - 1, 0, m - ib + 1, ib),
                1.0,
                &mut a.view_mut(0, k + ib, n, ntrail),
            );
        }
        t.right += rec.close();
        if ntrail > 0 {
            let ((), secs) = rec.time("replay.left_update", |_| {
                larfb(
                    Side::Left,
                    Trans::Yes,
                    &panel.v.as_view(),
                    &panel.t.as_view(),
                    &mut a.view_mut(k + 1, k + ib, m, ntrail),
                )
            });
            t.left += secs;
        }
        tau[k..k + ib].copy_from_slice(&panel.tau);
        k += ib;
    }
    (tau, t)
}

/// Shape-derived work of the reduction [`replay`] performs.
pub fn work(n: usize, nb: usize) -> LayerWork {
    let total = n.saturating_sub(2);
    let mut w = LayerWork::default();
    let mut k = 0;
    while k < total {
        let ib = nb.min(total - k);
        let m = (n - k - 1) as f64;
        let ntrail = (n - k - ib) as f64;
        let (ibf, kf, nf) = (ib as f64, k as f64, n as f64);
        for j in 0..ib {
            w.panel_bytes += 8.0 * m * (n - k - 1 - j) as f64;
        }
        w.panel_bytes += 8.0 * (kf + 1.0) * m;
        // Rows above the panel, trailing right update, and larfb's two
        // gemms plus its triangular multiply.
        w.update_flops += 2.0 * (kf + 1.0) * (ibf - 1.0).max(0.0) * ibf
            + 2.0 * nf * ntrail * ibf
            + 4.0 * m * ntrail * ibf
            + ibf * ibf * ntrail;
        k += ib;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;
    use ft_lapack::{gehrd, GehrdConfig};
    use std::time::Instant;

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn replay_reproduces_gehrd_bit_for_bit() {
        for (n, nb) in [(96, 16), (70, 8), (40, 32)] {
            let a = ft_matrix::random::uniform(n, n, 5);
            let mut want = a.clone();
            let want_tau = gehrd(&mut want, &GehrdConfig::with_nb(nb).with_lookahead(false));
            let mut got = a.clone();
            let (tau, _) = replay(&mut got, nb, &mut Recorder::new());
            assert!(same_bits(got.as_slice(), want.as_slice()), "n={n} nb={nb}");
            assert!(same_bits(&tau, &want_tau), "n={n} nb={nb}");
        }
    }

    /// Fraction of a `gehrd` call's time the replay's layer spans must
    /// account for on a small matrix.
    const MIN_COVERAGE: f64 = 0.8;

    #[test]
    fn replay_covers_gehrd_time_on_a_small_matrix() {
        let (n, nb) = (192, 16);
        let a = ft_matrix::random::uniform(n, n, 9);
        let cfg = GehrdConfig::with_nb(nb).with_lookahead(false);
        let mut rec = Recorder::new();
        let mut ratios = Vec::new();
        for _ in 0..15 {
            let mut w = a.clone();
            let t0 = Instant::now();
            gehrd(&mut w, &cfg);
            let g = t0.elapsed().as_secs_f64();
            let mut w = a.clone();
            let (_, layers) = replay(&mut w, nb, &mut rec);
            ratios.push(layers.total() / g);
        }
        let cov = median(&ratios).expect("samples");
        assert!(
            cov >= MIN_COVERAGE,
            "replay coverage {cov:.3} < {MIN_COVERAGE}"
        );
    }

    #[test]
    fn replayable_excludes_the_unblocked_tail() {
        assert!(replayable(1024, 32) && replayable(512, 32) && replayable(128, 8));
        assert!(!replayable(67, 8));
        assert!(!replayable(64, 1));
    }

    #[test]
    fn work_counts_the_panel_and_update_shapes() {
        // n = 4, nb = 2: one panel (k = 0, ib = 2, m = 3, ntrail = 2).
        let w = work(4, 2);
        assert_eq!(w.panel_bytes, 8.0 * (3.0 * 3.0 + 3.0 * 2.0) + 8.0 * 3.0);
        let flops =
            2.0 * 1.0 * 1.0 * 2.0 + 2.0 * 4.0 * 2.0 * 2.0 + 4.0 * 3.0 * 2.0 * 2.0 + 4.0 * 2.0;
        assert_eq!(w.update_flops, flops);
    }
}
