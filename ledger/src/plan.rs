//! Seeded fault plans for the `faults-512` workload and the seed mixer
//! every workload derives its inputs from.

use ft_fault::{sample_in_region, Fault, FaultPlan, Phase, Region, ScheduledFault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic 64-bit mix of a seed and a stream tag (splitmix64).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Regions a fault is drawn from: the live trailing matrix above and
/// below the frontier, and finished reflector (`Q`) storage.
const REGIONS: [Region; 3] = [Region::Area1, Region::Area2, Region::Area3];

/// Injection points the FT driver honours (its hooks fire at the start
/// of an iteration and right before detection; `Phase::AfterPanel` has no
/// hook in `ft_gehrd_hybrid`, so a fault scheduled there would never
/// strike).
const PHASES: [Phase; 2] = [Phase::IterationStart, Phase::BeforeDetection];

/// Mantissa bits a fault flips: the range `CampaignConfig::trial` draws
/// from, bits 20 to 51.
const BITS: std::ops::Range<u8> = 20..52;

/// Panel iterations of a reduction of order `n` with panel width `nb`.
pub fn iterations(n: usize, nb: usize) -> usize {
    n.saturating_sub(2).div_ceil(nb)
}

/// A plan with one mantissa bit flip per interior panel iteration
/// (every iteration but the first and the last). Region, phase, position
/// and bit all come from `seed`: the region and phase sequences are
/// balanced (each value equally often, up to one) and shuffled, so that
/// plans from different seeds carry the same mix of rollback-causing and
/// storage faults. The bits are stratified the same way: the bit range
/// is cut into one equal stratum per fault and each fault draws its bit
/// from its own stratum, so every plan carries the same spread of small
/// and large flips, and the recovery work of a faulted call varies
/// little with the seed.
pub fn fault_plan(n: usize, nb: usize, seed: u64) -> FaultPlan {
    let iters = iterations(n, nb);
    let interior: Vec<usize> = (1..iters.saturating_sub(1)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut regions: Vec<Region> = (0..interior.len())
        .map(|i| REGIONS[i % REGIONS.len()])
        .collect();
    let mut phases: Vec<Phase> = (0..interior.len())
        .map(|i| PHASES[i % PHASES.len()])
        .collect();
    let mut bits = stratified_bits(interior.len(), &mut rng);
    shuffle(&mut regions, &mut rng);
    shuffle(&mut phases, &mut rng);
    shuffle(&mut bits, &mut rng);
    let faults = interior
        .iter()
        .zip(regions.iter().zip(&phases).zip(&bits))
        .filter_map(|(&it, ((&region, &phase), &bit))| {
            let (row, col) = sample_in_region(n, it * nb, region, &mut rng)?;
            Some(ScheduledFault {
                iteration: it,
                phase,
                fault: Fault::bitflip(row, col, bit),
            })
        })
        .collect();
    FaultPlan::new(faults)
}

/// `k` bits, one drawn from each of `k` equal strata of [`BITS`], in
/// ascending order.
fn stratified_bits(k: usize, rng: &mut StdRng) -> Vec<u8> {
    let (lo, len) = (usize::from(BITS.start), BITS.len());
    (0..k)
        .map(|i| {
            let (a, b) = (lo + i * len / k, lo + (i + 1) * len / k);
            rng.gen_range(a..b.max(a + 1)) as u8
        })
        .collect()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_fault::FaultKind;

    fn pending(plan: &FaultPlan, n: usize, nb: usize) -> Vec<ScheduledFault> {
        (0..iterations(n, nb))
            .flat_map(|it| PHASES.iter().flat_map(move |&ph| plan.peek_due(it, ph)))
            .collect()
    }

    #[test]
    fn same_seed_same_plan() {
        let a = pending(&fault_plan(512, 32, 7), 512, 32);
        let b = pending(&fault_plan(512, 32, 7), 512, 32);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn different_seed_different_plan() {
        let a = pending(&fault_plan(512, 32, 7), 512, 32);
        let b = pending(&fault_plan(512, 32, 8), 512, 32);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn one_fault_per_interior_iteration_in_range() {
        let (n, nb) = (512, 32);
        let faults = pending(&fault_plan(n, nb, 11), n, nb);
        assert_eq!(faults.len(), 14);
        let mut its: Vec<usize> = faults.iter().map(|f| f.iteration).collect();
        its.sort_unstable();
        assert_eq!(its, (1..=14).collect::<Vec<_>>());
        for f in &faults {
            assert!(f.fault.row < n && f.fault.col < n);
            match f.fault.kind {
                FaultKind::BitFlip(b) => assert!(BITS.contains(&b)),
                other => panic!("unexpected fault kind {other:?}"),
            }
        }
    }

    #[test]
    fn regions_are_balanced() {
        let (n, nb) = (512, 32);
        let faults = pending(&fault_plan(n, nb, 3), n, nb);
        let mut counts = [0usize; 3];
        for f in &faults {
            let k = f.iteration * nb;
            let region = ft_fault::classify(n, k, f.fault.row, f.fault.col);
            let idx = REGIONS
                .iter()
                .position(|&r| r == region)
                .expect("drawn region");
            counts[idx] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4 || c == 5), "{counts:?}");
    }

    #[test]
    fn bits_are_stratified() {
        let (n, nb) = (512, 32);
        for seed in [3, 4, 5] {
            let mut bits: Vec<u8> = pending(&fault_plan(n, nb, seed), n, nb)
                .iter()
                .map(|f| match f.fault.kind {
                    FaultKind::BitFlip(b) => b,
                    other => panic!("unexpected fault kind {other:?}"),
                })
                .collect();
            bits.sort_unstable();
            let k = bits.len();
            let len = BITS.len();
            for (i, &b) in bits.iter().enumerate() {
                let lo = usize::from(BITS.start) + i * len / k;
                let hi = usize::from(BITS.start) + (i + 1) * len / k;
                assert!((lo..hi).contains(&usize::from(b)), "seed {seed}: {bits:?}");
            }
        }
    }

    #[test]
    fn mix_separates_tags() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
