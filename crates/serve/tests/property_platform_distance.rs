//! Property coverage for the platform term of
//! [`ScenarioDescriptor::distance`]: the registry refactor replaced the
//! flat cross-platform penalty with a spec-divergence term, and transfer
//! quality depends on two properties of it:
//!
//! 1. **Monotonicity** — for the same network, more divergent platform
//!    specs must never look *closer*. Otherwise nearest-donor ranking
//!    would prefer a more foreign platform over a near-twin.
//! 2. **Cutoff admission** — a cross-platform donor for the same network
//!    must always fall inside the serve layer's donor cutoff, so warm
//!    starts across platforms are actually offered (the refactor's whole
//!    point). The term is bounded below the flat penalty by construction.

use std::sync::OnceLock;

use proptest::prelude::*;
use qsdnn::engine::{CostLut, Mode, PlatformRegistry, ScenarioDescriptor};
use qsdnn::reproduce::lut;

/// The serve layer's donor admission cutoff
/// (`MAX_DONOR_DISTANCE` in `qsdnn-serve/src/transfer.rs`).
const DONOR_CUTOFF: f64 = 6.0;

/// The flat legacy penalty for a platform-name mismatch
/// (`PLATFORM_MISMATCH` in `qsdnn-engine/src/scenario.rs`); the
/// feature-based term must stay strictly below it.
const FLAT_PLATFORM_PENALTY: f64 = 2.0;

fn shared_lut() -> &'static CostLut {
    static LUT: OnceLock<CostLut> = OnceLock::new();
    LUT.get_or_init(|| lut("tiny_cnn", 1, Mode::Gpgpu, 2))
}

/// Same network/LUT on both sides, but a foreign platform name so the
/// platform term is the *only* nonzero distance contribution.
fn descriptor(name: &str, features: Vec<f64>) -> ScenarioDescriptor {
    let mut d = ScenarioDescriptor::of(shared_lut()).with_batch(1);
    d.platform = name.to_string();
    d.with_platform_features(features)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scaling a fixed perturbation direction up can only increase the
    /// distance: `d(base, base + t1·delta) <= d(base, base + t2·delta)`
    /// for `t1 <= t2`, and the zero perturbation scores zero (identically
    /// specced platforms under different names are perfect donors).
    #[test]
    fn platform_term_is_monotone_in_spec_divergence(
        base in proptest::collection::vec(0.0f64..8.0, 3..9),
        raw_delta in proptest::collection::vec(0.0f64..4.0, 3..9),
        t1 in 0.0f64..4.0,
        t2 in 0.0f64..4.0,
    ) {
        let n = base.len().min(raw_delta.len());
        let base = base[..n].to_vec();
        let delta = &raw_delta[..n];
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let perturb = |t: f64| -> Vec<f64> {
            base.iter().zip(delta).map(|(b, d)| b + t * d).collect()
        };
        let anchor = descriptor("target", base.clone());
        let near = descriptor("donor", perturb(lo));
        let far = descriptor("donor", perturb(hi));
        let d_near = anchor.distance(&near);
        let d_far = anchor.distance(&far);
        prop_assert!(
            d_near <= d_far + 1e-12,
            "divergence {lo} scored {d_near}, larger divergence {hi} scored {d_far}"
        );
        let twin = descriptor("donor", base.clone());
        prop_assert!(
            anchor.distance(&twin).abs() < 1e-12,
            "identically specced platforms must be zero-distance donors"
        );
    }

    /// Any pair of feature-carrying platforms is admissible as a donor for
    /// the same network: the platform term stays strictly under the flat
    /// penalty, hence far under the serve layer's donor cutoff — even with
    /// a batch doubling stacked on top.
    #[test]
    fn cross_platform_donors_stay_inside_the_donor_cutoff(
        a in proptest::collection::vec(0.0f64..8.0, 4),
        b in proptest::collection::vec(0.0f64..8.0, 4),
    ) {
        let target = descriptor("target", a);
        let donor = descriptor("donor", b);
        let d = target.distance(&donor);
        prop_assert!(
            d < FLAT_PLATFORM_PENALTY,
            "feature-based term {d} must undercut the flat penalty"
        );
        let batched = {
            let mut d2 = ScenarioDescriptor::of(shared_lut()).with_batch(2);
            d2.platform = "donor".to_string();
            d2.with_platform_features(donor.platform_features.clone())
        };
        prop_assert!(
            target.distance(&batched) < DONOR_CUTOFF,
            "a cross-platform batch neighbor must remain an eligible donor"
        );
    }
}

/// The committed built-in specs themselves are mutually admissible donors
/// (the concrete case the bench sweep exercises).
#[test]
fn builtin_platforms_are_mutually_admissible_donors() {
    let registry = PlatformRegistry::builtin();
    let specs: Vec<_> = registry.specs().collect();
    assert!(specs.len() >= 4, "expected the four built-ins");
    for a in &specs {
        for b in &specs {
            let da = descriptor(&a.name, a.features());
            let db = descriptor(&b.name, b.features());
            let d = da.distance(&db);
            if a.name == b.name {
                assert!(d.abs() < 1e-12, "{} vs itself scored {d}", a.name);
            } else {
                assert!(
                    d < DONOR_CUTOFF,
                    "{} vs {} scored {d}, outside the donor cutoff",
                    a.name,
                    b.name
                );
            }
        }
    }
}
