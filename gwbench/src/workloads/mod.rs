//! The four workloads. Each builds its inputs from the seed in set-up
//! (with any oracle it is checked against) and then runs operations, each
//! to a checked result, in slices. README.md gives the rationale for each
//! and the layer it is meant to stress.

mod imagaxis;
mod oneshot;
mod serve;
mod sweep;

use crate::layers::Layers;
use crate::record::Metrics;
use bgw_pwdft::{bn_defect_sheet, si_divacancy, ModelSystem};
use std::path::Path;
use std::time::Instant;

/// Workload names, in the order BENCHMARK.json lists them.
pub const NAMES: &[&str] = &[
    "oneshot_gpp",
    "sigma_sweep",
    "imagaxis_spacetime",
    "serve_zipf",
];

/// Operations of one measurement, gathered over its slices.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall seconds per operation, from inputs to a checked result.
    pub latencies: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or missed their oracle.
    pub failed: u64,
    /// Wall seconds spent in this measurement's slices.
    pub wall: f64,
}

impl Phase {
    fn record(&mut self, i: usize, latency: f64, verdict: Result<(), String>) {
        self.latencies.push(latency);
        self.attempted += 1;
        if let Err(e) = verdict {
            eprintln!("operation {i} failed: {e}");
            self.failed += 1;
        }
    }
}

pub trait Workload {
    /// Runs one slice of the measurement `slot` into `phase`. Slices of
    /// different measurements alternate, so every measurement samples the
    /// whole run. With `layers`, each operation goes through the layers'
    /// public functions one call at a time and every call is timed.
    fn slice(&mut self, slot: usize, phase: &mut Phase, layers: Option<&mut Layers>);

    /// Operations each measurement needs at least.
    fn min_ops(&self) -> u64 {
        1
    }

    /// Sets the workload's own per-layer metrics from the traced slices.
    fn report_layers(&self, layers: &Layers, m: &mut Metrics);
}

/// Builds a workload's inputs and oracles from `seed`.
pub fn setup(name: &str, seed: u64, work_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "oneshot_gpp" => Box::new(oneshot::Oneshot::setup(seed)?),
        "sigma_sweep" => Box::new(sweep::Sweep::setup(seed)?),
        "imagaxis_spacetime" => Box::new(imagaxis::ImagAxis::setup(seed)?),
        "serve_zipf" => Box::new(serve::Serve::setup(seed, work_dir)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// The Si510 system of the paper-scale roster: diamond-Si 2x2x2
/// supercell with a divacancy at 2.6 Ry, N_b capped at N_v + 76 (200
/// bands, N_G = 123).
fn si510() -> ModelSystem {
    let mut sys = si_divacancy(2, 2.6);
    sys.n_bands = sys.n_valence() + 76;
    sys
}

/// The BN867 system of the roster: a BN sheet with a C substitution next
/// to an N vacancy, 12 bohr of vacuum, 5 Ry.
fn bn867() -> ModelSystem {
    bn_defect_sheet(2, 12.0, 5.0)
}

/// Calls `f` as a timed call into `layer` when tracing, directly otherwise.
fn call<T>(layers: &mut Option<&mut Layers>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    match layers {
        Some(l) => l.time(layer, f),
        None => f(),
    }
}

/// A slice of one operation (the slice of a workload whose operations
/// are long), numbered by the operations `phase` has run.
fn batch_slice(
    phase: &mut Phase,
    layers: Option<&mut Layers>,
    op: impl FnOnce(usize, Option<&mut Layers>) -> Result<(), String>,
) {
    let i = phase.attempted as usize;
    let t = Instant::now();
    let verdict = match layers {
        Some(l) => {
            l.begin();
            let r = op(i, Some(&mut *l));
            l.end();
            r
        }
        None => op(i, None),
    };
    let secs = t.elapsed().as_secs_f64();
    phase.wall += secs;
    phase.record(i, secs, verdict);
}

/// `Err` naming `what` unless `|got - want| <= tol`.
fn check_close(what: &str, got: f64, want: f64, tol: f64) -> Result<(), String> {
    if (got - want).abs() <= tol {
        Ok(())
    } else {
        Err(format!("{what}: {got:e} vs oracle {want:e} (tol {tol:e})"))
    }
}

/// The closed-form count of the GPP diag kernel (paper Eq. 7 with its
/// prefactor resolved per `(G, G')` pair): `N_Sigma N_b N_E` sweeps over
/// `N_G^2` pairs, active pole pairs charged 18 FLOPs, the rest 2.
fn eq7_diag_flops(ctx: &bgw_core::SigmaContext, n_e: usize) -> u64 {
    use bgw_core::sigma::diag::{FLOPS_PER_ACTIVE_PAIR, FLOPS_PER_INACTIVE_PAIR};
    let ng = ctx.n_g() as u64;
    let active = ctx.gpp.pole_strength.iter().filter(|&&s| s > 0.0).count() as u64;
    let per_sweep = active * FLOPS_PER_ACTIVE_PAIR + (ng * ng - active) * FLOPS_PER_INACTIVE_PAIR;
    ctx.n_sigma() as u64 * ctx.n_b() as u64 * n_e as u64 * per_sweep
}
