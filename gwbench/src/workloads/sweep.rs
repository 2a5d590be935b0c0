//! `sigma_sweep`: diagonal and off-diagonal GPP Sigma over energy grids
//! against a screening held fixed, as in the paper's Sigma scaling runs.

use super::{batch_slice, call, check_close, eq7_diag_flops, si510, Phase, Workload};
use crate::layers::Layers;
use crate::record::Metrics;
use bgw_core::service::{build_screening, sigma_context, Screening};
use bgw_core::sigma::offdiag::offdiag_flops_eq8;
use bgw_core::workflow::GwConfig;
use bgw_core::{gpp_sigma_diag, gpp_sigma_offdiag, KernelVariant};
use bgw_linalg::GemmBackend;
use bgw_num::grid::UniformGrid;
use bgw_num::Xoshiro256StarStar;

/// Sigma bands per operation.
const N_SIGMA: usize = 8;
/// Energies per grid.
const N_E: usize = 21;
/// Distinct operation inputs; operation `i` uses input `i % N_INPUTS`.
const N_INPUTS: usize = 2;
/// Positions in the band window checked against the reference kernel
/// (rows are independent, so a subset checks the kernel).
const CHECKED: [usize; 2] = [0, N_SIGMA - 1];
/// Optimized vs reference diag kernel, relative to `1 + |Sigma|` (the
/// kernel's own parity-test tolerance).
const DIAG_TOL: f64 = 1e-9;
/// Off-diag diagonal vs diag kernel, relative to `1 + |Sigma|`.
const OFFDIAG_TOL: f64 = 1e-8;

struct Input {
    bands: Vec<usize>,
    grid: UniformGrid,
    /// The reference kernel's rows at the `CHECKED` positions.
    oracle: Vec<Vec<f64>>,
}

pub struct Sweep {
    screening: Screening,
    inputs: Vec<Input>,
    diag_flops: u64,
    offdiag_flops: u64,
}

impl Sweep {
    /// The screening is built once here; the seed picks each input's band
    /// window and energy range.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let screening = build_screening(&si510(), &GwConfig::default(), None)
            .map_err(|e| format!("screening: {e}"))?;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x7377_6565);
        let nv = screening.wf.n_valence;
        let energies = &screening.wf.energies;
        let inputs = (0..N_INPUTS)
            .map(|_| {
                let lo = nv - 6 + (rng.next_u64() % 5) as usize;
                let bands: Vec<usize> = (lo..lo + N_SIGMA).collect();
                let pad = 0.1 + 0.2 * rng.next_f64();
                let grid = UniformGrid::new(
                    energies[bands[0]] - pad,
                    energies[bands[N_SIGMA - 1]] + pad,
                    N_E,
                );
                let checked: Vec<usize> = CHECKED.iter().map(|&p| bands[p]).collect();
                let ctx = sigma_context(&screening, &checked);
                let grids = vec![grid.points.clone(); checked.len()];
                let oracle = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference).sigma;
                Input {
                    bands,
                    grid,
                    oracle,
                }
            })
            .collect();
        Ok(Self {
            screening,
            inputs,
            diag_flops: 0,
            offdiag_flops: 0,
        })
    }

    fn op(&mut self, i: usize, mut layers: Option<&mut Layers>) -> Result<(), String> {
        let l = &mut layers;
        let inp = &self.inputs[i % N_INPUTS];
        let ctx = call(l, "mtxel.sigma_context_s", || {
            sigma_context(&self.screening, &inp.bands)
        });
        let grids = vec![inp.grid.points.clone(); N_SIGMA];
        let diag = call(l, "sigma.diag_s", || {
            gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized)
        });
        let off = call(l, "sigma.offdiag_s", || {
            gpp_sigma_offdiag(&ctx, &inp.grid, GemmBackend::Parallel)
        });

        let eq7 = eq7_diag_flops(&ctx, N_E);
        if diag.flops != eq7 {
            return Err(format!(
                "sigma.diag counted {} FLOPs, Eq. 7 gives {eq7}",
                diag.flops
            ));
        }
        let eq8 = offdiag_flops_eq8(ctx.n_b(), N_E, N_SIGMA, ctx.n_g());
        if 2 * off.zgemm_flops != eq8 {
            return Err(format!(
                "sigma.offdiag counted {} ZGEMM FLOPs, Eq. 8 gives {eq8}/2",
                off.zgemm_flops
            ));
        }
        for (row, &pos) in inp.oracle.iter().zip(&CHECKED) {
            for (e, &want) in row.iter().enumerate() {
                let got = diag.sigma[pos][e];
                check_close(
                    "Sigma diag vs reference",
                    got,
                    want,
                    DIAG_TOL * (1.0 + want.abs()),
                )?;
            }
        }
        for (e, m) in off.sigma.iter().enumerate() {
            for s in 0..N_SIGMA {
                let want = diag.sigma[s][e];
                let got = m[(s, s)].re;
                check_close(
                    "Sigma offdiag diagonal vs diag",
                    got,
                    want,
                    OFFDIAG_TOL * (1.0 + want.abs()),
                )?;
            }
        }
        self.diag_flops = diag.flops;
        self.offdiag_flops = off.zgemm_flops;
        Ok(())
    }
}

impl Workload for Sweep {
    fn slice(&mut self, _: usize, phase: &mut Phase, layers: Option<&mut Layers>) {
        batch_slice(phase, layers, |i, l| self.op(i, l))
    }

    fn report_layers(&self, layers: &Layers, m: &mut Metrics) {
        let diag = self.diag_flops as f64;
        m.set("sigma.diag_flops", diag);
        m.set(
            "sigma.diag_gflops",
            diag / layers.median_secs("sigma.diag_s").max(1e-12) / 1e9,
        );
        m.set(
            "sigma.offdiag_gflops",
            self.offdiag_flops as f64 / layers.median_secs("sigma.offdiag_s").max(1e-12) / 1e9,
        );
    }
}
