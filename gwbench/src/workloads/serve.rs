//! `serve_zipf`: a seeded zipf request stream through the resident GW
//! server, closed loop from one client with a fixed window of
//! outstanding tickets.

use super::{Phase, Workload};
use crate::layers::{Layers, Work};
use crate::record::Metrics;
use crate::stats::median;
use bgw_core::workflow::run_gpp_gw;
use bgw_core::{
    ff_sigma_diag, ChiConfig, ChiEngine, Coulomb, EpsilonInverse, GppModel, Mtxel, SigmaContext,
};
use bgw_num::grid::semi_infinite_quadrature;
use bgw_num::Complex64;
use bgw_perf::counters::{self, CounterSnapshot};
use bgw_pwdft::{charge_density_g, solve_bands};
use bgw_serve::{
    zipf_stream, GwRequest, Payload, RequestKind, ServeConfig, Server, StructureSpec, Ticket,
    TrafficConfig,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Requests generated per seed; a measurement that outruns them starts
/// over.
const STREAM_LEN: usize = 20_000;
/// Seconds of requests per slice.
const SLICE_S: f64 = 0.5;
/// Outstanding tickets kept by the client.
const WINDOW: usize = 4;
/// In-memory screening cache, below the catalog's screening footprint so
/// that warm requests split between memory hits and store restores.
const MEM_BUDGET_BYTES: u64 = 100_000;
/// Requests per measurement at least, so that ten or more lie beyond p95.
const MIN_REQUESTS: u64 = 220;
/// Served result vs one-shot oracle.
const PARITY_TOL: f64 = 1e-12;

enum Oracle {
    Gpp(Vec<f64>),
    Ff(Vec<Vec<Complex64>>),
}

/// What the traced slices saw.
#[derive(Default)]
struct Traced {
    queue_s: Vec<f64>,
    compute_s: Vec<f64>,
    work: Work,
    hits_mem: u64,
    hits_disk: u64,
    misses: u64,
    coalesced: u64,
    mem_evicted: u64,
}

impl Traced {
    fn add(&mut self, d: &CounterSnapshot) {
        self.work.add(&Work::from_delta(d));
        self.hits_mem += d.serve_hits_mem;
        self.hits_disk += d.serve_hits_disk;
        self.misses += d.serve_misses;
        self.coalesced += d.serve_coalesced;
        self.mem_evicted += d.serve_mem_evicted;
    }
}

/// One measurement's server and its place in the stream.
struct Lane {
    server: Server,
    next: usize,
}

pub struct Serve {
    stream: Vec<GwRequest>,
    oracles: HashMap<(StructureSpec, RequestKind), Oracle>,
    store_root: PathBuf,
    lanes: Vec<Option<Lane>>,
    traced: Traced,
}

impl Serve {
    /// Generates the stream and computes every distinct request's
    /// one-shot oracle.
    pub fn setup(seed: u64, work_dir: &Path) -> Result<Self, String> {
        let stream = zipf_stream(&TrafficConfig::small(seed, STREAM_LEN));
        let mut oracles = HashMap::new();
        for req in &stream {
            if let Entry::Vacant(slot) = oracles.entry((req.structure, req.kind)) {
                slot.insert(oracle_for(req)?);
            }
        }
        Ok(Self {
            stream,
            oracles,
            store_root: work_dir.join("serve-store"),
            lanes: Vec::new(),
            traced: Traced::default(),
        })
    }
}

impl Workload for Serve {
    /// Each measurement has its own one-shard server on a store that
    /// starts empty, and keeps it across its slices. A slice keeps
    /// `WINDOW` tickets outstanding for `SLICE_S` seconds, then drains.
    fn slice(&mut self, slot: usize, phase: &mut Phase, layers: Option<&mut Layers>) {
        if self.lanes.len() <= slot {
            self.lanes.resize_with(slot + 1, || None);
        }
        let lane = self.lanes[slot].get_or_insert_with(|| {
            let dir = self.store_root.join(slot.to_string());
            let _ = std::fs::remove_dir_all(&dir);
            let mut sc = ServeConfig::new(dir);
            sc.mem_budget_bytes = MEM_BUDGET_BYTES;
            sc.queue_capacity = 2 * WINDOW;
            sc.n_shards = 1;
            Lane {
                server: Server::start(sc),
                next: 0,
            }
        });
        let traced = layers.is_some();
        let c0 = counters::snapshot();
        let t0 = Instant::now();
        let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
        loop {
            while t0.elapsed().as_secs_f64() < SLICE_S && inflight.len() < WINDOW {
                let i = lane.next;
                let req = self.stream[i % self.stream.len()];
                inflight.push_back((i, Instant::now(), lane.server.submit(req)));
                lane.next += 1;
            }
            let Some((i, sent, ticket)) = inflight.pop_front() else {
                break;
            };
            let reply = ticket.wait();
            let latency = sent.elapsed().as_secs_f64();
            let req = &self.stream[i % self.stream.len()];
            let verdict = match reply {
                Ok(ok) => {
                    if traced {
                        self.traced.queue_s.push(ok.telemetry.queue_seconds);
                        self.traced.compute_s.push(ok.telemetry.compute_seconds);
                    }
                    check(&self.oracles, req, &ok.payload)
                }
                Err(e) => Err(format!("request rejected: {e}")),
            };
            phase.record(i, latency, verdict);
        }
        phase.wall += t0.elapsed().as_secs_f64();
        if traced {
            self.traced.add(&c0.delta(&counters::snapshot()));
        }
    }

    fn min_ops(&self) -> u64 {
        MIN_REQUESTS
    }

    fn report_layers(&self, _: &Layers, m: &mut Metrics) {
        let t = &self.traced;
        let batches = (t.hits_mem + t.hits_disk + t.misses).max(1) as f64;
        t.work.report(m);
        m.set("serve.queue_wait_p50_s", median(&t.queue_s));
        m.set("serve.compute_p50_s", median(&t.compute_s));
        m.set("serve.mem_hit_ratio", t.hits_mem as f64 / batches);
        m.set("serve.disk_hit_ratio", t.hits_disk as f64 / batches);
        m.set("serve.misses", t.misses as f64);
        m.set("serve.coalesced", t.coalesced as f64);
        m.set("serve.mem_evicted", t.mem_evicted as f64);
    }
}

impl Drop for Serve {
    /// Stops the servers (dropping one drains and joins its dispatcher),
    /// then deletes their stores.
    fn drop(&mut self) {
        self.lanes.clear();
        let _ = std::fs::remove_dir_all(&self.store_root);
    }
}

/// Checks that every value of a served result is within `PARITY_TOL` of
/// its oracle (a NaN anywhere fails).
fn check(
    oracles: &HashMap<(StructureSpec, RequestKind), Oracle>,
    req: &GwRequest,
    payload: &Payload,
) -> Result<(), String> {
    let err = match (payload, &oracles[&(req.structure, req.kind)]) {
        (Payload::Gpp(p), Oracle::Gpp(e_qp)) if p.e_qp.len() == e_qp.len() => p
            .e_qp
            .iter()
            .zip(e_qp)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, max_or_nan),
        (Payload::FullFreq(p), Oracle::Ff(sigma)) if p.sigma.len() == sigma.len() => p
            .sigma
            .iter()
            .flatten()
            .zip(sigma.iter().flatten())
            .map(|(a, b)| (a.re - b.re).abs().max((a.im - b.im).abs()))
            .fold(0.0, max_or_nan),
        _ => f64::INFINITY,
    };
    if err <= PARITY_TOL {
        Ok(())
    } else {
        Err(format!("served result differs from its oracle by {err:e}"))
    }
}

/// `f64::max` that keeps a NaN instead of dropping it.
fn max_or_nan(m: f64, d: f64) -> f64 {
    if d > m || d.is_nan() {
        d
    } else {
        m
    }
}

/// One-shot oracle of a request: `run_gpp_gw` for GPP, the direct
/// full-frequency pipeline for FF.
fn oracle_for(req: &GwRequest) -> Result<Oracle, String> {
    let sys = req.structure.system();
    let cfg = req.gw_config();
    let RequestKind::FullFreq { n_quad, .. } = req.kind else {
        let r = run_gpp_gw(&sys, &cfg);
        return Ok(Oracle::Gpp(r.states.iter().map(|s| s.e_qp).collect()));
    };
    let wfn_sph = sys.wfn_sphere();
    let eps_sph = sys.eps_sphere();
    let wf = solve_bands(&sys.crystal, &wfn_sph, sys.n_bands.min(wfn_sph.len()));
    let volume = sys.crystal.lattice.volume();
    let coulomb = Coulomb::bulk_for_cell(volume);
    let mtxel = Mtxel::new(&wfn_sph, &eps_sph);
    let engine = ChiEngine::new(
        &wf,
        &mtxel,
        ChiConfig {
            q0: coulomb.q0,
            ..cfg.chi
        },
    );
    let chi0 = engine.chi_static();
    let eps_inv = EpsilonInverse::build(&[chi0], &[0.0], &coulomb, &eps_sph)
        .map_err(|e| format!("oracle static epsilon: {e}"))?;
    let (nodes, weights) = semi_infinite_quadrature(n_quad, 2.0);
    let (chis, _) = engine.chi_freqs(&nodes);
    let eps_ff = EpsilonInverse::build(&chis, &nodes, &coulomb, &eps_sph)
        .map_err(|e| format!("oracle FF epsilon: {e}"))?;
    let rho = charge_density_g(&wf, &wfn_sph);
    let gpp = GppModel::new(&eps_inv, &eps_sph, &wfn_sph, &rho, volume);
    let vsqrt = coulomb.sqrt_on_sphere(&eps_sph);
    let bands = req.bands(wf.n_valence, wf.n_bands());
    let ctx = SigmaContext::build(&wf, &mtxel, gpp, &vsqrt, &bands, coulomb.q0);
    let d = req.delta_ry();
    let grids: Vec<Vec<f64>> = ctx
        .sigma_energies
        .iter()
        .map(|&e| vec![e - d, e, e + d])
        .collect();
    Ok(Oracle::Ff(
        ff_sigma_diag(&ctx, &eps_ff, &weights, &grids, req.eta_ry()).sigma,
    ))
}

#[cfg(test)]
mod tests {
    use super::max_or_nan;

    #[test]
    fn parity_fold_keeps_nan() {
        assert!([0.1, f64::NAN, 0.2]
            .into_iter()
            .fold(0.0, max_or_nan)
            .is_nan());
        assert_eq!([0.1, 0.3, 0.2].into_iter().fold(0.0, max_or_nan), 0.3);
    }
}
