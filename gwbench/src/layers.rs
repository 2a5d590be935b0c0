//! Timers around the benchmark's own calls into each layer's public
//! functions, with the substrate counter deltas seen across each call.

use crate::record::Metrics;
use bgw_perf::counters::{self, CounterSnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Substrate counter work summed over timed calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    fft_grids: f64,
    fft_lines: f64,
    fft_ns: f64,
    gemm_calls: f64,
    gemm_pack_ns: f64,
    gemm_compute_ns: f64,
    pool_dispatches: f64,
    pool_dispatch_ns: f64,
    pool_region_ns: f64,
    pool_inline_runs: f64,
    ckpt_reads: f64,
    ckpt_writes: f64,
    ckpt_bytes: f64,
}

impl Work {
    /// The work in one counter delta.
    pub fn from_delta(d: &CounterSnapshot) -> Self {
        Self {
            fft_grids: d.fft_grids as f64,
            fft_lines: d.fft_lines as f64,
            fft_ns: d.fft_ns as f64,
            gemm_calls: d.gemm_calls as f64,
            gemm_pack_ns: d.gemm_pack_ns as f64,
            gemm_compute_ns: d.gemm_compute_ns as f64,
            pool_dispatches: d.pool_dispatches as f64,
            pool_dispatch_ns: d.pool_dispatch_ns as f64,
            pool_region_ns: d.pool_region_ns as f64,
            pool_inline_runs: d.pool_inline_runs as f64,
            ckpt_reads: d.ckpt_reads as f64,
            ckpt_writes: d.ckpt_writes as f64,
            ckpt_bytes: d.ckpt_bytes as f64,
        }
    }

    /// Adds `other`.
    pub fn add(&mut self, other: &Work) {
        self.add_scaled(other, 1.0);
    }

    /// Adds `w * other` field by field.
    fn add_scaled(&mut self, other: &Work, w: f64) {
        self.fft_grids += w * other.fft_grids;
        self.fft_lines += w * other.fft_lines;
        self.fft_ns += w * other.fft_ns;
        self.gemm_calls += w * other.gemm_calls;
        self.gemm_pack_ns += w * other.gemm_pack_ns;
        self.gemm_compute_ns += w * other.gemm_compute_ns;
        self.pool_dispatches += w * other.pool_dispatches;
        self.pool_dispatch_ns += w * other.pool_dispatch_ns;
        self.pool_region_ns += w * other.pool_region_ns;
        self.pool_inline_runs += w * other.pool_inline_runs;
        self.ckpt_reads += w * other.ckpt_reads;
        self.ckpt_writes += w * other.ckpt_writes;
        self.ckpt_bytes += w * other.ckpt_bytes;
    }

    /// Sets the FFT, GEMM, pool and checkpoint per-layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set("fft.grids", self.fft_grids);
        m.set("fft.lines", self.fft_lines);
        m.set("fft.busy_s", self.fft_ns * 1e-9);
        m.set("linalg.gemm_calls", self.gemm_calls);
        m.set("linalg.gemm_pack_s", self.gemm_pack_ns * 1e-9);
        m.set("linalg.gemm_compute_s", self.gemm_compute_ns * 1e-9);
        m.set("par.pool_dispatches", self.pool_dispatches);
        m.set(
            "par.dispatch_us_per_region",
            self.pool_dispatch_ns * 1e-3 / self.pool_dispatches.max(1.0),
        );
        m.set("par.region_s", self.pool_region_ns * 1e-9);
        m.set("par.inline_runs", self.pool_inline_runs);
        m.set("io.ckpt_reads", self.ckpt_reads);
        m.set("io.ckpt_writes", self.ckpt_writes);
        m.set("io.ckpt_bytes", self.ckpt_bytes);
    }
}

/// Per-operation layer times and counter work of a traced phase.
#[derive(Default)]
pub struct Layers {
    /// Seconds per layer for the operation in progress.
    current: BTreeMap<&'static str, f64>,
    /// Finished operations: layer seconds, counter work, operation wall.
    ops: Vec<(BTreeMap<&'static str, f64>, Work, f64)>,
    work: Work,
    op_start: Option<Instant>,
}

impl Layers {
    /// Starts timing one operation.
    pub fn begin(&mut self) {
        self.current.clear();
        self.work = Work::default();
        self.op_start = Some(Instant::now());
    }

    /// Times `f` as a call into `layer`, adding the counter delta.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let c0 = counters::snapshot();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.work
            .add(&Work::from_delta(&c0.delta(&counters::snapshot())));
        *self.current.entry(layer).or_default() += secs;
        out
    }

    /// Closes the operation begun last.
    pub fn end(&mut self) {
        let wall = self
            .op_start
            .take()
            .map_or(0.0, |t| t.elapsed().as_secs_f64());
        self.ops
            .push((std::mem::take(&mut self.current), self.work, wall));
    }

    /// Median over operations of one layer's seconds (0 if never timed).
    pub fn median_secs(&self, layer: &str) -> f64 {
        let v: Vec<f64> = self
            .ops
            .iter()
            .map(|(l, _, _)| l.get(layer).copied().unwrap_or(0.0))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    /// Median share of the operation wall spent inside timed calls (0
    /// when no operation was timed).
    pub fn coverage(&self) -> f64 {
        let v: Vec<f64> = self
            .ops
            .iter()
            .map(|(l, _, wall)| l.values().sum::<f64>() / wall.max(1e-12))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    /// Mean counter work per operation.
    pub fn mean_work(&self) -> Work {
        let mut mean = Work::default();
        let w = 1.0 / self.ops.len().max(1) as f64;
        for (_, work, _) in &self.ops {
            mean.add_scaled(work, w);
        }
        mean
    }
}
