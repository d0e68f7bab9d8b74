//! One benchmark run of one workload: set-up, warm-up, timed passes, the
//! correctness verdict, and either the end-to-end metrics (tracing off) or
//! the per-layer table (tracing on).
//!
//! Every host time reported, end-to-end or per-layer, is in reference
//! seconds (see `clock`); only `host.wall.*` and the spans of the trace
//! file are plain wall time.

use crate::clock::{bracket, reference_s};
use crate::json::Json;
use crate::real::{self, RealPass, RealSetup};
use crate::sim::{self, SimPass, SimSetup};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, quartiles};
use crate::trace::{Layer, Probe, Recorder, Untraced, LAYERS};
use crate::{layers, trace_dir};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, more while they are cheap (a
/// 0.2 s set-up timed three times is mostly noise), never past
/// `MAX_SETUPS`. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_SECS: f64 = 2.0;
const WARMUP_PASSES: usize = 2;
const MIN_PASSES: usize = 3;
/// A run never measures longer than this, whatever `--seconds` says.
const MAX_MEASURE_SECS: f64 = 120.0;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// One reported metric: the median over `n` samples with its quartiles.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
    pub problems: Vec<String>,
    pub corpus_digest: String,
    /// The host's clock during the untraced passes and what they read in
    /// plain wall seconds, for whoever has to explain a noisy run.
    pub host_clock: String,
}

impl Outcome {
    /// The record the contract asks for, one line.
    pub fn record(&self, quick: bool) -> Json {
        let metrics = self.rows.iter().map(|r| {
            (
                r.name,
                Json::obj([("value", Json::Num(r.value)), ("unit", r.unit.into())]),
            )
        });
        let mut fields = vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ];
        if quick {
            // Smoke sizes: never comparable with a full run.
            fields.push(("quick", Json::Bool(true)));
        }
        Json::obj(fields)
    }
}

enum Setup {
    Real(Box<RealSetup>),
    Sim(Box<SimSetup>),
}

#[derive(Clone, PartialEq)]
enum Pass {
    Real(RealPass),
    Sim(SimPass),
}

/// The figures both kinds of pass report, in common terms.
struct Common {
    ingest_s: f64,
    restore_s: f64,
    kernel_s: [f64; 3],
    restored_bytes: u64,
    unique_bytes: u64,
    wan_bytes: u64,
    physical_bytes: u64,
    attempted: u64,
    failed: u64,
}

impl Common {
    fn ingest_ref_s(&self) -> f64 {
        reference_s(self.ingest_s, self.kernel_s[0], self.kernel_s[1])
    }

    fn restore_ref_s(&self) -> f64 {
        reference_s(self.restore_s, self.kernel_s[1], self.kernel_s[2])
    }

    /// Layer busy times of this pass in reference seconds: each layer is
    /// called in one stretch only, restore's `DurableGet` or ingest's rest.
    fn busy_ref_s(&self, busy_s: [f64; LAYERS.len()]) -> [f64; LAYERS.len()] {
        let ingest = self.ingest_ref_s() / self.ingest_s;
        let restore = self.restore_ref_s() / self.restore_s;
        LAYERS.map(|layer| {
            let ref_per_wall = if layer == Layer::DurableGet {
                restore
            } else {
                ingest
            };
            busy_s[layer as usize] * ref_per_wall
        })
    }
}

impl Setup {
    fn build(workload: Workload, seed: u64, quick: bool) -> Setup {
        match workload {
            Workload::VersionedBackup => Setup::Real(Box::new(real::setup(true, seed, quick))),
            Workload::FreshImages => Setup::Real(Box::new(real::setup(false, seed, quick))),
            Workload::SimTestbed => Setup::Sim(Box::new(sim::setup(false, seed, quick))),
            Workload::SimChaos => Setup::Sim(Box::new(sim::setup(true, seed, quick))),
        }
    }

    fn pass<P: Probe>(&self, probe: &mut P, n: u64) -> Pass {
        match self {
            Setup::Real(s) => Pass::Real(real::pass(s, probe, n)),
            Setup::Sim(s) => Pass::Sim(sim::pass(s, probe, n)),
        }
    }

    fn logical_bytes(&self) -> u64 {
        match self {
            Setup::Real(s) => s.logical_bytes,
            Setup::Sim(s) => s.logical_bytes,
        }
    }

    fn corpus_digest(&self) -> &str {
        match self {
            Setup::Real(s) => &s.corpus_digest,
            Setup::Sim(s) => &s.corpus_digest,
        }
    }
}

impl Pass {
    fn common(&self) -> Common {
        match self {
            Pass::Real(p) => Common {
                ingest_s: p.ingest_s,
                restore_s: p.restore_s,
                kernel_s: p.kernel_s,
                restored_bytes: p.restored_bytes,
                unique_bytes: p.unique_bytes,
                wan_bytes: p.wan_bytes,
                physical_bytes: p.physical_bytes,
                attempted: p.puts + p.files,
                failed: p.failed_puts + p.failed_restores,
            },
            Pass::Sim(p) => Common {
                ingest_s: p.ingest_s,
                restore_s: p.restore_s,
                kernel_s: p.kernel_s,
                restored_bytes: p.restored_bytes,
                unique_bytes: p.unique_bytes,
                wan_bytes: p.wan_bytes,
                physical_bytes: p.physical_bytes,
                attempted: p.ops,
                failed: p.failed_ops,
            },
        }
    }

    fn wall_ref_s(&self) -> f64 {
        let c = self.common();
        c.ingest_ref_s() + c.restore_ref_s()
    }

    fn violations(&self) -> &[String] {
        match self {
            Pass::Real(p) => &p.violations,
            Pass::Sim(p) => &p.violations,
        }
    }

    /// The pass with its host times zeroed: what must repeat exactly.
    fn exact(&self) -> Pass {
        match self {
            Pass::Real(p) => Pass::Real(p.exact()),
            Pass::Sim(p) => Pass::Sim(p.exact()),
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is not Linux's).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn row(name: &'static str, unit: &'static str, samples: &[f64]) -> Row {
    let (q1, value, q3) = quartiles(samples);
    Row {
        name,
        unit,
        value,
        n: samples.len(),
        q1,
        q3,
    }
}

pub fn run(opts: &Options) -> Outcome {
    let mut problems = Vec::new();

    // Set-up, several times; the last one is kept. Each is dropped before
    // the next is built so peak memory is one set-up's, not two.
    let mut setup_secs = Vec::new();
    let mut setup = None;
    loop {
        drop(setup.take());
        let (wall_s, ref_per_wall) = bracket(|| {
            let start = Instant::now();
            setup = Some(Setup::build(opts.workload, opts.seed, opts.quick));
            start.elapsed().as_secs_f64()
        });
        setup_secs.push(wall_s * ref_per_wall);
        let enough =
            setup_secs.len() >= MIN_SETUPS && setup_secs.iter().sum::<f64>() >= SETUP_BUDGET_SECS;
        if opts.quick || enough || setup_secs.len() == MAX_SETUPS {
            break;
        }
    }
    let setup = setup.expect("at least one set-up");

    let (warmups, min_passes) = if opts.quick {
        (0, 2)
    } else {
        (WARMUP_PASSES, MIN_PASSES)
    };
    for n in 0..warmups {
        setup.pass(&mut Untraced, n as u64);
    }

    // Timed passes. With tracing on, traced and untraced passes alternate
    // so the two walls see the same machine.
    let budget = if opts.quick {
        0.0
    } else {
        opts.seconds.min(MAX_MEASURE_SECS)
    };
    let mut recorder = Recorder::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, [f64; LAYERS.len()])> = Vec::new();
    let clock = Instant::now();
    loop {
        let n = (untraced.len() + traced.len()) as u64;
        untraced.push(setup.pass(&mut Untraced, n));
        if opts.traced {
            let pass = setup.pass(&mut recorder, n + 1);
            let busy = pass.common().busy_ref_s(recorder.take_busy_s());
            traced.push((pass, busy));
        }
        if untraced.len() >= min_passes && clock.elapsed().as_secs_f64() >= budget {
            break;
        }
    }

    // Correctness: every pass sound, and every exact figure identical
    // across all passes of the run (a free replay check).
    let all = || untraced.iter().chain(traced.iter().map(|(p, _)| p));
    let first = untraced[0].exact();
    for (i, pass) in all().enumerate() {
        for v in pass.violations() {
            problems.push(format!("pass {i}: {v}"));
        }
        if pass.exact() != first {
            problems.push(format!("pass {i}: exact figures differ from pass 0"));
        }
    }
    let (attempted, failed) = all().fold((0, 0), |(a, f), p| {
        let c = p.common();
        (a + c.attempted, f + c.failed)
    });
    let expect_no_failures = opts.workload != Workload::SimChaos;
    if expect_no_failures && failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    if let (Setup::Real(s), Pass::Real(p)) = (&setup, &untraced[0]) {
        if let Some(expected) = s.expected_ratio {
            let measured = s.logical_bytes as f64 / p.unique_bytes as f64;
            let err = (measured - expected).abs() / expected;
            if err > ef_datagen::workload::CDC_MODEL_TOLERANCE {
                problems.push(format!(
                    "dedup ratio {measured:.3} is {:.1}% off the closed form {expected:.3}",
                    err * 100.0
                ));
            }
        }
    }

    let rows = if opts.traced {
        let rows = per_layer_rows(&setup, &untraced, &traced);
        if let Err(e) = write_trace(opts, &setup, &recorder, &rows) {
            eprintln!("bench_e2e: trace file not written: {e}");
        }
        rows
    } else {
        end_to_end_rows(&setup, &untraced, &setup_secs)
    };

    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        rows,
        problems,
        corpus_digest: setup.corpus_digest().to_string(),
        host_clock: host_clock(&setup, &untraced)
            .map(|(name, value)| format!("{name}={value}"))
            .join(" "),
    }
}

fn end_to_end_rows(setup: &Setup, passes: &[Pass], setup_secs: &[f64]) -> Vec<Row> {
    let logical = setup.logical_bytes() as f64;
    let commons: Vec<Common> = passes.iter().map(Pass::common).collect();
    let first = &commons[0];
    let (attempted, failed) = commons
        .iter()
        .fold((0, 0), |(a, f), c| (a + c.attempted, f + c.failed));
    let sim_mean_ms = match (setup, &passes[0]) {
        (Setup::Real(s), _) => s.sim_probe_ms,
        (_, Pass::Sim(p)) => p.op_mean_ms,
        _ => unreachable!("a simulated set-up yields simulated passes"),
    };
    let samples = |f: &dyn Fn(&Common) -> f64| commons.iter().map(f).collect::<Vec<f64>>();
    END_TO_END
        .iter()
        .map(|m| {
            let values = match m.name {
                "ingest_mbps" => samples(&|c| logical / 1e6 / c.ingest_ref_s()),
                "restore_mbps" => samples(&|c| c.restored_bytes as f64 / 1e6 / c.restore_ref_s()),
                "sim_op_mean_ms" => vec![sim_mean_ms],
                "dedup_ratio" => vec![logical / first.unique_bytes as f64],
                "wan_bytes_per_input_byte" => vec![first.wan_bytes as f64 / logical],
                "stored_bytes_per_input_byte" => vec![first.physical_bytes as f64 / logical],
                "ok_ops_frac" => vec![1.0 - failed as f64 / attempted as f64],
                "peak_rss_mb" => vec![peak_rss_mb()],
                "setup_s" => setup_secs.to_vec(),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            row(m.name, m.unit, &values)
        })
        .collect()
}

/// The host's clock during the untraced passes, and what they read in
/// plain wall seconds (the end-to-end figures are in reference seconds).
fn host_clock(setup: &Setup, untraced: &[Pass]) -> [(&'static str, f64); 4] {
    let commons: Vec<Common> = untraced.iter().map(Pass::common).collect();
    let readings: Vec<f64> = commons.iter().flat_map(|c| c.kernel_s).collect();
    let lowest = readings.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = readings.iter().copied().fold(0.0, f64::max);
    let logical_mb = setup.logical_bytes() as f64 / 1e6;
    [
        ("host.clock.kernel_us", median(&readings) * 1e6),
        (
            "host.clock.range_pct",
            (highest - lowest) / median(&readings) * 100.0,
        ),
        (
            "host.wall.ingest_mbps",
            logical_mb / med(&commons, |c| c.ingest_s),
        ),
        (
            "host.wall.restore_mbps",
            med(&commons, |c| c.restored_bytes as f64 / 1e6 / c.restore_s),
        ),
    ]
}

/// Median over the traced passes of `f`.
fn med<T>(passes: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<f64>>())
}

fn per_layer_rows(
    setup: &Setup,
    untraced: &[Pass],
    traced: &[(Pass, [f64; LAYERS.len()])],
) -> Vec<Row> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let busy = |layer: Layer| med(traced, |(_, b)| b[layer as usize]);
    let logical_mb = setup.logical_bytes() as f64 / 1e6;

    match setup {
        Setup::Real(s) => {
            let p = match &traced[0].0 {
                Pass::Real(p) => p,
                Pass::Sim(_) => unreachable!("a real-byte set-up yields real-byte passes"),
            };
            let unique_mb = p.unique_bytes as f64 / 1e6;
            let restored_mb = p.restored_bytes as f64 / 1e6;
            let ops = p.index_ops as f64;

            v.insert("chunking.cdc.busy_s", busy(Layer::Cdc));
            v.insert("chunking.cdc.mbps", logical_mb / busy(Layer::Cdc));
            v.insert("chunking.cdc.chunks", p.chunks as f64);
            v.insert(
                "chunking.cdc.mean_chunk_bytes",
                logical_mb * 1e6 / p.chunks as f64,
            );
            let mut sizes: Vec<f64> = s.chunk_lens.iter().map(|&l| f64::from(l)).collect();
            sizes.sort_by(f64::total_cmp);
            v.insert("chunking.cdc.chunk_bytes_p99", percentile(&sizes, 99.0));
            v.insert("chunking.sha256.busy_s", busy(Layer::Sha256));
            v.insert("chunking.sha256.mbps", logical_mb / busy(Layer::Sha256));

            v.insert("kvstore.cache.busy_s", busy(Layer::Cache));
            v.insert("kvstore.cache.lookups", p.cache_lookups as f64);
            v.insert("kvstore.cache.hits", p.cache_hits as f64);
            v.insert(
                "kvstore.cache.hit_rate",
                p.cache_hits as f64 / p.cache_lookups as f64,
            );
            v.insert("kvstore.cache.evictions", p.cache_evictions as f64);
            v.insert("kvstore.cache.deferred", p.cache_deferred as f64);
            // Lookups plus the insert that follows every miss.
            let cache_calls = (p.cache_lookups + p.index_ops) as f64;
            v.insert(
                "kvstore.cache.ns_per_lookup",
                busy(Layer::Cache) * 1e9 / cache_calls,
            );

            let keys = p.index_live_keys as f64;
            v.insert("kvstore.index.busy_s", busy(Layer::Index));
            v.insert("kvstore.index.ops", ops);
            v.insert("kvstore.index.ns_per_op", busy(Layer::Index) * 1e9 / ops);
            v.insert("kvstore.index.unique_frac", p.unique_verdicts as f64 / ops);
            v.insert("kvstore.index.msgs_per_op", p.index_msgs as f64 / ops);
            v.insert(
                "kvstore.index.wal_bytes_per_key",
                p.index_wal_bytes as f64 / keys,
            );
            v.insert("kvstore.index.wal_snapshots", p.index_wal_snapshots as f64);
            v.insert("kvstore.index.segments", p.index_segments as f64);
            v.insert(
                "kvstore.index.bytes_per_key",
                p.index_live_bytes as f64 / keys,
            );
            let ((put_ns, contains_ns, append_ns), ref_per_wall) =
                bracket(|| layers::storage_and_wal(&s.keys));
            let [put_ns, contains_ns, append_ns] =
                [put_ns, contains_ns, append_ns].map(|ns| ns * ref_per_wall);
            v.insert("kvstore.storage.ns_per_put", put_ns);
            v.insert("kvstore.storage.ns_per_contains", contains_ns);
            v.insert("kvstore.wal.ns_per_append", append_ns);
            // Every op reads one replica; every first sighting is put and
            // logged on each replica that holds it (`index_live_keys`
            // counts those). What is left is the coordinator protocol.
            let replayed_s = (ops * contains_ns + keys * (put_ns + append_ns)) / 1e9;
            v.insert(
                "kvstore.index.protocol_s_est",
                busy(Layer::Index) - replayed_s,
            );

            v.insert("kvstore.spool.busy_s", busy(Layer::Spool));
            v.insert("kvstore.spool.entries", p.spool_entries as f64);
            v.insert("kvstore.spool.mbps", unique_mb / busy(Layer::Spool));
            v.insert(
                "kvstore.spool.wal_bytes_peak",
                p.spool_wal_bytes_peak as f64,
            );
            v.insert("kvstore.spool.high_water", p.spool_high_water as f64);

            v.insert("cloudstore.durable.put_busy_s", busy(Layer::DurablePut));
            v.insert(
                "cloudstore.durable.put_mbps",
                unique_mb / busy(Layer::DurablePut),
            );
            v.insert("cloudstore.durable.get_busy_s", busy(Layer::DurableGet));
            v.insert(
                "cloudstore.durable.get_mbps",
                restored_mb / busy(Layer::DurableGet),
            );
            v.insert(
                "cloudstore.durable.physical_per_logical",
                p.physical_bytes as f64 / p.unique_bytes as f64,
            );
            let ((encode, reconstruct), ref_per_wall) =
                bracket(|| layers::erasure(&s.files, &s.gear, 16 << 20));
            v.insert("erasure.rs.encode_mbps", encode / ref_per_wall);
            v.insert("erasure.rs.reconstruct_mbps", reconstruct / ref_per_wall);

            let layout = real::restore_layout(s);
            v.insert("cloudstore.restore.containers", layout.containers as f64);
            v.insert(
                "cloudstore.restore.fragmentation_mean",
                layout.stats.fragmentation_mean,
            );
            v.insert("cloudstore.restore.locality", layout.stats.locality);
            if let Some(expected) = s.expected_ratio {
                let measured = s.logical_bytes as f64 / p.unique_bytes as f64;
                let err = (measured - expected).abs() / expected * 100.0;
                v.insert("datagen.model.dedup_model_err_pct", err);
            }
        }
        Setup::Sim(s) => {
            let p = match &traced[0].0 {
                Pass::Sim(p) => p,
                Pass::Real(_) => unreachable!("a simulated set-up yields simulated passes"),
            };
            let ops = p.ops as f64;
            let sim_s = busy(Layer::Sim);
            v.insert("kvstore.sim.host_us_per_op", sim_s * 1e6 / ops);
            v.insert(
                "kvstore.sim.host_ns_per_msg",
                sim_s * 1e9 / p.messages as f64,
            );
            v.insert("kvstore.sim.msgs_per_op", p.messages as f64 / ops);
            v.insert("kvstore.sim.wire_bytes_per_op", p.wire_bytes as f64 / ops);
            v.insert("kvstore.sim.op_p50_ms", p.op_p50_ms);
            v.insert("kvstore.sim.op_p99_ms", p.op_p99_ms);
            v.insert("kvstore.sim.dup_p50_ms", p.dup_p50_ms);
            v.insert("kvstore.sim.unique_p50_ms", p.unique_p50_ms);
            v.insert("kvstore.sim.cache_hit_rate", p.cache_hit_rate);
            v.insert("kvstore.sim.timeouts", p.timeouts as f64);
            v.insert("kvstore.sim.retries", p.retries as f64);
            v.insert("kvstore.sim.degraded_frac", p.degraded as f64 / ops);
            v.insert("kvstore.sim.hedges_fired", p.hedges_fired as f64);
            v.insert("kvstore.sim.pop_challenges", p.pop_challenges as f64);
            v.insert("kvstore.sim.spool_enqueued", p.spool_enqueued as f64);
            v.insert("kvstore.sim.spool_drained", p.spool_drained as f64);
            v.insert("kvstore.sim.ae_repairs", p.ae_repairs as f64);

            let unique_mb = p.unique_bytes as f64 / 1e6;
            v.insert("cloudstore.durable.put_busy_s", busy(Layer::DurablePut));
            v.insert(
                "cloudstore.durable.put_mbps",
                unique_mb / busy(Layer::DurablePut),
            );
            v.insert("cloudstore.durable.get_busy_s", busy(Layer::DurableGet));
            v.insert(
                "cloudstore.durable.get_mbps",
                p.restored_bytes as f64 / 1e6 / busy(Layer::DurableGet),
            );
            v.insert(
                "cloudstore.durable.physical_per_logical",
                p.physical_bytes as f64 / p.unique_bytes as f64,
            );

            let (events_per_s, ref_per_wall) = bracket(|| layers::event_queue(2_000_000));
            v.insert("simcore.queue.events_per_s", events_per_s / ref_per_wall);
            let (transfer_ns, ref_per_wall) =
                bracket(|| layers::network_transfer(s.topology(), 1_000_000));
            v.insert("netsim.network.ns_per_transfer", transfer_ns * ref_per_wall);
            if !s.is_chaos() {
                let ((model_ms, wall_s), ref_per_wall) = bracket(|| sim::analytic_model(s));
                v.insert("core.run_system.wall_s", wall_s * ref_per_wall);
                v.insert(
                    "core.run_system.model_lookup_err_pct",
                    (model_ms - p.op_mean_ms).abs() / p.op_mean_ms * 100.0,
                );
            }
        }
    }

    for (name, value) in host_clock(setup, untraced) {
        v.insert(name, value);
    }

    // The budget: layer busy times against the traced wall, and the traced
    // wall against the untraced one.
    let traced_wall = med(traced, |(p, _)| p.wall_ref_s());
    let untraced_wall = med(untraced, Pass::wall_ref_s);
    let attributed = med(traced, |(_, b)| b.iter().sum());
    v.insert("trace.passes", traced.len() as f64);
    v.insert("trace.wall_s", traced_wall);
    v.insert(
        "trace.coverage",
        med(traced, |(p, b)| b.iter().sum::<f64>() / p.wall_ref_s()),
    );
    v.insert("trace.unattributed_s", traced_wall - attributed);
    v.insert(
        "trace.overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );

    PER_LAYER
        .iter()
        .map(|m| {
            // A layer that does not run on this workload did no work: 0.
            let value = v.get(m.name).copied().unwrap_or(0.0);
            Row {
                name: m.name,
                unit: m.unit,
                value,
                n: traced.len(),
                q1: value,
                q3: value,
            }
        })
        .collect()
}

/// Writes the spans and the per-layer table of a traced run to
/// `<target dir>/bench_e2e/trace-<workload>.jsonl`.
fn write_trace(
    opts: &Options,
    setup: &Setup,
    recorder: &Recorder,
    rows: &[Row],
) -> std::io::Result<()> {
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", opts.workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let header = Json::obj([
        ("trace", Json::from(opts.workload.name())),
        ("seed", Json::from(opts.seed)),
        ("quick", Json::Bool(opts.quick)),
        ("corpus_digest", Json::from(setup.corpus_digest())),
        ("spans", Json::from(recorder.spans().len() as u64)),
        (
            "clock",
            Json::from("host ns since the recorder was created"),
        ),
    ]);
    writeln!(out, "{header}")?;
    for line in recorder.span_lines() {
        writeln!(out, "{line}")?;
    }
    for (r, m) in rows.iter().zip(&PER_LAYER) {
        let line = Json::obj([
            ("metric", Json::from(r.name)),
            ("value", Json::Num(r.value)),
            ("unit", Json::from(r.unit)),
            ("moves", Json::from(m.moves)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    eprintln!("bench_e2e: wrote {}", path.display());
    Ok(())
}
