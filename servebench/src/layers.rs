//! The traced run: per-layer metrics.
//!
//! After set-up the end-to-end loop runs traced, and the run reads the
//! public counters (`ControlStats`, `ShardStats`, `EnclaveStats`,
//! `EpcStats`) around that stretch. It then goes on with rounds that are
//! traced and untraced in turn, for the tracing overhead. Then the same seeded
//! requests are replayed on a single-threaded `TwineService` and on the
//! raw engines (`Instance::invoke`, a direct `Connection` over
//! `BackendVfs`) with the PFS profiler attached, each inside spans, and
//! `Enclave::seal`/`unseal` and module compilation are timed on the sizes
//! and modules the workload uses.

use std::sync::Arc;
use std::time::Instant;

use twine_core::{ControlStats, TwineBuilder};
use twine_pfs::PfsCategory;
use twine_sgx::{EnclaveStats, EpcStats};
use twine_wasm::compile::CompiledModule;
use twine_wasm::ExecTier;

use crate::record::Recorder;
use crate::target::{Fs, Raw, Service, Sharded, SqlObs, Target};
use crate::trace::{self, Span};
use crate::util::{mean, median};
use crate::{deploy, fig, run_phase, Figs, Inputs, Kind, SHARDS};

/// Per-layer metrics in the order `--trace 1` prints them, with units.
pub const DECLARED: [(&str, &str); 38] = [
    ("sharded.handoff_us", "us"),
    ("sharded.round_trips_per_op", "count"),
    ("service.invoke_us", "us"),
    ("service.self_us", "us"),
    ("control.parks_per_kop", "count"),
    ("control.restores_per_kop", "count"),
    ("control.sealed_bytes_per_park", "B"),
    ("control.unsealed_bytes_per_restore", "B"),
    ("pool.hit_ratio", "ratio"),
    ("pool.dirty_pages_per_restore", "count"),
    ("dbsession.plan_hit_ratio", "ratio"),
    ("sgx.ecalls_per_op", "count"),
    ("sgx.ocalls_per_op", "count"),
    ("sgx.boundary_bytes_per_op", "B"),
    ("sgx.epc_faults_per_op", "count"),
    ("sgx.seal_us_per_kib", "us/KiB"),
    ("sgx.unseal_us_per_kib", "us/KiB"),
    ("wasm.minstr_per_op", "Minstr"),
    ("wasm.compile_ms", "ms"),
    ("wasm.invoke_us", "us"),
    ("wasm.ns_per_minstr", "ns/Minstr"),
    ("wasi.calls_per_op", "count"),
    ("wasi.io_us", "us"),
    ("pfs.crypto_cycles_per_op", "cycles"),
    ("pfs.ocall_cycles_per_op", "cycles"),
    ("pfs.memset_cycles_per_op", "cycles"),
    ("pfs.readops_cycles_per_op", "cycles"),
    ("pfs.other_cycles_per_op", "cycles"),
    ("sqldb.prepare_us", "us"),
    ("sqldb.exec_us", "us"),
    ("sqldb.commit_us", "us"),
    ("sqldb.pager_hit_ratio", "ratio"),
    ("sqldb.page_writes_per_txn", "count"),
    ("sqldb.journal_writes_per_txn", "count"),
    ("sqldb.syncs_per_txn", "count"),
    ("sqldb.page_reads_per_restore", "count"),
    ("trace.closure", "ratio"),
    ("trace.overhead", "ratio"),
];

pub struct Layers {
    pub metrics: Figs,
    pub extra: Figs,
    pub rec: Recorder,
    pub detail: String,
    pub spans: Vec<Span>,
}

/// Public counters of the end-to-end service at one instant.
struct Snapshot {
    control: ControlStats,
    busy_ns: u64,
    enclave: EnclaveStats,
    epc: EpcStats,
}

fn snapshot(t: &Sharded) -> Snapshot {
    Snapshot {
        control: t.svc.control_stats(),
        busy_ns: t.svc.shard_stats().iter().map(|s| s.busy_ns).sum(),
        enclave: t.svc.enclave().stats(),
        epc: t.svc.enclave().epc().stats(),
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Set a fresh copy of the workload up on `t`.
fn replay_setup(
    inputs: &Inputs,
    t: &mut dyn Target,
    rec: &mut Recorder,
) -> Box<dyn crate::Workload> {
    let mut w = inputs.workload(t);
    let mut setup = Recorder::default();
    w.setup(t, &mut setup);
    rec.absorb(setup);
    w
}

/// Replay the workload's rounds on `t` for `secs`, traced.
fn replay_run(
    w: &mut dyn crate::Workload,
    t: &mut dyn Target,
    secs: f64,
) -> (crate::Phase, Vec<Span>) {
    trace::start();
    let phase = run_phase(w, t, secs);
    (phase, trace::stop())
}

/// The workload's final checks on `t`.
fn replay_finish(mut w: Box<dyn crate::Workload>, t: &mut dyn Target, rec: &mut Recorder) {
    let mut finish = Recorder::default();
    w.finish(t, &mut finish);
    rec.absorb(finish);
}

/// Round times with tracing off and on, in turn round by round on one
/// deployment: `off[i]` is the round just before `on[i]`, so that host
/// phases and the deployment's drifting state fall on both alike.
fn alternate(
    w: &mut dyn crate::Workload,
    t: &mut dyn Target,
    secs: f64,
) -> (Vec<f64>, Vec<f64>, Recorder) {
    let mut rec = Recorder::default();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    // At least five pairs, for polybench's rounds of most of a second.
    while t0.elapsed().as_secs_f64() < secs || on.len() < 5 {
        let traced = off.len() > on.len();
        if traced {
            trace::start();
        }
        let r0 = Instant::now();
        w.round(t, &mut rec);
        let s = r0.elapsed().as_secs_f64();
        if traced {
            drop(trace::stop());
            on.push(s);
        } else {
            off.push(s);
        }
    }
    (off, on, rec)
}

/// The share of the `client` spans that their child spans cover.
fn closure(spans: &[Span]) -> f64 {
    trace::totals(spans)
        .get("client")
        .filter(|c| c.total_ns > 0)
        .map_or(0.0, |c| 1.0 - c.self_ns as f64 / c.total_ns as f64)
}

/// Median seconds per call of `f` over at least 20 calls and 20 ms.
fn time_calls(mut f: impl FnMut()) -> f64 {
    let mut v = Vec::new();
    let t0 = Instant::now();
    while v.len() < 20 || t0.elapsed().as_secs_f64() < 0.02 {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64());
    }
    median(&v)
}

fn span_durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

fn totals_json(spans: &[Span]) -> String {
    let items: Vec<String> = trace::totals(spans)
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\": {{\"n\": {}, \"total_us\": {:.1}, \"self_us\": {:.1}}}",
                t.count,
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

pub fn measure(inputs: &Inputs, secs: f64) -> Layers {
    let mut d = deploy(inputs, 1);
    let mut rec = Recorder::default();
    rec.absorb(std::mem::take(&mut d.steps));

    let s0 = snapshot(&d.target);
    let calls0 = d.target.calls;
    trace::start();
    let traced = run_phase(d.workload.as_mut(), &mut d.target, secs * 0.3);
    let mut spans = trace::stop();
    let s1 = snapshot(&d.target);
    let calls = d.target.calls - calls0;
    let (off, on, alternated) = alternate(d.workload.as_mut(), &mut d.target, secs * 0.3);
    let mut finish = Recorder::default();
    d.workload.finish(&mut d.target, &mut finish);
    let ops = traced.ops();
    let minstr = traced.rec.minstr;
    let wasi_calls = traced.rec.wasi_calls;
    let client_us = mean(&traced.rec.all_lat_us());

    // Replays of the same requests.
    let mut service = Service::new(inputs.plan(), SHARDS);
    let mut w = replay_setup(inputs, &mut service, &mut rec);
    let (svc_phase, svc_spans) = replay_run(w.as_mut(), &mut service, secs * 0.15);
    replay_finish(w, &mut service, &mut rec);
    let mut raw = Raw::new(Fs::Pfs, inputs.plan(), SHARDS);
    let mut w = replay_setup(inputs, &mut raw, &mut rec);
    // Set-up and the final checks reach the profiler and the SQL counters
    // too; count the replayed rounds only.
    raw.profiler.reset();
    raw.sql = SqlObs::default();
    let (raw_phase, raw_spans) = replay_run(w.as_mut(), &mut raw, secs * 0.15);
    let pfs = raw.profiler.snapshot();
    let sq = std::mem::take(&mut raw.sql);
    replay_finish(w, &mut raw, &mut rec);
    let raw_ops = raw_phase.ops();
    // The WASI request without PFS underneath.
    let mem_phase = (inputs.kind == Kind::Serve).then(|| {
        let mut mem = Raw::new(Fs::Mem, inputs.plan(), SHARDS);
        let mut w = replay_setup(inputs, &mut mem, &mut rec);
        let phase = replay_run(w.as_mut(), &mut mem, secs * 0.1).0;
        replay_finish(w, &mut mem, &mut rec);
        phase
    });

    // Seal/unseal on the image size the workload parks (no parks on
    // polybench: a 64 KiB image).
    let dc = |f: fn(&ControlStats) -> u64| f(&s1.control) - f(&s0.control);
    let parks = dc(|c| c.parks);
    let restores = dc(|c| c.restores);
    let image = dc(|c| c.sealed_bytes)
        .checked_div(parks)
        .map_or(64 << 10, |b| b.max(1) as usize);
    let enclave = Arc::clone(TwineBuilder::new().build().enclave());
    let plain_image = vec![0x5au8; image];
    let sealed = enclave.seal(&plain_image);
    let kib = image as f64 / 1024.0;
    let seal_us = time_calls(|| drop(std::hint::black_box(enclave.seal(&plain_image)))) * 1e6 / kib;
    let unseal_us = time_calls(|| drop(std::hint::black_box(enclave.unseal(&sealed)))) * 1e6 / kib;

    // Compilation of each module the workload opens (Reg tier).
    let modules: Vec<&[u8]> = match inputs.kind {
        Kind::Polybench => inputs.kernels.iter().map(|k| k.wasm.as_slice()).collect(),
        Kind::Serve => vec![inputs.guest.as_slice()],
        Kind::Sql => Vec::new(),
    };
    let compile_ms: Vec<f64> = modules
        .iter()
        .map(|w| {
            time_calls(|| {
                drop(std::hint::black_box(CompiledModule::from_bytes_with_tier(
                    w,
                    ExecTier::Reg,
                )))
            }) * 1e3
        })
        .collect();

    // ---- figures ----------------------------------------------------------
    let sharded_call_us: f64 = span_durations_us(&spans, "sharded.call").iter().sum();
    let busy_us = (s1.busy_ns - s0.busy_ns) as f64 / 1e3;
    let handoff_us = (sharded_call_us - busy_us) / calls.max(1) as f64;
    let service_us = mean(&svc_phase.rec.all_lat_us());
    let engine_us = mean(&raw_phase.rec.all_lat_us());
    let wasm_invoke = span_durations_us(&raw_spans, "wasm.invoke");
    let raw_totals = trace::totals(&raw_spans);
    let wasm_self_ns = raw_totals.get("wasm.invoke").map_or(0, |t| t.self_ns);
    let de = |f: fn(&EnclaveStats) -> u64| (f(&s1.enclave) - f(&s0.enclave)) as f64 / ops as f64;
    let pfs_cat = |c: PfsCategory| pfs.get(c) as f64 / raw_ops.max(1) as f64;
    let pool_checkouts = dc(|c| c.pool_hits) + dc(|c| c.pool_misses);
    let stmt_lookups = dc(|c| c.stmt_cache_hits) + dc(|c| c.stmt_cache_misses);
    let pair_ratios: Vec<f64> = on.iter().zip(&off).map(|(a, b)| a / b).collect();
    let overhead = median(&pair_ratios) - 1.0;
    let raw_minstr = raw_phase.rec.minstr;
    let ns_per_minstr = if raw_minstr > 0 {
        wasm_self_ns as f64 / (raw_minstr as f64 / 1e6)
    } else {
        0.0
    };
    let mem_io = mem_phase.as_ref().map_or(&[][..], |m| m.rec.lat_us("wasi"));
    let n_ops = ops;
    let values = [
        fig(handoff_us, "us", calls),
        fig(calls as f64 / ops as f64, "count", ops),
        fig(service_us, "us", svc_phase.ops()),
        fig(service_us - engine_us, "us", svc_phase.ops().min(raw_ops)),
        fig(1000.0 * parks as f64 / ops as f64, "count", ops),
        fig(1000.0 * restores as f64 / ops as f64, "count", ops),
        fig(ratio(dc(|c| c.sealed_bytes), parks), "B", parks),
        fig(ratio(dc(|c| c.unsealed_bytes), restores), "B", restores),
        fig(
            ratio(dc(|c| c.pool_hits), pool_checkouts),
            "ratio",
            pool_checkouts,
        ),
        fig(
            ratio(dc(|c| c.dirty_pages_restored), restores),
            "count",
            restores,
        ),
        fig(
            ratio(dc(|c| c.stmt_cache_hits), stmt_lookups),
            "ratio",
            stmt_lookups,
        ),
        fig(de(|e| e.ecalls), "count", n_ops),
        fig(de(|e| e.ocalls), "count", n_ops),
        fig(de(|e| e.boundary_bytes), "B", n_ops),
        fig(
            (s1.epc.faults - s0.epc.faults) as f64 / ops as f64,
            "count",
            n_ops,
        ),
        fig(seal_us, "us/KiB", 20),
        fig(unseal_us, "us/KiB", 20),
        fig(minstr as f64 / 1e6 / ops as f64, "Minstr", n_ops),
        fig(median(&compile_ms), "ms", compile_ms.len() as u64),
        fig(mean(&wasm_invoke), "us", wasm_invoke.len() as u64),
        fig(
            ns_per_minstr,
            "ns/Minstr",
            if raw_minstr > 0 { raw_ops } else { 0 },
        ),
        fig(wasi_calls as f64 / ops as f64, "count", n_ops),
        fig(mean(mem_io), "us", mem_io.len() as u64),
        fig(pfs_cat(PfsCategory::Crypto), "cycles", raw_ops),
        fig(pfs_cat(PfsCategory::Ocall), "cycles", raw_ops),
        fig(pfs_cat(PfsCategory::Memset), "cycles", raw_ops),
        fig(pfs_cat(PfsCategory::ReadOps), "cycles", raw_ops),
        fig(pfs_cat(PfsCategory::Other), "cycles", raw_ops),
        fig(
            mean(&sq.prepare_miss_us),
            "us",
            sq.prepare_miss_us.len() as u64,
        ),
        fig(mean(&sq.exec_us), "us", sq.exec_us.len() as u64),
        fig(mean(&sq.commit_us), "us", sq.commit_us.len() as u64),
        fig(
            ratio(sq.read_cache_hits, sq.read_cache_hits + sq.read_page_reads),
            "ratio",
            sq.read_cache_hits + sq.read_page_reads,
        ),
        fig(ratio(sq.txn_page_writes, sq.txns), "count", sq.txns),
        fig(ratio(sq.txn_journal_writes, sq.txns), "count", sq.txns),
        fig(ratio(sq.txn_syncs, sq.txns), "count", sq.txns),
        fig(
            ratio(sq.restore_page_reads, sq.restores),
            "count",
            sq.restores,
        ),
        fig(closure(&raw_spans), "ratio", raw_ops),
        fig(overhead, "ratio", pair_ratios.len() as u64),
    ];
    let metrics: Figs = DECLARED
        .iter()
        .zip(values)
        .map(|((n, _), f)| (*n, f))
        .collect();
    debug_assert!(DECLARED
        .iter()
        .zip(&metrics)
        .all(|((_, u), (_, f))| *u == f.unit));

    // Detail: the WASI request on the PFS backend (against `wasi.io_us`
    // on a `MemBackend`), and the parts the figures above derive from.
    let pfs_io = raw_phase.rec.lat_us("wasi");
    let mut extra = Vec::new();
    if mem_phase.is_some() {
        extra.push((
            "wasi.pfs_io_us",
            fig(mean(pfs_io), "us", pfs_io.len() as u64),
        ));
    }
    extra.push((
        "untraced_round_us",
        fig(median(&off) * 1e6, "us", off.len() as u64),
    ));
    extra.push((
        "traced_round_us",
        fig(median(&on) * 1e6, "us", on.len() as u64),
    ));
    extra.push(("client_us", fig(client_us, "us", ops)));
    extra.push(("engine_us", fig(engine_us, "us", raw_ops)));
    extra.push(("sealed_image_bytes", fig(image as f64, "B", parks)));

    let detail = format!(
        "\"spans\": {{\"sharded\": {}, \"service\": {}, \"raw\": {}}}",
        totals_json(&spans),
        totals_json(&svc_spans),
        totals_json(&raw_spans)
    );
    rec.absorb(traced.rec);
    rec.absorb(alternated);
    rec.absorb(finish);
    rec.absorb(svc_phase.rec);
    rec.absorb(raw_phase.rec);
    if let Some(mem) = mem_phase {
        rec.absorb(mem.rec);
    }
    for mut more in [svc_spans, raw_spans] {
        let offset = spans.len();
        for s in &mut more {
            s.parent = s.parent.map(|p| p + offset);
        }
        spans.extend(more);
    }
    Layers {
        metrics,
        extra,
        rec,
        detail,
        spans,
    }
}
