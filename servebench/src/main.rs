//! End-to-end and per-layer benchmark of the Twine serving plane.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <polybench|wasm-serve|sql-tenants> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out <file>]
//! cargo run --release --manifest-path servebench/Cargo.toml -- --repro <fault>
//! ```
//!
//! One closed-loop client thread drives a two-shard `ShardedService`; it
//! sends its next request only after the previous reply returns, and
//! checks every reply against a model computed apart from the program.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see README.md). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`; the line before
//! it carries every figure with its sample count. Nothing is written to
//! disk unless `--out` names a file.

mod guest;
mod layers;
mod polybench;
mod record;
mod repro;
mod serve;
mod sql;
mod target;
mod trace;
mod util;

use std::sync::Arc;
use std::time::Instant;

use record::Recorder;
use target::{Plan, Sharded, Target};
use util::median;

/// Worker shards of the end-to-end service.
pub const SHARDS: usize = 2;

/// A seeded workload: the same seed gives the same requests on any target.
pub trait Workload {
    /// The deployment's one-time work before serving.
    fn setup(&mut self, t: &mut dyn Target, rec: &mut Recorder);
    /// One round of the closed loop: always the same operations.
    fn round(&mut self, t: &mut dyn Target, rec: &mut Recorder);
    /// Final checks of the state the run left, then close everything.
    fn finish(&mut self, t: &mut dyn Target, rec: &mut Recorder);
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Polybench,
    Serve,
    Sql,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "polybench" => Some(Kind::Polybench),
            "wasm-serve" => Some(Kind::Serve),
            "sql-tenants" => Some(Kind::Sql),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Polybench => "polybench",
            Kind::Serve => "wasm-serve",
            Kind::Sql => "sql-tenants",
        }
    }
}

/// Generated inputs, shared by every target the workload runs on.
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub kernels: Arc<Vec<polybench::KernelInput>>,
    pub guest: Arc<Vec<u8>>,
}

impl Inputs {
    fn new(kind: Kind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            kernels: Arc::new(if kind == Kind::Polybench {
                polybench::inputs(seed)
            } else {
                Vec::new()
            }),
            guest: Arc::new(if kind == Kind::Serve {
                guest::serve_guest()
            } else {
                Vec::new()
            }),
        }
    }

    pub fn plan(&self) -> Plan {
        match self.kind {
            Kind::Polybench => polybench::PLAN,
            Kind::Serve => serve::PLAN,
            Kind::Sql => sql::PLAN,
        }
    }

    pub fn workload(&self, t: &dyn Target) -> Box<dyn Workload> {
        match self.kind {
            Kind::Polybench => Box::new(polybench::Polybench::new(
                self.seed,
                Arc::clone(&self.kernels),
            )),
            Kind::Serve => Box::new(serve::Serve::new(self.seed, Arc::clone(&self.guest), t)),
            Kind::Sql => Box::new(sql::Tenants::new(self.seed, t)),
        }
    }

    /// Set-ups per run. Short set-ups repeat more often, so that every
    /// step has enough samples for its median.
    fn setup_reps(&self) -> usize {
        match self.kind {
            Kind::Polybench => 25,
            Kind::Serve => 25,
            Kind::Sql => 3,
        }
    }
}

/// A measured stretch of the closed loop.
pub struct Phase {
    pub rec: Recorder,
    pub wall_s: f64,
    /// Operations and wall seconds of each round, in order.
    pub rounds: Vec<(u64, f64)>,
    /// Highest resident set sampled between the rounds, in MiB.
    pub peak_rss_mib: f64,
}

/// Share of the rounds, at each end, that [`Phase::ops_per_s`] leaves
/// out.
pub const TRIM: f64 = 0.1;

impl Phase {
    pub fn ops(&self) -> u64 {
        self.rec.attempted()
    }

    /// Operations over wall time.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s
    }

    /// Operations per second over the rounds with the slowest and the
    /// fastest [`TRIM`] of them left out (see [`trimmed_rate`]).
    pub fn ops_per_s(&self) -> f64 {
        trimmed_rate(&self.rounds, TRIM)
    }
}

/// Operations over seconds of `rounds` (operations, seconds), leaving
/// out the slowest and the fastest `trim` share of the rounds. Every
/// round attempts the same operations, so a cost paid by every round, or
/// by every other request, counts in full; a burst that slows a few
/// rounds does not.
pub fn trimmed_rate(rounds: &[(u64, f64)], trim: f64) -> f64 {
    let mut v = rounds.to_vec();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    let k = (v.len() as f64 * trim) as usize;
    let kept = &v[k..v.len() - k];
    let ops: u64 = kept.iter().map(|r| r.0).sum();
    let secs: f64 = kept.iter().map(|r| r.1).sum();
    if secs > 0.0 {
        ops as f64 / secs
    } else {
        0.0
    }
}

/// Run whole rounds until `secs` have passed, timing each round and
/// sampling the resident set between rounds (at most every 10 ms, outside
/// the round times).
pub fn run_phase(w: &mut dyn Workload, t: &mut dyn Target, secs: f64) -> Phase {
    let mut rec = Recorder::default();
    let mut rounds = Vec::new();
    let mut peak = util::rss_mib();
    let mut sampled = Instant::now();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < secs {
        let before = rec.attempted();
        let r0 = Instant::now();
        w.round(t, &mut rec);
        rounds.push((rec.attempted() - before, r0.elapsed().as_secs_f64()));
        if sampled.elapsed().as_millis() >= 10 {
            peak = peak.max(util::rss_mib());
            sampled = Instant::now();
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Phase {
        rec,
        wall_s,
        rounds,
        peak_rss_mib: peak.max(util::rss_mib()),
    }
}

/// The end-to-end service with its workload, set up and ready to serve.
pub struct Deployed {
    pub target: Sharded,
    pub workload: Box<dyn Workload>,
    /// Every step of every set-up (`build` is the service's
    /// construction), by class.
    pub steps: Recorder,
    /// Wall seconds of each set-up.
    pub setup_wall_s: Vec<f64>,
}

impl Deployed {
    /// Seconds one set-up takes with every step at its class's median
    /// over all repetitions (see [`Recorder::mix_us`]).
    pub fn setup_s(&self) -> f64 {
        self.steps.mix_us() / 1e6 / self.setup_wall_s.len() as f64
    }
}

/// Set the deployment up `reps` times (each from scratch) and keep the
/// last one.
pub fn deploy(inputs: &Inputs, reps: usize) -> Deployed {
    let mut steps = Recorder::default();
    let mut setup_wall_s = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let mut target = steps
            .op("build", || Ok(Sharded::new(inputs.plan(), SHARDS)))
            .expect("building a service cannot fail");
        let mut workload = inputs.workload(&target);
        workload.setup(&mut target, &mut steps);
        setup_wall_s.push(t0.elapsed().as_secs_f64());
        last = Some((target, workload));
    }
    let (target, workload) = last.expect("at least one set-up");
    Deployed {
        target,
        workload,
        steps,
        setup_wall_s,
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: servebench --workload <polybench|wasm-serve|sql-tenants> --seed <n> \
         --seconds <s> --trace <0|1> [--out <file>]\n       servebench --repro <{}>",
        repro::NAMES.join("|")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    let kind = get("--workload")
        .and_then(|s| Kind::parse(s))
        .unwrap_or_else(|| usage());
    let seed = get("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = get("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let trace = match get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    Args {
        kind,
        seed,
        seconds,
        trace,
        out: get("--out").cloned(),
    }
}

/// One printed figure: value, unit and sample count.
#[derive(Clone, Copy)]
pub struct Fig {
    pub value: f64,
    pub unit: &'static str,
    pub n: u64,
}

pub fn fig(value: f64, unit: &'static str, n: u64) -> Fig {
    Fig { value, unit, n }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn figs_json(figs: &[(&str, Fig)], with_n: bool) -> String {
    let items: Vec<String> = figs
        .iter()
        .map(|(name, f)| {
            if with_n {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                    json_num(f.value),
                    f.unit,
                    f.n
                )
            } else {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(f.value),
                    f.unit
                )
            }
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Per-class attempted/failed counts with latency median and tail.
fn classes_json(rec: &Recorder) -> String {
    let items: Vec<String> = rec
        .classes
        .iter()
        .map(|(name, c)| {
            let tail = util::tail(&c.lat_us)
                .map_or_else(|| "null".into(), |(l, v)| format!("{{\"{l}\": {}}}", json_num(v)));
            format!(
                "\"{name}\": {{\"attempted\": {}, \"failed\": {}, \"n\": {}, \"p50_us\": {}, \"tail\": {tail}}}",
                c.attempted,
                c.failed,
                c.lat_us.len(),
                json_num(median(&c.lat_us))
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// Named figures, in print order.
pub type Figs = Vec<(&'static str, Fig)>;

/// The end-to-end figures of an untraced run: the declared ones, the
/// rest, every operation's counts and checks, and detail fields.
fn end_to_end(inputs: &Inputs, args: &Args) -> (Figs, Figs, Recorder, String) {
    let mut d = deploy(inputs, inputs.setup_reps());
    // What input generation and the set-ups left: the process's peak so
    // far, and what it holds as serving starts.
    let (hwm_before, rss_before) = (util::hwm_mib(), util::rss_mib());
    // One untimed round first: it faults in the pages and fills the
    // caches every later round finds warm.
    let mut warm = Recorder::default();
    d.workload.round(&mut d.target, &mut warm);
    let c0 = d.target.svc.clock().cycles();
    let s0 = d.target.svc.control_stats();
    let phase = run_phase(d.workload.as_mut(), &mut d.target, args.seconds);
    // The process peak is the serving peak once serving has raised it;
    // otherwise the highest sample taken while serving stands for it.
    let hwm_end = util::hwm_mib();
    let serving_peak = if hwm_end > hwm_before {
        hwm_end
    } else {
        phase.peak_rss_mib
    };
    let cycles = d.target.svc.clock().cycles() - c0;
    let s1 = d.target.svc.control_stats();
    let mut finish = Recorder::default();
    d.workload.finish(&mut d.target, &mut finish);

    let rec = &phase.rec;
    let ops = phase.ops();
    let lat = rec.all_lat_us();
    let p50 = |class: &str| {
        fig(
            median(rec.lat_us(class)),
            "us",
            rec.lat_us(class).len() as u64,
        )
    };
    let values = [
        phase.ops_per_s(),
        cycles as f64 / ops as f64,
        d.setup_s(),
        serving_peak,
    ];
    let counts = [ops, ops, d.steps.attempted(), phase.rounds.len() as u64];
    let declared = E2E
        .iter()
        .zip(values.into_iter().zip(counts))
        .map(|(&(name, unit), (v, n))| (name, fig(v, unit, n)))
        .collect();
    // Figures that are too noisy on this kind of host to gate on, or that
    // exist on some workloads only: printed with their sample counts, not
    // declared (a declared metric is measured on every workload).
    let mut extra = vec![
        ("wall_ops_per_s", fig(phase.wall_ops_per_s(), "1/s", ops)),
        ("mix_ops_per_s", fig(rec.mix_ops_per_s(), "1/s", ops)),
    ];
    if let Some((label, v)) = util::tail(&lat) {
        extra.push((label, fig(v, "us", lat.len() as u64)));
    }
    if rec.minstr > 0 {
        extra.push((
            "guest_minstr_per_s",
            fig(rec.minstr as f64 / 1e6 / phase.wall_s, "Minstr/s", ops),
        ));
    }
    for (name, class) in [
        ("warm_p50_us", "warm"),
        ("wasi_p50_us", "wasi"),
        ("open_p50_us", "open"),
        ("restore_p50_us", "restore"),
        ("read_p50_us", "read"),
        ("scan_p50_us", "scan"),
        ("write_p50_us", "write"),
    ] {
        if !rec.lat_us(class).is_empty() {
            extra.push((name, p50(class)));
        }
    }
    let detail = format!(
        "\"rounds\": {}, \"rounds_wall_s\": {}, \"setup_wall_s\": [{}], \
         \"hwm_before_serving_mib\": {}, \"rss_before_serving_mib\": {}, \
         \"modelled\": [\"vcycles_per_op\"], \
         \"restores_model\": {}, \"restores_service\": {}, \"parks_service\": {}",
        phase.rounds.len(),
        json_num(phase.wall_s),
        d.setup_wall_s
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(", "),
        json_num(hwm_before),
        json_num(rss_before),
        rec.lat_us("restore").len(),
        s1.restores - s0.restores,
        s1.parks - s0.parks,
    );
    let mut all = d.steps;
    all.absorb(warm);
    all.absorb(phase.rec);
    all.absorb(finish);
    (declared, extra, all, detail)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--repro") {
        let name = argv.get(i + 1).map_or("", String::as_str);
        std::process::exit(repro::run(name));
    }
    let args = parse_args(&argv);
    let inputs = Inputs::new(args.kind, args.seed);
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    let (metrics, extra, rec, detail, spans) = if args.trace {
        let l = layers::measure(&inputs, args.seconds);
        (l.metrics, l.extra, l.rec, l.detail, l.spans)
    } else {
        let (m, e, r, d) = end_to_end(&inputs, &args);
        (m, e, r, d, Vec::new())
    };

    let correct = rec.mismatches == 0;
    for n in &rec.notes {
        eprintln!("servebench: {n}");
    }
    let detail = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {host_cores}, \
         \"shards\": {SHARDS}, \"clients\": 1, \"mismatches\": {}, \"classes\": {}, \"metrics\": {}, \"more\": {}, {detail}}}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rec.mismatches,
        classes_json(&rec),
        figs_json(&metrics, true),
        figs_json(&extra, true),
    );
    if let Some(path) = &args.out {
        let mut body = detail.clone();
        body.push('\n');
        body.push_str(&trace::to_json_lines(&spans));
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("servebench: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{detail}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        rec.attempted(),
        rec.failed(),
        figs_json(&metrics, false)
    );
}

/// End-to-end metrics in the order `--trace 0` prints them.
pub const E2E: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("vcycles_per_op", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

#[cfg(test)]
mod tests {
    use super::trimmed_rate;

    #[test]
    fn trimmed_rate_leaves_out_the_extreme_rounds_only() {
        // Ten rounds of 10 operations: one burst, one unusually fast round,
        // and one slow round that is not extreme enough to be left out.
        let mut rounds = vec![(10, 0.01); 7];
        rounds.extend([(10, 1.0), (10, 0.001), (10, 0.03)]);
        // Kept: seven rounds of 0.01 s and the 0.03 s one.
        assert!((trimmed_rate(&rounds, 0.1) - 80.0 / 0.1).abs() < 1e-9);
        // Nothing left out: the burst counts.
        assert!((trimmed_rate(&rounds, 0.0) - 100.0 / 1.101).abs() < 1e-9);
        // Under ten rounds a 10% trim leaves out nothing.
        assert!((trimmed_rate(&rounds[7..], 0.1) - 30.0 / 1.031).abs() < 1e-9);
        assert_eq!(trimmed_rate(&[], 0.1), 0.0);
    }

    /// Every metric a run prints in its result line is declared in
    /// BENCHMARK.json with the same unit, and every declared one is
    /// printed.
    #[test]
    fn printed_metrics_are_declared() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = spec.find(&format!("\"{key}\"")).expect("section present");
            let body = &spec[start..];
            let body = &body[..body.find(']').expect("section ends")];
            body.lines()
                .filter_map(|l| {
                    let field = |k: &str| {
                        let i = l.find(&format!("\"{k}\": \""))? + k.len() + 5;
                        Some(l[i..i + l[i..].find('"')?].to_string())
                    };
                    Some((field("name")?, field("unit")?))
                })
                .collect()
        };
        let declared_e2e = section("end_to_end");
        let declared_layers = section("per_layer");
        let printed_e2e: Vec<(String, String)> = super::E2E
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let printed_layers: Vec<(String, String)> = crate::layers::DECLARED
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(printed_e2e, declared_e2e);
        assert_eq!(printed_layers, declared_layers);
        for w in ["polybench", "wasm-serve", "sql-tenants"] {
            assert!(
                spec.contains(&format!("\"name\": \"{w}\"")),
                "workload {w} declared"
            );
        }
    }
}
