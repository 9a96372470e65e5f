//! Perf ledger for the paper's spatial joins.
//!
//! One workload per process, run as a closed loop: one client sends one
//! query at a time through three pipelines (SpatialSpark broadcast,
//! ISP-MC SQL, SpatialSpark partitioned), each checked against a serial
//! reference. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` a separate traced run follows
//! the timed queries and the last line carries the per-layer metrics.
//! See `perfbench/README.md`.
//!
//! Usage: `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <taxi-nycb|taxi-lion-500|G10M-wwf> --seed <n> --seconds <s>
//! --trace <0|1>`

mod layers;
mod pipelines;
mod replay;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use bench::Replay;
use layers::{Context, Layers, Metric};
use pipelines::{Pipeline, Samples, Systems, Tally};
use stats::Summary;
use trace::Tracer;
use workload::{Reference, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Rounds of the three pipelines the timed loop runs at least, however
/// short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Where each run's artifact is written, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench-out";

/// A failure that stops the benchmark before it can report.
#[derive(Debug)]
pub struct BenchErr(String);

impl std::fmt::Display for BenchErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<minihdfs::DfsError> for BenchErr {
    fn from(e: minihdfs::DfsError) -> BenchErr {
        BenchErr(format!("dfs: {e}"))
    }
}

impl From<impalite::ImpalaError> for BenchErr {
    fn from(e: impalite::ImpalaError) -> BenchErr {
        BenchErr(format!("sql: {e}"))
    }
}

impl From<std::io::Error> for BenchErr {
    fn from(e: std::io::Error) -> BenchErr {
        BenchErr(format!("io: {e}"))
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, BenchErr> {
    let usage = || {
        BenchErr(
            "usage: perfbench --workload <taxi-nycb|taxi-lion-500|G10M-wwf> --seed <n> \
             --seconds <s> --trace <0|1>"
                .into(),
        )
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(usage());
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return Err(usage()),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(usage()),
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Peak resident set size (VmHWM) in MB.
fn peak_rss_mb() -> Result<f64, BenchErr> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchErr("VmHWM missing from /proc/self/status".into()))
}

/// JSON number; non-finite values (a ratio over an empty pass) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run() -> Result<(), BenchErr> {
    let args = parse_args()?;
    let w = args.workload;
    let exp = w.experiment();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let replay = Replay::new(workload::scale().0);
    eprintln!(
        "perfbench: {} seed {} threads {threads} trace {}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );

    // Set-up: generate and load, several times; keep the last DFS.
    let (mut setup_s, mut gen_s, mut load_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let l = workload::setup(w, args.seed)?;
        setup_s.push(l.gen_s + l.load_s);
        gen_s.push(l.gen_s);
        load_s.push(l.load_s);
        loaded = Some(l);
    }
    let dfs = loaded
        .map(|l| l.dfs)
        .ok_or_else(|| BenchErr("no set-up ran".into()))?;
    let (setup_s, gen_s, load_s) = (
        Summary::new(&setup_s),
        Summary::new(&gen_s),
        Summary::new(&load_s),
    );

    // Reference, outside set-up and outside any timed query.
    let (left, right) = workload::read_records(&dfs, exp)?;
    let left_n = left.len();
    let reference = Reference::compute(&left, &right, exp);
    drop((left, right));
    eprintln!(
        "perfbench: reference {} pairs over {left_n} left records",
        reference.count
    );

    let sys = Systems::new(&dfs, exp, threads);
    let mut tally = Tally::default();
    pipelines::warm_up(&sys, &reference, &mut tally);
    let t = Instant::now();
    let samples = pipelines::timed_loop(&sys, &reference, args.seconds, MIN_ROUNDS, &mut tally);
    let loop_s = t.elapsed().as_secs_f64();

    let walls: Vec<Summary> = samples.iter().map(|s| Summary::new(&s.walls)).collect();
    let mut report = String::new();
    for (p, s) in Pipeline::ALL.iter().zip(&walls) {
        let _ = writeln!(report, "  {:<20} {}", p.metric(), s.describe("s"));
    }
    let _ = writeln!(report, "  {:<20} {}", "setup_s", setup_s.describe("s"));

    let mut correct = true;
    let (metrics, layers) = if args.trace {
        let cx = Context {
            dfs: &dfs,
            exp,
            sys: &sys,
            reference: &reference,
            threads,
            replay: &replay,
            untraced: [walls[0].median(), walls[1].median(), walls[2].median()],
        };
        let mut tracer = Tracer::new();
        let mut layers = layers::traced_run(&cx, &mut tracer, &mut tally)?;
        layers.metrics.push(Metric {
            name: "minihdfs.load_s",
            value: load_s.median(),
            unit: "s",
        });
        layers.metrics.push(Metric {
            name: "setup.gen_s",
            value: gen_s.median(),
            unit: "s",
        });
        let ispmc = replay::min_ispmc_metrics(&samples[1].ispmc).ok_or_else(shape_err)?;
        layers.metrics.push(Metric {
            name: "ispmc_replay10_s",
            value: replay::ispmc_replay10(&ispmc, &replay),
            unit: "s",
        });
        correct &= layers.algebra_holds();
        let spans = tracer.to_json();
        (layers.metrics.drain(..).collect(), Some((layers, spans)))
    } else {
        let metrics = end_to_end(&samples, &walls, &setup_s, left_n, &replay)?;
        (metrics, None)
    };
    correct &= tally.failed == 0;

    write_artifact(
        &args,
        threads,
        loop_s,
        [&setup_s, &gen_s, &load_s],
        &samples,
        &metrics,
        layers.as_ref(),
    )?;
    eprint!("{report}");
    if let Some((l, _)) = &layers {
        eprintln!("  zero obs counters: {}", l.zero_counters.join(", "));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    Ok(())
}

fn shape_err() -> BenchErr {
    BenchErr("no timed query, or timed queries differ in report shape".into())
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(
    samples: &[Samples; 3],
    walls: &[Summary],
    setup_s: &Summary,
    left_n: usize,
    replay: &Replay,
) -> Result<Vec<Metric>, BenchErr> {
    let spark = replay::min_spark_report(&samples[0].spark).ok_or_else(shape_err)?;
    let queries: usize = samples.iter().map(|s| s.walls.len()).sum();
    let wall_total: f64 = samples.iter().flat_map(|s| s.walls.iter()).sum();
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(vec![
        metric("spark_query_s", walls[0].median(), "s"),
        metric("ispmc_query_s", walls[1].median(), "s"),
        metric("spark_part_query_s", walls[2].median(), "s"),
        metric(
            "points_per_s",
            (left_n * queries) as f64 / wall_total,
            "1/s",
        ),
        metric(
            "spark_replay10_s",
            replay::spark_replay10(&spark, replay),
            "s",
        ),
        metric("setup_s", setup_s.median(), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Writes the run's full record — samples with their counts and tail
/// percentiles, metrics, and for a traced run the spans, counter
/// algebra and zero counters — to `OUT_DIR`.
fn write_artifact(
    args: &Args,
    threads: usize,
    loop_s: f64,
    [setup_s, gen_s, load_s]: [&Summary; 3],
    samples: &[Samples; 3],
    metrics: &[Metric],
    layers: Option<&(Layers, String)>,
) -> Result<(), BenchErr> {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"workload\": \"{}\",", args.workload.name());
    let _ = writeln!(j, "  \"seed\": {},", args.seed);
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"timed_loop_s\": {loop_s},");
    let _ = writeln!(j, "  \"setup_s\": {},", setup_s.to_json());
    let _ = writeln!(j, "  \"setup.gen_s\": {},", gen_s.to_json());
    let _ = writeln!(j, "  \"minihdfs.load_s\": {},", load_s.to_json());
    for (p, s) in Pipeline::ALL.iter().zip(samples) {
        let _ = writeln!(
            j,
            "  \"{}\": {},",
            p.metric(),
            Summary::new(&s.walls).to_json()
        );
    }
    if let Some((l, spans)) = layers {
        let algebra: Vec<String> = l
            .algebra
            .iter()
            .map(|(what, held)| format!("{{\"check\": \"{what}\", \"held\": {held}}}"))
            .collect();
        let zero: Vec<String> = l.zero_counters.iter().map(|c| format!("\"{c}\"")).collect();
        let _ = writeln!(j, "  \"counter_algebra\": [{}],", algebra.join(", "));
        let _ = writeln!(j, "  \"zero_counters\": [{}],", zero.join(", "));
        let _ = writeln!(j, "  \"spans\": {spans},");
    }
    let _ = writeln!(j, "  \"metrics\": {}", metrics_json(metrics));
    let _ = writeln!(j, "}}");
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(&path, j)?;
    eprintln!("perfbench: wrote {path}");
    Ok(())
}
