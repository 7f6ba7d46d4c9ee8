//! Wall-clock benchmark of the SQL server at `ScaleFactor::gb(1000)`.
//!
//! One process per run: it loads the TPC-H/TPC-DS catalog, starts
//! `SqlServer` in-process and drives it over TCP in a closed loop, then
//! checks every response against an in-process reference and, with
//! `--trace 1`, replays the workload layer by layer. See `README.md` in this
//! directory for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod replay;
mod report;
mod serve;
mod stats;
mod variants;

use report::Report;
use serve::Setup;
use variants::Template;

/// Scale tier of every workload.
pub const SCALE: rdo_workloads::ScaleFactor = rdo_workloads::ScaleFactor { gb: 1000 };
/// Storage partitions per table.
pub const PARTITIONS: usize = 2;
/// Every window issues at least this many queries, so ten samples lie
/// beyond the nearest-rank p90.
pub const MIN_QUERIES: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Queries of the window the traced replay re-runs, in issue order.
const REPLAY_QUERIES: usize = 24;
/// Spill workload: global admission budget and per-query grant (one query
/// at a time; half of the grant is its spill budget, half its join budget).
const SPILL_GRANT: u64 = 1 << 20;

/// One traffic mix.
pub struct Workload {
    pub name: &'static str,
    pub clients: usize,
    /// Fixed texts after a warm-up pass (`true`) or fresh literals on every
    /// query (`false`).
    pub warm: bool,
    /// Templates the cold generator rotates through.
    pub rotation: &'static [Template],
    pub mem_budget: Option<u64>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold_mix",
        clients: 1,
        warm: false,
        rotation: &[Template::Q8, Template::Q9, Template::Q17, Template::Q50],
        mem_budget: None,
    },
    Workload {
        name: "warm_concurrent",
        clients: 2,
        warm: true,
        rotation: &[],
        mem_budget: None,
    },
    Workload {
        name: "spill_admission",
        clients: 2,
        warm: false,
        rotation: &[Template::Q8, Template::Q9],
        mem_budget: Some(SPILL_GRANT),
    },
];

impl Workload {
    /// The server configuration, built in code so no environment variable
    /// can change it.
    pub fn server_config(&self) -> rdo_server::ServerConfig {
        let defaults = rdo_server::ServerConfig::default();
        rdo_server::ServerConfig {
            mem_budget: self.mem_budget,
            query_grant: self.mem_budget.unwrap_or(defaults.query_grant),
            ..defaults
        }
    }

    fn spills(&self) -> bool {
        self.mem_budget.is_some()
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()? != 0),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Spill files go under the working directory, not the system temp dir.
const SPILL_DIR: &str = ".bench_tmp";

fn main() {
    match run() {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<bool, String> {
    let args = Args::parse()?;
    // `run_query` reads `SpillConfig::from_env()` and the `RDO_WORKERS`
    // family: an exported knob would silently change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RDO_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!("refusing to run with {} set", knobs.join(", ")));
    }
    std::fs::create_dir_all(SPILL_DIR).map_err(|e| format!("{SPILL_DIR}: {e}"))?;
    let spill_dir = std::fs::canonicalize(SPILL_DIR).map_err(|e| format!("{SPILL_DIR}: {e}"))?;
    // Still single-threaded: nothing else reads the environment yet.
    std::env::set_var("TMPDIR", &spill_dir);

    let workload = args.workload;
    let started = std::time::Instant::now();
    let phase = |name: &str| {
        eprintln!(
            "perfbench: {name} done at {:.1}s",
            started.elapsed().as_secs_f64()
        )
    };
    let mut report = Report::new(workload, args.seconds);
    report.fingerprint(args.seed);

    // Set up several times and keep the last; each earlier set-up is dropped
    // before the next so the peak RSS is that of one.
    let mut setup: Option<Setup> = None;
    let (mut setup_s, mut load_s) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        drop(setup.take());
        let next = serve::set_up(workload, args.seed)?;
        setup_s.push(next.setup_s);
        load_s.push(next.load_s);
        setup = Some(next);
    }
    let setup = setup.expect("at least one set-up");
    report.setup(&setup_s, &load_s);
    phase("set-up");

    let learned = setup.server.learned();
    let learned_before = (learned.hits(), learned.misses());
    let waits_before = setup.server.admission().map_or(0, |a| a.waits());
    let window = serve::drive(&setup, workload, args.seed, args.seconds)?;
    report.window(
        &window,
        (
            learned.hits() - learned_before.0,
            learned.misses() - learned_before.1,
        ),
        setup
            .server
            .admission()
            .map_or((0, 0), |a| (a.waits() - waits_before, a.max_queue_depth())),
    );

    phase("timed window");
    let engine = replay::Engine::new(&setup.env.catalog, workload.server_config());
    report.references(&window, &engine);
    phase("references");
    if args.trace {
        let texts: Vec<&str> = window
            .samples
            .iter()
            .take(REPLAY_QUERIES)
            .map(|s| s.variant.sql.as_str())
            .collect();
        let untraced = engine.replay(&texts, workload.warm, false)?;
        let traced = engine.replay(&texts, workload.warm, true)?;
        report.replay(&window, &untraced, &traced);
        phase("replay");
    }
    report.peak_rss();
    drop(engine);
    drop(setup);
    let _ = std::fs::remove_dir_all(&spill_dir);
    Ok(report.finish(args.trace))
}
