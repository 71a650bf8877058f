//! The `trace` CLI: capture, inspect, convert and replay access traces.
//!
//! ```text
//! cargo run --release -p mithril-runner --bin trace -- <command> [options]
//!
//! record    render a registry workload to an MTRC capture
//!   --workload NAME    registry workload (mix-high, attack-multi, ...)
//!   --out PATH         capture file to write
//!   --cores N          threads to record          (default 4)
//!   --insts N          instructions per core      (default 20000)
//!   --seed N           base sweep seed            (default 1)
//!   --channels N       geometry override          (default 2: Table III)
//!   --ranks N          geometry override          (default 1)
//!   --flip-th N        FlipTH for profiled attack workloads (default 6250)
//!
//! replay    run a capture (or its live generator twin) through System
//!   --trace PATH       MTRC capture to replay (cores/geometry/insts/seed
//!                      default from its header), or
//!   --workload NAME    generate live instead — the comparison baseline
//!   --scheme NAME      none|mithril|mithril+|parfm|para|graphene|twice|
//!                      cbt|blockhammer|all      (default mithril)
//!   --flip-th N        Row Hammer threshold       (default 6250)
//!   --rfm-th N         Mithril RFMTH              (default per FlipTH)
//!   --nbl-scale N      BlockHammer NBL divisor    (default 6)
//!   --threads N        engine workers             (default host, max 8)
//!   --shard-size N     scenarios per shard        (default 1)
//!   --seed/--cores/--insts overrides; --channels/--ranks only with
//!   --workload (a capture replays on its recorded geometry)
//!   --metrics-only     emit the label-independent metrics projection
//!   --resilient        tolerate a damaged capture: skip corrupt/torn
//!                      chunks (reported on stderr) instead of aborting
//!   --obs DIR          attach observability: per-run event logs, cycle-
//!                      domain time series and DIR/obs_counts.json
//!   --out PATH         write the JSON report here instead of stdout
//!
//! stat      access-mix / hot-row statistics of a capture
//!   --trace PATH  [--top N (default 10)]  [--resilient]  [--out PATH]
//!   with --resilient the JSON embeds the resilience report (skipped
//!   chunks/bytes, end-marker status) alongside the statistics
//!
//! convert   re-encode between trace dialects
//!   --in PATH --out PATH  [--resilient (mtrc input only)]
//!   --in-format / --out-format   mtrc|ramulator|addr   (default: by
//!                                extension, .mtrc = mtrc, else ramulator)
//!   --core N           which stream of a multi-core capture to export
//!   --source NAME      source label for text → mtrc     (default: input
//!                      file name)
//! ```
//!
//! Replay determinism: `record` derives its generator seed as
//! `splitmix64_seed(base, 0, 0)` — exactly the seed the sweep engine
//! assigns the first scenario of a single-workload replay sweep under the
//! same base seed — so `record → replay --metrics-only` is byte-identical
//! to `replay --workload <same> --metrics-only`, at any `--threads`.

use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mithril_fasthash::splitmix64_seed;
use mithril_runner::cli::{die, Args};
use mithril_runner::engine::{default_threads, PoolConfig};
use mithril_runner::report::{metrics_only_json, sweep_json};
use mithril_runner::scenarios::{all_schemes, default_rfm_th, workload, SweepSpec};
use mithril_runner::{run_sweep, run_sweep_observed, write_obs_outputs};
use mithril_sim::{ObsConfig, Scheme, SystemConfig};
use mithril_trace::{
    load_capture, record_thread_set, replay_thread_set, stats_from_reader, write_text,
    DamagePolicy, MtrcReader, MtrcWriter, TextFormat, TextReader, TraceHeader,
};

fn usage() -> ! {
    eprintln!(
        "usage: trace <record|replay|stat|convert> [options]\n\
         see the module docs (cargo doc -p mithril-runner) or the\n\
         quickstart in ARCHITECTURE.md for the option list"
    );
    std::process::exit(2);
}

/// `--resilient` skips damaged chunks of an MTRC input; reads are strict
/// otherwise.
fn damage_policy(args: &mut Args) -> DamagePolicy {
    if args.flag("resilient") {
        DamagePolicy::Skip
    } else {
        DamagePolicy::Strict
    }
}

fn schemes_for(
    name: &str,
    flip_th: u64,
    rfm_th: Option<u64>,
    nbl_scale: u64,
) -> Vec<(String, Scheme)> {
    let rfm = rfm_th.unwrap_or_else(|| default_rfm_th(flip_th));
    let picked: Vec<(String, Scheme)> = all_schemes(rfm, nbl_scale)
        .into_iter()
        .filter(|&(label, _)| name == "all" || name == label)
        .map(|(label, s)| (label.to_string(), s))
        .collect();
    if picked.is_empty() {
        die(format!("unknown scheme {name:?}"));
    }
    picked
}

fn geometry_from(args: &mut Args) -> mithril_dram::Geometry {
    let mut g = mithril_dram::Geometry::table_iii_system();
    if let Some(ch) = args.take_parsed::<usize>("channels") {
        g = g.with_channels(ch);
    }
    if let Some(rk) = args.take_parsed::<usize>("ranks") {
        g = g.with_ranks(rk);
    }
    g
}

fn write_output(out: Option<String>, content: &str) {
    match out {
        Some(path) => {
            std::fs::write(&path, content).unwrap_or_else(|e| die(format!("write {path}: {e}")));
            println!("# wrote {path}");
        }
        None => print!("{content}"),
    }
}

// ------------------------------------------------------------------ record

fn cmd_record(mut args: Args) {
    let name = args
        .take("workload")
        .unwrap_or_else(|| die("record needs --workload NAME"));
    let out: PathBuf = args
        .take("out")
        .unwrap_or_else(|| die("record needs --out PATH"))
        .into();
    let cores: usize = args.take_parsed("cores").unwrap_or(4);
    let insts: u64 = args.take_parsed("insts").unwrap_or(20_000);
    let base_seed: u64 = args.take_parsed("seed").unwrap_or(1);
    let flip_th: u64 = args.take_parsed("flip-th").unwrap_or(6_250);
    let geometry = geometry_from(&mut args);
    args.finish();

    let mut cfg = SystemConfig::table_iii();
    cfg.cores = cores;
    cfg.geometry = geometry;
    cfg.flip_th = flip_th;
    // The first scenario of a single-workload sweep under `base_seed`
    // gets item seed (shard 0, offset 0); generate with exactly that so
    // replaying this capture reproduces the live sweep bit-for-bit.
    let gen_seed = splitmix64_seed(base_seed, 0, 0);
    let mut set = workload(&name, cores, &cfg, gen_seed);

    let header = TraceHeader {
        geometry,
        cores,
        base_seed,
        insts_per_core: insts,
        source: name.clone(),
    };
    let file = std::fs::File::create(&out)
        .unwrap_or_else(|e| die(format!("create {}: {e}", out.display())));
    let mut writer = MtrcWriter::new(BufWriter::new(file), &header)
        .unwrap_or_else(|e| die(format!("write {}: {e}", out.display())));
    let ops = record_thread_set(&mut set, insts, &mut writer)
        .unwrap_or_else(|e| die(format!("record: {e}")));
    writer
        .finish()
        .unwrap_or_else(|e| die(format!("finish {}: {e}", out.display())));
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "# recorded {name}: {cores} cores x {insts} insts -> {ops} ops, {bytes} bytes ({:.2} B/op) at {}",
        bytes as f64 / ops.max(1) as f64,
        out.display()
    );
}

// ------------------------------------------------------------------ replay

fn cmd_replay(mut args: Args) {
    let policy = damage_policy(&mut args);
    let trace_path = args.take("trace");
    let live_workload = args.take("workload");
    let (workload_name, header) = match (&trace_path, &live_workload) {
        (Some(p), None) => {
            // Load the whole capture up front through the registry's own
            // loader, so an unreplayable file dies here with a clear
            // message rather than as a panic inside a sweep worker; the
            // sweep's scenarios then reuse this decode from the cache.
            let (capture, _) = replay_thread_set(Path::new(p), policy)
                .unwrap_or_else(|e| die(format!("{p}: {e}")));
            (
                format!("{}:{p}", policy.prefix()),
                Some(capture.header.clone()),
            )
        }
        (None, Some(w)) => {
            if policy == DamagePolicy::Skip {
                die("--resilient applies to --trace replays; a live --workload has no capture to repair");
            }
            (w.clone(), None)
        }
        _ => die("replay needs exactly one of --trace PATH / --workload NAME"),
    };

    let scheme_name = args.take("scheme").unwrap_or_else(|| "mithril".into());
    let flip_th: u64 = args.take_parsed("flip-th").unwrap_or(6_250);
    let rfm_th = args.take_parsed("rfm-th");
    let nbl_scale: u64 = args.take_parsed("nbl-scale").unwrap_or(6);
    let threads: usize = args.take_parsed("threads").unwrap_or_else(default_threads);
    let shard_size: usize = args.take_parsed("shard-size").unwrap_or(1);
    let out = args.take("out");
    let obs_dir = args.take("obs");
    let metrics_only = args.flag("metrics-only");

    // Header defaults, CLI overrides on top.
    let base_seed: u64 = args
        .take_parsed("seed")
        .or(header.as_ref().map(|h| h.base_seed))
        .unwrap_or(1);
    let cores: usize = args
        .take_parsed("cores")
        .or(header.as_ref().map(|h| h.cores))
        .unwrap_or(4);
    let insts: u64 = args
        .take_parsed("insts")
        .or(header.as_ref().map(|h| h.insts_per_core).filter(|&i| i > 0))
        .unwrap_or(20_000);
    let geometry = match &header {
        Some(h) => {
            if args.take("channels").is_some() || args.take("ranks").is_some() {
                die(
                    "a capture only replays on the geometry it was recorded against \
                     (it is in the header); --channels/--ranks apply to --workload runs",
                );
            }
            h.geometry
        }
        None => geometry_from(&mut args),
    };
    args.finish();

    let spec = SweepSpec {
        geometries: vec![geometry],
        schemes: schemes_for(&scheme_name, flip_th, rfm_th, nbl_scale),
        workloads: vec![workload_name.clone()],
        flip_th,
        cores,
        insts_per_core: insts,
    };
    let pool = PoolConfig {
        threads,
        shard_size,
    };
    let results = match &obs_dir {
        Some(dir) => {
            let observed = run_sweep_observed(&spec, pool, base_seed, ObsConfig::default(), None);
            write_obs_outputs(Path::new(dir), base_seed, &observed)
                .unwrap_or_else(|e| die(format!("--obs {dir}: {e}")));
            eprintln!("# obs: wrote event logs, time series and {dir}/obs_counts.json");
            observed.into_iter().map(|(r, _)| r).collect()
        }
        None => run_sweep(&spec, pool, base_seed),
    };

    let mut table = String::new();
    for r in &results {
        match &r.outcome {
            Ok(m) => table.push_str(&format!(
                "# {:<40} agg_ipc {:>8.3}  rfms {:>7}  max_disturbance {:>7}  flips {}\n",
                r.scenario.name,
                m.aggregate_ipc,
                m.counters.rfm_commands,
                m.max_disturbance,
                m.flips
            )),
            Err(e) => table.push_str(&format!("# {:<40} unavailable: {e}\n", r.scenario.name)),
        }
    }
    eprint!("{table}");

    let json = if metrics_only {
        metrics_only_json(base_seed, &results)
    } else {
        sweep_json(base_seed, &results)
    };
    write_output(out, &json);
}

// -------------------------------------------------------------------- stat

fn cmd_stat(mut args: Args) {
    let path = args
        .take("trace")
        .unwrap_or_else(|| die("stat needs --trace PATH"));
    let top: usize = args.take_parsed("top").unwrap_or(10);
    let out = args.take("out");
    let policy = damage_policy(&mut args);
    args.finish();

    let file = std::fs::File::open(&path).unwrap_or_else(|e| die(format!("{path}: {e}")));
    let reader =
        MtrcReader::new(BufReader::new(file)).unwrap_or_else(|e| die(format!("{path}: {e}")));
    let (stats, report) =
        stats_from_reader(reader, top, policy).unwrap_or_else(|e| die(format!("{path}: {e}")));
    if let Some(line) = report.skip_line(&path) {
        eprintln!("{line}");
    }
    // A skipping read's statistics carry what was skipped to produce them.
    let resilience = (policy == DamagePolicy::Skip).then_some(&report);
    write_output(out, &stats.render_json_with(resilience));
}

// ----------------------------------------------------------------- convert

#[derive(Clone, Copy, PartialEq)]
enum Dialect {
    Mtrc,
    Text(TextFormat),
}

fn dialect_of(path: &str, flag: Option<String>) -> Dialect {
    match flag.as_deref() {
        Some("mtrc") => Dialect::Mtrc,
        Some(name) => Dialect::Text(
            TextFormat::from_name(name).unwrap_or_else(|| die(format!("unknown format {name:?}"))),
        ),
        None if path.ends_with(".mtrc") => Dialect::Mtrc,
        None => Dialect::Text(TextFormat::Ramulator),
    }
}

fn cmd_convert(mut args: Args) {
    let policy = damage_policy(&mut args);
    let input = args
        .take("in")
        .unwrap_or_else(|| die("convert needs --in PATH"));
    let output = args
        .take("out")
        .unwrap_or_else(|| die("convert needs --out PATH"));
    let in_fmt = dialect_of(&input, args.take("in-format"));
    let out_fmt = dialect_of(&output, args.take("out-format"));
    let core: Option<usize> = args.take_parsed("core");

    // Ingest into (header, per-core ops). The header-shaping flags
    // (--source/--seed/--channels/--ranks) only make sense for text input,
    // which has no header of its own; an .mtrc input keeps its header, so
    // silently consuming them would mislead.
    let (header, per_core) = match in_fmt {
        Dialect::Mtrc => {
            for key in ["source", "seed", "channels", "ranks"] {
                if args.take(key).is_some() {
                    die(format!(
                        "--{key} only applies to text input; an .mtrc input keeps its header"
                    ));
                }
            }
            let capture = load_capture(Path::new(&input), policy)
                .unwrap_or_else(|e| die(format!("{input}: {e}")));
            if let Some(line) = capture.report.skip_line(&input) {
                eprintln!("{line}");
            }
            (capture.header.clone(), capture.per_core.clone())
        }
        Dialect::Text(fmt) => {
            if policy == DamagePolicy::Skip {
                die("--resilient only applies to mtrc input (text ingest already reports bad lines)");
            }
            let source = args.take("source");
            let base_seed: u64 = args.take_parsed("seed").unwrap_or(1);
            let geometry = geometry_from(&mut args);
            let file = std::fs::File::open(&input).unwrap_or_else(|e| die(format!("{input}: {e}")));
            let ops: Result<Vec<_>, _> = TextReader::new(BufReader::new(file), fmt).collect();
            let ops = ops.unwrap_or_else(|e| die(format!("{input}: {e}")));
            let header = TraceHeader {
                geometry,
                cores: 1,
                base_seed,
                insts_per_core: 0,
                source: source.unwrap_or_else(|| {
                    Path::new(&input)
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| input.clone())
                }),
            };
            (header, vec![Arc::from(ops)])
        }
    };
    args.finish();

    // --core selects one stream of a multi-core capture, for either output
    // dialect (the resulting MTRC file is single-core).
    let (mut header, mut per_core) = (header, per_core);
    if let Some(c) = core {
        if c >= per_core.len() {
            die(format!(
                "--core {c} out of range (capture has {} cores)",
                per_core.len()
            ));
        }
        per_core = vec![per_core.swap_remove(c)];
        header.cores = 1;
    }

    match out_fmt {
        Dialect::Mtrc => {
            let file =
                std::fs::File::create(&output).unwrap_or_else(|e| die(format!("{output}: {e}")));
            let mut w = MtrcWriter::new(BufWriter::new(file), &header)
                .unwrap_or_else(|e| die(format!("{output}: {e}")));
            for (c, ops) in per_core.iter().enumerate() {
                for &op in ops.iter() {
                    w.push(c, op)
                        .unwrap_or_else(|e| die(format!("{output}: {e}")));
                }
            }
            w.finish().unwrap_or_else(|e| die(format!("{output}: {e}")));
        }
        Dialect::Text(fmt) => {
            if per_core.len() != 1 {
                die(format!(
                    "capture has {} cores; pick one with --core N for text output",
                    per_core.len()
                ));
            }
            let file =
                std::fs::File::create(&output).unwrap_or_else(|e| die(format!("{output}: {e}")));
            let mut w = BufWriter::new(file);
            write_text(&mut w, fmt, per_core[0].iter())
                .unwrap_or_else(|e| die(format!("{output}: {e}")));
            w.flush().unwrap_or_else(|e| die(format!("{output}: {e}")));
        }
    }
    let ops: usize = per_core.iter().map(|ops| ops.len()).sum();
    println!(
        "# converted {input} -> {output} ({ops} ops, {} cores)",
        per_core.len()
    );
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let Some(cmd) = raw.next() else {
        usage();
    };
    let args = Args::parse(raw, &["metrics-only", "resilient"]);
    match cmd.as_str() {
        "record" => cmd_record(args),
        "replay" => cmd_replay(args),
        "stat" => cmd_stat(args),
        "convert" => cmd_convert(args),
        other => die(format!("unknown command {other:?}")),
    }
}
