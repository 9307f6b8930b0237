//! `droplet-sim` — command-line driver for the DROPLET simulator.
//!
//! ```text
//! droplet-sim run   --algo pr --dataset kron --prefetcher droplet [--scale small]
//! droplet-sim sweep --algo cc --dataset orkut [--scale small]
//! droplet-sim info
//! ```
//!
//! `run` simulates one workload under one configuration and prints the full
//! report; `sweep` compares every evaluated prefetcher on one workload;
//! `trace save`/`trace load` write and replay columnar trace artifacts
//! (DESIGN.md §15); `info` lists algorithms, datasets and configurations.

use droplet::experiments::ExperimentCtx;
use droplet::report::Table;
use droplet::specparse::{self, SpecBuilder, SpecField};
use droplet::trace::{columnar, open_columnar, TraceSource};
use droplet::{
    run_sweep, run_workload, run_workload_from, PrefetcherKind, RunResult, RunSpec, SpecError,
    SweepCell,
};
use droplet_graph::{Dataset, DatasetScale, DegreeStats};
use droplet_trace::DataType;

fn usage() -> ! {
    eprintln!(
        "usage:\n  droplet-sim run   --algo <bc|bfs|pr|sssp|cc> --dataset <kron|urand|orkut|livejournal|road>\n\
         \x20                   [--prefetcher <none|ghb|vldp|stream|streammpp1|droplet|mono|adaptive>]\n\
         \x20                   [--scale <tiny|small|sim>] [--budget <ops>] [--threads <n>]\n\
         \x20                   [--obs <journal.jsonl>] [--epoch-ops <n>] [--fork-sweep|--no-fork]\n\
         \x20                   [--l1-policy|--l2-policy|--l3-policy <lru|srrip|brrip|drrip|ship>]\n\
         \x20 droplet-sim sweep --algo <...> --dataset <...> [--scale <...>] [--budget <ops>] [--threads <n>]\n\
         \x20                   [--fork-sweep|--no-fork] [--l3-policy <...>]\n\
         \x20 droplet-sim trace save --algo <...> --dataset <...> [--scale <...>] [--budget <ops>]\n\
         \x20                   --trace-file <artifact.dcol>\n\
         \x20 droplet-sim trace load --algo <...> --dataset <...> [--scale <...>] [--budget <ops>]\n\
         \x20                   --trace-file <artifact.dcol> [--prefetcher <...>] [--obs <journal.jsonl>]\n\
         \x20 droplet-sim info\n\
         \x20 --threads overrides DROPLET_THREADS (default: all cores; 1 = fully serial)\n\
         \x20 --obs enables epoch sampling and writes the JSONL run journal there (run, trace load)\n\
         \x20 --epoch-ops sets retired ops per epoch (default 10000; implies sampling was wanted)\n\
         \x20 --fork-sweep/--no-fork: share one warm-up simulation across same-hierarchy configs\n\
         \x20   (default: on for multi-config invocations; results are bit-identical either way)\n\
         \x20 --l1-policy/--l2-policy/--l3-policy: replacement policy per level (default lru)"
    );
    std::process::exit(2);
}

/// Unwraps a parsed flag value, printing the offending flag and value to
/// stderr — the same field-level message `droplet-serve` returns as an
/// HTTP 400, under the flag's spelling (`--l1-policy`, not `l1_policy`) —
/// before the usage text.
fn flag_value<T>(flag: &str, parsed: Result<T, SpecError>) -> T {
    parsed.unwrap_or_else(|e| {
        let field = flag.trim_start_matches('-').to_string();
        eprintln!("error: --{}", SpecError { field, ..e });
        usage()
    })
}

/// The command-line flags that are not spec fields.
#[derive(Default)]
struct Args {
    threads: Option<usize>,
    obs_path: Option<String>,
    fork: Option<bool>,
    trace_file: Option<String>,
}

/// Splits the command line into the spec — every `--<field>` flag of
/// [`SPEC_FIELDS`](specparse::SPEC_FIELDS) goes through the same table the
/// `droplet-serve` JSON bodies do — and the CLI-only flags. A missing
/// `--algo` or `--dataset` prints the usage.
fn parse_flags(rest: &[String]) -> (RunSpec, Args) {
    let mut spec = SpecBuilder::default();
    let mut args = Args::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        // Boolean flags take no value.
        match flag.as_str() {
            "--fork-sweep" => {
                args.fork = Some(true);
                continue;
            }
            "--no-fork" => {
                args.fork = Some(false);
                continue;
            }
            _ => {}
        }
        let Some(value) = it.next() else {
            eprintln!("error: {flag}: missing value");
            usage()
        };
        match flag.as_str() {
            "--threads" => {
                let n = specparse::parse_positive_usize("threads", value);
                args.threads = Some(flag_value(flag, n));
            }
            "--obs" => args.obs_path = Some(value.clone()),
            "--trace-file" => args.trace_file = Some(value.clone()),
            _ => match SpecField::for_flag(flag) {
                Some(field) => flag_value(flag, spec.set(field.name, value)),
                None => {
                    eprintln!("error: {flag}: unknown flag");
                    usage()
                }
            },
        }
    }
    let mut spec = spec.finish(DatasetScale::Small).unwrap_or_else(|_| usage());
    if args.obs_path.is_some() {
        spec.epoch_ops.get_or_insert(10_000);
    }
    (spec, args)
}

/// Rejects `--obs` on a command that simulates no single configuration
/// to journal, instead of accepting it and writing nothing.
fn refuse_obs(cmd: &str, args: &Args) {
    if args.obs_path.is_some() {
        eprintln!(
            "error: --obs: not supported by `{cmd}` (only `run` and `trace load` write a journal)"
        );
        usage()
    }
}

/// Prints the shared-warm-up NOTE when any of the runs was forked from a
/// common warmed snapshot (alongside the warm-up-clamp NOTE in `report`).
fn report_fork_note(results: &[&RunResult]) {
    let forked: Vec<_> = results
        .iter()
        .filter(|r| r.manifest.forked_from.is_some())
        .collect();
    if let Some(first) = forked.first() {
        println!(
            "NOTE: forked: shared_warmup_ops={} configs={}",
            first.manifest.warmup_shared.unwrap_or(0),
            forked.len()
        );
    }
}

fn report(label: &str, r: &RunResult) {
    println!("--- {label} ---");
    println!("cycles               {}", r.core.cycles);
    println!("instructions         {}", r.core.instructions);
    println!("IPC                  {:.3}", r.core.ipc());
    println!("cycle stack          {}", r.core.cycle_stack);
    println!("DRAM MLP             {:.2}", r.core.mlp.avg_outstanding);
    println!("LLC MPKI             {:.1}", r.llc_mpki());
    println!("L2 hit rate          {:.1}%", 100.0 * r.l2_hit_rate());
    println!("BPKI                 {:.1}", r.bpki());
    println!(
        "BW utilization       {:.1}%",
        100.0 * r.bandwidth_utilization()
    );
    for dt in DataType::ALL {
        let b = r.service_breakdown(dt);
        println!(
            "{dt:>12} serviced  L1 {:>5.1}%  L2 {:>5.1}%  L3 {:>5.1}%  DRAM {:>5.1}%",
            100.0 * b[0],
            100.0 * b[1],
            100.0 * b[2],
            100.0 * b[3]
        );
    }
    if let Some(mpp) = &r.mpp {
        println!(
            "MPP                  scanned {} lines, {} candidates, {} walks, drops {}/{}",
            mpp.lines_scanned,
            mpp.candidates,
            mpp.mtlb_walks,
            mpp.buffer_drops,
            mpp.page_fault_drops
        );
        println!(
            "prefetch accuracy    structure {:.0}%, property {:.0}%",
            100.0 * r.prefetch_accuracy(DataType::Structure),
            100.0 * r.prefetch_accuracy(DataType::Property)
        );
    }
    if let Some(locked) = r.sys.adaptive_locked_data_aware {
        println!(
            "adaptive mode        locked {}",
            if locked {
                "data-aware"
            } else {
                "conventional (streamMPP1)"
            }
        );
    }
    if r.warmup_clamped {
        println!(
            "NOTE: warm-up clamped {} -> {} ops (half-warm run)",
            r.warmup_ops_requested, r.warmup_ops_applied
        );
    }
    println!("digest               {:016x}", r.digest());
    println!("manifest             {}", r.manifest.render_json());
}

/// Writes the run journal as JSONL: a `{"manifest": …}` line (enriched
/// with the workload label, thread count, and trace-cache occupancy the
/// library can't know), then one line per epoch.
fn write_journal(path: &str, r: &RunResult, workload: &str, ctx: &ExperimentCtx) {
    let Some(journal) = &r.journal else {
        eprintln!("no journal recorded (sampling was not enabled)");
        return;
    };
    let mut manifest = r.manifest.clone();
    manifest.workload = Some(workload.to_string());
    manifest.threads = Some(ctx.pool.threads());
    manifest.trace_cache_len = Some(ctx.traces.len() as u64);
    manifest.trace_cache_bytes = Some(ctx.traces.resident_bytes());
    let text = format!(
        "{{\"manifest\": {}}}\n{}",
        manifest.render_json(),
        journal.to_jsonl()
    );
    match std::fs::write(path, text) {
        Ok(()) => eprintln!("journal: {} epochs -> {path}", journal.epoch_count()),
        Err(e) => eprintln!("cannot write journal {path}: {e}"),
    }
}

fn cmd_info() {
    println!("algorithms:   bc bfs pr sssp cc          (paper Table II)");
    println!("datasets:     kron urand orkut livejournal road  (paper Table III)");
    println!("prefetchers:  none ghb vldp stream streammpp1 droplet mono adaptive");
    println!("policies:     lru srrip brrip drrip ship     (per level: --l1/--l2/--l3-policy)");
    println!("scales:       tiny (~8K vertices) small (~32K) sim (~1-2M, Table I hierarchy)");
    println!();
    for d in Dataset::ALL {
        let g = d.build(DatasetScale::Tiny);
        println!(
            "{:>12} (tiny): {} vertices, {} edges, {}",
            d.name(),
            g.num_vertices(),
            g.num_edges(),
            DegreeStats::of(&g)
        );
    }
}

/// `trace save` / `trace load`: write a workload's op stream as a columnar
/// artifact, or replay one zero-copy from its mapped bytes. Both rebuild
/// the bundle (load needs the address space and functional memory, which
/// the artifact deliberately does not carry); load verifies the artifact's
/// content digest against the rebuilt ops before replaying.
fn cmd_trace(sub: &str, spec: &RunSpec, args: &Args) {
    let Some(file) = &args.trace_file else {
        usage()
    };
    if sub == "save" {
        refuse_obs("trace save", args);
    }
    let ctx = ExperimentCtx::at(spec.scale).with_budget(spec.budget);
    let workload = spec.workload();
    eprintln!("building {} at {:?} scale...", workload.label(), spec.scale);
    let bundle = ctx.trace(&workload);
    match sub {
        "save" => {
            let encoded = columnar::encode(&bundle.ops);
            let raw = bundle.ops.len() * std::mem::size_of::<droplet::trace::MemOp>();
            if let Err(e) = std::fs::write(file, &encoded) {
                eprintln!("cannot write {file}: {e}");
                std::process::exit(1);
            }
            println!(
                "saved {} ops -> {file}: {} bytes ({:.2}x vs resident), digest {:016x}",
                bundle.ops.len(),
                encoded.len(),
                raw as f64 / encoded.len().max(1) as f64,
                columnar::content_digest(&bundle.ops)
            );
        }
        "load" => {
            let mut source = open_columnar(file.as_ref()).unwrap_or_else(|e| {
                eprintln!("cannot open {file}: {e}");
                std::process::exit(1);
            });
            let expect = columnar::content_digest(&bundle.ops);
            if source.digest() != expect {
                eprintln!(
                    "artifact digest {:016x} does not match this workload's ops ({expect:016x}); \
                     was it saved with the same --algo/--dataset/--scale/--budget?",
                    source.digest()
                );
                std::process::exit(1);
            }
            eprintln!(
                "replaying {} ops from {} ({})",
                source.op_count(),
                file,
                if source.backing().is_mapped() {
                    "mmap, zero-copy"
                } else {
                    "owned buffer fallback"
                }
            );
            let r = run_workload_from(&mut source, &bundle, &spec.config(&ctx.base), ctx.warmup);
            report(&format!("{} (columnar replay)", spec.prefetcher.name()), &r);
            if let Some(path) = &args.obs_path {
                write_journal(path, &r, &workload.label(), &ctx);
            }
        }
        _ => usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let Some(cmd) = argv.get(1) else { usage() };
    match cmd.as_str() {
        "info" => cmd_info(),
        "trace" => {
            let Some(sub) = argv.get(2) else { usage() };
            let (spec, args) = parse_flags(&argv[3..]);
            cmd_trace(sub, &spec, &args);
        }
        "run" | "sweep" => {
            let (spec, args) = parse_flags(&argv[2..]);
            if cmd == "sweep" {
                refuse_obs("sweep", &args);
            }
            let mut ctx = ExperimentCtx::at(spec.scale).with_budget(spec.budget);
            if let Some(n) = args.threads {
                ctx = ctx.with_threads(n);
            }
            if let Some(fork) = args.fork {
                ctx = ctx.with_fork_sweeps(fork);
            }
            let workload = spec.workload();
            eprintln!("building {} at {:?} scale...", workload.label(), spec.scale);
            let bundle = ctx.trace(&workload);
            eprintln!(
                "trace: {} ops ({} instructions), completed: {}",
                bundle.ops.len(),
                bundle.instructions,
                bundle.completed
            );
            let cell = |kind| SweepCell {
                bundle: std::sync::Arc::clone(&bundle),
                cfg: spec.config_for(&ctx.base, kind),
            };
            if cmd == "run" {
                let kind = spec.prefetcher;
                let (base, main_run) = if kind != PrefetcherKind::None {
                    // Two configs sharing one hierarchy: share the warm-up.
                    let cells = [cell(PrefetcherKind::None), cell(kind)];
                    let mut out = run_sweep(&ctx.pool, &cells, ctx.warmup, ctx.fork_sweeps);
                    let r = out.pop().expect("two sweep results");
                    let base = out.pop().expect("two sweep results");
                    (base, Some(r))
                } else {
                    let cfg = cell(PrefetcherKind::None).cfg;
                    (run_workload(&bundle, &cfg, ctx.warmup), None)
                };
                report("baseline (no prefetch)", &base);
                if let Some(r) = &main_run {
                    report(kind.name(), r);
                    println!(
                        "\nspeedup over baseline: {:.2}x",
                        base.core.cycles as f64 / r.core.cycles.max(1) as f64
                    );
                }
                let mut all: Vec<&RunResult> = vec![&base];
                all.extend(main_run.as_ref());
                report_fork_note(&all);
                if let Some(path) = &args.obs_path {
                    // Journal the configuration under test (the baseline
                    // when `--prefetcher none` made it the only run).
                    let r = main_run.as_ref().unwrap_or(&base);
                    write_journal(path, r, &workload.label(), &ctx);
                }
            } else {
                let mut t = Table::new(vec![
                    "config".into(),
                    "speedup".into(),
                    "L2 hit".into(),
                    "LLC MPKI".into(),
                    "BPKI".into(),
                ]);
                let mut kinds = PrefetcherKind::EVALUATED.to_vec();
                kinds.push(PrefetcherKind::AdaptiveDroplet);
                // Baseline plus every prefetcher over one shared warm-up.
                let cells: Vec<SweepCell> = std::iter::once(PrefetcherKind::None)
                    .chain(kinds.iter().copied())
                    .map(cell)
                    .collect();
                let all = run_sweep(&ctx.pool, &cells, ctx.warmup, ctx.fork_sweeps);
                let (base, results) = (&all[0], &all[1..]);
                for (kind, r) in kinds.iter().zip(results) {
                    t.row(vec![
                        kind.name().into(),
                        format!(
                            "{:.2}x",
                            base.core.cycles as f64 / r.core.cycles.max(1) as f64
                        ),
                        format!("{:.1}%", 100.0 * r.l2_hit_rate()),
                        format!("{:.1}", r.llc_mpki()),
                        format!("{:.1}", r.bpki()),
                    ]);
                }
                println!("{}", t.render());
                report_fork_note(&all.iter().collect::<Vec<_>>());
            }
        }
        _ => usage(),
    }
}
