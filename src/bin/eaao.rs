//! `eaao` — command-line front end to the simulator and attack toolkit.
//!
//! ```text
//! eaao attack     [--region R] [--seed N] [--strategy naive|optimized] [--victims N]
//! eaao fingerprint [--region R] [--seed N] [--instances N] [--gen2]
//! eaao verify      [--region R] [--seed N] [--instances N]
//! eaao explore     [--region R] [--seed N]
//! eaao monitor     [--region R] [--seed N] [--windows N]
//! eaao trace FILE
//! eaao tidy        [--root DIR] [--json PATH|-] [--list-checks]
//! ```
//!
//! Every command is deterministic under `--seed` and runs in milliseconds
//! of real time (the week-long experiments run on virtual time). For the
//! paper's figures and tables use the `repro` binary in `eaao-bench`.
//!
//! Any command accepts `--trace FILE` to stream structured span events and
//! a closing metrics snapshot to `FILE` as JSONL (see
//! `docs/OBSERVABILITY.md`); `eaao trace FILE` summarizes such a file.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use eaao::prelude::*;

struct Common {
    region: String,
    seed: u64,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let command = args.remove(0);
    if command == "trace" {
        // `trace` takes a positional file, unlike every other command.
        let [path] = args.as_slice() else {
            die("trace needs exactly one trace-file argument");
        };
        summarize_trace(Path::new(path));
        return;
    }
    if command == "tidy" {
        // `tidy` owns its flags (--root/--json/--list-checks); forward
        // them untouched instead of parsing them as simulator flags.
        std::process::exit(eaao_tidy::cli::run(&args).into());
    }
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut bare_flags: Vec<String> = Vec::new();
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_owned(), it.next().expect("peeked"));
                }
                _ => bare_flags.push(name.to_owned()),
            }
        } else {
            die(&format!("unexpected argument {arg:?}"));
        }
    }
    let common = Common {
        region: flags
            .get("region")
            .cloned()
            .unwrap_or_else(|| "us-east1".to_owned()),
        seed: flags
            .get("seed")
            .map(|s| s.parse().unwrap_or_else(|_| die("--seed needs an integer")))
            .unwrap_or(2_024),
    };
    let trace = flags.get("trace").map(PathBuf::from);
    match command.as_str() {
        "attack" => run_traced(trace, || attack(&common, &flags)),
        "fingerprint" => run_traced(trace, || fingerprint(&common, &flags, &bare_flags)),
        "verify" => run_traced(trace, || verify(&common, &flags)),
        "explore" => run_traced(trace, || explore(&common)),
        "monitor" => run_traced(trace, || monitor(&common, &flags)),
        "campaign" => campaign(&common, &flags, &bare_flags, trace),
        "serve" => serve(&flags),
        "submit" => submit(&common, &flags, &bare_flags),
        "shutdown" => shutdown(&flags),
        "help" | "--help" | "-h" => usage_and_exit(),
        other => die(&format!("unknown command {other:?}")),
    }
}

/// Runs `run` under a tracing collector when `--trace FILE` was given,
/// writing its span events plus a closing metrics snapshot to the file.
fn run_traced(trace: Option<PathBuf>, run: impl FnOnce()) {
    let Some(path) = trace else {
        return run();
    };
    let writer = TraceWriter::create(&path)
        .unwrap_or_else(|e| die(&format!("cannot create trace file {}: {e}", path.display())));
    let collector = Collector::with_events();
    with_instrument(collector.clone(), run);
    let mut events = collector.drain_events();
    events.extend(collector.metrics_event());
    writer
        .write_events(&events)
        .unwrap_or_else(|e| die(&format!("cannot write trace file {}: {e}", path.display())));
    eprintln!("trace: {} events -> {}", events.len(), path.display());
}

fn summarize_trace(path: &Path) {
    let summary = TraceSummary::read(path)
        .unwrap_or_else(|e| die(&format!("cannot summarize {}: {e}", path.display())));
    print!("{}", summary.render());
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: eaao <command> [flags]\n\
         commands:\n\
           attack       run a co-location attack against a fresh victim\n\
                        [--strategy naive|optimized] [--victims N]\n\
           fingerprint  launch instances and print their host fingerprints [--instances N] [--gen2]\n\
           verify       compare hierarchical vs pairwise verification [--instances N]\n\
           explore      estimate the region's serving-pool size\n\
           monitor      detect victim activity from a co-located instance [--windows N]\n\
           campaign     run a batch experiment grid in parallel, streaming JSONL\n\
                        --spec FILE | --experiments a,b,c [--regions r1,r2]\n\
                        [--platforms cloudrun,lambda-like,azure-like]\n\
                        [--verifiers rng-ctest,membus-lockcheck]\n\
                        [--seeds N] [--out DIR] [--jobs N] [--resume] [--quick]\n\
           serve        run the streaming campaign daemon (docs/SERVICE.md)\n\
                        [--addr A] [--metrics-addr A] [--jobs N] [--out DIR]\n\
                        [--max-pending N] [--dispatchers N]\n\
           submit       submit a campaign to a daemon, streaming records to stdout\n\
                        --addr A (--spec FILE | --experiments a,b,c)\n\
                        [--platforms p1,p2] [--verifiers v1,v2]\n\
                        [--out NAME] [--seeds N] [--quick] [--quiet]\n\
           shutdown     ask a daemon to drain and exit: eaao shutdown --addr A\n\
           trace        summarize a JSONL trace file: eaao trace FILE\n\
           tidy         run the workspace static-analysis pass\n\
                        [--root DIR] [--json PATH|-] [--list-checks]\n\
         common flags: --region us-east1|us-central1|us-west1   --seed N\n\
                       --trace FILE   write structured span/metrics events as JSONL"
    );
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("eaao: {msg}");
    std::process::exit(2);
}

fn parse_or<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags
        .get(key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("--{key} got an invalid value {v:?}")))
        })
        .unwrap_or(default)
}

fn attack(common: &Common, flags: &HashMap<String, String>) {
    let victims = parse_or(flags, "victims", 100usize);
    let strategy = flags
        .get("strategy")
        .map(String::as_str)
        .unwrap_or("optimized");
    let mut arena = Scenario::in_region(&common.region)
        .seed(common.seed)
        .victims(victims)
        .build();
    println!(
        "victim: {} instances in {} (seed {})",
        victims, common.region, common.seed
    );
    let report = match strategy {
        "naive" => NaiveLaunch::default()
            .run(&mut arena.world, arena.attacker)
            .unwrap_or_else(|e| die(&format!("attack failed: {e}"))),
        "optimized" => OptimizedLaunch::default()
            .run(&mut arena.world, arena.attacker)
            .unwrap_or_else(|e| die(&format!("attack failed: {e}"))),
        other => die(&format!("unknown strategy {other:?}")),
    };
    let coverage = measure_coverage(&arena.world, &report.live_instances, &arena.victims);
    println!(
        "attacker ({strategy}): {} instances on {} hosts ({:.0}% of the region), cost {}",
        report.live_instances.len(),
        report.hosts_occupied,
        coverage.attacker_host_coverage() * 100.0,
        report.cost
    );
    println!(
        "victim instance coverage: {:.1}%  (co-located with >=1 victim instance: {})",
        coverage.victim_instance_coverage() * 100.0,
        if coverage.at_least_one() { "yes" } else { "no" }
    );
}

fn fingerprint(common: &Common, flags: &HashMap<String, String>, bare: &[String]) {
    let instances = parse_or(flags, "instances", 100usize);
    let gen2 = bare.iter().any(|f| f == "gen2");
    let mut world = World::new(region_by_name(&common.region), common.seed);
    let account = world.create_account();
    let generation = if gen2 {
        Generation::Gen2
    } else {
        Generation::Gen1
    };
    let service = world.deploy_service(
        account,
        ServiceSpec::default()
            .with_generation(generation)
            .with_max_instances(1_000),
    );
    let launch = world
        .launch(service, instances)
        .unwrap_or_else(|e| die(&format!("launch failed: {e}")));
    let readings = probe_fleet(&mut world, launch.instances(), SimDuration::from_millis(10));
    let mut counts: HashMap<String, usize> = HashMap::new();
    for reading in &readings {
        let label = if gen2 {
            Gen2Fingerprint::from_reading(reading)
                .map(|f| f.to_string())
                .unwrap_or_else(|| "-".to_owned())
        } else {
            Gen1Fingerprinter::default()
                .fingerprint(reading)
                .map(|f| f.to_string())
                .unwrap_or_else(|| "-".to_owned())
        };
        *counts.entry(label).or_default() += 1;
    }
    let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!(
        "{} instances -> {} distinct {} fingerprints:",
        instances,
        rows.len(),
        if gen2 { "Gen 2" } else { "Gen 1" }
    );
    for (fp, n) in rows {
        println!("  {n:>4}  {fp}");
    }
}

fn verify(common: &Common, flags: &HashMap<String, String>) {
    let instances = parse_or(flags, "instances", 100usize);
    let mut world = World::new(region_by_name(&common.region), common.seed);
    let account = world.create_account();
    let service = world.deploy_service(account, ServiceSpec::default().with_max_instances(1_000));
    let launch = world
        .launch(service, instances)
        .unwrap_or_else(|e| die(&format!("launch failed: {e}")));
    let ids = launch.instances().to_vec();
    let readings = probe_fleet(&mut world, &ids, SimDuration::from_millis(10));
    let fingerprinter = Gen1Fingerprinter::default();
    let (groups, _) = group_by_fingerprint(&readings, |r| fingerprinter.fingerprint(r));
    let groups: Vec<Vec<InstanceId>> = groups
        .into_iter()
        .map(|(_, m)| m.iter().map(|&i| readings[i].instance).collect())
        .collect();
    let outcome = HierarchicalVerifier::new()
        .verify(&mut world, &groups)
        .unwrap_or_else(|e| die(&format!("verification failed: {e}")));
    println!(
        "hierarchical: {} clusters, {} tests, {} wall, {} cost",
        outcome.clusters.len(),
        outcome.stats.ctests,
        outcome.stats.wall,
        outcome.stats.cost
    );
    println!(
        "pairwise would need {} tests (~{:.1} h at 100 ms each)",
        pair_count(instances),
        pair_count(instances) as f64 * 0.1 / 3_600.0
    );
}

fn explore(common: &Common) {
    let mut world = World::new(region_by_name(&common.region), common.seed);
    let report = ClusterExplorer::default()
        .run(&mut world)
        .unwrap_or_else(|e| die(&format!("exploration failed: {e}")));
    println!(
        "{}: {} unique apparent hosts after {} launches (true simulated pool: {})",
        common.region,
        report.estimated_hosts,
        report.cumulative.len(),
        report.true_hosts
    );
}

fn monitor(common: &Common, flags: &HashMap<String, String>) {
    let windows = parse_or(flags, "windows", 24usize);
    let mut arena = Scenario::in_region(&common.region)
        .seed(common.seed)
        .victims(50)
        .build();
    let report = OptimizedLaunch {
        services: 2,
        launches_per_service: 3,
        instances_per_launch: 400,
        ..OptimizedLaunch::default()
    }
    .run(&mut arena.world, arena.attacker)
    .unwrap_or_else(|e| die(&format!("attack failed: {e}")));
    let observer = report
        .live_instances
        .iter()
        .copied()
        .find(|&a| arena.victims.iter().any(|&v| arena.world.co_located(a, v)))
        .unwrap_or_else(|| die("no co-located instance this seed; try another"));
    // The victim serves a bursty workload: active every third window.
    let schedule: Vec<bool> = (0..windows).map(|w| w % 3 == 0).collect();
    let trace = monitor_victim_activity(
        &mut arena.world,
        observer,
        &arena.victims,
        &schedule,
        &MonitorConfig::default(),
    )
    .unwrap_or_else(|e| die(&format!("monitoring failed: {e}")));
    let render =
        |bits: &[bool]| -> String { bits.iter().map(|&b| if b { '#' } else { '.' }).collect() };
    println!("victim activity:  {}", render(&schedule));
    println!("attacker detects: {}", render(trace.windows()));
    println!(
        "detection accuracy: {:.1}%",
        trace.accuracy_against(&schedule) * 100.0
    );
}

fn campaign(
    common: &Common,
    flags: &HashMap<String, String>,
    bare: &[String],
    trace: Option<PathBuf>,
) {
    let mut spec = if let Some(path) = flags.get("spec") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read spec {path:?}: {e}")));
        CampaignSpec::from_json(&text).unwrap_or_else(|e| die(&format!("bad spec {path:?}: {e}")))
    } else {
        let Some(experiments) = flags.get("experiments") else {
            die("campaign needs --spec FILE or --experiments a,b,c");
        };
        CampaignSpec {
            experiments: split_list(experiments),
            ..CampaignSpec::default()
        }
    };
    // Flags refine the spec (CLI wins over file).
    if let Some(regions) = flags.get("regions") {
        spec.regions = split_list(regions);
    } else if flags.contains_key("region") {
        spec.regions = vec![common.region.clone()];
    }
    if let Some(platforms) = flags.get("platforms") {
        spec.platforms = split_list(platforms);
    }
    if let Some(verifiers) = flags.get("verifiers") {
        spec.verifiers = split_list(verifiers);
    }
    spec.seeds = parse_or(flags, "seeds", spec.seeds);
    if flags.contains_key("seed") {
        spec.seed = common.seed;
    }
    if bare.iter().any(|f| f == "quick") {
        spec.quick = true;
    }
    spec.validate()
        .unwrap_or_else(|e| die(&format!("invalid campaign: {e}")));

    let out_dir = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("campaign-{}", spec.name));
    let jobs = parse_or(flags, "jobs", 1usize);
    let resume = bare.iter().any(|f| f == "resume");
    let report = Campaign::new(spec, &out_dir)
        .jobs(jobs)
        .resume(resume)
        .trace(trace)
        .run_with_progress(|done, total, record| {
            let status = if record.is_ok() { "ok" } else { "FAILED" };
            println!("[{done:>4}/{total}] {status:>6}  {}", record.key);
        })
        .unwrap_or_else(|e| die(&format!("campaign failed: {e}")));
    println!(
        "{}: {} runs ({} resumed, {} executed, {} failed) -> {out_dir}/results.jsonl",
        report.name, report.total, report.resumed, report.executed, report.failed
    );
    if !report.all_ok() {
        std::process::exit(1);
    }
}

/// Default protocol address shared by `serve`, `submit`, and `shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:4780";

fn serve(flags: &HashMap<String, String>) {
    let config = ServeConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| DEFAULT_ADDR.to_owned()),
        metrics_addr: flags.get("metrics-addr").cloned(),
        jobs: parse_or(flags, "jobs", 2usize),
        out_root: PathBuf::from(
            flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| "serve-out".to_owned()),
        ),
        max_pending: parse_or(flags, "max-pending", 8usize),
        dispatchers: parse_or(flags, "dispatchers", 2usize),
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap_or_else(|e| die(&format!("cannot start: {e}")));
    println!("eaao-serve listening on {}", server.addr());
    if let Some(addr) = server.metrics_addr() {
        println!("metrics scrape endpoint on {addr}");
    }
    server
        .wait()
        .unwrap_or_else(|e| die(&format!("daemon failed: {e}")));
    println!("eaao-serve drained and stopped");
}

fn submit(common: &Common, flags: &HashMap<String, String>, bare: &[String]) {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    let mut spec = if let Some(path) = flags.get("spec") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read spec {path:?}: {e}")));
        CampaignSpec::from_json(&text).unwrap_or_else(|e| die(&format!("bad spec {path:?}: {e}")))
    } else {
        let Some(experiments) = flags.get("experiments") else {
            die("submit needs --spec FILE or --experiments a,b,c");
        };
        CampaignSpec {
            experiments: split_list(experiments),
            ..CampaignSpec::default()
        }
    };
    if let Some(regions) = flags.get("regions") {
        spec.regions = split_list(regions);
    } else if flags.contains_key("region") {
        spec.regions = vec![common.region.clone()];
    }
    if let Some(platforms) = flags.get("platforms") {
        spec.platforms = split_list(platforms);
    }
    if let Some(verifiers) = flags.get("verifiers") {
        spec.verifiers = split_list(verifiers);
    }
    spec.seeds = parse_or(flags, "seeds", spec.seeds);
    if flags.contains_key("seed") {
        spec.seed = common.seed;
    }
    if bare.iter().any(|f| f == "quick") {
        spec.quick = true;
    }
    let spec_json =
        serde_json::to_string(&spec).unwrap_or_else(|e| die(&format!("spec serialization: {e}")));
    let quiet = bare.iter().any(|f| f == "quiet");
    let client =
        Client::connect(&addr).unwrap_or_else(|e| die(&format!("cannot reach {addr}: {e}")));
    let outcome = client
        .submit(&spec_json, flags.get("out").map(String::as_str), |record| {
            // One record per line, exactly as the daemon streamed it —
            // the same bytes the batch path writes to results.jsonl.
            println!("{}", record.json);
            if !quiet {
                eprintln!("[{}/{}] {}", record.done, record.total, record.campaign);
            }
        })
        .unwrap_or_else(|e| die(&format!("submission failed: {e}")));
    eprintln!(
        "{}: {} runs ({} executed, {} failed){}",
        outcome.campaign,
        outcome.total,
        outcome.executed,
        outcome.failed,
        if outcome.complete {
            ""
        } else {
            " [incomplete]"
        }
    );
    if outcome.failed > 0 || !outcome.complete {
        std::process::exit(1);
    }
}

fn shutdown(flags: &HashMap<String, String>) {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    Client::connect(&addr)
        .unwrap_or_else(|e| die(&format!("cannot reach {addr}: {e}")))
        .shutdown()
        .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
    println!("daemon at {addr} is draining");
}

fn split_list(csv: &str) -> Vec<String> {
    csv.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

/// Resolves a region name (CLI-side wrapper around the core lookup).
fn region_by_name(name: &str) -> RegionConfig {
    match name {
        "us-east1" => RegionConfig::us_east1(),
        "us-central1" => RegionConfig::us_central1(),
        "us-west1" => RegionConfig::us_west1(),
        other => die(&format!("unknown region {other:?}")),
    }
}
