//! Argument parsing and command execution for the `oblivion` CLI.
//!
//! Hand-rolled (no argument-parsing dependency). Every subcommand declares
//! its flags in one static table (`COMMANDS`): [`parse_args`] rejects
//! any flag its command's table lacks, checks every value once and leaves
//! defaults to the table, and [`help`] is generated from the same rows.

use crate::routing::{route_all_metered, ObliviousRouter};
use oblivion_faults::{FaultConfig, FaultMode, FaultPlan, RecoveryPolicy};
use oblivion_mesh::{Coord, Mesh};
use oblivion_metrics::{congestion_lower_bound, PathSetMetrics};
use oblivion_sim::{SchedulingPolicy, Simulation};
use oblivion_workloads as wl;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;
use Kind::{Bool, Check, Choice, Repeat, Str, F64, U64};

/// How a flag's value is written and checked.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A bare switch, never followed by a value.
    Bool,
    /// Text the command parses itself (a mesh spec, a coordinate, a path).
    Str,
    /// Repeatable text; occurrences are joined with `,`, which no mesh spec
    /// contains (`serve --mesh`).
    Repeat,
    /// An integer in `min..=max`.
    U64(u64, u64),
    /// A number in `[min, max]` (NaN never is).
    F64(f64, f64),
    /// One of a fixed list of names.
    Choice(&'static [&'static str]),
    /// Text a function accepts; its error names the flag.
    Check(fn(&str) -> Result<(), String>),
}

const ANY: Kind = U64(0, u64::MAX);
const NONZERO: Kind = U64(1, u64::MAX);
const MAX32: u64 = u32::MAX as u64;
const U32: Kind = U64(0, MAX32);
const TCP_PORT: Kind = U64(1, u16::MAX as u64);
const PROB: Kind = F64(0.0, 1.0);

/// One row of a subcommand's flag table.
#[derive(Debug, Clone, Copy)]
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value when the flag is absent, as typed (`""`: none).
    default: &'static str,
    help: &'static str,
    /// Left out of `help`: test hooks.
    hidden: bool,
}

const fn row(name: &'static str, kind: Kind, default: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        default,
        help,
        hidden: false,
    }
}

const fn hidden(name: &'static str, kind: Kind, default: &'static str) -> Flag {
    Flag {
        hidden: true,
        ..row(name, kind, default, "")
    }
}

impl Flag {
    fn check(&self, raw: &str) -> Result<(), String> {
        let ok = match self.kind {
            Bool | Str | Repeat => true,
            U64(min, max) => raw.parse().is_ok_and(|v: u64| (min..=max).contains(&v)),
            F64(min, max) => raw.parse().is_ok_and(|v: f64| (min..=max).contains(&v)),
            Choice(names) => names.contains(&raw),
            Check(f) => return f(raw),
        };
        if ok {
            return Ok(());
        }
        let want = match self.kind {
            U64(min, u64::MAX) => format!("an integer >= {min}"),
            U64(min, max) => format!("an integer in {min}..={max}"),
            F64(min, max) => format!("a number in [{min}, {max}]"),
            Choice(names) => format!("one of {}", names.join("|")),
            _ => unreachable!("text kinds accept every value"),
        };
        Err(format!("--{} must be {want}, got `{raw}`", self.name))
    }
}

/// A command's flag table, as groups of rows (shared groups are reused).
type Groups = &'static [&'static [Flag]];

type Run = fn(&Args) -> Result<String, String>;

/// One subcommand: its name, its flag groups, its body and its `help` line.
#[derive(Debug)]
struct Command {
    name: &'static str,
    flags: Groups,
    run: Run,
    /// The summary line of `help`; `""` hides the command.
    about: &'static str,
}

const fn cmd(name: &'static str, flags: Groups, run: Run, about: &'static str) -> Command {
    Command {
        name,
        flags,
        run,
        about,
    }
}

/// `--metrics-out` and `--trace`, accepted by every command.
const OBS: &[Flag] = &[
    row("metrics-out", Str, "", "JSONL metrics file"),
    row("trace", Bool, "", "span summary on stderr"),
];

const POLICIES: Kind = Choice(&[
    "fifo",
    "ftg",
    "ctg",
    "rank",
    "furthest",
    "closest",
    "random-rank",
]);
const PATTERNS: Kind = Choice(&["uniform", "transpose"]);
const FAULT_MODES: Kind = Choice(&["permanent", "transient"]);
const RECOVERIES: Kind = Choice(&["wait", "resample", "drop", "drop-after-budget"]);
const SEED: Flag = row("seed", ANY, "42", "RNG seed");
const TORUS: Flag = row("torus", Bool, "", "wrap-around links");
const PORT: Flag = row("port", TCP_PORT, "", "TCP port (required)");
const HOST: Flag = row("host", Str, "127.0.0.1", "address");
const TIMEOUT: Flag = row("timeout-ms", NONZERO, "2000", "socket timeout");

const fn mesh(default: &'static str) -> Flag {
    row("mesh", Str, default, "sides, e.g. 64x64")
}

const fn router(default: &'static str) -> Flag {
    row("router", Choice(ROUTER_NAMES), default, "see ROUTERS")
}

const fn policy(default: &'static str) -> Flag {
    row("policy", POLICIES, default, "fifo, ftg, ctg or rank")
}

/// The mesh, router, seed and torus of route/path/simulate/bracket.
const fn routed(mesh_default: &'static str) -> [Flag; 4] {
    [mesh(mesh_default), TORUS, router("buschd"), SEED]
}

const fn workload(default: &'static str) -> [Flag; 2] {
    [
        row("workload", Choice(WORKLOAD_NAMES), default, "see WORKLOADS"),
        row("workload-file", Str, "", "`x1,y1 -> x2,y2` lines"),
    ]
}

const ONLINE: Groups = &[&[
    mesh("16x16"),
    router("buschd"),
    policy("fifo"),
    row("steps", ANY, "500", "injection steps"),
    row("fault-links", PROB, "0", "link failure prob."),
    row("fault-nodes", PROB, "0", "node failure prob."),
    row("drop-prob", PROB, "0", "per-hop drop prob."),
    row("fault-mode", FAULT_MODES, "permanent", "failure model"),
    row("mttr", NONZERO, "20", "mean steps to repair"),
    row("mtbf", NONZERO, "200", "mean steps to failure"),
    row("recovery", RECOVERIES, "resample", "wait, resample or drop"),
    row("retry-budget", U64(1, MAX32), "16", "retries before drop"),
    row("fault-seed", ANY, "", "schedule seed [default: --seed]"),
    SEED,
    row("rate", PROB, "0.05", "injection rate"),
    row("pattern", PATTERNS, "uniform", "traffic"),
    row("threads", NONZERO, "1", "shard threads; same output"),
    row("checkpoint-dir", Str, "", "snapshot dir; a rerun resumes"),
    row("checkpoint-every", ANY, "0", "snapshot period"),
    hidden("ckpt-stop-at", ANY, ""),
]];

/// `serve`'s straggler knobs; any of them needs `--chaos-seed`.
const CHAOS: [Flag; 7] = [
    row("chaos-stall-prob", PROB, "0", "compute stall"),
    row("chaos-stall-ms", NONZERO, "5", "stall scale"),
    row("chaos-write-prob", PROB, "0", "slow reply write"),
    row("chaos-write-ms", NONZERO, "5", "write stall"),
    row("chaos-reset-prob", PROB, "0", "connection reset"),
    row("chaos-pause-prob", PROB, "0", "worker pause"),
    row("chaos-pause-ms", NONZERO, "20", "pause length"),
];

const SERVE: Groups = &[
    &[
        row("mesh", Repeat, "16x16", "NxN[:id], repeatable"),
        router("buschd"),
        PORT,
        HOST,
        row("health-port", TCP_PORT, "", "probe+ADMIN port (port+1)"),
        row("no-health", Bool, "", "no probe listener"),
        row("threads", NONZERO, "4", "worker threads"),
        row("queue", NONZERO, "64", "overflow slots"),
        row("batch-max", NONZERO, "64", "lines per burst"),
        row("deadline-ms", NONZERO, "1000", "request deadline"),
        row("drain-ms", NONZERO, "2000", "SIGTERM drain budget"),
        row("tenant-quota", NONZERO, "", "lines/s, burst, in flight"),
        row("stats-every", NONZERO, "", "flush stats every MS"),
        hidden("work-us", ANY, "0"),
        row("chaos-seed", ANY, "", "needed by every --chaos-* knob"),
    ],
    &CHAOS,
];

const LOADGEN: Groups = &[&[
    mesh("16x16"),
    PORT,
    HOST,
    SEED,
    row("requests", NONZERO, "200", "requests to send"),
    row("concurrency", NONZERO, "8", "client threads"),
    row("retries", U32, "8", "retries per request"),
    row("backoff-ms", NONZERO, "10", "first retry backoff"),
    row("backoff-cap-ms", NONZERO, "500", "retry backoff cap"),
    TIMEOUT,
    row("keep-alive", Bool, "", "persistent connections"),
    row("pipeline", NONZERO, "1", "lines in flight per conn"),
    row("rate", Check(positive_rate), "", "open loop: req/s"),
    row("hedge-after", Check(hedge_after), "", "p99 or MS"),
    row("mesh-id", Str, "", "send as MESH <id>"),
    row("tenant-mix", Check(tenant_mix), "", "e.g. a=0.8,b=0.2"),
]];

const TOP: Groups = &[&[
    PORT,
    HOST,
    row("interval-ms", NONZERO, "1000", "poll period"),
    row("iterations", NONZERO, "", "stop after N polls"),
    TIMEOUT,
    row("check", Bool, "", "fail on a conservation break"),
]];

const ROUTE: Groups = &[
    &routed("32x32"),
    &workload("random-perm"),
    &[row("simulate", POLICIES, "", "deliver; report makespan")],
];

const PATH: Groups = &[
    &routed("32x32"),
    &[
        row("from", Str, "", "source, e.g. 3,4 (required)"),
        row("to", Str, "", "destination (required)"),
    ],
];

const SIMULATE: Groups = &[
    &routed("32x32"),
    &workload("random-perm"),
    &[policy("ftg"), row("max-delay", ANY, "", "random delays")],
];

const DECOMPOSE: Groups = &[&[
    mesh("8x8"),
    row("level", U32, "1", "decomposition level"),
    row("kind", Choice(&["1", "2"]), "1", "submesh type"),
]];

const PIA: Groups = &[&[
    mesh("32x32"),
    router("dim-order"),
    SEED,
    row("l", U32, "8", "slab width"),
    row("samples", ANY, "1", "paths sampled per pair"),
    row("out", Str, "", "write here, not stdout"),
]];

/// Every subcommand, in `help` order.
const COMMANDS: &[Command] = &[
    cmd("route", ROUTE, cmd_route, "report C, D, stretch, C* bound"),
    cmd("path", PATH, cmd_path, "route one packet, print the hops"),
    cmd("heatmap", HEATMAP, cmd_heatmap, "congestion heat-map"),
    cmd("decompose", DECOMPOSE, cmd_decompose, "draw 2-D levels"),
    cmd("pia", PIA, cmd_pia, "build Section 5's Pi_A for a router"),
    cmd("bracket", BRACKET, cmd_bracket, "lb <= C* <= C(offline)"),
    cmd("online", ONLINE, cmd_online, "latency vs injection load"),
    cmd("simulate", SIMULATE, cmd_simulate, "makespan vs C+D"),
    cmd("serve", SERVE, cmd_serve, "overload-safe TCP path service"),
    cmd("loadgen", LOADGEN, cmd_loadgen, "client for `serve`"),
    cmd("top", TOP, cmd_top, "live view of a daemon's health port"),
    cmd("stats", STATS, cmd_stats, "render a --metrics-out file"),
    cmd("list", &[], cmd_list, "list routers and workloads"),
    cmd("help", &[], |_| Ok(help()), "this text"),
];

const HEATMAP: Groups = &[
    &[mesh("16x16"), router("buschd"), SEED],
    &workload("transpose"),
];
const BRACKET: Groups = &[&routed("16x16"), &workload("random-perm")];
const STATS: Groups = &[&[row("file", Str, "", "also positional")]];

fn positive_rate(raw: &str) -> Result<(), String> {
    match raw.parse::<f64>() {
        Ok(r) if r.is_finite() && r > 0.0 => Ok(()),
        _ => Err(format!("--rate must be a positive req/s rate, got `{raw}`")),
    }
}

fn hedge_after(raw: &str) -> Result<(), String> {
    match raw.parse::<u64>() {
        Ok(ms) if ms > 0 => Ok(()),
        _ if raw == "p99" => Ok(()),
        _ => Err(format!("--hedge-after must be p99 or ms >= 1, got `{raw}`")),
    }
}

fn tenant_mix(raw: &str) -> Result<(), String> {
    parse_tenant_mix(raw).map(drop)
}

/// A command's flags: its own groups, then [`OBS`].
fn flags(cmd: &Command) -> impl Iterator<Item = &'static Flag> + '_ {
    cmd.flags.iter().flat_map(|g| g.iter()).chain(OBS)
}

/// A parsed command line: the subcommand plus the flags given, checked
/// against the subcommand's table. Absent flags read as their defaults.
#[derive(Debug, Clone)]
pub struct Args {
    cmd: &'static Command,
    given: BTreeMap<&'static str, String>,
}

impl Args {
    /// The subcommand (`route`, `online`, `serve`, ...).
    pub fn command(&self) -> &'static str {
        self.cmd.name
    }

    /// The value typed on the command line, if any (`""` for a switch).
    pub fn given(&self, name: &str) -> Option<&str> {
        self.given.get(name).map(String::as_str)
    }

    /// The value typed, else the table default.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.given(name).or_else(|| {
            let flag = flags(self.cmd).find(|f| f.name == name)?;
            Some(flag.default).filter(|d| !d.is_empty())
        })
    }

    /// Whether a switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value of a flag that has a default or is required.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// [`Args::str`] as a number.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let raw = self.str(name)?;
        raw.parse()
            .map_err(|e| format!("bad --{name} `{raw}`: {e}"))
    }

    /// [`Args::num`] as a duration in milliseconds.
    pub fn millis(&self, name: &str) -> Result<Duration, String> {
        self.num(name).map(Duration::from_millis)
    }

    /// [`Args::num`] for a flag with no default: `None` when absent.
    pub fn opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name).map(|_| self.num(name)).transpose()
    }
}

/// Parses raw arguments (without the program name).
///
/// Grammar: `SUBCOMMAND (--flag value | --switch)*`, where each flag must
/// be a row of the subcommand's table and its value must pass the row's
/// check. A command with a `file` row (`stats`) also takes it as one
/// positional argument. Repeats of `serve --mesh` accumulate; any other
/// flag is last-wins.
pub fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut it = raw.iter();
    let name = it
        .next()
        .ok_or_else(|| "missing subcommand; try `oblivion help`".to_string())?;
    let name = if name == "--help" || name == "-h" {
        "help"
    } else {
        name
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`; try `oblivion help`"))?;
    let mut given: BTreeMap<&'static str, String> = BTreeMap::new();
    while let Some(token) = it.next() {
        let Some(key) = token.strip_prefix("--") else {
            match flags(cmd).find(|f| f.name == "file") {
                Some(f) if !given.contains_key(f.name) => {
                    given.insert(f.name, token.clone());
                    continue;
                }
                _ => return Err(format!("expected --flag, got `{token}`")),
            }
        };
        let flag = flags(cmd)
            .find(|f| f.name == key)
            .ok_or_else(|| format!("`{}` takes no --{key} flag", cmd.name))?;
        let value = match flag.kind {
            Bool => String::new(),
            _ => it
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone(),
        };
        flag.check(&value)?;
        match (flag.kind, given.get_mut(flag.name)) {
            (Repeat, Some(v)) => {
                v.push(',');
                v.push_str(&value);
            }
            _ => {
                given.insert(flag.name, value);
            }
        }
    }
    Ok(Args { cmd, given })
}

/// The `help` text, generated from the flag tables.
pub fn help() -> String {
    let mut s = String::from(
        "oblivion — oblivious path selection on the mesh (Busch/Magdon-Ismail/Xi, IPDPS'05)\n\n\
         USAGE: oblivion <COMMAND> [--flag value | --switch]...\n\nCOMMANDS:\n",
    );
    for cmd in COMMANDS.iter().filter(|c| !c.about.is_empty()) {
        let _ = writeln!(s, "  {:<10}{}", cmd.name, cmd.about);
        cmd.flags
            .iter()
            .flat_map(|g| g.iter())
            .for_each(|f| help_line(&mut s, f));
    }
    s.push_str("\nANY COMMAND:\n");
    OBS.iter().for_each(|f| help_line(&mut s, f));
    let _ = writeln!(s, "\nROUTERS:   {}", ROUTER_NAMES.join(", "));
    let _ = writeln!(s, "WORKLOADS: {}", WORKLOAD_NAMES.join(", "));
    s
}

fn help_line(s: &mut String, f: &Flag) {
    if f.hidden {
        return;
    }
    let meta = match f.kind {
        Bool => String::new(),
        U64(..) => " N".into(),
        F64(..) => " P".into(),
        Choice(names) if names.join("|").len() <= 20 => format!(" {}", names.join("|")),
        Choice(_) => " NAME".into(),
        Str | Repeat | Check(_) => " VALUE".into(),
    };
    let flag = format!("--{}{meta}", f.name);
    let _ = write!(s, "      {flag:<28} {}", f.help);
    if !f.default.is_empty() {
        let _ = write!(s, " [default: {}]", f.default);
    }
    s.push('\n');
}

/// The shared factory of `oblivion-core`, so the command line and the
/// serve registry's `ADMIN ADD` accept the same mesh specs and router
/// names and reject bad ones with the same messages.
pub use crate::routing::{
    build_router as make_router, implies_torus, parse_mesh_spec, ROUTER_NAMES,
};

/// Parses a coordinate like `3,4` against a mesh.
pub fn parse_coord(spec: &str, mesh: &Mesh) -> Result<Coord, String> {
    let xs: Result<Vec<u32>, _> = spec.split(',').map(str::parse::<u32>).collect();
    let xs = xs.map_err(|e| format!("bad coordinate `{spec}`: {e}"))?;
    if xs.len() != mesh.dim() {
        return Err(format!(
            "coordinate `{spec}` has {} components, mesh has {} dimensions",
            xs.len(),
            mesh.dim()
        ));
    }
    let c = Coord::new(&xs);
    if !mesh.contains(&c) {
        return Err(format!("coordinate {c} outside the mesh"));
    }
    Ok(c)
}

/// The workload names the CLI accepts.
pub const WORKLOAD_NAMES: &[&str] = &[
    "transpose",
    "random-perm",
    "bit-reversal",
    "bit-complement",
    "tornado",
    "shuffle",
    "neighbor-exchange",
    "central-cut",
    "hotspot",
];

/// Builds a workload by CLI name.
pub fn make_workload(name: &str, mesh: &Mesh, rng: &mut StdRng) -> Result<wl::Workload, String> {
    Ok(match name {
        "transpose" => wl::transpose(mesh).without_self_loops(),
        "random-perm" => wl::random_permutation(mesh, rng),
        "bit-reversal" => wl::bit_reversal(mesh).without_self_loops(),
        "bit-complement" => wl::bit_complement(mesh),
        "tornado" => wl::tornado(mesh),
        "shuffle" => wl::shuffle(mesh).without_self_loops(),
        "neighbor-exchange" => wl::neighbor_exchange(mesh, 0),
        "central-cut" => wl::central_cut_neighbors(mesh, 0),
        "hotspot" => {
            let mut center = Coord::origin(mesh.dim());
            for i in 0..mesh.dim() {
                center[i] = mesh.side(i) / 2;
            }
            wl::hotspot(mesh, center, mesh.node_count() / 4, rng)
        }
        other => {
            return Err(format!(
                "unknown workload `{other}`; choose one of {WORKLOAD_NAMES:?}"
            ))
        }
    })
}

/// Parses a scheduling policy name.
pub fn parse_policy(name: &str) -> Result<SchedulingPolicy, String> {
    Ok(match name {
        "fifo" => SchedulingPolicy::Fifo,
        "furthest" | "ftg" => SchedulingPolicy::FurthestToGo,
        "closest" | "ctg" => SchedulingPolicy::ClosestToGo,
        "rank" | "random-rank" => SchedulingPolicy::RandomRank,
        other => return Err(format!("unknown policy `{other}` (fifo|ftg|ctg|rank)")),
    })
}

/// Resolves the workload: `--workload-file` (the `oblivion_workloads::io`
/// line format) takes precedence over the named `--workload`.
fn workload_from_args(args: &Args, mesh: &Mesh, rng: &mut StdRng) -> Result<wl::Workload, String> {
    if let Some(path) = args.given("workload-file") {
        return wl::io::read_file(path, mesh).map_err(|e| e.to_string());
    }
    make_workload(args.str("workload")?, mesh, rng)
}

/// The mesh, router and seed a routing command starts from. A torus
/// router implies a torus mesh, with or without `--torus`.
fn mesh_router_seed(args: &Args) -> Result<(Mesh, Box<dyn ObliviousRouter>, u64), String> {
    let name = args.str("router")?;
    let mesh = parse_mesh_spec(args.str("mesh")?, args.flag("torus") || implies_torus(name))?;
    let router = make_router(name, &mesh)?;
    Ok((mesh, router, args.num("seed")?))
}

// ---------------------------------------------------------------------
// Observability plumbing (`--trace`, `--metrics-out`, `oblivion stats`).
//
// Commands deposit their headline numbers here via [`report_field`]; when
// metrics are requested, [`run`] drains them into the final `RunReport`
// line of the JSONL document. With observability off the deposit is a
// no-op, so commands stay oblivious (pun intended) to the machinery.
// ---------------------------------------------------------------------

thread_local! {
    static REPORT_FIELDS: std::cell::RefCell<Vec<(String, oblivion_obs::Json)>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// A checkpoint store whose snapshots became obsolete because the run
    /// completed; cleared by [`run`] only *after* the metrics file is
    /// durably written, so a failed write never destroys the recovery
    /// point.
    static CKPT_CLEAR: std::cell::RefCell<Option<oblivion_ckpt::Store>> =
        const { std::cell::RefCell::new(None) };
    /// When set (by `serve --stats-every`), [`finish_metrics`] *appends*
    /// to `--metrics-out` instead of overwriting it: the server's
    /// background flusher has already been streaming `serve_stats` JSONL
    /// snapshots into the same file, and the final report must land
    /// after them, not on top of them.
    static METRICS_APPEND: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn report_field(key: &str, value: impl Into<oblivion_obs::Json>) {
    if !oblivion_obs::is_enabled() {
        return;
    }
    let value = value.into();
    REPORT_FIELDS.with(|f| f.borrow_mut().push((key.to_string(), value)));
}

/// Whether this invocation asked for metrics collection.
fn wants_metrics(args: &Args) -> bool {
    args.given("metrics-out").is_some() || args.flag("trace")
}

/// Finishes a metered invocation: assembles the JSONL document from the
/// registry snapshot plus the fields commands deposited, writes it to
/// `--metrics-out` (if given), and prints a span summary to stderr under
/// `--trace`.
fn finish_metrics(args: &Args) -> Result<(), String> {
    let snap = oblivion_obs::snapshot();
    let mut report = oblivion_obs::RunReport::new(args.command());
    for key in ["mesh", "router", "workload", "seed"] {
        if let Some(v) = args.given(key) {
            report.set(key, v);
        }
    }
    REPORT_FIELDS.with(|f| {
        for (k, v) in f.borrow_mut().drain(..) {
            report.set(&k, v);
        }
    });
    let doc = report.to_jsonl(&snap, true);
    if let Some(path) = args.given("metrics-out") {
        if METRICS_APPEND.with(|a| a.get()) {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {path} for append: {e}"))?;
            f.write_all(doc.as_bytes())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        } else {
            std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    if args.flag("trace") {
        let entries = oblivion_obs::parse_jsonl(&doc).expect("own JSONL must parse");
        eprintln!("{}", oblivion_obs::render(&entries));
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<String, String> {
    let path = args
        .given("file")
        .ok_or("usage: oblivion stats <metrics.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Corrupt files are rendered best-effort: bad lines are skipped with
    // a warning on stderr, and only a file with no usable line at all is
    // an error.
    let (entries, bad) = oblivion_obs::parse_jsonl_lossy(&text);
    for (lineno, err) in &bad {
        eprintln!("warning: {path}: line {lineno}: {err} (skipped)");
    }
    if !bad.is_empty() {
        eprintln!(
            "warning: {path}: skipped {} unparseable line{} of {}",
            bad.len(),
            if bad.len() == 1 { "" } else { "s" },
            bad.len() + entries.len()
        );
    }
    if entries.is_empty() && !bad.is_empty() {
        return Err(format!("{path}: no parseable metrics lines"));
    }
    // Telemetry schema check: reports written before the live-telemetry
    // schema (v2: gauges, runtime histograms, serve_stats lines) carry
    // no `schema` stamp and read as v1. A file that mixes versions
    // renders fine, but cross-report comparisons of the new series
    // would silently compare against holes — so warn.
    let mut schemas = oblivion_obs::report_schemas(&entries);
    schemas.sort_unstable();
    schemas.dedup();
    if schemas.len() > 1 {
        eprintln!(
            "warning: {path}: mixes report schema versions {schemas:?} (pre/post \
             live-telemetry); gauge and phase-histogram series are absent from the \
             older reports, not zero"
        );
    }
    let mut out = oblivion_obs::render(&entries);
    // Resume provenance: runs that recovered from a checkpoint stamp
    // their report line; surface that, and warn when one file mixes
    // reports resumed from different checkpoint generations (the lines
    // then describe different interrupted histories).
    let mut generations: Vec<u64> = Vec::new();
    for (kind, obj) in &entries {
        if kind != "report" {
            continue;
        }
        let Some(gen) = obj.get("ckpt_resumed_generation").and_then(|v| v.as_u64()) else {
            continue;
        };
        generations.push(gen);
        let step = obj
            .get("ckpt_resumed_from_step")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let crc = obj
            .get("ckpt_resumed_crc")
            .and_then(|v| v.as_str())
            .unwrap_or("?");
        let _ = writeln!(
            out,
            "resume provenance: resumed from checkpoint generation {gen} at step {step} (crc {crc})"
        );
    }
    generations.sort_unstable();
    generations.dedup();
    if generations.len() > 1 {
        eprintln!(
            "warning: {path}: mixes reports resumed from different checkpoint generations \
             ({generations:?}); entries may describe different interrupted histories"
        );
    }
    Ok(out)
}

/// Executes a parsed command, returning the text to print.
pub fn run(args: &Args) -> Result<String, String> {
    // Checkpointed runs always collect, even without --metrics-out:
    // snapshots embed the counter/histogram state, and a resume that
    // *does* ask for metrics must find the pre-kill half in the
    // snapshot, not a hole. (finish_metrics still only writes a file
    // when --metrics-out is present.)
    let metered = wants_metrics(args) || args.given("checkpoint-dir").is_some();
    if metered {
        oblivion_obs::reset();
        oblivion_obs::capture_events(args.flag("trace"));
        oblivion_obs::enable();
        REPORT_FIELDS.with(|f| f.borrow_mut().clear());
        METRICS_APPEND.with(|a| a.set(false));
    }
    let result = (args.cmd.run)(args);
    let obsolete_ckpt = CKPT_CLEAR.with(|c| c.borrow_mut().take());
    if metered {
        oblivion_obs::disable();
        oblivion_obs::capture_events(false);
        if result.is_ok() {
            finish_metrics(args)?;
        }
    }
    if result.is_ok() {
        if let Some(store) = obsolete_ckpt {
            if let Err(e) = store.clear() {
                eprintln!(
                    "warning: cannot clear checkpoint dir {}: {e}",
                    store.dir().display()
                );
            }
        }
    }
    result
}

fn cmd_list(_: &Args) -> Result<String, String> {
    let routers = ROUTER_NAMES.join(", ");
    Ok(format!(
        "routers:   {routers}\nworkloads: {}\n",
        WORKLOAD_NAMES.join(", ")
    ))
}

fn cmd_route(args: &Args) -> Result<String, String> {
    let (mesh, router, seed) = mesh_router_seed(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = workload_from_args(args, &mesh, &mut rng)?;
    let (paths, bits, max_bits) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let m = PathSetMetrics::measure(&mesh, &paths);
    let lb = congestion_lower_bound(&mesh, &w.pairs);
    report_field("router_name", router.name().as_str());
    report_field("packets", w.len() as u64);
    report_field("max_congestion", m.congestion as u64);
    report_field("dilation", m.dilation as u64);
    report_field("max_stretch", m.max_stretch);
    report_field("mean_stretch", m.mean_stretch);
    report_field("congestion_lower_bound", lb);
    report_field("random_bits_total", bits);
    report_field("random_bits_max", max_bits);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "router {} on {:?} {:?}, workload {} ({} packets, seed {seed})",
        router.name(),
        mesh.dims(),
        mesh.topology(),
        w.name,
        w.len()
    );
    let _ = writeln!(out, "  congestion C      = {}", m.congestion);
    let _ = writeln!(
        out,
        "  C* lower bound    = {lb:.2}  (C/lb = {:.2})",
        f64::from(m.congestion) / lb.max(1e-9)
    );
    let _ = writeln!(out, "  dilation D        = {}", m.dilation);
    let _ = writeln!(out, "  C + D             = {}", m.c_plus_d());
    let _ = writeln!(out, "  max stretch       = {:.2}", m.max_stretch);
    let _ = writeln!(out, "  mean stretch      = {:.2}", m.mean_stretch);
    let _ = writeln!(
        out,
        "  random bits/packet = {:.1}",
        bits as f64 / w.len().max(1) as f64
    );
    if let Some(policy) = args.get("simulate") {
        let policy = parse_policy(policy)?;
        let res = Simulation::new(&mesh, paths).run(policy, seed);
        report_field("makespan", res.makespan);
        let _ = writeln!(
            out,
            "  makespan ({policy:?}) = {}  ({:.2}x of C+D)",
            res.makespan,
            res.makespan as f64 / m.c_plus_d().max(1) as f64
        );
    }
    Ok(out)
}

fn cmd_heatmap(args: &Args) -> Result<String, String> {
    let (mesh, router, seed) = mesh_router_seed(args)?;
    if mesh.dim() != 2 {
        return Err("heatmap renders 2-D meshes".into());
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let w = workload_from_args(args, &mesh, &mut rng)?;
    let (paths, _, _) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let loads = oblivion_metrics::EdgeLoads::from_paths(&mesh, &paths);
    Ok(format!(
        "{} on {} ({} packets):\n{}",
        router.name(),
        w.name,
        w.len(),
        oblivion_metrics::render_heatmap_with_legend(&mesh, &loads)
    ))
}

fn cmd_path(args: &Args) -> Result<String, String> {
    let (mesh, router, seed) = mesh_router_seed(args)?;
    let s = parse_coord(args.str("from")?, &mesh)?;
    let t = parse_coord(args.str("to")?, &mesh)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let rp = router.select_path(&s, &t, &mut rng);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} -> {}: {} hops (shortest {}), stretch {:.2}, {} random bits",
        router.name(),
        s,
        t,
        rp.path.len(),
        mesh.dist(&s, &t),
        rp.path.stretch(&mesh),
        rp.random_bits
    );
    let hops: Vec<String> = rp.path.nodes().iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "  {}", hops.join(" "));
    Ok(out)
}

fn cmd_decompose(args: &Args) -> Result<String, String> {
    let mesh = parse_mesh_spec(args.str("mesh")?, false)?;
    if mesh.dim() != 2 || mesh.side(0) != mesh.side(1) || !mesh.side(0).is_power_of_two() {
        return Err("decompose renders 2-D square power-of-two meshes".into());
    }
    let d = crate::decomp::Decomp2::for_mesh(&mesh);
    let level: u32 = args.num("level")?;
    if level > d.k() {
        return Err(format!("level must be 0..={}", d.k()));
    }
    if args.str("kind")? == "2" {
        Ok(crate::decomp::render::render_2d_type2(&d, level))
    } else {
        Ok(crate::decomp::render::render_2d_type1(&d, level))
    }
}

fn cmd_simulate(args: &Args) -> Result<String, String> {
    let (mesh, router, seed) = mesh_router_seed(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = workload_from_args(args, &mesh, &mut rng)?;
    let policy = parse_policy(args.str("policy")?)?;
    let (paths, _, _) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let m = PathSetMetrics::measure(&mesh, &paths);
    let sim = Simulation::new(&mesh, paths);
    let res = match args.opt("max-delay")? {
        None => sim.run(policy, seed),
        Some(d) => sim.run_with_random_delays(policy, seed, d),
    };
    report_field("router_name", router.name().as_str());
    report_field("packets", w.len() as u64);
    report_field("max_congestion", m.congestion as u64);
    report_field("dilation", m.dilation as u64);
    report_field("makespan", res.makespan);
    report_field("max_contention", res.max_contention as u64);
    report_field("max_queue", res.max_queue as u64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} + {:?} on {}: C={} D={} C+D={}",
        router.name(),
        policy,
        w.name,
        m.congestion,
        m.dilation,
        m.c_plus_d()
    );
    let _ = writeln!(
        out,
        "  makespan {}  ({:.2}x of C+D), mean delivery {:.1}, max contention {}",
        res.makespan,
        res.makespan as f64 / m.c_plus_d().max(1) as f64,
        res.mean_delivery(),
        res.max_contention
    );
    Ok(out)
}

fn cmd_bracket(args: &Args) -> Result<String, String> {
    let (mesh, router, seed) = mesh_router_seed(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let w = workload_from_args(args, &mesh, &mut rng)?;
    let lb = congestion_lower_bound(&mesh, &w.pairs);
    let offline = crate::routing::route_min_congestion(
        &mesh,
        &w.pairs,
        crate::routing::OfflineConfig::default(),
        &mut rng,
    );
    let off_c = PathSetMetrics::measure(&mesh, &offline).congestion;
    let (paths, _, _) = route_all_metered(router.as_ref(), &w.pairs, &mut rng);
    let c = PathSetMetrics::measure(&mesh, &paths).congestion;
    let mut out = String::new();
    let _ = writeln!(out, "C* bracket on {} ({} packets):", w.name, w.len());
    let _ = writeln!(out, "  lower bound        lb = {lb:.2}");
    let _ = writeln!(out, "  offline achievable C(offline) = {off_c}");
    let _ = writeln!(out, "  {} C = {c}", router.name());
    let _ = writeln!(
        out,
        "  competitive ratio <= C/C(offline) = {:.2}  (vs C/lb = {:.2})",
        f64::from(c) / f64::from(off_c.max(1)),
        f64::from(c) / lb.max(1e-9)
    );
    Ok(out)
}

fn cmd_pia(args: &Args) -> Result<String, String> {
    let (mesh, router, seed) = mesh_router_seed(args)?;
    let l: u32 = args.num("l")?;
    let samples: usize = args.num("samples")?;
    let mut rng = StdRng::seed_from_u64(seed);
    if l == 0 || !mesh.side(0).is_multiple_of(l) || !(mesh.side(0) / l).is_multiple_of(2) {
        return Err(format!(
            "--l must split side {} into an even number of slabs",
            mesh.side(0)
        ));
    }
    let res = wl::pi_a(router.as_ref(), l, samples, &mut rng);
    let text = wl::io::to_text(&res.workload);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pi_A against {} with l = {l}: {} packets share one edge (modal load {})",
        router.name(),
        res.workload.len(),
        res.edge_load
    );
    if let Some(path) = args.given("out") {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "written to {path} (replay with --workload-file {path})"
        );
    } else {
        out.push_str(&text);
    }
    Ok(out)
}

/// Adapts a router to the simulator's path source, forwarding fault
/// resamples to the router's dedicated entry point.
struct RouterSource<'a>(&'a dyn ObliviousRouter);
impl oblivion_sim::PathSource for RouterSource<'_> {
    fn path(&self, s: &Coord, t: &Coord, rng: &mut StdRng) -> oblivion_mesh::Path {
        self.0.select_path(s, t, rng).path
    }
    fn resample(&self, current: &Coord, t: &Coord, rng: &mut StdRng) -> oblivion_mesh::Path {
        self.0.resample_path(current, t, rng).path
    }
}

fn cmd_online(args: &Args) -> Result<String, String> {
    let (mesh, router, seed) = mesh_router_seed(args)?;
    let rate: f64 = args.num("rate")?;
    let steps: u64 = args.num("steps")?;
    let policy = parse_policy(args.str("policy")?)?;
    let threads: usize = args.num("threads")?;
    use oblivion_sim::{Faults, FixedTraffic, OnlineSim, TrafficPattern, UniformTraffic};

    let fault_cfg = FaultConfig {
        link_fail_prob: args.num("fault-links")?,
        mode: FaultMode::parse(args.str("fault-mode")?)?,
        mttr: args.num("mttr")?,
        mtbf: args.num("mtbf")?,
        node_fail_prob: args.num("fault-nodes")?,
        drop_prob: args.num("drop-prob")?,
    };
    let recovery = RecoveryPolicy::parse(args.str("recovery")?)?;
    let retry_budget: u32 = args.num("retry-budget")?;
    let fault_seed = args.opt("fault-seed")?.unwrap_or(seed);
    let uniform = UniformTraffic::new(mesh.clone());
    let transpose = FixedTraffic {
        pattern_name: "transpose".into(),
        map: |c| Coord::new(&[c[1], c[0]]),
    };
    let pattern: &dyn TrafficPattern = if args.str("pattern")? == "transpose" {
        if mesh.dim() != 2 || mesh.side(0) != mesh.side(1) {
            return Err("transpose pattern needs a square 2-D mesh".into());
        }
        &transpose
    } else {
        &uniform
    };
    let source = RouterSource(router.as_ref());
    // The fault plan (when any fault knob is nonzero) is materialized
    // once up front; `--fault-links 0` etc. attaches nothing at all, so
    // such runs are byte-identical to a fault-unaware build.
    let plan =
        (!fault_cfg.is_trivial()).then(|| FaultPlan::new(&mesh, &fault_cfg, fault_seed, 2 * steps));
    let mut sim = OnlineSim::new(&mesh, policy, rate);
    if let Some(p) = &plan {
        sim = sim.with_faults(Faults {
            plan: p,
            recovery,
            retry_budget,
        });
    }
    // ------------------------------------------------------------------
    // Crash recovery: with `--checkpoint-dir` the run snapshots its full
    // state every `--checkpoint-every` steps (and on SIGINT/SIGTERM), and
    // resumes from the newest valid snapshot when rerun. The checkpoint
    // machinery never touches the simulation's randomness, so a resumed
    // run's results are byte-identical to an uninterrupted one.
    // ------------------------------------------------------------------
    use oblivion_ckpt::{signal, Store};
    use oblivion_sim::{CheckpointCfg, EngineState};
    let ckpt_every: u64 = args.num("checkpoint-every")?;
    let ckpt_stop_at: Option<u64> = args.opt("ckpt-stop-at")?;
    let ckpt_dir = args.given("checkpoint-dir");
    if ckpt_dir.is_none() {
        if ckpt_every > 0 {
            return Err("--checkpoint-every needs --checkpoint-dir".into());
        }
        if ckpt_stop_at.is_some() {
            return Err("--ckpt-stop-at needs --checkpoint-dir".into());
        }
    }
    // Everything that shapes the simulation — but NOT the thread count or
    // the checkpoint cadence, which are free to change across a resume.
    let config_hash = {
        let desc = format!(
            "mesh={:?}/{:?};router={};seed={seed};rate={rate};steps={steps};\
             policy={policy:?};pattern={};recovery={};retry={retry_budget};\
             fseed={fault_seed};fcfg={fault_cfg:?};plan={:016x}",
            mesh.dims(),
            mesh.topology(),
            router.name(),
            pattern.name(),
            recovery.name(),
            plan.as_ref().map_or(0, |p| p.digest()),
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in desc.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };
    let store = match ckpt_dir {
        Some(dir) => Some(
            Store::open(std::path::Path::new(dir))
                .map_err(|e| format!("cannot open checkpoint dir {dir}: {e}"))?,
        ),
        None => None,
    };
    // The snapshot resumed from: engine state, generation, checksum.
    let mut resumed: Option<(EngineState, u64, u32)> = None;
    if let Some(store) = &store {
        signal::install();
        let outcome = store.load_latest(config_hash);
        for w in &outcome.warnings {
            eprintln!("warning: checkpoint: {w}");
        }
        if let Some(snap) = outcome.snapshot {
            let st = EngineState::decode(&snap.payload, &mesh).map_err(|e| {
                format!(
                    "checkpoint {}: {e}",
                    store.slot_path(snap.generation).display()
                )
            })?;
            eprintln!(
                "resuming from checkpoint generation {} at step {} (crc 0x{:08x})",
                snap.generation, st.t, snap.checksum
            );
            resumed = Some((st, snap.generation, snap.checksum));
        }
    }
    let ckpt = store.as_ref().map(|store| CheckpointCfg {
        store,
        every: ckpt_every,
        stop_at: ckpt_stop_at,
        config_hash,
        resume_generation: resumed.as_ref().map_or(0, |r| r.1),
        resume_step: resumed.as_ref().map(|r| r.0.t),
    });
    let (ckpt, resume) = (ckpt.as_ref(), resumed.as_ref().map(|r| &r.0));
    // The sharded engine is deterministic in the thread count, so it is
    // the only engine the CLI runs; `--threads 1` executes it inline.
    let r = sim
        .run_sharded_ckpt(pattern, &source, steps, seed, threads, ckpt, resume)
        .map_err(|stop| stop.to_string())?;
    if let Some(store) = store {
        CKPT_CLEAR.with(|c| *c.borrow_mut() = Some(store));
    }
    let sharding = r.sharding.expect("sharded run reports a summary");
    report_field("router_name", router.name().as_str());
    if let Some((st, generation, crc)) = &resumed {
        report_field("ckpt_resumed_from_step", st.t);
        report_field("ckpt_resumed_generation", *generation);
        report_field("ckpt_resumed_crc", format!("0x{crc:08x}"));
    }
    report_field("injected", r.injected as u64);
    report_field("delivered", r.delivered as u64);
    report_field("in_flight", r.in_flight as u64);
    report_field("mean_latency", r.mean_latency);
    report_field("p95_latency", r.p95_latency);
    report_field("throughput", r.throughput);
    // Deterministic shard facts only — deliberately NOT the thread count,
    // so reports stay byte-identical across --threads values.
    report_field("shards", sharding.shards as u64);
    report_field("shard_handoffs", sharding.handoffs);
    report_field("shard_max_imbalance", sharding.max_imbalance);
    if let Some(fs) = &r.faults {
        report_field("delivered_fraction", r.delivered_fraction());
        report_field("recovery", recovery.name());
        report_field("retry_budget", u64::from(retry_budget));
        report_field("failed_links", fs.failed_links);
        report_field("failed_nodes", fs.failed_nodes);
        report_field("dead_letters", fs.dead_letters);
        report_field("dead_on_injection", fs.dead_on_injection);
        report_field("fault_blocked", fs.blocked);
        report_field("fault_resamples", fs.resamples);
        report_field("fault_drops", fs.drops);
        report_field("src_down_skips", fs.src_down_skips);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} online, pattern {}, rate {rate}, {} steps (+drain), policy {:?}:",
        router.name(),
        pattern.name(),
        steps,
        policy
    );
    let _ = writeln!(
        out,
        "  injected {}  delivered {}  in-flight {}",
        r.injected, r.delivered, r.in_flight
    );
    let _ = writeln!(
        out,
        "  mean latency {:.1}  p95 latency {:.1}  throughput {:.3} pkts/node/step",
        r.mean_latency, r.p95_latency, r.throughput
    );
    let _ = writeln!(
        out,
        "  shards {}  handoffs {}  max imbalance {}",
        sharding.shards, sharding.handoffs, sharding.max_imbalance
    );
    if let Some(fs) = &r.faults {
        let _ = writeln!(
            out,
            "  faults: {} links / {} nodes down, recovery {} (budget {})",
            fs.failed_links,
            fs.failed_nodes,
            recovery.name(),
            retry_budget
        );
        let _ = writeln!(
            out,
            "  delivered fraction {:.4}  dead letters {} ({} at injection)",
            r.delivered_fraction(),
            fs.dead_letters,
            fs.dead_on_injection
        );
        let _ = writeln!(
            out,
            "  blocked pkt-steps {}  resamples {}  drops {}",
            fs.blocked, fs.resamples, fs.drops
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The serving layer (`oblivion serve` / `oblivion loadgen`). Flag
// validation lives here so a bad knob is a clean exit-2 error before a
// single socket is bound; the serving mechanics live in oblivion-serve.
// ---------------------------------------------------------------------

fn cmd_serve(args: &Args) -> Result<String, String> {
    use oblivion_serve::{Control, Registry, RouterHandle, ServeConfig};
    let router_name = args.str("router")?;
    // The repeatable `--mesh NxN[:id]` list: the first spec is the
    // default mesh (what prefix-free requests resolve to), an unnamed
    // spec gets the id `default`. One router algorithm serves them all;
    // torus routers imply torus meshes, exactly as `ADMIN ADD` infers.
    let torus = implies_torus(router_name);
    let mut meshes: Vec<(String, Mesh)> = Vec::new();
    for part in args.str("mesh")?.split(',') {
        let (spec, id) = match part.split_once(':') {
            Some((spec, id)) => (spec, id),
            None => (part, "default"),
        };
        if meshes.iter().any(|(have, _)| have == id) {
            return Err(format!("duplicate mesh id `{id}` in --mesh"));
        }
        meshes.push((id.to_string(), parse_mesh_spec(spec, torus)?));
    }
    // Per-tenant admission quota: every registered mesh gets its own
    // token bucket of N lines/s (burst N) and N admitted-but-unsettled
    // lines. 0 is the degenerate "shed everything" knob and is refused.
    let tenant_quota: Option<u64> = args.opt("tenant-quota")?;
    let registry = Registry::new(&meshes[0].0, tenant_quota);
    let mut router_label = String::new();
    for (id, mesh) in &meshes {
        let router = make_router(router_name, mesh)?;
        if router_label.is_empty() {
            router_label = router.name();
        }
        registry
            .add(id, RouterHandle::Owned(router))
            .map_err(|e| format!("--mesh: {e}"))?;
    }
    let port: u16 = args.num("port")?;
    let health_port =
        match args.opt("health-port")? {
            _ if args.flag("no-health") => None,
            Some(p) => Some(p),
            None => Some(port.checked_add(1).ok_or(
                "default health port (port+1) overflows; pass --health-port or --no-health",
            )?),
        };
    // --stats-every streams crash-durable JSONL snapshots into the
    // --metrics-out file while the server runs; the final report then
    // appends to that stream instead of clobbering it.
    let stats_every = args.opt("stats-every")?.map(Duration::from_millis);
    let stats_path = match (&stats_every, args.given("metrics-out")) {
        (Some(_), None) => return Err("--stats-every needs --metrics-out to flush into".into()),
        (Some(_), Some(path)) => Some(std::path::PathBuf::from(path)),
        (None, _) => None,
    };
    METRICS_APPEND.with(|a| a.set(stats_path.is_some()));
    // Chaos injection: every knob requires --chaos-seed so an injected
    // schedule is always reproducible; with no chaos flag at all the
    // server is byte-identical to one built without the feature.
    let chaos_requested =
        args.given("chaos-seed").is_some() || CHAOS.iter().any(|f| args.given(f.name).is_some());
    let chaos = if chaos_requested {
        let Some(seed) = args.opt("chaos-seed")? else {
            return Err(
                "--chaos-* flags need --chaos-seed so the injected schedule is reproducible".into(),
            );
        };
        let c = oblivion_serve::ChaosConfig {
            seed,
            stall_prob: args.num("chaos-stall-prob")?,
            stall: args.millis("chaos-stall-ms")?,
            write_prob: args.num("chaos-write-prob")?,
            write_stall: args.millis("chaos-write-ms")?,
            reset_prob: args.num("chaos-reset-prob")?,
            pause_prob: args.num("chaos-pause-prob")?,
            pause: args.millis("chaos-pause-ms")?,
        };
        c.validate()?;
        Some(c)
    } else {
        None
    };
    let cfg = ServeConfig {
        host: args.str("host")?.to_string(),
        port,
        health_port,
        threads: args.num("threads")?,
        queue_cap: args.num("queue")?,
        deadline: args.millis("deadline-ms")?,
        drain: args.millis("drain-ms")?,
        work: Duration::from_micros(args.num("work-us")?),
        batch_max: args.num("batch-max")?,
        stats_every,
        stats_path,
        honor_process_signals: true,
        announce: true,
        chaos,
    };
    oblivion_signal::install();
    let ctl = Control::new();
    let summary =
        oblivion_serve::run_registry(&registry, &cfg, &ctl).map_err(|e| format!("serve: {e}"))?;
    let s = &summary.stats;
    report_field("router_name", router_label.as_str());
    report_field("serve_meshes", meshes.len() as u64);
    if let Some(q) = tenant_quota {
        report_field("serve_tenant_quota", q);
    }
    report_field("serve_addr", summary.addr.to_string());
    report_field("serve_threads", cfg.threads as u64);
    report_field("serve_queue_cap", cfg.queue_cap as u64);
    report_field("serve_batch_max", cfg.batch_max as u64);
    report_field("serve_deadline_ms", cfg.deadline.as_millis() as u64);
    report_field("serve_drain_ms", cfg.drain.as_millis() as u64);
    report_field("serve_uptime_ms", summary.uptime.as_millis() as u64);
    report_field("serve_drain_took_ms", summary.drain_took.as_millis() as u64);
    if let Some(c) = &cfg.chaos {
        report_field("serve_chaos_seed", c.seed);
    }
    for (name, value) in s.obs_counters() {
        report_field(name, value);
    }
    report_field("serve_max_queue_depth", s.max_queue_depth);
    report_field(
        "serve_counters_conserved",
        if s.conserved() { 1u64 } else { 0 },
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve: drained and stopped after {:.1} s (drain took {} ms)",
        summary.uptime.as_secs_f64(),
        summary.drain_took.as_millis()
    );
    let _ = writeln!(
        out,
        "  accepted {}  completed {}  bad-request {}  shed {}  deadline {}  \
         drain-rejected {}  io-errors {}  unknown-mesh {}  mesh-retired {}",
        s.accepted,
        s.completed,
        s.bad_request,
        s.shed_overloaded,
        s.deadline_exceeded,
        s.drain_rejected,
        s.io_errors,
        s.unknown_mesh,
        s.mesh_retired
    );
    let _ = writeln!(
        out,
        "  max queue depth {}  health probes {}",
        s.max_queue_depth, s.health_probes
    );
    for t in &s.tenants {
        let _ = writeln!(
            out,
            "  tenant {:<12} accepted {:>6}  completed {:>6}  shed {:>4}  retired {:>4}  \
             state {} B",
            t.id, t.accepted, t.completed, t.shed_overloaded, t.mesh_retired, t.state_bytes
        );
    }
    for (name, h) in &s.phases {
        if h.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  phase {name:<13} count {:>8}  p50 {:>7} us  p99 {:>7} us",
            h.count,
            h.quantile(0.50),
            h.quantile(0.99)
        );
    }
    let _ = writeln!(
        out,
        "  counters conserve: {}",
        if s.conserved() { "yes" } else { "NO" }
    );
    if !s.conserved() {
        return Err(format!(
            "serve: request counters do not conserve: accepted {} != settled {}\n{out}",
            s.accepted,
            s.settled()
        ));
    }
    if !s.tenants_conserved() {
        return Err(format!(
            "serve: per-tenant ledgers do not conserve or over-claim the global ledger\n{out}"
        ));
    }
    if !s.phases_within_accepted() {
        return Err(format!(
            "serve: a phase histogram recorded more events than accepted connections\n{out}"
        ));
    }
    Ok(out)
}

fn cmd_top(args: &Args) -> Result<String, String> {
    use oblivion_serve::{top, TopConfig};
    use std::io::IsTerminal as _;
    let check = args.flag("check");
    let stdout = std::io::stdout();
    let cfg = TopConfig {
        addr: format!("{}:{}", args.str("host")?, args.num::<u16>("port")?),
        interval: args.millis("interval-ms")?,
        iterations: args.opt("iterations")?,
        timeout: args.millis("timeout-ms")?,
        check,
        // Only repaint in place on a live terminal; redirected output
        // stays an append-only log.
        clear: stdout.is_terminal(),
        honor_process_signals: true,
    };
    oblivion_signal::install();
    let summary = top::run_top(&cfg, &mut stdout.lock()).map_err(|e| format!("top: {e}"))?;
    report_field("top_scrapes", summary.scrapes);
    report_field("top_scrape_errors", summary.scrape_errors);
    report_field("top_violations", summary.violations);
    if summary.scrapes == 0 {
        return Err(format!(
            "top: no successful scrape of {} ({} attempts failed)",
            cfg.addr, summary.scrape_errors
        ));
    }
    if check && summary.violations > 0 {
        return Err(format!(
            "top: {} scrape(s) violated the serve conservation law",
            summary.violations
        ));
    }
    Ok(format!(
        "top: {} scrapes, {} errors{}\n",
        summary.scrapes,
        summary.scrape_errors,
        if check { ", conservation checked" } else { "" }
    ))
}

/// Parses `--tenant-mix a=0.8,b=0.2` into weighted `(id, weight)`
/// pairs: weights must be positive and finite, ids unique.
fn parse_tenant_mix(raw: &str) -> Result<Vec<(String, f64)>, String> {
    let mut mix: Vec<(String, f64)> = Vec::new();
    for part in raw.split(',') {
        let (id, w) = part
            .split_once('=')
            .ok_or_else(|| format!("bad --tenant-mix entry `{part}`: expected id=weight"))?;
        if id.is_empty() {
            return Err(format!("bad --tenant-mix entry `{part}`: empty mesh id"));
        }
        let weight: f64 = w
            .parse()
            .map_err(|e| format!("bad --tenant-mix weight in `{part}`: {e}"))?;
        if !weight.is_finite() || weight <= 0.0 {
            return Err(format!(
                "--tenant-mix weight for `{id}` must be positive, got `{w}`"
            ));
        }
        if mix.iter().any(|(have, _)| have == id) {
            return Err(format!("duplicate tenant `{id}` in --tenant-mix"));
        }
        mix.push((id.to_string(), weight));
    }
    Ok(mix)
}

fn cmd_loadgen(args: &Args) -> Result<String, String> {
    use oblivion_serve::{HedgeAfter, LoadgenConfig};
    // --pipeline above 1 only makes sense on a persistent connection, so
    // it implies --keep-alive; --rate selects open loop (arrival i
    // launches at i/R s).
    let pipeline: usize = args.num("pipeline")?;
    let keep_alive = args.flag("keep-alive") || pipeline > 1;
    let rate: Option<f64> = args.opt("rate")?;
    // --hedge-after takes `p99` or a fixed stall threshold in ms; the
    // duplicate needs its own connection, so hedging is incompatible
    // with the keep-alive/pipelined transports.
    let hedge_after = match args.get("hedge-after") {
        Some("p99") => Some(HedgeAfter::P99),
        Some(_) => Some(HedgeAfter::After(args.millis("hedge-after")?)),
        None => None,
    };
    if hedge_after.is_some() && keep_alive {
        return Err(
            "--hedge-after needs the per-request transport; drop --keep-alive/--pipeline".into(),
        );
    }
    // Multi-tenant targeting: `--mesh-id` pins every request to one mesh
    // id; `--tenant-mix a=0.8,b=0.2` draws each request's tenant from a
    // weighted mix (a pure function of --seed and the request id, so
    // retries stay on their tenant and reruns reproduce the split).
    let tenants: Vec<(String, f64)> = match (args.given("mesh-id"), args.given("tenant-mix")) {
        (Some(_), Some(_)) => {
            return Err("--mesh-id and --tenant-mix are mutually exclusive".into())
        }
        (Some(id), None) => vec![(id.to_string(), 1.0)],
        (None, Some(raw)) => parse_tenant_mix(raw)?,
        (None, None) => Vec::new(),
    };
    let cfg = LoadgenConfig {
        addr: format!("{}:{}", args.str("host")?, args.num::<u16>("port")?),
        mesh: parse_mesh_spec(args.str("mesh")?, false)?,
        requests: args.num("requests")?,
        concurrency: args.num("concurrency")?,
        retries: args.num("retries")?,
        backoff: args.millis("backoff-ms")?,
        backoff_cap: args.millis("backoff-cap-ms")?,
        timeout: args.millis("timeout-ms")?,
        seed: args.num("seed")?,
        keep_alive,
        pipeline,
        rate: rate.unwrap_or(0.0),
        hedge_after,
        tenants,
    };
    let report = oblivion_serve::run_loadgen(&cfg);
    report_field("loadgen_keep_alive", if keep_alive { 1u64 } else { 0 });
    report_field("loadgen_pipeline", pipeline as u64);
    report_field("loadgen_open_loop", if rate.is_some() { 1u64 } else { 0 });
    report_field("loadgen_rate", rate.unwrap_or(0.0));
    report_field("loadgen_hedge_launched", report.hedge_launched);
    report_field("loadgen_hedge_won", report.hedge_won);
    report_field("loadgen_hedge_wasted", report.hedge_wasted);
    report_field("loadgen_late_launches", report.late_launches);
    report_field("loadgen_ok", report.ok);
    report_field("loadgen_failed", report.failed);
    report_field("loadgen_malformed", report.malformed);
    report_field("loadgen_retries", report.retries);
    report_field("loadgen_overloaded", report.overloaded);
    report_field("loadgen_deadline", report.deadline);
    report_field("loadgen_shutting_down", report.shutting_down);
    report_field("loadgen_transport", report.transport);
    report_field("loadgen_unknown_mesh", report.unknown_mesh);
    report_field("loadgen_mesh_retired", report.mesh_retired);
    for (id, t) in &report.tenants {
        report_field(&format!("loadgen_tenant_{id}_ok"), t.ok);
        report_field(&format!("loadgen_tenant_{id}_failed"), t.failed);
        report_field(&format!("loadgen_tenant_{id}_overloaded"), t.overloaded);
        report_field(&format!("loadgen_tenant_{id}_p99_ms"), t.latency_ms(0.99));
    }
    report_field("loadgen_goodput", report.goodput());
    report_field("loadgen_p50_ms", report.latency_ms(0.50));
    report_field("loadgen_p90_ms", report.latency_ms(0.90));
    report_field("loadgen_p99_ms", report.latency_ms(0.99));
    report_field("loadgen_p999_ms", report.latency_ms(0.999));
    let text = report.render();
    if report.malformed > 0 || report.failed > 0 {
        // The whole point of the retry loop is convergence: any request
        // that could not be answered (or was answered with protocol
        // garbage) is a hard failure for scripts and CI gates.
        return Err(format!(
            "loadgen: {} failed, {} malformed of {} requests\n{text}",
            report.failed, report.malformed, cfg.requests
        ));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivion_mesh::Topology;

    fn args(v: &[&str]) -> Args {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// Parses and runs a command line; either step may reject it.
    fn try_run(v: &[&str]) -> Result<String, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).and_then(|a| run(&a))
    }

    #[test]
    fn flag_tables_are_consistent() {
        let text = help();
        let listed: Vec<&str> = text
            .split_whitespace()
            .filter_map(|w| w.strip_prefix("--"))
            .collect();
        for cmd in COMMANDS {
            let mut names: Vec<&str> = flags(cmd).map(|f| f.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(
                names.len(),
                flags(cmd).count(),
                "{}: duplicate row",
                cmd.name
            );
            for f in flags(cmd) {
                if !f.default.is_empty() {
                    let ok = f.check(f.default);
                    assert!(ok.is_ok(), "{} --{}: {ok:?}", cmd.name, f.name);
                }
                if !f.hidden {
                    assert!(listed.contains(&f.name), "--{} not in help", f.name);
                }
            }
        }
    }

    #[test]
    fn parse_args_rejects_flags_outside_the_table() {
        for v in [
            &["online", "--thread", "4"][..],
            &["decompose", "--threads", "2"],
            &["heatmap", "--torus"],
            &["route", "--torus", "yes"],
            &["route", "--seed", "-1"],
            &["online", "--policy", "lifo"],
        ] {
            assert!(try_run(v).is_err(), "{v:?}");
        }
        let a = args(&["route", "--torus", "--mesh", "8x8"]);
        assert!(a.flag("torus"));
        assert_eq!(a.get("mesh"), Some("8x8"));
        assert_eq!(a.get("router"), Some("buschd"));
        assert_eq!(a.given("router"), None);
    }

    #[test]
    fn parse_args_grammar() {
        let a = args(&["route", "--mesh", "8x8", "--seed", "7"]);
        assert_eq!(a.command(), "route");
        assert_eq!(a.get("mesh"), Some("8x8"));
        assert_eq!(a.get("seed"), Some("7"));
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&["route".into(), "--mesh".into()]).is_err());
        assert!(parse_args(&["route".into(), "mesh".into(), "8x8".into()]).is_err());
    }

    #[test]
    fn parse_args_bool_flags_take_no_value() {
        // --trace between two valued options must not swallow a value.
        let a = args(&["route", "--trace", "--mesh", "8x8"]);
        assert!(a.flag("trace"));
        assert_eq!(a.get("mesh"), Some("8x8"));
        // Trailing flag.
        let b = args(&["route", "--mesh", "8x8", "--trace"]);
        assert!(b.flag("trace"));
        // Valued options still require a value even after a flag.
        assert!(parse_args(&["route".into(), "--trace".into(), "--mesh".into()]).is_err());
    }

    #[test]
    fn parse_args_mesh_is_repeatable() {
        let a = args(&["serve", "--mesh", "8x8:a", "--mesh", "4x4:b"]);
        assert_eq!(a.get("mesh"), Some("8x8:a,4x4:b"));
        // A single occurrence is untouched; other options stay last-wins.
        let b = args(&["route", "--mesh", "8x8", "--seed", "1", "--seed", "2"]);
        assert_eq!(b.get("mesh"), Some("8x8"));
        assert_eq!(b.get("seed"), Some("2"));
    }

    #[test]
    fn tenant_mix_parsing() {
        let mix = parse_tenant_mix("a=0.8,b=0.2").unwrap();
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].0, "a");
        assert!((mix[0].1 - 0.8).abs() < 1e-12);
        assert!(parse_tenant_mix("a").is_err());
        assert!(parse_tenant_mix("=1").is_err());
        assert!(parse_tenant_mix("a=zero").is_err());
        assert!(parse_tenant_mix("a=0").is_err());
        assert!(parse_tenant_mix("a=-1").is_err());
        assert!(parse_tenant_mix("a=inf").is_err());
        assert!(parse_tenant_mix("a=1,a=2").is_err());
    }

    #[test]
    fn serve_flag_validation_fails_fast() {
        // All of these must error before any socket is bound (no --port).
        let dup = run(&args(&["serve", "--mesh", "8x8:a", "--mesh", "8x8:a"]));
        assert!(dup.unwrap_err().contains("duplicate mesh id"));
        let bad_id = run(&args(&["serve", "--mesh", "8x8:*"]));
        assert!(bad_id.unwrap_err().contains("bad mesh id"));
        let zero_quota = try_run(&["serve", "--mesh", "8x8", "--tenant-quota", "0"]);
        assert!(zero_quota.unwrap_err().contains("--tenant-quota"));
        let exclusive = run(&args(&[
            "loadgen",
            "--port",
            "1",
            "--mesh-id",
            "a",
            "--tenant-mix",
            "a=1",
        ]));
        assert!(exclusive.unwrap_err().contains("mutually exclusive"));
    }

    #[test]
    fn parse_args_stats_positional() {
        let a = args(&["stats", "results/run.json"]);
        assert_eq!(a.command(), "stats");
        assert_eq!(a.get("file"), Some("results/run.json"));
        // A second positional is rejected, as is one on other commands.
        assert!(parse_args(&["stats".into(), "a".into(), "b".into()]).is_err());
        assert!(parse_args(&["route".into(), "a.json".into()]).is_err());
    }

    #[test]
    fn metrics_out_writes_jsonl_and_stats_renders_it() {
        let path = std::env::temp_dir().join("oblivion_cli_metrics_test.json");
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--workload",
            "transpose",
            "--seed",
            "5",
            "--metrics-out",
            path.to_str().unwrap(),
        ]);
        run(&a).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = oblivion_obs::parse_jsonl(&text).unwrap();
        let kinds: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert!(kinds.contains(&"counter"), "{kinds:?}");
        assert!(kinds.contains(&"histogram"));
        assert!(kinds.contains(&"span"));
        assert_eq!(kinds.last(), Some(&"report"));
        let report = &entries.last().unwrap().1;
        assert_eq!(report.get("command").unwrap().as_str(), Some("route"));
        assert!(report.get("packets").unwrap().as_u64().unwrap() > 0);
        assert!(report.get("max_congestion").is_some());
        assert!(text.contains("random_bits_per_packet"));
        assert!(text.contains("path_selection"));
        // And the stats command renders it.
        let s = args(&["stats", path.to_str().unwrap()]);
        let rendered = run(&s).unwrap();
        assert!(rendered.contains("run report"), "{rendered}");
        assert!(rendered.contains("max_congestion"));
        assert!(rendered.contains("random_bits_per_packet"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_command_errors() {
        assert!(run(&args(&["stats"])).is_err());
        assert!(run(&args(&["stats", "/nonexistent/metrics.json"])).is_err());
        let bad = std::env::temp_dir().join("oblivion_cli_badstats_test.json");
        std::fs::write(&bad, "not json at all\n").unwrap();
        assert!(run(&args(&["stats", bad.to_str().unwrap()])).is_err());
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn parse_mesh_specs() {
        assert_eq!(parse_mesh_spec("8x8", false).unwrap().dim(), 2);
        assert_eq!(
            parse_mesh_spec("4x4x4", true).unwrap().topology(),
            Topology::Torus
        );
        assert_eq!(parse_mesh_spec("32", false).unwrap().dim(), 1);
        assert!(parse_mesh_spec("0x4", false).is_err());
        assert!(parse_mesh_spec("4xx4", false).is_err());
        assert!(parse_mesh_spec("9999999x9999999", false).is_err());
    }

    #[test]
    fn parse_coords() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        assert!(parse_coord("3,4", &mesh).is_ok());
        assert!(parse_coord("8,0", &mesh).is_err());
        assert!(parse_coord("3", &mesh).is_err());
        assert!(parse_coord("a,b", &mesh).is_err());
    }

    #[test]
    fn every_listed_router_constructs() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        let torus = parse_mesh_spec("8x8", true).unwrap();
        for name in ROUTER_NAMES {
            let m = if *name == "busch-torus" {
                &torus
            } else {
                &mesh
            };
            assert!(make_router(name, m).is_ok(), "{name}");
        }
        assert!(make_router("nope", &mesh).is_err());
    }

    #[test]
    fn every_listed_workload_constructs() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for name in WORKLOAD_NAMES {
            assert!(make_workload(name, &mesh, &mut rng).is_ok(), "{name}");
        }
        assert!(make_workload("nope", &mesh, &mut rng).is_err());
    }

    #[test]
    fn route_command_end_to_end() {
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--workload",
            "transpose",
            "--simulate",
            "fifo",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("congestion C"));
        assert!(out.contains("makespan"));
    }

    #[test]
    fn path_command_end_to_end() {
        let a = args(&[
            "path", "--mesh", "16x16", "--router", "romm", "--from", "1,2", "--to", "9,9",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("hops"));
        assert!(out.contains("(1,2)"));
    }

    #[test]
    fn decompose_command() {
        let a = args(&["decompose", "--mesh", "8x8", "--level", "1", "--kind", "2"]);
        let out = run(&a).unwrap();
        assert!(out.contains("+"));
        assert!(run(&args(&["decompose", "--mesh", "8x4"])).is_err());
        assert!(run(&args(&["decompose", "--mesh", "8x8", "--level", "9"])).is_err());
    }

    #[test]
    fn simulate_command_with_delays() {
        let a = args(&[
            "simulate",
            "--mesh",
            "8x8",
            "--router",
            "dim-order",
            "--workload",
            "neighbor-exchange",
            "--policy",
            "rank",
            "--max-delay",
            "4",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("makespan"));
    }

    #[test]
    fn pia_command_pipes_into_route() {
        let path = std::env::temp_dir().join("oblivion_cli_pia_test.txt");
        let a = args(&[
            "pia",
            "--mesh",
            "16x16",
            "--router",
            "dim-order",
            "--l",
            "4",
            "--out",
            path.to_str().unwrap(),
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("share one edge"), "{out}");
        // Replay the file through `route`.
        let b = args(&[
            "route",
            "--mesh",
            "16x16",
            "--router",
            "busch2d",
            "--workload-file",
            path.to_str().unwrap(),
        ]);
        assert!(run(&b).unwrap().contains("congestion C"));
        let _ = std::fs::remove_file(&path);
        // Bad l rejected.
        assert!(run(&args(&["pia", "--mesh", "16x16", "--l", "5"])).is_err());
    }

    #[test]
    fn bracket_command_end_to_end() {
        let a = args(&[
            "bracket",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--workload",
            "transpose",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("competitive ratio"), "{out}");
    }

    #[test]
    fn online_command_end_to_end() {
        let a = args(&[
            "online",
            "--mesh",
            "8x8",
            "--router",
            "busch2d",
            "--rate",
            "0.05",
            "--steps",
            "100",
            "--pattern",
            "transpose",
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("mean latency"), "{out}");
        assert!(out.contains("shards"), "{out}");
        assert!(try_run(&["online", "--mesh", "8x8", "--rate", "2.0"]).is_err());
        assert!(run(&args(&[
            "online",
            "--mesh",
            "8x4",
            "--pattern",
            "transpose"
        ]))
        .is_err());
    }

    #[test]
    fn online_threads_flag_does_not_change_output() {
        let base = [
            "online", "--mesh", "8x8", "--router", "busch2d", "--rate", "0.1", "--steps", "80",
        ];
        let with = |threads: &str| {
            let mut v = base.to_vec();
            v.extend_from_slice(&["--threads", threads]);
            run(&args(&v)).unwrap()
        };
        let one = with("1");
        assert_eq!(one, with("2"));
        assert_eq!(one, with("8"));
        assert!(try_run(&["online", "--mesh", "8x8", "--threads", "0"]).is_err());
        assert!(try_run(&["online", "--mesh", "8x8", "--threads", "x"]).is_err());
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(try_run(&["frobnicate"]).is_err());
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&args(&["list"])).unwrap().contains("busch2d"));
    }

    #[test]
    fn workload_file_round_trip() {
        let mesh = parse_mesh_spec("8x8", false).unwrap();
        let w = wl::transpose(&mesh).without_self_loops();
        let path = std::env::temp_dir().join("oblivion_cli_wl_test.txt");
        std::fs::write(&path, wl::io::to_text(&w)).unwrap();
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--router",
            "dim-order",
            "--workload-file",
            path.to_str().unwrap(),
        ]);
        let out = run(&a).unwrap();
        assert!(out.contains("56 packets"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workload_file_errors_are_reported() {
        let a = args(&[
            "route",
            "--mesh",
            "8x8",
            "--workload-file",
            "/nonexistent/definitely.txt",
        ]);
        assert!(run(&a).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = args(&[
            "route", "--mesh", "8x8", "--router", "buschd", "--seed", "9",
        ]);
        assert_eq!(run(&a).unwrap(), run(&a).unwrap());
    }
}
