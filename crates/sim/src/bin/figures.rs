//! Regenerates the paper's evaluation figures.
//!
//! Prints each figure's rows as a text table; with `--json DIR`, also
//! writes the structured data as `DIR/<figure>.json` for plotting.
//! `figures --help` lists the options and the figures (`FIGURES` is
//! the one place a figure is named).

use mayflower_sim::ablation::{ablation, render_ablation};
use mayflower_sim::consistency::{consistency_experiment, render_consistency};
use mayflower_sim::figures::{
    figure4, figure5, figure6, figure7, hedera_comparison, multipath_ablation, Effort,
};
use mayflower_sim::hotspots::{hotspot_report, render_hotspots};
use mayflower_sim::scale::{render_scale, scale_experiment};
use mayflower_sim::timeline::timeline;
use mayflower_sim::topologies::{render_topologies, topology_comparison};
use mayflower_sim::writes::{render_writes, write_placement_experiment};
use mayflower_sim::{proto, report};

struct Args {
    fig: String,
    effort: Effort,
    seed: u64,
    json_dir: Option<String>,
}

/// A figure's rendered table and its JSON.
type Output = (String, String);

/// Runs a figure at an effort and a seed.
type Run = fn(Effort, u64) -> Output;

/// Every figure by its `--fig` name, in the order `--fig all` runs them.
const FIGURES: &[(&str, Run)] = &[
    ("4", |e, s| show(&figure4(e, s), report::render_figure4)),
    ("5", |e, s| show(&figure5(e, s), report::render_figure5)),
    ("6a", |e, s| {
        show(&figure6('a', e, s), report::render_figure6)
    }),
    ("6b", |e, s| {
        show(&figure6('b', e, s), report::render_figure6)
    }),
    ("7", |e, s| show(&figure7(e, s), report::render_figure7)),
    ("8", figure8),
    ("topology", |e, s| {
        show(&topology_comparison(e, s), render_topologies)
    }),
    ("hedera", |e, s| {
        show(&hedera_comparison(e, s), report::render_hedera)
    }),
    ("hotspots", |e, s| {
        show(&hotspot_report(e, s), render_hotspots)
    }),
    ("consistency", |e, s| {
        show(&consistency_experiment(e, s), render_consistency)
    }),
    ("scale", |e, s| show(&scale_experiment(e, s), render_scale)),
    ("writes", |e, s| {
        show(&write_placement_experiment(e, s), render_writes)
    }),
    ("ablation", |e, s| show(&ablation(e, s), render_ablation)),
    ("multipath", |e, s| {
        show(&multipath_ablation(e, s), report::render_multipath)
    }),
    ("timeline", |_, s| {
        show(&timeline(s), report::render_timeline)
    }),
];

fn show<T: serde::Serialize>(value: &T, render: impl FnOnce(&T) -> String) -> Output {
    let json = serde_json::to_string_pretty(value).expect("serialize figure");
    (render(value), json)
}

/// Figure 8 drives real clusters on disk: under a scratch root of this
/// process's own (two concurrent invocations must not delete each
/// other's live dataserver files), removed when the figure is done.
fn figure8(effort: Effort, seed: u64) -> Output {
    let (files, jobs) = match effort {
        Effort::Quick => (40, 120),
        Effort::Full => (150, 400),
    };
    let scratch = std::env::temp_dir().join(format!("mayflower-fig8-{}", std::process::id()));
    let fig = proto::figure8(&[0.06, 0.07, 0.08], files, jobs, seed, &scratch);
    std::fs::remove_dir_all(&scratch).ok();
    show(&fig, proto::render_figure8)
}

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: figures [--fig {}|all] [--quick] [--seed N] [--json DIR]",
        names.join("|")
    )
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("figures: {problem}\n{}", usage());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        fig: "all".to_string(),
        effort: Effort::Full,
        seed: 0x4D41_5946,
        json_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--fig" => args.fig = value("a figure name"),
            "--quick" => args.effort = Effort::Quick,
            "--seed" => {
                let seed = value("an integer");
                args.seed = seed
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("--seed {seed}: not an integer")));
            }
            "--json" => args.json_dir = Some(value("a directory")),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    if args.fig != "all" && !FIGURES.iter().any(|(name, _)| *name == args.fig) {
        usage_error(&format!("unknown figure: {}", args.fig));
    }
    args
}

fn main() {
    let args = parse_args();
    for (name, run) in FIGURES {
        if args.fig != "all" && args.fig != *name {
            continue;
        }
        let (table, json) = run(args.effort, args.seed);
        println!("{table}");
        if let Some(dir) = &args.json_dir {
            // Numbered figures are filed as `figN`, the rest by name.
            let numbered = name.starts_with(|c: char| c.is_ascii_digit());
            let prefix = if numbered { "fig" } else { "" };
            let path = format!("{dir}/{prefix}{name}.json");
            std::fs::create_dir_all(dir).expect("create json dir");
            std::fs::write(&path, json).expect("write json");
            eprintln!("wrote {path}");
        }
    }
}
