//! The `sprite` command-line tool: inspect generated worlds, print the
//! paper's figures and studies from the gated results table, search a
//! live deployment, and print load reports — all from one binary.
//!
//! ```text
//! sprite corpus  [--scale tiny|small|full|huge] [--seed N]
//! sprite search  [--scale ...] [--seed N] [--learn N] <word>...
//! sprite figure  <object|all> [--scale ...] [--seed N]
//! sprite load    [--scale ...] [--seed N] [--replication R]
//! ```

use std::process::ExitCode;

use sprite::core::{SpriteConfig, World, WorldConfig};
use sprite::corpus::Schedule;
use sprite_bench::metrics::{render, verdicts, OBJECTS};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: Command,
    /// A scale [`WorldConfig::named`] knows.
    scale: String,
    seed: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Corpus,
    Search {
        learn: usize,
        words: Vec<String>,
    },
    /// An object of [`OBJECTS`], or `all` of them.
    Figure(String),
    Load {
        replication: usize,
    },
}

const USAGE: &str = "\
sprite — learning-based text retrieval in DHT networks (ICDE 2007 reproduction)

USAGE:
  sprite corpus  [--scale tiny|small|full|huge] [--seed N]
  sprite search  [--scale ...] [--seed N] [--learn N] <word>...
  sprite figure  <object|all> [--scale ...] [--seed N]
  sprite load    [--scale ...] [--seed N] [--replication R]

OBJECTS (the gated results table; 4a, 4b, 4c also name fig4a, fig4b, fig4c):
  fig4a fig4b fig4c cost churn ablation metrics loss freshness memory

OPTIONS:
  --scale        world size (default: tiny for corpus/search/load, small for figure)
  --seed N       master seed (default 42)
  --learn N      learning iterations before searching (default 3)
  --replication  index replication degree for the load report (default 1)

`sprite figure` prints the object's rows, then every paper claim they
break, and exits 1 if one broke.
";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter().peekable();
    let Some(cmd) = it.next() else {
        return Err("missing command".into());
    };
    let mut scale: Option<String> = None;
    let mut seed = 42u64;
    let mut learn = 3usize;
    let mut replication = 1usize;
    let mut positional: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                if WorldConfig::named(v, seed).is_none() {
                    return Err(format!("unknown scale {v:?}"));
                }
                scale = Some(v.clone());
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--learn" => {
                learn = it
                    .next()
                    .ok_or("--learn needs a value")?
                    .parse()
                    .map_err(|_| "--learn must be an integer".to_string())?;
            }
            "--replication" => {
                replication = it
                    .next()
                    .ok_or("--replication needs a value")?
                    .parse()
                    .map_err(|_| "--replication must be an integer".to_string())?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    let command = match cmd.as_str() {
        "corpus" => Command::Corpus,
        "search" => {
            if positional.is_empty() {
                return Err("search needs at least one word".into());
            }
            Command::Search {
                learn,
                words: positional,
            }
        }
        "figure" => {
            let arg = positional.first().ok_or("figure needs an object, or all")?;
            let object = OBJECTS
                .iter()
                .map(|(name, _)| *name)
                .chain(["all"])
                .find(|name| name == arg || name.strip_prefix("fig") == Some(arg))
                .ok_or_else(|| format!("unknown object {arg:?} (see the list below)"))?;
            Command::Figure(object.to_string())
        }
        "load" => Command::Load { replication },
        other => return Err(format!("unknown command {other:?}")),
    };
    let default_scale = match command {
        Command::Figure(_) => "small",
        _ => "tiny",
    };
    Ok(Args {
        command,
        scale: scale.unwrap_or_else(|| default_scale.to_string()),
        seed,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    run(args)
}

fn run(args: Args) -> ExitCode {
    let cfg = WorldConfig::named(&args.scale, args.seed).expect("validated by parse_args");
    match args.command {
        Command::Corpus => {
            let world = World::build(cfg);
            let c = world.synthetic.corpus();
            println!(
                "documents: {}\nvocabulary: {} terms\ntopics: {} ({} queried)",
                c.len(),
                c.vocab().len(),
                world.config.corpus.n_topics,
                world.config.corpus.n_seed_queries,
            );
            let lens: Vec<f64> = c.docs().iter().map(|d| f64::from(d.len())).collect();
            let s: sprite::util::Summary = lens.iter().copied().collect();
            println!(
                "doc length: mean {:.1}, min {}, max {}",
                s.mean(),
                s.min(),
                s.max()
            );
            println!(
                "workload: {} queries ({} train / {} test)",
                world.workload.len(),
                world.train.len(),
                world.test.len()
            );
        }
        Command::Search { learn, words } => {
            let world = World::build(cfg);
            let mut sys = world.new_system(SpriteConfig::default());
            world.issue(&mut sys, &world.train, Schedule::WithoutRepeats);
            sys.publish_all();
            sys.learn(learn);
            let refs: Vec<&str> = words.iter().map(String::as_str).collect();
            let hits = sys.search(&refs, 10);
            if hits.is_empty() {
                println!("no results for {words:?} (unknown or unindexed terms)");
            } else {
                println!("top {} results for {words:?}:", hits.len());
                for (i, h) in hits.iter().enumerate() {
                    println!("  {:>2}. doc {:<6} score {:.4}", i + 1, h.doc.0, h.score);
                }
            }
            let st = sys.net().stats();
            println!(
                "({} messages total, {:.1} mean lookup hops)",
                st.total_messages(),
                st.mean_hops()
            );
        }
        Command::Figure(which) => {
            let world = World::build(cfg);
            let mut rows = Vec::new();
            for (name, collect) in OBJECTS
                .iter()
                .filter(|(name, _)| which == "all" || which == *name)
            {
                let object = collect(&world);
                println!("## {name}\n\n{}", render(&object));
                rows.extend(object);
            }
            let broken = verdicts(&rows);
            for line in &broken {
                println!("claim broken: {line}");
            }
            if !broken.is_empty() {
                return ExitCode::FAILURE;
            }
        }
        Command::Load { replication } => {
            let world = World::build(cfg);
            let mut sys = world.new_system(SpriteConfig {
                replication,
                ..SpriteConfig::default()
            });
            sys.publish_all();
            if replication > 1 {
                sys.replicate_indexes();
            }
            let report = sys.load_report();
            println!("peer                 terms  entries  cached  max-df");
            for p in &report.peers {
                println!(
                    "{:<20} {:>5}  {:>7}  {:>6}  {:>6}",
                    format!("{:?}", p.peer),
                    p.terms,
                    p.entries,
                    p.cached_queries,
                    p.max_term_df
                );
            }
            println!(
                "\nentry Gini: {:.3}   hottest term df: {}",
                report.entry_gini, report.hottest_df
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_corpus_defaults() {
        let a = parse_args(&argv("corpus")).unwrap();
        assert_eq!(a.command, Command::Corpus);
        assert_eq!(a.scale, "tiny");
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn parses_search_with_flags() {
        let a = parse_args(&argv("search --scale small --seed 7 --learn 5 foo bar")).unwrap();
        assert_eq!(a.scale, "small");
        assert_eq!(a.seed, 7);
        assert_eq!(
            a.command,
            Command::Search {
                learn: 5,
                words: vec!["foo".into(), "bar".into()]
            }
        );
    }

    #[test]
    fn figure_defaults_to_small_scale() {
        let a = parse_args(&argv("figure 4a")).unwrap();
        assert_eq!(a.command, Command::Figure("fig4a".into()));
        assert_eq!(a.scale, "small");
    }

    #[test]
    fn figure_names_any_gated_object_or_all() {
        let a = parse_args(&argv("figure cost --scale huge --seed 3")).unwrap();
        assert_eq!(a.command, Command::Figure("cost".into()));
        assert_eq!((a.scale.as_str(), a.seed), ("huge", 3));
        let a = parse_args(&argv("figure all --scale full")).unwrap();
        assert_eq!(a.command, Command::Figure("all".into()));
        assert_eq!(a.scale, "full");
        let unknown = parse_args(&argv("figure throughput")).unwrap_err();
        assert!(unknown.contains("unknown object"), "{unknown}");
        assert!(
            parse_args(&argv("figure")).is_err(),
            "figure needs an object"
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("search")).is_err(), "search needs words");
        assert!(parse_args(&argv("figure 9z")).is_err());
        assert!(parse_args(&argv("corpus --scale galactic")).is_err());
        assert!(parse_args(&argv("corpus --seed NaN")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("corpus --unknown")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn load_parses_replication() {
        let a = parse_args(&argv("load --replication 3")).unwrap();
        assert_eq!(a.command, Command::Load { replication: 3 });
    }
}
