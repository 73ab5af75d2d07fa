//! Command line shared by `cxb` and `cxb-trace`.

use std::path::PathBuf;

use crate::run::{self, Options};
use crate::workload::{Plan, Workload};
use crate::{layers, prep, report, util};

const USAGE: &str = "usage:
  cxb run --workload NAME [--seed N] [--seconds N] [--passes N] [--quick] [--out DIR]
  cxb-trace run ...                 the traced run (same flags; prints the per-layer metrics)
  cxb report [--out DIR]            merge the per-run files of DIR into DIR/results.json
  cxb compare A.json B.json         verdict per (end-to-end metric, workload)
workloads: acq_miss_100k acq_miss_1m browse_hit_100k edit_churn_100k";

struct Args(std::collections::VecDeque<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() < before
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.0.remove(at);
        self.0.remove(at).map(Some).ok_or_else(|| format!("{name} needs a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v.parse().map(Some).map_err(|_| format!("{name}: cannot parse {v:?}")),
            None => Ok(None),
        }
    }

    fn done(&self) -> Result<(), String> {
        match self.0.front() {
            Some(extra) => Err(format!("unexpected argument {extra:?}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn workload(args: &mut Args) -> Result<Workload, String> {
    let name = args.value("--workload")?.ok_or("--workload is required")?;
    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))
}

fn out_dir(args: &mut Args) -> Result<PathBuf, String> {
    Ok(args.value("--out")?.map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from))
}

fn options(args: &mut Args) -> Result<Options, String> {
    Ok(Options {
        workload: workload(args)?,
        seed: args.parsed("--seed")?.unwrap_or(42),
        seconds: args.parsed("--seconds")?.unwrap_or(10.0),
        passes: args.parsed("--passes")?,
        quick: args.flag("--quick"),
        out: out_dir(args)?,
    })
}

fn dispatch(traced: bool, mut args: Args) -> Result<i32, String> {
    let command = args.0.pop_front().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            // `--trace` is the driver's spelling; the binary decides.
            if let Some(t) = args.parsed::<u8>("--trace")? {
                if (t == 1) != traced {
                    return Err("--trace 1 runs in cxb-trace, --trace 0 in cxb".into());
                }
            }
            let opts = options(&mut args)?;
            args.done()?;
            std::fs::create_dir_all(&opts.out).map_err(|e| e.to_string())?;
            let (kind, names, file): (_, &[&str], _) = if traced {
                ("trace", &layers::PER_LAYER, format!("{}.trace.json", opts.workload.name()))
            } else {
                ("e2e", &run::END_TO_END, format!("{}.json", opts.workload.name()))
            };
            let outcome = if traced { layers::run(&opts)? } else { run::run(&opts)? };
            outcome.metrics.print(opts.workload.name());
            println!(
                "{} answers_fingerprint {:016x} digest",
                opts.workload.name(),
                outcome.prep.answers_fingerprint
            );
            std::fs::write(
                opts.out.join(file),
                run::result_json(&opts, kind, &outcome).to_string(),
            )
            .map_err(|e| e.to_string())?;
            println!("{}", run::contract_line(&outcome, names));
            Ok(0)
        }
        "prep" => {
            let w = workload(&mut args)?;
            let seed = args.parsed("--seed")?.ok_or("--seed is required")?;
            let dir: PathBuf = args.parsed("--dir")?.ok_or("--dir is required")?;
            let plan = Plan {
                miss: args.parsed("--miss")?.unwrap_or(0),
                browse: args.parsed("--browse")?.unwrap_or(0),
                probe_per_kind: args.parsed("--probe")?.unwrap_or(0),
                edits: args.parsed("--edits")?.unwrap_or(0),
            };
            let quick = args.flag("--quick");
            args.done()?;
            prep::run(w, seed, quick, plan, &dir)?;
            Ok(0)
        }
        "report" => {
            let out = out_dir(&mut args)?;
            args.done()?;
            let failing = report::merge(&out)?;
            Ok((failing > 0) as i32)
        }
        "compare" => {
            let (Some(a), Some(b)) = (args.0.pop_front(), args.0.pop_front()) else {
                return Err(USAGE.into());
            };
            args.done()?;
            let bad = report::compare(a.as_ref(), b.as_ref())?;
            Ok((bad > 0) as i32)
        }
        _ => Err(USAGE.into()),
    }
}

/// Entry point of both binaries. `traced` is true in `cxb-trace`, the
/// binary that carries the counting allocator.
pub fn main(traced: bool) -> ! {
    util::pin_env();
    let code = match dispatch(traced, Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cxb: {message}");
            2
        }
    };
    std::process::exit(code)
}
