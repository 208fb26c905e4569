//! `lsm-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! one run of one workload. Prints every metric as
//! `workload metric value unit`, then one JSON object on the last line.

use std::path::PathBuf;
use std::process::ExitCode;

use lsm_perf::gen::{spec, SPECS};
use lsm_perf::workload::{run, Config, HarnessResult};

fn parse_args() -> HarnessResult<Config> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut keys = None;
    let mut setups = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse()?,
            "--seconds" => seconds = value.parse()?,
            "--trace" => trace = value.parse::<u8>()? != 0,
            "--keys" => keys = Some(value.parse()?),
            "--setups" => setups = Some(value.parse()?),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let workload = workload.ok_or_else(|| format!("--workload is one of {names:?}"))?;
    let spec = spec(&workload).ok_or_else(|| format!("--workload is one of {names:?}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let mut cfg = Config::new(spec, seed, seconds, trace);
    if let Some(keys) = keys {
        cfg.keys = keys;
    }
    if let Some(setups) = setups {
        cfg.setups = setups;
    }
    if let Some(out_dir) = out_dir {
        cfg.out_dir = out_dir;
    }
    if trace {
        // `setup_s` is an untraced metric: a traced run sets up once.
        cfg.setups = 1;
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|cfg| {
        let name = cfg.spec.name;
        run(&cfg).map(|o| (name, o))
    });
    match outcome {
        Ok((name, o)) => {
            for (metric, value, unit) in o.metrics.iter() {
                println!("{name} {metric} {value} {unit}");
            }
            println!("{name} failed_ops {} count (of {})", o.failed, o.attempted);
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                o.correct,
                o.attempted,
                o.failed,
                o.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lsm-perf: {e}");
            ExitCode::from(2)
        }
    }
}
