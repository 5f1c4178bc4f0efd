//! `utps-fig <name> [--quick|--full] [--csv] [--stats] [--part <p>]` —
//! regenerates one table or figure of the paper (DESIGN.md §5 maps names
//! to figures). Without a name it prints the list; any error exits 2.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_macros,
    reason = "host-side figure driver: prints tables and exits with a status, never inside a simulation"
)]
use utps_bench::{select, Cli, StatsSink};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    match Cli::parse(args).and_then(|cli| Ok((select(&name, &cli)?, cli))) {
        Ok(((name, run), cli)) => {
            let mut sink = StatsSink::new(name, cli.stats);
            run(&cli, &mut sink);
            sink.finish();
        }
        Err(e) => {
            eprintln!("utps-fig: {e}");
            std::process::exit(2);
        }
    }
}
