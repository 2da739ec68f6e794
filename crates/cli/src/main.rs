//! `wfsm`: command-line front end for the WebFountain sentiment-mining
//! reproduction. See `wfsm help` for usage.

mod args;
mod commands;

fn main() {
    let parsed = args::ParsedArgs::parse(std::env::args().skip(1));
    match parsed.and_then(|parsed| commands::run(&parsed)) {
        Ok(report) => print!("{report}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
