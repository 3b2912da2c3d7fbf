//! Standalone daemon binary. `chameleon serve` (the CLI subcommand) is the
//! same runtime with the same flags; this thin entry point exists so the
//! service can be deployed without the full CLI.

use chameleon_server::{Server, ServerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", ServerConfig::USAGE);
        return;
    }
    let config = ServerConfig::from_args(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("run `chameleond --help` for usage");
        std::process::exit(2);
    });
    match Server::serve(config) {
        Ok(report) => eprintln!("chameleond: drained and stopped ({report})"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
