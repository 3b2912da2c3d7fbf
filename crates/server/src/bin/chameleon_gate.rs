//! Standalone gateway binary. `chameleon gate` (the CLI subcommand) is
//! the same runtime with the same flags; this thin entry point exists so
//! the gateway tier can be deployed without the full CLI.

use chameleon_server::{Gateway, GatewayConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", GatewayConfig::USAGE);
        return;
    }
    let config = GatewayConfig::from_args(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("run `chameleon_gate --help` for usage");
        std::process::exit(2);
    });
    match Gateway::serve(config) {
        Ok(report) => eprintln!("chameleon-gate: drained and stopped ({report})"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
