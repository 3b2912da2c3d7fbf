//! The two front ends a client can connect to, for the hostile-input
//! tests that must hold on both (DESIGN.md §8.2): a bare daemon, and a
//! gateway fronting one daemon.

use chameleon_server::{
    request_once, Gateway, GatewayConfig, GatewayHandle, Server, ServerConfig, ServerHandle,
    ServerReport,
};

/// Which socket the test client talks to.
#[derive(Debug, Clone, Copy)]
pub enum Front {
    Daemon,
    /// A gateway over one daemon; the connection limits under test apply
    /// at the gateway, the daemon behind it keeps the defaults.
    Gateway,
}

pub const FRONTS: [Front; 2] = [Front::Daemon, Front::Gateway];

/// A started front end.
pub struct Running {
    /// Where clients connect.
    pub addr: String,
    daemon: ServerHandle,
    gate: Option<GatewayHandle>,
}

impl Front {
    /// Starts this front end with `config`'s settings.
    pub fn start(self, config: ServerConfig) -> Running {
        eprintln!("front end under test: {self:?}");
        let Front::Gateway = self else {
            let daemon = Server::spawn(config).unwrap();
            return Running {
                addr: daemon.addr().to_string(),
                daemon,
                gate: None,
            };
        };
        let defaults = ServerConfig::default();
        let daemon = Server::spawn(ServerConfig {
            max_request_bytes: defaults.max_request_bytes,
            read_timeout_ms: defaults.read_timeout_ms,
            max_connections: defaults.max_connections,
            max_batch: defaults.max_batch,
            ..config.clone()
        })
        .unwrap();
        let gate = Gateway::spawn(GatewayConfig {
            backends: vec![daemon.addr().to_string()],
            health_interval_ms: 0,
            max_request_bytes: config.max_request_bytes,
            read_timeout_ms: config.read_timeout_ms,
            max_connections: config.max_connections,
            max_batch: config.max_batch,
            ..GatewayConfig::default()
        })
        .unwrap();
        Running {
            addr: gate.addr().to_string(),
            daemon,
            gate: Some(gate),
        }
    }
}

impl Running {
    /// Sends `shutdown` to the front end and waits for everything to
    /// stop; returns the front end's reply and the daemon's report.
    pub fn shutdown(self) -> (String, ServerReport) {
        let reply = request_once(&self.addr, r#"{"op":"shutdown"}"#).unwrap();
        if let Some(gate) = self.gate {
            gate.join().unwrap();
            let daemon_addr = self.daemon.addr().to_string();
            request_once(&daemon_addr, r#"{"op":"shutdown"}"#).unwrap();
        }
        (reply, self.daemon.join().unwrap())
    }
}
