//! The two front ends' settings: [`ServerConfig`] for `chameleond` and
//! [`GatewayConfig`] for `chameleon-gate`, each with its command-line
//! flag table and usage text. The standalone binaries and the `chameleon
//! serve` / `chameleon gate` subcommands all parse through
//! [`ServerConfig::from_args`] and [`GatewayConfig::from_args`], so one
//! argv means one config whichever entry point reads it.

use crate::faults::FaultPlan;
use crate::journal::JournalSync;
use crate::reactor::Limits;
use crate::server::RetryPolicy;
use std::str::FromStr;

/// Tunables of a [`crate::Server`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`crate::Server::local_addr`]).
    pub addr: String,
    /// Worker threads (0 = one per hardware thread).
    pub workers: usize,
    /// Bounded queue depth; a full queue rejects with `retry_after_ms`.
    /// A `batch` request occupies one slot regardless of size.
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Default per-job wall-clock budget when the request has no
    /// `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Where the final metrics snapshot is flushed during shutdown.
    pub metrics_path: Option<String>,
    /// Maximum bytes in one request line (floor 64). An over-limit line
    /// answers a structured `request_too_large` error and closes the
    /// connection instead of allocating without bound.
    pub max_request_bytes: usize,
    /// Deadline for completing a request line once its first byte
    /// arrived, in ms (0 = no deadline). A stalled (slowloris) client
    /// gets a structured `read_timeout` error and is disconnected.
    pub read_timeout_ms: u64,
    /// Maximum concurrently open connections (0 = unlimited). Excess
    /// connections receive a `server_busy` error line and are closed.
    pub max_connections: usize,
    /// Maximum elements in one `batch` request (0 = unlimited). A larger
    /// batch answers a single `batch_too_large` error.
    pub max_batch: usize,
    /// Deterministic fault-injection schedule (chaos testing only;
    /// `None` in production).
    pub faults: Option<FaultPlan>,
    /// Durability (DESIGN.md §11): directory holding the write-ahead job
    /// journal. `None` disables journaling entirely.
    pub journal_dir: Option<String>,
    /// Journal fsync policy: `Always` syncs every append, `Interval`
    /// batches syncs on the reactor tick (bounded loss window).
    pub journal_sync: JournalSync,
    /// Journal segment rotation threshold in bytes.
    pub journal_segment_bytes: u64,
    /// On startup, re-enqueue accepted-but-incomplete journaled jobs in
    /// their original order instead of marking them cancelled.
    pub resume: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 256,
            default_timeout_ms: 300_000,
            metrics_path: None,
            max_request_bytes: 16 * 1024 * 1024,
            read_timeout_ms: 30_000,
            max_connections: 256,
            max_batch: 1024,
            faults: None,
            journal_dir: None,
            journal_sync: JournalSync::Interval,
            journal_segment_bytes: crate::journal::DEFAULT_SEGMENT_BYTES,
            resume: false,
        }
    }
}

/// Configuration for [`crate::Gateway::bind`].
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `chameleond` addresses (`host:port`); must be non-empty.
    pub backends: Vec<String>,
    /// Forwarder threads doing the blocking backend I/O (0 = auto:
    /// twice the backend count, at least 4).
    pub forwarders: usize,
    /// Bounded forward-queue depth; a full queue rejects with
    /// `retry_after_ms`, exactly like the backend's job queue.
    pub queue_depth: usize,
    /// Interval between backend health probes in ms (0 disables the
    /// health thread; forwarders still mark backends dead on failure).
    pub health_interval_ms: u64,
    /// Retry policy for backend I/O (`io_retries` attempts with seeded
    /// backoff before a backend is declared dead and the job re-driven).
    pub retry: RetryPolicy,
    /// Request-line byte cap on client connections, as
    /// [`ServerConfig::max_request_bytes`].
    pub max_request_bytes: usize,
    /// Per-line read deadline in ms (0 = none), as
    /// [`ServerConfig::read_timeout_ms`].
    pub read_timeout_ms: u64,
    /// Maximum concurrently open client connections (0 = unlimited).
    pub max_connections: usize,
    /// Maximum elements per `batch` line (0 = unlimited); mirror the
    /// backends' `--max-batch` so an oversized batch is rejected here
    /// with the same response it would get from a backend.
    pub max_batch: usize,
    /// Write the final metrics snapshot here on shutdown.
    pub metrics_path: Option<String>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        let server = ServerConfig::default();
        Self {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            forwarders: 0,
            queue_depth: 64,
            health_interval_ms: 500,
            retry: RetryPolicy::default(),
            max_request_bytes: server.max_request_bytes,
            read_timeout_ms: server.read_timeout_ms,
            max_connections: server.max_connections,
            max_batch: server.max_batch,
            metrics_path: None,
        }
    }
}

/// One settable flag: its name, whether it takes a value, and how the
/// value lands in the config (`None` = unparsable value).
struct Flag<C> {
    name: &'static str,
    takes_value: bool,
    set: fn(&mut C, &str) -> Option<()>,
}

const fn flag<C>(name: &'static str, set: fn(&mut C, &str) -> Option<()>) -> Flag<C> {
    Flag {
        name,
        takes_value: true,
        set,
    }
}

fn set<T: FromStr>(slot: &mut T, value: &str) -> Option<()> {
    *slot = value.parse().ok()?;
    Some(())
}

fn set_some(slot: &mut Option<String>, value: &str) -> Option<()> {
    *slot = Some(value.to_string());
    Some(())
}

fn set_host(addr: &mut String, host: &str) -> Option<()> {
    let port = addr.rsplit_once(':').map_or("", |(_, p)| p);
    *addr = format!("{host}:{port}");
    Some(())
}

fn set_port(addr: &mut String, port: &str) -> Option<()> {
    let port: u16 = port.parse().ok()?;
    let host = addr.rsplit_once(':').map_or(addr.as_str(), |(h, _)| h);
    *addr = format!("{host}:{port}");
    Some(())
}

/// Applies `--name value`, `--name=value` and bare switches from `args`
/// to `config` through `tables`. Unknown, repeated and positional
/// arguments are errors.
fn parse_flags<C>(tables: &[&[Flag<C>]], mut config: C, args: &[String]) -> Result<C, String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(body) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument {arg:?}"));
        };
        let (name, inline) = match body.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (body, None),
        };
        let flag = tables
            .iter()
            .flat_map(|table| table.iter())
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown flag --{name}"))?;
        if seen.contains(&name) {
            return Err(format!("duplicate flag --{name}"));
        }
        seen.push(name);
        let value = match (flag.takes_value, inline) {
            (true, Some(value)) => value,
            (true, None) => it
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?,
            (false, None) => "",
            (false, Some(_)) => return Err(format!("--{name} takes no value")),
        };
        (flag.set)(&mut config, value)
            .ok_or_else(|| format!("invalid value {value:?} for --{name}"))?;
    }
    Ok(config)
}

/// `chameleond`'s flags.
const SERVER_FLAGS: &[Flag<ServerConfig>] = &[
    flag("host", |c, v| set_host(&mut c.addr, v)),
    flag("port", |c, v| set_port(&mut c.addr, v)),
    flag("workers", |c, v| set(&mut c.workers, v)),
    flag("queue-depth", |c, v| set(&mut c.queue_depth, v)),
    flag("cache", |c, v| set(&mut c.cache_capacity, v)),
    flag("timeout-ms", |c, v| set(&mut c.default_timeout_ms, v)),
    flag("metrics", |c, v| set_some(&mut c.metrics_path, v)),
    flag("max-request-bytes", |c, v| set(&mut c.max_request_bytes, v)),
    flag("read-timeout-ms", |c, v| set(&mut c.read_timeout_ms, v)),
    flag("max-connections", |c, v| set(&mut c.max_connections, v)),
    flag("max-batch", |c, v| set(&mut c.max_batch, v)),
    flag("journal-dir", |c, v| set_some(&mut c.journal_dir, v)),
    flag("journal-sync", |c, v| set(&mut c.journal_sync, v)),
    flag("journal-segment-bytes", |c, v| {
        set(&mut c.journal_segment_bytes, v)
    }),
    Flag {
        name: "resume",
        takes_value: false,
        set: |c, _| {
            c.resume = true;
            Some(())
        },
    },
];

/// A `--fault-*` flag: one field of the chaos schedule, arming an inert
/// plan first.
#[cfg(feature = "fault-injection")]
macro_rules! fault_flag {
    ($name:literal, $field:ident) => {
        flag($name, |c: &mut ServerConfig, v| {
            set(
                &mut c.faults.get_or_insert_with(FaultPlan::default).$field,
                v,
            )
        })
    };
}

/// The deterministic chaos schedule of DESIGN.md §8.3; only builds with
/// the `fault-injection` feature accept these flags.
#[cfg(feature = "fault-injection")]
const FAULT_FLAGS: &[Flag<ServerConfig>] = &[
    fault_flag!("fault-seed", seed),
    fault_flag!("fault-panic-rate", panic_rate),
    fault_flag!("fault-panic-budget", panic_budget),
    fault_flag!("fault-cancel-rate", cancel_rate),
    fault_flag!("fault-cancel-budget", cancel_budget),
    fault_flag!("fault-defer-rate", defer_ready_rate),
    fault_flag!("fault-defer-budget", defer_ready_budget),
    fault_flag!("fault-short-write-rate", short_write_rate),
    fault_flag!("fault-short-write-budget", short_write_budget),
];
#[cfg(not(feature = "fault-injection"))]
const FAULT_FLAGS: &[Flag<ServerConfig>] = &[];

impl ServerConfig {
    /// Usage text for [`Self::from_args`].
    pub const USAGE: &'static str = "\
chameleond - Chameleon anonymization job service

USAGE:
    chameleond [--host <addr>] [--port <port>] [--workers <n>]
               [--queue-depth <n>] [--cache <entries>]
               [--timeout-ms <ms>] [--metrics <path>]
               [--max-request-bytes <n>] [--read-timeout-ms <ms>]
               [--max-connections <n>] [--max-batch <n>]
               [--journal-dir <dir>] [--journal-sync <always|interval>]
               [--journal-segment-bytes <n>] [--resume]

OPTIONS:
    --host <addr>       Bind address           [default: 127.0.0.1]
    --port <port>       Bind port (0 = any)    [default: 7788]
    --workers <n>       Worker threads (0 = all cores)  [default: 0]
    --queue-depth <n>   Bounded job queue size [default: 64]
    --cache <entries>   Result cache capacity  [default: 256]
    --timeout-ms <ms>   Default per-job budget [default: 300000]
    --metrics <path>    Write final metrics snapshot here on shutdown
    --max-request-bytes <n>   Request-line byte cap  [default: 16777216]
    --read-timeout-ms <ms>    Per-line read deadline once the first byte
                              arrived; 0 disables   [default: 30000]
    --max-connections <n>     Open-connection cap; 0 = unlimited
                              [default: 256]
    --max-batch <n>           Elements allowed in one batch request;
                              0 = unlimited    [default: 1024]
    --journal-dir <dir>       Write-ahead job journal directory; enables
                              durable jobs (DESIGN.md \u{a7}11)
    --journal-sync <policy>   Journal fsync policy: always | interval
                              [default: interval]
    --journal-segment-bytes <n>  Journal segment rotation threshold
                              [default: 8388608]
    --resume                  Re-enqueue incomplete journaled jobs at
                              startup instead of cancelling them

Builds with the `fault-injection` feature also accept --fault-seed and
--fault-{panic,cancel,defer,short-write}-{rate,budget}, a deterministic
chaos schedule for tests (DESIGN.md \u{a7}8.3).

The wire protocol is newline-delimited JSON (pipelined; supports batch
submission and chunked responses); see DESIGN.md \u{a7}7 and \u{a7}9.
Send {\"op\":\"shutdown\"} for a graceful drain-and-exit.
";

    /// Parses `chameleond` flags (program name excluded) over the
    /// defaults, bound to `127.0.0.1:7788`.
    ///
    /// # Errors
    /// Names the unknown, repeated or unparsable flag.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let defaults = Self {
            addr: "127.0.0.1:7788".into(),
            ..Self::default()
        };
        let mut config = parse_flags(&[SERVER_FLAGS, FAULT_FLAGS], defaults, args)?;
        config.faults = config.faults.filter(FaultPlan::is_active);
        Ok(config)
    }

    pub(crate) fn limits(&self) -> Limits {
        Limits::new(
            self.max_request_bytes,
            self.read_timeout_ms,
            self.max_connections,
            self.max_batch,
        )
    }
}

/// `chameleon-gate`'s flags.
const GATEWAY_FLAGS: &[Flag<GatewayConfig>] = &[
    flag("backends", |c, v| {
        c.backends = v
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        Some(())
    }),
    flag("host", |c, v| set_host(&mut c.addr, v)),
    flag("port", |c, v| set_port(&mut c.addr, v)),
    flag("forwarders", |c, v| set(&mut c.forwarders, v)),
    flag("queue-depth", |c, v| set(&mut c.queue_depth, v)),
    flag("health-interval-ms", |c, v| {
        set(&mut c.health_interval_ms, v)
    }),
    flag("io-retries", |c, v| set(&mut c.retry.io_retries, v)),
    flag("retry-base-ms", |c, v| set(&mut c.retry.base_delay_ms, v)),
    flag("retry-seed", |c, v| set(&mut c.retry.seed, v)),
    flag("max-request-bytes", |c, v| set(&mut c.max_request_bytes, v)),
    flag("read-timeout-ms", |c, v| set(&mut c.read_timeout_ms, v)),
    flag("max-connections", |c, v| set(&mut c.max_connections, v)),
    flag("max-batch", |c, v| set(&mut c.max_batch, v)),
    flag("metrics", |c, v| set_some(&mut c.metrics_path, v)),
];

impl GatewayConfig {
    /// Usage text for [`Self::from_args`].
    pub const USAGE: &'static str = "\
chameleon-gate - consistent-hashing gateway for chameleond backends

USAGE:
    chameleon_gate --backends <addr,addr,...>
                   [--host <addr>] [--port <port>] [--forwarders <n>]
                   [--queue-depth <n>] [--health-interval-ms <ms>]
                   [--io-retries <n>] [--retry-base-ms <ms>]
                   [--retry-seed <n>] [--max-request-bytes <n>]
                   [--read-timeout-ms <ms>] [--max-connections <n>]
                   [--max-batch <n>] [--metrics <path>]

OPTIONS:
    --backends <list>   Comma-separated chameleond addresses (required)
    --host <addr>       Bind address           [default: 127.0.0.1]
    --port <port>       Bind port (0 = any)    [default: 7789]
    --forwarders <n>    Forwarder threads (0 = 2x backends, min 4)
                        [default: 0]
    --queue-depth <n>   Bounded forward queue size [default: 64]
    --health-interval-ms <ms>  Backend status-probe interval; 0 disables
                        the health thread      [default: 500]
    --io-retries <n>    Connect/I-O retries per backend before it is
                        declared dead and the job re-driven [default: 3]
    --retry-base-ms <ms>  Base backoff delay for I/O retries [default: 50]
    --retry-seed <n>    Seed for the jittered backoff schedule [default: 0]
    --max-request-bytes <n>   Request-line byte cap  [default: 16777216]
    --read-timeout-ms <ms>    Per-line read deadline once the first byte
                              arrived; 0 disables   [default: 30000]
    --max-connections <n>     Open-connection cap; 0 = unlimited
                              [default: 256]
    --max-batch <n>     Elements allowed in one batch request; 0 =
                        unlimited; mirror the backends' --max-batch
                        [default: 1024]
    --metrics <path>    Write final metrics snapshot here on shutdown

Jobs are routed by the FNV-1a digest of their graph text over a
consistent-hash ring, so repeated work on one graph hits one backend's
result cache. A backend that fails past the retry budget is marked dead
and its jobs re-driven to the ring successor; results are byte-identical
regardless of placement (DESIGN.md \u{a7}13).
Send {\"op\":\"shutdown\"} for a graceful drain-and-exit (the gateway
only; backends keep running).
";

    /// Parses `chameleon_gate` flags (program name excluded) over the
    /// defaults, bound to `127.0.0.1:7789`.
    ///
    /// # Errors
    /// Names the unknown, repeated or unparsable flag, or a missing
    /// `--backends`.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let defaults = Self {
            addr: "127.0.0.1:7789".into(),
            ..Self::default()
        };
        let config = parse_flags(&[GATEWAY_FLAGS], defaults, args)?;
        if config.backends.is_empty() {
            return Err("--backends requires at least one address".into());
        }
        Ok(config)
    }

    pub(crate) fn limits(&self) -> Limits {
        Limits::new(
            self.max_request_bytes,
            self.read_timeout_ms,
            self.max_connections,
            self.max_batch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn server_flags_land_in_their_fields() {
        let c = ServerConfig::from_args(&argv(
            "--host 0.0.0.0 --port 9000 --workers 3 --cache=7 --resume \
             --journal-sync always --max-batch 0",
        ))
        .unwrap();
        assert_eq!(c.addr, "0.0.0.0:9000");
        assert_eq!((c.workers, c.cache_capacity, c.max_batch), (3, 7, 0));
        assert!(c.resume);
        assert_eq!(c.journal_sync, JournalSync::Always);
        assert_eq!(
            ServerConfig::from_args(&[]).unwrap(),
            ServerConfig {
                addr: "127.0.0.1:7788".into(),
                ..ServerConfig::default()
            }
        );
    }

    #[test]
    fn bad_arguments_are_named() {
        let err = |s: &str| ServerConfig::from_args(&argv(s)).unwrap_err();
        assert!(err("--bogus 1").contains("unknown flag --bogus"));
        assert!(err("--workers x").contains("invalid value \"x\" for --workers"));
        assert!(err("--workers 1 --workers 2").contains("duplicate flag --workers"));
        assert!(err("--port").contains("--port requires a value"));
        assert!(err("--resume=yes").contains("takes no value"));
        assert!(err("stray").contains("unexpected argument"));
        assert!(err("--journal-sync sometimes").contains("--journal-sync"));
        assert!(GatewayConfig::from_args(&argv("--port 1"))
            .unwrap_err()
            .contains("--backends"));
        assert!(
            GatewayConfig::from_args(&argv("--backends a:1 --replicas 64"))
                .unwrap_err()
                .contains("unknown flag --replicas")
        );
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_flags_arm_a_plan_only_when_active() {
        let c = ServerConfig::from_args(&argv(
            "--fault-seed 7 --fault-panic-rate 1.0 --fault-panic-budget 2",
        ))
        .unwrap();
        assert_eq!(c.faults, Some(FaultPlan::new(7).with_panics(1.0, 2)));
        let inert = ServerConfig::from_args(&argv("--fault-seed 7")).unwrap();
        assert_eq!(inert.faults, None);
    }

    #[test]
    fn gateway_flags_land_in_their_fields() {
        let c = GatewayConfig::from_args(&argv(
            "--backends a:1,,b:2 --io-retries 5 --read-timeout-ms 150 --max-connections 0",
        ))
        .unwrap();
        assert_eq!(c.addr, "127.0.0.1:7789");
        assert_eq!(c.backends, vec!["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(c.retry.io_retries, 5);
        assert_eq!(c.read_timeout_ms, 150);
        assert_eq!(c.limits().max_connections, usize::MAX);
    }

    #[test]
    fn zero_limits_mean_unlimited_for_both_front_ends() {
        let server = ServerConfig {
            max_connections: 0,
            max_batch: 0,
            read_timeout_ms: 0,
            max_request_bytes: 1,
            ..ServerConfig::default()
        };
        let gateway = GatewayConfig {
            max_connections: 0,
            max_batch: 0,
            read_timeout_ms: 0,
            max_request_bytes: 1,
            ..GatewayConfig::default()
        };
        let limits = server.limits();
        assert_eq!(limits, gateway.limits());
        assert_eq!(limits.max_connections, usize::MAX);
        assert_eq!(limits.max_batch, usize::MAX);
        assert_eq!(limits.read_timeout, None);
        assert_eq!(limits.max_request_bytes, 64);
    }
}
