//! Property tests for the wire-protocol parser plus a live abuse round
//! against both front ends (a daemon, and a gateway fronting one): no
//! request line — malformed, truncated, junk-byte, or invalid UTF-8 — may
//! panic the parser or leave a connection without a reply.

mod common;

use chameleon_obs::json::Json;
use chameleon_server::{parse_request, ServerConfig};
use common::FRONTS;
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};

/// A representative valid request line for mutation-based fuzzing.
fn valid_request() -> String {
    "{\"op\":\"obfuscate\",\"id\":\"j1\",\"graph\":\"nodes 3\\n0 1 0.5\\n1 2 0.25\\n\",\
     \"k\":2,\"epsilon\":0.05,\"method\":\"RSME\",\"worlds\":40,\"trials\":2,\"seed\":7}"
        .to_string()
}

proptest! {
    /// Arbitrary bytes (lossily decoded, as the daemon's reader would
    /// hand them over) never panic the parser — every input yields
    /// `Ok(request)` or a structured `Err((id, message))`.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in vec(any::<u8>(), 0..512)
    ) {
        let line = String::from_utf8_lossy(&bytes);
        match parse_request(&line) {
            Ok(_) => {}
            Err((_, msg)) => prop_assert!(!msg.is_empty()),
        }
    }

    /// Every strict prefix of a valid request is rejected (a truncated
    /// JSON object is never silently accepted), without panicking.
    #[test]
    fn truncated_requests_are_rejected_not_panicked(
        cut_seed in any::<u64>()
    ) {
        let full = valid_request();
        let cut = (cut_seed % full.len() as u64) as usize;
        // Truncation may split a UTF-8 boundary in principle; this
        // request is ASCII, so every cut is a valid char boundary.
        let truncated = &full[..cut];
        prop_assert!(
            parse_request(truncated).is_err(),
            "accepted truncated request {truncated:?}"
        );
    }

    /// Splicing a junk byte anywhere into a valid request never panics,
    /// and anything still accepted parses as a known operation.
    #[test]
    fn junk_byte_injection_never_panics(
        pos_seed in any::<u64>(),
        junk in any::<u8>()
    ) {
        let mut line = valid_request();
        let pos = (pos_seed % (line.len() as u64 + 1)) as usize;
        // Keep the mutation a valid `String` (the reader rejects
        // non-UTF-8 lines before the parser ever sees them).
        let junk_char = char::from(junk % 0x80);
        line.insert(pos, junk_char);
        let _ = parse_request(&line);
    }

    /// Unknown fields, wrong field types and wild numbers yield errors
    /// that carry the request id whenever one was parseable.
    #[test]
    fn type_confusion_keeps_the_request_id(
        k_text in vec(0u8..=255u8, 0..8)
    ) {
        // Printable ASCII minus quote/backslash: the line stays valid
        // JSON (so the id is recoverable), only the field type is wrong.
        let weird: String = k_text
            .iter()
            .map(|b| char::from(b' ' + b % 0x5e))
            .filter(|c| *c != '"' && *c != '\\')
            .collect();
        let line = format!(
            "{{\"op\":\"obfuscate\",\"id\":\"keepme\",\"graph\":\"0 1 0.5\\n\",\"k\":\"{weird}\"}}"
        );
        match parse_request(&line) {
            Err((id, _)) => prop_assert_eq!(id.as_deref(), Some("keepme")),
            Ok(_) => prop_assert!(false, "string k accepted: {}", line),
        }
    }
}

/// Reads `n` newline-terminated replies and indexes them by their echoed
/// `id` (pipelined responses complete in worker order, not request order).
fn read_replies_by_id<R: BufRead>(
    reader: &mut R,
    n: usize,
) -> std::collections::HashMap<String, Json> {
    let mut replies = std::collections::HashMap::new();
    for _ in 0..n {
        let mut line = String::new();
        let got = reader.read_line(&mut line).unwrap();
        assert!(got > 0, "connection closed with replies outstanding");
        let v = Json::parse(line.trim_end())
            .unwrap_or_else(|e| panic!("unstructured reply {line:?}: {e}"));
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("reply missing id: {line}"))
            .to_string();
        assert!(
            replies.insert(id.clone(), v).is_none(),
            "id {id:?} echoed twice"
        );
    }
    replies
}

#[test]
fn pipelined_burst_echoes_every_id_exactly_once() {
    for front in FRONTS {
        let front = front.start(ServerConfig::default());
        let addr = front.addr.clone();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // One burst: valid jobs interleaved with id-tagged junk, all written
        // before a single reply is read. Every line — good or junk — must be
        // answered with its own id, exactly once.
        let mut burst = String::new();
        let mut expect_ok = Vec::new();
        let mut expect_err = Vec::new();
        for i in 0..8 {
            burst.push_str(&format!(
                "{{\"op\":\"check\",\"id\":\"ok{i}\",\"graph\":\"0 1 0.5\\n1 2 0.5\\n\",\"k\":1}}\n"
            ));
            expect_ok.push(format!("ok{i}"));
            burst.push_str(&format!("{{\"op\":\"bogus\",\"id\":\"bad{i}\"}}\n"));
            expect_err.push(format!("bad{i}"));
        }
        conn.write_all(burst.as_bytes()).unwrap();
        conn.flush().unwrap();

        let replies = read_replies_by_id(&mut reader, expect_ok.len() + expect_err.len());
        for id in &expect_ok {
            let v = &replies[id];
            assert_eq!(
                v.get("status").and_then(Json::as_str),
                Some("ok"),
                "{id}: {v:?}"
            );
        }
        for id in &expect_err {
            let v = &replies[id];
            assert_eq!(
                v.get("status").and_then(Json::as_str),
                Some("error"),
                "{id}: {v:?}"
            );
            assert!(v.get("error").and_then(Json::as_str).is_some());
        }

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn half_close_after_pipelined_burst_still_delivers_every_reply() {
    for front in FRONTS {
        let front = front.start(ServerConfig::default());
        let addr = front.addr.clone();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // The pipelined-client idiom: write every request, then shut down the
        // write side (`printf 'req\n' | nc`). The FIN races the reactor's
        // poll tick against delivery of the burst; whichever way it lands,
        // the server must dispatch every complete line and keep the
        // connection in write-drain until all replies are out.
        let mut burst = String::new();
        let mut expect = Vec::new();
        for i in 0..8 {
            burst.push_str(&format!(
                "{{\"op\":\"check\",\"id\":\"hc{i}\",\"graph\":\"0 1 0.5\\n1 2 0.5\\n\",\"k\":1}}\n"
            ));
            expect.push(format!("hc{i}"));
        }
        conn.write_all(burst.as_bytes()).unwrap();
        conn.flush().unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();

        let replies = read_replies_by_id(&mut reader, expect.len());
        for id in &expect {
            let v = &replies[id];
            assert_eq!(
                v.get("status").and_then(Json::as_str),
                Some("ok"),
                "{id}: {v:?}"
            );
        }
        // Everything owed was delivered; the server now closes its side too.
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn oversized_line_still_answers_earlier_lines_from_the_same_burst() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            max_request_bytes: 512,
            ..ServerConfig::default()
        });
        let addr = front.addr.clone();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // One write: two well-formed lines with immediate replies, then a
        // line far over the limit. The earlier lines were complete before
        // the overflow and must be answered ahead of the error.
        let mut burst = String::from("{\"op\":\"status\",\"id\":\"pre1\"}\n");
        burst.push_str("{\"op\":\"bogus\",\"id\":\"pre2\"}\n");
        burst.push_str(&format!(
            "{{\"op\":\"check\",\"junk\":\"{}\"",
            "x".repeat(2048)
        ));
        burst.push('\n');
        conn.write_all(burst.as_bytes()).unwrap();
        conn.flush().unwrap();

        let replies = read_replies_by_id(&mut reader, 2);
        assert_eq!(
            replies["pre1"].get("status").and_then(Json::as_str),
            Some("ok"),
            "status request preceding the oversized line must be answered"
        );
        assert_eq!(
            replies["pre2"].get("status").and_then(Json::as_str),
            Some("error"),
            "junk line preceding the oversized line must keep its reply"
        );
        // Then the terminal request_too_large error, then EOF.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert_eq!(
            v.get("code").and_then(Json::as_str),
            Some("request_too_large")
        );
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn oversized_batch_is_rejected_whole_with_batch_too_large() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            max_batch: 4,
            ..ServerConfig::default()
        });
        let addr = front.addr.clone();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        let elem = "{\"op\":\"check\",\"graph\":\"0 1 0.5\\n\",\"k\":1}";
        let over = format!(
            "{{\"op\":\"batch\",\"id\":\"big\",\"requests\":[{}]}}\n",
            [elem; 6].join(",")
        );
        conn.write_all(over.as_bytes()).unwrap();
        conn.flush().unwrap();

        // Exactly one reply for the whole rejected batch, carrying the batch id
        // and the machine-readable code — no per-element replies leak through.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("big"));
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(
            v.get("code").and_then(Json::as_str),
            Some("batch_too_large")
        );

        // A batch at the limit still goes through, all on the same connection.
        let ok = format!(
            "{{\"op\":\"batch\",\"id\":\"fit\",\"requests\":[{}]}}\n",
            [elem; 4].join(",")
        );
        conn.write_all(ok.as_bytes()).unwrap();
        conn.flush().unwrap();
        let replies = read_replies_by_id(&mut reader, 4);
        for i in 0..4 {
            let v = &replies[&format!("fit#{i}")];
            assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{v:?}");
        }

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn batch_junk_elements_get_per_element_replies_with_derived_ids() {
    for front in FRONTS {
        let front = front.start(ServerConfig::default());
        let addr = front.addr.clone();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // Element 0: valid, no id (inherits "b#0"). Element 1: junk op.
        // Element 2: nested batch (forbidden). Element 3: valid, explicit id.
        let line = "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[\
             {\"op\":\"check\",\"graph\":\"0 1 0.5\\n\",\"k\":1},\
             {\"op\":\"bogus\"},\
             {\"op\":\"batch\",\"requests\":[]},\
             {\"op\":\"check\",\"id\":\"own\",\"graph\":\"0 1 0.5\\n\",\"k\":1}]}\n";
        conn.write_all(line.as_bytes()).unwrap();
        conn.flush().unwrap();

        let replies = read_replies_by_id(&mut reader, 4);
        assert_eq!(
            replies["b#0"].get("status").and_then(Json::as_str),
            Some("ok")
        );
        assert_eq!(
            replies["own"].get("status").and_then(Json::as_str),
            Some("ok")
        );
        for id in ["b#1", "b#2"] {
            let v = &replies[id];
            assert_eq!(
                v.get("status").and_then(Json::as_str),
                Some("error"),
                "{v:?}"
            );
            assert!(v.get("error").and_then(Json::as_str).is_some());
        }

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn requests_split_mid_line_across_poll_ticks_reassemble() {
    for front in FRONTS {
        let front = front.start(ServerConfig::default());
        let addr = front.addr.clone();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // Dribble a pipelined pair of requests in 7-byte fragments with pauses
        // so each fragment lands in a separate poll tick; the reactor must
        // buffer partial lines across ticks and only dispatch on '\n'.
        let payload = "{\"op\":\"check\",\"id\":\"slow\",\"graph\":\"0 1 0.5\\n\",\"k\":1}\n\
                       {\"op\":\"bogus\",\"id\":\"slow2\"}\n";
        for frag in payload.as_bytes().chunks(7) {
            conn.write_all(frag).unwrap();
            conn.flush().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }

        let replies = read_replies_by_id(&mut reader, 2);
        assert_eq!(
            replies["slow"].get("status").and_then(Json::as_str),
            Some("ok")
        );
        assert_eq!(
            replies["slow2"].get("status").and_then(Json::as_str),
            Some("error")
        );

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn every_junk_line_gets_a_reply_and_the_connection_survives() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            max_request_bytes: 64 * 1024,
            ..ServerConfig::default()
        });
        let addr = front.addr.clone();

        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let junk_lines: &[&[u8]] = &[
            b"not json at all",
            b"{",
            b"}{",
            b"{\"op\":12}",
            b"{\"op\":\"obfuscate\"}",
            b"\x00\x01\x02\x03",
            b"\xff\xfe\xfd invalid utf8",
            b"[1,2,3]",
            b"\"just a string\"",
            b"{\"op\":\"check\",\"graph\":\"0 1 0.5\\n\",\"k\":\"two\"}",
        ];
        for junk in junk_lines {
            conn.write_all(junk).unwrap();
            conn.write_all(b"\n").unwrap();
            conn.flush().unwrap();
            let mut line = String::new();
            let n = reader.read_line(&mut line).unwrap();
            assert!(n > 0, "no reply for junk line {junk:?}");
            let v = Json::parse(line.trim_end())
                .unwrap_or_else(|e| panic!("unstructured reply {line:?} for {junk:?}: {e}"));
            assert_eq!(
                v.get("status").and_then(Json::as_str),
                Some("error"),
                "junk line {junk:?} was not rejected: {line}"
            );
            assert!(
                v.get("error").and_then(Json::as_str).is_some(),
                "reply missing error message: {line}"
            );
        }

        // After all that, the same connection still serves real requests.
        let resp = chameleon_server::roundtrip(&mut conn, r#"{"op":"status"}"#).unwrap();
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn truncated_line_at_eof_gets_a_structured_error_then_eof() {
    for front in FRONTS {
        let front = front.start(ServerConfig::default());
        let mut conn = std::net::TcpStream::connect(&front.addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());

        // A complete line, then a started one cut off by the client's FIN:
        // the complete line is answered, the fragment gets a structured
        // error, and the connection closes after it.
        conn.write_all(b"{\"op\":\"status\",\"id\":\"whole\"}\n{\"op\":\"sta")
            .unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();

        let replies = read_replies_by_id(&mut reader, 1);
        assert_eq!(
            replies["whole"].get("status").and_then(Json::as_str),
            Some("ok")
        );
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("code").and_then(Json::as_str), Some("bad_request"));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("truncated request"));
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "expected EOF");

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}

#[test]
fn zero_batch_and_connection_limits_mean_unlimited() {
    for front in FRONTS {
        let front = front.start(ServerConfig {
            max_batch: 0,
            max_connections: 0,
            ..ServerConfig::default()
        });
        // Hold one connection open (proven accepted by a round-trip)...
        let mut first = std::net::TcpStream::connect(&front.addr).unwrap();
        let resp = chameleon_server::roundtrip(&mut first, r#"{"op":"status"}"#).unwrap();
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");

        // ...and a second one still gets in and may send a 3-element batch.
        let mut second = std::net::TcpStream::connect(&front.addr).unwrap();
        let mut reader = BufReader::new(second.try_clone().unwrap());
        let elem = "{\"op\":\"check\",\"graph\":\"0 1 0.5\\n\",\"k\":1}";
        let line = format!(
            "{{\"op\":\"batch\",\"id\":\"three\",\"requests\":[{}]}}\n",
            [elem; 3].join(",")
        );
        second.write_all(line.as_bytes()).unwrap();
        let replies = read_replies_by_id(&mut reader, 3);
        for i in 0..3 {
            let v = &replies[&format!("three#{i}")];
            assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{v:?}");
        }
        drop(first);

        let (resp, _) = front.shutdown();
        assert!(resp.contains("\"status\":\"ok\""));
    }
}
