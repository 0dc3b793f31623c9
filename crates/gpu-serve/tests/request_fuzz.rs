//! Seeded fuzzing of the daemon's request frames over a loopback socket.
//!
//! Every request line a peer can send — truncated, wrongly typed,
//! fractional or oversized numbers, unknown ops and fields, deep nesting,
//! bytes that are not UTF-8 — must get exactly one typed frame back,
//! never a panic, and leave the connection usable: after each case the
//! same connection must answer a `ping` with the pong frame and nothing
//! before it. A `submit` that survives its mutation leads straight into a
//! cache lookup on the connection thread, so the cases include valid and
//! near-valid submissions too. Slow and half-closed peers get the same
//! contract.

use gpu_serve::{serve, Client, DaemonHandle, ServeConfig};
use gpu_trace::json::Json;
use sim_rand::{Rng, SeedableRng, StdRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Well-formed requests the mutations start from. Job ids are ones the
/// daemon never hands out (a mutated id may still name a real job: `0.999…`
/// reads as 1); the submission's cycle cap keeps its runs short.
const BASES: [&str; 6] = [
    r#"{"op":"submit","benchmark":"amr","variant":"Flat","scale":"test","client":"fuzz","weight":1,"config":"test_small","cycle_cap":20000}"#,
    r#"{"op":"poll","job":1000000}"#,
    r#"{"op":"wait","job":1000000,"timeout_ms":5}"#,
    r#"{"op":"trace","job":1000000}"#,
    r#"{"op":"metrics"}"#,
    r#"{"op":"ping"}"#,
];

/// Values a field's value is replaced with: every JSON type, negative,
/// fractional, and integers past `u64` and past `f64`.
const WRONG_VALUES: [&str; 14] = [
    r#""x""#,
    r#""1""#,
    "true",
    "null",
    "[]",
    "{}",
    "-1",
    "-0",
    "2.5",
    "0.0000001",
    "1e20",
    "1e400",
    "18446744073709551616",
    "99999999999999999999999999999",
];

/// Op names that are not ops, or are ops the case must not run
/// (`shutdown` would stop the daemon under test).
const WRONG_OPS: [&str; 6] = [
    r#""""#,
    r#""SUBMIT""#,
    r#""pol""#,
    r#""ping ""#,
    "7",
    "null",
];

/// Byte sequences that are not UTF-8: a lone continuation byte, a
/// truncated two-byte sequence, an encoded surrogate, an invalid byte.
const NOT_UTF8: [&[u8]; 4] = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"];

/// Error kinds the wire grammar defines.
const KINDS: [&str; 7] = [
    "bad_request",
    "unknown_job",
    "timeout",
    "overloaded",
    "sim",
    "version_mismatch",
    "shutting_down",
];

/// The byte spans of each top-level member's value in `base`, found by
/// walking the tree's writer output (the bases are in that form).
fn member_values(base: &str) -> Vec<(usize, usize)> {
    let Json::Obj(pairs) = Json::parse(base).expect("bases parse") else {
        unreachable!("bases are objects")
    };
    let mut spans = Vec::new();
    let mut from = 0;
    for (key, value) in &pairs {
        let head = format!("\"{key}\":");
        let start = from + base[from..].find(&head).expect("member key") + head.len();
        let end = start + value.to_string().len();
        spans.push((start, end));
        from = end;
    }
    spans
}

/// One mutated request line. Never contains a newline and is never blank,
/// so the daemon reads exactly one request from it.
fn mutate(rng: &mut StdRng) -> Vec<u8> {
    let base = BASES[rng.gen_range(0..BASES.len())];
    let spans = member_values(base);
    let (start, end) = spans[rng.gen_range(0..spans.len())];
    let mut line: Vec<u8> = match rng.gen_range(0..9u32) {
        // Truncation at any byte, closing brace included.
        0 => base.as_bytes()[..rng.gen_range(1..base.len())].to_vec(),
        // A member's value replaced by a wrong one.
        1 => {
            let wrong = WRONG_VALUES[rng.gen_range(0..WRONG_VALUES.len())];
            format!("{}{wrong}{}", &base[..start], &base[end..]).into_bytes()
        }
        // The op replaced by a wrong one.
        2 => {
            let (start, end) = spans[0];
            let op = WRONG_OPS[rng.gen_range(0..WRONG_OPS.len())];
            format!("{}{op}{}", &base[..start], &base[end..]).into_bytes()
        }
        // A member dropped (with its separator).
        3 => {
            let key_start = base[..start].rfind(['{', ',']).expect("member start");
            let rest = if base[key_start..].starts_with('{') {
                format!("{{{}", base[end..].trim_start_matches(','))
            } else {
                base[end..].to_string()
            };
            format!("{}{rest}", &base[..key_start]).into_bytes()
        }
        // An unknown member, or a repeated one with a wrong value.
        4 => {
            let key = ["zz", "op", "job", "client", "trace"][rng.gen_range(0..5usize)];
            let wrong = WRONG_VALUES[rng.gen_range(0..WRONG_VALUES.len())];
            format!("{},\"{key}\":{wrong}}}", &base[..base.len() - 1]).into_bytes()
        }
        // Bytes that are not UTF-8, anywhere.
        5 => {
            let at = rng.gen_range(0..=base.len());
            let bad = NOT_UTF8[rng.gen_range(0..NOT_UTF8.len())];
            [&base.as_bytes()[..at], bad, &base.as_bytes()[at..]].concat()
        }
        // A value nested deeper than any request needs.
        6 => {
            let depth = rng.gen_range(1..12_000usize);
            let open = if rng.gen_bool(0.5) { "[" } else { "{\"a\":" };
            format!("{}{}{}", &base[..start], open.repeat(depth), &base[start..]).into_bytes()
        }
        // A number with a long run of digits or an extreme exponent.
        7 => {
            let digits = "9".repeat(rng.gen_range(1..400));
            let num = match rng.gen_range(0..3u32) {
                0 => digits,
                1 => format!("1e{digits}"),
                _ => format!("0.{digits}"),
            };
            format!("{}{num}{}", &base[..start], &base[end..]).into_bytes()
        }
        // Random bytes, printable or not.
        _ => (0..rng.gen_range(1..64))
            .map(|_| rng.gen_range(0..=255u32) as u8)
            .collect(),
    };
    line.retain(|&b| b != b'\n');
    if line.iter().all(u8::is_ascii_whitespace) {
        line.push(b'x');
    }
    line
}

/// A raw connection past its hello frame.
struct Peer {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Peer {
    fn connect(addr: SocketAddr) -> Peer {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut peer = Peer {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        };
        let hello = peer.frame();
        assert_eq!(hello.get("hello").and_then(Json::as_str), Some("gpu-serve"));
        peer
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    /// The next reply line, as a JSON object.
    fn frame(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("a reply frame");
        assert!(n > 0 && line.ends_with('\n'), "connection closed: {line:?}");
        Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("reply is not JSON ({e}): {line}"))
    }

    /// Reads the one answer a request got: `{"ok":true,..}`, an error
    /// frame of a kind the grammar defines, or — for a `trace` of a job a
    /// mutated id happens to name — one whole trace stream.
    fn typed_frame(&mut self, case: &[u8]) {
        let frame = self.frame();
        let shown = String::from_utf8_lossy(case);
        match frame.get("ok") {
            Some(Json::Bool(true)) if frame.get("streaming") == Some(&Json::Bool(true)) => {
                let lines = frame
                    .get("lines")
                    .and_then(Json::as_u64)
                    .expect("line count");
                for _ in 0..lines {
                    self.frame();
                }
                let end = self.frame();
                assert_eq!(end.get("end"), Some(&Json::Bool(true)), "{end}");
            }
            Some(Json::Bool(true)) => {}
            Some(Json::Bool(false)) => {
                let kind = frame
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str);
                assert!(
                    kind.is_some_and(|k| KINDS.contains(&k)),
                    "untyped error frame {frame} for {shown:.300}"
                );
            }
            _ => panic!("frame without `ok` {frame} for {shown:.300}"),
        }
    }

    /// The connection still answers, and nothing was queued before the
    /// answer: the previous case got exactly one frame.
    fn still_usable(&mut self, case: &[u8]) {
        self.send(b"{\"op\":\"ping\"}\n");
        let pong = self.frame();
        assert_eq!(
            pong.get("pong"),
            Some(&Json::Bool(true)),
            "after {:.300}: {pong}",
            String::from_utf8_lossy(case)
        );
    }

    fn case(&mut self, case: &[u8]) {
        self.send(&[case, b"\n"].concat());
        self.typed_frame(case);
        self.still_usable(case);
    }
}

fn daemon() -> DaemonHandle {
    serve(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
}

fn stop(handle: DaemonHandle) {
    let mut client = Client::connect(handle.addr).expect("the daemon still accepts");
    client.ping().expect("the daemon still answers");
    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn every_mutated_request_gets_one_typed_frame() {
    let handle = daemon();
    let mut peer = Peer::connect(handle.addr);
    for base in BASES {
        peer.case(base.as_bytes());
    }
    let mut rng = StdRng::seed_from_u64(0xf022);
    for _ in 0..3_000 {
        peer.case(&mutate(&mut rng));
    }
    stop(handle);
}

/// Targeted frames: the edges the random mutations reach only by chance.
#[test]
fn edge_frames_get_one_typed_frame() {
    let handle = daemon();
    let mut peer = Peer::connect(handle.addr);
    let nested = |open: &str, close: &str, depth: usize| {
        format!(
            "{{\"op\":\"ping\",\"x\":{}0{}}}",
            open.repeat(depth),
            close.repeat(depth)
        )
    };
    let cases: Vec<Vec<u8>> = vec![
        // A wait whose timeout is the largest the grammar allows.
        br#"{"op":"wait","job":1000000,"timeout_ms":1e20}"#.to_vec(),
        br#"{"op":"wait","job":1000000,"timeout_ms":18446744073709551615}"#.to_vec(),
        // Balanced nesting that fills most of the request bound.
        nested("[", "]", 30_000).into_bytes(),
        nested("{\"a\":", "}", 9_000).into_bytes(),
        // Every byte that is not UTF-8 in a string, a key and bare.
        b"{\"op\":\"p\xffing\"}".to_vec(),
        b"{\"\xc3\":1,\"op\":\"ping\"}".to_vec(),
        b"\xed\xa0\x80".to_vec(),
        // Escapes the parser must reject or decode without panicking.
        br#"{"op":"ping","x":"\ud800"}"#.to_vec(),
        br#"{"op":"ping","x":"\u12"}"#.to_vec(),
        br#"{"op":"ping","x":"\"#.to_vec(),
        // Numbers at and past every bound.
        br#"{"op":"poll","job":9007199254740993}"#.to_vec(),
        br#"{"op":"poll","job":-9223372036854775809}"#.to_vec(),
        br#"{"op":"poll","job":1e-400}"#.to_vec(),
        br#"{"op":"poll","job":1.0e2}"#.to_vec(),
        br#"{"op":"poll","job":--1}"#.to_vec(),
        // Not an object at all.
        b"[]".to_vec(),
        b"\"op\"".to_vec(),
        b"\x00".to_vec(),
    ];
    for case in &cases {
        peer.case(case);
    }
    stop(handle);
}

/// A peer that pauses mid-line for longer than the daemon's read poll,
/// and one that half-closes after its request, are each answered once.
#[test]
fn slow_and_half_closed_peers_get_one_frame() {
    let handle = daemon();
    let mut slow = Peer::connect(handle.addr);
    let request = br#"{"op":"poll","job":1000000}"#;
    let (head, tail) = request.split_at(9);
    slow.send(head);
    std::thread::sleep(Duration::from_millis(450));
    slow.send(&[tail, b"\n"].concat());
    slow.typed_frame(request);
    slow.still_usable(request);

    let mut half = Peer::connect(handle.addr);
    half.send(b"{\"op\":\"ping\"}\n{\"op\":\"poll\"");
    half.stream.shutdown(Shutdown::Write).expect("half-close");
    let pong = half.frame();
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)), "{pong}");
    let mut rest = String::new();
    half.reader
        .read_line(&mut rest)
        .expect("the daemon closes its side");
    assert_eq!(rest, "", "an unterminated last line gets no frame");
    stop(handle);
}
