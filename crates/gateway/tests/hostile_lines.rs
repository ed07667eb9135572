//! Generated hostile request lines at the wire's trust boundary.
//!
//! Lines are structure-aware: a verb from the request grammar (or garbage
//! in its place) with its arity, one under or one over, and fields drawn
//! from valid, negative, huge, non-finite, empty, non-ASCII and
//! `#`-garbled values. `Request::parse` must never panic and must
//! round-trip whatever it accepts; a live gateway must answer every line
//! with a typed reply, panic no handler and drain to a clean audit.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use proptest::collection;
use proptest::prelude::*;
use qcs_cloud::CloudConfig;
use qcs_gateway::{Gateway, GatewayConfig, Request, Response};
use qcs_machine::Fleet;

/// The request grammar's verbs with their field counts (`SUBMIT` takes an
/// optional seventh, `patience_s`).
const GRAMMAR: [(&str, usize); 8] = [
    ("SUBMIT", 6),
    ("SUBMIT", 7),
    ("STATUS", 1),
    ("CANCEL", 1),
    ("QUEUE", 1),
    ("PREDICT", 3),
    ("METRICS", 0),
    ("QUIT", 0),
];

/// What stands where a verb should.
const GARBAGE_VERBS: [&str; 5] = ["FROB", "submit", "#U#M#T", "ÉTAT", "OK"];

/// Field values by kind. Every value of the first kind fits every field of
/// every verb on the default fleet, so lines of valid fields are admitted.
const FIELDS: [&[&str]; 7] = [
    &["1", "2", "3"],
    &["-1", "-4.5", "-0"],
    &["4294967296", "18446744073709551616", "1e18", "1e308"],
    &["NaN", "inf", "-inf", "infinity"],
    &[""],
    &["é", "३", "\u{3000}", "🚀"],
    &["#0#4", "#.#", "1#2"],
];

/// One hostile line. Field kinds are drawn from `0..18` with `0..=11`
/// meaning valid, so two fields in three are valid; the arity is off by
/// one in two lines of five.
fn hostile_line() -> impl Strategy<Value = String> {
    (
        0..GRAMMAR.len() + 1,
        0..GARBAGE_VERBS.len(),
        0usize..5,
        collection::vec((0usize..18, 0usize..4), 8..9),
    )
        .prop_map(|(verb, garbage, delta, fields)| {
            let (verb, arity) = GRAMMAR
                .get(verb)
                .copied()
                .unwrap_or((GARBAGE_VERBS[garbage], 1));
            let arity = match delta {
                0 => arity.saturating_sub(1),
                1 => arity + 1,
                _ => arity,
            };
            let mut line = verb.to_string();
            for &(kind, pick) in &fields[..arity] {
                let values = FIELDS[kind.saturating_sub(11)];
                line.push(' ');
                line.push_str(values[pick % values.len()]);
            }
            line
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Parsing never panics, and whatever parses prints back to itself.
    /// Compared through `Debug`, whose `f64` form is the shortest string
    /// that parses back to the same bits, so a `NaN` field compares equal.
    #[test]
    fn hostile_lines_parse_typed_and_round_trip(line in hostile_line()) {
        if let Ok(request) = Request::parse(&line) {
            let reparsed = Request::parse(&request.to_string());
            prop_assert_eq!(format!("{reparsed:?}"), format!("{:?}", Ok::<_, ()>(request)));
        }
    }
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    (BufReader::new(stream.try_clone().expect("clone")), stream)
}

/// The same generator's lines through a live gateway, one round trip
/// each: a parse error comes back as exactly its `ERR` line, a parsed
/// request gets the reply its verb allows, no handler panics, and the
/// drain audits clean.
#[test]
fn hostile_lines_get_typed_replies_from_a_live_gateway() {
    let gateway = Gateway::start(
        Fleet::ibm_like(),
        CloudConfig {
            audit: true,
            ..CloudConfig::default()
        },
        GatewayConfig {
            time_compression: 0.0,
            ..GatewayConfig::default()
        },
    )
    .expect("bind loopback");
    let strategy = hostile_line();
    let mut rng = proptest::test_rng("hostile_lines_get_typed_replies_from_a_live_gateway");
    let (mut reader, mut writer) = connect(gateway.addr());
    let mut accepted = 0;
    for _ in 0..1024 {
        let line = strategy.generate(&mut rng);
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        let reply = reply
            .strip_suffix('\n')
            .unwrap_or_else(|| panic!("{line:?}: unterminated reply {reply:?}"));
        let typed = Response::parse(reply)
            .unwrap_or_else(|e| panic!("{line:?}: untyped reply {reply:?}: {e}"));
        let fits = match (Request::parse(&line), &typed) {
            (Err(error), _) => reply == Response::Err(error).to_string(),
            (Ok(Request::Submit { .. }), Response::Ok(_)) => {
                accepted += 1;
                true
            }
            (Ok(Request::Quit), Response::Bye) => {
                (reader, writer) = connect(gateway.addr());
                true
            }
            (Ok(Request::Submit { .. }), Response::Busy(_) | Response::Err(_))
            | (Ok(Request::Cancel(_)), Response::Ok(_) | Response::Err(_))
            | (Ok(Request::Status(_)), Response::Status { .. })
            | (Ok(Request::Queue(_)), Response::Queue { .. } | Response::Err(_))
            | (Ok(Request::Predict { .. }), Response::Predict { .. } | Response::Err(_))
            | (Ok(Request::Metrics), Response::Metrics(_)) => true,
            _ => false,
        };
        assert!(fits, "{line:?} answered {reply:?}");
    }
    drop((reader, writer));
    assert!(accepted > 0, "no generated SUBMIT was admitted");
    assert_eq!(gateway.handler_panics(), 0);
    let (result, metrics) = gateway.shutdown_and_drain();
    assert_eq!(metrics.accepted, accepted);
    assert_eq!(result.total_jobs, accepted);
    result.audit.expect("audit enabled").assert_clean();
}
