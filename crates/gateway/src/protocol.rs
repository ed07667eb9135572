//! The wire protocol: newline-delimited, space-separated ASCII.
//!
//! Grammar (one request per line, one response line per request):
//!
//! ```text
//! request  = submit | status | cancel | queue | predict | metrics | quit
//! submit   = "SUBMIT" provider machine circuits shots mean_depth mean_width [patience_s]
//! status   = "STATUS" id
//! cancel   = "CANCEL" id
//! queue    = "QUEUE" machine          ; machine = fleet index or name
//! predict  = "PREDICT" machine circuits shots
//! metrics  = "METRICS"
//! quit     = "QUIT"
//!
//! response = "OK" id                  ; submit accepted / cancel done
//!          | "BUSY" reason...        ; rate-limited or admission queue full
//!          | "ERR" code detail...    ; typed rejection (see ErrorCode)
//!          | "STATUS" id state       ; state ∈ queued running completed
//!          |                         ;         errored cancelled unknown
//!          | "QUEUE" machine depth
//!          | "PREDICT" machine wait_s lo_s hi_s run_s
//!          | "METRICS" k=v k=v ...
//!          | "BYE"
//! ```
//!
//! Both sides of the protocol live here so the server and the client
//! cannot drift: [`Request`] and [`Response`] each have a parser and a
//! formatter, and `parse(format(x)) == x` is property-tested. Parse
//! failures are typed [`ProtocolError`]s — a code from the fixed
//! [`ErrorCode`](crate::ErrorCode) table plus a human-readable detail —
//! never panics, whatever bytes arrive.

use std::fmt;
use std::str::FromStr;

use crate::error::{ErrorCode, ProtocolError};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job. `machine` is a fleet index (`"2"`) or machine name
    /// (`"casablanca"`); the server resolves it.
    Submit {
        /// Fair-share provider id of the submitting user.
        provider: u32,
        /// Target machine: index or name.
        machine: String,
        /// Circuits in the batch.
        circuits: u32,
        /// Shots per circuit.
        shots: u32,
        /// Mean scheduled circuit depth.
        mean_depth: f64,
        /// Mean circuit width.
        mean_width: f64,
        /// Seconds the user will wait before cancelling
        /// (`f64::INFINITY` = patient).
        patience_s: f64,
    },
    /// Look up the lifecycle state of a job by gateway-assigned id.
    Status(u64),
    /// Cancel a queued (or not-yet-arrived) job.
    Cancel(u64),
    /// Current depth (queued + executing) of one machine's queue.
    Queue(String),
    /// Queue-time + runtime estimate for a prospective job on a machine
    /// (index or name) with the current backlog.
    Predict {
        /// Target machine: index or name.
        machine: String,
        /// Circuits in the prospective batch.
        circuits: u32,
        /// Shots per circuit.
        shots: u32,
    },
    /// Snapshot of the gateway counters.
    Metrics,
    /// Close the connection.
    Quit,
}

fn field<T: FromStr>(tokens: &[&str], i: usize, name: &str) -> Result<T, ProtocolError> {
    let raw = tokens.get(i).ok_or_else(|| {
        ProtocolError::new(ErrorCode::MissingField, format!("missing field <{name}>"))
    })?;
    raw.parse()
        .map_err(|_| ProtocolError::new(ErrorCode::BadField, format!("bad <{name}>: {raw:?}")))
}

impl Request {
    /// Parse one request line (without the trailing newline).
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] naming the first offending field; the server
    /// relays its code and detail verbatim in an `ERR` response.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let verb = *tokens
            .first()
            .ok_or_else(|| ProtocolError::new(ErrorCode::Empty, "empty request"))?;
        match verb {
            "SUBMIT" => {
                if tokens.len() < 7 || tokens.len() > 8 {
                    return Err(ProtocolError::new(
                        ErrorCode::BadArity,
                        format!("SUBMIT takes 6 or 7 fields, got {}", tokens.len() - 1),
                    ));
                }
                let patience_s = if tokens.len() == 8 {
                    field(&tokens, 7, "patience_s")?
                } else {
                    f64::INFINITY
                };
                Ok(Request::Submit {
                    provider: field(&tokens, 1, "provider")?,
                    machine: tokens[2].to_string(),
                    circuits: field(&tokens, 3, "circuits")?,
                    shots: field(&tokens, 4, "shots")?,
                    mean_depth: field(&tokens, 5, "mean_depth")?,
                    mean_width: field(&tokens, 6, "mean_width")?,
                    patience_s,
                })
            }
            "STATUS" => Ok(Request::Status(field(&tokens, 1, "id")?)),
            "CANCEL" => Ok(Request::Cancel(field(&tokens, 1, "id")?)),
            "QUEUE" => Ok(Request::Queue(
                tokens
                    .get(1)
                    .ok_or_else(|| {
                        ProtocolError::new(ErrorCode::MissingField, "missing field <machine>")
                    })?
                    .to_string(),
            )),
            "PREDICT" => {
                if tokens.len() != 4 {
                    return Err(ProtocolError::new(
                        ErrorCode::BadArity,
                        format!("PREDICT takes 3 fields, got {}", tokens.len() - 1),
                    ));
                }
                Ok(Request::Predict {
                    machine: tokens[1].to_string(),
                    circuits: field(&tokens, 2, "circuits")?,
                    shots: field(&tokens, 3, "shots")?,
                })
            }
            "METRICS" => Ok(Request::Metrics),
            "QUIT" => Ok(Request::Quit),
            other => Err(ProtocolError::new(
                ErrorCode::UnknownVerb,
                format!("unknown verb {other:?}"),
            )),
        }
    }
}

impl FromStr for Request {
    type Err = ProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Request::parse(s)
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Request::Submit {
                provider,
                machine,
                circuits,
                shots,
                mean_depth,
                mean_width,
                patience_s,
            } => {
                write!(
                    f,
                    "SUBMIT {provider} {machine} {circuits} {shots} {mean_depth} {mean_width}"
                )?;
                // Only the patient default is implied by omission; NaN or
                // `-inf` go on the wire for the server to reject.
                if *patience_s != f64::INFINITY {
                    write!(f, " {patience_s}")?;
                }
                Ok(())
            }
            Request::Status(id) => write!(f, "STATUS {id}"),
            Request::Cancel(id) => write!(f, "CANCEL {id}"),
            Request::Queue(machine) => write!(f, "QUEUE {machine}"),
            Request::Predict {
                machine,
                circuits,
                shots,
            } => write!(f, "PREDICT {machine} {circuits} {shots}"),
            Request::Metrics => f.write_str("METRICS"),
            Request::Quit => f.write_str("QUIT"),
        }
    }
}

/// A server response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Request accepted; for `SUBMIT` the id is gateway-assigned, for
    /// `CANCEL` it echoes the cancelled id.
    Ok(u64),
    /// Temporarily rejected — retry later (rate limit or admission queue
    /// full). The reason is advisory.
    Busy(String),
    /// Permanently rejected: a typed [`ProtocolError`] whose code is
    /// machine-readable (`ERR <code> <detail...>` on the wire).
    Err(ProtocolError),
    /// Lifecycle state of a job (`unknown` if the gateway never saw it).
    Status {
        /// Gateway-assigned job id.
        id: u64,
        /// `queued`, `running`, `completed`, `errored`, `cancelled`, or
        /// `unknown`.
        state: String,
    },
    /// Queue depth of one machine.
    Queue {
        /// Machine name as resolved by the server.
        machine: String,
        /// Jobs pending (queued + executing).
        depth: usize,
    },
    /// A queue-time + runtime estimate. All durations in seconds; the
    /// `f64` Display form round-trips exactly (Rust prints the shortest
    /// decimal that parses back to the same bits).
    Predict {
        /// Machine name as resolved by the server.
        machine: String,
        /// Point estimate of the queue wait, seconds.
        wait_s: f64,
        /// 10th-percentile wait, seconds.
        lo_s: f64,
        /// 90th-percentile wait, seconds.
        hi_s: f64,
        /// Expected execution time, seconds.
        run_s: f64,
    },
    /// Gateway counter snapshot as `key=value` pairs.
    Metrics(Vec<(String, String)>),
    /// Connection closing.
    Bye,
}

impl Response {
    /// Shorthand for a typed error response.
    pub fn err(code: ErrorCode, detail: impl Into<String>) -> Response {
        Response::Err(ProtocolError::new(code, detail))
    }

    /// Parse one response line (client side).
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] describing the malformation.
    pub fn parse(line: &str) -> Result<Response, ProtocolError> {
        let line = line.trim_end();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r),
            None => (line, ""),
        };
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        match verb {
            "OK" => Ok(Response::Ok(field(&tokens, 0, "id")?)),
            "BUSY" => Ok(Response::Busy(rest.to_string())),
            "ERR" => {
                let (code, detail) = match rest.split_once(' ') {
                    Some((c, d)) => (c, d),
                    None => (rest, ""),
                };
                Ok(Response::Err(ProtocolError::new(
                    code.parse::<ErrorCode>()?,
                    detail,
                )))
            }
            "STATUS" => Ok(Response::Status {
                id: field(&tokens, 0, "id")?,
                state: tokens
                    .get(1)
                    .ok_or_else(|| {
                        ProtocolError::new(ErrorCode::MissingField, "missing field <state>")
                    })?
                    .to_string(),
            }),
            "QUEUE" => Ok(Response::Queue {
                machine: tokens
                    .first()
                    .ok_or_else(|| {
                        ProtocolError::new(ErrorCode::MissingField, "missing field <machine>")
                    })?
                    .to_string(),
                depth: field(&tokens, 1, "depth")?,
            }),
            "PREDICT" => Ok(Response::Predict {
                machine: tokens
                    .first()
                    .ok_or_else(|| {
                        ProtocolError::new(ErrorCode::MissingField, "missing field <machine>")
                    })?
                    .to_string(),
                wait_s: field(&tokens, 1, "wait_s")?,
                lo_s: field(&tokens, 2, "lo_s")?,
                hi_s: field(&tokens, 3, "hi_s")?,
                run_s: field(&tokens, 4, "run_s")?,
            }),
            "METRICS" => {
                let mut pairs = Vec::new();
                for token in &tokens {
                    let (k, v) = token.split_once('=').ok_or_else(|| {
                        ProtocolError::new(
                            ErrorCode::BadField,
                            format!("bad metrics pair {token:?}"),
                        )
                    })?;
                    pairs.push((k.to_string(), v.to_string()));
                }
                Ok(Response::Metrics(pairs))
            }
            "BYE" => Ok(Response::Bye),
            other => Err(ProtocolError::new(
                ErrorCode::UnknownVerb,
                format!("unknown response verb {other:?}"),
            )),
        }
    }
}

impl FromStr for Response {
    type Err = ProtocolError;

    fn from_str(s: &str) -> Result<Self, <Response as FromStr>::Err> {
        Response::parse(s)
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Ok(id) => write!(f, "OK {id}"),
            Response::Busy(reason) => write!(f, "BUSY {reason}"),
            Response::Err(error) => write!(f, "ERR {error}"),
            Response::Status { id, state } => write!(f, "STATUS {id} {state}"),
            Response::Queue { machine, depth } => write!(f, "QUEUE {machine} {depth}"),
            Response::Predict {
                machine,
                wait_s,
                lo_s,
                hi_s,
                run_s,
            } => write!(f, "PREDICT {machine} {wait_s} {lo_s} {hi_s} {run_s}"),
            Response::Metrics(pairs) => {
                f.write_str("METRICS")?;
                for (k, v) in pairs {
                    write!(f, " {k}={v}")?;
                }
                Ok(())
            }
            Response::Bye => f.write_str("BYE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrip_with_and_without_patience() {
        for line in [
            "SUBMIT 3 casablanca 20 1024 15.5 3 600",
            "SUBMIT 0 2 1 8192 40 5.5",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(Request::parse(&req.to_string()).unwrap(), req);
        }
        let req = Request::parse("SUBMIT 1 0 5 100 10 2").unwrap();
        match req {
            Request::Submit { patience_s, .. } => assert!(patience_s.is_infinite()),
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn request_parse_rejects_malformed_with_typed_codes() {
        assert_eq!(Request::parse("").unwrap_err().code, ErrorCode::Empty);
        assert_eq!(
            Request::parse("FROB 1").unwrap_err().code,
            ErrorCode::UnknownVerb
        );
        assert_eq!(
            Request::parse("SUBMIT 1 2 3").unwrap_err().code,
            ErrorCode::BadArity
        );
        let err = Request::parse("SUBMIT x 0 1 1 1 1").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadField);
        assert!(err.detail.contains("provider"));
        assert_eq!(
            Request::parse("STATUS abc").unwrap_err().code,
            ErrorCode::BadField
        );
        assert_eq!(
            Request::parse("STATUS").unwrap_err().code,
            ErrorCode::MissingField
        );
        assert_eq!(
            Request::parse("QUEUE").unwrap_err().code,
            ErrorCode::MissingField
        );
    }

    #[test]
    fn hostile_submit_numbers_parse_or_fail_typed() {
        // Parsing is syntax only: anything `f64`/`u32` accepts comes back
        // as a `Submit` carrying the hostile value (the server's admission
        // check turns it away, see `server::check_job_shape`); anything
        // they refuse is a typed BAD_FIELD. Nothing panics.
        for (line, depth_bits, patience_bits) in [
            (
                "SUBMIT 1 athens 10 1024 1e18 3",
                1e18f64.to_bits(),
                f64::INFINITY.to_bits(),
            ),
            (
                "SUBMIT 1 athens 10 1024 inf 3",
                f64::INFINITY.to_bits(),
                f64::INFINITY.to_bits(),
            ),
            (
                "SUBMIT 1 athens 10 1024 20 3 -50",
                20f64.to_bits(),
                (-50f64).to_bits(),
            ),
        ] {
            match Request::parse(line).unwrap() {
                Request::Submit {
                    mean_depth,
                    patience_s,
                    ..
                } => {
                    assert_eq!(mean_depth.to_bits(), depth_bits, "{line}");
                    assert_eq!(patience_s.to_bits(), patience_bits, "{line}");
                }
                other => panic!("parsed {other:?}"),
            }
        }
        match Request::parse("SUBMIT 1 athens 10 1024 NaN 3").unwrap() {
            Request::Submit { mean_depth, .. } => assert!(mean_depth.is_nan()),
            other => panic!("parsed {other:?}"),
        }
        match Request::parse("SUBMIT 1 athens 4000000000 4000000000 20 3").unwrap() {
            Request::Submit {
                circuits, shots, ..
            } => {
                assert_eq!((circuits, shots), (4_000_000_000, 4_000_000_000));
            }
            other => panic!("parsed {other:?}"),
        }
        for line in [
            "SUBMIT 1 athens 4294967296 1024 20 3", // u32::MAX + 1
            "SUBMIT 1 athens -1 1024 20 3",
            "SUBMIT 1 athens 10 1024 1e 3",
            "SUBMIT 1 athens 10 1024 20 3 soon",
        ] {
            assert_eq!(
                Request::parse(line).unwrap_err().code,
                ErrorCode::BadField,
                "{line}"
            );
        }
    }

    #[test]
    fn predict_request_roundtrip_and_arity() {
        for line in ["PREDICT casablanca 20 1024", "PREDICT 2 1 8192"] {
            let req = Request::parse(line).unwrap();
            assert_eq!(req.to_string(), line);
            assert_eq!(Request::parse(&req.to_string()).unwrap(), req);
        }
        assert_eq!(
            Request::parse("PREDICT 0 1").unwrap_err().code,
            ErrorCode::BadArity
        );
        assert_eq!(
            Request::parse("PREDICT 0 1 2 3").unwrap_err().code,
            ErrorCode::BadArity
        );
        assert_eq!(
            Request::parse("PREDICT 0 x 1024").unwrap_err().code,
            ErrorCode::BadField
        );
    }

    #[test]
    fn predict_response_roundtrips_f64_exactly() {
        // Rust's shortest-roundtrip f64 Display makes parse(format(x))
        // bit-exact even for awkward values.
        let response = Response::Predict {
            machine: "toronto".to_string(),
            wait_s: 1_234.567_890_123,
            lo_s: 0.1,
            hi_s: 1e9 + 0.25,
            run_s: 3.0000000000000004,
        };
        assert_eq!(Response::parse(&response.to_string()).unwrap(), response);
        assert!(Response::parse("PREDICT toronto 1 2").is_err());
        assert!(Response::parse("PREDICT toronto 1 2 nope 4").is_err());
    }

    #[test]
    fn response_roundtrip() {
        let cases = vec![
            Response::Ok(42),
            Response::Busy("rate limit: provider 3".to_string()),
            Response::err(ErrorCode::UnknownMachine, "unknown machine \"foo\""),
            Response::err(ErrorCode::NotCancellable, ""),
            Response::Status {
                id: 7,
                state: "running".to_string(),
            },
            Response::Queue {
                machine: "casablanca".to_string(),
                depth: 12,
            },
            Response::Metrics(vec![
                ("accepted".to_string(), "10".to_string()),
                ("sim_time_s".to_string(), "3600.5".to_string()),
            ]),
            Response::Bye,
        ];
        for response in cases {
            assert_eq!(
                Response::parse(&response.to_string()).unwrap(),
                response,
                "roundtrip of {response}"
            );
        }
    }

    #[test]
    fn err_wire_format_is_code_then_detail() {
        let response = Response::err(ErrorCode::LineTooLong, "line exceeds 65536 bytes");
        assert_eq!(
            response.to_string(),
            "ERR LINE_TOO_LONG line exceeds 65536 bytes"
        );
        match Response::parse("ERR BAD_FIELD bad <id>: \"abc\"").unwrap() {
            Response::Err(error) => {
                assert_eq!(error.code, ErrorCode::BadField);
                assert_eq!(error.detail, "bad <id>: \"abc\"");
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn response_parse_rejects_malformed() {
        assert!(Response::parse("WHAT 1").is_err());
        assert!(Response::parse("OK").is_err());
        assert!(Response::parse("STATUS 3").is_err());
        assert!(Response::parse("METRICS a=1 borked").is_err());
        // An ERR whose code is not in the table is itself malformed.
        assert!(Response::parse("ERR NO_SUCH_CODE detail").is_err());
    }
}
