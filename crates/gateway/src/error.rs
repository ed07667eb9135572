//! The gateway error taxonomy.
//!
//! Three layers, from the wire inward:
//!
//! - [`ErrorCode`] — the machine-readable token carried on every `ERR`
//!   wire response (`ERR <code> <detail...>`). Shared verbatim by server
//!   and client so the two cannot drift.
//! - [`ProtocolError`] — a code plus a human-readable detail; what
//!   [`Request::parse`](crate::Request::parse) and
//!   [`Response::parse`](crate::Response::parse) return on malformed
//!   lines, and what `Response::Err` carries.
//! - [`GatewayError`] — the client-side transport+protocol error: I/O
//!   failures, read timeouts, half-closed connections, unparsable or
//!   unexpected responses. Everything a caller needs to decide between
//!   retrying ([`GatewayError::is_transient`]) and giving up.
//!
//! Untrusted input (malformed lines, truncated frames, non-UTF-8 bytes,
//! oversized payloads) maps onto these types instead of panicking:
//! `clippy::unwrap_used` / `clippy::expect_used` are denied for the whole
//! crate outside tests.

use std::fmt;
use std::str::FromStr;

use crate::protocol::Response;

/// Machine-readable error code on the `ERR` wire response.
///
/// The wire token is the `SCREAMING_SNAKE_CASE` name (see
/// [`ErrorCode::as_token`]); the README documents the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request line was empty or all whitespace.
    Empty,
    /// The first token is not a known request verb.
    UnknownVerb,
    /// A known verb with the wrong number of fields.
    BadArity,
    /// A required field is absent.
    MissingField,
    /// A field is present but does not parse as its type, or parses to a
    /// value outside its admissible range (a NaN depth, a negative
    /// patience).
    BadField,
    /// The request line exceeded the server's line-length bound.
    LineTooLong,
    /// The request line is not valid UTF-8.
    NotUtf8,
    /// `SUBMIT`/`QUEUE` named a machine outside the fleet.
    UnknownMachine,
    /// `SUBMIT` named a provider outside the configured range.
    UnknownProvider,
    /// `SUBMIT` with zero circuits or zero shots.
    EmptyBatch,
    /// `CANCEL` of a job that is running, finished, or unknown.
    NotCancellable,
    /// An otherwise well-formed submission exceeds the target machine's
    /// caps (width, batch size, shots), or the simulator refused it.
    Rejected,
    /// `PREDICT` before the online predictor has observed any completed
    /// job — there is no data to estimate from yet.
    NotReady,
}

impl ErrorCode {
    /// Every code, for table generation and exhaustive tests.
    pub const ALL: [ErrorCode; 13] = [
        ErrorCode::Empty,
        ErrorCode::UnknownVerb,
        ErrorCode::BadArity,
        ErrorCode::MissingField,
        ErrorCode::BadField,
        ErrorCode::LineTooLong,
        ErrorCode::NotUtf8,
        ErrorCode::UnknownMachine,
        ErrorCode::UnknownProvider,
        ErrorCode::EmptyBatch,
        ErrorCode::NotCancellable,
        ErrorCode::Rejected,
        ErrorCode::NotReady,
    ];

    /// The wire token (e.g. `UNKNOWN_MACHINE`).
    #[must_use]
    pub fn as_token(self) -> &'static str {
        match self {
            ErrorCode::Empty => "EMPTY",
            ErrorCode::UnknownVerb => "UNKNOWN_VERB",
            ErrorCode::BadArity => "BAD_ARITY",
            ErrorCode::MissingField => "MISSING_FIELD",
            ErrorCode::BadField => "BAD_FIELD",
            ErrorCode::LineTooLong => "LINE_TOO_LONG",
            ErrorCode::NotUtf8 => "NOT_UTF8",
            ErrorCode::UnknownMachine => "UNKNOWN_MACHINE",
            ErrorCode::UnknownProvider => "UNKNOWN_PROVIDER",
            ErrorCode::EmptyBatch => "EMPTY_BATCH",
            ErrorCode::NotCancellable => "NOT_CANCELLABLE",
            ErrorCode::Rejected => "REJECTED",
            ErrorCode::NotReady => "NOT_READY",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_token())
    }
}

impl FromStr for ErrorCode {
    type Err = ProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ErrorCode::ALL
            .into_iter()
            .find(|code| code.as_token() == s)
            .ok_or_else(|| {
                ProtocolError::new(
                    ErrorCode::BadField,
                    format!("unrecognized error code {s:?}"),
                )
            })
    }
}

/// A typed protocol-level error: a machine-readable [`ErrorCode`] plus a
/// human-readable detail. On the wire it renders as
/// `ERR <code> <detail...>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What class of malformation or rejection this is.
    pub code: ErrorCode,
    /// Free-text elaboration, relayed verbatim to the peer.
    pub detail: String,
}

impl ProtocolError {
    /// Build an error from a code and detail text.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        ProtocolError {
            code,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.detail)
    }
}

impl std::error::Error for ProtocolError {}

/// Everything that can go wrong on the client side of a request.
#[derive(Debug)]
pub enum GatewayError {
    /// Transport failure other than a timeout or clean close.
    Io(std::io::Error),
    /// The read timeout elapsed with no (or only a partial) response.
    Timeout,
    /// The server closed (or half-closed) the connection: EOF on the
    /// read half, possibly mid-line (a truncated response frame).
    Disconnected,
    /// The response line arrived but does not parse.
    Protocol(ProtocolError),
    /// A well-formed response of the wrong verb for the typed helper
    /// that issued the request (e.g. `QUEUE` answered by `BYE`).
    Unexpected(Response),
}

impl GatewayError {
    /// Whether retrying the request (on a fresh connection) could
    /// plausibly succeed: transport-level failures are transient,
    /// protocol-level failures are not.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            GatewayError::Io(_) | GatewayError::Timeout | GatewayError::Disconnected
        )
    }
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "transport error: {e}"),
            GatewayError::Timeout => f.write_str("timed out waiting for a response"),
            GatewayError::Disconnected => f.write_str("gateway closed the connection"),
            GatewayError::Protocol(e) => write!(f, "malformed response: {e}"),
            GatewayError::Unexpected(r) => write!(f, "unexpected response: {r}"),
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Io(e) => Some(e),
            GatewayError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GatewayError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => GatewayError::Timeout,
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => GatewayError::Disconnected,
            _ => GatewayError::Io(e),
        }
    }
}

impl From<ProtocolError> for GatewayError {
    fn from(e: ProtocolError) -> Self {
        GatewayError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_through_tokens() {
        for code in ErrorCode::ALL {
            assert_eq!(code.as_token().parse::<ErrorCode>().unwrap(), code);
        }
        assert!("NO_SUCH_CODE".parse::<ErrorCode>().is_err());
    }

    #[test]
    fn tokens_are_unique_and_wire_safe() {
        let mut tokens: Vec<&str> = ErrorCode::ALL.iter().map(|c| c.as_token()).collect();
        tokens.sort_unstable();
        let before = tokens.len();
        tokens.dedup();
        assert_eq!(tokens.len(), before, "duplicate wire token");
        for token in tokens {
            assert!(
                token
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'),
                "token {token:?} is not SCREAMING_SNAKE_CASE"
            );
        }
    }

    #[test]
    fn transient_classification() {
        assert!(GatewayError::Timeout.is_transient());
        assert!(GatewayError::Disconnected.is_transient());
        assert!(GatewayError::Io(std::io::Error::other("x")).is_transient());
        assert!(
            !GatewayError::Protocol(ProtocolError::new(ErrorCode::BadField, "x")).is_transient()
        );
        assert!(!GatewayError::Unexpected(Response::Bye).is_transient());
    }

    #[test]
    fn io_error_kinds_map_to_typed_variants() {
        let timeout = std::io::Error::new(std::io::ErrorKind::WouldBlock, "t");
        assert!(matches!(GatewayError::from(timeout), GatewayError::Timeout));
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "e");
        assert!(matches!(
            GatewayError::from(eof),
            GatewayError::Disconnected
        ));
        let other = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "p");
        assert!(matches!(GatewayError::from(other), GatewayError::Io(_)));
    }
}
