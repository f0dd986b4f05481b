//! The newline-delimited JSON wire protocol.
//!
//! One JSON object per line in each direction; the codec is a thin,
//! hand-rolled layer over the typed API (the workspace vendors a no-op
//! serde, so wire formats are written out by hand and parsed with
//! [`dynp_obs::parse::Json`], the same recursive-descent parser the
//! trace tooling uses).
//!
//! Requests:
//!
//! ```text
//! {"cmd":"submit","width":4,"estimate_ms":60000,"actual_ms":30000,"user":7}
//! {"cmd":"cancel","job":3}
//! {"cmd":"status"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Replies (one per request, in request order per connection):
//!
//! ```text
//! {"ok":true,"job":3,"admitted_ms":12345}
//! {"ok":false,"error":"overload","reason":"queue_full"}
//! {"ok":false,"error":"invalid","reason":"width 0 ..."}
//! {"ok":true,"cancelled":3,"found":true}
//! {"ok":true,"now_ms":...,"waiting":...,"running":...,"completed":...,
//!  "lost":...,"accepted":...,"rejected":...,"free":...,"machine":...,
//!  "draining":false}
//! {"ok":true,"draining":true}
//! ```

use crate::api::{Reply, SubmitError, SubmitSpec};
use dynp_des::SimDuration;
use dynp_obs::parse::Json;
use std::io::{self, BufRead, Read};

/// Longest request line a server reads, newline excluded. A valid
/// request is well under 200 bytes; the cap bounds what one hostile
/// line can make the server buffer.
pub const MAX_LINE: usize = 64 * 1024;

/// One request line as read by [`read_request_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestLine {
    /// A complete line, line terminator stripped.
    Line(String),
    /// A line the server will not parse (over the cap, or not UTF-8),
    /// with the reason for the client's `invalid` reply. The whole line
    /// has been consumed, so the next read starts at the next line.
    Invalid(String),
}

/// A parsed client request (the transport-free half of
/// [`crate::api::Command`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a job.
    Submit(SubmitSpec),
    /// Cancel a waiting job.
    Cancel(u32),
    /// Query service state.
    Status,
    /// Begin graceful shutdown.
    Shutdown,
}

/// Parses one request line. Errors name the missing or malformed field
/// so clients can fix their request.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let json = Json::parse(line)?;
    let cmd = json
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field \"cmd\"")?;
    match cmd {
        "submit" => {
            let field = |key: &str| -> Result<u64, String> {
                json.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("submit needs integer field {key:?}"))
            };
            let width = u32::try_from(field("width")?)
                .map_err(|_| "field \"width\" out of range".to_string())?;
            let estimate = SimDuration::from_millis(field("estimate_ms")?);
            // The actual run time defaults to the estimate (a job that
            // uses its whole request).
            let actual = match json.get("actual_ms").and_then(Json::as_u64) {
                Some(ms) => SimDuration::from_millis(ms),
                None => estimate,
            };
            let user = json.get("user").and_then(Json::as_u64).unwrap_or(0) as u32;
            Ok(Request::Submit(SubmitSpec {
                width,
                estimate,
                actual,
                user,
            }))
        }
        "cancel" => {
            let job = json
                .get("job")
                .and_then(Json::as_u64)
                .ok_or("cancel needs integer field \"job\"")?;
            let job = u32::try_from(job).map_err(|_| "field \"job\" out of range".to_string())?;
            Ok(Request::Cancel(job))
        }
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one reply line (no trailing newline).
pub fn render_reply(reply: &Reply) -> String {
    match reply {
        Reply::Accepted(t) => format!(
            "{{\"ok\":true,\"job\":{},\"admitted_ms\":{}}}",
            t.job,
            t.admitted_at.as_millis()
        ),
        Reply::Rejected(SubmitError::Overload(reason)) => format!(
            "{{\"ok\":false,\"error\":\"overload\",\"reason\":\"{}\"}}",
            reason.label()
        ),
        Reply::Rejected(SubmitError::Invalid(why)) => format!(
            "{{\"ok\":false,\"error\":\"invalid\",\"reason\":\"{}\"}}",
            escape(why)
        ),
        Reply::Cancelled { job, found } => {
            format!("{{\"ok\":true,\"cancelled\":{job},\"found\":{found}}}")
        }
        Reply::Status(s) => format!(
            "{{\"ok\":true,\"now_ms\":{},\"waiting\":{},\"running\":{},\"completed\":{},\
             \"lost\":{},\"accepted\":{},\"rejected\":{},\"free\":{},\"machine\":{},\
             \"draining\":{}}}",
            s.now.as_millis(),
            s.waiting,
            s.running,
            s.completed,
            s.lost,
            s.accepted,
            s.rejected,
            s.free_processors,
            s.machine_size,
            s.draining
        ),
        Reply::Draining => "{\"ok\":true,\"draining\":true}".to_string(),
    }
}

/// Reads one request line of at most `cap` bytes (`\n` or `\r\n`
/// excluded) without ever buffering more than `cap + 1` bytes of it.
/// `Ok(None)` is end of stream; a final line without a newline counts
/// as a line. A longer line is discarded up to and including its
/// newline and reported as [`RequestLine::Invalid`], so the caller can
/// reply and keep serving the connection.
pub fn read_request_line<R: BufRead>(
    reader: &mut R,
    cap: usize,
) -> io::Result<Option<RequestLine>> {
    let mut buf = Vec::new();
    if reader.take(cap as u64 + 1).read_until(b'\n', &mut buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > cap {
        reader.skip_until(b'\n')?;
        return Ok(Some(RequestLine::Invalid(format!(
            "request line exceeds {cap} bytes"
        ))));
    }
    Ok(Some(match String::from_utf8(buf) {
        Ok(line) => RequestLine::Line(line),
        Err(_) => RequestLine::Invalid("request line is not UTF-8".into()),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OverloadReason, ServiceStatus, Ticket};
    use dynp_des::SimTime;

    fn lines_of(input: &[u8], cap: usize) -> Vec<RequestLine> {
        // A buffer smaller than the lines, so reads and the discard of
        // an over-long line both span several refills.
        let mut reader = io::BufReader::with_capacity(3, input);
        std::iter::from_fn(|| read_request_line(&mut reader, cap).unwrap()).collect()
    }

    fn line(s: &str) -> RequestLine {
        RequestLine::Line(s.into())
    }

    #[test]
    fn exact_cap_line_is_read_whole() {
        assert_eq!(
            lines_of(b"12345678\nabc\r\n", 8),
            [line("12345678"), line("abc")]
        );
    }

    #[test]
    fn over_cap_line_is_discarded_and_reading_resumes() {
        let got = lines_of(b"123456789\nok\nxxxxxxxxxxxxxxxxxxxxxxxxxxxx\n\nlast", 8);
        assert!(matches!(&got[0], RequestLine::Invalid(why) if why.contains("exceeds 8")));
        assert_eq!(got[1], line("ok"));
        assert!(matches!(got[2], RequestLine::Invalid(_)));
        assert_eq!(got[3..], [line(""), line("last")]);
    }

    #[test]
    fn newline_free_stream_ends_after_one_reply() {
        // Over the cap: one invalid line, then end of stream, without
        // holding more than cap + 1 bytes.
        let endless = vec![b'x'; 10_000];
        let got = lines_of(&endless, 8);
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0], RequestLine::Invalid(_)));
        // Within the cap: the unterminated tail is a line.
        assert_eq!(lines_of(b"12345678", 8), [line("12345678")]);
        assert_eq!(lines_of(b"", 8), []);
    }

    #[test]
    fn non_utf8_line_is_invalid_not_fatal() {
        let got = lines_of(b"\xff\xfe\n{}\n", 8);
        assert!(matches!(&got[0], RequestLine::Invalid(why) if why.contains("UTF-8")));
        assert_eq!(got[1], line("{}"));
    }

    #[test]
    fn submit_round_trips() {
        let req = parse_request(
            r#"{"cmd":"submit","width":4,"estimate_ms":60000,"actual_ms":30000,"user":7}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Submit(SubmitSpec {
                width: 4,
                estimate: SimDuration::from_millis(60_000),
                actual: SimDuration::from_millis(30_000),
                user: 7,
            })
        );
    }

    #[test]
    fn submit_defaults_actual_to_estimate() {
        let req = parse_request(r#"{"cmd":"submit","width":1,"estimate_ms":5000}"#).unwrap();
        match req {
            Request::Submit(spec) => {
                assert_eq!(spec.actual, spec.estimate);
                assert_eq!(spec.user, 0);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn other_commands_parse() {
        assert_eq!(
            parse_request(r#"{"cmd":"cancel","job":3}"#).unwrap(),
            Request::Cancel(3)
        );
        assert_eq!(
            parse_request(r#"{"cmd":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn bad_requests_name_the_problem() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"cmd":"fly"}"#)
            .unwrap_err()
            .contains("fly"));
        assert!(parse_request(r#"{"cmd":"submit"}"#)
            .unwrap_err()
            .contains("width"));
        assert!(parse_request(r#"{"cmd":"cancel"}"#)
            .unwrap_err()
            .contains("job"));
    }

    #[test]
    fn reply_lines_parse_back() {
        let cases = vec![
            render_reply(&Reply::Accepted(Ticket {
                job: 3,
                admitted_at: SimTime::from_millis(12_345),
            })),
            render_reply(&Reply::Rejected(SubmitError::Overload(
                OverloadReason::QueueFull,
            ))),
            render_reply(&Reply::Rejected(SubmitError::Invalid(
                "width 0 \"quoted\"".into(),
            ))),
            render_reply(&Reply::Cancelled {
                job: 9,
                found: true,
            }),
            render_reply(&Reply::Status(ServiceStatus::default())),
            render_reply(&Reply::Draining),
        ];
        for line in cases {
            let json = Json::parse(&line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
            assert!(json.get("ok").is_some(), "no ok field in {line}");
        }
        let accepted = render_reply(&Reply::Accepted(Ticket {
            job: 3,
            admitted_at: SimTime::from_millis(12_345),
        }));
        let json = Json::parse(&accepted).unwrap();
        assert_eq!(json.get("job").and_then(Json::as_u64), Some(3));
        assert_eq!(json.get("admitted_ms").and_then(Json::as_u64), Some(12_345));
    }
}
