//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Responses carry the
//! request's `id` and may arrive out of order (the daemon answers `health`
//! and `stats` inline while `analyze`/`sweep` queue behind the admission
//! gate), so clients match on `id`, not position.
//!
//! Request shape:
//!
//! ```json
//! {"id": 7, "verb": "analyze", "netlist": "<netlist text>",
//!  "epochs": 40, "deadline_ms": 2000, "top": 0.1, "best_effort": true}
//! ```
//!
//! Response shape (`code` follows HTTP conventions):
//!
//! ```json
//! {"id": 7, "code": 200, "status": "ok", "body": { ... }}
//! {"id": 8, "code": 503, "status": "shed", "error": "admission queue full"}
//! ```

use crate::ServeError;
use serde::{Serialize, Value};
use std::io::Write;

/// HTTP-style status code: request served.
pub const CODE_OK: u16 = 200;
/// HTTP-style status code: malformed or unserveable request.
pub const CODE_BAD_REQUEST: u16 = 400;
/// HTTP-style status code: the worker handling the request panicked or the
/// analysis failed internally.
pub const CODE_INTERNAL: u16 = 500;
/// HTTP-style status code: load shed — the admission queue was past its
/// watermark (or the daemon is shutting down) and the request was rejected
/// without being processed.
pub const CODE_SHED: u16 = 503;
/// HTTP-style status code: the request's deadline expired before or during
/// the analysis.
pub const CODE_DEADLINE: u16 = 504;

/// The operation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Full stability analysis of the submitted netlist.
    Analyze,
    /// DMD subspace-size sweep over the submitted netlist.
    Sweep,
    /// Incremental ECO re-analysis: a netlist-delta (`cirstag-delta/v1`
    /// JSON in the `delta` field) applied to the submitted base netlist,
    /// scored partition-by-partition so untouched regions replay from the
    /// shared artifact cache.
    Delta,
    /// Liveness probe; answered inline, never queued.
    Health,
    /// Counter snapshot; answered inline, never queued.
    Stats,
    /// Graceful shutdown: drain the queue, stop accepting, exit.
    Shutdown,
}

impl Verb {
    /// Wire name of the verb.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Analyze => "analyze",
            Verb::Sweep => "sweep",
            Verb::Delta => "delta",
            Verb::Health => "health",
            Verb::Stats => "stats",
            Verb::Shutdown => "shutdown",
        }
    }

    fn parse(s: &str) -> Option<Verb> {
        match s {
            "analyze" => Some(Verb::Analyze),
            "sweep" => Some(Verb::Sweep),
            "delta" => Some(Verb::Delta),
            "health" => Some(Verb::Health),
            "stats" => Some(Verb::Stats),
            "shutdown" => Some(Verb::Shutdown),
            _ => None,
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The requested operation.
    pub verb: Verb,
    /// Netlist text (required for `analyze`/`sweep`).
    pub netlist: Option<String>,
    /// GNN training epochs for design preparation.
    pub epochs: usize,
    /// DMD subspace sizes for `sweep` (non-empty, every value positive);
    /// other verbs ignore it.
    pub dmd_s: Vec<usize>,
    /// Wall-clock deadline for the whole request, in milliseconds. `None`
    /// falls back to the daemon's default deadline.
    pub deadline_ms: Option<u64>,
    /// Fraction of nodes reported as most unstable.
    pub top: f64,
    /// Per-request failure-policy override; `None` uses the daemon's base
    /// policy.
    pub best_effort: Option<bool>,
    /// Netlist-delta ops document (`cirstag-delta/v1` JSON, required for
    /// `delta`), applied against the base `netlist`.
    pub delta: Option<String>,
    /// Partition count for `delta` requests; `None` uses the daemon default.
    pub partitions: Option<usize>,
}

impl Request {
    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on malformed JSON, an unknown verb, or an
    /// out-of-range field.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let v = serde_json::parse_value(line)
            .map_err(|e| ServeError::bad_request(format!("malformed JSON: {e}")))?;
        if !matches!(v, Value::Object(_)) {
            return Err(ServeError::bad_request("request must be a JSON object"));
        }
        let id: u64 = v
            .field_or("id", 0)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        let verb_name: String = v
            .field("verb")
            .map_err(|e| ServeError::bad_request(e.reason))?;
        let verb = Verb::parse(&verb_name)
            .ok_or_else(|| ServeError::bad_request(format!("unknown verb {verb_name:?}")))?;
        let netlist: Option<String> = v
            .field_or("netlist", None)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        let epochs: usize = v
            .field_or("epochs", 40)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        let dmd_s: Vec<usize> = v
            .field_or("dmd_s", vec![4, 8])
            .map_err(|e| ServeError::bad_request(e.reason))?;
        // Only `sweep` reads `dmd_s`; other verbs may send any list.
        if verb == Verb::Sweep && (dmd_s.is_empty() || dmd_s.contains(&0)) {
            return Err(ServeError::bad_request(
                "dmd_s values must be positive integers",
            ));
        }
        let deadline_ms: Option<u64> = v
            .field_or("deadline_ms", None)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        let top: f64 = v
            .field_or("top", 0.10)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        if !(top > 0.0 && top <= 1.0) {
            return Err(ServeError::bad_request("top must lie in (0, 1]"));
        }
        let best_effort: Option<bool> = v
            .field_or("best_effort", None)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        let delta: Option<String> = v
            .field_or("delta", None)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        let partitions: Option<usize> = v
            .field_or("partitions", None)
            .map_err(|e| ServeError::bad_request(e.reason))?;
        if matches!(verb, Verb::Analyze | Verb::Sweep | Verb::Delta) && netlist.is_none() {
            return Err(ServeError::bad_request(format!(
                "verb {verb_name:?} requires a netlist field"
            )));
        }
        if verb == Verb::Delta && delta.is_none() {
            return Err(ServeError::bad_request(
                "verb \"delta\" requires a delta field (cirstag-delta/v1 JSON)",
            ));
        }
        if partitions == Some(0) {
            return Err(ServeError::bad_request("partitions must be at least 1"));
        }
        Ok(Request {
            id,
            verb,
            netlist,
            epochs,
            dmd_s,
            deadline_ms,
            top,
            best_effort,
            delta,
            partitions,
        })
    }

    /// Serializes the request to one wire line (no trailing newline).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when a float field is non-finite.
    pub fn to_line(&self) -> Result<String, ServeError> {
        let mut fields = vec![
            ("id".to_string(), Value::UInt(self.id)),
            ("verb".to_string(), Value::Str(self.verb.name().to_string())),
            ("epochs".to_string(), self.epochs.to_value()),
            ("dmd_s".to_string(), self.dmd_s.to_value()),
            ("top".to_string(), Value::Float(self.top)),
        ];
        if let Some(n) = &self.netlist {
            fields.push(("netlist".to_string(), Value::Str(n.clone())));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::UInt(d)));
        }
        if let Some(b) = self.best_effort {
            fields.push(("best_effort".to_string(), Value::Bool(b)));
        }
        if let Some(d) = &self.delta {
            fields.push(("delta".to_string(), Value::Str(d.clone())));
        }
        if let Some(p) = self.partitions {
            fields.push(("partitions".to_string(), p.to_value()));
        }
        value_to_line(Value::Object(fields))
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id (`0` when the request had no parsable id).
    pub id: u64,
    /// HTTP-style status code (one of the `CODE_*` constants).
    pub code: u16,
    /// Short machine-readable status: `"ok"`, `"shed"`, `"timeout"`,
    /// `"error"`.
    pub status: String,
    /// Human-readable error description for non-`ok` responses.
    pub error: Option<String>,
    /// Verb-specific payload for `ok` responses.
    pub body: Option<Value>,
}

impl Response {
    /// A `200 ok` response with `body`.
    pub fn ok(id: u64, body: Value) -> Response {
        Response {
            id,
            code: CODE_OK,
            status: "ok".to_string(),
            error: None,
            body: Some(body),
        }
    }

    /// A typed failure response; `status` is derived from `code`.
    pub fn error(id: u64, code: u16, message: impl Into<String>) -> Response {
        let status = match code {
            CODE_SHED => "shed",
            CODE_DEADLINE => "timeout",
            _ => "error",
        };
        Response {
            id,
            code,
            status: status.to_string(),
            error: Some(message.into()),
            body: None,
        }
    }

    /// Serializes the response to one wire line (no trailing newline).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] when the body contains a non-finite float.
    pub fn to_line(&self) -> Result<String, ServeError> {
        let mut fields = vec![
            ("id".to_string(), Value::UInt(self.id)),
            ("code".to_string(), self.code.to_value()),
            ("status".to_string(), Value::Str(self.status.clone())),
        ];
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), Value::Str(e.clone())));
        }
        if let Some(b) = &self.body {
            fields.push(("body".to_string(), b.clone()));
        }
        value_to_line(Value::Object(fields))
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on malformed JSON or a missing field.
    pub fn parse(line: &str) -> Result<Response, ServeError> {
        let v = serde_json::parse_value(line)
            .map_err(|e| ServeError::bad_request(format!("malformed response JSON: {e}")))?;
        Ok(Response {
            id: v
                .field_or("id", 0)
                .map_err(|e| ServeError::bad_request(e.reason))?,
            code: v
                .field("code")
                .map_err(|e| ServeError::bad_request(e.reason))?,
            status: v
                .field("status")
                .map_err(|e| ServeError::bad_request(e.reason))?,
            error: v
                .field_or("error", None)
                .map_err(|e| ServeError::bad_request(e.reason))?,
            body: v.get("body").cloned(),
        })
    }
}

/// Serializes a raw [`Value`] tree as a single compact line.
fn value_to_line(v: Value) -> Result<String, ServeError> {
    // The vendored serde has no blanket `Serialize for Value`; wrap it.
    struct Raw(Value);
    impl Serialize for Raw {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Raw(v)).map_err(|e| ServeError::bad_request(e.to_string()))
}

/// Sends one wire line: appends the newline to `line` and hands both to
/// `w` in a single `write_all`, then flushes.
///
/// Writing the line and its `\n` separately stalls a request by a delayed
/// ACK: a line longer than `BufWriter`'s 8 KiB buffer (every `analyze`
/// request carries its netlist) bypasses the buffer, and Nagle's algorithm
/// then holds the lone `\n` until the peer acknowledges the line. With that
/// framing, `cirstag load` (one client, 100 requests, a 972-pin netlist,
/// 2-core host) measured a warm `analyze` p50 of 44 ms; with one write,
/// 2.3–2.5 ms.
///
/// # Errors
///
/// Any I/O error of the write or the flush.
pub(crate) fn write_line<W: Write>(w: &mut W, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = Request {
            id: 42,
            verb: Verb::Analyze,
            netlist: Some("design t\ncell inv a y\n".to_string()),
            epochs: 25,
            dmd_s: vec![4, 8],
            deadline_ms: Some(1500),
            top: 0.2,
            best_effort: Some(true),
            delta: None,
            partitions: None,
        };
        let line = r.to_line().unwrap();
        assert!(!line.contains('\n'), "netlist newlines must stay escaped");
        let back = Request::parse(&line).unwrap();
        assert_eq!(back, r);

        // `analyze` never reads `dmd_s`, so an empty list must not be a 400.
        let no_sweep = Request {
            dmd_s: Vec::new(),
            ..r
        };
        let back = Request::parse(&no_sweep.to_line().unwrap()).unwrap();
        assert_eq!(back, no_sweep);
    }

    #[test]
    fn delta_request_roundtrip_and_validation() {
        let r = Request {
            id: 9,
            verb: Verb::Delta,
            netlist: Some("design t\ncell inv a y\n".to_string()),
            epochs: 25,
            dmd_s: vec![4, 8],
            deadline_ms: None,
            top: 0.10,
            best_effort: None,
            delta: Some(r#"{"schema":"cirstag-delta/v1","ops":[]}"#.to_string()),
            partitions: Some(4),
        };
        let back = Request::parse(&r.to_line().unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(
            Request::parse(r#"{"id": 1, "verb": "delta", "netlist": "x"}"#).is_err(),
            "delta requires a delta field"
        );
        assert!(
            Request::parse(r#"{"id": 1, "verb": "delta", "delta": "{}"}"#).is_err(),
            "delta requires a base netlist"
        );
        assert!(
            Request::parse(
                r#"{"id": 1, "verb": "delta", "netlist": "x", "delta": "{}", "partitions": 0}"#
            )
            .is_err(),
            "zero partitions is rejected at parse time"
        );
    }

    #[test]
    fn request_defaults_fill_in() {
        let r = Request::parse(r#"{"id": 1, "verb": "health"}"#).unwrap();
        assert_eq!(r.verb, Verb::Health);
        assert_eq!(r.epochs, 40);
        assert!(r.deadline_ms.is_none());
        assert!(r.best_effort.is_none());
    }

    #[test]
    fn bad_requests_are_typed() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"id": 1}"#).is_err(), "verb required");
        assert!(Request::parse(r#"{"id": 1, "verb": "frobnicate"}"#).is_err());
        assert!(
            Request::parse(r#"{"id": 1, "verb": "analyze"}"#).is_err(),
            "analyze requires a netlist"
        );
        assert!(
            Request::parse(r#"{"id": 1, "verb": "analyze", "netlist": "x", "top": 7}"#).is_err()
        );
        for dmd_s in ["[]", "[0]", "[4, 0]"] {
            let line = format!(r#"{{"id": 1, "verb": "sweep", "netlist": "x", "dmd_s": {dmd_s}}}"#);
            let err = Request::parse(&line).unwrap_err();
            assert!(
                matches!(err, ServeError::BadRequest { .. }),
                "sweep with dmd_s {dmd_s}: {err:?}"
            );
        }
    }

    #[test]
    fn response_roundtrip_and_status_mapping() {
        let ok = Response::ok(3, Value::Object(vec![("n".to_string(), Value::UInt(9))]));
        let back = Response::parse(&ok.to_line().unwrap()).unwrap();
        assert_eq!(back.code, CODE_OK);
        assert_eq!(back.status, "ok");
        assert!(back.body.is_some());

        let shed = Response::error(4, CODE_SHED, "queue full");
        assert_eq!(shed.status, "shed");
        let timeout = Response::error(5, CODE_DEADLINE, "deadline");
        assert_eq!(timeout.status, "timeout");
        let internal = Response::error(6, CODE_INTERNAL, "panic");
        assert_eq!(internal.status, "error");
        let back = Response::parse(&shed.to_line().unwrap()).unwrap();
        assert_eq!(back.error.as_deref(), Some("queue full"));
    }

    /// A `Write` that records how many `write` calls reach it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_frames_each_line_in_one_write() {
        // Short lines are buffered, long ones bypass `BufWriter`'s 8 KiB
        // buffer; either way the line and its newline leave in one write.
        for len in [10usize, 8 * 1024 - 1, 8 * 1024, 40 * 1024] {
            let line = "x".repeat(len);
            let mut w = std::io::BufWriter::new(CountingWriter::default());
            write_line(&mut w, line.clone()).unwrap();
            let inner = w.into_inner().map_err(|e| e.to_string()).unwrap();
            assert_eq!(inner.writes, 1, "line of {len} bytes");
            assert_eq!(inner.bytes.len(), len + 1);
            assert_eq!(inner.bytes.last(), Some(&b'\n'));
            assert_eq!(&inner.bytes[..len], line.as_bytes());
        }
    }
}
