//! Parser for the stream JSONL lines the session service emits: just the
//! fields the benchmark reads back (`session`, `tasks`, `status`,
//! `trace_fp`), found by key so field order does not matter.

/// The fields of one emitted record line the benchmark checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmittedRecord {
    /// Session index (the arrival's position in the stream).
    pub session: usize,
    /// `ok`, `partial`, `failed` or `rejected`.
    pub status: String,
    /// Fingerprint of the session's event trace.
    pub trace_fp: u64,
}

/// The value text following `"key":` in `line`.
fn value_of<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(&line[at..])
}

/// The unsigned integer value of `"key"`.
fn uint_field(line: &str, key: &str) -> Option<usize> {
    let v = value_of(line, key)?;
    let end = v.find(|c: char| !c.is_ascii_digit()).unwrap_or(v.len());
    v[..end].parse().ok()
}

/// The string value of `"key"` (emitted values here contain no escapes).
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let v = value_of(line, key)?.strip_prefix('"')?;
    Some(&v[..v.find('"')?])
}

/// Session index and task count of an emitted line: the cheap parse the
/// rate and latency measurement makes on every line.
pub fn parse_session(line: &str) -> Option<(usize, u64)> {
    Some((
        uint_field(line, "session")?,
        uint_field(line, "tasks")? as u64,
    ))
}

/// The checked fields of an emitted line; `None` if any is missing or
/// malformed.
pub fn parse_record(line: &str) -> Option<EmittedRecord> {
    Some(EmittedRecord {
        session: uint_field(line, "session")?,
        status: str_field(line, "status")?.to_string(),
        trace_fp: u64::from_str_radix(str_field(line, "trace_fp")?, 16).ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"session\":17,\"tenant\":3,\"pattern\":\"eop\",\"status\":\"ok\",\
        \"arrival\":1.000000,\"start\":1.000000,\"finish\":9.500000,\"latency\":8.500000,\
        \"ttc\":8.500000,\"tasks\":12,\"events\":340,\"trace_fp\":\"00ab12cd34ef5678\"}";

    #[test]
    fn parses_the_checked_fields() {
        assert_eq!(parse_session(LINE), Some((17, 12)));
        assert_eq!(
            parse_record(LINE),
            Some(EmittedRecord {
                session: 17,
                status: "ok".into(),
                trace_fp: 0x00ab_12cd_34ef_5678,
            })
        );
    }

    #[test]
    fn field_order_and_trailing_error_do_not_matter() {
        let line = "{\"trace_fp\":\"0000000000000000\",\"status\":\"rejected\",\
                    \"session\":4,\"error\":\"queue \\\"full\\\"\"}";
        let r = parse_record(line).unwrap();
        assert_eq!(
            (r.session, r.status.as_str(), r.trace_fp),
            (4, "rejected", 0)
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(parse_session("{\"tenant\":3}"), None);
        assert_eq!(parse_session("{\"session\":\"x\",\"tasks\":1}"), None);
        assert_eq!(parse_session("{\"session\":1}"), None);
        assert_eq!(parse_record("{\"session\":1,\"status\":\"ok\"}"), None);
        assert_eq!(
            parse_record("{\"session\":1,\"status\":\"ok\",\"trace_fp\":\"zz\"}"),
            None
        );
    }
}
