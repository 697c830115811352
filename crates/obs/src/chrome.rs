//! Chrome `trace_event` exporter.
//!
//! Emits the JSON-object format (`{"traceEvents": [...]}`) that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly: complete spans (`ph: "X"`) and process/thread-name metadata
//! (`ph: "M"`).
//!
//! Sim-domain timestamps are virtual-time picoseconds converted to the
//! format's microsecond unit with six exact decimal places, so the output
//! is byte-deterministic for identical runs. Wall-domain spans (if
//! included) use microseconds since the recorder's epoch.

use std::fmt::Write as _;
use std::io;

use crate::json::{escape, fmt_f64};
use crate::span::{ArgValue, Args, Recorder, SpanRecord};

/// Exact decimal microseconds for a picosecond count ("12.000345").
fn ps_to_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

fn write_args(out: &mut String, args: &Args) {
    out.push('{');
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": ", escape(key));
        match value {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => out.push_str(&fmt_f64(*v)),
            ArgValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
        }
    }
    out.push('}');
}

fn write_span(out: &mut String, s: &SpanRecord, sim: bool) {
    let (ts, dur) = if sim {
        (ps_to_us(s.start), ps_to_us(s.dur))
    } else {
        (s.start.to_string(), s.dur.to_string())
    };
    let _ = write!(
        out,
        "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \
         \"ts\": {}, \"dur\": {}, \"args\": ",
        escape(&s.name),
        s.cat.as_str(),
        s.pid,
        s.tid,
        ts,
        dur
    );
    write_args(out, &s.args);
    out.push('}');
}

/// Stream a recorder's contents as a Chrome-trace JSON document into
/// `out`, one event at a time, so a trace of millions of spans never
/// exists as one string; wrap a file in a [`std::io::BufWriter`]. The
/// recorder stays locked while its sim spans are written.
///
/// With `include_wall` false only the deterministic sim-domain stream
/// (plus track names) is written — the form the determinism tests compare
/// byte-for-byte.
///
/// # Errors
///
/// The first error `out` returns.
pub fn export_to(rec: &Recorder, include_wall: bool, out: &mut impl io::Write) -> io::Result<()> {
    out.write_all(b"{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    // Each event is rendered into `buf`, then written after its separator.
    let mut buf = String::new();
    let mut first = true;
    let mut emit = |out: &mut dyn io::Write, buf: &mut String| {
        out.write_all(if first { b"\n " } else { b",\n " })?;
        first = false;
        out.write_all(buf.as_bytes())?;
        buf.clear();
        Ok::<_, io::Error>(())
    };

    for (pid, name) in rec.process_names() {
        let _ = write!(
            buf,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            pid,
            escape(&name)
        );
        emit(out, &mut buf)?;
    }
    for ((pid, tid), name) in rec.thread_names() {
        let _ = write!(
            buf,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            pid,
            tid,
            escape(&name)
        );
        emit(out, &mut buf)?;
    }
    rec.with_sim_spans(|spans| {
        spans.iter().try_for_each(|span| {
            write_span(&mut buf, span, true);
            emit(out, &mut buf)
        })
    })?;
    if include_wall {
        for span in rec.wall_spans() {
            write_span(&mut buf, &span, false);
            emit(out, &mut buf)?;
        }
    }
    out.write_all(b"\n]}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::span::Cat;

    fn export(rec: &Recorder, include_wall: bool) -> String {
        let mut out = Vec::new();
        export_to(rec, include_wall, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn sample_recorder() -> Recorder {
        let rec = Recorder::enabled();
        rec.set_process_name(1, "row 0");
        rec.set_thread_name(1, 0, "rank 0");
        rec.sim_span(1, 0, "compute", Cat::Compute, 0, 1_500_000, vec![("flops", 1e6.into())]);
        rec.sim_span(1, 0, "send", Cat::Comm, 1_500_000, 250_000, vec![("bytes", 512usize.into())]);
        rec.wall_span(9, 0, "scenario", Cat::Scenario, std::time::Instant::now(), vec![]);
        rec
    }

    #[test]
    fn exports_valid_json_with_required_fields() {
        let doc = export(&sample_recorder(), true);
        let parsed = Json::parse(&doc).expect("chrome trace must parse");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() >= 4);
        for ev in events {
            assert!(ev.get("ph").is_some());
            assert!(ev.get("pid").and_then(Json::as_f64).is_some());
            if ev.get("ph").unwrap().as_str() == Some("X") {
                assert!(ev.get("ts").and_then(Json::as_f64).is_some());
                assert!(ev.get("dur").and_then(Json::as_f64).is_some());
                assert!(ev.get("tid").and_then(Json::as_f64).is_some());
            }
        }
    }

    #[test]
    fn sim_only_export_is_deterministic_and_wall_free() {
        let a = export(&sample_recorder(), false);
        let b = export(&sample_recorder(), false);
        assert_eq!(a, b, "sim-only exports of identical recordings must be byte-identical");
        assert!(!a.contains("scenario"), "wall spans must be excluded");
    }

    /// A writer that takes one byte per call, so every record reaches it
    /// in pieces.
    struct Trickle(Vec<u8>);

    impl io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.extend(buf.first());
            Ok(buf.len().min(1))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn trickled_export_equals_buffered_export() {
        let rec = sample_recorder();
        for include_wall in [false, true] {
            let mut streamed = Trickle(Vec::new());
            export_to(&rec, include_wall, &mut streamed).unwrap();
            assert_eq!(
                String::from_utf8(streamed.0).unwrap(),
                export(&rec, include_wall),
                "include_wall={include_wall}"
            );
        }
        // The sim-only document, pinned.
        let pinned = concat!(
            "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n",
            " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"row 0\"}},\n",
            " {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"rank 0\"}},\n",
            " {\"name\": \"compute\", \"cat\": \"compute\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": 0.000000, \"dur\": 1.500000, \"args\": {\"flops\": 1000000}},\n",
            " {\"name\": \"send\", \"cat\": \"comm\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, \"ts\": 1.500000, \"dur\": 0.250000, \"args\": {\"bytes\": 512}}\n",
            "]}\n",
        );
        assert_eq!(export(&rec, false), pinned);
    }

    #[test]
    fn streamed_export_reports_writer_errors() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = export_to(&sample_recorder(), true, &mut Full).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn picosecond_conversion_is_exact() {
        assert_eq!(ps_to_us(0), "0.000000");
        assert_eq!(ps_to_us(1), "0.000001");
        assert_eq!(ps_to_us(1_500_000), "1.500000");
        assert_eq!(ps_to_us(12_345_678_901), "12345.678901");
    }
}
