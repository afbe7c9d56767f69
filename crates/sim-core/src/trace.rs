//! Span tracing.
//!
//! An append-only list of `(track, label, scope, start, end)` spans,
//! dumped as a chrome://tracing-style JSON array for visual inspection.
//! `repro --trace FILE` records one span per rendered paper section with
//! it, on the worker track that rendered the section.

use crate::json;
use crate::time::SimTime;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    track: String,
    label: String,
    /// The unit of work the span belongs to — `"variant:17"`,
    /// `"section:fig6"` — or empty. Rendered into chrome://tracing `args`.
    scope: String,
    start: SimTime,
    end: SimTime,
}

/// An append-only trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a span with an explicit scope label. Panics if `end < start`.
    pub fn span_scoped(
        &mut self,
        track: impl Into<String>,
        label: impl Into<String>,
        scope: impl Into<String>,
        start: SimTime,
        end: SimTime,
    ) {
        assert!(end >= start, "span ends before it starts");
        self.spans.push(Span {
            track: track.into(),
            label: label.into(),
            scope: scope.into(),
            start,
            end,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// chrome://tracing "traceEvents" JSON (complete events, µs units).
    /// Labels, track names, and scope labels are escaped, so a `"` or `\`
    /// in any of them cannot break out of its string and corrupt the
    /// document. Spans with a scope label carry it as `args.scope`, which
    /// the tracing UI shows in the span's detail pane.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        for (i, e) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let args = if e.scope.is_empty() {
                String::new()
            } else {
                format!(r#","args":{{"scope":{}}}"#, json::escape(&e.scope))
            };
            out.push_str(&format!(
                r#"{{"name":{},"cat":"sim","ph":"X","ts":{:.3},"dur":{:.3},"pid":0,"tid":{}{}}}"#,
                json::escape(&e.label),
                e.start.as_micros_f64(),
                (e.end - e.start).as_micros_f64(),
                json::escape(&e.track),
                args
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shape() {
        let mut tr = Trace::new();
        tr.span_scoped(
            "nic",
            "msg",
            "",
            SimTime::from_micros(2),
            SimTime::from_micros(5),
        );
        assert_eq!(tr.len(), 1);
        let j = tr.to_chrome_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains(r#""ph":"X""#));
        assert!(j.contains(r#""tid":"nic""#));
        assert!(j.contains(r#""dur":3.000"#));
        // Unscoped spans carry no args object at all.
        assert!(!j.contains("\"args\""), "{j}");
    }

    #[test]
    fn chrome_json_escapes_hostile_labels_and_tracks() {
        // Regression: labels/tracks containing `"` or `\` used to be
        // spliced in raw, producing invalid JSON.
        let mut tr = Trace::new();
        let t = SimTime::from_nanos(1);
        tr.span_scoped(r#"tr"ack\"#, "line1\nline2\"quoted\"", "", t, t);
        let j = tr.to_chrome_json();
        assert!(j.contains(r#""name":"line1\nline2\"quoted\"""#), "{j}");
        assert!(j.contains(r#""tid":"tr\"ack\\""#), "{j}");
        // Structural sanity: every quote in the document is either a
        // delimiter or escaped, so the quote count outside escapes is even.
        let mut quotes = 0usize;
        let mut chars = j.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => quotes += 1,
                _ => {}
            }
        }
        assert_eq!(quotes % 2, 0, "unbalanced quotes in {j}");
    }

    #[test]
    fn span_scoped_sets_an_explicit_label() {
        let mut tr = Trace::new();
        tr.span_scoped(
            "t",
            "work",
            "variant:17",
            SimTime::from_nanos(0),
            SimTime::from_nanos(10),
        );
        assert!(tr
            .to_chrome_json()
            .contains(r#""args":{"scope":"variant:17"}"#));
    }

    #[test]
    #[should_panic(expected = "ends before")]
    fn backwards_span_rejected() {
        let mut tr = Trace::new();
        tr.span_scoped(
            "t",
            "bad",
            "",
            SimTime::from_nanos(5),
            SimTime::from_nanos(1),
        );
    }

    #[test]
    fn empty_trace() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.to_chrome_json(), "[]");
    }
}
