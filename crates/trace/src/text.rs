//! Line-oriented text trace parsers and writers.
//!
//! Two external formats are supported, both with precise line-numbered
//! error reporting so a malformed multi-gigabyte capture points at the
//! offending line instead of failing opaquely:
//!
//! * [`TextFormat::Ramulator`] — `<non_mem_insts> <R|W> <addr>` per line,
//!   the instruction-trace shape Ramulator-style simulators consume.
//! * [`TextFormat::AddrStream`] — one address per line, every access a
//!   read with no leading non-memory instructions (the shape raw
//!   address-capture tools emit).
//!
//! Addresses are **byte** addresses (hex with an `0x` prefix or decimal)
//! and are converted to cache-line addresses with the usual 64-byte line,
//! matching [`TraceOp::line_addr`]'s definition. Blank lines and lines
//! starting with `#` are skipped in both formats.

use std::io::{BufRead, Write};

use mithril_workloads::TraceOp;

use crate::error::{Result, TraceError};

/// Bytes per cache line assumed when converting byte addresses.
pub(crate) const LINE_BYTES: u64 = 64;

/// The supported text trace dialects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextFormat {
    /// `<non_mem_insts> <R|W> <addr>` per line.
    Ramulator,
    /// One byte address per line; all reads.
    AddrStream,
}

impl TextFormat {
    /// Parses a format name (`ramulator` / `addr`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "ramulator" => Some(TextFormat::Ramulator),
            "addr" | "addr-stream" => Some(TextFormat::AddrStream),
            _ => None,
        }
    }
}

fn parse_addr(token: &str, line: usize) -> Result<u64> {
    let parsed = if let Some(hex) = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16)
    } else {
        token.parse::<u64>()
    };
    parsed.map_err(|_| TraceError::Text {
        line,
        msg: format!("bad address {token:?} (expected decimal or 0x-hex)"),
    })
}

/// Parses one non-blank, non-comment line of `fmt`.
///
/// `line` is the 1-based line number used in errors.
pub(crate) fn parse_line(fmt: TextFormat, text: &str, line: usize) -> Result<TraceOp> {
    let mut tokens = text.split_whitespace();
    match fmt {
        TextFormat::AddrStream => {
            let addr = tokens.next().ok_or_else(|| TraceError::Text {
                line,
                msg: "empty line reached the parser".into(),
            })?;
            if let Some(extra) = tokens.next() {
                return Err(TraceError::Text {
                    line,
                    msg: format!("unexpected trailing token {extra:?}"),
                });
            }
            Ok(TraceOp::read(0, parse_addr(addr, line)? / LINE_BYTES))
        }
        TextFormat::Ramulator => {
            let (nmi, rw, addr) = match (tokens.next(), tokens.next(), tokens.next()) {
                (Some(a), Some(b), Some(c)) => (a, b, c),
                _ => {
                    return Err(TraceError::Text {
                        line,
                        msg: format!("expected `<non_mem_insts> <R|W> <addr>`, got {text:?}"),
                    })
                }
            };
            if let Some(extra) = tokens.next() {
                return Err(TraceError::Text {
                    line,
                    msg: format!("unexpected trailing token {extra:?}"),
                });
            }
            let non_mem_insts: u32 = nmi.parse().map_err(|_| TraceError::Text {
                line,
                msg: format!("bad instruction count {nmi:?}"),
            })?;
            let is_write = match rw {
                "R" | "r" => false,
                "W" | "w" => true,
                other => {
                    return Err(TraceError::Text {
                        line,
                        msg: format!("bad access kind {other:?} (expected R or W)"),
                    })
                }
            };
            let line_addr = parse_addr(addr, line)? / LINE_BYTES;
            Ok(TraceOp {
                non_mem_insts,
                line_addr,
                is_write,
                uncacheable: false,
            })
        }
    }
}

/// A streaming text-trace reader: an iterator of `Result<TraceOp>` that
/// holds one line in memory at a time.
pub struct TextReader<R: BufRead> {
    source: R,
    fmt: TextFormat,
    line_no: usize,
    buf: String,
}

impl<R: BufRead> TextReader<R> {
    /// Wraps `source` as a reader of `fmt` lines.
    pub fn new(source: R, fmt: TextFormat) -> Self {
        Self {
            source,
            fmt,
            line_no: 0,
            buf: String::new(),
        }
    }
}

impl<R: BufRead> Iterator for TextReader<R> {
    type Item = Result<TraceOp>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            match self.source.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(TraceError::Io(e))),
            }
            self.line_no += 1;
            let text = self.buf.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            return Some(parse_line(self.fmt, text, self.line_no));
        }
    }
}

/// Writes `ops` in `fmt`. Information the dialect cannot express is
/// dropped: `AddrStream` loses instruction counts and write flags, and
/// neither dialect carries the `uncacheable` flag.
pub fn write_text<'a, W: Write>(
    sink: &mut W,
    fmt: TextFormat,
    ops: impl IntoIterator<Item = &'a TraceOp>,
) -> std::io::Result<()> {
    for op in ops {
        let byte_addr = op.line_addr.checked_mul(LINE_BYTES).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "line address 0x{:x} has no byte representation",
                    op.line_addr
                ),
            )
        })?;
        match fmt {
            TextFormat::AddrStream => writeln!(sink, "0x{byte_addr:x}")?,
            TextFormat::Ramulator => writeln!(
                sink,
                "{} {} 0x{byte_addr:x}",
                op.non_mem_insts,
                if op.is_write { "W" } else { "R" },
            )?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Reads a whole text trace into memory.
    fn read_text(text: impl AsRef<[u8]>, fmt: TextFormat) -> Result<Vec<TraceOp>> {
        TextReader::new(Cursor::new(text), fmt).collect()
    }

    #[test]
    fn ramulator_lines_parse() {
        let text = "# a comment\n10 R 0x1000\n\n3 W 640\n";
        let ops = read_text(text, TextFormat::Ramulator).unwrap();
        assert_eq!(
            ops,
            vec![TraceOp::read(10, 0x1000 / 64), TraceOp::write(3, 10)]
        );
    }

    #[test]
    fn addr_stream_lines_parse() {
        let ops = read_text("0x40\n128\n", TextFormat::AddrStream).unwrap();
        assert_eq!(ops, vec![TraceOp::read(0, 1), TraceOp::read(0, 2)]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "10 R 0x1000\n11 X 0x2000\n";
        let err = read_text(text, TextFormat::Ramulator).unwrap_err();
        match err {
            TraceError::Text { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains('X'), "{msg}");
            }
            other => panic!("unexpected error {other}"),
        }
        let err = read_text("# c\n\nzz\n", TextFormat::AddrStream).unwrap_err();
        assert!(matches!(err, TraceError::Text { line: 3, .. }), "{err}");
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let err = read_text("1 R 0x40 junk\n", TextFormat::Ramulator).unwrap_err();
        assert!(err.to_string().contains("junk"), "{err}");
    }

    #[test]
    fn text_roundtrip_preserves_expressible_fields() {
        let ops = vec![
            TraceOp::read(5, 100),
            TraceOp::write(0, 7),
            TraceOp::read(4_000_000, 1 << 40),
        ];
        let mut buf = Vec::new();
        write_text(&mut buf, TextFormat::Ramulator, &ops).unwrap();
        let back = read_text(buf, TextFormat::Ramulator).unwrap();
        assert_eq!(back, ops);
    }
}
