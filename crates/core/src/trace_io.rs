//! Export of compiled memory-access traces (`treelet-prefetching trace
//! --out FILE`).
//!
//! The per-ray dependent cache-line sequences the timing model replays
//! are the natural interchange artifact for memory-system studies: dump
//! them here to feed other cache/DRAM simulators, or to inspect exactly
//! what the RT unit fetches. The simulator itself never reads a trace
//! file back; every run traces its rays afresh.
//!
//! Format (line-oriented text; `#` starts a comment):
//!
//! ```text
//! ray 0
//! step node=17 treelet=2 leaf=0 lines=100000040
//! step node=63 treelet=9 leaf=1 lines=100000fc0,100002000,100002040
//! ray 1
//! ...
//! ```
//!
//! Addresses are hexadecimal without `0x`. Steps are dependent: within a
//! ray, step *i+1* cannot issue until step *i*'s lines returned.

use crate::traversal::CompiledStep;
use std::io::{self, Write};

/// Writes compiled traces in the text format.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_traces<W: Write>(mut w: W, traces: &[Vec<CompiledStep>]) -> io::Result<()> {
    writeln!(
        w,
        "# treelet-rt compiled memory trace, {} rays",
        traces.len()
    )?;
    for (i, steps) in traces.iter().enumerate() {
        writeln!(w, "ray {i}")?;
        for s in steps {
            write!(
                w,
                "step node={} treelet={} leaf={} lines=",
                s.node,
                s.treelet,
                u8::from(s.is_leaf)
            )?;
            for (k, line) in s.lines.iter().enumerate() {
                if k > 0 {
                    w.write_all(b",")?;
                }
                write!(w, "{line:x}")?;
            }
            writeln!(w)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<CompiledStep>> {
        vec![
            vec![
                CompiledStep {
                    node: 0,
                    treelet: 0,
                    lines: vec![0x1_0000_0000],
                    is_leaf: false,
                },
                CompiledStep {
                    node: 9,
                    treelet: 3,
                    lines: vec![0x1_0000_0240, 0x1_0001_0000, 0x1_0001_0040],
                    is_leaf: true,
                },
            ],
            vec![],
            vec![CompiledStep {
                node: 2,
                treelet: 1,
                lines: vec![0x1_0000_0080],
                is_leaf: false,
            }],
        ]
    }

    #[test]
    fn writes_the_documented_format_byte_for_byte() {
        let mut buffer = Vec::new();
        write_traces(&mut buffer, &sample()).unwrap();
        let want = "# treelet-rt compiled memory trace, 3 rays\n\
                    ray 0\n\
                    step node=0 treelet=0 leaf=0 lines=100000000\n\
                    step node=9 treelet=3 leaf=1 lines=100000240,100010000,100010040\n\
                    ray 1\n\
                    ray 2\n\
                    step node=2 treelet=1 leaf=0 lines=100000080\n";
        assert_eq!(String::from_utf8(buffer).unwrap(), want);
    }
}
