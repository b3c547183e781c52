//! The instrumentation patch shipped to production runs.

use std::collections::BTreeSet;

use gist_ir::{FuncId, InstrId};

/// Instrumentation for one production run: which statements toggle PT and
/// which memory accesses get watchpoints. This is the artifact Gist's
/// server distributes to clients ("Gist uses bsdiff to create a binary
/// patch file that it ships off to user endpoints", §4).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstrumentationPatch {
    /// Statements after whose execution PT tracing turns ON (predecessor
    /// block terminators, callsites, etc.).
    pub pt_on_after: BTreeSet<InstrId>,
    /// Statements after whose execution PT tracing turns OFF.
    pub pt_off_after: BTreeSet<InstrId>,
    /// Resume points: when control *returns to* one of these statements
    /// (the statement after a callsite), PT tracing turns ON. Needed when
    /// a tracked statement follows a call whose callee contains a stop
    /// point — the sdom optimization alone would leave it untraced.
    pub pt_on_return_to: BTreeSet<InstrId>,
    /// Functions whose entry turns PT tracing ON (tracked statements in
    /// the entry block of a called function or a thread start routine; the
    /// instrumentation executes in the entering thread, on its own core).
    pub pt_on_enter: BTreeSet<FuncId>,
    /// Turn PT on at run start (tracked statement in the entry block of
    /// `main`, which has no predecessors).
    pub pt_on_at_start: bool,
    /// Memory-access statements at which to arm a watchpoint on the
    /// accessed address (the arm site is "before the access and after its
    /// immediate dominator", §3.2.3).
    pub watch_accesses: BTreeSet<InstrId>,
    /// The tracked slice portion this patch covers (for refinement:
    /// executed ∩ tracked, discovered ∖ tracked).
    pub tracked: BTreeSet<InstrId>,
}

impl InstrumentationPatch {
    /// Total number of instrumentation points inserted into the program
    /// (the paper's overhead grows with this count, Fig. 11).
    pub fn instrumentation_points(&self) -> usize {
        self.pt_on_after.len()
            + self.pt_off_after.len()
            + self.pt_on_return_to.len()
            + self.pt_on_enter.len()
            + self.watch_accesses.len()
            + usize::from(self.pt_on_at_start)
    }

    /// Serialized size in bytes (patch-shipping cost accounting).
    pub fn shipped_size(&self) -> usize {
        self.to_bytes().len()
    }

    /// Encodes the patch into the compact binary wire format shipped to
    /// clients: five length-prefixed sections of little-endian `u32` ids
    /// plus the start flag.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_section(out: &mut Vec<u8>, ids: impl Iterator<Item = u32>, len: usize) {
            out.extend_from_slice(&(len as u32).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        let mut out = Vec::new();
        put_section(
            &mut out,
            self.pt_on_after.iter().map(|i| i.0),
            self.pt_on_after.len(),
        );
        put_section(
            &mut out,
            self.pt_off_after.iter().map(|i| i.0),
            self.pt_off_after.len(),
        );
        put_section(
            &mut out,
            self.pt_on_return_to.iter().map(|i| i.0),
            self.pt_on_return_to.len(),
        );
        put_section(
            &mut out,
            self.pt_on_enter.iter().map(|f| f.0),
            self.pt_on_enter.len(),
        );
        out.push(u8::from(self.pt_on_at_start));
        put_section(
            &mut out,
            self.watch_accesses.iter().map(|i| i.0),
            self.watch_accesses.len(),
        );
        put_section(
            &mut out,
            self.tracked.iter().map(|i| i.0),
            self.tracked.len(),
        );
        out
    }

    /// Decodes a patch from the binary wire format produced by
    /// [`InstrumentationPatch::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        struct Reader<'a>(&'a [u8]);
        impl Reader<'_> {
            fn u32(&mut self) -> Result<u32, String> {
                if self.0.len() < 4 {
                    return Err("truncated patch".to_owned());
                }
                let (head, rest) = self.0.split_at(4);
                self.0 = rest;
                Ok(u32::from_le_bytes(head.try_into().unwrap()))
            }
            fn u8(&mut self) -> Result<u8, String> {
                let (&b, rest) = self.0.split_first().ok_or("truncated patch")?;
                self.0 = rest;
                Ok(b)
            }
            fn ids(&mut self) -> Result<Vec<u32>, String> {
                let n = self.u32()?;
                (0..n).map(|_| self.u32()).collect()
            }
        }
        let mut r = Reader(bytes);
        let patch = InstrumentationPatch {
            pt_on_after: r.ids()?.into_iter().map(InstrId).collect(),
            pt_off_after: r.ids()?.into_iter().map(InstrId).collect(),
            pt_on_return_to: r.ids()?.into_iter().map(InstrId).collect(),
            pt_on_enter: r.ids()?.into_iter().map(FuncId).collect(),
            pt_on_at_start: r.u8()? != 0,
            watch_accesses: r.ids()?.into_iter().map(InstrId).collect(),
            tracked: r.ids()?.into_iter().map(InstrId).collect(),
        };
        if r.0.is_empty() {
            Ok(patch)
        } else {
            Err("trailing bytes after patch".to_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_counting() {
        let mut p = InstrumentationPatch::default();
        p.pt_on_after.insert(InstrId(1));
        p.pt_off_after.insert(InstrId(2));
        p.watch_accesses.insert(InstrId(3));
        p.pt_on_at_start = true;
        assert_eq!(p.instrumentation_points(), 4);
    }

    #[test]
    fn roundtrips_wire_format() {
        let mut p = InstrumentationPatch::default();
        p.pt_on_after.insert(InstrId(7));
        p.pt_on_enter.insert(FuncId(2));
        p.pt_on_at_start = true;
        p.tracked.insert(InstrId(7));
        let bytes = p.to_bytes();
        let q = InstrumentationPatch::from_bytes(&bytes).unwrap();
        assert_eq!(p, q);
        assert_eq!(p.shipped_size(), bytes.len());
    }

    #[test]
    fn truncated_patch_is_an_error() {
        let mut p = InstrumentationPatch::default();
        p.watch_accesses.insert(InstrId(3));
        let bytes = p.to_bytes();
        assert!(InstrumentationPatch::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }
}
