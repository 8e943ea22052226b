//! Structured runtime errors.
//!
//! The historical annotation API panics on misuse (an unmapped region is
//! the DSM equivalent of a wild pointer). [`AceError`] gives the same
//! failures a typed, `Result`-returning surface — [`crate::AceRt::try_entry`]
//! and friends — and routes the panicking paths through it so every
//! diagnostic carries the region, the space, and the last hook the runtime
//! executed on the failing node.

use std::fmt;

use ace_machine::ConfigError;

use crate::ids::{RegionId, SpaceId};

/// One completed access section, as recorded by the conformance checker
/// and exchanged between nodes at shutdown for the cross-node
/// conflicting-section analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionRecord {
    /// The region the section was held on.
    pub region: RegionId,
    /// The node that held the section.
    pub rank: usize,
    /// True for a write section, false for a read section.
    pub write: bool,
    /// Name of the protocol governing the region's space when the section
    /// opened (truncated to eight bytes on the wire).
    pub proto: String,
    /// Virtual time at which the outermost open hook completed.
    pub open_t: u64,
    /// Virtual time at which the outermost close began.
    pub close_t: u64,
    /// The node's vector clock just after the open hook completed.
    pub open_vc: Vec<u64>,
    /// The node's vector clock just before the close hook ran.
    pub close_vc: Vec<u64>,
}

impl fmt::Display for SectionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} section on node {} [{}..{} ns, protocol {}]",
            if self.write { "write" } else { "read" },
            self.rank,
            self.open_t,
            self.close_t,
            self.proto
        )
    }
}

/// What the conformance checker found wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceKind {
    /// Data access on a region with no access section open.
    AccessOutsideSection {
        /// The offending access, `"read"` or `"write"`.
        action: &'static str,
    },
    /// Mutable data access while only read sections were open — the
    /// protocol granted read permission, the program wrote.
    WriteUnderReadGrant,
    /// Mutable data access with no section open at all.
    WriteOutsideSection,
    /// An access section was still open when the node's program exited.
    SectionLeftOpen {
        /// True for a write section.
        write: bool,
        /// Virtual time at which the leaked section opened.
        opened_at: u64,
    },
    /// Two nodes held concurrent sections on one region in a combination
    /// the protocol never grants (vector-clock-concurrent, cross-node).
    /// The records are boxed so the common error variants stay small.
    ConflictingSections {
        /// One of the conflicting sections.
        a: Box<SectionRecord>,
        /// The other conflicting section.
        b: Box<SectionRecord>,
    },
}

/// A failed runtime operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AceError {
    /// The region has no entry on this node: it was never `gmalloc`ed
    /// here, mapped here, or fetched here by a lock.
    UnknownRegion {
        /// The region that was asked for.
        region: RegionId,
        /// The asking node.
        rank: usize,
        /// The last annotation hook the runtime ran on this node before
        /// the failure ("none" if no hook has run yet).
        last_hook: &'static str,
    },
    /// The region exists but belongs to a different space than required.
    SpaceMismatch {
        /// The region that was asked for.
        region: RegionId,
        /// The space the caller required.
        expected: SpaceId,
        /// The space the region actually belongs to.
        actual: SpaceId,
    },
    /// The region's entry survives as an unmapped cache entry (CRL-style
    /// unmapped-region caching) but the caller asked for a mapped view.
    UseAfterUnmap {
        /// The unmapped region.
        region: RegionId,
        /// The asking node.
        rank: usize,
        /// The last annotation hook the runtime ran on this node.
        last_hook: &'static str,
    },
    /// No space with this id exists on this node.
    UnknownSpace {
        /// The space that was asked for.
        space: SpaceId,
        /// The asking node.
        rank: usize,
    },
    /// The conformance checker (`ace-check`) caught the program or a
    /// protocol violating the access-control contract.
    Conformance {
        /// The region the violation is on.
        region: RegionId,
        /// The node that detected it (for cross-node conflicts, the
        /// analyzing node).
        rank: usize,
        /// What exactly went wrong.
        kind: ConformanceKind,
    },
    /// The machine configuration combined incompatible knobs (e.g. the
    /// socket transport with the deterministic scheduler); rejected
    /// eagerly before any node is spawned.
    Config(ConfigError),
}

impl From<ConfigError> for AceError {
    fn from(e: ConfigError) -> Self {
        AceError::Config(e)
    }
}

impl fmt::Display for AceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AceError::UnknownRegion { region, rank, last_hook } => {
                write!(f, "region {region} not known on node {rank} (last hook: {last_hook})")
            }
            AceError::SpaceMismatch { region, expected, actual } => {
                write!(f, "region {region} belongs to space {actual}, expected space {expected}")
            }
            AceError::UseAfterUnmap { region, rank, last_hook } => {
                write!(
                    f,
                    "region {region} is no longer mapped on node {rank} \
                     (last hook: {last_hook})"
                )
            }
            AceError::UnknownSpace { space, rank } => {
                write!(f, "unknown space {space} on node {rank}")
            }
            AceError::Config(e) => {
                write!(f, "invalid machine configuration: {e}")
            }
            AceError::Conformance { region, rank, kind } => {
                write!(f, "conformance violation on region {region}: ")?;
                match kind {
                    ConformanceKind::AccessOutsideSection { action } => {
                        write!(f, "{action} access outside any access section on node {rank}")
                    }
                    ConformanceKind::WriteUnderReadGrant => {
                        write!(
                            f,
                            "mutable access on node {rank} inside a read section \
                             (the protocol granted read, the program wrote)"
                        )
                    }
                    ConformanceKind::WriteOutsideSection => {
                        write!(f, "mutable access outside a write section on node {rank}")
                    }
                    ConformanceKind::SectionLeftOpen { write, opened_at } => {
                        write!(
                            f,
                            "{} section still open at node {rank} exit \
                             (opened at {opened_at} ns)",
                            if *write { "write" } else { "read" }
                        )
                    }
                    ConformanceKind::ConflictingSections { a, b } => {
                        write!(
                            f,
                            "concurrent {}+{} sections the protocol never grants: \
                             {a} overlaps {b}",
                            if a.write { "write" } else { "read" },
                            if b.write { "write" } else { "read" }
                        )
                    }
                }
            }
        }
    }
}

impl std::error::Error for AceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_region_message_keeps_wild_pointer_phrase() {
        // Downstream panic tests (and users' muscle memory) match on this
        // substring; the Display must keep it stable.
        let e = AceError::UnknownRegion {
            region: RegionId::new(0, 99),
            rank: 3,
            last_hook: "start_read",
        };
        let s = e.to_string();
        assert!(s.contains("not known on node 3"), "{s}");
        assert!(s.contains("start_read"), "{s}");
    }

    #[test]
    fn display_covers_all_variants() {
        let r = RegionId::new(1, 2);
        assert!(AceError::SpaceMismatch { region: r, expected: SpaceId(0), actual: SpaceId(1) }
            .to_string()
            .contains("expected space"));
        assert!(AceError::UseAfterUnmap { region: r, rank: 0, last_hook: "unmap" }
            .to_string()
            .contains("no longer mapped"));
        assert!(AceError::UnknownSpace { space: SpaceId(7), rank: 1 }
            .to_string()
            .contains("unknown space"));
    }

    #[test]
    fn config_errors_wrap_with_context() {
        let e: AceError = ConfigError::SocketMultiplexed.into();
        let s = e.to_string();
        assert!(s.contains("invalid machine configuration"), "{s}");
        assert!(s.contains("Threads"), "{s}");
    }

    #[test]
    fn conformance_display_names_region_node_and_offense() {
        let r = RegionId::new(1, 2);
        let conf = |kind| AceError::Conformance { region: r, rank: 3, kind };

        let s = conf(ConformanceKind::AccessOutsideSection { action: "read" }).to_string();
        assert!(s.contains("conformance violation"), "{s}");
        assert!(s.contains("read access outside any access section on node 3"), "{s}");

        let s = conf(ConformanceKind::WriteUnderReadGrant).to_string();
        assert!(s.contains("the protocol granted read, the program wrote"), "{s}");

        let s = conf(ConformanceKind::WriteOutsideSection).to_string();
        assert!(s.contains("outside a write section on node 3"), "{s}");

        let s = conf(ConformanceKind::SectionLeftOpen { write: true, opened_at: 42 }).to_string();
        assert!(s.contains("write section still open at node 3 exit"), "{s}");
        assert!(s.contains("42 ns"), "{s}");

        let rec = |rank: usize, write: bool| {
            Box::new(SectionRecord {
                region: r,
                rank,
                write,
                proto: "unfenced".into(),
                open_t: 10,
                close_t: 20,
                open_vc: vec![1, 0],
                close_vc: vec![2, 0],
            })
        };
        let s = conf(ConformanceKind::ConflictingSections { a: rec(0, true), b: rec(1, false) })
            .to_string();
        assert!(s.contains("concurrent write+read sections"), "{s}");
        assert!(s.contains("write section on node 0"), "{s}");
        assert!(s.contains("read section on node 1"), "{s}");
        assert!(s.contains("protocol unfenced"), "{s}");
    }
}
