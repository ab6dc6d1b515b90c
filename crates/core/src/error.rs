//! Engine error types.

use std::error::Error;
use std::fmt;

use anykey_flash::FreeError;

use crate::audit::AuditError;

/// Errors surfaced by the KV engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The device cannot accept more data: the flash regions (group/data
    /// area or value log) are exhausted even after compaction and GC.
    ///
    /// This is the signal the Figure-14 storage-utilization experiment
    /// fills toward.
    DeviceFull,
    /// A key id too large for the workload's key length (the synthesized
    /// big-endian id would not fit in the key bytes, breaking ordering).
    KeyTooLarge {
        /// The offending key id.
        id: u64,
        /// The configured key length in bytes.
        key_len: u16,
    },
    /// A value longer than the device stores: alone in a group it would
    /// outgrow an erase block or a byte-log block, or touch more than the
    /// 255 pages an extent counts. Rejected before it is buffered.
    ValueTooLarge {
        /// The value length asked for.
        value_len: u32,
        /// The longest value the device stores.
        max: u32,
    },
    /// An engine-internal bookkeeping invariant failed — a state that must
    /// be unreachable in a correct engine (e.g. a peeked iterator entry
    /// vanishing mid-merge, or a spilled segment without a flash location).
    /// `context` names the violated expectation.
    Internal {
        /// The violated expectation, as a static description.
        context: &'static str,
    },
    /// A flash block referenced by engine bookkeeping (value log, group
    /// area, data area) is not tracked by the owning structure.
    UntrackedBlock {
        /// The untracked global block id.
        block: u32,
        /// Which structure was consulted.
        owner: &'static str,
    },
    /// A tracked block's live-unit count (groups, meta pages) disagrees
    /// with a request: a release found nothing left to release, or a
    /// block still holding live units was about to be forgotten.
    LiveCountSkew {
        /// The global block id.
        block: u32,
        /// Which structure tracks the block.
        owner: &'static str,
    },
    /// A block allocator rejected a free or retire request (double free,
    /// out-of-range block, or an already-retired block).
    BlockFree(FreeError),
    /// A structural-invariant audit failed (see [`crate::audit`]); raised
    /// at flush/compaction/GC boundaries in builds with debug assertions.
    Audit(AuditError),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::DeviceFull => f.write_str("device is full"),
            KvError::KeyTooLarge { id, key_len } => {
                write!(f, "key id {id} does not fit in a {key_len}-byte key")
            }
            KvError::ValueTooLarge { value_len, max } => {
                write!(
                    f,
                    "value of {value_len} bytes exceeds the {max}-byte maximum"
                )
            }
            KvError::Internal { context } => {
                write!(f, "internal invariant violated: {context}")
            }
            KvError::UntrackedBlock { block, owner } => {
                write!(f, "block B{block} is not tracked by the {owner}")
            }
            KvError::LiveCountSkew { block, owner } => {
                write!(
                    f,
                    "live-unit count of block B{block} in the {owner} is inconsistent"
                )
            }
            KvError::BlockFree(e) => write!(f, "block allocator misuse: {e}"),
            KvError::Audit(e) => write!(f, "invariant audit failed: {e}"),
        }
    }
}

impl Error for KvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KvError::BlockFree(e) => Some(e),
            KvError::Audit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AuditError> for KvError {
    fn from(e: AuditError) -> Self {
        KvError::Audit(e)
    }
}

impl From<FreeError> for KvError {
    fn from(e: FreeError) -> Self {
        KvError::BlockFree(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_punctuation() {
        let s = KvError::DeviceFull.to_string();
        assert!(s.chars().next().unwrap().is_lowercase());
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<KvError>();
    }
}
