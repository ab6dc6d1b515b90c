//! The device the integration tests share.

use anykey::core::{DeviceConfig, DeviceConfigBuilder, EngineKind};

/// A 16 MiB `kind` device of 8 KiB pages, 16-page blocks and 8-page
/// groups: small enough that a short stream reaches compaction and GC.
/// Each test sets its own key length, fault model and value log on the
/// builder.
pub(crate) fn test_device(kind: EngineKind) -> DeviceConfigBuilder {
    let mut builder = DeviceConfig::builder();
    builder
        .capacity_bytes(16 << 20)
        .page_size(8 << 10)
        .pages_per_block(16)
        .group_pages(8)
        .engine(kind);
    builder
}
