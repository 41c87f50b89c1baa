//! `local-store`: an append-only segmented binary result store.
//!
//! Sweeps over million-cell grids (workload × family × size × seed ×
//! knowledge-regime) outgrow a one-file-per-cell layout long before they
//! outgrow the disk: filesystem metadata becomes the bottleneck. This crate
//! keeps them in a handful of append-only segment files instead:
//!
//! ```text
//! store-dir/
//!   LOCK               exclusive lock held by the one open handle
//!   seg-00000.bin      header | record | record | ...
//!   seg-00001.bin      header | record | ...        (rotated at ~16 MiB)
//! ```
//!
//! Each segment opens with a fixed `LSTORE01` magic + version header; each
//! record is a length-prefixed, CRC-32-checked key/value payload. The in-memory
//! index (64-bit key hash → record locations) is rebuilt by one sequential scan
//! per segment on open, and a torn tail — the half-written record a crashed
//! writer leaves behind — is truncated away so the store always reopens to its
//! last complete record. Reads verify full key bytes, so hash collisions can
//! never serve a foreign value. A directory is open in at most one handle at a
//! time: a second open, from any process, fails with `WouldBlock` instead of
//! appending at a stale offset over the first handle's records.
//!
//! The crate is deliberately std-only and knows nothing about cells or sweeps;
//! `local-engine` layers its result encoding and the `ResultStore` trait on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
mod store;

pub use store::{SegmentStore, StoreConfig, StoreStats, DEFAULT_MAX_SEGMENT_BYTES};
