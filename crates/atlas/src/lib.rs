//! thistle-atlas: a durable atlas of the accelerator-dataflow design
//! space.
//!
//! The serve tier caches solved [`DesignPoint`](thistle::DesignPoint)s by
//! canonical query, but a process restart empties the cache and every
//! near-identical query re-solves from scratch. This crate turns that
//! cache into a persistent, queryable atlas:
//!
//! * [`AtlasSnapshot`] — a versioned, checksummed, dependency-free binary
//!   format serializing the canonical-key → design-point LRU to disk.
//!   Saves are atomic (write-to-temp + rename); loads are
//!   corruption-tolerant (damaged records are skipped and counted, never
//!   fatal).
//!
//! The serving layer (`thistle-serve`) owns *when* to checkpoint and how
//! restored entries donate their permutation pair to near-miss queries;
//! this crate owns the durable artifact itself. The format specification lives in
//! DESIGN.md §12.

pub mod codec;
pub mod snapshot;

pub use codec::{crc32, fingerprint_digest, ByteReader, ByteWriter, CodecError};
pub use snapshot::{AtlasSnapshot, LoadResult, MAGIC, VERSION};
