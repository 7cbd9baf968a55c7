//! On-disk persistence primitives for the durability layer.
//!
//! [`codec`] is the byte layer: scalars, counted sequences, rows,
//! schemas, the checksummed record frame and the walk that tells a torn
//! log tail from corruption. [`logfile`] is the file layer: the
//! append-only log handle and the atomic whole-file replace.
//! [`snapshot`] is the whole-catalog image the WAL compacts into. The
//! log's grammar lives in [`crate::wal`];
//! [`crate::Database::open_durable`] ties the pieces together.

pub mod codec;
pub mod logfile;
pub mod snapshot;
