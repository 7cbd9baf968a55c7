//! Helpers shared by the model-based test suites (`mod common;`).

pub mod keys;
