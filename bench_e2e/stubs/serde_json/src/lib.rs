//! Offline stand-in for `serde_json`: named by `efdedup`'s manifest but
//! called by nothing the benchmark links.
