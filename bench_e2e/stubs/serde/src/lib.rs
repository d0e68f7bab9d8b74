//! Offline stand-in for `serde`: the workspace only *derives*
//! `Serialize`/`Deserialize` so its result types can be written out by
//! `serde_json`; nothing on the measured path serializes. The traits are
//! markers every type satisfies and the derives expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<'de, T> Deserialize<'de> for T {}
