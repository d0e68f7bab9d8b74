//! Offline stand-in for `crossbeam`: the unbounded MPSC channel
//! `ThreadedCluster` uses, over `std::sync::mpsc`. The benchmark never
//! starts a `ThreadedCluster`; this only has to link.

pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvError, SendError, Sender, TryRecvError};

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}
