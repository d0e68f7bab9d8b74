//! Offline stand-in for `parking_lot`: named by two manifests, used by no
//! code.
