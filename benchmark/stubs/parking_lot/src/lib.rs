//! Empty offline stand-in for `parking_lot`: declared by `socl-core`, used by no source file.
