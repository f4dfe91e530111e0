//! Empty offline stand-in for `rayon`: declared by `socl-core`, used by no source file.
