//! The eight irregular applications of Table 4, each in Flat/CDP/DTBL
//! variants sharing identical algorithms and data structures (the paper's
//! fair-comparison methodology, §5.1). [`App`](crate::App) is the one
//! seam to them.

pub mod amr;
pub mod bfs;
pub mod bht;
pub mod clr;
pub mod join;
pub mod pre;
pub mod regx;
pub mod sssp;

/// BFS/SSSP source vertex used by every benchmark of those families.
const SOURCE: u32 = 0;
