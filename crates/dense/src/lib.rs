//! # dense — serial dense-matrix substrate
//!
//! The sequential side of the reproduction: matrix storage, the
//! conventional `O(n³)` multiplication kernels the paper takes as its
//! baseline ("In this paper we consider the conventional O(n³) serial
//! matrix multiplication algorithm only", §2 footnote 1), and the block
//! partitioning used to distribute matrices over processor meshes.
//!
//! The problem size of an `n×n` multiplication is `W = n³` unit
//! operations, where one unit is one multiply–add; kernels report their
//! work in those units so simulated efficiencies use exactly the paper's
//! `W`.  The kernels never fuse a unit: each is a multiply rounded, then
//! an add rounded, so every product is bit-identical to the plain i-k-j
//! loop on every host.  A thread with idle host cores to spare lends
//! them to large kernel calls through [`with_idle_cores`]; the split
//! changes no bit of the product.

pub mod block;
pub mod gen;
pub mod kernel;
mod lend;
pub mod matrix;

pub use block::{BlockGrid, ColStrips, RowStrips};
pub use kernel::{matmul, matmul_accumulate, matmul_naive, work_units};
pub use lend::with_idle_cores;
pub use matrix::Matrix;
