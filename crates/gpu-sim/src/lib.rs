//! # gpu-sim — an OpenCL-style GPU execution-model simulator
//!
//! The paper's experiments ran on a GeForce GTX 285 through PyOpenCL.
//! This crate is the reproduction's substitute substrate (see
//! ARCHITECTURE.md, "Deviations from the paper", item 1): it executes
//! kernels written against an OpenCL-like model —
//! work groups with local indices, shared memory, barriers — while
//! accounting global-memory traffic under the half-warp coalescing rules
//! of the NVIDIA best-practices guide the paper follows, and converts
//! the counters into simulated seconds with a documented analytic model
//! parameterized by the device ([`DeviceSpec::gtx285`]).
//!
//! What is faithful: work decomposition, memory-transaction counts, bus
//! efficiency, shared-memory staging, barrier structure, launch
//! overheads, watchdog limits, host↔device transfer costs. What is not:
//! cycle-level SM scheduling. The simulator's purpose is to preserve the
//! paper's *shapes* (who wins, where crossovers fall), not GT200 cycle
//! accuracy.
//!
//! ```
//! use gpu_sim::{dispatch, DeviceSpec, GlobalBuffer, GroupCtx, Kernel, NdRange};
//!
//! /// Each work item doubles one element.
//! struct Double<'a> { input: &'a GlobalBuffer }
//! impl Kernel for Double<'_> {
//!     fn run_group(&self, ctx: &mut GroupCtx<'_>) {
//!         let base = ctx.global_base(0);
//!         let lanes = ctx.local_size()[0];
//!         let words: Vec<u64> =
//!             ctx.load_seq(self.input, base, lanes).iter().map(|&w| w as u64 * 2).collect();
//!         ctx.ops(lanes as u64);
//!         ctx.store_seq(base, &words);
//!     }
//! }
//!
//! let input = GlobalBuffer::new((0..64).collect());
//! let report = dispatch(&DeviceSpec::gtx285(), &Double { input: &input }, NdRange::d1(64, 16));
//! let mut out = vec![0u64; 64];
//! report.scatter_into(&mut out);
//! assert_eq!(out[10], 20);
//! assert!(report.seconds() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod coalesce;
pub mod device;
pub mod executor;
pub mod kernel;
pub mod memory;
pub mod ndrange;
pub mod profiler;
pub mod queue;
pub mod timing;

pub use device::DeviceSpec;
pub use executor::{dispatch, dispatch_seq, LaunchReport};
pub use kernel::{GroupCtx, Kernel};
pub use memory::{GlobalBuffer, SharedMem};
pub use ndrange::NdRange;
pub use profiler::KernelStats;
pub use queue::CommandQueue;
pub use timing::{effective_rate, LaunchTiming};
