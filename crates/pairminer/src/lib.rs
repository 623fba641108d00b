//! # pairminer — the paper's frequent-pair-mining system
//!
//! End-to-end implementation of §III: host-side preprocessing (tidlists
//! → batmaps, sorted by width), the k×k tile schedule with triangular
//! symmetry, the §III-B comparison kernel executed on the `gpu-sim`
//! substrate (or for real on host cores, serially or across all cores
//! through the shared [`executor`] subsystem), and the failed-insertion
//! postprocessing path.
//!
//! ```
//! use pairminer::{mine, MinerConfig};
//! use fim::TransactionDb;
//!
//! let db = TransactionDb::new(4, vec![
//!     vec![0, 1, 2],
//!     vec![1, 2, 3],
//!     vec![0, 1],
//! ]);
//! let report = mine(&db, &MinerConfig::default());
//! assert_eq!(report.pairs[&(1, 2)], 2);
//! ```

#![warn(missing_docs)]

pub mod cpu;
pub mod executor;
pub mod failed;
pub mod gpu;
pub mod ingest;
pub mod levelwise;
pub mod memory;
pub mod miner;
pub mod preprocess;
pub mod schedule;

pub use batmap::{Parallelism, ReprPolicy, SetRepr};
pub use executor::{
    balanced_partition, ExecReport, GpuSimExecutor, ParallelCpuExecutor, TileConsumer,
    TileExecutor, TilePlan,
};
pub use ingest::{CompactionJob, IngestError, LayeredCorpus, WindowedMiner};
pub use levelwise::{LevelReport, LevelwiseConfig, LevelwiseMiner, LevelwiseReport};
pub use memory::MemoryReport;
pub use miner::{
    build_pair_map, mine, mine_preprocessed, Engine, MinerConfig, MiningReport, PairEntry, Timings,
};
pub use preprocess::{preprocess, preprocess_with, Preprocessed, BLOCK, GPU_MIN_SHIFT};
pub use schedule::{schedule, Tile};
