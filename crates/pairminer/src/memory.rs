//! Memory accounting of the mining pipeline (the GPU series of Fig. 5).
//!
//! The paper reports the *host* memory of its (unoptimized Python)
//! preprocessing. We report the footprint of every live structure per
//! phase; the figure harness sums what coexists at the peak.

use serde::Serialize;

/// Byte footprint of each pipeline structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MemoryReport {
    /// Vertical tidlists (preprocessing input). `mine` converts only
    /// the items whose support reaches `minsup`, each tidlist allocated
    /// at its exact length, so this counts those alone; 0 under
    /// `mine_preprocessed`, which converts nothing.
    pub tidlists_bytes: usize,
    /// All batmap slot arrays + order maps + failure list.
    pub preprocessed_bytes: usize,
    /// Device-resident buffer (same data as the batmaps, packed).
    pub device_bytes: usize,
    /// Count buffers live at once while the tiles run: on the CPU
    /// engine, the sum over workers of each worker's largest band
    /// buffer (`rows × cols × 8`); on the GPU engine, one tile's
    /// result matrix.
    pub tile_buffer_bytes: usize,
    /// Failed-pair side structures.
    pub failed_bytes: usize,
}

impl MemoryReport {
    /// Peak live bytes: preprocessing holds tidlists + batmaps at once;
    /// mining holds batmaps + device copy + the tile buffers + failure
    /// sets. The maximum of the two phases is the figure's number.
    pub fn peak_bytes(&self) -> usize {
        let preprocessing = self.tidlists_bytes + self.preprocessed_bytes;
        let mining = self.preprocessed_bytes
            + self.device_bytes
            + self.tile_buffer_bytes
            + self.failed_bytes;
        preprocessing.max(mining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_max_of_phases() {
        let r = MemoryReport {
            tidlists_bytes: 100,
            preprocessed_bytes: 50,
            device_bytes: 10,
            tile_buffer_bytes: 5,
            failed_bytes: 0,
        };
        assert_eq!(r.peak_bytes(), 150);
        let r2 = MemoryReport {
            tidlists_bytes: 10,
            ..r
        };
        assert_eq!(r2.peak_bytes(), 65);
    }
}
