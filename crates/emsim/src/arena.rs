//! [`RunArena`]: many short block-laid-out runs in one allocation.
//!
//! A structure with O(n log n) space — a segment tree whose every
//! canonical node holds a weight-descending run — would otherwise spend one
//! [`crate::BlockArray`] per node: its own `Vec`, meter handle and header
//! images, a million times over. The arena keeps every run in one `Vec`
//! with `u32` run offsets, and reserves one contiguous range of array ids
//! up front ([`CostModel::new_array_ids`]): run `r` is array id `base + r`.
//!
//! On the meter and the device the arena is indistinguishable from the
//! per-run arrays it replaces: building charges each run's blocks, and
//! mirrors one header image per (run, block) — the same bytes, the same
//! [`crate::BlockId`], in the same order as [`crate::BlockArray::new`]
//! called once per run. [`RunArena::scan_while`] charges exactly what
//! [`crate::BlockArray::scan_while`] charges over a whole run.

use crate::block::mirror_headers;
use crate::cost::CostModel;

/// Runs of `T`, each laid out in its own blocks, stored in one `Vec`.
#[derive(Debug)]
pub struct RunArena<T> {
    data: Vec<T>,
    /// `offsets[r]..offsets[r + 1]` is run `r` in `data`.
    offsets: Vec<u32>,
    per_block: usize,
    /// Array id of run 0; run `r` is `base + r`.
    base: u64,
    model: CostModel,
}

impl<T> RunArena<T> {
    /// Store `data` as consecutive runs of the given lengths, charging the
    /// writes to lay each run out and mirroring each run's block headers.
    ///
    /// Panics if a run offset does not fit in `u32` or the lengths do not
    /// add up to `data.len()`.
    pub fn new(model: &CostModel, data: Vec<T>, lens: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0u32];
        let mut end = 0usize;
        for len in lens {
            end += len;
            let Ok(off) = u32::try_from(end) else {
                panic!("run offset {end} overflows u32");
            };
            offsets.push(off);
        }
        assert_eq!(end, data.len(), "run lengths must add up to the data");
        let per_block = model.config().items_per_block::<T>();
        let runs = offsets.len() - 1;
        let base = model.new_array_ids(runs as u64);
        let mut blocks = 0u64;
        for (r, w) in offsets.windows(2).enumerate() {
            let len = (w[1] - w[0]) as usize;
            blocks += len.div_ceil(per_block) as u64;
            let id = base + r as u64;
            mirror_headers(model, id, id, len, per_block);
        }
        model.charge_writes(blocks);
        RunArena {
            data,
            offsets,
            per_block,
            base,
            model: model.clone(),
        }
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Items in run `run`.
    pub fn run_len(&self, run: usize) -> usize {
        (self.offsets[run + 1] - self.offsets[run]) as usize
    }

    /// Total space in blocks: every run occupies its own blocks.
    pub fn space_blocks(&self) -> u64 {
        (0..self.runs())
            .map(|r| self.run_len(r).div_ceil(self.per_block) as u64)
            .sum()
    }

    /// Scan run `run` from its start until `f` returns `false` or the run
    /// ends, charging each block of the run lazily, as the scan reaches it.
    /// Returns the number of items visited.
    pub fn scan_while(&self, run: usize, mut f: impl FnMut(&T) -> bool) -> usize {
        let lo = self.offsets[run] as usize;
        let items = &self.data[lo..self.offsets[run + 1] as usize];
        let id = self.base + run as u64;
        let mut visited = 0;
        for (b, block) in items.chunks(self.per_block).enumerate() {
            self.model.touch(id, b as u64);
            for item in block {
                visited += 1;
                if !f(item) {
                    return visited;
                }
            }
        }
        visited
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EmConfig;
    use crate::BlockArray;

    fn model64() -> CostModel {
        CostModel::new(EmConfig::new(64))
    }

    #[test]
    fn build_charges_and_ids_match_one_array_per_run() {
        let lens = [130usize, 0, 1, 64, 65];
        let data: Vec<u64> = (0..lens.iter().sum::<usize>() as u64).collect();
        let m = model64();
        m.new_array_id(); // the range starts wherever the meter is
        let arena = RunArena::new(&m, data.clone(), lens);
        let per_run = model64();
        per_run.new_array_id();
        let mut rest = data.as_slice();
        for len in lens {
            let (run, tail) = rest.split_at(len);
            BlockArray::new(&per_run, run.to_vec());
            rest = tail;
        }
        assert_eq!(m.report(), per_run.report());
        assert_eq!(m.physical(), per_run.physical());
        assert_eq!(m.new_array_id(), per_run.new_array_id());
        assert_eq!(arena.runs(), lens.len());
        assert_eq!(arena.space_blocks(), 3 + 1 + 1 + 2);
    }

    #[test]
    fn multi_block_run_charges_one_touch_per_block() {
        let m = model64();
        let arena = RunArena::new(&m, (0u64..300).collect(), [10, 290]);
        m.reset();
        let mut sum = 0;
        assert_eq!(
            arena.scan_while(1, |&x| {
                sum += x;
                true
            }),
            290
        );
        assert_eq!(sum, (10..300).sum::<u64>());
        assert_eq!(m.report().reads, 290u64.div_ceil(64));
    }

    #[test]
    fn scan_while_stops_mid_run_and_charges_lazily() {
        let m = model64();
        let arena = RunArena::new(&m, (0u64..1000).collect(), [1000]);
        m.reset();
        assert_eq!(arena.scan_while(0, |&x| x < 100), 101);
        assert_eq!(m.report().reads, 2, "blocks 0 and 1 only");
        let a = BlockArray::new(&m, (0u64..1000).collect::<Vec<_>>());
        m.reset();
        assert_eq!(a.scan_while(0, 1000, |&x| x < 100), 101);
        assert_eq!(m.report().reads, 2, "the same charge as a BlockArray");
    }

    #[test]
    fn empty_run_scans_free() {
        let m = model64();
        let arena = RunArena::new(&m, vec![1u64, 2], [0, 2]);
        m.reset();
        assert_eq!(arena.scan_while(0, |_| panic!("no items")), 0);
        assert_eq!(m.report().reads, 0);
        assert_eq!(arena.run_len(1), 2);
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn run_offset_overflow_is_refused() {
        // Refused before the data is looked at: no 4 GiB allocation.
        let _ = RunArena::<u64>::new(&model64(), Vec::new(), [u32::MAX as usize, 1]);
    }
}
