//! Ledger pins for the segment-tree structures: `SegStab` (interval
//! stabbing) and the point-enclosure x-trees `EncPri`/`EncMax`, which nest
//! one y-structure per canonical node.
//!
//! Each test builds on a small fixed input over a pooled meter whose
//! device records every header image it is sent, then compares the whole
//! ledger against constants recorded before the canonical-node runs moved
//! into one arena: the metered build and query `IoReport`s, the device's
//! `pwrites`/`bytes_written`, an order-sensitive digest of every mirrored
//! `(array, block, image)`, `space_blocks`, the next array id the meter
//! hands out, and the weights an early-stopping visitor sees, in order.
//! Any drift in id order, block layout, header bytes or charging shows up
//! here before it reaches the golden baselines.

use std::sync::{Arc, Mutex};

use emsim::{
    BlockDevice, BlockId, CostModel, DeviceClass, EmConfig, EmError, FaultPlan, IoReport,
    MemDevice, PoolPolicy,
};
use enclosure::{EncMax, EncPri, Rect};
use geom::Point2;
use interval::{Interval, SegStab};
use topk_core::{MaxIndex, PrioritizedIndex};

/// A `MemDevice` that folds every write, in arrival order, into a digest
/// of `(array, block, image bytes)`. The namespace is left out: it is
/// process-global and depends on how many meters other tests made first.
#[derive(Debug, Default)]
struct Recording {
    inner: MemDevice,
    digest: Mutex<u64>,
}

fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

impl BlockDevice for Recording {
    fn class(&self) -> DeviceClass {
        self.inner.class()
    }
    fn read(&self, id: BlockId) -> Result<Option<Vec<u8>>, EmError> {
        self.inner.read(id)
    }
    fn write(&self, id: BlockId, payload: &[u8]) -> Result<(), EmError> {
        let mut d = self.digest.lock().unwrap();
        *d = fold(
            fold(fold(*d, &id.array.to_le_bytes()), &id.block.to_le_bytes()),
            payload,
        );
        self.inner.write(id, payload)
    }
    fn sync(&self) -> Result<(), EmError> {
        self.inner.sync()
    }
    fn crash(&self) {
        self.inner.crash();
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn blocks_of(&self, ns: u64, array: u64) -> Vec<u64> {
        self.inner.blocks_of(ns, array)
    }
}

/// Everything a pin compares.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    build: IoReport,
    pwrites: u64,
    bytes_written: u64,
    image_digest: u64,
    space_blocks: u64,
    next_array_id: u64,
    query: IoReport,
    early: Vec<u64>,
}

/// A meter with a small LRU pool (so queries see both hits and misses)
/// over a recording device, plus the device handle.
fn meter() -> (CostModel, Arc<Recording>) {
    let dev = Arc::new(Recording::default());
    let model = CostModel::with_device(
        EmConfig::with_memory(16, 48),
        FaultPlan::none(),
        PoolPolicy::Lru,
        dev.clone(),
    );
    (model, dev)
}

/// A deterministic xorshift stream in `[0, 1)`.
fn stream(mut x: u64) -> impl FnMut() -> f64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 10_000) as f64 / 10_000.0
    }
}

/// Distinct weights: `i ↦ 7919·i mod 1009` is injective below 1009.
fn weight(i: usize) -> u64 {
    (i as u64 * 7919) % 1009 + 1
}

fn intervals(n: usize) -> Vec<Interval> {
    let mut r = stream(0x5EED_0001);
    (0..n)
        .map(|i| {
            let lo = (r() * 1000.0).floor();
            let len = (r() * 200.0).floor();
            // Every fifth interval is a point.
            let hi = if i % 5 == 0 { lo } else { lo + len };
            Interval::new(lo, hi, weight(i))
        })
        .collect()
}

fn rects(n: usize) -> Vec<Rect> {
    let mut r = stream(0x5EED_0002);
    (0..n)
        .map(|i| {
            let x1 = (r() * 100.0).floor();
            let y1 = (r() * 100.0).floor();
            let w = (r() * 40.0).floor();
            let h = (r() * 40.0).floor();
            Rect::new(x1, x1 + w, y1, y1 + h, weight(i))
        })
        .collect()
}

/// Build with `build`, then run `queries` and record the ledger.
fn ledger<I>(
    build: impl FnOnce(&CostModel) -> I,
    space: impl Fn(&I) -> u64,
    queries: impl Fn(&I),
    early: impl Fn(&I) -> Vec<u64>,
) -> Ledger {
    let (model, dev) = meter();
    let idx = build(&model);
    let built = model.report();
    let phys = model.physical();
    let image_digest = *dev.digest.lock().unwrap();
    let next_array_id = model.new_array_id();
    queries(&idx);
    let query = model.report().since(&built);
    Ledger {
        build: built,
        pwrites: phys.pwrites,
        bytes_written: phys.bytes_written,
        image_digest,
        space_blocks: space(&idx),
        next_array_id,
        query,
        early: early(&idx),
    }
}

/// Weights seen by a visitor that stops after `limit` items.
fn first_weights<E: topk_core::Element>(
    limit: usize,
    run: impl FnOnce(&mut dyn FnMut(&E) -> bool),
) -> Vec<u64> {
    let mut seen = Vec::new();
    run(&mut |e| {
        seen.push(e.weight());
        seen.len() < limit
    });
    seen
}

fn report(reads: u64, writes: u64, pool_hits: u64, pool_misses: u64) -> IoReport {
    IoReport {
        reads,
        writes,
        pool_hits,
        pool_misses,
        faults: 0,
    }
}

#[test]
fn segstab_ledger_is_pinned() {
    let items = intervals(300);
    let got = ledger(
        |m| SegStab::build(m, items.clone()),
        PrioritizedIndex::space_blocks,
        |idx| {
            for i in 0..40 {
                let q = f64::from(i) * 29.5 - 20.0;
                for tau in [0, 300, 900] {
                    idx.query(&q, tau, &mut Vec::new());
                }
            }
        },
        |idx| first_weights(12, |v| idx.for_each_at_least(&500.0, 100, v)),
    );
    assert_eq!(
        got,
        Ledger {
            build: report(0, 1677, 0, 0),
            pwrites: 861,
            bytes_written: 34_440,
            image_digest: 15_000_078_363_042_194_694,
            space_blocks: 887,
            next_array_id: 817,
            query: report(1423, 0, 961, 343),
            early: vec![725, 395, 121, 481, 854, 424, 345, 820, 688, 576, 382, 208],
        }
    );
}

#[test]
fn encpri_ledger_is_pinned() {
    let items = rects(150);
    let got = ledger(
        |m| EncPri::build(m, items.clone()),
        PrioritizedIndex::space_blocks,
        |idx| {
            for i in 0..12 {
                for j in 0..12 {
                    let q = Point2::new(f64::from(i) * 11.0 - 3.0, f64::from(j) * 11.0 - 3.0);
                    for tau in [0, 500] {
                        idx.query(&q, tau, &mut Vec::new());
                    }
                }
            }
        },
        |idx| {
            let q = Point2::new(50.0, 50.0);
            first_weights(12, |v| idx.for_each_at_least(&q, 100, v))
        },
    );
    assert_eq!(
        got,
        Ledger {
            build: report(0, 3650, 0, 0),
            pwrites: 1701,
            bytes_written: 68_040,
            image_digest: 16_600_666_910_695_757_735,
            space_blocks: 1968,
            next_array_id: 1950,
            query: report(7021, 0, 2639, 709),
            early: vec![667, 398, 423, 903, 973, 568, 386, 791, 394, 245],
        }
    );
}

#[test]
fn encmax_ledger_is_pinned() {
    let items = rects(150);
    let got = ledger(
        |m| EncMax::build(m, items.clone()),
        MaxIndex::space_blocks,
        |idx| {
            for i in 0..12 {
                for j in 0..12 {
                    let q = Point2::new(f64::from(i) * 11.0 - 3.0, f64::from(j) * 11.0 - 3.0);
                    idx.query_max(&q);
                }
            }
        },
        |idx| {
            (0..12)
                .filter_map(|i| idx.query_max(&Point2::new(f64::from(i) * 9.0, 50.0)))
                .map(|r| r.weight)
                .collect()
        },
    );
    assert_eq!(
        got,
        Ledger {
            build: report(0, 2143, 0, 0),
            pwrites: 1895,
            bytes_written: 75_800,
            image_digest: 4_185_803_764_052_780_786,
            space_blocks: 1902,
            next_array_id: 497,
            query: report(1493, 0, 3723, 485),
            early: vec![969, 969, 667, 791, 973, 973, 994, 994, 932, 117, 758],
        }
    );
}
