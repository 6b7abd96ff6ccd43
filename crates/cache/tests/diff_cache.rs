//! Randomized differential test of [`SetAssocCache`] against a naive model:
//! one `Vec` per set in LRU order plus, when conflict classification is on,
//! a fully-associative `Vec` shadow of the same capacity. Mixed streams of
//! demand reads and writes, silent prefetch fills and flushes drive both;
//! after every access the hit, conflict, writeback and
//! first-hit-on-prefetch flags and the statistics must agree. This pins the
//! optimized cache's shortcuts (the MRU early-out, the silent-fill early-out
//! and the O(1) shadow) to the straightforward definition on inputs nobody
//! wrote by hand.

use lsv_arch::CacheGeometry;
use lsv_cache::set_assoc::LineAccess;
use lsv_cache::{LevelStats, SetAssocCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    dirty: bool,
    prefetched: bool,
}

/// The cache as defined, with no shortcuts.
struct NaiveCache {
    line_bytes: u64,
    ways: usize,
    /// Front = most recently used.
    sets: Vec<Vec<Way>>,
    /// Fully-associative LRU of all lines, front = most recent; `None`
    /// without conflict classification.
    shadow: Option<Vec<u64>>,
    capacity: usize,
    stats: LevelStats,
}

impl NaiveCache {
    fn new(geom: CacheGeometry, classify: bool) -> Self {
        Self {
            line_bytes: geom.line as u64,
            ways: geom.ways,
            sets: vec![Vec::new(); geom.sets()],
            shadow: classify.then(Vec::new),
            capacity: geom.lines(),
            stats: LevelStats::default(),
        }
    }

    fn locate(&self, addr: u64) -> (u64, usize) {
        let idx = addr / self.line_bytes;
        (
            idx * self.line_bytes,
            (idx % self.sets.len() as u64) as usize,
        )
    }

    /// Touch `line` in the shadow; whether it was resident.
    fn shadow_access(&mut self, line: u64) -> bool {
        let Some(order) = self.shadow.as_mut() else {
            return false;
        };
        let hit = match order.iter().position(|&l| l == line) {
            Some(p) => {
                order.remove(p);
                true
            }
            None => false,
        };
        order.insert(0, line);
        order.truncate(self.capacity);
        hit
    }

    fn access_line(&mut self, addr: u64, write: bool) -> LineAccess {
        let (line, s) = self.locate(addr);
        let shadow_hit = self.shadow_access(line);
        let set = &mut self.sets[s];
        if let Some(p) = set.iter().position(|w| w.line == line) {
            let mut way = set.remove(p);
            let first_hit_on_prefetch = way.prefetched;
            way.dirty |= write;
            way.prefetched = false;
            set.insert(0, way);
            self.stats.hits += 1;
            return LineAccess {
                hit: true,
                conflict: false,
                writeback: false,
                first_hit_on_prefetch,
            };
        }
        self.stats.misses += 1;
        if shadow_hit {
            self.stats.conflict_misses += 1;
        }
        let mut writeback = false;
        if set.len() == self.ways {
            writeback = set.pop().expect("full set").dirty;
            if writeback {
                self.stats.writebacks += 1;
            }
        }
        set.insert(
            0,
            Way {
                line,
                dirty: write,
                prefetched: false,
            },
        );
        LineAccess {
            hit: false,
            conflict: shadow_hit,
            writeback,
            first_hit_on_prefetch: false,
        }
    }

    fn insert_silent(&mut self, addr: u64) {
        let (line, s) = self.locate(addr);
        self.shadow_access(line);
        let set = &mut self.sets[s];
        if let Some(p) = set.iter().position(|w| w.line == line) {
            let way = set.remove(p);
            set.insert(0, way);
            return;
        }
        if set.len() == self.ways {
            set.pop();
        }
        set.insert(
            0,
            Way {
                line,
                dirty: false,
                prefetched: true,
            },
        );
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
        if let Some(order) = self.shadow.as_mut() {
            order.clear();
        }
        self.stats = LevelStats::default();
    }

    fn probe(&self, addr: u64) -> bool {
        let (line, s) = self.locate(addr);
        self.sets[s].iter().any(|w| w.line == line)
    }
}

/// Next address of a stream that mixes the patterns the simulator sees:
/// re-touches of the last line (the MRU shortcut), sequential lines (the
/// prefetcher's stream), same-set strides (conflicts) and random lines
/// from a pool a few times the cache's size (capacity misses).
fn next_addr(rng: &mut StdRng, last: u64, geom: CacheGeometry) -> u64 {
    let line = geom.line as u64;
    let set_stride = line * geom.sets() as u64;
    let pool = (4 * geom.lines()) as u64;
    match rng.gen_range(0..8u32) {
        0 | 1 => last + rng.gen_range(0..line),
        2 => last / line * line + line,
        3 => last / line * line + set_stride * rng.gen_range(1..4u64),
        _ => rng.gen_range(0..pool) * line + rng.gen_range(0..line),
    }
}

fn run_differential(geom: CacheGeometry, classify: bool, seed: u64, steps: usize) {
    let mut fast = SetAssocCache::new(geom, classify);
    let mut naive = NaiveCache::new(geom, classify);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut addr = 0u64;
    let ctx = |step: usize, op: &str, addr: u64| {
        format!(
            "{} sets x {} ways, shadow {classify}, seed {seed}, step {step}: {op} {addr:#x}",
            geom.sets(),
            geom.ways
        )
    };
    for step in 0..steps {
        addr = next_addr(&mut rng, addr, geom);
        match rng.gen_range(0..100u32) {
            0 => {
                fast.flush();
                naive.flush();
            }
            1..=25 => {
                fast.insert_silent(addr);
                naive.insert_silent(addr);
            }
            roll => {
                let write = roll % 3 == 0;
                let got = fast.access_line(addr, write);
                let want = naive.access_line(addr, write);
                let op = if write { "write" } else { "read" };
                assert_eq!(got, want, "{}", ctx(step, op, addr));
            }
        }
        assert_eq!(
            fast.stats(),
            naive.stats,
            "{}",
            ctx(step, "stats after", addr)
        );
        if step % 64 == 0 {
            let probe = rng.gen_range(0..(4 * geom.lines()) as u64) * geom.line as u64;
            assert_eq!(
                fast.probe(probe),
                naive.probe(probe),
                "{}",
                ctx(step, "probe", probe)
            );
        }
    }
}

#[test]
fn set_assoc_cache_matches_naive_model_on_random_streams() {
    let geometries = [
        CacheGeometry::new(512, 64, 2),   // 4 sets x 2 ways
        CacheGeometry::new(256, 64, 1),   // direct-mapped
        CacheGeometry::new(2048, 64, 8),  // 4 sets x 8 ways
        CacheGeometry::new(384, 64, 2),   // 3 sets: the modulo set index
        CacheGeometry::new(4096, 128, 4), // 8 sets x 4 ways, 128-byte lines
        CacheGeometry::new(1024, 64, 16), // fully associative (1 set)
    ];
    for (g, &geom) in geometries.iter().enumerate() {
        for classify in [true, false] {
            for seed in 0..3u64 {
                run_differential(geom, classify, 1000 * g as u64 + seed, 6000);
            }
        }
    }
}
