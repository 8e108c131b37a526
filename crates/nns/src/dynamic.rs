//! Dynamic NNS engines for incrementally grown point sets (RRT trees).
//!
//! RRT (§III-B, MoveBot) interleaves queries with insertions, so the static
//! engines of this crate do not fit. Three dynamic engines mirror the
//! paper's comparison:
//!
//! * [`DynBrute`] — scan the growing store,
//! * [`DynKdTree`] — incremental (unbalanced) k-d tree insertion; queries
//!   remain exact but traversal is a dependent-load pointer chase,
//! * [`DynLsh`] — LSH with *chunked* bucket storage: each bucket owns runs
//!   of contiguous slots so VLN's vectorized scans stay possible while the
//!   tree grows.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tartan_sim::{Buffer, Machine, MemPolicy, Proc};

use crate::dist_sq;
use crate::lsh::LshConfig;

const PC_STORE: u64 = 0x6_4000;
const PC_NODE: u64 = 0x6_4100;
const PC_CHUNK: u64 = 0x6_4200;

/// An append-only instrumented point store with a fixed capacity.
#[derive(Debug)]
pub struct DynPointStore {
    dim: usize,
    len: usize,
    data: Buffer<f32>,
}

impl DynPointStore {
    /// Allocates a store for up to `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `dim` is zero.
    pub fn new(machine: &mut Machine, dim: usize, capacity: usize) -> Self {
        assert!(dim > 0 && capacity > 0, "store needs positive dimensions");
        DynPointStore {
            dim,
            len: 0,
            data: machine.buffer_from_vec(vec![0.0; dim * capacity], MemPolicy::Normal),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Points currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a point (timed stores), returning its index.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is exhausted or `point` has the wrong width.
    pub fn push(&mut self, p: &mut Proc<'_>, point: &[f32]) -> usize {
        assert_eq!(point.len(), self.dim, "point width mismatch");
        assert!(
            (self.len + 1) * self.dim <= self.data.len(),
            "store capacity exhausted"
        );
        let idx = self.len;
        self.data.set_run(p, PC_STORE, idx * self.dim, point, 0);
        self.len += 1;
        idx
    }

    /// Untimed view of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn point(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "point {i} out of bounds");
        &self.data.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    /// Timed scalar read of point `i` (one address run, charge-identical
    /// to `dim` scalar gets).
    pub fn load_point(&self, p: &mut Proc<'_>, i: usize) -> &[f32] {
        assert!(i < self.len, "point {i} out of bounds");
        self.data.get_run(p, PC_STORE, i * self.dim, self.dim, 0)
    }

    /// Timed vector read of `n` points starting at `start`.
    pub fn vload_points(&self, p: &mut Proc<'_>, start: usize, n: usize) -> &[f32] {
        self.data.vget(p, PC_STORE, start * self.dim, n * self.dim)
    }
}

/// A dynamic NNS engine.
pub trait DynNns {
    /// Inserts the point at index `idx` of the store (the caller has just
    /// pushed it).
    fn insert(&mut self, p: &mut Proc<'_>, store: &DynPointStore, idx: usize);

    /// Returns the (approximately) nearest stored point to `query`.
    fn nearest(&self, p: &mut Proc<'_>, store: &DynPointStore, query: &[f32]) -> Option<usize>;

    /// Engine name.
    fn name(&self) -> &'static str;
}

/// Exhaustive dynamic search.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynBrute;

impl DynBrute {
    /// Creates the engine.
    pub fn new() -> Self {
        DynBrute
    }
}

impl DynNns for DynBrute {
    fn insert(&mut self, _p: &mut Proc<'_>, _store: &DynPointStore, _idx: usize) {}

    fn nearest(&self, p: &mut Proc<'_>, store: &DynPointStore, query: &[f32]) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for i in 0..store.len() {
            let pt = store.load_point(p, i);
            let d = dist_sq(pt, query);
            p.flop(3 * store.dim() as u64);
            p.instr(2);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "Brute"
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DynNode {
    point: u32,
    left: i32,
    right: i32,
}

/// Incrementally built (unbalanced) k-d tree.
#[derive(Debug)]
pub struct DynKdTree {
    nodes: Buffer<DynNode>,
    len: usize,
    root: i32,
}

impl DynKdTree {
    /// Allocates node storage for up to `capacity` points.
    pub fn new(machine: &mut Machine, capacity: usize) -> Self {
        DynKdTree {
            nodes: machine.buffer_from_vec(vec![DynNode::default(); capacity], MemPolicy::Normal),
            len: 0,
            root: -1,
        }
    }

    fn nearest_rec(
        &self,
        p: &mut Proc<'_>,
        store: &DynPointStore,
        query: &[f32],
        node: i32,
        depth: usize,
        best: &mut Option<(usize, f32)>,
    ) {
        if node < 0 {
            return;
        }
        let n = self.nodes.get_dep(p, PC_NODE, node as usize);
        let pt = store.load_point(p, n.point as usize);
        let d = dist_sq(pt, query);
        p.flop(3 * store.dim() as u64);
        p.instr(3);
        if best.is_none_or(|(_, bd)| d < bd) {
            *best = Some((n.point as usize, d));
        }
        let dim = depth % store.dim();
        let diff = query[dim] - pt[dim];
        let (near, far) = if diff < 0.0 {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.nearest_rec(p, store, query, near, depth + 1, best);
        if let Some((_, bd)) = *best {
            if diff * diff < bd {
                self.nearest_rec(p, store, query, far, depth + 1, best);
            }
        }
    }
}

impl DynNns for DynKdTree {
    fn insert(&mut self, p: &mut Proc<'_>, store: &DynPointStore, idx: usize) {
        assert!(self.len < self.nodes.len(), "tree capacity exhausted");
        let me = self.len as i32;
        self.nodes.set(
            p,
            PC_NODE,
            me as usize,
            DynNode {
                point: idx as u32,
                left: -1,
                right: -1,
            },
        );
        self.len += 1;
        if self.root < 0 {
            self.root = me;
            return;
        }
        // Walk down to a leaf slot: dependent loads all the way.
        let mut cur = self.root;
        let mut depth = 0;
        loop {
            let n = self.nodes.get_dep(p, PC_NODE, cur as usize);
            let cur_pt = store.load_point(p, n.point as usize);
            let dim = depth % store.dim();
            p.instr(3);
            let go_left = store.point(idx)[dim] < cur_pt[dim];
            let next = if go_left { n.left } else { n.right };
            if next < 0 {
                let mut updated = n;
                if go_left {
                    updated.left = me;
                } else {
                    updated.right = me;
                }
                self.nodes.set(p, PC_NODE, cur as usize, updated);
                return;
            }
            cur = next;
            depth += 1;
        }
    }

    fn nearest(&self, p: &mut Proc<'_>, store: &DynPointStore, query: &[f32]) -> Option<usize> {
        let mut best = None;
        self.nearest_rec(p, store, query, self.root, 0, &mut best);
        best.map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        "KdTree"
    }
}

/// Chunk size (points) of dynamic LSH bucket runs.
const CHUNK_POINTS: usize = 8;

/// LSH over a growing store, with chunked contiguous bucket storage.
#[derive(Debug)]
pub struct DynLsh {
    cfg: LshConfig,
    dim: usize,
    proj: Vec<f32>,
    /// Copied point data, laid out chunk-contiguously per bucket.
    chunk_data: Buffer<f32>,
    /// Original store index per chunk slot.
    chunk_ids: Buffer<u32>,
    /// Next free chunk slot.
    next_slot: usize,
    /// Bucket key → list of (start_slot, used) chunks.
    buckets: HashMap<Vec<i32>, Vec<(u32, u32)>>,
}

impl DynLsh {
    /// Allocates chunk storage for up to `capacity` points (rounded up by
    /// the chunking overhead).
    pub fn new(machine: &mut Machine, dim: usize, capacity: usize, cfg: LshConfig) -> Self {
        assert!(cfg.projections > 0, "need at least one projection");
        assert!(cfg.w > 0.0, "bucket width must be positive");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut proj = Vec::with_capacity(cfg.projections * dim);
        for _ in 0..cfg.projections * dim {
            let u1: f32 = rng.random_range(1e-6f32..1.0);
            let u2: f32 = rng.random_range(0.0f32..1.0);
            proj.push((-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos());
        }
        // Worst case every point opens its own chunk.
        let slots = capacity * 2 + CHUNK_POINTS;
        DynLsh {
            cfg,
            dim,
            proj,
            chunk_data: machine.buffer_from_vec(vec![0.0; slots * dim], MemPolicy::Normal),
            chunk_ids: machine.buffer_from_vec(vec![0; slots], MemPolicy::Normal),
            next_slot: 0,
            buckets: HashMap::new(),
        }
    }

    fn key_of(&self, p: &mut Proc<'_>, pt: &[f32], timed: bool) -> Vec<i32> {
        let mut key = Vec::with_capacity(self.cfg.projections);
        for k in 0..self.cfg.projections {
            if timed {
                if self.cfg.vectorized {
                    p.vec_compute(2 * self.dim as u64);
                    p.instr(2);
                } else {
                    p.flop(2 * self.dim as u64);
                    p.instr(self.dim as u64 + 2);
                }
            }
            let dot: f32 = self.proj[k * self.dim..(k + 1) * self.dim]
                .iter()
                .zip(pt.iter())
                .map(|(a, b)| a * b)
                .sum();
            key.push((dot / self.cfg.w).floor() as i32);
        }
        key
    }
}

impl DynNns for DynLsh {
    fn insert(&mut self, p: &mut Proc<'_>, store: &DynPointStore, idx: usize) {
        let key = self.key_of(p, store.point(idx), true);
        let dim = self.dim;
        let need_new_chunk = match self.buckets.get(&key) {
            Some(chunks) => chunks
                .last()
                .is_none_or(|&(_, used)| used as usize >= CHUNK_POINTS),
            None => true,
        };
        if need_new_chunk {
            assert!(
                (self.next_slot + CHUNK_POINTS) * dim <= self.chunk_data.len(),
                "chunk storage exhausted"
            );
            self.buckets
                .entry(key.clone())
                .or_default()
                .push((self.next_slot as u32, 0));
            self.next_slot += CHUNK_POINTS;
        }
        let chunks = self.buckets.get_mut(&key).expect("chunk just ensured");
        let (start, used) = *chunks.last().expect("non-empty");
        let slot = start as usize + used as usize;
        let point = store.point(idx).to_vec();
        for (d, &v) in point.iter().enumerate() {
            self.chunk_data.set(p, PC_CHUNK, slot * dim + d, v);
        }
        self.chunk_ids.set(p, PC_CHUNK, slot, idx as u32);
        p.instr(6); // hash-table update bookkeeping
        *chunks.last_mut().expect("non-empty") = (start, used + 1);
    }

    fn nearest(&self, p: &mut Proc<'_>, store: &DynPointStore, query: &[f32]) -> Option<usize> {
        if store.is_empty() {
            return None;
        }
        let key = self.key_of(p, query, true);
        let mut best: Option<(usize, f32)> = None;
        let scan = |p: &mut Proc<'_>, k: &[i32], best: &mut Option<(usize, f32)>| {
            p.instr(8); // table probe
            let Some(chunks) = self.buckets.get(k) else {
                return;
            };
            for &(start, used) in chunks {
                let (start, used) = (start as usize, used as usize);
                if used == 0 {
                    continue;
                }
                if self.cfg.vectorized {
                    let data = self
                        .chunk_data
                        .vget(p, PC_CHUNK, start * self.dim, used * self.dim);
                    p.vec_compute(3 * (used * self.dim) as u64);
                    p.instr(used.div_ceil(p.lanes()) as u64 + 1);
                    let ids = self.chunk_ids.vget(p, PC_CHUNK, start, used);
                    for (j, &id) in ids.iter().enumerate() {
                        let d = dist_sq(&data[j * self.dim..(j + 1) * self.dim], query);
                        if best.is_none_or(|(_, bd)| d < bd) {
                            *best = Some((id as usize, d));
                        }
                    }
                } else {
                    for j in 0..used {
                        let _ = self.chunk_data.get_run(p, PC_CHUNK, (start + j) * self.dim, self.dim, 0);
                        p.flop(3 * self.dim as u64);
                        p.instr(4);
                        let id = self.chunk_ids.get(p, PC_CHUNK, start + j);
                        let d = dist_sq(
                            &self.chunk_data.as_slice()
                                [(start + j) * self.dim..(start + j + 1) * self.dim],
                            query,
                        );
                        if best.is_none_or(|(_, bd)| d < bd) {
                            *best = Some((id as usize, d));
                        }
                    }
                }
            }
        };
        scan(p, &key, &mut best);
        let mut probed = 0;
        'outer: for k in 0..key.len() {
            for delta in [-1i32, 1] {
                if probed >= self.cfg.probes {
                    break 'outer;
                }
                let mut kk = key.clone();
                kk[k] += delta;
                scan(p, &kk, &mut best);
                probed += 1;
            }
        }
        if best.is_none() {
            // RRT needs *some* neighbor: exhaustive fallback.
            return DynBrute::new().nearest(p, store, query);
        }
        best.map(|(i, _)| i)
    }

    fn name(&self) -> &'static str {
        if self.cfg.vectorized {
            "VLN"
        } else {
            "FLANN"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tartan_sim::MachineConfig;

    fn grow_and_query(engine: &mut dyn DynNns, n: usize) -> (Vec<usize>, u64) {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut store = DynPointStore::new(&mut m, 3, n + 1);
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..3).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();
        let mut hits = Vec::new();
        m.run(|p| {
            for pt in &pts {
                let idx = store.push(p, pt);
                engine.insert(p, &store, idx);
            }
            for i in (0..n).step_by(7) {
                let q: Vec<f32> = pts[i].iter().map(|x| x + 0.01).collect();
                hits.push(engine.nearest(p, &store, &q).expect("non-empty"));
            }
        });
        (hits, m.wall_cycles())
    }

    #[test]
    fn kdtree_matches_brute_exactly() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut kd_machine = Machine::new(MachineConfig::upgraded_baseline());
        let mut kd = DynKdTree::new(&mut kd_machine, 512);
        let mut brute = DynBrute::new();
        let (b, _) = grow_and_query(&mut brute, 400);
        // Rebuild identically for the tree.
        let mut store = DynPointStore::new(&mut m, 3, 401);
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Vec<f32>> = (0..400)
            .map(|_| (0..3).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();
        let mut k_hits = Vec::new();
        kd_machine.run(|_p| {});
        m.run(|p| {
            for pt in &pts {
                let idx = store.push(p, pt);
                kd.insert(p, &store, idx);
            }
            for i in (0..400).step_by(7) {
                let q: Vec<f32> = pts[i].iter().map(|x| x + 0.01).collect();
                k_hits.push(kd.nearest(p, &store, &q).expect("non-empty"));
            }
        });
        assert_eq!(b, k_hits);
    }

    #[test]
    fn lsh_mostly_agrees_with_brute() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut lsh = DynLsh::new(&mut m, 3, 512, LshConfig::vln(0.8));
        let mut brute = DynBrute::new();
        let (b, _) = grow_and_query(&mut brute, 400);
        let (l, _) = {
            let mut store = DynPointStore::new(&mut m, 3, 401);
            let mut rng = StdRng::seed_from_u64(9);
            let pts: Vec<Vec<f32>> = (0..400)
                .map(|_| (0..3).map(|_| rng.random_range(-1.0f32..1.0)).collect())
                .collect();
            let mut hits = Vec::new();
            m.run(|p| {
                for pt in &pts {
                    let idx = store.push(p, pt);
                    lsh.insert(p, &store, idx);
                }
                for i in (0..400).step_by(7) {
                    let q: Vec<f32> = pts[i].iter().map(|x| x + 0.01).collect();
                    hits.push(lsh.nearest(p, &store, &q).expect("non-empty"));
                }
            });
            (hits, 0u64)
        };
        let agree = b.iter().zip(l.iter()).filter(|(x, y)| x == y).count();
        assert!(
            agree as f64 / b.len() as f64 > 0.85,
            "agreement {agree}/{}",
            b.len()
        );
    }

    #[test]
    fn vln_is_cheaper_than_brute_at_scale() {
        let mut m1 = Machine::new(MachineConfig::upgraded_baseline());
        let mut lsh = DynLsh::new(&mut m1, 3, 3000, LshConfig::vln(0.5));
        let mut brute = DynBrute::new();
        let (_, tb) = grow_and_query(&mut brute, 2500);
        // VLN timing on its own machine.
        let tl = {
            let mut store = DynPointStore::new(&mut m1, 3, 2501);
            let mut rng = StdRng::seed_from_u64(9);
            let pts: Vec<Vec<f32>> = (0..2500)
                .map(|_| (0..3).map(|_| rng.random_range(-1.0f32..1.0)).collect())
                .collect();
            m1.run(|p| {
                for pt in &pts {
                    let idx = store.push(p, pt);
                    lsh.insert(p, &store, idx);
                }
                for i in (0..2500).step_by(7) {
                    let q: Vec<f32> = pts[i].iter().map(|x| x + 0.01).collect();
                    lsh.nearest(p, &store, &q);
                }
            });
            m1.wall_cycles()
        };
        assert!(tl < tb, "VLN {tl} must beat brute {tb}");
    }

    #[test]
    fn empty_store_returns_none() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let store = DynPointStore::new(&mut m, 2, 4);
        let lsh = DynLsh::new(&mut m, 2, 4, LshConfig::vln(1.0));
        let hit = m.run(|p| lsh.nearest(p, &store, &[0.0, 0.0]));
        assert_eq!(hit, None);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn store_capacity_enforced() {
        let mut m = Machine::new(MachineConfig::upgraded_baseline());
        let mut store = DynPointStore::new(&mut m, 2, 1);
        m.run(|p| {
            store.push(p, &[0.0, 0.0]);
            store.push(p, &[1.0, 1.0]);
        });
    }
}
