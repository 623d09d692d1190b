//! Algorithm 2 — `GroupPageRank`, the per-group open-system solver.
//!
//! A page group (the pages owned by one page ranker) sees the world as in
//! Fig 2 of the paper:
//!
//! * **inner links** — both endpoints in the group: the local matrix `A`
//!   with `A[v][u] = α/d(u)`;
//! * **virtual links** — the uniform rank source `βE`;
//! * **afferent links** — rank `X` flowing in from other groups;
//! * **efferent links** — rank `Y = α·R(u)/d(u)` flowing out to other
//!   groups (see the crate-level note on the paper's formula 3.5 typo).
//!
//! `GroupPageRank(R0, X)` iterates `R ← A·R + βE + X` to its fixed point;
//! the column norm satisfies `‖A‖₁ ≤ α < 1` (the paper writes `‖A‖∞` for
//! its row-stochastic orientation; ours is transposed), so Theorems 3.1–3.3
//! guarantee convergence.

use std::collections::HashMap;

use dpr_graph::{PageId, WebGraph};
use dpr_linalg::pool::SharedSlice;
use dpr_linalg::{
    column_scale, Csr, CsrImplicit, FixedPointSolver, GaussSeidelSolver, Pool, SolveReport,
    SpMatVec,
};
use dpr_partition::{GroupId, Partition};

use crate::config::RankConfig;

/// Which in-memory layout a group's local matrix uses. The implicit-value
/// layout is the default everywhere: it streams ≤ 8 bytes per non-zero
/// instead of 12+ and is bit-identical to the explicit layout by
/// construction (see `dpr_linalg::CsrImplicit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixLayout {
    /// Implicit per-column values (`α/d(u)`), `u32` gather kernel.
    #[default]
    Implicit,
    /// Implicit values with the 4-wide unrolled accumulator. The unroll
    /// re-associates per-row sums, so results can differ from the other
    /// two layouts in the low bits — a documented opt-in.
    ImplicitUnrolled,
    /// Explicit per-entry `f64` values: the bit-identity reference the
    /// implicit layouts are tested against, and the `spmv` benchmark's
    /// bandwidth baseline.
    Explicit,
}

/// A group's local propagation matrix in its chosen layout. Both variants
/// hold the *same entries* — the explicit form is materialized from the
/// implicit one (`values[k] = scale[col_idx[k]]`) — so plain-kernel solves
/// are bit-identical across layouts.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupMatrix {
    /// Explicit-value CSR.
    Explicit(Csr),
    /// Implicit-value (bandwidth-lean) CSR.
    Implicit(CsrImplicit),
}

impl GroupMatrix {
    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.nnz(),
            GroupMatrix::Implicit(m) => m.nnz(),
        }
    }

    /// Heap bytes held by the matrix arrays.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.heap_bytes(),
            GroupMatrix::Implicit(m) => m.heap_bytes(),
        }
    }

    /// The layout tag this matrix was built with.
    #[must_use]
    pub fn layout(&self) -> MatrixLayout {
        match self {
            GroupMatrix::Explicit(_) => MatrixLayout::Explicit,
            GroupMatrix::Implicit(m) if m.is_unrolled() => MatrixLayout::ImplicitUnrolled,
            GroupMatrix::Implicit(_) => MatrixLayout::Implicit,
        }
    }
}

impl SpMatVec for GroupMatrix {
    fn n_rows(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.n_rows(),
            GroupMatrix::Implicit(m) => m.n_rows(),
        }
    }
    fn n_cols(&self) -> usize {
        match self {
            GroupMatrix::Explicit(m) => m.n_cols(),
            GroupMatrix::Implicit(m) => m.n_cols(),
        }
    }
    fn nnz(&self) -> usize {
        GroupMatrix::nnz(self)
    }
    fn mul_into(&self, x: &[f64], y: &mut [f64], ws: &mut Vec<f64>, pool: &Pool) {
        match self {
            GroupMatrix::Explicit(m) => m.mul_into(x, y, ws, pool),
            GroupMatrix::Implicit(m) => m.mul_into(x, y, ws, pool),
        }
    }
    fn contraction_norm(&self) -> f64 {
        match self {
            GroupMatrix::Explicit(m) => m.contraction_norm(),
            GroupMatrix::Implicit(m) => m.contraction_norm(),
        }
    }
    fn gs_row(&self, i: usize, init: f64, x: &[f64]) -> (f64, f64) {
        match self {
            GroupMatrix::Explicit(m) => m.gs_row(i, init, x),
            GroupMatrix::Implicit(m) => m.gs_row(i, init, x),
        }
    }
}

/// One efferent edge: `(local source index, α/d(source), global destination
/// page)`.
type EfferentEdge = (u32, f64, PageId);

/// Efferent edges from one group to a single destination group, sorted by
/// destination page so outgoing scores aggregate in one scan.
#[derive(Debug, Clone, PartialEq)]
struct EfferentBatch {
    dest: GroupId,
    edges: Vec<EfferentEdge>,
}

/// Everything one page ranker needs to run Algorithms 2–4 on its group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupContext {
    group_id: GroupId,
    /// Global ids of the pages in this group, sorted ascending; local index
    /// `i` refers to `pages[i]`.
    pages: Vec<PageId>,
    /// Local propagation matrix (inner links only), in the layout chosen
    /// at build time (implicit-value by default).
    a: GroupMatrix,
    /// `βE` restricted to this group's pages.
    beta_e: Vec<f64>,
    /// Outgoing rank routes, one batch per destination group.
    efferent: Vec<EfferentBatch>,
}

impl GroupContext {
    /// Builds the contexts of **all** groups of a partition in one pass over
    /// the graph (O(pages + links)), using the default bandwidth-lean
    /// [`MatrixLayout::Implicit`] local matrices.
    #[must_use]
    pub fn build_all(g: &WebGraph, partition: &Partition, cfg: &RankConfig) -> Vec<GroupContext> {
        Self::build_all_with_layout(g, partition, cfg, MatrixLayout::default())
    }

    /// [`GroupContext::build_all`] with an explicit choice of local-matrix
    /// layout.
    #[must_use]
    pub fn build_all_with_layout(
        g: &WebGraph,
        partition: &Partition,
        cfg: &RankConfig,
        layout: MatrixLayout,
    ) -> Vec<GroupContext> {
        cfg.validate(g.n_pages());
        assert_eq!(partition.n_pages(), g.n_pages());
        let k = partition.k();

        let group_pages = partition.group_pages();
        // Global page -> local index within its group.
        let mut local_of = vec![0u32; g.n_pages()];
        for pages in &group_pages {
            for (i, &p) in pages.iter().enumerate() {
                local_of[p as usize] = i as u32;
            }
        }

        // Inner links as local (row, col) = (dest, src) pairs; the entry
        // value is implicit (`α/d(src)`, a function of the column alone),
        // so nothing else needs collecting.
        let mut inner: Vec<Vec<(u32, u32)>> = vec![Vec::new(); k];
        let mut efferent_maps: Vec<HashMap<GroupId, Vec<EfferentEdge>>> = vec![HashMap::new(); k];

        for u in 0..g.n_pages() as u32 {
            let d = g.out_degree(u);
            if d == 0 {
                continue;
            }
            let w = cfg.alpha / f64::from(d);
            let gu = partition.group_of(u);
            let lu = local_of[u as usize];
            for &v in g.out_links(u) {
                let gv = partition.group_of(v);
                if gv == gu {
                    inner[gu as usize].push((local_of[v as usize], lu));
                } else {
                    efferent_maps[gu as usize].entry(gv).or_default().push((lu, w, v));
                }
            }
        }

        // Per-group assembly (CSR conversion, efferent-batch sorting) is
        // independent across groups, so it fans out over the shared worker
        // pool — one chunk per group, each output slot written exactly once,
        // so the result is identical to the sequential loop. Small builds
        // stay inline: the broadcast handoff would dominate.
        let pool = if g.n_pages() >= 1 << 14 && k > 1 {
            Pool::global().clone()
        } else {
            Pool::sequential()
        };
        let mut pages_in = group_pages;
        let mut out: Vec<Option<GroupContext>> = (0..k).map(|_| None).collect();
        {
            let pages_slots = SharedSlice::new(&mut pages_in);
            let eff_slots = SharedSlice::new(&mut efferent_maps);
            let out_slots = SharedSlice::new(&mut out);
            let inner = &inner;
            pool.for_each_chunk(k, |gid| {
                // SAFETY (all three): each `gid` is claimed by exactly one
                // chunk, so the slot accesses are disjoint.
                let pages = std::mem::take(unsafe { &mut pages_slots.slice_mut(gid, 1)[0] });
                let eff_map = unsafe { &mut eff_slots.slice_mut(gid, 1)[0] };
                let mut efferent: Vec<EfferentBatch> = eff_map
                    .drain()
                    .map(|(dest, mut edges)| {
                        edges.sort_unstable_by_key(|&(_, _, v)| v);
                        EfferentBatch { dest, edges }
                    })
                    .collect();
                efferent.sort_unstable_by_key(|b| b.dest);
                let a = Self::assemble_matrix(g, cfg, &pages, &inner[gid], layout);
                let ctx = GroupContext {
                    group_id: gid as GroupId,
                    beta_e: cfg.beta_e_for(&pages),
                    a,
                    pages,
                    efferent,
                };
                unsafe { out_slots.slice_mut(gid, 1)[0] = Some(ctx) };
            });
        }
        out.into_iter().map(|c| c.expect("every group built")).collect()
    }

    /// Assembles one group's local matrix from its inner-link pairs:
    /// counting-sort by destination row, per-row column sort, per-column
    /// scale `α/d(u)` (exactly `0.0` for dangling pages — see
    /// `dpr_linalg::column_scale`). Parallel inner links stay as separate
    /// entries in *every* layout — the explicit form is materialized from
    /// the implicit one — so layouts share identical entry structure and
    /// plain-kernel solves match bit for bit.
    fn assemble_matrix(
        g: &WebGraph,
        cfg: &RankConfig,
        pages: &[PageId],
        pairs: &[(u32, u32)],
        layout: MatrixLayout,
    ) -> GroupMatrix {
        let n = pages.len();
        let degrees: Vec<u32> = pages.iter().map(|&p| g.out_degree(p)).collect();
        let scale = column_scale(cfg.alpha, &degrees);
        let mut row_ptr = vec![0u64; n + 1];
        for &(lv, _) in pairs {
            row_ptr[lv as usize + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut cursor: Vec<u64> = row_ptr.clone();
        let mut col_idx = vec![0u32; pairs.len()];
        for &(lv, lu) in pairs {
            let slot = cursor[lv as usize] as usize;
            col_idx[slot] = lu;
            cursor[lv as usize] += 1;
        }
        for r in 0..n {
            col_idx[row_ptr[r] as usize..row_ptr[r + 1] as usize].sort_unstable();
        }
        let m = CsrImplicit::from_raw_parts(n, n, row_ptr, col_idx, scale);
        match layout {
            MatrixLayout::Implicit => GroupMatrix::Implicit(m),
            MatrixLayout::ImplicitUnrolled => GroupMatrix::Implicit(m.with_unrolled(true)),
            MatrixLayout::Explicit => GroupMatrix::Explicit(m.to_explicit()),
        }
    }

    /// Rebuilds **one** group's context against a mutated graph — the
    /// incremental-ranking path: a delta dirties a handful of groups, each
    /// of which re-derives its matrix, efferent routes, and `βE` from the
    /// new graph, while every untouched group keeps its existing context
    /// untouched. Cost is one pass over the group's own rows, independent
    /// of graph size.
    ///
    /// `pages` is the group's sorted page set in the new graph;
    /// `assignment` maps every page of `g` to its owning group. Building
    /// every group this way yields contexts identical to
    /// [`GroupContext::build_all_with_layout`]: pairs and efferent edges
    /// are collected in the same ascending-source order, so the assembled
    /// arrays — and therefore all solve bits — match exactly.
    ///
    /// # Panics
    /// If `pages` is not sorted-unique, contains a page outside `g` or not
    /// assigned to `gid`, or `assignment` does not cover `g`.
    #[must_use]
    pub fn rebuild(
        g: &WebGraph,
        assignment: &[GroupId],
        cfg: &RankConfig,
        gid: GroupId,
        pages: Vec<PageId>,
        layout: MatrixLayout,
    ) -> GroupContext {
        cfg.validate(g.n_pages());
        assert_eq!(assignment.len(), g.n_pages(), "assignment must cover the graph");
        assert!(pages.windows(2).all(|w| w[0] < w[1]), "pages must be sorted unique");
        let mut inner: Vec<(u32, u32)> = Vec::new();
        let mut eff_map: HashMap<GroupId, Vec<EfferentEdge>> = HashMap::new();
        for (lu, &u) in pages.iter().enumerate() {
            assert_eq!(assignment[u as usize], gid, "page {u} is not assigned to group {gid}");
            let d = g.out_degree(u);
            if d == 0 {
                continue;
            }
            let w = cfg.alpha / f64::from(d);
            let lu = lu as u32;
            for &v in g.out_links(u) {
                if assignment[v as usize] == gid {
                    let lv = pages.binary_search(&v).expect("inner destination owned") as u32;
                    inner.push((lv, lu));
                } else {
                    eff_map.entry(assignment[v as usize]).or_default().push((lu, w, v));
                }
            }
        }
        let mut efferent: Vec<EfferentBatch> = eff_map
            .into_iter()
            .map(|(dest, mut edges)| {
                edges.sort_unstable_by_key(|&(_, _, v)| v);
                EfferentBatch { dest, edges }
            })
            .collect();
        efferent.sort_unstable_by_key(|b| b.dest);
        let a = Self::assemble_matrix(g, cfg, &pages, &inner, layout);
        GroupContext { group_id: gid, beta_e: cfg.beta_e_for(&pages), a, pages, efferent }
    }

    /// Patches this context in place for a delta that changed out-degrees
    /// **without touching the group's link structure** (external-out-degree
    /// edits, including ones that leave a page dangling): recomputes the
    /// per-column `α/d(u)` factors — exactly `0.0` for a newly dangling
    /// page — and the efferent edge weights, reusing the matrix's entry
    /// structure and allocations. Bit-identical to a full
    /// [`GroupContext::rebuild`] whenever that structural precondition
    /// holds; the caller is responsible for checking it (netrun derives it
    /// from the delta report's ext-only page list).
    pub fn rescale_in_place(&mut self, g: &WebGraph, cfg: &RankConfig) {
        let degrees: Vec<u32> = self.pages.iter().map(|&p| g.out_degree(p)).collect();
        let scale = column_scale(cfg.alpha, &degrees);
        for batch in &mut self.efferent {
            for (lu, w, _) in &mut batch.edges {
                *w = cfg.alpha / f64::from(degrees[*lu as usize]);
            }
        }
        match &mut self.a {
            GroupMatrix::Implicit(m) => m.set_scale(scale),
            GroupMatrix::Explicit(m) => m.rescale_columns(&scale),
        }
    }

    /// The group's local propagation matrix.
    #[must_use]
    pub fn matrix(&self) -> &GroupMatrix {
        &self.a
    }

    /// This group's id.
    #[must_use]
    pub fn group_id(&self) -> GroupId {
        self.group_id
    }

    /// Number of pages owned by the group.
    #[must_use]
    pub fn n_local(&self) -> usize {
        self.pages.len()
    }

    /// The global page ids owned by the group (sorted).
    #[must_use]
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The groups this group sends rank to.
    pub fn efferent_groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.efferent.iter().map(|b| b.dest)
    }

    /// Whether at least one of this group's pages links into group `dest`
    /// (i.e. `dest` is among [`GroupContext::efferent_groups`]).
    #[must_use]
    pub fn links_to(&self, dest: GroupId) -> bool {
        self.efferent.binary_search_by_key(&dest, |b| b.dest).is_ok()
    }

    /// Maps a global page id to its local index, if owned by this group.
    #[must_use]
    pub fn local_index(&self, p: PageId) -> Option<usize> {
        self.pages.binary_search(&p).ok()
    }

    /// **Algorithm 2**: solves `R = A·R + βE + X` starting from the current
    /// contents of `r` (warm starts make DPR1's later outer loops cheap).
    ///
    /// # Panics
    /// If `r` or `x` have the wrong length.
    pub fn group_pagerank(
        &self,
        r: &mut Vec<f64>,
        x: &[f64],
        epsilon: f64,
        max_iters: usize,
    ) -> SolveReport {
        self.group_pagerank_pooled(r, x, epsilon, max_iters, &Pool::sequential())
    }

    /// [`GroupContext::group_pagerank`] with the solve's SpMV/reduction
    /// kernels routed through `pool`. Bit-identical to the sequential
    /// variant at every worker count (fixed chunk boundaries).
    pub fn group_pagerank_pooled(
        &self,
        r: &mut Vec<f64>,
        x: &[f64],
        epsilon: f64,
        max_iters: usize,
        pool: &Pool,
    ) -> SolveReport {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(x.len(), self.n_local());
        let f: Vec<f64> = self.beta_e.iter().zip(x).map(|(b, xi)| b + xi).collect();
        FixedPointSolver { tolerance: epsilon, max_iters, pool: pool.clone() }.solve(&self.a, &f, r)
    }

    /// `βE` restricted to this group's pages. Callers that keep a persistent
    /// `f = βE + X` buffer (netrun's allocation-hoisted think step) rebuild
    /// its rows from this slice.
    #[must_use]
    pub fn beta_e(&self) -> &[f64] {
        &self.beta_e
    }

    /// [`GroupContext::group_pagerank`] with a *prepared* right-hand side:
    /// the caller passes `f = βE + X` directly (maintained incrementally
    /// across think steps) plus reusable solve and multiply-workspace
    /// buffers, so the hot path allocates nothing. Bit-identical to the
    /// allocating variant for equal `f`.
    pub fn group_pagerank_prepared(
        &self,
        r: &mut Vec<f64>,
        f: &[f64],
        epsilon: f64,
        max_iters: usize,
        scratch: &mut Vec<f64>,
        ws: &mut Vec<f64>,
    ) -> SolveReport {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(f.len(), self.n_local());
        FixedPointSolver { tolerance: epsilon, max_iters, pool: Pool::sequential() }
            .solve_with_scratch(&self.a, f, r, scratch, ws)
    }

    /// [`GroupContext::group_pagerank_prepared`] with Gauss–Seidel inner
    /// sweeps instead of Jacobi: within the group the ranker owns every
    /// page, so within-sweep ordering is locally legal and typically halves
    /// the sweep count. The sweep updates `r` in place, sequentially (no
    /// pool) and allocation-free, so it is bit-identical across engine
    /// worker counts by construction.
    ///
    /// # Panics
    /// If dimensions are inconsistent.
    pub fn group_pagerank_gs_prepared(
        &self,
        r: &mut [f64],
        f: &[f64],
        epsilon: f64,
        max_iters: usize,
    ) -> SolveReport {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(f.len(), self.n_local());
        GaussSeidelSolver { tolerance: epsilon, max_iters }.solve(&self.a, f, r)
    }

    /// One Gauss–Seidel sweep `R ← sweep(A, f)` with a prepared
    /// `f = βE + X` (the DPR2 node body under `--inner-solver
    /// gauss-seidel`). Returns the sweep's L1 difference.
    pub fn step_gs_prepared(&self, r: &mut [f64], f: &[f64]) -> f64 {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(f.len(), self.n_local());
        GaussSeidelSolver::default().step(&self.a, f, r, 1)
    }

    /// One iteration `R ← A·R + βE + X` (the DPR2 node body). Returns the
    /// successive L1 difference.
    pub fn step(&self, r: &mut Vec<f64>, x: &[f64]) -> f64 {
        self.step_pooled(r, x, &Pool::sequential())
    }

    /// [`GroupContext::step`] on an explicit pool (same determinism
    /// contract as [`GroupContext::group_pagerank_pooled`]).
    pub fn step_pooled(&self, r: &mut Vec<f64>, x: &[f64], pool: &Pool) -> f64 {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(x.len(), self.n_local());
        let f: Vec<f64> = self.beta_e.iter().zip(x).map(|(b, xi)| b + xi).collect();
        FixedPointSolver::default().with_pool(pool.clone()).step(&self.a, &f, r, 1)
    }

    /// [`GroupContext::step`] with a prepared `f = βE + X` and reusable
    /// double/workspace buffers (the allocation-free DPR2 think step).
    pub fn step_prepared(
        &self,
        r: &mut Vec<f64>,
        f: &[f64],
        scratch: &mut Vec<f64>,
        ws: &mut Vec<f64>,
    ) -> f64 {
        assert_eq!(r.len(), self.n_local());
        assert_eq!(f.len(), self.n_local());
        FixedPointSolver::default().step_with_scratch(&self.a, f, r, 1, scratch, ws)
    }

    /// Computes the outgoing rank `Y` for every destination group:
    /// `Y(v) = Σ_{u→v efferent} α·R(u)/d(u)`, aggregated per destination
    /// page. Entries are `(global destination page, score)`.
    #[must_use]
    pub fn compute_y(&self, r: &[f64]) -> Vec<(GroupId, Vec<(PageId, f64)>)> {
        assert_eq!(r.len(), self.n_local());
        self.efferent
            .iter()
            .map(|batch| {
                let mut out: Vec<(PageId, f64)> = Vec::new();
                for &(lu, w, v) in &batch.edges {
                    let score = w * r[lu as usize];
                    match out.last_mut() {
                        Some((last_v, acc)) if *last_v == v => *acc += score,
                        _ => out.push((v, score)),
                    }
                }
                (batch.dest, out)
            })
            .collect()
    }

    /// Localizes an incoming `Y` payload (global page ids) into
    /// `(local index, score)` pairs; entries for pages this group does not
    /// own are ignored (stale traffic after a repartition).
    #[must_use]
    pub fn localize(&self, entries: &[(PageId, f64)]) -> Vec<(u32, f64)> {
        entries.iter().filter_map(|&(p, s)| self.local_index(p).map(|i| (i as u32, s))).collect()
    }
}

/// The afferent-rank bookkeeping every ranker needs: the latest localized
/// `Y` received from each source group, materialized on demand into the
/// dense `X` vector of Algorithm 2. A newer message from the same source
/// *replaces* the older one — `Y` is the sender's current outflow, not an
/// increment — which is what makes DPR1's sequences monotone under loss
/// (a dropped `Y` just leaves the previous, smaller one in place).
///
/// # Dirty-row caching
///
/// Besides the per-source payloads the state maintains a per-row inverted
/// index (`rows[li]` = the `(src, score)` contributions touching local page
/// `li`, sorted by source) plus a worklist of rows whose cached `x` entry is
/// stale. [`AfferentState::refresh`] then recomputes only the stale rows —
/// the common case between think steps is that a handful of sources
/// re-published, leaving most rows untouched. Each stale row is re-summed
/// *from scratch in ascending source order*, which is exactly the order a
/// full rebuild over `received` (a `BTreeMap`) adds contributions in, so
/// the cached `X` is bit-identical to a full rebuild at every refresh —
/// floating-point addition is not associative, and the engine promises
/// bit-identical runs per seed. `tests/ext_cache.rs` checks this against a
/// test-local full rebuild.
#[derive(Debug, Clone, Default)]
pub struct AfferentState {
    /// BTreeMap (not HashMap) so X materialization sums in a fixed order.
    received: std::collections::BTreeMap<GroupId, Vec<(u32, f64)>>,
    /// Per-row inverted index, sorted by source group.
    rows: Vec<Vec<(GroupId, f64)>>,
    /// Rows whose `x` entry is stale, deduplicated through `row_dirty`.
    dirty_rows: Vec<u32>,
    row_dirty: Vec<bool>,
    x: Vec<f64>,
    dirty: bool,
    rows_recomputed: u64,
}

impl AfferentState {
    /// State for a group with `n_local` pages (X starts at zero).
    #[must_use]
    pub fn new(n_local: usize) -> Self {
        Self {
            received: std::collections::BTreeMap::new(),
            rows: vec![Vec::new(); n_local],
            dirty_rows: Vec::new(),
            row_dirty: vec![false; n_local],
            x: vec![0.0; n_local],
            dirty: false,
            rows_recomputed: 0,
        }
    }

    /// Marks row `li` stale.
    #[inline]
    fn mark_row(row_dirty: &mut [bool], dirty_rows: &mut Vec<u32>, li: u32) {
        if !row_dirty[li as usize] {
            row_dirty[li as usize] = true;
            dirty_rows.push(li);
        }
    }

    /// Upserts `src`'s contribution to row `li` in the inverted index.
    #[inline]
    fn index_row(row: &mut Vec<(GroupId, f64)>, src: GroupId, s: f64) {
        match row.binary_search_by_key(&src, |&(g, _)| g) {
            Ok(pos) => row[pos].1 = s,
            Err(pos) => row.insert(pos, (src, s)),
        }
    }

    /// Bitwise equality on localized `Y` payloads. `==` on `f64` would
    /// conflate `0.0`/`-0.0` and reject equal NaNs; the caching contract is
    /// about *bits*, so compare bits.
    #[inline]
    fn entries_bits_equal(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
    }

    /// Returns whether a localized `Y` stream from `src` is bit-identical
    /// to the contribution already stored, i.e. whether [`AfferentState::set`]
    /// would take its steady-state short-circuit. Receivers use this to
    /// skip materializing the localized payload at all once ranks stall —
    /// the stream is compared entry-by-entry against the stored slice
    /// without allocating.
    pub fn bits_match(&self, src: GroupId, entries: impl Iterator<Item = (u32, f64)>) -> bool {
        let Some(old) = self.received.get(&src) else {
            return false;
        };
        let mut matched = 0usize;
        for (li, s) in entries {
            match old.get(matched) {
                Some(&(oli, os)) if oli == li && os.to_bits() == s.to_bits() => matched += 1,
                _ => return false,
            }
        }
        matched == old.len()
    }

    /// Records the latest `Y` from `src` (already localized); replaces any
    /// previous contribution from the same source. Entries must be sorted
    /// by strictly increasing local index (what
    /// [`GroupContext::localize`] produces).
    pub fn set(&mut self, src: GroupId, entries: Vec<(u32, f64)>) {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "Y entries must be sorted by unique local index"
        );
        // Steady-state short-circuit: a re-publication whose payload is
        // bit-identical to what this source already contributed changes
        // nothing — replacing it, re-indexing it, and re-summing its rows
        // would all reproduce the exact same bits. Converged senders keep
        // publishing (the wire protocol never goes quiet), so this is the
        // hot path once ranks stall.
        if let Some(old) = self.received.get_mut(&src) {
            if Self::entries_bits_equal(old, &entries) {
                return;
            }
            // Same rows, new values — the common case, since a source's
            // page set into this group only changes at a crawl delta.
            // Overwrite the index entries in place; the rows still all go
            // stale, exactly as under retract-and-insert.
            if old.len() == entries.len() && old.iter().zip(&entries).all(|(a, b)| a.0 == b.0) {
                self.dirty = true;
                for &(li, s) in &entries {
                    Self::index_row(&mut self.rows[li as usize], src, s);
                    Self::mark_row(&mut self.row_dirty, &mut self.dirty_rows, li);
                }
                *old = entries;
                return;
            }
        }
        let old = self.received.insert(src, entries);
        self.dirty = true;
        // Retract the superseded contribution: rows it touched go stale and
        // lose their index entry (re-added below if the new Y touches them
        // too).
        if let Some(old) = old {
            for &(li, _) in &old {
                let row = &mut self.rows[li as usize];
                if let Ok(pos) = row.binary_search_by_key(&src, |&(g, _)| g) {
                    row.remove(pos);
                }
                Self::mark_row(&mut self.row_dirty, &mut self.dirty_rows, li);
            }
        }
        for &(li, s) in &self.received[&src] {
            Self::index_row(&mut self.rows[li as usize], src, s);
            Self::mark_row(&mut self.row_dirty, &mut self.dirty_rows, li);
        }
    }

    /// Forgets `src`'s contribution entirely, as if it had never been
    /// received: its rows go stale and re-sum without it on the next
    /// refresh. For a source that no longer links into this group at all —
    /// it will never publish here again, so nothing would ever replace its
    /// last `Y`. Returns whether `src` had contributed anything.
    pub fn retract(&mut self, src: GroupId) -> bool {
        if !self.received.contains_key(&src) {
            return false;
        }
        self.set(src, Vec::new());
        self.received.remove(&src);
        true
    }

    /// Upserts individual entries from `src` without discarding entries the
    /// sender chose not to re-send — the receive side of *thresholded* `Y`
    /// publication (the §4.5/§7 communication-reduction future work): a
    /// sender may suppress entries that barely changed, so absence means
    /// "unchanged", not "zero".
    pub fn merge(&mut self, src: GroupId, entries: &[(u32, f64)]) {
        if entries.is_empty() {
            return;
        }
        let stored = self.received.entry(src).or_default();
        for &(li, s) in entries {
            match stored.binary_search_by_key(&li, |&(i, _)| i) {
                // Bit-identical upsert: nothing to re-index or re-sum.
                Ok(pos) if stored[pos].1.to_bits() == s.to_bits() => continue,
                Ok(pos) => stored[pos].1 = s,
                Err(pos) => stored.insert(pos, (li, s)),
            }
            self.dirty = true;
            Self::index_row(&mut self.rows[li as usize], src, s);
            Self::mark_row(&mut self.row_dirty, &mut self.dirty_rows, li);
        }
    }

    /// Materializes and returns `X` ("Xi+1 = Refresh X" in Algorithms 3/4).
    pub fn refresh(&mut self) -> &[f64] {
        self.refresh_tracked(None);
        &self.x
    }

    /// [`AfferentState::refresh`], appending the indices of every row whose
    /// `x` entry was recomputed to `touched`. Callers maintaining derived per-row state — netrun's
    /// persistent `f = βE + X` buffer — use the worklist to update exactly
    /// the rows that may have changed.
    pub fn refresh_tracked(&mut self, touched: Option<&mut Vec<u32>>) {
        if !self.dirty {
            return;
        }
        for &li in &self.dirty_rows {
            self.row_dirty[li as usize] = false;
            // From-scratch re-sum in ascending source order: the same
            // additions, in the same order, as summing every received
            // payload into a zeroed `X`.
            let mut sum = 0.0;
            for &(_, s) in &self.rows[li as usize] {
                sum += s;
            }
            self.x[li as usize] = sum;
        }
        self.rows_recomputed += self.dirty_rows.len() as u64;
        if let Some(t) = touched {
            t.extend_from_slice(&self.dirty_rows);
        }
        self.dirty_rows.clear();
        self.dirty = false;
    }

    /// Whether some row of `X` is stale, i.e. the next refresh would
    /// recompute at least one row.
    #[must_use]
    pub fn has_stale_rows(&self) -> bool {
        !self.dirty_rows.is_empty()
    }

    /// The current `X` without refreshing (test/inspection use).
    #[must_use]
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Number of source groups heard from so far.
    #[must_use]
    pub fn n_sources(&self) -> usize {
        self.received.len()
    }

    /// Copies out the per-source contributions, in ascending source order —
    /// the checkpoint payload the replication protocol ships. Replaying the
    /// snapshot through [`AfferentState::set`] in this order reproduces `X`
    /// bit-identically on a fresh instance: `received` is a `BTreeMap`, so
    /// both the original and the restored state sum rows in the same
    /// ascending source order.
    #[must_use]
    pub fn snapshot_received(&self) -> Vec<(GroupId, Vec<(u32, f64)>)> {
        self.received.iter().map(|(&g, v)| (g, v.clone())).collect()
    }

    /// Total rows recomputed across all refreshes — the work the dirty-row
    /// cache keeps proportional to what actually changed.
    #[must_use]
    pub fn rows_recomputed(&self) -> u64 {
        self.rows_recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_graph::generators::toy;
    use dpr_partition::Strategy;

    #[test]
    fn afferent_state_replaces_per_source() {
        let mut st = AfferentState::new(3);
        st.set(0, vec![(0, 1.0), (2, 2.0)]);
        st.set(1, vec![(0, 0.5)]);
        assert_eq!(st.refresh(), &[1.5, 0.0, 2.0]);
        // A newer Y from source 0 replaces, not accumulates.
        st.set(0, vec![(0, 3.0)]);
        assert_eq!(st.refresh(), &[3.5, 0.0, 0.0]);
        assert_eq!(st.n_sources(), 2);
    }

    #[test]
    fn afferent_state_merge_upserts() {
        let mut st = AfferentState::new(4);
        st.merge(0, &[(0, 1.0), (2, 2.0)]);
        assert_eq!(st.refresh(), &[1.0, 0.0, 2.0, 0.0]);
        // Partial update: entry 2 unchanged and unsent, entry 0 grows,
        // entry 3 appears.
        st.merge(0, &[(0, 1.5), (3, 0.5)]);
        assert_eq!(st.refresh(), &[1.5, 0.0, 2.0, 0.5]);
        // merge on a fresh source behaves like set.
        st.merge(7, &[(1, 4.0)]);
        assert_eq!(st.refresh(), &[1.5, 4.0, 2.0, 0.5]);
    }

    #[test]
    fn afferent_state_refresh_is_idempotent() {
        let mut st = AfferentState::new(2);
        st.set(5, vec![(1, 4.0)]);
        assert_eq!(st.refresh(), &[0.0, 4.0]);
        assert_eq!(st.refresh(), &[0.0, 4.0]);
    }

    #[test]
    fn afferent_snapshot_replays_bit_identically() {
        // The checkpoint/restore contract the takeover protocol relies on:
        // replaying a snapshot through `set` on a fresh instance rebuilds
        // the exact bits of `X`.
        let mut st = AfferentState::new(5);
        st.set(3, vec![(0, 0.125), (4, 1.0 / 3.0)]);
        st.set(0, vec![(0, 0.7), (2, 1e-9)]);
        st.merge(3, &[(1, 0.2)]);
        st.set(9, vec![(3, 0.55)]);
        let x_before: Vec<u64> = st.refresh().iter().map(|v| v.to_bits()).collect();
        let snap = st.snapshot_received();
        assert_eq!(snap.len(), 3);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "ascending source order");
        let mut fresh = AfferentState::new(5);
        for (src, entries) in &snap {
            fresh.set(*src, entries.clone());
        }
        let x_after: Vec<u64> = fresh.refresh().iter().map(|v| v.to_bits()).collect();
        assert_eq!(x_before, x_after);
    }

    fn split_cycle() -> (WebGraph, Vec<GroupContext>) {
        // Cycle of 6 split into two groups of alternating pages: every link
        // crosses groups.
        let g = toy::cycle(6);
        let assignment = (0..6u32).map(|p| p % 2).collect();
        let partition = Partition::from_assignment(2, assignment);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        (g, ctxs)
    }

    #[test]
    fn build_all_structure() {
        let (_, ctxs) = split_cycle();
        assert_eq!(ctxs.len(), 2);
        assert_eq!(ctxs[0].pages(), &[0, 2, 4]);
        assert_eq!(ctxs[1].pages(), &[1, 3, 5]);
        // Alternating cycle: no inner links at all.
        assert_eq!(ctxs[0].a.nnz(), 0);
        assert_eq!(ctxs[0].efferent_groups().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn matrix_layouts_solve_bit_identically() {
        // Implicit (default) and explicit layouts hold the same entries, so
        // a GroupPageRank solve must produce the same rank bits; the
        // unrolled opt-in re-associates sums and only matches within
        // round-off.
        let g = toy::complete(10);
        let assignment = (0..10u32).map(|p| p % 2).collect();
        let partition = Partition::from_assignment(2, assignment);
        let cfg = RankConfig::default();
        let build = |layout| GroupContext::build_all_with_layout(&g, &partition, &cfg, layout);
        let implicit = build(MatrixLayout::Implicit);
        let explicit = build(MatrixLayout::Explicit);
        let unrolled = build(MatrixLayout::ImplicitUnrolled);
        assert!(matches!(implicit[0].matrix(), GroupMatrix::Implicit(_)));
        assert!(matches!(explicit[0].matrix(), GroupMatrix::Explicit(_)));
        assert_eq!(implicit[0].matrix().nnz(), explicit[0].matrix().nnz());
        assert!(implicit[0].matrix().heap_bytes() < explicit[0].matrix().heap_bytes());
        let x = vec![0.01; implicit[0].n_local()];
        let solve = |ctxs: &[GroupContext]| {
            let mut r = vec![0.0; ctxs[0].n_local()];
            let report = ctxs[0].group_pagerank(&mut r, &x, 1e-12, 1000);
            assert!(report.converged);
            r
        };
        let r_i = solve(&implicit);
        let r_e = solve(&explicit);
        let r_u = solve(&unrolled);
        assert!(r_i.iter().zip(&r_e).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(r_i.iter().zip(&r_u).all(|(a, b)| (a - b).abs() < 1e-12));
    }

    #[test]
    fn compute_y_carries_alpha_fraction() {
        let (_, ctxs) = split_cycle();
        let r = vec![1.0, 1.0, 1.0];
        let ys = ctxs[0].compute_y(&r);
        assert_eq!(ys.len(), 1);
        let (dest, entries) = &ys[0];
        assert_eq!(*dest, 1);
        // Pages 0,2,4 each send α·1/1 to pages 1,3,5.
        assert_eq!(entries.len(), 3);
        for (_, s) in entries {
            assert!((s - 0.85).abs() < 1e-12);
        }
    }

    #[test]
    fn y_aggregates_parallel_edges_to_same_dest() {
        // Two pages in group 0 both link to the same page in group 1.
        let mut b = dpr_graph::GraphBuilder::new();
        let s = b.add_site("a.edu");
        let p0 = b.add_page(s);
        let p1 = b.add_page(s);
        let p2 = b.add_page(s);
        b.add_link(p0, p2);
        b.add_link(p1, p2);
        let g = b.build();
        let partition = Partition::from_assignment(2, vec![0, 0, 1]);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        let ys = ctxs[0].compute_y(&[2.0, 4.0]);
        assert_eq!(ys[0].1, vec![(p2, 0.85 * 2.0 + 0.85 * 4.0)]);
    }

    #[test]
    fn group_pagerank_matches_global_fixed_point_via_exchange() {
        // Alternate GroupPageRank and Y-exchange by hand until the stacked
        // vector matches the centralized open-system solution.
        let (g, ctxs) = split_cycle();
        let cfg = RankConfig::default();
        let star = crate::centralized::open_pagerank(&g, &cfg);

        let mut r: Vec<Vec<f64>> = ctxs.iter().map(|c| vec![0.0; c.n_local()]).collect();
        let mut x: Vec<Vec<f64>> = r.clone();
        for _ in 0..200 {
            for (i, c) in ctxs.iter().enumerate() {
                let report = c.group_pagerank(&mut r[i], &x[i], 1e-12, 1000);
                assert!(report.converged);
            }
            // Exchange Y.
            let mut new_x: Vec<Vec<f64>> = ctxs.iter().map(|c| vec![0.0; c.n_local()]).collect();
            for (i, c) in ctxs.iter().enumerate() {
                for (dest, entries) in c.compute_y(&r[i]) {
                    let dc = &ctxs[dest as usize];
                    for (li, s) in dc.localize(&entries) {
                        new_x[dest as usize][li as usize] += s;
                    }
                }
            }
            x = new_x;
        }
        let mut global = vec![0.0; g.n_pages()];
        for (i, c) in ctxs.iter().enumerate() {
            for (li, &p) in c.pages().iter().enumerate() {
                global[p as usize] = r[i][li];
            }
        }
        let err = dpr_linalg::vec_ops::relative_error(&global, &star.ranks);
        assert!(err < 1e-8, "relative error {err}");
    }

    #[test]
    fn localize_ignores_foreign_pages() {
        let (_, ctxs) = split_cycle();
        let local = ctxs[0].localize(&[(0, 1.0), (1, 2.0), (4, 3.0)]);
        assert_eq!(local, vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn single_group_has_no_efferent_traffic() {
        let g = toy::complete(5);
        let partition = Partition::build(&g, &Strategy::HashBySite, 1, 0);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].efferent_groups().count(), 0);
        // And GroupPageRank alone reproduces CPR.
        let mut r = vec![0.0; 5];
        let x = vec![0.0; 5];
        ctxs[0].group_pagerank(&mut r, &x, 1e-12, 1000);
        // The reference is itself only converged to ~1e-8 (its epsilon), so
        // compare with matching slack.
        let star = crate::centralized::open_pagerank(&g, &RankConfig::default());
        assert!(dpr_linalg::vec_ops::relative_error(&r, &star.ranks) < 1e-7);
    }

    #[test]
    fn rebuild_per_group_matches_build_all() {
        // The incremental path's correctness anchor: rebuilding any single
        // group against the same graph reproduces the batch-built context
        // exactly (same arrays, same bits), in every layout.
        let g = dpr_graph::generators::random::erdos_renyi(200, 5, 4.0, 3);
        let partition = Partition::build(&g, &Strategy::HashBySite, 4, 0);
        let cfg = RankConfig::default();
        for layout in
            [MatrixLayout::Implicit, MatrixLayout::Explicit, MatrixLayout::ImplicitUnrolled]
        {
            let all = GroupContext::build_all_with_layout(&g, &partition, &cfg, layout);
            for ctx in &all {
                let rebuilt = GroupContext::rebuild(
                    &g,
                    partition.assignment(),
                    &cfg,
                    ctx.group_id(),
                    ctx.pages().to_vec(),
                    layout,
                );
                assert_eq!(&rebuilt, ctx);
                assert_eq!(rebuilt.matrix().layout(), layout);
            }
        }
    }

    #[test]
    fn rescale_in_place_matches_rebuild_for_ext_only_delta() {
        use dpr_graph::{DeltaOp, GraphDelta};
        // p0→p1→p2→p0 plus external-only pages; the delta dangles p3
        // (ext 4 → 0) and grows p5's external degree. No internal row
        // changes, so every dirty group qualifies for the in-place rescale.
        let mut b = dpr_graph::GraphBuilder::new();
        let s = b.add_site("a.edu");
        let pages: Vec<u32> = (0..6).map(|_| b.add_page(s)).collect();
        b.add_link(pages[0], pages[1]);
        b.add_link(pages[1], pages[2]);
        b.add_link(pages[2], pages[0]);
        b.add_link(pages[5], pages[0]);
        b.add_external_links(pages[3], 4);
        b.add_external_links(pages[4], 1);
        b.add_external_links(pages[5], 2);
        let g = b.build();
        let delta = GraphDelta::new(vec![
            DeltaOp::SetExternal { page: pages[3], ext_out: 0 },
            DeltaOp::SetExternal { page: pages[5], ext_out: 7 },
        ]);
        let (g2, report) = delta.apply_report(&g);
        assert_eq!(report.ext_only_pages, vec![pages[3], pages[5]]);
        assert_eq!(report.touched_pages, report.ext_only_pages);

        let assignment = vec![0u32, 0, 1, 1, 0, 1];
        let partition = Partition::from_assignment(2, assignment.clone());
        let cfg = RankConfig::default();
        for layout in
            [MatrixLayout::Implicit, MatrixLayout::Explicit, MatrixLayout::ImplicitUnrolled]
        {
            let old = GroupContext::build_all_with_layout(&g, &partition, &cfg, layout);
            for ctx in &old {
                let mut patched = ctx.clone();
                patched.rescale_in_place(&g2, &cfg);
                let rebuilt = GroupContext::rebuild(
                    &g2,
                    &assignment,
                    &cfg,
                    ctx.group_id(),
                    ctx.pages().to_vec(),
                    layout,
                );
                assert_eq!(patched, rebuilt, "layout {layout:?} group {}", ctx.group_id());
            }
        }
        // The dangled page's column scale is exactly 0.0, not a residue.
        let patched = {
            let mut c = GroupContext::build_all(&g, &partition, &cfg)
                .into_iter()
                .find(|c| c.local_index(pages[3]).is_some())
                .unwrap();
            c.rescale_in_place(&g2, &cfg);
            c
        };
        let li = patched.local_index(pages[3]).unwrap();
        match patched.matrix() {
            GroupMatrix::Implicit(m) => {
                assert_eq!(m.scale()[li].to_bits(), 0.0f64.to_bits());
            }
            GroupMatrix::Explicit(_) => unreachable!("default layout is implicit"),
        }
    }

    #[test]
    fn empty_group_is_harmless() {
        let g = toy::cycle(4);
        // Group 2 owns nothing.
        let partition = Partition::from_assignment(3, vec![0, 0, 1, 1]);
        let ctxs = GroupContext::build_all(&g, &partition, &RankConfig::default());
        assert_eq!(ctxs[2].n_local(), 0);
        let mut r = vec![];
        let report = ctxs[2].group_pagerank(&mut r, &[], 1e-9, 10);
        assert!(report.converged);
        assert!(ctxs[2].compute_y(&r).is_empty());
    }

    proptest::proptest! {
        /// Satellite contract: a re-crawl deletion that leaves some linker
        /// with no surviving out-links must give that page a column scale
        /// of **exactly** `0.0` in its group matrix — the same dangling
        /// contract the static build pins — never a phantom `α/d` from the
        /// pre-deletion degree.
        #[test]
        fn deletion_dangled_pages_get_exact_zero_column_scale(
            n in 2usize..40,
            sites in 1usize..4,
            deg in 1.0f64..5.0,
            change in 0.0f64..1.0,
            delete in 0.05f64..0.6,
            seed in 0u64..300,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq, prop_assume};
            let g = dpr_graph::generators::random::erdos_renyi(n, sites, deg, seed);
            let (g2, report) =
                dpr_graph::refresh::recrawl_with_deletions(&g, change, 0.1, delete, seed ^ 1);
            prop_assume!(!report.deleted_pages.is_empty());
            let partition = Partition::build(&g2, &Strategy::HashBySite, 3, 0);
            let ctxs = GroupContext::build_all(&g2, &partition, &RankConfig::default());
            for ctx in &ctxs {
                let GroupMatrix::Implicit(m) = ctx.matrix() else {
                    unreachable!("default layout is implicit")
                };
                for (li, &p) in ctx.pages().iter().enumerate() {
                    if g2.out_degree(p) == 0 {
                        prop_assert_eq!(
                            m.scale()[li].to_bits(),
                            0.0f64.to_bits(),
                            "dangling page {} must scale to exactly 0.0",
                            p
                        );
                    } else {
                        prop_assert!(m.scale()[li] > 0.0);
                    }
                }
            }
        }
    }
}
