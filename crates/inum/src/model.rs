//! The INUM cached cost model (Papadomanolakis, Dash, Ailamaki, VLDB'07;
//! paper §3.4).
//!
//! INUM exploits the fact that an optimal plan's *internal* nodes (joins,
//! sorts, aggregation) do not change when only the access paths under them
//! change, as long as the inputs keep the same interesting orders. So:
//!
//! 1. For each query, cache one optimal internal plan per combination of
//!    per-relation interesting orders × nested-loop on/off (the what-if
//!    join component's two scenarios).
//! 2. To cost a configuration, pick for each relation the cheapest access
//!    path the configuration offers (computed once per candidate and
//!    memoized), add the cached internal cost, and take the minimum over
//!    the cached cases.
//!
//! This turns "millions of query cost estimations" into table lookups plus
//! a few additions — "in the order of minutes instead of days".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use parinda_catalog::{Catalog, Index, IndexId, MetadataProvider};
use parinda_optimizer::cost::sort_cost;
use parinda_optimizer::planner::{base_rel_rows, base_scan_paths};
use parinda_optimizer::{
    bind, plan_query, BoundQuery, CostParams, PlanKind, PlanNode, PlannerFlags,
};
use parinda_parallel::{par_try_map_budgeted_traced, Budget, Parallelism};
use parinda_sql::Select;
use parinda_trace::{Counter, Trace};
use parinda_whatif::{HypotheticalCatalog, JoinScenario};

use crate::config::{CandId, CandidateIndex, Configuration};
use crate::shared::{PlanKey, SharedPlanCache};

/// Maximum interesting-order combinations cached per query.
const MAX_CASES_PER_QUERY: usize = 24;

/// Cache-construction options, exposed for the ablation experiments:
/// how rich is the cached internal-plan set?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InumOptions {
    /// Cap on interesting-order combinations per query (1 = only the
    /// unordered case, i.e. no interesting-order modelling).
    pub max_cases_per_query: usize,
    /// Cache the nested-loop on/off *pair* per case (paper §3.2's what-if
    /// join component). `false` = only the default-flags plan.
    pub join_scenario_pairs: bool,
}

impl Default for InumOptions {
    fn default() -> Self {
        InumOptions { max_cases_per_query: MAX_CASES_PER_QUERY, join_scenario_pairs: true }
    }
}

/// One access requirement of a cached internal plan.
#[derive(Debug, Clone, PartialEq)]
struct RelAccess {
    rel: usize,
    /// How many times the scan executes (parameterized NL inner: outer rows).
    multiplier: f64,
    /// Column (table coords) the scan's output must be ordered on.
    required_order: Option<usize>,
    /// `Some(col)`: the scan must be an index probe on `col` (only under a
    /// parameterized nested loop).
    param_probe: Option<usize>,
}

/// A cached internal plan for one (orders, join-scenario) case.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CachedCase {
    internal_cost: f64,
    accesses: Vec<RelAccess>,
}

/// Memo key/value store: (query, rel, candidate) → access cost
/// (`None` candidate = sequential scan; `None` value = not applicable).
/// Guarded by a mutex so concurrent what-if sweeps can share it; entries
/// are pure functions of the key, so racing writers insert equal values
/// and the cache stays deterministic under any interleaving.
type AccessMemo = Mutex<HashMap<(usize, usize, Option<usize>), Option<AccessCost>>>;

/// Per-(query, rel, candidate) memoized access-path cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AccessCost {
    /// Total cost of one scan execution.
    cost: f64,
    /// Leading key column of the path (order it provides), if an index.
    order_col: Option<usize>,
}

/// The INUM model over a workload.
pub struct InumModel<'a> {
    catalog: &'a Catalog,
    params: CostParams,
    options: InumOptions,
    par: Parallelism,
    queries: Vec<BoundQuery>,
    /// Canonical SQL text per query, parallel to `queries`. This is the
    /// identity [`apply_delta`] matches templates by when an epoch
    /// advances: unchanged text ⇒ the bound query, its cached cases, and
    /// its memo entries all carry over.
    ///
    /// [`apply_delta`]: InumModel::apply_delta
    sql: Vec<String>,
    /// Per-query workload weights (statement multiplicities from template
    /// clustering; 1.0 for a plain workload). Weights scale
    /// [`workload_cost`] and steer budgeted cache population toward the
    /// heaviest templates first — they never change a single query's cost.
    ///
    /// [`workload_cost`]: InumModel::workload_cost
    weights: Vec<f64>,
    /// Cached internal-plan cases per query; `None` when a build budget
    /// expired before this query's cache was populated — [`cost`] then
    /// falls back to a live optimizer call ([`exact_cost`]). Case lists
    /// are `Arc`'d so an engine-wide [`SharedPlanCache`] can hand the
    /// same list to many models without copying.
    ///
    /// [`cost`]: InumModel::cost
    /// [`exact_cost`]: InumModel::exact_cost
    cases: Vec<Option<Arc<Vec<CachedCase>>>>,
    candidates: Vec<CandidateIndex>,
    access_memo: AccessMemo,
    /// memo: (query, rel, candidate) -> parameterized probe cost
    probe_memo: Mutex<HashMap<(usize, usize, usize), Option<f64>>>,
    estimations: AtomicU64,
    full_optimizations: AtomicU64,
    /// Observability handle (disabled by default): cache hits/misses and
    /// optimizer invocations are counted here; build phases record spans.
    /// Tracing never feeds back into any cost or ordering decision.
    trace: Trace,
}

/// Errors building the model.
#[derive(Debug, Clone, PartialEq)]
pub enum InumError {
    Bind(usize, String),
    Plan(usize, String),
    /// A cache-population worker panicked; the panic was contained at the
    /// parallel boundary and surfaces here (deterministic at any thread
    /// count: the lowest-index failure is reported).
    Worker(String),
}

impl std::fmt::Display for InumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InumError::Bind(q, e) => write!(f, "query {q}: bind failed: {e}"),
            InumError::Plan(q, e) => write!(f, "query {q}: planning failed: {e}"),
            InumError::Worker(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for InumError {}

/// What one [`InumModel::apply_delta`] reused versus rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// Templates whose bound query and cached cases carried over.
    pub reused: usize,
    /// Templates bound and/or populated from scratch (new arrivals plus
    /// any the original build's budget had skipped).
    pub rebuilt: usize,
    /// Old templates dropped, with their memo entries, because they no
    /// longer appear in the workload.
    pub evicted: usize,
}

impl<'a> InumModel<'a> {
    /// Build the model with unit weights, default options, auto-detected
    /// parallelism, no budget and no trace: bind every query and populate
    /// the internal-plan cache (the expensive, once-per-workload step).
    pub fn build(
        catalog: &'a Catalog,
        workload: &[Select],
        params: CostParams,
    ) -> Result<Self, InumError> {
        Self::build_weighted_traced(
            catalog,
            workload,
            &vec![1.0; workload.len()],
            params,
            InumOptions::default(),
            Parallelism::auto(),
            &Budget::unlimited(),
            Trace::disabled(),
        )
    }

    /// Fully explicit build. Each query carries a statement multiplicity
    /// (1.0 for a plain workload): [`workload_cost`] is the weighted sum,
    /// and cache population runs in weight-descending order (stable on
    /// index, so uniform weights keep input order). `options` set how
    /// rich the cached plan set is; `par` fans the independent per-query
    /// plan enumerations out over the pool (identical results at any
    /// thread count).
    ///
    /// Under a limited [`Budget`] cache population stops at the budget
    /// boundary and the queries whose caches were not built are marked
    /// degraded — [`cost`] serves them with live optimizer calls instead
    /// of failing. A round cap bounds the number of query caches
    /// populated (deterministic at any thread count, and landing on the
    /// heaviest templates first); a deadline/cancel stops between
    /// queries. The bind and cache-population sweeps record
    /// `inum_build/*` spans, and the model keeps `trace` to count cache
    /// hits/misses and optimizer invocations for the rest of its life.
    ///
    /// [`workload_cost`]: InumModel::workload_cost
    /// [`cost`]: InumModel::cost
    #[allow(clippy::too_many_arguments)]
    pub fn build_weighted_traced(
        catalog: &'a Catalog,
        workload: &[Select],
        weights: &[f64],
        params: CostParams,
        options: InumOptions,
        par: Parallelism,
        budget: &Budget,
        trace: Trace,
    ) -> Result<Self, InumError> {
        Self::build_inner(catalog, workload, weights, params, options, par, budget, trace, None)
    }

    /// [`InumModel::build_weighted_traced`] against an engine-wide
    /// [`SharedPlanCache`]: each query's case list is served from the
    /// cache when any earlier build over the same catalog already
    /// populated it, and published on a miss. Hits and misses are
    /// attributed to `trace` as [`Counter::SharedPlanHits`] /
    /// [`Counter::SharedPlanMisses`] and to the cache's own exact totals.
    /// Cached case lists are pure functions of (catalog, query SQL,
    /// [`InumOptions`]), so a warm cache is bit-identical to a cold build
    /// — only faster.
    #[allow(clippy::too_many_arguments)]
    pub fn build_shared_traced(
        catalog: &'a Catalog,
        workload: &[Select],
        weights: &[f64],
        params: CostParams,
        options: InumOptions,
        par: Parallelism,
        budget: &Budget,
        trace: Trace,
        cache: &SharedPlanCache,
    ) -> Result<Self, InumError> {
        Self::build_inner(
            catalog,
            workload,
            weights,
            params,
            options,
            par,
            budget,
            trace,
            Some(cache),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build_inner(
        catalog: &'a Catalog,
        workload: &[Select],
        weights: &[f64],
        params: CostParams,
        options: InumOptions,
        par: Parallelism,
        budget: &Budget,
        trace: Trace,
        shared: Option<&SharedPlanCache>,
    ) -> Result<Self, InumError> {
        assert_eq!(weights.len(), workload.len(), "one weight per query");
        let bound = par_try_map_budgeted_traced(
            par,
            workload.len(),
            &Budget::unlimited(),
            &trace,
            "inum_build/bind",
            |i| {
                if parinda_failpoint::should_fail("inum::bind") {
                    return Err("failpoint inum::bind: injected error".to_string());
                }
                bind(&workload[i], catalog).map_err(|e| e.to_string())
            },
        )
        .map_err(|p| InumError::Worker(p.to_string()))?;
        let mut queries = Vec::with_capacity(workload.len());
        for (i, q) in bound.done.into_iter().enumerate() {
            queries.push(q.map_err(|e| InumError::Bind(i, e))?);
        }
        let sql: Vec<String> = workload.iter().map(|q| q.to_string()).collect();
        let mut model = InumModel {
            catalog,
            params,
            options,
            par,
            queries,
            sql,
            weights: weights.to_vec(),
            cases: Vec::new(),
            candidates: Vec::new(),
            access_memo: Mutex::new(HashMap::new()),
            probe_memo: Mutex::new(HashMap::new()),
            estimations: AtomicU64::new(0),
            full_optimizations: AtomicU64::new(0),
            trace,
        };
        let nq = model.queries.len();
        // Population order: weight-descending, stable on index (identity
        // for uniform workloads), so a budget cap lands on the caches
        // serving the most statements.
        let mut order: Vec<usize> = (0..nq).collect();
        let w = &model.weights;
        order.sort_by(|&a, &b| w[b].total_cmp(&w[a]).then(a.cmp(&b)));
        // A round cap caps how many query caches are populated; the
        // deadline/cancel check rides inside the budgeted sweep.
        let cap = budget.max_rounds().map_or(nq, |r| r.min(nq));
        // Shared-cache keys are the canonical SQL text plus the two
        // cache-richness knobs; the catalog is pinned by the cache's
        // attachment to one immutable engine core (see `shared.rs`).
        let keys: Option<Vec<PlanKey>> = shared.map(|_| {
            workload
                .iter()
                .map(|q| (q.to_string(), options.max_cases_per_query, options.join_scenario_pairs))
                .collect()
        });
        let built = par_try_map_budgeted_traced(
            par,
            cap,
            budget,
            &model.trace,
            "inum_build/populate",
            |k| {
                let qi = order[k];
                match (shared, &keys) {
                    (Some(cache), Some(keys)) => {
                        if let Some(cases) = cache.lookup(&keys[qi]) {
                            model.trace.count(Counter::SharedPlanHits, 1);
                            return Ok(cases);
                        }
                        model.trace.count(Counter::SharedPlanMisses, 1);
                        let cases = Arc::new(model.build_cases(qi)?);
                        cache.insert(keys[qi].clone(), Arc::clone(&cases));
                        Ok(cases)
                    }
                    _ => model.build_cases(qi).map(Arc::new),
                }
            },
        )
        .map_err(|p| InumError::Worker(p.to_string()))?;
        let populated = built.done.len();
        model.cases.resize_with(nq, || None);
        for (k, cases) in built.done.into_iter().enumerate() {
            let qi = order[k];
            model.cases[qi] = Some(cases.map_err(|e| InumError::Plan(qi, e))?);
        }
        debug_assert_eq!(model.cases.len(), nq);
        debug_assert!(populated <= nq);
        Ok(model)
    }

    /// Re-target the model at a new compressed workload *incrementally*:
    /// templates whose canonical SQL is unchanged keep their bound query,
    /// cached cases, and memo entries (re-keyed to their new positions);
    /// new templates are bound and populated from scratch; vanished
    /// templates are evicted together with their memo entries. Weights
    /// are replaced wholesale (decay re-prices every template, but a
    /// weight is a multiplier outside the cached plans, so reweighting
    /// costs nothing).
    ///
    /// **Invariant**: the resulting model is bit-identical — same costs,
    /// same degraded set, same candidate ids — to a from-scratch
    /// [`InumModel::build_weighted_traced`] over the same workload with
    /// an unlimited budget, at any thread count. Cached cases and memo
    /// entries are pure functions of (query, catalog, params, options,
    /// candidate), so reuse can never change a value, only skip its
    /// recomputation. Queries a *budgeted* original build left degraded
    /// are populated here, so the delta never carries degradation
    /// forward.
    ///
    /// Everything is computed before anything is committed: an injected
    /// fault (`inum::delta`, `inum::bind`, `inum::plan_case`) or a bind
    /// error leaves the model exactly as it was.
    pub fn apply_delta(
        &mut self,
        workload: &[Select],
        weights: &[f64],
    ) -> Result<DeltaReport, InumError> {
        assert_eq!(weights.len(), workload.len(), "one weight per query");
        let trace = self.trace.clone();
        let _span = trace.span("inum_delta");
        if parinda_failpoint::should_fail("inum::delta") {
            return Err(InumError::Worker("failpoint inum::delta: injected error".to_string()));
        }
        // Match new templates to old positions by canonical SQL text
        // (duplicate texts pair up first-come, like a from-scratch build
        // binds them independently to identical results).
        let mut by_sql: HashMap<&str, Vec<usize>> = HashMap::new();
        for (qi, s) in self.sql.iter().enumerate().rev() {
            by_sql.entry(s.as_str()).or_default().push(qi);
        }
        let new_sql: Vec<String> = workload.iter().map(|q| q.to_string()).collect();
        let nq = workload.len();
        let mut source: Vec<Option<usize>> = Vec::with_capacity(nq);
        let mut missing: Vec<usize> = Vec::new();
        for (i, s) in new_sql.iter().enumerate() {
            let old = by_sql.get_mut(s.as_str()).and_then(Vec::pop);
            if old.is_none() {
                missing.push(i);
            }
            source.push(old);
        }
        let reused = nq - missing.len();
        let evicted = self.queries.len() - reused;
        // Bind the genuinely new templates (same sweep + failpoint as a
        // full build, so fault behavior matches).
        let bound = par_try_map_budgeted_traced(
            self.par,
            missing.len(),
            &Budget::unlimited(),
            &trace,
            "inum_delta/bind",
            |k| {
                if parinda_failpoint::should_fail("inum::bind") {
                    return Err("failpoint inum::bind: injected error".to_string());
                }
                bind(&workload[missing[k]], self.catalog).map_err(|e| e.to_string())
            },
        )
        .map_err(|p| InumError::Worker(p.to_string()))?;
        let mut fresh: Vec<BoundQuery> = Vec::with_capacity(missing.len());
        for (k, q) in bound.done.into_iter().enumerate() {
            fresh.push(q.map_err(|e| InumError::Bind(missing[k], e))?);
        }
        // Assemble the new query/case vectors (still uncommitted). One
        // fresh binding exists per missing slot by construction.
        let mut fresh = fresh.into_iter();
        let mut queries: Vec<BoundQuery> = Vec::with_capacity(nq);
        let mut cases: Vec<Option<Arc<Vec<CachedCase>>>> = Vec::with_capacity(nq);
        for &src in &source {
            match src {
                Some(old) => {
                    queries.push(self.queries[old].clone());
                    cases.push(self.cases[old].clone());
                }
                None => match fresh.next() {
                    Some(q) => {
                        queries.push(q);
                        cases.push(None);
                    }
                    None => {
                        return Err(InumError::Worker(
                            "delta bind produced fewer queries than templates".to_string(),
                        ))
                    }
                },
            }
        }
        // Populate every unpopulated cache: new templates plus any the
        // original build's budget skipped (a from-scratch unlimited
        // rebuild would populate them, and the invariant is equality
        // with exactly that).
        let targets: Vec<usize> = (0..nq).filter(|&i| cases[i].is_none()).collect();
        let built = par_try_map_budgeted_traced(
            self.par,
            targets.len(),
            &Budget::unlimited(),
            &trace,
            "inum_delta/populate",
            |k| {
                let qi = targets[k];
                self.build_cases_for(qi, &queries[qi])
            },
        )
        .map_err(|p| InumError::Worker(p.to_string()))?;
        let mut populated: Vec<Arc<Vec<CachedCase>>> = Vec::with_capacity(targets.len());
        for (k, r) in built.done.into_iter().enumerate() {
            populated.push(Arc::new(r.map_err(|e| InumError::Plan(targets[k], e))?));
        }
        for (k, cs) in populated.into_iter().enumerate() {
            cases[targets[k]] = Some(cs);
        }
        // Commit: re-key surviving memo entries old→new, drop the rest.
        let mut old_to_new: HashMap<usize, usize> = HashMap::new();
        for (i, src) in source.iter().enumerate() {
            if let Some(old) = src {
                old_to_new.insert(*old, i);
            }
        }
        {
            let mut memo =
                self.access_memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let entries: Vec<_> = memo.drain().collect();
            for ((qi, rel, cand), v) in entries {
                if let Some(&ni) = old_to_new.get(&qi) {
                    memo.insert((ni, rel, cand), v);
                }
            }
        }
        {
            let mut memo =
                self.probe_memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let entries: Vec<_> = memo.drain().collect();
            for ((qi, rel, cid), v) in entries {
                if let Some(&ni) = old_to_new.get(&qi) {
                    memo.insert((ni, rel, cid), v);
                }
            }
        }
        self.queries = queries;
        self.cases = cases;
        self.sql = new_sql;
        self.weights = weights.to_vec();
        let rebuilt = targets.len();
        trace.count(Counter::InumDeltaReused, reused as u64);
        trace.count(Counter::InumDeltaRebuilt, rebuilt as u64);
        Ok(DeltaReport { reused, rebuilt, evicted })
    }

    /// Queries whose plan cache was skipped by a build budget; their
    /// [`cost`] is served by live optimizer calls.
    ///
    /// [`cost`]: InumModel::cost
    pub fn degraded_queries(&self) -> usize {
        self.cases.iter().filter(|c| c.is_none()).count()
    }

    /// The thread-count policy the model evaluates with.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Change the thread-count policy for subsequent evaluation sweeps.
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    /// The bound queries (for advisors that need workload structure).
    pub fn queries(&self) -> &[BoundQuery] {
        &self.queries
    }

    /// The per-query weights the model was built with.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weight of query `qi`.
    pub fn weight(&self, qi: usize) -> f64 {
        self.weights[qi]
    }

    /// Cost parameters in use.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Register a candidate index; returns its id. Registering the same
    /// candidate twice returns the same id.
    pub fn register_candidate(&mut self, cand: CandidateIndex) -> CandId {
        if let Some(i) = self.candidates.iter().position(|c| *c == cand) {
            return CandId(i);
        }
        self.candidates.push(cand);
        CandId(self.candidates.len() - 1)
    }

    /// The registered candidates.
    pub fn candidates(&self) -> &[CandidateIndex] {
        &self.candidates
    }

    /// A candidate by id.
    pub fn candidate(&self, id: CandId) -> &CandidateIndex {
        &self.candidates[id.0]
    }

    /// Equation-1 size of a registered candidate in bytes.
    pub fn candidate_size(&self, id: CandId) -> u64 {
        let c = &self.candidates[id.0];
        self.catalog
            .table(c.table)
            .map(|t| c.size_bytes(t))
            .unwrap_or(0)
    }

    /// The catalog the model was built over.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The observability handle the model was built with (disabled for
    /// [`InumModel::build`]). Advisors that
    /// work off this model record their spans/counters through it.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of cached-model cost estimations served so far.
    pub fn estimations_served(&self) -> u64 {
        self.estimations.load(Ordering::Relaxed)
    }

    /// Number of full optimizer invocations performed (cache build +
    /// exact costing).
    pub fn full_optimizations(&self) -> u64 {
        self.full_optimizations.load(Ordering::Relaxed)
    }

    // ---------- cache construction ----------

    fn build_cases(&self, qi: usize) -> Result<Vec<CachedCase>, String> {
        self.build_cases_for(qi, &self.queries[qi])
    }

    /// [`build_cases`](Self::build_cases) against an explicit bound query
    /// (not yet committed to `self.queries`) — the delta path plans new
    /// templates *before* committing anything, so an injected fault
    /// leaves the model untouched.
    fn build_cases_for(&self, qi: usize, q: &BoundQuery) -> Result<Vec<CachedCase>, String> {
        let nrels = q.rels.len();

        // Interesting orders per rel: None + each join column on the rel.
        let mut orders_per_rel: Vec<Vec<Option<usize>>> = vec![vec![None]; nrels];
        for j in &q.joins {
            for slot in [j.left, j.right] {
                let v = &mut orders_per_rel[slot.rel];
                if !v.contains(&Some(slot.col)) && v.len() < 4 {
                    v.push(Some(slot.col));
                }
            }
        }

        // Cartesian product, capped.
        let mut combos: Vec<Vec<Option<usize>>> = vec![vec![]];
        for rel_orders in &orders_per_rel {
            let mut next = Vec::new();
            for c in &combos {
                for o in rel_orders {
                    let mut c2 = c.clone();
                    c2.push(*o);
                    next.push(c2);
                }
            }
            combos = next;
            if combos.len() > self.options.max_cases_per_query {
                combos.truncate(self.options.max_cases_per_query);
            }
        }

        let scenarios: &[JoinScenario] = if self.options.join_scenario_pairs {
            &JoinScenario::ALL
        } else {
            &JoinScenario::ALL[..1]
        };
        let mut cases = Vec::new();
        for combo in &combos {
            for &scenario in scenarios {
                let case = self.plan_case(qi, q, combo, scenario)?;
                if !cases.contains(&case) {
                    cases.push(case);
                }
            }
        }
        Ok(cases)
    }

    /// Plan the query with per-rel hypothetical order-providing indexes and
    /// extract the internal-plan skeleton.
    fn plan_case(
        &self,
        qi: usize,
        q: &BoundQuery,
        combo: &[Option<usize>],
        scenario: JoinScenario,
    ) -> Result<CachedCase, String> {
        if parinda_failpoint::should_fail("inum::plan_case") {
            return Err("failpoint inum::plan_case: injected error".to_string());
        }
        let mut overlay = HypotheticalCatalog::new(self.catalog);
        let mut hypo_ids: Vec<Option<IndexId>> = vec![None; combo.len()];
        for (rel, order) in combo.iter().enumerate() {
            if let Some(col) = order {
                let table = self
                    .catalog
                    .table(q.rels[rel].table)
                    .ok_or_else(|| "table vanished".to_string())?;
                let colname = table.columns[*col].name.clone();
                let idx = Index::new(
                    IndexId(0),
                    format!("inum_{qi}_{rel}_{colname}"),
                    table,
                    &[colname.as_str()],
                )
                .ok_or_else(|| "bad hypo column".to_string())?;
                hypo_ids[rel] = Some(overlay.add_hypo_index(idx));
            }
        }
        let flags = scenario.flags(PlannerFlags::default());
        let plan = plan_query(q, &overlay, &self.params, &flags).map_err(|e| e.to_string())?;
        self.full_optimizations.fetch_add(1, Ordering::Relaxed);
        self.trace.count(Counter::OptimizerInvocations, 1);

        // Extract leaf access charges.
        let mut accesses: Vec<RelAccess> = Vec::new();
        let mut charged = 0.0f64;
        extract_accesses(&plan, 1.0, &mut |leaf, multiplier| {
            let (rel, required_order, param_probe, cost) = match &leaf.kind {
                PlanKind::SeqScan { rel, .. } => (*rel, None, None, leaf.cost.total),
                PlanKind::IndexScan { rel, index, param_prefix, .. } => {
                    let probe = if param_prefix.is_empty() {
                        None
                    } else {
                        // probe column = the hypo/real index's lead key
                        overlay
                            .indexes_on(q.rels[*rel].table)
                            .into_iter()
                            .find(|i| i.id == *index)
                            .map(|i| i.key_columns[0])
                    };
                    let order = if param_prefix.is_empty() && hypo_ids[*rel] == Some(*index) {
                        combo[*rel]
                    } else {
                        None
                    };
                    (*rel, order, probe, leaf.cost.total)
                }
                // extract_accesses only visits scan leaves; anything else
                // carries no access charge.
                _ => return,
            };
            charged += cost * multiplier;
            accesses.push(RelAccess { rel, multiplier, required_order, param_probe });
        });

        let internal_cost = (plan.cost.total - charged).max(0.0);
        Ok(CachedCase { internal_cost, accesses })
    }

    // ---------- cached costing ----------

    /// INUM cost of query `qi` under `config` — the fast path. If a build
    /// budget skipped this query's plan cache, the estimate degrades to a
    /// live optimizer call: slower, still valid.
    pub fn cost(&self, qi: usize, config: &Configuration) -> f64 {
        self.estimations.fetch_add(1, Ordering::Relaxed);
        let Some(cases) = &self.cases[qi] else {
            return self.exact_cost(qi, config);
        };
        let mut best = f64::INFINITY;
        for case in cases.iter() {
            if let Some(total) = self.case_cost(qi, case, config) {
                best = best.min(total);
            }
        }
        best
    }

    /// Total workload cost under `config`, weighted by the per-query
    /// weights (`cost × 1.0` is bit-identical to the plain sum).
    pub fn workload_cost(&self, config: &Configuration) -> f64 {
        (0..self.queries.len()).map(|qi| self.cost(qi, config) * self.weight(qi)).sum()
    }

    fn case_cost(&self, qi: usize, case: &CachedCase, config: &Configuration) -> Option<f64> {
        let mut total = case.internal_cost;
        for acc in &case.accesses {
            total += self.access_cost_under(qi, acc, config)?;
        }
        Some(total)
    }

    fn access_cost_under(
        &self,
        qi: usize,
        acc: &RelAccess,
        config: &Configuration,
    ) -> Option<f64> {
        let q = &self.queries[qi];
        let table = q.rels[acc.rel].table;

        if let Some(col) = acc.param_probe {
            // need an index whose lead column is `col`
            let mut best = f64::INFINITY;
            for &cid in config.ids() {
                let cand = &self.candidates[cid.0];
                if cand.table == table && cand.columns[0] == col {
                    if let Some(c) = self.probe_cost(qi, acc.rel, cid) {
                        best = best.min(c);
                    }
                }
            }
            // real (base-catalog) indexes can also serve the probe
            for idx in self.catalog.indexes_on(table) {
                if idx.key_columns[0] == col {
                    if let Some(c) = self.real_probe_cost(qi, acc.rel, idx) {
                        best = best.min(c);
                    }
                }
            }
            if best.is_finite() {
                return Some(best * acc.multiplier);
            }
            return None; // case incompatible with this configuration
        }

        // Plain scan: cheapest of seqscan / any configured index, honoring
        // the required order (sort added when unordered).
        let seq = self.access_cost(qi, acc.rel, None)?;
        let mut best_ordered: Option<f64> = None;
        let mut best_any = seq.cost;
        for &cid in config.ids() {
            let cand = &self.candidates[cid.0];
            if cand.table != table {
                continue;
            }
            if let Some(ac) = self.access_cost(qi, acc.rel, Some(cid.0)) {
                best_any = best_any.min(ac.cost);
                if acc.required_order.is_some() && ac.order_col == acc.required_order {
                    best_ordered =
                        Some(best_ordered.map_or(ac.cost, |b: f64| b.min(ac.cost)));
                }
            }
        }
        match acc.required_order {
            None => Some(best_any * acc.multiplier),
            Some(_) => {
                // sorted path directly, or cheapest path + explicit sort
                let rows = base_rel_rows(&self.queries[qi], acc.rel, self.catalog, &self.params)
                    .ok()?;
                let width = 16.0;
                let sorted_via_sort =
                    sort_cost(&self.params, best_any, rows, width).total;
                let best = match best_ordered {
                    Some(o) => o.min(sorted_via_sort),
                    None => sorted_via_sort,
                };
                Some(best * acc.multiplier)
            }
        }
    }

    /// Memoized single-scan access cost for (query, rel, candidate);
    /// `cand = None` = sequential scan.
    fn access_cost(&self, qi: usize, rel: usize, cand: Option<usize>) -> Option<AccessCost> {
        if let Some(v) = self.access_memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&(qi, rel, cand)) {
            self.trace.count(Counter::InumCacheHits, 1);
            return *v;
        }
        // Computed outside the lock: concurrent sweeps may duplicate the
        // work, but the value is a pure function of the key, so whichever
        // insert lands last writes the same bits.
        self.trace.count(Counter::InumCacheMisses, 1);
        let computed = self.compute_access_cost(qi, rel, cand);
        self.access_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((qi, rel, cand), computed);
        computed
    }

    fn compute_access_cost(&self, qi: usize, rel: usize, cand: Option<usize>) -> Option<AccessCost> {
        if parinda_failpoint::should_fail("inum::access_cost") {
            return None; // "no such path": the case degrades to other paths
        }
        let q = &self.queries[qi];
        let flags = PlannerFlags::default();
        match cand {
            None => {
                let paths = base_scan_paths(q, rel, self.catalog, &self.params, &flags).ok()?;
                paths
                    .iter()
                    .filter(|(n, _)| matches!(n.kind, PlanKind::SeqScan { .. }))
                    .map(|(n, _)| AccessCost { cost: n.cost.total, order_col: None })
                    .min_by(|a, b| a.cost.total_cmp(&b.cost))
            }
            Some(ci) => {
                let c = &self.candidates[ci];
                if c.table != q.rels[rel].table {
                    return None;
                }
                let mut overlay = HypotheticalCatalog::new(self.catalog);
                let table = self.catalog.table(c.table)?;
                let colnames: Vec<String> =
                    c.columns.iter().map(|&i| table.columns[i].name.clone()).collect();
                let colrefs: Vec<&str> = colnames.iter().map(|s| s.as_str()).collect();
                let idx = Index::new(IndexId(0), "inum_cand", table, &colrefs)?;
                let id = overlay.add_hypo_index(idx);
                let paths = base_scan_paths(q, rel, &overlay, &self.params, &flags).ok()?;
                paths
                    .iter()
                    .filter_map(|(n, order)| match &n.kind {
                        PlanKind::IndexScan { index, .. } if *index == id => Some(AccessCost {
                            cost: n.cost.total,
                            order_col: order.first().map(|s| s.col),
                        }),
                        _ => None,
                    })
                    .min_by(|a, b| a.cost.total_cmp(&b.cost))
            }
        }
    }

    /// Parameterized probe cost of `cand` for (query, rel).
    fn probe_cost(&self, qi: usize, rel: usize, cid: CandId) -> Option<f64> {
        if let Some(v) = self.probe_memo.lock().unwrap_or_else(std::sync::PoisonError::into_inner).get(&(qi, rel, cid.0)) {
            return *v;
        }
        let cand = &self.candidates[cid.0];
        let table = self.catalog.table(cand.table)?;
        let colnames: Vec<String> =
            cand.columns.iter().map(|&i| table.columns[i].name.clone()).collect();
        let colrefs: Vec<&str> = colnames.iter().map(|s| s.as_str()).collect();
        let idx = Index::new(IndexId(0), "inum_probe", table, &colrefs)?;
        let computed = self.compute_probe_cost(qi, rel, &idx);
        self.probe_memo
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((qi, rel, cid.0), computed);
        computed
    }

    fn real_probe_cost(&self, qi: usize, rel: usize, idx: &Index) -> Option<f64> {
        self.compute_probe_cost(qi, rel, idx)
    }

    /// Cost of one index probe with an equality on the lead column.
    fn compute_probe_cost(&self, qi: usize, rel: usize, idx: &Index) -> Option<f64> {
        use parinda_optimizer::cost::{index_scan_cost, IndexScanInputs};
        let q = &self.queries[qi];
        let table = self.catalog.table(q.rels[rel].table)?;
        let lead = idx.key_columns[0];
        let stats = self.catalog.column_stats(table.id, lead);
        let raw = table.row_count as f64;
        let nd = stats.map(|s| s.distinct_count(raw)).unwrap_or(raw * 0.1);
        let sel = (1.0 / nd.max(1.0)).min(1.0);
        let corr = stats.map(|s| s.correlation).unwrap_or(0.0);
        let nquals = q.restrictions_on(rel).len();
        let c = index_scan_cost(
            &self.params,
            IndexScanInputs {
                index_pages: idx.pages,
                index_height: idx.height,
                table_pages: table.pages,
                table_rows: raw,
                index_selectivity: sel,
                correlation: corr,
            },
            nquals,
        );
        Some(c.total)
    }

    // ---------- exact (validation) path ----------

    /// Full re-optimization under `config` (slow path, for validation and
    /// the E3 speed comparison).
    pub fn exact_cost(&self, qi: usize, config: &Configuration) -> f64 {
        let q = &self.queries[qi];
        let mut overlay = HypotheticalCatalog::new(self.catalog);
        for &cid in config.ids() {
            let cand = &self.candidates[cid.0];
            if let Some(table) = self.catalog.table(cand.table) {
                let colnames: Vec<String> =
                    cand.columns.iter().map(|&i| table.columns[i].name.clone()).collect();
                let colrefs: Vec<&str> = colnames.iter().map(|s| s.as_str()).collect();
                if let Some(idx) = Index::new(IndexId(0), "exact_cand", table, &colrefs) {
                    overlay.add_hypo_index(idx);
                }
            }
        }
        self.full_optimizations.fetch_add(1, Ordering::Relaxed);
        self.trace.count(Counter::OptimizerInvocations, 1);
        match plan_query(q, &overlay, &self.params, &PlannerFlags::default()) {
            Ok(p) => p.cost.total,
            Err(_) => f64::INFINITY,
        }
    }
}

/// Walk the plan, reporting each scan leaf with the multiplier of how many
/// times it executes (parameterized NL inners run once per outer row).
fn extract_accesses<F: FnMut(&PlanNode, f64)>(node: &PlanNode, multiplier: f64, f: &mut F) {
    match &node.kind {
        PlanKind::SeqScan { .. } | PlanKind::IndexScan { .. } => f(node, multiplier),
        PlanKind::NestLoop { outer, inner, .. } => {
            extract_accesses(outer, multiplier, f);
            let inner_mult = if matches!(
                &inner.kind,
                PlanKind::IndexScan { param_prefix, .. } if !param_prefix.is_empty()
            ) {
                multiplier * outer.rows.max(1.0)
            } else {
                multiplier
            };
            extract_accesses(inner, inner_mult, f);
        }
        PlanKind::HashJoin { outer, inner, .. } | PlanKind::MergeJoin { outer, inner, .. } => {
            extract_accesses(outer, multiplier, f);
            extract_accesses(inner, multiplier, f);
        }
        PlanKind::Materialize { input }
        | PlanKind::Sort { input, .. }
        | PlanKind::Aggregate { input, .. }
        | PlanKind::Project { input, .. }
        | PlanKind::Unique { input }
        | PlanKind::Limit { input, .. } => extract_accesses(input, multiplier, f),
    }
}
