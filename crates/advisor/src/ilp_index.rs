//! ILP-based index selection (Papadomanolakis & Ailamaki, SMDB'07; paper
//! §3.4).
//!
//! The selection problem is mapped to a 0/1 integer-linear program:
//!
//! * `y_i`   — build candidate index `i`
//! * `x_q_i` — query `q` uses index `i` for the table it covers
//!
//! maximize   Σ b_{q,i} · x_{q,i}           (benefits from the INUM model)
//! subject to x_{q,i} ≤ y_i                 (use only built indexes)
//!            Σ_{i on table t} x_{q,i} ≤ 1  ("only one access path is
//!                                           selected for each table in a
//!                                           query")
//!            Σ size_i · y_i ≤ B            (storage constraint)
//!
//! Benefits `b_{q,i} = cost_INUM(q, ∅) − cost_INUM(q, {i})` come from the
//! cached cost model, so building the program costs thousands of cached
//! estimations rather than optimizer calls. The reported final costs are
//! re-evaluated with INUM on the *selected set*, so interaction effects the
//! linear objective ignores never reach the user.

use std::collections::HashMap;

use parinda_catalog::{MetadataProvider, TableId};
use parinda_inum::{CandId, CandidateIndex, Configuration, InumModel};
use parinda_parallel::{par_map_indexed, par_try_map_budgeted_traced, Budget, BudgetReport};
use parinda_solver::{
    solve_ilp, IlpOutcome, IntegerProgram, LinearProgram, Sense, SolveLimits, SparseMatrix,
};
use parinda_trace::Counter;

/// Cells at or below this benefit are never materialized: they would get
/// no `x` variable anyway, so dropping them changes nothing downstream.
const BENEFIT_EPS: f64 = 1e-9;

/// User-supplied constraints beyond the storage budget (paper §3.4: "other
/// user-supplied constraints, such as constraints on the total size of the
/// design features, and their update costs").
///
/// Per-query workload weights come from the model
/// ([`InumModel::build_weighted_traced`]).
#[derive(Debug, Clone)]
pub struct IlpOptions {
    /// Cap on the total index maintenance cost per unit time.
    pub update_limit: Option<f64>,
    /// Writes per unit time per table, for the update-cost constraint.
    pub update_rates: HashMap<TableId, f64>,
    /// Materialize the full dense benefit matrix before scanning it into
    /// the program — the pre-sparse reference path. The determinism
    /// suite pins sparse-vs-dense bit-identity through this flag; it
    /// exists for that comparison, not for production use.
    pub dense_reference: bool,
    /// Seed the branch-and-bound with a greedy incumbent computed from
    /// the benefit matrix (default `true`) so the first bound check can
    /// already prune. Never changes the selected design — only the work
    /// to prove it.
    pub warm_start: bool,
}

impl Default for IlpOptions {
    fn default() -> Self {
        IlpOptions {
            update_limit: None,
            update_rates: HashMap::new(),
            dense_reference: false,
            warm_start: true,
        }
    }
}

/// Standing DBA constraints threaded in from the streaming console
/// (after *Semi-Automatic Index Tuning*'s pin/ban feedback): `pinned`
/// candidates are forced into the design — registered up front, charged
/// against the storage budget *first*, never entering the search — and
/// `banned` candidates are removed from the candidate pool before any
/// benefit cell is scored, so their `y`/`x` variables simply never exist
/// in the program (and the greedy loop never prices them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverConstraints {
    /// Indexes forced into every design, budget-first.
    pub pinned: Vec<CandidateIndex>,
    /// Indexes excluded from the search space.
    pub banned: Vec<CandidateIndex>,
}

impl SolverConstraints {
    /// No pins, no bans.
    pub fn none() -> SolverConstraints {
        SolverConstraints::default()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty() && self.banned.is_empty()
    }

    /// The search pool: `candidates` minus banned entries minus pinned
    /// entries (pins are forced, not searched).
    pub fn filter_pool(&self, candidates: &[CandidateIndex]) -> Vec<CandidateIndex> {
        candidates
            .iter()
            .filter(|c| !self.banned.contains(c) && !self.pinned.contains(c))
            .cloned()
            .collect()
    }

    /// Register the pins with `model` and split the run: the pinned
    /// base configuration, the search pool, and the storage budget left
    /// for the search once the pins are charged (pins outrank the
    /// budget, so the remainder saturates at zero).
    pub(crate) fn prepare(
        &self,
        model: &mut InumModel<'_>,
        candidates: &[CandidateIndex],
        budget_bytes: u64,
    ) -> (Vec<CandId>, Vec<CandidateIndex>, u64) {
        let pinned: Vec<CandId> =
            self.pinned.iter().map(|c| model.register_candidate(c.clone())).collect();
        let pinned_size: u64 = pinned.iter().map(|&id| model.candidate_size(id)).sum();
        (pinned, self.filter_pool(candidates), budget_bytes.saturating_sub(pinned_size))
    }
}

/// Estimated maintenance cost of one index per unit time: each write to
/// its table inserts one entry (B-tree descent + leaf write).
pub fn index_update_cost(
    model: &InumModel<'_>,
    id: CandId,
    update_rates: &HashMap<TableId, f64>,
) -> f64 {
    let cand = model.candidate(id);
    let Some(&rate) = update_rates.get(&cand.table) else { return 0.0 };
    let Some(table) = model.catalog().table(cand.table) else { return 0.0 };
    let params = model.params();
    let height = cand.height(table) as f64;
    let per_insert = (height + 1.0) * params.random_page_cost
        + 30.0 * params.cpu_operator_cost
        + params.cpu_index_tuple_cost;
    rate * per_insert
}

/// Outcome of index selection.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSelection {
    /// Chosen candidates.
    pub chosen: Vec<CandId>,
    /// Estimated workload cost before (empty configuration).
    pub cost_before: f64,
    /// Estimated workload cost with the chosen set (INUM, interactions
    /// included).
    pub cost_after: f64,
    /// Total size of the chosen indexes in bytes.
    pub total_size: u64,
    /// Was the ILP solved to proven optimality?
    pub proven_optimal: bool,
    /// Did a budget (deadline, round cap, or cancellation) stop the run
    /// before it evaluated everything? The selection is still valid —
    /// best-so-far over what was evaluated — just possibly not as good
    /// as an unbudgeted run.
    pub degraded: bool,
    /// How far the run got, when `degraded` is set.
    pub budget: Option<BudgetReport>,
    /// Per-query costs before/after.
    pub per_query: Vec<(f64, f64)>,
}

impl IndexSelection {
    /// Average workload speedup factor (≥ 1.0 when the design helps).
    pub fn speedup(&self) -> f64 {
        if self.cost_after <= 0.0 {
            return 1.0;
        }
        self.cost_before / self.cost_after
    }
}

/// Select indexes with the ILP under a storage budget (bytes): no run
/// budget, no standing constraints.
pub fn select_indexes_ilp_with(
    model: &mut InumModel<'_>,
    candidates: &[CandidateIndex],
    budget_bytes: u64,
    options: &IlpOptions,
) -> IndexSelection {
    select_indexes_ilp_constrained(
        model,
        candidates,
        budget_bytes,
        options,
        &Budget::unlimited(),
        &SolverConstraints::none(),
    )
}

/// The ILP under a run [`Budget`] and [`SolverConstraints`].
///
/// The benefit matrix is evaluated candidate-by-candidate until the
/// budget (deadline, round cap = candidates scored, or cancellation)
/// interrupts; unscored candidates are treated as zero-benefit (never
/// chosen), and the branch-and-bound inherits the deadline and cancel
/// token. The result is always valid; `degraded: true` plus a
/// [`BudgetReport`] mark a run the budget cut short.
///
/// Pinned indexes are charged against `budget_bytes` first and
/// prepended to the chosen set unconditionally (even if they alone
/// exceed the budget — the DBA's pin outranks the budget), banned ones
/// never enter the program. Benefits are scored *relative to the pinned
/// base*, so the solver only pays for what pins don't already cover.
/// Benefits and reported costs are weighted by the model's per-query
/// weights.
pub fn select_indexes_ilp_constrained(
    model: &mut InumModel<'_>,
    candidates: &[CandidateIndex],
    budget_bytes: u64,
    options: &IlpOptions,
    budget: &Budget,
    constraints: &SolverConstraints,
) -> IndexSelection {
    let (base, candidates, budget_bytes) = constraints.prepare(model, candidates, budget_bytes);
    let trace = model.trace().clone();
    let _span = trace.span("ilp_rounds");
    let cand_ids: Vec<CandId> =
        candidates.iter().map(|c| model.register_candidate(c.clone())).collect();
    let nq = model.queries().len();

    // Benefits (weighted) and sizes. The (query, candidate) cells are
    // independent cached-model probes, so the matrix fans out over the
    // model's thread pool; each cell is pure, so the matrix is identical
    // at any thread count. Cells are laid out candidate-major so a
    // budget-interrupted prefix covers whole candidates: a candidate is
    // either fully scored or not considered at all.
    let par = model.parallelism();
    let model_ref: &InumModel<'_> = model;
    let base_cfg = Configuration::from_ids(base.iter().copied());
    let base_costs: Vec<f64> =
        par_map_indexed(par, nq, |q| model_ref.cost(q, &base_cfg) * model_ref.weight(q));
    let n_cand = cand_ids.len();
    let scored_cap = budget.max_rounds().map_or(n_cand, |r| r.min(n_cand));
    let cells = match par_try_map_budgeted_traced(
        par,
        scored_cap * nq,
        budget,
        &trace,
        "ilp_rounds/benefit_matrix",
        |k| {
            if parinda_failpoint::should_fail("advisor::benefit_cell") {
                return 0.0; // injected error: the cell degrades to "no benefit"
            }
            let (ci, q) = (k / nq.max(1), k % nq.max(1));
            let with = model_ref.cost(q, &base_cfg.with(cand_ids[ci])) * model_ref.weight(q);
            (base_costs[q] - with).max(0.0)
        },
    ) {
        Ok(partial) => partial,
        // Re-raise the contained worker panic for the session guard()
        // backstop; resume_unwind skips the panic hook (already ran).
        Err(p) => std::panic::resume_unwind(Box::new(p.to_string())),
    };
    // Only fully scored candidates enter the program.
    let scored = if nq == 0 { scored_cap } else { cells.done.len() / nq };
    let candidates_skipped = n_cand - scored;
    trace.count(Counter::CandidatesEvaluated, scored as u64);
    trace.count(Counter::CandidatesSkipped, candidates_skipped as u64);
    let sizes: Vec<u64> = cand_ids.iter().map(|&id| model.candidate_size(id)).collect();

    // CSR benefit matrix (query-major, candidate columns): at workload
    // scale almost every cell is below epsilon — an index only helps the
    // statements that touch its table and columns — so memory and LP
    // size follow the nonzero count, not `nq × n_cand`. The cell buffer
    // is candidate-major (budget prefixes cover whole candidates), so
    // the scan transposes; cell enumeration order and the epsilon are
    // exactly the dense path's, keeping the program bit-identical.
    let benefits: SparseMatrix = if options.dense_reference {
        // Reference path: materialize the full dense matrix first, then
        // scan it — what the advisor did before compression landed. The
        // determinism suite pins both paths to the same bits.
        let mut dense: Vec<Vec<f64>> = vec![vec![0.0; n_cand]; nq];
        for (ci, col) in cells.done.chunks(nq.max(1)).take(scored).enumerate() {
            for (q, &b) in col.iter().enumerate() {
                dense[q][ci] = b;
            }
        }
        SparseMatrix::from_row_major(
            nq,
            n_cand,
            dense.iter().enumerate().flat_map(|(q, row)| {
                row.iter()
                    .enumerate()
                    .filter(|&(_, &b)| b > BENEFIT_EPS)
                    .map(move |(ci, &b)| (q, ci, b))
            }),
        )
    } else {
        SparseMatrix::from_row_major(
            nq,
            n_cand,
            (0..nq).flat_map(|q| {
                let cells = &cells.done;
                (0..scored).filter_map(move |ci| {
                    let b = cells[ci * nq + q];
                    (b > BENEFIT_EPS).then_some((q, ci, b))
                })
            }),
        )
    };
    trace.count(Counter::MatrixNnz, benefits.nnz() as u64);

    // Build the ILP.
    // variable layout: y_0..y_{n-1}, then x_{q,i} for materialized cells
    let x_vars: Vec<(usize, usize, f64)> = benefits.iter().collect();
    let n_vars = n_cand + x_vars.len();
    let mut lp = LinearProgram::new(n_vars);
    for j in 0..n_vars {
        lp.set_upper(j, 1.0);
    }
    // tiny per-byte penalty on y so indexes that enable no x stay unbuilt
    for (ci, &s) in sizes.iter().enumerate() {
        lp.set_objective(ci, -1e-9 * s as f64);
    }
    for (k, &(_, ci, b)) in x_vars.iter().enumerate() {
        lp.set_objective(n_cand + k, b);
        // x <= y
        lp.add_constraint(vec![(n_cand + k, 1.0), (ci, -1.0)], Sense::Le, 0.0);
    }
    // one access path per (query, table)
    {
        // BTreeMap: these constraints' order steers simplex pivoting, so
        // hash iteration here would make tied solutions vary run-to-run.
        use std::collections::BTreeMap;
        let mut per_qt: BTreeMap<(usize, u32), Vec<usize>> = BTreeMap::new();
        for (k, &(q, ci, _)) in x_vars.iter().enumerate() {
            let t = model.candidate(cand_ids[ci]).table.0;
            per_qt.entry((q, t)).or_default().push(n_cand + k);
        }
        for vars in per_qt.values() {
            if vars.len() > 1 {
                lp.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Sense::Le, 1.0);
            }
        }
    }
    // storage budget
    lp.add_constraint(
        sizes.iter().enumerate().map(|(ci, &s)| (ci, s as f64)).collect(),
        Sense::Le,
        budget_bytes as f64,
    );
    // update-cost constraint
    if let Some(limit) = options.update_limit {
        let terms: Vec<(usize, f64)> = cand_ids
            .iter()
            .enumerate()
            .map(|(ci, &id)| (ci, index_update_cost(model, id, &options.update_rates)))
            .filter(|&(_, c)| c > 0.0)
            .collect();
        if !terms.is_empty() {
            lp.add_constraint(terms, Sense::Le, limit);
        }
    }

    // Warm start: a greedy incumbent computed from the already-built
    // matrix — benefit-per-byte over the candidate columns under the
    // storage budget, then each (query, table)'s single best x among the
    // picked candidates. No model probes, no extra counters; the solver
    // re-checks feasibility and falls back to a cold start if e.g. an
    // update-cost constraint rejects the seed.
    let warm_start = (options.warm_start && n_vars > 0).then(|| {
        let mut col_benefit = vec![0.0f64; n_cand];
        for &(_, ci, b) in &x_vars {
            col_benefit[ci] += b;
        }
        let mut order: Vec<usize> = (0..n_cand).collect();
        order.sort_by(|&a, &b| {
            let da = col_benefit[a] / sizes[a].max(1) as f64;
            let db = col_benefit[b] / sizes[b].max(1) as f64;
            db.total_cmp(&da).then(a.cmp(&b))
        });
        let mut picked = vec![false; n_cand];
        let mut left = budget_bytes;
        for ci in order {
            if col_benefit[ci] > 0.0 && sizes[ci] <= left {
                left -= sizes[ci];
                picked[ci] = true;
            }
        }
        let mut x = vec![0.0f64; n_vars];
        for (ci, &p) in picked.iter().enumerate() {
            if p {
                x[ci] = 1.0;
            }
        }
        use std::collections::BTreeMap;
        let mut best_per_qt: BTreeMap<(usize, u32), (usize, f64)> = BTreeMap::new();
        for (k, &(q, ci, b)) in x_vars.iter().enumerate() {
            if !picked[ci] {
                continue;
            }
            let t = model.candidate(cand_ids[ci]).table.0;
            let e = best_per_qt.entry((q, t)).or_insert((k, b));
            if b > e.1 {
                *e = (k, b);
            }
        }
        for &(k, _) in best_per_qt.values() {
            x[n_cand + k] = 1.0;
        }
        x
    });

    let ip = IntegerProgram { lp, binary: (0..n_vars).collect() };
    let limits = SolveLimits {
        deadline: budget.deadline(),
        cancel: Some(budget.cancel_token().clone()),
        trace: trace.clone(),
        warm_start,
        ..SolveLimits::default()
    };
    let (chosen_pos, proven) = match solve_ilp(&ip, limits) {
        IlpOutcome::Solved(s) => {
            let picked: Vec<usize> =
                (0..n_cand).filter(|&ci| s.x[ci] > 0.5).collect();
            (picked, s.proven_optimal)
        }
        // A genuine infeasibility proof can only mean "no candidate fits
        // the budget"; unbounded cannot occur with all-binary variables.
        IlpOutcome::Infeasible | IlpOutcome::Unbounded => (Vec::new(), true),
        // A limit stopped the search before any incumbent: the empty
        // design is the best-so-far answer, and it is *not* proven.
        IlpOutcome::Limit => (Vec::new(), false),
    };

    let mut chosen: Vec<CandId> = base;
    chosen.extend(chosen_pos.iter().map(|&ci| cand_ids[ci]));
    let degraded = candidates_skipped > 0 || budget.interrupted();
    let mut selection = finish_selection(model, chosen, &base_costs, proven);
    selection.degraded = degraded;
    selection.budget = degraded.then(|| budget.report(scored, candidates_skipped));
    selection
}

/// Compute the final (honest) report for a chosen set. `base_costs` are
/// already weighted; after-costs get the same weights so the report
/// stays consistent.
pub(crate) fn finish_selection(
    model: &InumModel<'_>,
    chosen: Vec<CandId>,
    base_costs: &[f64],
    proven_optimal: bool,
) -> IndexSelection {
    let cfg = Configuration::from_ids(chosen.iter().copied());
    let per_query: Vec<(f64, f64)> = base_costs
        .iter()
        .enumerate()
        .map(|(q, &b)| (b, model.cost(q, &cfg) * model.weight(q)))
        .collect();
    let cost_before: f64 = base_costs.iter().sum();
    let cost_after: f64 = per_query.iter().map(|p| p.1).sum();
    let total_size: u64 = chosen.iter().map(|&id| model.candidate_size(id)).sum();
    IndexSelection {
        chosen,
        cost_before,
        cost_after,
        total_size,
        proven_optimal,
        degraded: false,
        budget: None,
        per_query,
    }
}
