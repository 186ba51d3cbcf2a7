//! INUM model validation: the cached estimate must track full
//! re-optimization closely, and serving estimates must not invoke the
//! optimizer.

use parinda_catalog::{analyze_column, Catalog, Column, Datum, MetadataProvider, SqlType};
use parinda_inum::{CandidateIndex, Configuration, InumModel, InumOptions};
use parinda_optimizer::CostParams;
use parinda_parallel::{Budget, Parallelism};
use parinda_sql::{parse_select, Select};
use parinda_trace::Trace;

/// An unweighted, unbudgeted, untraced build with explicit options and
/// thread count.
fn build_model<'a>(
    c: &'a Catalog,
    wl: &[Select],
    options: InumOptions,
    par: Parallelism,
) -> InumModel<'a> {
    InumModel::build_weighted_traced(
        c,
        wl,
        &vec![1.0; wl.len()],
        CostParams::default(),
        options,
        par,
        &Budget::unlimited(),
        Trace::disabled(),
    )
    .unwrap()
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    let photo = c.create_table(
        "photoobj",
        vec![
            Column::new("objid", SqlType::Int8).not_null(),
            Column::new("ra", SqlType::Float8).not_null(),
            Column::new("dec", SqlType::Float8).not_null(),
            Column::new("type", SqlType::Int2).not_null(),
            Column::new("rmag", SqlType::Float8).not_null(),
        ],
        500_000,
    );
    let spec = c.create_table(
        "specobj",
        vec![
            Column::new("specobjid", SqlType::Int8).not_null(),
            Column::new("bestobjid", SqlType::Int8).not_null(),
            Column::new("z", SqlType::Float8).not_null(),
        ],
        25_000,
    );
    let n = 50_000usize;
    let ids: Vec<Datum> = (0..n as i64).map(Datum::Int).collect();
    let ra: Vec<Datum> = (0..n).map(|i| Datum::Float((i as f64 * 0.0072) % 360.0)).collect();
    let ty: Vec<Datum> = (0..n).map(|i| Datum::Int((i % 6) as i64)).collect();
    let rmag: Vec<Datum> = (0..n).map(|i| Datum::Float(14.0 + (i % 900) as f64 * 0.01)).collect();
    c.set_column_stats(photo, 0, analyze_column(SqlType::Int8, &ids));
    c.set_column_stats(photo, 1, analyze_column(SqlType::Float8, &ra));
    c.set_column_stats(photo, 2, analyze_column(SqlType::Float8, &ra));
    c.set_column_stats(photo, 3, analyze_column(SqlType::Int2, &ty));
    c.set_column_stats(photo, 4, analyze_column(SqlType::Float8, &rmag));
    let best: Vec<Datum> = (0..n as i64).map(|i| Datum::Int(i * 10)).collect();
    let z: Vec<Datum> = (0..n).map(|i| Datum::Float((i % 400) as f64 * 0.002)).collect();
    c.set_column_stats(spec, 0, analyze_column(SqlType::Int8, &ids));
    c.set_column_stats(spec, 1, analyze_column(SqlType::Int8, &best));
    c.set_column_stats(spec, 2, analyze_column(SqlType::Float8, &z));
    c
}

fn workload() -> Vec<Select> {
    [
        "SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100.0 AND 101.0",
        "SELECT ra, dec FROM photoobj WHERE objid = 777",
        "SELECT type, COUNT(*) FROM photoobj WHERE rmag < 15.0 GROUP BY type",
        "SELECT p.ra, s.z FROM photoobj p, specobj s \
         WHERE p.objid = s.bestobjid AND s.z > 0.7",
        "SELECT p.objid FROM photoobj p, specobj s \
         WHERE p.objid = s.bestobjid AND p.type = 3 AND p.rmag BETWEEN 14.0 AND 14.5",
    ]
    .iter()
    .map(|s| parse_select(s).unwrap())
    .collect()
}

fn model(c: &Catalog) -> InumModel<'_> {
    InumModel::build(c, &workload(), CostParams::default()).unwrap()
}

#[test]
fn empty_config_matches_exact() {
    let c = catalog();
    let m = model(&c);
    for qi in 0..m.queries().len() {
        let inum = m.cost(qi, &Configuration::empty());
        let exact = m.exact_cost(qi, &Configuration::empty());
        let ratio = inum / exact;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "q{qi}: inum={inum:.1} exact={exact:.1}"
        );
    }
}

#[test]
fn inum_tracks_exact_across_configs() {
    let c = catalog();
    let mut m = model(&c);
    let photo = c.table_by_name("photoobj").unwrap().id;
    let spec = c.table_by_name("specobj").unwrap().id;
    let cands = vec![
        CandidateIndex::new(photo, vec![0]),     // objid
        CandidateIndex::new(photo, vec![1]),     // ra
        CandidateIndex::new(photo, vec![3, 4]),  // type, rmag
        CandidateIndex::new(photo, vec![4]),     // rmag
        CandidateIndex::new(spec, vec![1]),      // bestobjid
        CandidateIndex::new(spec, vec![2]),      // z
    ];
    let ids: Vec<_> = cands.into_iter().map(|cd| m.register_candidate(cd)).collect();

    // several configurations, incl. empty, singletons and the full set
    let mut configs = vec![Configuration::empty(), Configuration::from_ids(ids.clone())];
    for &id in &ids {
        configs.push(Configuration::from_ids([id]));
    }
    configs.push(Configuration::from_ids([ids[0], ids[4]]));

    let mut worst: f64 = 1.0;
    for cfg in &configs {
        for qi in 0..m.queries().len() {
            let inum = m.cost(qi, cfg);
            let exact = m.exact_cost(qi, cfg);
            assert!(inum.is_finite(), "q{qi} cfg={cfg:?}");
            let ratio = (inum / exact).max(exact / inum);
            worst = worst.max(ratio);
            assert!(
                ratio < 1.6,
                "q{qi} cfg={cfg:?}: inum={inum:.1} exact={exact:.1}"
            );
        }
    }
    // overall the model should be much tighter than the hard bound
    assert!(worst < 1.6, "worst ratio {worst}");
}

#[test]
fn adding_indexes_never_increases_inum_cost() {
    let c = catalog();
    let mut m = model(&c);
    let photo = c.table_by_name("photoobj").unwrap().id;
    let spec = c.table_by_name("specobj").unwrap().id;
    let a = m.register_candidate(CandidateIndex::new(photo, vec![0]));
    let b = m.register_candidate(CandidateIndex::new(photo, vec![1]));
    let d = m.register_candidate(CandidateIndex::new(spec, vec![1]));
    let empty = Configuration::empty();
    for qi in 0..m.queries().len() {
        let base = m.cost(qi, &empty);
        let one = m.cost(qi, &Configuration::from_ids([a]));
        let all = m.cost(qi, &Configuration::from_ids([a, b, d]));
        assert!(one <= base * 1.0001, "q{qi}: {one} > {base}");
        assert!(all <= one * 1.0001, "q{qi}: {all} > {one}");
    }
}

#[test]
fn estimations_do_not_invoke_optimizer() {
    let c = catalog();
    let mut m = model(&c);
    let photo = c.table_by_name("photoobj").unwrap().id;
    let a = m.register_candidate(CandidateIndex::new(photo, vec![0]));
    let b = m.register_candidate(CandidateIndex::new(photo, vec![1]));

    // warm the memos
    let cfgs = [
        Configuration::empty(),
        Configuration::from_ids([a]),
        Configuration::from_ids([b]),
        Configuration::from_ids([a, b]),
    ];
    for cfg in &cfgs {
        m.workload_cost(cfg);
    }

    let plans_before = m.full_optimizations();
    let served_before = m.estimations_served();
    // hammer the cached model
    for _ in 0..1000 {
        for cfg in &cfgs {
            m.workload_cost(cfg);
        }
    }
    assert_eq!(m.full_optimizations(), plans_before, "cache must serve alone");
    assert!(m.estimations_served() >= served_before + 4000 * 5);
}

#[test]
fn relevant_index_reduces_cost() {
    let c = catalog();
    let mut m = model(&c);
    let photo = c.table_by_name("photoobj").unwrap().id;
    let objid_idx = m.register_candidate(CandidateIndex::new(photo, vec![0]));
    // q1 = "objid = 777": the index should slash its cost
    let before = m.cost(1, &Configuration::empty());
    let after = m.cost(1, &Configuration::from_ids([objid_idx]));
    assert!(
        after < before / 10.0,
        "selective index should win big: before={before:.1} after={after:.1}"
    );
}

#[test]
fn irrelevant_index_changes_nothing() {
    let c = catalog();
    let mut m = model(&c);
    let spec = c.table_by_name("specobj").unwrap().id;
    let z_idx = m.register_candidate(CandidateIndex::new(spec, vec![2]));
    // q0 touches only photoobj
    let before = m.cost(0, &Configuration::empty());
    let after = m.cost(0, &Configuration::from_ids([z_idx]));
    assert!((before - after).abs() < 1e-9);
}

#[test]
fn ablation_single_case_cache_is_worse() {
    let c = catalog();
    let wl = workload();
    let mut full = build_model(&c, &wl, InumOptions::default(), Parallelism::auto());
    let mut single = build_model(
        &c,
        &wl,
        InumOptions { max_cases_per_query: 1, join_scenario_pairs: false },
        Parallelism::auto(),
    );
    let photo = c.table_by_name("photoobj").unwrap().id;
    let spec = c.table_by_name("specobj").unwrap().id;
    let f_ids = [
        full.register_candidate(CandidateIndex::new(photo, vec![0])),
        full.register_candidate(CandidateIndex::new(spec, vec![1])),
    ];
    let s_ids = [
        single.register_candidate(CandidateIndex::new(photo, vec![0])),
        single.register_candidate(CandidateIndex::new(spec, vec![1])),
    ];

    let mut worst_full = 1.0f64;
    let mut worst_single = 1.0f64;
    for mask in 0..4u32 {
        let f_cfg = Configuration::from_ids(
            f_ids.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &x)| x),
        );
        let s_cfg = Configuration::from_ids(
            s_ids.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &x)| x),
        );
        for qi in 0..wl.len() {
            let exact = full.exact_cost(qi, &f_cfg);
            let rf = (full.cost(qi, &f_cfg) / exact).max(exact / full.cost(qi, &f_cfg));
            let rs = (single.cost(qi, &s_cfg) / exact).max(exact / single.cost(qi, &s_cfg));
            worst_full = worst_full.max(rf);
            worst_single = worst_single.max(rs);
        }
    }
    assert!(worst_full < 1.6, "full cache should track exact: {worst_full}");
    // the richer cache is never less accurate (on this small fixture both
    // can be exact; experiment A1 shows the dramatic gap at SDSS scale)
    assert!(
        worst_single >= worst_full - 1e-9,
        "single-case cache cannot beat the full cache: single {worst_single} vs full {worst_full}"
    );
}

#[test]
fn options_control_cache_size() {
    let c = catalog();
    let wl = workload();
    // fewer cases -> fewer optimizer calls during the build
    let full = build_model(&c, &wl, InumOptions::default(), Parallelism::auto());
    let lean = build_model(
        &c,
        &wl,
        InumOptions { max_cases_per_query: 1, join_scenario_pairs: false },
        Parallelism::auto(),
    );
    assert!(lean.full_optimizations() < full.full_optimizations());
}

#[test]
fn counters_are_exact_under_parallel_builds() {
    use parinda_parallel::par_map_indexed;
    let c = catalog();
    let wl = workload();
    let seq = build_model(&c, &wl, InumOptions::default(), Parallelism::fixed(1));
    let par = build_model(&c, &wl, InumOptions::default(), Parallelism::fixed(4));
    // cache population performs the same optimizer calls regardless of the
    // thread count, and no increment may be lost to a race
    assert!(seq.full_optimizations() > 0);
    assert_eq!(seq.full_optimizations(), par.full_optimizations());
    assert_eq!(par.estimations_served(), 0);

    // concurrent estimation sweeps over a shared model: exactly one
    // increment per served estimate
    let n = 1_000usize;
    let nq = par.queries().len();
    par_map_indexed(Parallelism::fixed(8), n, |i| par.cost(i % nq, &Configuration::empty()));
    assert_eq!(par.estimations_served(), n as u64);
}
