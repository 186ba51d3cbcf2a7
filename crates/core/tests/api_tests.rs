//! Session-API behaviours beyond the three scenarios: DDL loading, index
//! drop simulation, weighted suggestions, error paths.

use parinda::{Design, IlpOptions, Parinda, SelectionMethod};
use parinda_catalog::MetadataProvider;

const DDL: &str = "
CREATE TABLE obs (
    id BIGINT NOT NULL,
    ra DOUBLE PRECISION NOT NULL,
    mag REAL NOT NULL,
    kind SMALLINT NOT NULL,
    note TEXT,
    PRIMARY KEY (id)
) ROWS 400000;

CREATE TABLE runs (
    runid BIGINT NOT NULL,
    quality INT NOT NULL,
    PRIMARY KEY (runid)
) ROWS 3000;

CREATE INDEX i_obs_id ON obs (id);
";

#[test]
fn ddl_builds_a_working_session() {
    let session = Parinda::from_ddl(DDL).unwrap();
    assert_eq!(session.catalog().all_tables().len(), 2);
    let obs = session.catalog().table_by_name("obs").unwrap();
    assert_eq!(obs.row_count, 400_000);
    assert_eq!(obs.primary_key, vec![0]);
    assert_eq!(obs.columns.len(), 5);
    assert!(session.catalog().index_by_name("i_obs_id").is_some());

    // the schema is immediately plannable (default statistics)
    let plan = session.explain_sql("SELECT ra FROM obs WHERE id = 5").unwrap();
    assert!(plan.contains("i_obs_id"), "PK index should serve a point lookup:\n{plan}");
}

#[test]
fn ddl_errors_are_reported() {
    assert!(Parinda::from_ddl("CREATE TABLE t (a JSONB)").is_err());
    assert!(Parinda::from_ddl("CREATE INDEX i ON missing (x)").is_err());
    assert!(Parinda::from_ddl("CREATE TABLE t (a INT, PRIMARY KEY (nope))").is_err());
    let mut s = Parinda::from_ddl("CREATE TABLE t (a INT)").unwrap();
    assert!(s.execute_ddl("CREATE TABLE t (b INT)").is_err(), "duplicate table");
}

#[test]
fn drop_simulation_through_evaluate_design() {
    let mut session = Parinda::from_ddl(DDL).unwrap();
    // give obs.id realistic unique stats so the index matters
    let obs = session.catalog().table_by_name("obs").unwrap().id;
    let ids: Vec<parinda_catalog::Datum> =
        (0..50_000).map(parinda_catalog::Datum::Int).collect();
    let stats = parinda_catalog::analyze_column(parinda_catalog::SqlType::Int8, &ids);
    session.catalog_mut().set_column_stats(obs, 0, stats);

    let wl = vec![parinda::parse_select("SELECT ra FROM obs WHERE id = 42").unwrap()];
    let keep = session.evaluate_design(&wl, &Design::new()).unwrap().0;
    let drop = session
        .evaluate_design(&wl, &Design::new().with_drop("i_obs_id"))
        .unwrap()
        .0;
    assert!(
        drop.per_query[0].cost_after > keep.per_query[0].cost_after * 10.0,
        "dropping the PK index should hurt the point lookup: {} vs {}",
        drop.per_query[0].cost_after,
        keep.per_query[0].cost_after
    );
    // with_drop on a missing index surfaces an error
    assert!(session
        .evaluate_design(&wl, &Design::new().with_drop("ghost"))
        .is_err());
}

#[test]
fn weighted_suggestion_through_session() {
    use parinda_workload::{sdss_catalog, synthesize_stats, SdssScale, Workload, WorkloadEntry};
    let (mut cat, tables) = sdss_catalog(SdssScale::paper());
    synthesize_stats(&mut cat, &tables);
    let session = Parinda::new(cat);
    let wl = [
        parinda::parse_select("SELECT ra FROM photoobj WHERE objid = 42").unwrap(),
        parinda::parse_select(
            "SELECT objid FROM photoobj WHERE modelmag_r BETWEEN 17.0 AND 17.2",
        )
        .unwrap(),
    ];
    let weighted = |weights: [f64; 2]| Workload {
        entries: wl
            .iter()
            .zip(weights)
            .map(|(q, weight)| WorkloadEntry { query: q.clone(), weight })
            .collect(),
    };
    // budget fits one photoobj index; flip the weights, the winner flips
    let budget = 360 * 1024 * 1024;
    let advise = |w: Workload| {
        session
            .suggest_indexes_compressed(&w, budget, SelectionMethod::Ilp, &IlpOptions::default())
            .unwrap()
            .0
    };
    let s1 = advise(weighted([1000.0, 1.0]));
    let s2 = advise(weighted([1.0, 1000.0]));
    assert_eq!(s1.indexes.len(), 1, "{:?}", s1.indexes);
    assert_eq!(s2.indexes.len(), 1, "{:?}", s2.indexes);
    assert_ne!(s1.indexes[0].columns, s2.indexes[0].columns);
    assert_eq!(s1.indexes[0].columns, vec!["objid"]);
}

/// `-- weight:` annotations in a workload file reach `suggest indexes`:
/// the same two statements as `weighted_suggestion_through_session`,
/// with the same flipped weights, give the same flipped winners through
/// the console.
#[test]
fn console_suggest_indexes_honours_workload_file_weights() {
    use parinda::{Console, ConsoleReply};
    let suggest = |lookup_weight: u32, range_weight: u32| -> Vec<String> {
        let path = std::env::temp_dir().join(format!(
            "parinda_api_weights_{}_{lookup_weight}_{range_weight}.sql",
            std::process::id()
        ));
        std::fs::write(
            &path,
            format!(
                "-- weight: {lookup_weight}\nSELECT ra FROM photoobj WHERE objid = 42;\n\
                 -- weight: {range_weight}\n\
                 SELECT objid FROM photoobj WHERE modelmag_r BETWEEN 17.0 AND 17.2;\n"
            ),
        )
        .unwrap();
        let mut console = Console::new();
        let mut run = |line: &str| match console.run_line(line) {
            ConsoleReply::Output(out) => out,
            other => panic!("`{line}`: {other:?}"),
        };
        run("load paper");
        run(&format!("workload file {}", path.display()));
        let out = run("suggest indexes 360 ilp");
        std::fs::remove_file(&path).unwrap();
        out.lines().filter(|l| l.starts_with("CREATE INDEX")).map(str::to_string).collect()
    };
    let lookup_heavy = suggest(1000, 1);
    let range_heavy = suggest(1, 1000);
    assert_eq!(lookup_heavy.len(), 1, "{lookup_heavy:?}");
    assert_eq!(range_heavy.len(), 1, "{range_heavy:?}");
    assert!(lookup_heavy[0].contains("idx_photoobj_objid ON photoobj (objid)"), "{lookup_heavy:?}");
    assert!(!range_heavy[0].contains("(objid)"), "{range_heavy:?}");
}

#[test]
fn explain_analyze_on_materialized_data() {
    use parinda_executor::explain_analyze;
    use parinda_optimizer::{bind, plan_query, CostParams, PlannerFlags};
    use parinda_workload::{generate_and_load, sdss_catalog, SdssScale};
    let (mut cat, tables) = sdss_catalog(SdssScale::laptop(1_000));
    let mut db = parinda::Database::new();
    generate_and_load(&mut cat, &mut db, &tables, 9);
    let sel = parinda::parse_select("SELECT type, COUNT(*) FROM photoobj GROUP BY type").unwrap();
    let q = bind(&sel, &cat).unwrap();
    let plan = plan_query(&q, &cat, &CostParams::default(), &PlannerFlags::default()).unwrap();
    let text = explain_analyze(&plan, &q, &cat, &db).unwrap();
    assert!(text.contains("actual rows="), "{text}");
    assert!(text.contains("Total runtime"), "{text}");
}

#[test]
fn suggest_drops_flags_unused_indexes_only() {
    let mut session = Parinda::from_ddl(
        "CREATE TABLE obs (id BIGINT NOT NULL, ra DOUBLE PRECISION NOT NULL,
                           mag REAL NOT NULL, PRIMARY KEY (id)) ROWS 400000;
         CREATE INDEX i_used ON obs (id);
         CREATE INDEX i_unused ON obs (mag);",
    )
    .unwrap();
    // realistic unique stats on id so i_used actually serves the lookup
    let obs = session.catalog().table_by_name("obs").unwrap().id;
    let ids: Vec<parinda_catalog::Datum> = (0..50_000).map(parinda_catalog::Datum::Int).collect();
    session
        .catalog_mut()
        .set_column_stats(obs, 0, parinda_catalog::analyze_column(parinda_catalog::SqlType::Int8, &ids));

    let wl = vec![parinda::parse_select("SELECT ra FROM obs WHERE id = 7").unwrap()];
    let drops = session.suggest_drops(&wl).unwrap();
    let names: Vec<&str> = drops.iter().map(|d| d.index.as_str()).collect();
    assert!(names.contains(&"i_unused"), "{names:?}");
    assert!(!names.contains(&"i_used"), "{names:?}");
    let unused = drops.iter().find(|d| d.index == "i_unused").unwrap();
    assert!(unused.reclaimed_bytes > 0);
    assert!(unused.cost_delta.abs() < 1e-6);
}
