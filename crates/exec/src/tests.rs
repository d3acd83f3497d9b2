//! Operator-level tests: correctness against in-memory oracles, spill
//! behaviour under small grants, artifact reuse, and monitor hooks.

use std::cell::RefCell;
use std::rc::Rc;

use mq_catalog::Catalog;
use mq_common::{DataType, EngineConfig, Field, MqError, Result, Row, Schema, SimClock, Value};
use mq_expr::{cmp, col, eq, lit, CmpOp};
use mq_plan::{AggExpr, AggFunc, CollectorSpec, NodeId, PhysOp, PhysPlan, ScanSpec};
use mq_storage::Storage;

use crate::collector::ObservedStats;
use crate::context::{ExecContext, ExecMonitor};
use crate::{run_to_vec, sink};

struct Fixture {
    catalog: Catalog,
    storage: Storage,
    clock: SimClock,
    cfg: EngineConfig,
}

impl Fixture {
    fn new() -> Fixture {
        Self::with_cfg(EngineConfig::default())
    }

    fn with_cfg(cfg: EngineConfig) -> Fixture {
        let clock = SimClock::new();
        let storage = Storage::new(&cfg, clock.clone());
        Fixture {
            catalog: Catalog::new(),
            storage,
            clock,
            cfg,
        }
    }

    fn ctx(&self) -> ExecContext {
        ExecContext::new(self.storage.clone(), self.clock.clone(), self.cfg.clone())
    }

    /// Table r(k INT, v INT, s VARCHAR) with n rows: k = i, v = i % m.
    fn load_r(&self, name: &str, n: i64, m: i64) {
        self.catalog
            .create_table(
                &self.storage,
                name,
                vec![
                    ("k", DataType::Int),
                    ("v", DataType::Int),
                    ("s", DataType::Str),
                ],
            )
            .unwrap();
        for i in 0..n {
            self.catalog
                .insert_row(
                    &self.storage,
                    name,
                    Row::new(vec![
                        Value::Int(i),
                        Value::Int(i % m),
                        Value::str(format!("row-{i}")),
                    ]),
                )
                .unwrap();
        }
    }

    fn scan_plan(&self, table: &str, filter: Option<mq_expr::Expr>) -> PhysPlan {
        let entry = self.catalog.table(table).unwrap();
        let bound = filter.map(|f| f.bind(&entry.schema).unwrap());
        let mut p = PhysPlan::new(
            PhysOp::SeqScan {
                spec: ScanSpec {
                    table: table.into(),
                    file: entry.file,
                    pages: self.storage.file_pages(entry.file).unwrap() as u64,
                    rows: self.storage.file_rows(entry.file).unwrap(),
                },
                filter: bound,
            },
            vec![],
            entry.schema,
        );
        p.annot.est_rows = self.storage.file_rows(entry.file).unwrap() as f64;
        p.annot.est_row_bytes = 30.0;
        p
    }
}

fn hash_join_plan(build: PhysPlan, probe: PhysPlan, bk: &str, pk: &str, grant: usize) -> PhysPlan {
    let build_keys = vec![build.schema.index_of(bk).unwrap()];
    let probe_keys = vec![probe.schema.index_of(pk).unwrap()];
    let schema = build.schema.join(&probe.schema);
    let mut p = PhysPlan::new(
        PhysOp::HashJoin {
            build_keys,
            probe_keys,
        },
        vec![build, probe],
        schema,
    );
    p.annot.mem_grant_bytes = grant;
    p
}

#[test]
fn seq_scan_with_filter() {
    let fx = Fixture::new();
    fx.load_r("r", 100, 10);
    let plan = {
        let mut p = fx.scan_plan("r", Some(eq(col("r.v"), lit(3i64))));
        p.assign_ids();
        p
    };
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 10);
    assert!(rows.iter().all(|r| r.get(1) == &Value::Int(3)));
}

#[test]
fn hash_join_in_memory_matches_oracle() {
    let fx = Fixture::new();
    fx.load_r("a", 50, 5);
    fx.load_r("b", 200, 5);
    let mut plan = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        1 << 20,
    );
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    // Each a-row (v = i%5) matches 40 b-rows with the same v.
    assert_eq!(rows.len(), 50 * 40);
    // Output schema: a columns then b columns.
    assert_eq!(rows[0].len(), 6);
    for r in rows.iter().take(20) {
        assert_eq!(r.get(1), r.get(4), "join keys must match");
    }
}

#[test]
fn hash_join_spilled_same_result_more_io() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("a", 2000, 50);
    fx.load_r("b", 2000, 50);

    // Oracle: generous grant.
    let mut big = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        8 << 20,
    );
    big.assign_ids();
    let ctx = fx.ctx();
    let before = fx.clock.snapshot();
    let mut expect = run_to_vec(&big, &ctx).unwrap();
    let io_big = fx.clock.snapshot().since(&before).io_total();

    // Tiny grant: must spill, same multiset of rows.
    let mut small = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        8 * cfg.page_size,
    );
    small.assign_ids();
    let ctx2 = fx.ctx();
    let before = fx.clock.snapshot();
    let mut got = run_to_vec(&small, &ctx2).unwrap();
    let io_small = fx.clock.snapshot().since(&before).io_total();

    assert_eq!(expect.len(), 2000 * 40);
    let keyfn = |r: &Row| format!("{r}");
    expect.sort_by_key(keyfn);
    got.sort_by_key(keyfn);
    assert_eq!(expect, got, "spilled join must produce identical rows");
    assert!(
        io_small > io_big + 50,
        "spill must cost extra I/O: {io_small} vs {io_big}"
    );
}

/// Spill one hash-join build on a fresh fixture and return the rows of
/// each build partition file plus the pages the spill wrote.
fn spilled_build_partitions() -> (Vec<Vec<Row>>, u64) {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    // 3000 distinct keys; "row-{i}" makes the rows variable-length, so
    // the order rows are spilled in decides how they pack into pages.
    fx.load_r("a", 3000, 7);
    fx.load_r("b", 10, 7);
    let mut plan = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.k",
        "b.k",
        8 * cfg.page_size,
    );
    plan.assign_ids();
    let rec = Rc::new(Recorder::default());
    *rec.switch_at.borrow_mut() = Some(plan.id);
    let ctx = fx.ctx().with_monitor(rec);
    let before = fx.clock.snapshot();
    let err = run_to_vec(&plan, &ctx).unwrap_err();
    assert_eq!(err, MqError::PlanSwitch(plan.id.0));
    let pages_written = fx.clock.snapshot().since(&before).pages_written;
    let Some(crate::context::Artifact::HashBuild(hb)) = ctx.take_artifact(plan.id) else {
        panic!("the build artifact must survive the switch");
    };
    let parts = hb.parts.expect("the build must have spilled");
    let contents = parts
        .iter()
        .map(|&f| {
            fx.storage
                .scan_file(f)
                .unwrap()
                .map(|item| item.unwrap().1)
                .collect()
        })
        .collect();
    (contents, pages_written)
}

#[test]
fn hash_join_spill_is_deterministic_across_fresh_contexts() {
    let (first, first_pages) = spilled_build_partitions();
    let (second, second_pages) = spilled_build_partitions();
    assert!(first.len() > 1 && first_pages > 0);
    assert_eq!(first.iter().map(Vec::len).sum::<usize>(), 3000);
    assert_eq!(
        first, second,
        "spilled partitions must hold the same rows in the same order"
    );
    assert_eq!(first_pages, second_pages);
}

#[test]
fn hash_join_null_keys_never_match() {
    let fx = Fixture::new();
    fx.catalog
        .create_table(&fx.storage, "n", vec![("k", DataType::Int)])
        .unwrap();
    for v in [Value::Null, Value::Int(1), Value::Null, Value::Int(2)] {
        fx.catalog
            .insert_row(&fx.storage, "n", Row::new(vec![v]))
            .unwrap();
    }
    let mut plan = hash_join_plan(fx.scan_plan_n(), fx.scan_plan_n(), "n.k", "n.k", 1 << 20);
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 2, "only non-null keys join");
}

impl Fixture {
    fn scan_plan_n(&self) -> PhysPlan {
        self.scan_plan("n", None)
    }
}

#[test]
fn sort_orders_and_spills() {
    // Small pool so spilled runs actually reach the simulated disk.
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("r", 3000, 17);
    let input = fx.scan_plan("r", None);
    let schema = input.schema.clone();
    // Sort by v desc, k asc with a grant forcing external runs.
    let mut plan = PhysPlan::new(
        PhysOp::Sort {
            keys: vec![(1, false), (0, true)],
        },
        vec![input],
        schema,
    );
    plan.annot.mem_grant_bytes = 8 * cfg.page_size;
    plan.assign_ids();
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    let io = fx.clock.snapshot().since(&before).io_total();
    assert_eq!(rows.len(), 3000);
    for w in rows.windows(2) {
        let (v0, v1) = (w[0].get(1), w[1].get(1));
        assert!(v0 >= v1, "v must be descending");
        if v0 == v1 {
            assert!(w[0].get(0) <= w[1].get(0), "k ties ascending");
        }
    }
    assert!(io > 0, "external sort must do I/O");
}

#[test]
fn sort_in_memory_when_fits() {
    let fx = Fixture::new();
    fx.load_r("r", 100, 7);
    let input = fx.scan_plan("r", None);
    let schema = input.schema.clone();
    let mut plan = PhysPlan::new(
        PhysOp::Sort {
            keys: vec![(0, true)],
        },
        vec![input],
        schema,
    );
    plan.annot.mem_grant_bytes = 1 << 20;
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 100);
    assert_eq!(rows[0].get(0), &Value::Int(0));
    assert_eq!(rows[99].get(0), &Value::Int(99));
}

#[test]
fn aggregate_grouped_matches_oracle() {
    let fx = Fixture::new();
    fx.load_r("r", 1000, 10);
    let input = fx.scan_plan("r", None);
    let schema_in = input.schema.clone();
    let out_schema = Schema::new(vec![
        Field::qualified("r", "v", DataType::Int),
        Field::new("cnt", DataType::Int),
        Field::new("avg_k", DataType::Float),
        Field::new("max_k", DataType::Int),
    ])
    .unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![1],
            aggs: vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                    name: "cnt".into(),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(col("r.k").bind(&schema_in).unwrap()),
                    name: "avg_k".into(),
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(col("r.k").bind(&schema_in).unwrap()),
                    name: "max_k".into(),
                },
            ],
        },
        vec![input],
        out_schema,
    );
    plan.annot.mem_grant_bytes = 1 << 20;
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 10);
    // Group v=3: rows 3, 13, ..., 993 → count 100, max 993.
    let g3 = rows
        .iter()
        .find(|r| r.get(0) == &Value::Int(3))
        .expect("group 3");
    assert_eq!(g3.get(1), &Value::Int(100));
    assert_eq!(g3.get(3), &Value::Int(993));
    let avg = match g3.get(2) {
        Value::Float(f) => *f,
        other => panic!("avg type {other:?}"),
    };
    assert!((avg - 498.0).abs() < 1e-9, "avg {avg}");
}

#[test]
fn aggregate_scalar_on_empty_input() {
    let fx = Fixture::new();
    fx.load_r("r", 10, 2);
    let input = fx.scan_plan("r", Some(eq(col("r.k"), lit(10_000i64))));
    let out_schema = Schema::new(vec![Field::new("cnt", DataType::Int)]).unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "cnt".into(),
            }],
        },
        vec![input],
        out_schema,
    );
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].get(0), &Value::Int(0));
}

#[test]
fn aggregate_spills_with_many_groups() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("r", 5000, 5000); // all distinct groups
    let input = fx.scan_plan("r", None);
    let out_schema = Schema::new(vec![
        Field::qualified("r", "v", DataType::Int),
        Field::new("cnt", DataType::Int),
    ])
    .unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![1],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "cnt".into(),
            }],
        },
        vec![input],
        out_schema,
    );
    plan.annot.mem_grant_bytes = 8 * cfg.page_size;
    plan.assign_ids();
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    let delta = fx.clock.snapshot().since(&before);
    assert_eq!(rows.len(), 5000);
    assert!(rows.iter().all(|r| r.get(1) == &Value::Int(1)));
    assert!(delta.pages_written > 0, "should have spilled");
}

#[test]
fn index_nl_join_matches_hash_join() {
    let fx = Fixture::new();
    fx.load_r("a", 200, 20);
    fx.load_r("b", 500, 20);
    fx.catalog.create_index(&fx.storage, "b", "v").unwrap();
    let entry_b = fx.catalog.table("b").unwrap();

    let outer = fx.scan_plan("a", None);
    let schema = outer.schema.join(&entry_b.schema);
    let mut inl = PhysPlan::new(
        PhysOp::IndexNLJoin {
            outer_key: 1,
            inner: ScanSpec {
                table: "b".into(),
                file: entry_b.file,
                pages: fx.storage.file_pages(entry_b.file).unwrap() as u64,
                rows: 500,
            },
            index: entry_b.indexes["v"],
            inner_column: "v".into(),
            index_height: fx.storage.index_height(entry_b.indexes["v"]).unwrap(),
            clustering: 0.0,
            residual: None,
        },
        vec![outer],
        schema,
    );
    inl.assign_ids();
    let mut got = run_to_vec(&inl, &fx.ctx()).unwrap();

    let mut hj = hash_join_plan(
        fx.scan_plan("b", None),
        fx.scan_plan("a", None),
        "b.v",
        "a.v",
        1 << 20,
    );
    hj.assign_ids();
    let expect = run_to_vec(&hj, &fx.ctx()).unwrap();
    assert_eq!(got.len(), expect.len());
    // Sanity: INL output has matching keys.
    got.truncate(50);
    for r in &got {
        assert_eq!(r.get(1), r.get(4));
    }
}

#[test]
fn limit_stops_early() {
    let fx = Fixture::new();
    fx.load_r("r", 1000, 10);
    let input = fx.scan_plan("r", None);
    let schema = input.schema.clone();
    let mut plan = PhysPlan::new(PhysOp::Limit { n: 7 }, vec![input], schema);
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows.len(), 7);
}

#[test]
fn project_computes_expressions() {
    let fx = Fixture::new();
    fx.load_r("r", 10, 10);
    let input = fx.scan_plan("r", None);
    let in_schema = input.schema.clone();
    let out_schema = Schema::new(vec![
        Field::new("double_k", DataType::Int),
        Field::new("is_small", DataType::Bool),
    ])
    .unwrap();
    let exprs = vec![
        (
            mq_expr::Expr::Arith {
                op: mq_expr::ArithOp::Mul,
                left: Box::new(col("r.k")),
                right: Box::new(lit(2i64)),
            }
            .bind(&in_schema)
            .unwrap(),
            "double_k".to_string(),
        ),
        (
            cmp(CmpOp::Lt, col("r.k"), lit(5i64))
                .bind(&in_schema)
                .unwrap(),
            "is_small".to_string(),
        ),
    ];
    let mut plan = PhysPlan::new(PhysOp::Project { exprs }, vec![input], out_schema);
    plan.assign_ids();
    let rows = run_to_vec(&plan, &fx.ctx()).unwrap();
    assert_eq!(rows[3].get(0), &Value::Int(6));
    assert_eq!(rows[3].get(1), &Value::Bool(true));
    assert_eq!(rows[7].get(1), &Value::Bool(false));
}

/// Monitor that records events.
#[derive(Default)]
struct Recorder {
    collected: RefCell<Vec<ObservedStats>>,
    phases: RefCell<Vec<NodeId>>,
    switch_at: RefCell<Option<NodeId>>,
}

impl ExecMonitor for Recorder {
    fn on_collector(&self, stats: ObservedStats) -> Result<()> {
        self.collected.borrow_mut().push(stats);
        Ok(())
    }
    fn on_phase_complete(&self, node: NodeId) -> Result<()> {
        self.phases.borrow_mut().push(node);
        if *self.switch_at.borrow() == Some(node) {
            return Err(MqError::PlanSwitch(node.0));
        }
        Ok(())
    }
}

fn collector_over(input: PhysPlan, column: &str) -> PhysPlan {
    let schema = input.schema.clone();
    PhysPlan::new(
        PhysOp::StatsCollector {
            specs: vec![CollectorSpec {
                column: column.into(),
                histogram: true,
                distinct: true,
            }],
            site: "test".into(),
        },
        vec![input],
        schema,
    )
}

#[test]
fn collector_reports_exact_cardinality_and_histogram() {
    let fx = Fixture::new();
    fx.load_r("r", 400, 8);
    let scan = fx.scan_plan("r", Some(cmp(CmpOp::Lt, col("r.v"), lit(4i64))));
    let mut plan = collector_over(scan, "r.v");
    plan.assign_ids();

    let rec = Rc::new(Recorder::default());
    let ctx = fx.ctx().with_monitor(rec.clone());
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 200, "collector must pass rows through");

    let collected = rec.collected.borrow();
    assert_eq!(collected.len(), 1);
    let st = &collected[0];
    assert_eq!(st.rows, 200);
    assert!(st.avg_row_bytes > 10.0);
    let colstats = &st.columns["r.v"];
    assert!(
        (colstats.distinct - 4.0).abs() < 2.0,
        "distinct {}",
        colstats.distinct
    );
    let h = colstats.histogram.as_ref().unwrap();
    assert!(h.sel_eq(2.0) > 0.15, "v=2 is a quarter of rows");
}

#[test]
fn phase_hook_fires_on_build_completion_before_probe() {
    let fx = Fixture::new();
    fx.load_r("a", 50, 5);
    fx.load_r("b", 50, 5);
    let build = collector_over(fx.scan_plan("a", None), "a.v");
    let mut plan = hash_join_plan(build, fx.scan_plan("b", None), "a.v", "b.v", 1 << 20);
    plan.assign_ids();
    let join_id = plan.id;

    let rec = Rc::new(Recorder::default());
    let ctx = fx.ctx().with_monitor(rec.clone());
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 50 * 10);
    // Collector (inside the build) reported before the phase hook.
    assert_eq!(rec.collected.borrow().len(), 1);
    assert_eq!(rec.phases.borrow().as_slice(), &[join_id]);
}

#[test]
fn plan_switch_unwinds_and_artifact_survives() {
    let fx = Fixture::new();
    fx.load_r("a", 80, 4);
    fx.load_r("b", 80, 4);
    let build = collector_over(fx.scan_plan("a", None), "a.v");
    let mut plan = hash_join_plan(build, fx.scan_plan("b", None), "a.v", "b.v", 1 << 20);
    plan.assign_ids();
    let join_id = plan.id;

    let rec = Rc::new(Recorder::default());
    *rec.switch_at.borrow_mut() = Some(join_id);
    let ctx = fx.ctx().with_monitor(rec.clone());
    let err = run_to_vec(&plan, &ctx).unwrap_err();
    assert_eq!(err, MqError::PlanSwitch(join_id.0));
    // The build artifact survived the unwind.
    assert!(ctx.has_artifact(join_id));

    // Resume execution of the same plan WITHOUT the switch trigger: the
    // join must reuse the artifact and not re-run its build child (the
    // collector would have reported a second time otherwise).
    *rec.switch_at.borrow_mut() = None;
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 80 * 20);
    assert_eq!(
        rec.collected.borrow().len(),
        1,
        "build child must not re-run after resume"
    );
}

#[test]
fn materialize_writes_exact_stats() {
    let fx = Fixture::new();
    fx.load_r("r", 300, 6);
    let mut plan = fx.scan_plan("r", Some(cmp(CmpOp::Lt, col("r.v"), lit(3i64))));
    plan.assign_ids();
    let ctx = fx.ctx();
    let result = sink::materialize(&plan, &ctx).unwrap();
    assert_eq!(result.stats.rows, 150);
    assert!(result.stats.pages > 0);
    let vstats = &result.stats.columns["v"];
    assert_eq!(vstats.min, Some(Value::Int(0)));
    assert_eq!(vstats.max, Some(Value::Int(2)));
    // Reading the file back yields the same rows.
    let n = fx.storage.scan_file(result.file).unwrap().count();
    assert_eq!(n, 150);
}

#[test]
fn grant_update_takes_effect_for_unstarted_operator() {
    // Two-level plan: the upper join reads its grant at build start; a
    // grant update before open() must be honoured.
    let cfg = EngineConfig::default();
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("a", 1500, 30);
    fx.load_r("b", 1500, 30);
    let mut plan = hash_join_plan(
        fx.scan_plan("a", None),
        fx.scan_plan("b", None),
        "a.v",
        "b.v",
        2 * cfg.page_size, // would spill
    );
    plan.assign_ids();
    let ctx = fx.ctx();
    // Raise the grant before execution: no spill should occur.
    ctx.set_grant(plan.id, 4 << 20);
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &ctx).unwrap();
    let delta = fx.clock.snapshot().since(&before);
    assert_eq!(rows.len(), 1500 * 50);
    assert_eq!(delta.pages_written, 0, "raised grant must avoid spilling");
}

/// §2.3 extension: a grant raised *during* a build (triggered by a
/// provisional collector-progress report) averts the spill when it
/// lands before the table overflows.
#[test]
fn mid_build_grant_raise_averts_spill() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("big", 6000, 6000); // ~180 KB build side
    fx.load_r("probe", 100, 10);

    /// Raises the join's grant the moment the collector under its
    /// build reports progress — i.e. genuinely mid-build.
    struct ProgressRaiser {
        grants: std::sync::Arc<parking_lot::Mutex<std::collections::HashMap<NodeId, usize>>>,
        target: NodeId,
        fired: std::cell::Cell<u32>,
    }
    impl ExecMonitor for ProgressRaiser {
        fn on_collector(&self, _stats: ObservedStats) -> Result<()> {
            Ok(())
        }
        fn on_phase_complete(&self, _node: NodeId) -> Result<()> {
            Ok(())
        }
        fn on_collector_progress(&self, _node: NodeId, _rows: u64) -> Result<()> {
            self.fired.set(self.fired.get() + 1);
            self.grants.lock().insert(self.target, 8 << 20);
            Ok(())
        }
    }

    let build_scan = fx.scan_plan("big", None);
    let collected = collector_over(build_scan, "big.v");
    let mut plan = hash_join_plan(
        collected,
        fx.scan_plan("probe", None),
        "big.v",
        "probe.v",
        48 * cfg.page_size, // overflows around row ~3000 without the raise
    );
    plan.assign_ids();
    let join_id = plan.id;

    // Baseline: without the raise, the join must spill.
    {
        let ctx = fx.ctx();
        let before = fx.clock.snapshot();
        let rows = run_to_vec(&plan, &ctx).unwrap();
        let delta = fx.clock.snapshot().since(&before);
        assert!(!rows.is_empty());
        assert!(delta.pages_written > 0, "tiny grant must spill");
    }

    // With the progress-driven raise: no spill.
    let ctx = fx.ctx();
    let raiser = std::rc::Rc::new(ProgressRaiser {
        grants: ctx.share_grants(),
        target: join_id,
        fired: std::cell::Cell::new(0),
    });
    let ctx = ctx.with_monitor(raiser.clone());
    let before = fx.clock.snapshot();
    let rows = run_to_vec(&plan, &ctx).unwrap();
    let delta = fx.clock.snapshot().since(&before);
    assert!(!rows.is_empty());
    assert!(raiser.fired.get() >= 1, "progress hook must fire mid-build");
    assert_eq!(
        delta.pages_written, 0,
        "mid-build raise must avert the spill"
    );
}

/// A plan switch at a *sort* phase boundary: the sorted runs survive
/// the unwind and the resumed sort skips run generation entirely.
#[test]
fn sort_artifact_survives_plan_switch() {
    let cfg = EngineConfig {
        buffer_pool_pages: 16,
        ..EngineConfig::default()
    };
    let fx = Fixture::with_cfg(cfg.clone());
    fx.load_r("r", 2000, 13);

    let input = collector_over(fx.scan_plan("r", None), "r.v");
    let schema = input.schema.clone();
    let mut plan = PhysPlan::new(
        PhysOp::Sort {
            keys: vec![(0, true)],
        },
        vec![input],
        schema,
    );
    plan.annot.mem_grant_bytes = 4 * cfg.page_size; // external runs
    plan.assign_ids();
    let sort_id = plan.id;

    let rec = Rc::new(Recorder::default());
    *rec.switch_at.borrow_mut() = Some(sort_id);
    let ctx = fx.ctx().with_monitor(rec.clone());
    let err = run_to_vec(&plan, &ctx).unwrap_err();
    assert_eq!(err, MqError::PlanSwitch(sort_id.0));
    assert!(ctx.has_artifact(sort_id), "sorted runs must survive");

    // Resume: the collector under the sort must NOT re-run (its input
    // was already consumed into the runs).
    *rec.switch_at.borrow_mut() = None;
    let reports_before = rec.collected.borrow().len();
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 2000);
    assert_eq!(
        rec.collected.borrow().len(),
        reports_before,
        "run generation must not repeat"
    );
    // And the output is sorted.
    for w in rows.windows(2) {
        assert!(w[0].get(0) <= w[1].get(0));
    }
}

/// Aggregate output artifact survives a switch the same way.
#[test]
fn aggregate_artifact_survives_plan_switch() {
    let fx = Fixture::new();
    fx.load_r("r", 500, 7);
    let input = collector_over(fx.scan_plan("r", None), "r.v");
    let out_schema = Schema::new(vec![
        Field::qualified("r", "v", DataType::Int),
        Field::new("n", DataType::Int),
    ])
    .unwrap();
    let mut plan = PhysPlan::new(
        PhysOp::HashAggregate {
            group: vec![1],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
                name: "n".into(),
            }],
        },
        vec![input],
        out_schema,
    );
    plan.assign_ids();
    let agg_id = plan.id;

    let rec = Rc::new(Recorder::default());
    *rec.switch_at.borrow_mut() = Some(agg_id);
    let ctx = fx.ctx().with_monitor(rec.clone());
    assert_eq!(
        run_to_vec(&plan, &ctx).unwrap_err(),
        MqError::PlanSwitch(agg_id.0)
    );
    assert!(ctx.has_artifact(agg_id));

    *rec.switch_at.borrow_mut() = None;
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 7);
    assert_eq!(rec.collected.borrow().len(), 1, "input must not re-run");
}

/// A collector whose consumer stops early (LIMIT) still reports its
/// partial observations at close.
#[test]
fn collector_reports_partial_stats_on_early_stop() {
    let fx = Fixture::new();
    fx.load_r("r", 500, 5);
    let collected = collector_over(fx.scan_plan("r", None), "r.v");
    let schema = collected.schema.clone();
    let mut plan = PhysPlan::new(PhysOp::Limit { n: 10 }, vec![collected], schema);
    plan.assign_ids();

    let rec = Rc::new(Recorder::default());
    let ctx = fx.ctx().with_monitor(rec.clone());
    let rows = run_to_vec(&plan, &ctx).unwrap();
    assert_eq!(rows.len(), 10);
    let collected = rec.collected.borrow();
    assert_eq!(collected.len(), 1, "close must finalize");
    // Partial: at least the 10 limited rows were seen (the scan may
    // have been pulled slightly ahead).
    assert!(collected[0].rows >= 10);
    assert!(collected[0].rows < 500);
}
