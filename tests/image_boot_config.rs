//! Booting a [`Server`] from a graph image installs the image's shards when
//! their layout matches the config and re-shards the graph otherwise; either
//! way the server answers like the scalar oracle. An invalid
//! `GOPT_PARTITIONER` must still fail the boot (and a runtime image swap) with
//! a typed [`ExecError::Config`].
//!
//! Environment variables are process-global, so this whole suite is ONE test
//! function in its own integration-test binary.

use gopt::exec::{Backend, ExecError, ExecMode, SingleMachineBackend};
use gopt::glogue::GLogueConfig;
use gopt::graph::stats::GraphStats;
use gopt::graph::{image, PartitionedGraph};
use gopt::server::{Server, ServerConfig, ServerError};
use gopt::workloads::{generate_ldbc_graph, qr_queries, LdbcScale};

const GLOGUE_CFG: GLogueConfig = GLogueConfig {
    max_pattern_vertices: 3,
    max_anchors: Some(300),
    seed: 3,
};

/// Set `var` for the duration of `f`, always restoring the previous state.
fn with_env<R>(var: &str, value: Option<&str>, f: impl FnOnce() -> R) -> R {
    let prev = std::env::var_os(var);
    match value {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    let out = f();
    match prev {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    out
}

fn expect_partitioner_err<T: std::fmt::Debug>(r: Result<T, ServerError>, tag: &str) {
    match r {
        Err(ServerError::Exec(ExecError::Config(msg))) => assert!(
            msg.contains("GOPT_PARTITIONER"),
            "{tag}: error must name the offending variable, got {msg:?}"
        ),
        other => panic!("{tag}: expected ExecError::Config, got {other:?}"),
    }
}

fn assert_oracle_equal(server: &Server, tag: &str) {
    let oracle = SingleMachineBackend::new().with_mode(ExecMode::Scalar);
    let session = server.session();
    for q in qr_queries() {
        let out = session.submit(&q.text).expect("submit");
        let want = oracle
            .execute(&server.graph(), &out.exec_plan)
            .expect("oracle executes")
            .rows();
        assert_eq!(out.result.rows(), want, "{tag}: {} diverges", q.name);
    }
}

#[test]
fn image_boot_honours_layout_and_partitioner_env() {
    let base = ServerConfig::default();
    let path = std::env::temp_dir().join(format!("gopt_image_boot_{}.img", std::process::id()));
    let graph = generate_ldbc_graph(&LdbcScale::tiny());
    let pg = PartitionedGraph::build(&graph, base.partitions);
    image::write_image(&graph, &pg, &GraphStats::from_graph(&graph), &path).expect("write");

    with_env("GOPT_PARTITIONER", None, || {
        // the image's hash layout matches: its shards are used as they are
        let server = Server::from_image(&path, &GLOGUE_CFG, base.clone()).expect("boot");
        assert_oracle_equal(&server, "matching layout");
        // other hub count or partition count: the loaded graph is re-sharded
        for config in [
            ServerConfig {
                replicate_hubs: 4,
                ..base.clone()
            },
            ServerConfig {
                partitions: 3,
                ..base.clone()
            },
        ] {
            let server = Server::from_image(&path, &GLOGUE_CFG, config).expect("boot");
            assert_oracle_equal(&server, "re-sharded layout");
        }
    });
    with_env("GOPT_PARTITIONER", Some("greedy"), || {
        let server = Server::from_image(&path, &GLOGUE_CFG, base.clone()).expect("boot");
        assert_oracle_equal(&server, "greedy over a hash image");
    });
    let running = with_env("GOPT_PARTITIONER", None, || {
        Server::from_image(&path, &GLOGUE_CFG, base.clone()).expect("boot")
    });
    for bad in ["fennel", "modulo"] {
        with_env("GOPT_PARTITIONER", Some(bad), || {
            expect_partitioner_err(
                Server::from_image(&path, &GLOGUE_CFG, base.clone()),
                &format!("from_image partitioner={bad:?}"),
            );
            expect_partitioner_err(
                running.load_image(&path, &GLOGUE_CFG),
                &format!("load_image partitioner={bad:?}"),
            );
        });
    }
    std::fs::remove_file(&path).ok();
}
