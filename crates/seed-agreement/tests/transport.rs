//! `SeedAlg` off the simulator: the unmodified `SeedProcess` runs on the
//! engine over the `net` crate's mock network, and the deterministic
//! `Seed(δ, ε)` conditions hold on the resulting traces.

use net::{Cluster, ClusterConfig, MockNetConfig, MockNetTransport};
use radio_sim::environment::NullEnvironment;
use radio_sim::topology;
use radio_sim::trace::RecordingPolicy;
use seed_agreement::{spec, SeedConfig, SeedProcess};

/// Seed agreement's safety conditions are channel-independent: even over
/// a delayed, lossy mock network the execution stays well-formed and
/// consistent (decisions may thin out, but never conflict).
#[test]
fn seed_safety_holds_over_a_degraded_mock_network() {
    let topo = topology::line(6, 0.9, 2.0);
    let cfg = SeedConfig::practical(0.125, 64);
    let total = cfg.total_rounds(topo.graph.delta());

    let procs: Vec<SeedProcess> = (0..6).map(|_| SeedProcess::new(cfg.clone())).collect();
    let transport = MockNetTransport::new(
        topo.graph.clone(),
        MockNetConfig {
            delay_rounds: 1,
            loss_p: 0.2,
            ..MockNetConfig::default()
        },
        53,
    );
    let config = ClusterConfig::new(topo.graph.clone())
        .with_r(topo.r)
        .with_recording(RecordingPolicy::full());
    let mut cluster = Cluster::new(config, transport, procs, Box::new(NullEnvironment), 53);
    cluster.run(total);
    let trace = cluster.into_trace();

    spec::check_well_formedness(&trace).expect("well-formed over the mock network");
    spec::check_consistency(&trace).expect("consistent over the mock network");
}
