//! The cluster: the engine with a [`Transport`] as its channel.
//!
//! A [`Cluster`] is a [`radio_sim::engine::Engine`] built over a
//! [`TransportChannel`], so its rounds are the engine's rounds — same
//! fault step, callback order, per-node RNG derivation, drop-burst coin
//! discipline, trace and telemetry — and the processes communicate *only*
//! through the transport. Any divergence from a simulator run is
//! therefore attributable to the network model alone.

use crate::transport::{Transport, TransportChannel};
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::Environment;
use radio_sim::fault::FaultPlan;
use radio_sim::graph::DualGraph;
use radio_sim::process::Process;
use radio_sim::scheduler::NoExtraEdges;
use radio_sim::trace::{RecordingPolicy, Trace};
use std::sync::Arc;

/// Everything a cluster needs besides the transport, the processes, the
/// environment, and the seed: an engine [`Configuration`] without the
/// channel (its scheduler and shard count configure the simulator's
/// channel, which a cluster replaces with the transport).
#[derive(Debug)]
pub struct ClusterConfig(Configuration);

impl ClusterConfig {
    /// A config with the identity id assignment, `r = 2`, and
    /// output-only recording — the defaults of
    /// [`Configuration::new`].
    pub fn new(graph: impl Into<Arc<DualGraph>>) -> Self {
        ClusterConfig(Configuration::new(graph, Box::new(NoExtraEdges)))
    }

    /// Sets the geographic parameter `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r < 1`.
    pub fn with_r(self, r: f64) -> Self {
        ClusterConfig(self.0.with_r(r))
    }

    /// Sets the trace recording policy.
    pub fn with_recording(self, recording: RecordingPolicy) -> Self {
        ClusterConfig(self.0.with_recording(recording))
    }

    /// Installs a fault plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan references a vertex outside the graph or
    /// contains a malformed window/probability.
    pub fn with_faults(self, faults: FaultPlan) -> Self {
        ClusterConfig(self.0.with_faults(faults))
    }
}

/// The engine whose channel is the transport `T`.
///
/// A cluster has no round logic of its own: it dereferences to its
/// [`Engine`], so `run`, `run_until`, `step`, `trace`, `telemetry` and
/// the rest are the engine's.
pub struct Cluster<P: Process, T> {
    engine: Engine<P, TransportChannel<T, P::Msg>>,
}

impl<P: Process, T: Transport<P::Msg>> Cluster<P, T> {
    /// Builds a cluster from a config, a transport, one process per
    /// vertex, an environment, and the master seed (per-node streams
    /// derive exactly as in [`Engine::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `procs.len()` differs from the graph's vertex count.
    pub fn new(
        config: ClusterConfig,
        transport: T,
        procs: Vec<P>,
        env: Box<dyn Environment<P::Input, P::Output>>,
        master_seed: u64,
    ) -> Self {
        Cluster {
            engine: Engine::with_channel(
                config.0,
                TransportChannel::new(transport),
                procs,
                env,
                master_seed,
            ),
        }
    }

    /// The processes, in vertex order.
    pub fn processes(&self) -> std::slice::Iter<'_, P> {
        self.engine.processes().iter()
    }

    /// The transport the cluster routes over.
    pub fn transport(&self) -> &T {
        self.engine.channel().transport()
    }

    /// Consumes the cluster, yielding the trace.
    pub fn into_trace(self) -> Trace<P::Input, P::Output, P::Msg> {
        self.engine.into_trace()
    }
}

impl<P: Process, T> std::ops::Deref for Cluster<P, T> {
    type Target = Engine<P, TransportChannel<T, P::Msg>>;

    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

impl<P: Process, T> std::ops::DerefMut for Cluster<P, T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{LinkSet, MockNetConfig, MockNetTransport};
    use radio_sim::environment::NullEnvironment;
    use radio_sim::graph::NodeId;
    use radio_sim::process::{Action, Context};

    /// The engine test suite's beacon: transmits its fixed message on
    /// configured rounds, outputs every message it hears.
    struct Beacon {
        msg: u32,
        tx_rounds: Vec<u64>,
        heard: Vec<u32>,
    }

    impl Beacon {
        fn new(msg: u32, tx_rounds: Vec<u64>) -> Self {
            Beacon {
                msg,
                tx_rounds,
                heard: Vec::new(),
            }
        }
    }

    impl Process for Beacon {
        type Msg = u32;
        type Input = ();
        type Output = u32;

        fn on_input(&mut self, _input: (), _ctx: &mut Context<'_>) {}

        fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
            if self.tx_rounds.contains(&ctx.round) {
                Action::Transmit(self.msg)
            } else {
                Action::Receive
            }
        }

        fn on_receive(&mut self, msg: Option<u32>, _ctx: &mut Context<'_>) {
            if let Some(m) = msg {
                self.heard.push(m);
            }
        }

        fn take_outputs(&mut self) -> Vec<u32> {
            std::mem::take(&mut self.heard)
        }
    }

    fn reliable_mock_net(g: &DualGraph) -> MockNetTransport<u32> {
        MockNetTransport::new(
            g.clone(),
            MockNetConfig {
                links: LinkSet::Reliable,
                ..MockNetConfig::default()
            },
            1,
        )
    }

    #[test]
    fn mock_net_cluster_delivers_over_links() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let config = ClusterConfig::new(g.clone()).with_recording(RecordingPolicy::full());
        let procs = vec![Beacon::new(7, vec![1]), Beacon::new(9, vec![])];
        let mut cluster = Cluster::new(
            config,
            reliable_mock_net(&g),
            procs,
            Box::new(NullEnvironment),
            1,
        );
        cluster.run(2);
        let outs: Vec<_> = cluster.trace().outputs().collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(*outs[0].2, 7);
        assert_eq!(outs[0].1, NodeId(1));
    }

    #[test]
    #[should_panic(expected = "one process per vertex")]
    fn cluster_rejects_wrong_process_count() {
        let g = DualGraph::reliable_only(2, [(0, 1)]).unwrap();
        let _ = Cluster::new(
            ClusterConfig::new(g.clone()),
            reliable_mock_net(&g),
            vec![Beacon::new(1, vec![])],
            Box::new(NullEnvironment),
            1,
        );
    }
}
