//! Property: a zero-delay, lossless, partition-free mock network is the
//! simulator's channel. Over `LinkSet::All` it is the `AllExtraEdges`
//! channel (`Gₜ = G'`), over `LinkSet::Reliable` the `NoExtraEdges` one
//! (`Gₜ = G`): the engine produces the same events and channel stats
//! through either, across random topologies, fault plans, and shard
//! counts of the sim side.

use net::{Cluster, ClusterConfig, LinkSet, MockNetConfig, MockNetTransport};
use proptest::prelude::*;
use radio_sim::engine::{Configuration, Engine};
use radio_sim::environment::NullEnvironment;
use radio_sim::fault::FaultPlan;
use radio_sim::graph::NodeId;
use radio_sim::process::{Action, Context, Process};
use radio_sim::scheduler::{AllExtraEdges, LinkScheduler, NoExtraEdges};
use radio_sim::topology::{self, RggParams};
use radio_sim::trace::RecordingPolicy;

/// Transmits on a seed-and-vertex-dependent schedule, relays the last
/// heard message — enough state to make any desynchronization between
/// the two channels cascade into a visible trace difference.
#[derive(Clone)]
struct Chatter {
    vertex: u32,
    period: u64,
    last_heard: Option<u32>,
}

impl Process for Chatter {
    type Msg = u32;
    type Input = ();
    type Output = u32;

    fn on_input(&mut self, _input: (), _ctx: &mut Context<'_>) {}

    fn transmit(&mut self, ctx: &mut Context<'_>) -> Action<u32> {
        // A random coin every round keeps each node's RNG advancing, so
        // a skipped-callback bug anywhere desyncs everything after it.
        use rand::Rng;
        let coin = ctx.rng.gen_bool(0.5);
        if ctx.round % self.period == u64::from(self.vertex) % self.period && coin {
            Action::Transmit(self.vertex * 1000 + (ctx.round as u32 % 1000))
        } else {
            Action::Receive
        }
    }

    fn on_receive(&mut self, msg: Option<u32>, _ctx: &mut Context<'_>) {
        if msg.is_some() {
            self.last_heard = msg;
        }
    }

    fn take_outputs(&mut self) -> Vec<u32> {
        self.last_heard.take().into_iter().collect()
    }
}

fn chatters(n: usize, period: u64) -> Vec<Chatter> {
    (0..n)
        .map(|v| Chatter {
            vertex: v as u32,
            period,
            last_heard: None,
        })
        .collect()
}

fn fault_plan_for(kind: u8, n: usize, drop_p: f64) -> FaultPlan {
    let plan = FaultPlan::none();
    match kind % 4 {
        0 => plan,
        1 => plan.with_crash(NodeId(n / 2), 2, Some(6)),
        2 => plan.with_crash(NodeId(n / 3), 3, Some(7)).with_jam(
            vec![NodeId(0), NodeId(n - 1)],
            2,
            5,
        ),
        _ => plan
            .with_jam(vec![NodeId(n / 2)], 4, 8)
            .with_drop_burst(1, 10, drop_p),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synchronous_mock_net_is_the_sim_channel(
        n in 8usize..40,
        topo_seed in 0u64..1000,
        master_seed in 0u64..1000,
        all_links in proptest::bool::ANY,
        fault_kind in 0u8..4,
        drop_p in 0.0f64..1.0,
        shards in 1usize..5,
        period in 2u64..6,
        rounds in 4u64..16,
    ) {
        let topo = topology::random_geometric(RggParams {
            n,
            side: 3.0,
            r: 2.0,
            grey_reliable_p: 0.2,
            grey_unreliable_p: 0.7,
            seed: topo_seed,
        });
        let (links, scheduler): (LinkSet, Box<dyn LinkScheduler>) = if all_links {
            (LinkSet::All, Box::new(AllExtraEdges))
        } else {
            (LinkSet::Reliable, Box::new(NoExtraEdges))
        };
        let faults = fault_plan_for(fault_kind, n, drop_p);

        let config = Configuration::new(topo.graph.clone(), scheduler)
            .with_r(topo.r)
            .with_recording(RecordingPolicy::full())
            .with_faults(faults.clone())
            .with_shards(shards);
        let mut sim = Engine::new(config, chatters(n, period), Box::new(NullEnvironment), master_seed);
        sim.run(rounds);
        let reference = sim.into_trace();

        let transport = MockNetTransport::new(
            topo.graph.clone(),
            MockNetConfig {
                links,
                ..MockNetConfig::default()
            },
            master_seed,
        );
        let config = ClusterConfig::new(topo.graph.clone())
            .with_r(topo.r)
            .with_recording(RecordingPolicy::full())
            .with_faults(faults);
        let mut mock = Cluster::new(
            config,
            transport,
            chatters(n, period),
            Box::new(NullEnvironment),
            master_seed,
        );
        mock.run(rounds);
        let trace = mock.into_trace();

        prop_assert_eq!(&reference.events, &trace.events);
        prop_assert_eq!(&reference.round_stats, &trace.round_stats);
        prop_assert_eq!(reference.rounds, trace.rounds);
    }
}
