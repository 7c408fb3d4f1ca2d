//! The request-tracing chain: client → proxy → backend memcached tiers
//! with Nahida-style in-band context propagation.
//!
//! The client's TX stack injects the 4-byte trace-ID trailer
//! ([`vnet_sim::device::TraceIdRole::Inject`]); the proxy tier forwards
//! the request *payload verbatim* — trailer included — so the same ID is
//! observable at every tap along the chain even though the proxy mints a
//! brand-new packet for the upstream hop. The `request-trace` module taps
//! the chain at four points (client egress, proxy ingress, proxy egress,
//! backend ingress) and the per-request segment latencies joined by that
//! ID decompose the end-to-end request latency across tiers — the
//! cross-tier decomposition the scenario-pack CI step asserts sums
//! exactly to the end-to-end figure.

use std::cell::RefCell;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel, TraceIdRole};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::FlowKey;
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_sim::NodeId;
use vnet_workloads::stats::LatencyRecorder;
use vnet_workloads::{DataCachingClient, DataCachingServer, MemcachedProxy};
use vnettracer::config::{ControlPackage, FilterRule, GlobalConfig};
use vnettracer::modules::{ModuleRegistry, ModuleScope, TapSpec};
use vnettracer::{Agent, VNetTracer};

use crate::route;

/// Client tier address.
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 1);
/// Proxy tier address.
pub const PROXY_IP: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 2);
/// Backend tier address.
pub const BACKEND_IP: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 3);
/// Client UDP source port.
pub const CLIENT_PORT: u16 = 41000;
/// Proxy's client-facing memcached port.
pub const PROXY_PORT: u16 = 11212;
/// Proxy's upstream source port.
pub const UPSTREAM_PORT: u16 = 42000;
/// Backend memcached port.
pub const BACKEND_PORT: u16 = 11211;

/// Knobs for one chain run.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// World RNG seed.
    pub seed: u64,
    /// Requests the client issues.
    pub requests: u64,
    /// Client request rate (requests per second).
    pub rps: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            seed: 23,
            requests: 50,
            rps: 5000,
        }
    }
}

/// The built chain.
#[derive(Debug)]
pub struct MemcachedChain {
    /// The simulated world.
    pub world: World,
    /// Client tier node.
    pub client: NodeId,
    /// Proxy tier node.
    pub proxy: NodeId,
    /// Backend tier node.
    pub backend: NodeId,
    /// Client-observed response latencies.
    pub latency: Rc<RefCell<LatencyRecorder>>,
    cfg: ChainConfig,
}

impl MemcachedChain {
    /// Builds the three tiers.
    pub fn build(cfg: &ChainConfig) -> Self {
        let mut w = World::new(cfg.seed);
        let client = w.add_node("client", 4, NodeClock::perfect());
        let proxy = w.add_node("proxy", 8, NodeClock::perfect());
        let backend = w.add_node("backend", 8, NodeClock::perfect());

        // Client: the TX stack injects the in-band trace ID.
        let c_tx = w.add_device(
            DeviceConfig::new("c-tx", client)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
                .trace_id(TraceIdRole::Inject),
        );
        let c_rx = w.add_device(
            DeviceConfig::new("c-rx", client)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .forwarding(Forwarding::Deliver),
        );

        // Proxy: must neither strip nor re-inject, so the client's ID
        // survives the tier boundary inside the forwarded payload.
        let p_rx = w.add_device(
            DeviceConfig::new("p-rx", proxy)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .forwarding(Forwarding::Deliver),
        );
        let p_tx = w.add_device(
            DeviceConfig::new("p-tx", proxy)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500))),
        );

        // Backend.
        let b_rx = w.add_device(
            DeviceConfig::new("b-rx", backend)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .forwarding(Forwarding::Deliver),
        );
        let b_tx = w.add_device(
            DeviceConfig::new("b-tx", backend)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500))),
        );

        let hop = SimDuration::from_micros(20);
        w.connect(c_tx, p_rx, hop);
        let p_up = w.connect(p_tx, b_rx, hop);
        let p_down = w.connect(p_tx, c_rx, hop);
        route(&mut w, p_tx, &[(BACKEND_IP, p_up), (CLIENT_IP, p_down)]);
        w.connect(b_tx, p_rx, hop);

        let client_flow = FlowKey::udp(
            SocketAddrV4::new(CLIENT_IP, CLIENT_PORT),
            SocketAddrV4::new(PROXY_IP, PROXY_PORT),
        );
        let upstream = FlowKey::udp(
            SocketAddrV4::new(PROXY_IP, UPSTREAM_PORT),
            SocketAddrV4::new(BACKEND_IP, BACKEND_PORT),
        );

        let latency = LatencyRecorder::shared();
        let client_app = w.add_app(
            client,
            c_tx,
            Box::new(DataCachingClient::new(
                client_flow,
                cfg.rps,
                cfg.requests,
                Rc::clone(&latency),
            )),
        );
        let proxy_app = w.add_app(proxy, p_tx, Box::new(MemcachedProxy::new(upstream)));
        let server_app = w.add_app(backend, b_tx, Box::new(DataCachingServer::new()));
        // Requests from the client and responses from the backend both
        // land on the proxy's RX stack, on different ports.
        w.bind_app(p_rx, PROXY_PORT, proxy_app);
        w.bind_app(p_rx, UPSTREAM_PORT, proxy_app);
        w.bind_app(b_rx, BACKEND_PORT, server_app);
        w.bind_app(c_rx, CLIENT_PORT, client_app);

        MemcachedChain {
            world: w,
            client,
            proxy,
            backend,
            latency,
            cfg: cfg.clone(),
        }
    }

    /// Where the `request-trace` module taps the chain, in path order:
    /// client egress, proxy ingress, proxy egress, backend ingress. The
    /// first two watch the client → proxy flow, the last two the
    /// proxy → backend flow; the in-band ID joins them.
    pub fn module_scope(&self) -> ModuleScope {
        let req1 = FilterRule::udp_flow((CLIENT_IP, CLIENT_PORT), (PROXY_IP, PROXY_PORT));
        let req2 = FilterRule::udp_flow((PROXY_IP, UPSTREAM_PORT), (BACKEND_IP, BACKEND_PORT));
        ModuleScope {
            request_taps: vec![
                TapSpec::tx("req_client", "client", "c-tx", req1),
                TapSpec::rx("req_proxy_in", "proxy", "p-rx", req1),
                TapSpec::tx("req_proxy_out", "proxy", "p-tx", req2),
                TapSpec::rx("req_backend", "backend", "b-rx", req2),
            ],
            ..Default::default()
        }
    }

    /// The chain's tap tables in path order, for
    /// [`vnettracer::metrics::decompose`] and
    /// [`vnettracer::metrics::per_packet_segments`].
    pub fn decomposition_chain() -> [&'static str; 4] {
        ["req_client", "req_proxy_in", "req_proxy_out", "req_backend"]
    }

    /// The `requests` profile packaged over this chain's scope.
    pub fn control_package(&self) -> ControlPackage {
        ModuleRegistry::builtin()
            .package("requests", &self.module_scope(), GlobalConfig::default())
            .expect("builtin requests profile resolves")
    }

    /// A tracer with an agent on each tier.
    pub fn make_tracer(&self) -> VNetTracer {
        self.make_tracer_with_db(vnet_tsdb::TraceDb::new())
    }

    /// Like [`MemcachedChain::make_tracer`] with a caller-provided trace
    /// database (e.g. a disk-backed one).
    pub fn make_tracer_with_db(&self, db: vnet_tsdb::TraceDb) -> VNetTracer {
        let mut tracer = VNetTracer::with_db(db);
        tracer.add_agent(Agent::new(self.client, "client", 4));
        tracer.add_agent(Agent::new(self.proxy, "proxy", 8));
        tracer.add_agent(Agent::new(self.backend, "backend", 8));
        tracer
    }

    /// Runs the request phase plus drain margin.
    pub fn run(&mut self) {
        let span =
            SimDuration::from_nanos((1_000_000_000 / self.cfg.rps) * (self.cfg.requests + 1));
        self.world.run_for(span + SimDuration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_completes_through_the_proxy() {
        let cfg = ChainConfig::default();
        let mut chain = MemcachedChain::build(&cfg);
        chain.run();
        let s = chain.latency.borrow_mut().summary().unwrap();
        assert_eq!(
            s.count, cfg.requests as usize,
            "every request gets a response"
        );
        // Two 20us hops out, two back, plus device services: RTT > 80us.
        assert!(s.p50_ns > 80_000, "median RTT {}ns", s.p50_ns);
    }

    #[test]
    fn traced_chain_observes_all_requests_at_all_taps() {
        let cfg = ChainConfig::default();
        let mut chain = MemcachedChain::build(&cfg);
        let pkg = chain.control_package();
        let mut tracer = chain.make_tracer();
        tracer.deploy(&mut chain.world, &pkg).unwrap();
        chain.run();
        tracer.collect(&chain.world);
        for table in MemcachedChain::decomposition_chain() {
            let t = tracer.db().table(table).unwrap_or_else(|| {
                panic!("table {table} must exist");
            });
            assert_eq!(t.len(), cfg.requests as usize, "table {table}");
        }
    }
}
