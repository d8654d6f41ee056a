//! The UVaCG campus grid, assembled from the program's public
//! constructors so the benchmark holds every `Arc<Service>`: the same
//! deployment `CampusGrid::build` makes (without the monitoring plane,
//! which Figure 3 does not use), with each store wrapped in a
//! [`TimingStore`] and, on request, every hop moved onto loopback
//! sockets.

use std::sync::Arc;
use std::time::Duration;

use grid_node::{JobProgram, Machine, ProcSpawn};
use simclock::Clock;
use uvacg::es::{execution_service, EsConfig};
use uvacg::fss::file_system_service;
use uvacg::grid::{BROKER_ADDRESS, NIS_ADDRESS, SCHEDULER_ADDRESS, SCHEDULER_SUBJECT};
use uvacg::nis::{self, node_info_service};
use uvacg::scheduler::{scheduler_service, SchedulerConfig};
use uvacg::security::GridSecurity;
use uvacg::{Client, FastestAvailable, FileRef, GridConfig, JobSetSpec, JobSpec};
use ws_notification::broker::notification_broker;
use wsrf_core::store::MemoryStore;
use wsrf_obs::{MetricsRegistry, ObsConfig, TraceConfig};
use wsrf_transport::http::HttpSoapServer;
use wsrf_transport::tcpframe::FramedServer;
use wsrf_transport::{Endpoint, InProcNetwork, NetConfig};

use crate::store::{StoreStats, TimingStore};
use crate::wire::{Hosted, HttpRelay, Kind, Relay};

/// Address of the scheduler's own listener (as in `CampusGrid`).
const SCHEDULER_LISTENER: &str = "inproc://hub/SchedulerListener";
/// Virtual CPU seconds of every job (as in experiment E3).
pub const JOB_CPU_S: f64 = 5.0;
/// Bytes each job writes to `out.dat`.
pub const OUTPUT_BYTES: u64 = 1024;
/// Where the client keeps the job program.
const PROGRAM: &str = "C:\\prog.exe";

/// How a grid is deployed.
#[derive(Clone, Copy)]
pub struct GridSpec {
    pub machines: usize,
    /// WS-Security tokens, re-encrypted per Execution Service.
    pub secure: bool,
    /// Every hop over loopback sockets (else in process).
    pub sockets: bool,
    /// PKI seed.
    pub seed: u64,
}

impl GridSpec {
    /// The program's own configuration for the same deployment.
    pub fn config(&self) -> GridConfig {
        let mut cfg = GridConfig::with_machines(self.machines);
        cfg.secure = self.secure;
        cfg.seed = self.seed;
        cfg
    }
}

/// A deployed grid with one client workstation.
pub struct Grid {
    pub clock: Clock,
    pub net: Arc<InProcNetwork>,
    pub client: Client,
    relays: Vec<Arc<Relay>>,
    servers: Vec<FramedServer>,
    http: Option<HttpSoapServer>,
}

impl Grid {
    pub fn build(
        spec: GridSpec,
        client_id: &str,
        stats: &Arc<StoreStats>,
    ) -> std::io::Result<Grid> {
        let cfg = spec.config();
        let clock = Clock::manual();
        let metrics = MetricsRegistry::with_tracing(ObsConfig::enabled(), TraceConfig::disabled());
        let net = InProcNetwork::with_metrics(clock.clone(), NetConfig::default(), &metrics);
        let store = || TimingStore::wrap(Arc::new(MemoryStore::new()), stats);
        // (address, endpoint, layer, kind) of everything to host.
        let mut hosted: Vec<(String, Arc<dyn Endpoint>, &'static str, Kind)> = Vec::new();

        let security = spec.secure.then(|| {
            let sec = GridSecurity::new(cfg.seed);
            sec.enroll(SCHEDULER_SUBJECT);
            for m in &cfg.machines {
                sec.enroll(&format!("es@{}", m.name));
            }
            sec
        });

        let broker_svc = notification_broker(
            "Broker",
            BROKER_ADDRESS,
            store(),
            clock.clone(),
            net.clone(),
        );
        broker_svc.register(&net);
        let broker = broker_svc.core().service_epr();
        hosted.push((
            BROKER_ADDRESS.into(),
            broker_svc,
            "ws-notification.broker",
            Kind::Broker,
        ));

        let nis_svc = node_info_service(NIS_ADDRESS, store(), clock.clone(), net.clone());
        nis_svc.register(&net);
        hosted.push((NIS_ADDRESS.into(), nis_svc, "uvacg.nis", Kind::Other));

        let mut machines = Vec::new();
        for m in &cfg.machines {
            let machine = Machine::new(m.clone(), clock.clone());
            let name = &m.name;
            let fss_address = format!("inproc://{name}/FileSystem");
            let es_address = format!("inproc://{name}/Execution");
            let fss = file_system_service(
                name,
                machine.fs.clone(),
                store(),
                clock.clone(),
                net.clone(),
            );
            fss.register(&net);
            hosted.push((fss_address.clone(), fss, "uvacg.fss", Kind::Other));
            let es = execution_service(
                EsConfig {
                    machine: machine.clone(),
                    spawner: Arc::new(ProcSpawn::new(machine.clone())),
                    fss_address: fss_address.clone(),
                    broker: Some(broker.clone()),
                    security: security.as_ref().map(|s| (s.clone(), format!("es@{name}"))),
                    store: store(),
                },
                clock.clone(),
                net.clone(),
            );
            es.register(&net);
            hosted.push((es_address.clone(), es, "uvacg.es", Kind::Other));
            machines.push((machine, m.clone(), es_address, fss_address));
        }

        let scheduler = scheduler_service(
            SCHEDULER_ADDRESS,
            SchedulerConfig {
                nis_address: NIS_ADDRESS.to_string(),
                broker: broker.clone(),
                policy: Arc::new(FastestAvailable),
                security: security
                    .as_ref()
                    .map(|s| (s.clone(), SCHEDULER_SUBJECT.to_string())),
                store: store(),
                listener_address: SCHEDULER_LISTENER.to_string(),
                job_timeout: None,
                replicate: false,
            },
            clock.clone(),
            net.clone(),
        );
        scheduler.register(&net);
        // The scheduler reacts to job events inside its listener's
        // callbacks, so that listener's time is scheduler work.
        hosted.push((
            SCHEDULER_LISTENER.into(),
            Arc::new(scheduler.listener.clone()),
            "uvacg.scheduler.events",
            Kind::Other,
        ));

        let client = Client::new(
            client_id,
            net.clone(),
            clock.clone(),
            scheduler.epr(),
            security
                .as_ref()
                .map(|s| (s.clone(), SCHEDULER_SUBJECT.to_string())),
        );
        client.put_file(
            PROGRAM,
            JobProgram::compute(JOB_CPU_S)
                .writing("out.dat", OUTPUT_BYTES)
                .to_manifest(),
        );
        hosted.push((
            client.listener().epr().address,
            Arc::new(client.listener().clone()),
            "ws-notification.listener",
            Kind::Other,
        ));

        let mut grid = Grid {
            clock,
            net: net.clone(),
            client,
            relays: Vec::new(),
            servers: Vec::new(),
            http: None,
        };
        let sched: Arc<dyn Endpoint> = scheduler.service.clone();
        if spec.sockets {
            for (address, endpoint, layer, kind) in hosted {
                let hosted = Hosted::new(endpoint, layer, kind);
                let offer = hosted.offer_slot();
                let server = FramedServer::start(hosted)?;
                let relay = Relay::new(server.authority(), kind, offer);
                net.register(address, relay.clone() as Arc<dyn Endpoint>);
                grid.relays.push(relay);
                grid.servers.push(server);
            }
            let target = Hosted::new(sched, "uvacg.scheduler", Kind::Other);
            let http = HttpSoapServer::start(target.clone())?;
            net.register(
                SCHEDULER_ADDRESS,
                HttpRelay::new(http.authority(), "Scheduler", target.offer_slot())
                    as Arc<dyn Endpoint>,
            );
            grid.http = Some(http);
        } else {
            for (address, endpoint, layer, kind) in hosted {
                net.register(address, Hosted::new(endpoint, layer, kind));
            }
            net.register(
                SCHEDULER_ADDRESS,
                Hosted::new(sched, "uvacg.scheduler", Kind::Other),
            );
        }

        // Machine registration and the utilization monitors go through
        // whatever now sits at each address.
        for (machine, m, es_address, fss_address) in machines {
            nis::register_machine(
                &net,
                NIS_ADDRESS,
                &m.name,
                m.cpu_mhz,
                m.cores,
                m.ram_mb,
                &es_address,
                &fss_address,
            )
            .map_err(|f| std::io::Error::other(format!("NIS registration failed: {f}")))?;
            let net_m = net.clone();
            let name = m.name.clone();
            machine.monitor_utilization(cfg.utilization_delta, move |u| {
                let _ = nis::report_utilization(&net_m, NIS_ADDRESS, &name, u);
            });
        }
        Ok(grid)
    }
}

impl Drop for Grid {
    /// Services hold the network and the network holds whatever serves
    /// each address, so the grid frees only once every address is
    /// unregistered and every relay connection is closed.
    fn drop(&mut self) {
        for address in self.net.addresses() {
            self.net.unregister(&address);
        }
        for relay in &self.relays {
            relay.close();
        }
        self.servers.clear();
        self.http = None;
    }
}

/// A job set of `n` jobs: `diamond` (repeated root → two sides → join
/// diamonds, chained) or `fanout` (one root feeding `n - 1` jobs).
pub fn shaped_spec(shape: &str, n: usize, name: &str) -> JobSetSpec {
    let exe = FileRef::parse(&format!("local://{PROGRAM}")).expect("static file ref");
    let dep = |job: &str| FileRef::parse(&format!("{job}://out.dat")).expect("job file ref");
    let mut spec = JobSetSpec::new(name);
    spec = spec.job(JobSpec::new("j0", exe.clone()).output("out.dat"));
    match shape {
        "fanout" => {
            for i in 1..n {
                spec = spec.job(
                    JobSpec::new(format!("j{i}"), exe.clone())
                        .input(dep("j0"), "seed.dat")
                        .output("out.dat"),
                );
            }
        }
        "diamond" => {
            let mut prev = "j0".to_string();
            let mut i = 1;
            while i + 2 < n {
                let (l, r, join) = (
                    format!("j{i}"),
                    format!("j{}", i + 1),
                    format!("j{}", i + 2),
                );
                for side in [&l, &r] {
                    spec = spec.job(
                        JobSpec::new(side, exe.clone())
                            .input(dep(&prev), "in.dat")
                            .output("out.dat"),
                    );
                }
                spec = spec.job(
                    JobSpec::new(&join, exe.clone())
                        .input(dep(&l), "a.dat")
                        .input(dep(&r), "b.dat")
                        .output("out.dat"),
                );
                prev = join;
                i += 3;
            }
        }
        other => panic!("unknown job-set shape '{other}'"),
    }
    spec
}

/// Virtual-time budget for one job set before it counts as failed.
pub const SET_BUDGET: Duration = Duration::from_secs(600);
