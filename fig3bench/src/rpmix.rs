//! The `rp-mix` workload: a steady WSRF request path over `soap.tcp`
//! with no job sets running. Persistent connections send seeded,
//! uniformly spread `GetResourceProperty` reads and
//! `SetResourceProperties` updates to Execution Service job resources
//! preloaded in set-up. The ES keeps its resources in a
//! `DurableStore`, so every write appends to an on-disk WAL.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use grid_node::{Machine, MachineSpec, ProcSpawn};
use simclock::Clock;
use uvacg::es::{execution_service, EsConfig};
use wsrf_core::porttypes::wsrp_action;
use wsrf_core::store::MemoryStore;
use wsrf_core::{DurableStore, PropertyDoc, ResourceStore};
use wsrf_soap::ns::{UVACG, WSRP};
use wsrf_soap::{EndpointReference, Envelope, MessageInfo};
use wsrf_transport::tcpframe::{FramedClient, FramedServer};
use wsrf_transport::InProcNetwork;
use wsrf_xml::{Element, QName};

use crate::affinity;
use crate::rng::Rng;
use crate::store::{StoreStats, TimingStore};
use crate::wire::{self, Hosted, Kind};
use crate::{run_round, trace, Gate, Round};

/// Where the WAL directories go, relative to the working directory.
pub const SCRATCH_DIR: &str = ".fig3bench-tmp";

pub struct RpMix {
    pub connections: usize,
    pub resources: usize,
    /// Share of operations that are reads.
    pub read_share: f64,
    pub warmup_ops: usize,
    pub ops_per_connection: usize,
}

/// Every tag's value before any write.
const INITIAL: &str = "initial";

fn tag(conn: usize) -> QName {
    QName::new(UVACG, format!("Tag{conn}"))
}

fn job_doc(i: usize, connections: usize) -> PropertyDoc {
    let mut doc = PropertyDoc::new();
    doc.set_text(QName::new(UVACG, "JobName"), format!("job{i}"));
    doc.set_text(QName::new(UVACG, "Status"), "Exited");
    doc.set_i64(QName::new(UVACG, "ExitCode"), 0);
    doc.set_f64(QName::new(UVACG, "CpuTime"), 5.0);
    for c in 0..connections {
        doc.set_text(tag(c), INITIAL);
    }
    doc
}

fn read_request(epr: &EndpointReference, conn: usize) -> Envelope {
    let mut env =
        Envelope::new(Element::new(WSRP, "GetResourceProperty").text(tag(conn).to_string()));
    MessageInfo::request(epr.clone(), wsrp_action("GetResourceProperty")).apply(&mut env);
    env
}

fn write_request(epr: &EndpointReference, conn: usize, value: &str) -> Envelope {
    let update = Element::new(WSRP, "Update").child(Element::with_name(tag(conn)).text(value));
    let mut env = Envelope::new(Element::new(WSRP, "SetResourceProperties").child(update));
    MessageInfo::request(epr.clone(), wsrp_action("SetResourceProperties")).apply(&mut env);
    env
}

/// One connection's closed loop.
struct Loop<'a> {
    conn: usize,
    client: &'a FramedClient,
    eprs: &'a [EndpointReference],
    /// What this connection last wrote to each resource.
    expected: Vec<String>,
    rng: Rng,
    read_share: f64,
    written: u64,
}

impl Loop<'_> {
    /// One checked operation, recorded into `out`.
    fn op(&mut self, group: u64, out: &mut Round) {
        let r = self.rng.below(self.eprs.len() as u64) as usize;
        let is_read = (self.rng.next_u64() as f64 / u64::MAX as f64) < self.read_share;
        let value = format!(
            "c{}-{}-{:x}",
            self.conn,
            self.written,
            self.rng.next_u64() & 0xffff
        );
        let env = if is_read {
            read_request(&self.eprs[r], self.conn)
        } else {
            write_request(&self.eprs[r], self.conn, &value)
        };
        out.attempted += 1;
        let traced = trace::enabled();
        if traced {
            wire::observe_request(&env, Kind::Other, true);
        }
        let root = trace::root("rp.op", group);
        let started = Instant::now();
        let resp = {
            let _s = trace::span("wsrf-transport.relay");
            self.client.call(&env)
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        drop(root);
        wire::record_exchange(started);
        if let (true, Ok(r)) = (traced, &resp) {
            wire::observe_response(r);
        }
        let resp = match resp {
            Ok(resp)
                if !resp.is_fault()
                    && (!is_read || resp.body.text_content() == self.expected[r]) =>
            {
                resp
            }
            other => {
                let kind = if is_read { "read" } else { "write" };
                let got = other.map(|e| e.to_xml());
                out.fail(format!(
                    "connection {}: {kind} of resource {r} went wrong: {got:?}",
                    self.conn
                ));
                return;
            }
        };
        out.calls += 1;
        out.bytes += (env.wire_len() + resp.wire_len()) as u64;
        if is_read {
            out.unit_ms.push(ms);
        } else {
            self.expected[r] = value;
            self.written += 1;
            out.write_ms.push(ms);
        }
    }
}

impl RpMix {
    pub fn round(&self, seed: u64, index: usize, traced: bool) -> Round {
        let mut round = Round {
            traced,
            ..Round::default()
        };
        let dir = PathBuf::from(SCRATCH_DIR).join(format!("wal-{}-{index}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stats = Arc::new(StoreStats::default());
        let started = Instant::now();
        let (server, eprs) = match self.deploy(&dir, &stats) {
            Ok(s) => s,
            Err(e) => {
                round.attempted = 1;
                round.fail(format!("rp-mix set-up failed: {e}"));
                return round;
            }
        };
        round.setup_s = started.elapsed().as_secs_f64();
        let authority = server.authority();
        run_round(&mut round, self.connections, |c, gate| {
            self.connection(seed, index, c, gate, &authority, &eprs)
        });
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
        round.resources_end = stats.resources();
        round
    }

    /// The WAL-backed ES with its preloaded resources, on a socket.
    fn deploy(
        &self,
        dir: &std::path::Path,
        stats: &Arc<StoreStats>,
    ) -> std::io::Result<(FramedServer, Vec<EndpointReference>)> {
        let clock = Clock::manual();
        let net = InProcNetwork::new(clock.clone());
        let machine = Machine::new(MachineSpec::new("rpnode"), clock.clone());
        let durable: Arc<dyn ResourceStore> =
            Arc::new(DurableStore::open(dir, Arc::new(MemoryStore::new()))?);
        let es = execution_service(
            EsConfig {
                machine: machine.clone(),
                spawner: Arc::new(ProcSpawn::new(machine)),
                fss_address: "inproc://rpnode/FileSystem".into(),
                broker: None,
                security: None,
                store: TimingStore::wrap(durable, stats),
            },
            clock,
            net,
        );
        let eprs = (0..self.resources)
            .map(|i| {
                es.core()
                    .create_resource_with_key(&format!("job{i:04}"), job_doc(i, self.connections))
                    .map_err(|f| std::io::Error::other(f.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let server = FramedServer::start(Hosted::new(es, "uvacg.es", Kind::Other))?;
        Ok((server, eprs))
    }

    /// Connection `c`: connect, warm up, run the timed operations.
    fn connection(
        &self,
        seed: u64,
        index: usize,
        c: usize,
        gate: &Gate,
        authority: &str,
        eprs: &[EndpointReference],
    ) -> Round {
        let mut out = Round::default();
        let client = match wire::connect(authority, affinity::cpu_for(c)) {
            Ok(client) => client,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("connection {c}: {e}"));
                gate.open();
                gate.close();
                return out;
            }
        };
        let mut lp = Loop {
            conn: c,
            client: &client,
            eprs,
            expected: vec![INITIAL.to_string(); eprs.len()],
            rng: Rng::new(seed ^ ((index as u64) << 20) ^ c as u64),
            read_share: self.read_share,
            written: 0,
        };
        // Warm-up operations are checked but not timed.
        let mut warm = Round::default();
        for _ in 0..self.warmup_ops {
            lp.op(0, &mut warm);
        }
        out.attempted = warm.attempted;
        out.failed = warm.failed;
        out.problems = warm.problems;
        gate.open();
        for i in 0..self.ops_per_connection {
            let group = ((index as u64 + 1) << 32) | ((c as u64) << 24) | (i as u64 + 1);
            lp.op(group, &mut out);
        }
        gate.close();
        out
    }
}
