//! The three things a driver can talk to, each opened fresh for every
//! set-up repetition.

use std::sync::Arc;
use std::thread::JoinHandle;

use sqlengine::{Database, SharedDatabase, SqlExecutor};
use sqlwire::{ClientConfig, Coordinator, RemoteConnection, Server, ServerConfig, ServerHandle};

use crate::run::Ctx;
use crate::span::{SpanExecutor, SpanStore};
use crate::workload::SHARDS;

/// Opens and tears down one kind of executor.
pub trait Env {
    /// What the driver talks to.
    type Exec: SqlExecutor;

    /// A fresh, empty executor. Timed as part of set-up: opening the
    /// data directory, binding, connecting are costs a user pays.
    fn open(&mut self, store: &Arc<SpanStore>) -> Result<Self::Exec, String>;

    /// Tear down what the latest [`Env::open`] not yet closed built
    /// (untimed).
    fn close(&mut self, exec: Self::Exec) -> Result<(), String>;

    /// Per-layer numbers only the live executor can give, taken at the
    /// end of a traced run.
    fn probe(
        &mut self,
        _exec: &mut Self::Exec,
        _ctx: &Ctx<'_>,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }
}

/// An in-memory `Database` in this process.
pub struct Embedded;

impl Env for Embedded {
    type Exec = Database;

    fn open(&mut self, _store: &Arc<SpanStore>) -> Result<Database, String> {
        Ok(Database::new())
    }

    fn close(&mut self, _exec: Database) -> Result<(), String> {
        Ok(())
    }
}

/// A coordinator over [`SHARDS`] in-memory shards, each wrapped so its
/// calls are recorded under the coordinator call that made them.
pub struct Sharded;

impl Env for Sharded {
    type Exec = Coordinator<SpanExecutor<Database>>;

    fn open(&mut self, store: &Arc<SpanStore>) -> Result<Self::Exec, String> {
        let shards = (0..SHARDS)
            .map(|i| SpanExecutor::shard(Database::new(), store, i))
            .collect();
        Coordinator::new(shards).map_err(|e| format!("coordinator: {e}"))
    }

    fn close(&mut self, _exec: Self::Exec) -> Result<(), String> {
        Ok(())
    }
}

/// A `Server` thread over an in-memory database, reached through a
/// `RemoteConnection` on the loopback interface.
///
/// Not durable: with the data directory on the checkout's disk, fsync
/// latency drifted by ±25 % between runs of the same build and swamped
/// every other cost of this workload. The WAL is measured on its own in
/// the traced run ([`crate::layers::durable`]), outside the gated
/// numbers.
#[derive(Default)]
pub struct Wire {
    /// Running servers, innermost last: a throwaway set-up opens and
    /// closes its server while the measured session's is still up.
    servers: Vec<(ServerHandle, JoinHandle<sqlengine::Result<()>>)>,
}

impl Env for Wire {
    type Exec = RemoteConnection;

    fn open(&mut self, _store: &Arc<SpanStore>) -> Result<RemoteConnection, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            SharedDatabase::new(Database::new()),
            ServerConfig::default(),
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        self.servers
            .push((server.handle(), std::thread::spawn(move || server.run())));
        RemoteConnection::connect(&addr, ClientConfig::default())
            .map_err(|e| format!("connect: {e}"))
    }

    fn close(&mut self, exec: RemoteConnection) -> Result<(), String> {
        // Dropping the connection says goodbye, so the drain below does
        // not wait for an idle timeout.
        drop(exec);
        let (handle, thread) = self.servers.pop().expect("close follows open");
        handle.shutdown();
        thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }

    fn probe(
        &mut self,
        exec: &mut RemoteConnection,
        ctx: &Ctx<'_>,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        crate::layers::wire(exec, ctx)
    }
}
