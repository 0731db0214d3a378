//! The `dmac-workerd` worker daemon: one OS process per physical host of
//! a [`crate::transport::socket::SocketTransport`] cluster.
//!
//! A worker is deliberately dumb. It holds tile shards keyed by
//! `(rid, logical worker)`, executes the kernel commands the coordinator
//! dispatches — using the *same* shared kernels as the in-process oracle
//! ([`crate::kernels`]), so results are bit-identical by construction —
//! and proves its state on demand with canonical shard checksums
//! ([`crate::transport::wire::shard_checksum`]). All placement, metering
//! and conformance intelligence stays in the coordinator.
//!
//! ## Protocol
//!
//! Length-prefixed frames ([`crate::transport::frame`]). On connect the
//! worker binds a peer listen socket and sends
//! `{"t":"hello","host":H,"pid":P,"peer":"127.0.0.1:N"}`, then
//! answers each command frame with exactly one reply frame. Commands
//! carry a per-connection sequence number `"q"` which every reply
//! echoes, so the coordinator's pipelined dispatch can discard stale
//! replies after an aborted stage. A detached thread writes
//! `{"t":"hb","host":H}` every `heartbeat_ms` through the same
//! (mutex-shared) stream; the coordinator tolerates heartbeats
//! interleaved ahead of a reply. Errors are reported as
//! `{"t":"err","msg":…}` replies — the worker survives bad commands; it
//! exits when the coordinator closes the connection, sends `shutdown`,
//! or the stream desyncs.
//!
//! After membership the coordinator sends a `mode` command distributing
//! the peer address table. Control messages are JSON; bulk tile payload
//! (`install` bodies, `collect` replies, peer pushes, fused scalar
//! constants) travels as binary [`crate::transport::binfmt`] `DMB1`
//! messages on the same envelope. A tile-carrying frame without a
//! binary body is rejected with an `err` reply.
//!
//! ## Direct worker-to-worker exchange
//!
//! An `xfer` command is a routing plan: for each item the worker reads
//! the source tile, applies the transform, and pushes it over a cached
//! TCP connection straight to the destination host's peer listener —
//! the coordinator never touches the bytes. The push is acknowledged
//! (`{"t":"got"}`) only after the receiving side installed the tiles,
//! and the worker replies `xferred` (with per-item source-byte receipts
//! and per-edge frame stats) only after every push is acknowledged — so
//! by the time the coordinator seals the destination value, all peer
//! installs have happened-before the seal. Tiles are encoded *before*
//! any push is sent and the store lock is released while awaiting acks,
//! so two workers pushing to each other cannot deadlock. A dead peer
//! surfaces as a `peerfail` reply naming the host, which the
//! coordinator folds into its normal worker-loss path.

use std::collections::{BTreeMap, HashMap};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dmac_matrix::exec::ResultBufferPool;
use dmac_matrix::{Block, DenseBlock};

use crate::cluster::{CellOp, ReduceKind};
use crate::dist::GridMeta;
use crate::json::{JsonArr, JsonObj};
use crate::jsonin::Json;
use crate::kernels;
use crate::transport::binfmt;
use crate::transport::frame::{framed_len, read_frame_bytes, write_frame, write_frame_bytes};
use crate::transport::wire;
use crate::transport::{TileTransform, UnaryTileOp};

/// Launch parameters for a worker daemon (mirrors the CLI flags).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address to connect back to (`host:port`).
    pub connect: String,
    /// This worker's physical host id.
    pub host_id: usize,
    /// Heartbeat period in milliseconds.
    pub heartbeat_ms: u64,
}

/// Shard store: `(rid, logical worker)` → sorted tile map. `BTreeMap`
/// gives the deterministic `(bi, bj)` iteration order the reduction and
/// checksum contracts require. Shared with the peer listener threads,
/// which install pushed tiles between commands.
type Store = HashMap<(u64, usize), BTreeMap<(usize, usize), Block>>;

/// One reply, ready for the sequence number to be stamped in.
enum Reply {
    /// A JSON control reply.
    Json(JsonObj),
    /// A binary message: JSON header + bulk body.
    Bin(JsonObj, Vec<u8>),
}

impl Reply {
    fn ok() -> Reply {
        Reply::Json(JsonObj::new().str("t", "ok"))
    }
}

struct Worker {
    store: Arc<Mutex<Store>>,
    pool: ResultBufferPool,
    host: usize,
    /// Peer listener address per host id (`""` for self / unknown).
    peers: Vec<String>,
    /// Cached connections to peer listeners, by host id.
    peer_conns: HashMap<usize, TcpStream>,
    /// Read/write timeout on peer links — a wedged peer must surface as
    /// `peerfail`, not hang this worker past the coordinator's patience.
    peer_timeout: Duration,
}

/// Run the worker daemon until the coordinator disconnects. Returns an
/// error string suitable for an exit diagnostic.
pub fn run_worker(opts: &WorkerOptions) -> Result<(), String> {
    let store: Arc<Mutex<Store>> = Arc::new(Mutex::new(Store::new()));

    // Peer listener: other workers push tiles here during `xfer` stages.
    // Bound before the hello so the advertised address is live by the
    // time any coordinator-driven stage can reference it.
    let peer_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind peer listener: {e}"))?;
    let peer_addr = peer_listener
        .local_addr()
        .map_err(|e| format!("peer local_addr: {e}"))?
        .to_string();
    {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for stream in peer_listener.incoming() {
                let Ok(stream) = stream else { return };
                let store = Arc::clone(&store);
                std::thread::spawn(move || peer_serve(stream, store));
            }
        });
    }

    let stream =
        TcpStream::connect(&opts.connect).map_err(|e| format!("connect {}: {e}", opts.connect))?;
    stream.set_nodelay(true).ok();
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let writer = Arc::new(Mutex::new(stream));

    let hello = JsonObj::new()
        .str("t", "hello")
        .u64("host", opts.host_id as u64)
        .u64("pid", u64::from(std::process::id()))
        .str("peer", &peer_addr)
        .build();
    send(&writer, &hello)?;

    // Heartbeat thread: beats until the socket dies, even while the main
    // thread is deep in a kernel — liveness is about the process, not
    // about command latency.
    {
        let writer = Arc::clone(&writer);
        let period = Duration::from_millis(opts.heartbeat_ms.max(1));
        let hb = JsonObj::new()
            .str("t", "hb")
            .u64("host", opts.host_id as u64)
            .build();
        std::thread::spawn(move || loop {
            std::thread::sleep(period);
            let Ok(mut w) = writer.lock() else { return };
            if write_frame(&mut *w, &hb).is_err() {
                return;
            }
        });
    }

    let mut worker = Worker {
        store,
        pool: ResultBufferPool::new(4),
        host: opts.host_id,
        peers: Vec::new(),
        peer_conns: HashMap::new(),
        peer_timeout: Duration::from_millis(2000),
    };

    loop {
        let raw = match read_frame_bytes(&mut reader) {
            Ok(Some(b)) => b,
            Ok(None) => return Ok(()), // coordinator closed cleanly
            Err(e) => return Err(format!("read frame: {e}")),
        };
        let (cmd, body): (Json, Vec<u8>) = if binfmt::is_binary(&raw) {
            match binfmt::decode(&raw) {
                Ok((head, body)) => match Json::parse(head) {
                    Ok(j) => (j, body.to_vec()),
                    Err(e) => {
                        send_reply(
                            &writer,
                            None,
                            Reply::Json(err_obj(&format!("unparseable binary header: {e}"))),
                        )?;
                        continue;
                    }
                },
                Err(msg) => {
                    send_reply(&writer, None, Reply::Json(err_obj(&msg)))?;
                    continue;
                }
            }
        } else {
            let text = match std::str::from_utf8(&raw) {
                Ok(t) => t,
                Err(_) => {
                    send_reply(
                        &writer,
                        None,
                        Reply::Json(err_obj("command frame is not UTF-8")),
                    )?;
                    continue;
                }
            };
            match Json::parse(text) {
                Ok(j) => (j, Vec::new()),
                Err(e) => {
                    send_reply(
                        &writer,
                        None,
                        Reply::Json(err_obj(&format!("unparseable command: {e}"))),
                    )?;
                    continue;
                }
            }
        };
        let q = cmd.get("q").and_then(Json::as_u64);
        if cmd.get("t").and_then(Json::as_str) == Some("shutdown") {
            send_reply(&writer, q, Reply::Json(JsonObj::new().str("t", "bye")))?;
            return Ok(());
        }
        let reply = match worker.dispatch(&cmd, &body) {
            Ok(r) => r,
            Err(msg) => Reply::Json(err_obj(&msg)),
        };
        send_reply(&writer, q, reply)?;
    }
}

fn err_obj(msg: &str) -> JsonObj {
    JsonObj::new().str("t", "err").str("msg", msg)
}

fn send(writer: &Arc<Mutex<TcpStream>>, frame: &str) -> Result<(), String> {
    let mut w = writer.lock().map_err(|_| "writer poisoned".to_string())?;
    write_frame(&mut *w, frame).map_err(|e| format!("write frame: {e}"))
}

/// Stamp the echoed sequence number into a reply and ship it.
fn send_reply(writer: &Arc<Mutex<TcpStream>>, q: Option<u64>, reply: Reply) -> Result<(), String> {
    let stamp = |obj: JsonObj| match q {
        Some(q) => obj.u64("q", q),
        None => obj,
    };
    match reply {
        Reply::Json(obj) => send(writer, &stamp(obj).build()),
        Reply::Bin(obj, body) => {
            let msg = binfmt::encode(&stamp(obj).build(), &body);
            let mut w = writer.lock().map_err(|_| "writer poisoned".to_string())?;
            write_frame_bytes(&mut *w, &msg).map_err(|e| format!("write frame: {e}"))
        }
    }
}

/// Serve one inbound peer connection: each frame is a `push` carrying
/// tiles already in destination coordinates; install them and ack with
/// `{"t":"got"}` so the sender can prove completion to the coordinator.
fn peer_serve(mut stream: TcpStream, store: Arc<Mutex<Store>>) {
    stream.set_nodelay(true).ok();
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    loop {
        let raw = match read_frame_bytes(&mut reader) {
            Ok(Some(b)) => b,
            _ => return,
        };
        let reply = match install_push(&raw, &store) {
            Ok(()) => r#"{"t":"got"}"#.to_string(),
            Err(msg) => err_obj(&msg).build(),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

/// A decoded peer `push`: the destination rid and its placed tiles.
pub type Push = (u64, Vec<(usize, usize, usize, Block)>);

/// Decode one peer `push` frame: a binary `DMB1` message whose header is
/// `{"t":"push","rid":R}` and whose body is a tile section. Anything
/// else — including a JSON frame with no binary body — is a typed error.
pub fn decode_push(raw: &[u8]) -> Result<Push, String> {
    if !binfmt::is_binary(raw) {
        return Err("push frame carries no binary tile body".into());
    }
    let (head, body) = binfmt::decode(raw)?;
    let head = Json::parse(head).map_err(|e| format!("push header: {e}"))?;
    if head.get("t").and_then(Json::as_str) != Some("push") {
        return Err("peer frame is not a push".into());
    }
    Ok((wire::field_u64(&head, "rid")?, binfmt::decode_tiles(body)?))
}

/// Decode one pushed tile batch and install it.
fn install_push(raw: &[u8], store: &Arc<Mutex<Store>>) -> Result<(), String> {
    let (rid, installed) = decode_push(raw)?;
    let mut store = store.lock().map_err(|_| "store poisoned".to_string())?;
    for (w, bi, bj, block) in installed {
        store.entry((rid, w)).or_default().insert((bi, bj), block);
    }
    Ok(())
}

/// `(w, bi, bj)` task triple from a task object.
fn task_triple(j: &Json) -> Result<(usize, usize, usize), String> {
    Ok((
        wire::field_usize(j, "w")?,
        wire::field_usize(j, "bi")?,
        wire::field_usize(j, "bj")?,
    ))
}

fn meta_of(cmd: &Json) -> Result<GridMeta, String> {
    Ok(GridMeta::new(
        wire::field_usize(cmd, "rows")?,
        wire::field_usize(cmd, "cols")?,
        wire::field_usize(cmd, "block")?,
    ))
}

fn tile_of(
    store: &Store,
    host: usize,
    rid: u64,
    w: usize,
    bi: usize,
    bj: usize,
) -> Result<&Block, String> {
    store
        .get(&(rid, w))
        .and_then(|s| s.get(&(bi, bj)))
        .ok_or_else(|| format!("missing tile rid={rid} w={w} ({bi},{bj}) on host {host}"))
}

impl Worker {
    fn lock(&self) -> Result<std::sync::MutexGuard<'_, Store>, String> {
        self.store.lock().map_err(|_| "store poisoned".to_string())
    }

    fn dispatch(&mut self, cmd: &Json, body: &[u8]) -> Result<Reply, String> {
        match wire::field_str(cmd, "t")? {
            "mode" => self.mode(cmd),
            "install" => self.install(cmd, body),
            "copy" => self.copy(cmd),
            "collect" => self.collect(cmd),
            "seal" => self.seal(cmd),
            "mm" => self.mm(cmd),
            "cell" => self.cell(cmd),
            "fused" => self.fused(cmd, body),
            "unary" => self.unary(cmd),
            "cpmm1" => self.cpmm1(cmd),
            "cpmm2" => self.cpmm2(cmd),
            "reduce" => self.reduce(cmd),
            "free" => self.free(cmd),
            "xfer" => self.xfer(cmd),
            other => Err(format!("unknown command '{other}'")),
        }
    }

    /// Adopt the peer address table.
    fn mode(&mut self, cmd: &Json) -> Result<Reply, String> {
        self.peers = wire::field_arr(cmd, "peers")?
            .iter()
            .map(|p| p.as_str().unwrap_or("").to_string())
            .collect();
        self.peer_timeout = Duration::from_millis(wire::field_u64(cmd, "timeout_ms")?.max(1));
        self.peer_conns.clear();
        Ok(Reply::ok())
    }

    fn install(&mut self, cmd: &Json, body: &[u8]) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        if body.is_empty() {
            return Err("install carries no binary tile body".into());
        }
        let decoded = binfmt::decode_tiles(body)?;
        let mut store = self.lock()?;
        for (w, bi, bj, block) in decoded {
            store.entry((rid, w)).or_default().insert((bi, bj), block);
        }
        Ok(Reply::ok())
    }

    fn copy(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_in = wire::field_u64(cmd, "rid_in")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let tr = transform_of(cmd)?;
        let items = wire::field_arr(cmd, "items")?;
        let mut store = self.lock()?;
        let mut copied: Vec<(usize, (usize, usize), Block, u64)> = Vec::with_capacity(items.len());
        for item in items {
            let wi = wire::field_usize(item, "wi")?;
            let wo = wire::field_usize(item, "wo")?;
            let bi = wire::field_usize(item, "bi")?;
            let bj = wire::field_usize(item, "bj")?;
            let src = tile_of(&store, self.host, rid_in, wi, bi, bj)?;
            copied.push((
                wo,
                tr.dest_key(bi, bj),
                tr.apply(src),
                src.actual_bytes() as u64,
            ));
        }
        let mut bytes = JsonArr::new();
        for (wo, key, block, b) in copied {
            store.entry((rid_out, wo)).or_default().insert(key, block);
            bytes = bytes.u64(b);
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "copied")
                .raw("bytes", &bytes.build()),
        ))
    }

    /// Execute a routing plan: push source tiles directly to their
    /// destination hosts' peer listeners. Payloads are fully encoded
    /// under the store lock, then pushed with the lock released —
    /// symmetric xfers between two hosts must not deadlock on each
    /// other's installs.
    fn xfer(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_in = wire::field_u64(cmd, "rid_in")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let tr = transform_of(cmd)?;
        let items = wire::field_arr(cmd, "items")?;
        // (dest host) → encoded tiles, plus per-item source-byte receipts.
        let mut bytes = Vec::with_capacity(items.len());
        let mut groups: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        {
            let store = self.lock()?;
            for item in items {
                let wi = wire::field_usize(item, "wi")?;
                let wo = wire::field_usize(item, "wo")?;
                let bi = wire::field_usize(item, "bi")?;
                let bj = wire::field_usize(item, "bj")?;
                let dh = wire::field_usize(item, "dh")?;
                let src = tile_of(&store, self.host, rid_in, wi, bi, bj)?;
                bytes.push(src.actual_bytes() as u64);
                let (di, dj) = tr.dest_key(bi, bj);
                let buf = groups.entry(dh).or_insert_with(|| vec![0u8; 4]);
                binfmt::push_tile(buf, wo, di, dj, &tr.apply(src));
                let n = u32::from_le_bytes(buf[..4].try_into().unwrap()) + 1;
                buf[..4].copy_from_slice(&n.to_le_bytes());
            }
        }
        // Lock released: push each destination's batch and await acks.
        let mut edges = JsonArr::new();
        let header = JsonObj::new().str("t", "push").u64("rid", rid_out).build();
        for (dh, body) in groups {
            let payload = binfmt::encode(&header, &body);
            match self.push_to(dh, &payload) {
                Ok(ack_len) => {
                    edges = edges.raw(
                        &JsonObj::new()
                            .u64("h", dh as u64)
                            .u64("f", 2)
                            .u64("b", framed_len(payload.len()) + framed_len(ack_len))
                            .build(),
                    );
                }
                Err(_) => {
                    // The coordinator folds this into its worker-loss
                    // path; this worker stays healthy.
                    return Ok(Reply::Json(
                        JsonObj::new().str("t", "peerfail").u64("host", dh as u64),
                    ));
                }
            }
        }
        let mut bytes_arr = JsonArr::new();
        for b in bytes {
            bytes_arr = bytes_arr.u64(b);
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "xferred")
                .raw("bytes", &bytes_arr.build())
                .raw("edges", &edges.build()),
        ))
    }

    /// Push one frame to a peer and await its ack; returns the ack's
    /// payload length for edge accounting. Any failure poisons the
    /// cached connection.
    fn push_to(&mut self, dh: usize, payload: &[u8]) -> Result<usize, String> {
        if !self.peer_conns.contains_key(&dh) {
            let addr = self
                .peers
                .get(dh)
                .filter(|a| !a.is_empty())
                .ok_or_else(|| format!("no peer address for host {dh}"))?;
            let conn = TcpStream::connect(addr).map_err(|e| format!("peer {dh}: {e}"))?;
            conn.set_nodelay(true).ok();
            conn.set_read_timeout(Some(self.peer_timeout)).ok();
            conn.set_write_timeout(Some(self.peer_timeout)).ok();
            self.peer_conns.insert(dh, conn);
        }
        let res = (|| -> Result<usize, String> {
            let conn = self.peer_conns.get_mut(&dh).expect("just inserted");
            write_frame_bytes(conn, payload).map_err(|e| format!("peer {dh} write: {e}"))?;
            let ack = read_frame_bytes(conn)
                .map_err(|e| format!("peer {dh} ack: {e}"))?
                .ok_or_else(|| format!("peer {dh} closed before ack"))?;
            let j = Json::parse(
                std::str::from_utf8(&ack).map_err(|_| format!("peer {dh} ack not UTF-8"))?,
            )
            .map_err(|e| format!("peer {dh} ack: {e}"))?;
            match j.get("t").and_then(Json::as_str) {
                Some("got") => Ok(ack.len()),
                Some("err") => Err(format!(
                    "peer {dh} rejected push: {}",
                    j.get("msg").and_then(Json::as_str).unwrap_or("unknown")
                )),
                other => Err(format!("peer {dh} ack has type {other:?}")),
            }
        })();
        if res.is_err() {
            self.peer_conns.remove(&dh);
        }
        res
    }

    fn collect(&self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        let store = self.lock()?;
        let mut body = vec![0u8; 4];
        let mut count = 0u32;
        for item in wire::field_arr(cmd, "items")? {
            let (w, bi, bj) = task_triple(item)?;
            let t = tile_of(&store, self.host, rid, w, bi, bj)?;
            binfmt::push_tile(&mut body, w, bi, bj, t);
            count += 1;
        }
        body[..4].copy_from_slice(&count.to_le_bytes());
        Ok(Reply::Bin(JsonObj::new().str("t", "tiles"), body))
    }

    fn seal(&self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        let store = self.lock()?;
        let mut shards = JsonArr::new();
        for w in wire::field_usize_arr(cmd, "ws")? {
            let (n, sum) = match store.get(&(rid, w)) {
                Some(s) => (
                    s.len(),
                    wire::shard_checksum(s.iter().map(|(&k, t)| (k, t))),
                ),
                // A worker that owns nothing of this value legitimately
                // reports the empty shard.
                None => (0, wire::shard_checksum(std::iter::empty())),
            };
            shards = shards.raw(
                &JsonObj::new()
                    .u64("w", w as u64)
                    .u64("n", n as u64)
                    .str("x", &wire::hex_u64(sum))
                    .build(),
            );
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "sealed")
                .raw("shards", &shards.build()),
        ))
    }

    fn mm(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_a = wire::field_u64(cmd, "rid_a")?;
        let rid_b = wire::field_u64(cmd, "rid_b")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let kb = wire::field_usize(cmd, "kb")?;
        let meta = meta_of(cmd)?;
        let mut store = self.lock()?;
        for task in wire::field_arr(cmd, "tasks")? {
            let (w, bi, bj) = task_triple(task)?;
            let mut acc = DenseBlock::zeros(meta.block_rows_of(bi), meta.block_cols_of(bj));
            let r = kernels::mm_accumulate(
                |k| store.get(&(rid_a, w)).and_then(|s| s.get(&(bi, k))),
                |k| store.get(&(rid_b, w)).and_then(|s| s.get(&(k, bj))),
                0..kb,
                &mut acc,
            );
            if let Err(k) = r {
                return Err(format!(
                    "missing input tile for result ({bi},{bj}) at k={k} on worker {w}"
                ));
            }
            let tile = kernels::compact_dense(acc);
            store
                .entry((rid_out, w))
                .or_default()
                .insert((bi, bj), tile);
        }
        Ok(Reply::ok())
    }

    fn cell(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_a = wire::field_u64(cmd, "rid_a")?;
        let rid_b = wire::field_u64(cmd, "rid_b")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let op = match wire::field_str(cmd, "op")? {
            "add" => CellOp::Add,
            "sub" => CellOp::Sub,
            "cell_mul" => CellOp::Mul,
            "cell_div" => CellOp::Div,
            other => return Err(format!("unknown cell op '{other}'")),
        };
        let mut store = self.lock()?;
        for task in wire::field_arr(cmd, "tasks")? {
            let (w, bi, bj) = task_triple(task)?;
            let a = tile_of(&store, self.host, rid_a, w, bi, bj)?;
            let b = tile_of(&store, self.host, rid_b, w, bi, bj)?;
            let out = op.apply(a, b).map_err(|e| e.to_string())?;
            store.entry((rid_out, w)).or_default().insert((bi, bj), out);
        }
        Ok(Reply::ok())
    }

    fn fused(&mut self, cmd: &Json, body: &[u8]) -> Result<Reply, String> {
        let rids = wire::field_usize_arr(cmd, "rids")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        // Scalar constants ride a raw f64 body section, referenced by
        // slot index; a program without constants comes with no body.
        let consts = if body.is_empty() {
            Vec::new()
        } else {
            binfmt::decode_f64s(body)?
        };
        let prog = wire::decode_prog_indexed(wire::field_arr(cmd, "prog")?, &consts)?;
        let mut store = self.lock()?;
        for task in wire::field_arr(cmd, "tasks")? {
            let (w, bi, bj) = task_triple(task)?;
            let mut tiles: Vec<&Block> = Vec::with_capacity(rids.len());
            for &rid in &rids {
                tiles.push(tile_of(&store, self.host, rid as u64, w, bi, bj)?);
            }
            let out = dmac_matrix::eval_fused_block(&prog, &tiles, &self.pool)
                .map_err(|e| e.to_string())?;
            store.entry((rid_out, w)).or_default().insert((bi, bj), out);
        }
        Ok(Reply::ok())
    }

    fn unary(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_in = wire::field_u64(cmd, "rid_in")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let c = wire::parse_hex_f64(wire::field_str(cmd, "c")?)
            .ok_or_else(|| "bad unary constant".to_string())?;
        let op = match wire::field_str(cmd, "op")? {
            "scale" => UnaryTileOp::Scale(c),
            "add_scalar" => UnaryTileOp::AddScalar(c),
            other => return Err(format!("unknown unary op '{other}'")),
        };
        let mut store = self.lock()?;
        for task in wire::field_arr(cmd, "tasks")? {
            let (w, bi, bj) = task_triple(task)?;
            let out = op.apply(tile_of(&store, self.host, rid_in, w, bi, bj)?);
            store.entry((rid_out, w)).or_default().insert((bi, bj), out);
        }
        Ok(Reply::ok())
    }

    fn cpmm1(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid_a = wire::field_u64(cmd, "rid_a")?;
        let rid_b = wire::field_u64(cmd, "rid_b")?;
        let stage = wire::field_u64(cmd, "stage")?;
        let n = wire::field_usize(cmd, "n")?;
        let kb = wire::field_usize(cmd, "kb")?;
        let meta = meta_of(cmd)?;
        let mut store = self.lock()?;
        let mut descs = JsonArr::new();
        for w in wire::field_usize_arr(cmd, "ws")? {
            let my_ks: Vec<usize> = (0..kb).filter(|&k| k % n == w).collect();
            for bi in 0..meta.row_blocks {
                for bj in 0..meta.col_blocks {
                    let mut acc = DenseBlock::zeros(meta.block_rows_of(bi), meta.block_cols_of(bj));
                    let touched = kernels::mm_accumulate(
                        |k| store.get(&(rid_a, w)).and_then(|s| s.get(&(bi, k))),
                        |k| store.get(&(rid_b, w)).and_then(|s| s.get(&(k, bj))),
                        my_ks.iter().copied(),
                        &mut acc,
                    )
                    .map_err(|k| format!("cpmm: missing tile at k={k} on worker {w}"))?;
                    if touched {
                        descs = descs.raw(
                            &JsonObj::new()
                                .u64("w", w as u64)
                                .u64("bi", bi as u64)
                                .u64("bj", bj as u64)
                                .u64("b", acc.actual_bytes() as u64)
                                .build(),
                        );
                        store
                            .entry((stage, w))
                            .or_default()
                            .insert((bi, bj), Block::Dense(acc));
                    }
                }
            }
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "partials")
                .raw("descs", &descs.build()),
        ))
    }

    fn cpmm2(&mut self, cmd: &Json) -> Result<Reply, String> {
        let stage = wire::field_u64(cmd, "stage")?;
        let rid_out = wire::field_u64(cmd, "rid_out")?;
        let meta = meta_of(cmd)?;
        let mut store = self.lock()?;
        for task in wire::field_arr(cmd, "tasks")? {
            let (w, bi, bj) = task_triple(task)?;
            let srcs = wire::field_usize_arr(task, "srcs")?;
            let tile = if srcs.is_empty() {
                Block::zeros(meta.block_rows_of(bi), meta.block_cols_of(bj))
            } else {
                let first = match tile_of(&store, self.host, stage, srcs[0], bi, bj)? {
                    Block::Dense(d) => d.clone(),
                    Block::Sparse(_) => {
                        return Err("cpmm partial is not dense".to_string());
                    }
                };
                let mut acc = first;
                for &src in &srcs[1..] {
                    match tile_of(&store, self.host, stage, src, bi, bj)? {
                        Block::Dense(d) => acc.add_assign(d).map_err(|e| e.to_string())?,
                        Block::Sparse(_) => {
                            return Err("cpmm partial is not dense".to_string());
                        }
                    }
                }
                // Same materialisation rule as the oracle's CPMM phase 2.
                Block::Dense(acc).compact()
            };
            store
                .entry((rid_out, w))
                .or_default()
                .insert((bi, bj), tile);
        }
        Ok(Reply::ok())
    }

    fn reduce(&self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        let kind = match wire::field_str(cmd, "kind")? {
            "sum" => ReduceKind::Sum,
            "norm2" => ReduceKind::Norm2,
            other => return Err(format!("unknown reduce kind '{other}'")),
        };
        let store = self.lock()?;
        let mut parts = JsonArr::new();
        for w in wire::field_usize_arr(cmd, "ws")? {
            let partial = match store.get(&(rid, w)) {
                Some(s) => kernels::reduce_shard(kind, s.values()),
                None => 0.0,
            };
            parts = parts.raw(
                &JsonObj::new()
                    .u64("w", w as u64)
                    .str("x", &wire::hex_f64(partial))
                    .build(),
            );
        }
        Ok(Reply::Json(
            JsonObj::new()
                .str("t", "reduced")
                .raw("parts", &parts.build()),
        ))
    }

    fn free(&mut self, cmd: &Json) -> Result<Reply, String> {
        let rid = wire::field_u64(cmd, "rid")?;
        self.lock()?.retain(|&(r, _), _| r != rid);
        Ok(Reply::ok())
    }
}

fn transform_of(cmd: &Json) -> Result<TileTransform, String> {
    match wire::field_str(cmd, "tr")? {
        "none" => Ok(TileTransform::None),
        "transpose" => Ok(TileTransform::Transpose),
        other => Err(format!("unknown transform '{other}'")),
    }
}
