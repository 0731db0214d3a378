//! The real multi-process backend: a coordinator embedded in the session
//! process driving `dmac-workerd` children over TCP.
//!
//! ## Topology and membership
//!
//! The coordinator binds `127.0.0.1:0` (the OS assigns the port), spawns
//! one worker process per physical host, and each worker connects back
//! and introduces itself with a `hello` frame advertising its peer
//! listen address. After membership the coordinator sends every worker
//! a `mode` command carrying the peer address table.
//!
//! There is one data plane. Control traffic is a star — every command
//! and reply crosses the coordinator — but tile payload travels as
//! binary `DMB1` sections ([`super::binfmt`]) and never transits the
//! coordinator on a cross-host move: the coordinator sends the source
//! host an `xfer` routing plan and the worker pushes tiles straight to
//! the destination's peer listener, rolling per-item byte receipts and
//! per-edge frame stats up in its `xferred` reply.
//!
//! ## Pipelined dispatch
//!
//! All commands of a stage are written to all hosts before any reply is
//! read — a stage costs one round-trip ([`TransportStats::rounds`])
//! instead of `hosts × primitives`. Every command carries a
//! per-connection sequence number `"q"` which the worker echoes in its
//! reply; after an aborted stage (worker loss mid-exchange) the
//! coordinator discards stale-`q` replies, so the connection
//! re-synchronises without draining logic.
//!
//! ## Liveness
//!
//! Each worker heartbeats every [`HEARTBEAT_MS`] from a dedicated thread,
//! so beats keep arriving while the worker is busy computing. The
//! coordinator marks a host dead when its connection closes or errors,
//! its process is reaped, or no heartbeat has been seen for
//! [`LIVENESS_TIMEOUT_MS`] — and surfaces it as
//! [`ClusterError::WorkerLost`], the same error injected faults produce,
//! so the engine's lineage-recovery path handles real process death
//! with no new code. A worker whose peer push fails reports `peerfail`
//! naming the dead destination, which the coordinator folds into the
//! same path.
//!
//! ## Metering and conformance
//!
//! Payload is metered per *logical* move (a tile whose logical owner
//! changes is charged even when both workers share a host — matching the
//! simulator's logical ledger), from the byte sizes workers report —
//! identically for peer-pushed and local-copy tiles, so
//! `transport_bytes == wire_bytes` conformance does not depend on how
//! workers share hosts. After every mirrored primitive the destination
//! value is *sealed*: each host reports canonical per-shard checksums
//! ([`wire::shard_checksum`]) that must equal the oracle's, so state
//! divergence is caught at the primitive that caused it. Seals are only
//! issued after every copy/xfer receipt of the stage is in hand, so all
//! peer installs happen-before the seal.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dmac_matrix::{Block, FusedOp};

use crate::cluster::{CellOp, ReduceKind};
use crate::dist::{fresh_rid, DistMatrix};
use crate::error::{ClusterError, Result};
use crate::json::{JsonArr, JsonObj};
use crate::jsonin::Json;
use crate::partition::PartitionScheme;
use crate::transport::binfmt;
use crate::transport::frame::{framed_len, write_frame_bytes, MAX_FRAME};
use crate::transport::wire;
use crate::transport::{
    MoveItem, PartialDesc, TileTransform, Transport, TransportStats, UnaryTileOp,
};

/// Worker heartbeat period (milliseconds), passed to every
/// `dmac-workerd` as `--heartbeat-ms`.
pub const HEARTBEAT_MS: u64 = 100;

/// A host with no heartbeat for this long (milliseconds) is declared
/// dead. Workers use the same bound as their peer-link timeout.
pub const LIVENESS_TIMEOUT_MS: u64 = 2000;

/// Test hooks for the socket backend: each SIGKILLs a worker process at
/// a chosen moment. All off by default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketOptions {
    /// Test hook: SIGKILL host `.0`'s process when the `.1`-th mirrored
    /// primitive begins, *without* marking it dead — detection must flow
    /// through the organic liveness machinery.
    pub kill_host_after_ops: Option<(usize, u64)>,
    /// Test hook: SIGKILL host `.0` right after the write phase of the
    /// `.1`-th pipelined exchange — mid-stage, commands written, no
    /// reply read.
    pub kill_host_mid_stage: Option<(usize, u64)>,
    /// Test hook: SIGKILL host `.0` right after the write phase of the
    /// `.1`-th exchange that carries `xfer` routing plans — while peer
    /// pushes toward (or from) it are in flight.
    pub kill_host_mid_xfer: Option<(usize, u64)>,
}

/// Incremental frame decoder over a non-blocking-ish stream. Buffers
/// partial frames internally, so a read timeout can never desynchronise
/// the stream — the next call resumes where the last left off.
#[derive(Debug, Default)]
struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// `Ok(Some(payload))` when a complete frame is available, `Ok(None)`
    /// when the read timed out at whatever boundary, `Err` when the
    /// connection closed or broke.
    fn next(&mut self, stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > MAX_FRAME as usize {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("frame of {len} bytes exceeds limit"),
                    ));
                }
                if self.buf.len() >= 4 + len {
                    let body: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
                    return Ok(Some(body));
                }
            }
            let mut tmp = [0u8; 64 * 1024];
            match stream.read(&mut tmp) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    child: Child,
    last_hb: Instant,
    alive: bool,
    /// Next sequence number to stamp on an outgoing command.
    seq: u64,
    /// Peer listener address advertised in the hello.
    peer: String,
}

/// One outgoing command, sequence number still to be stamped.
enum Outgoing {
    /// A JSON control command.
    Json(JsonObj),
    /// A binary message: JSON header + bulk body.
    Bin(JsonObj, Vec<u8>),
}

/// One worker reply: parsed header, plus the raw body for binary
/// messages (tile sections, mostly `collect` replies).
struct Reply {
    head: Json,
    body: Option<Vec<u8>>,
}

impl Reply {
    fn kind(&self) -> Option<&str> {
        self.head.get("t").and_then(Json::as_str)
    }
}

/// Decode the tiles of a `collect` reply.
fn reply_tiles(reply: &Reply) -> std::result::Result<Vec<(usize, usize, usize, Block)>, String> {
    let body = reply
        .body
        .as_deref()
        .ok_or_else(|| "collect reply carries no tile body".to_string())?;
    binfmt::decode_tiles(body)
}

/// Locate the `dmac-workerd` binary: `DMAC_WORKERD` env override, then
/// next to the current executable, then its parent directory (test
/// executables live in `target/debug/deps/`, the bin one level up).
pub fn locate_workerd() -> Result<PathBuf> {
    if let Ok(p) = std::env::var("DMAC_WORKERD") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(ClusterError::Protocol(format!(
            "DMAC_WORKERD points at {}, which does not exist",
            p.display()
        )));
    }
    let exe =
        std::env::current_exe().map_err(|e| ClusterError::Protocol(format!("current_exe: {e}")))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    if let Some(d) = exe.parent() {
        dirs.push(d.to_path_buf());
        if let Some(p) = d.parent() {
            dirs.push(p.to_path_buf());
        }
    }
    let name = format!("dmac-workerd{}", std::env::consts::EXE_SUFFIX);
    for d in &dirs {
        let cand = d.join(&name);
        if cand.is_file() {
            return Ok(cand);
        }
    }
    // Last resort: cargo places hashed copies (`dmac_workerd-<hash>`) in
    // the `deps/` dir next to test executables even when the unhashed
    // uplift copy is absent. The same name can also be a libtest-harness
    // build of the bin target, so probe each candidate (newest first) and
    // accept only one that identifies itself as the daemon.
    let mut candidates: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    for d in &dirs {
        let Ok(entries) = std::fs::read_dir(d.join("deps")) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            let Some(stem) = p.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !stem.starts_with("dmac_workerd-") || stem.contains('.') {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let t = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            candidates.push((t, p));
        }
    }
    candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
    for (_, p) in candidates {
        let probe = std::process::Command::new(&p)
            .arg("--probe")
            .stdin(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = probe {
            if out.status.success() && out.stdout.starts_with(b"dmac-workerd") {
                return Ok(p);
            }
        }
    }
    Err(ClusterError::Protocol(
        "dmac-workerd binary not found (build it, or set DMAC_WORKERD)".into(),
    ))
}

/// The coordinator side of the real cluster backend.
#[derive(Debug)]
pub struct SocketTransport {
    conns: Vec<Conn>,
    assignment: Vec<usize>,
    known: HashSet<u64>,
    stats: TransportStats,
    opts: SocketOptions,
    ops_done: u64,
    /// Pipelined exchanges completed (for the mid-stage kill hook).
    stages_done: u64,
    /// Exchanges carrying `xfer` plans completed (mid-xfer kill hook).
    xfers_done: u64,
    /// Hosts whose death has already been surfaced (via poll or
    /// [`Transport::host_down`]); never reported again.
    reported: HashSet<usize>,
    shut: bool,
}

impl SocketTransport {
    /// Spawn `workers` worker processes and complete membership: bind
    /// port 0, launch children pointed back at the assigned port, wait
    /// for every `hello`, then hand out the peer address table (`mode`).
    pub fn launch(workers: usize, opts: SocketOptions) -> Result<SocketTransport> {
        let bin = locate_workerd()?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| ClusterError::Protocol(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Protocol(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ClusterError::Protocol(format!("nonblocking: {e}")))?;

        let mut children: Vec<Option<Child>> = Vec::with_capacity(workers);
        for h in 0..workers {
            let child = Command::new(&bin)
                .arg("--connect")
                .arg(addr.to_string())
                .arg("--host-id")
                .arg(h.to_string())
                .arg("--heartbeat-ms")
                .arg(HEARTBEAT_MS.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    // Don't leak already-spawned siblings on a failed launch.
                    for c in children.iter_mut().flatten() {
                        c.kill().ok();
                        c.wait().ok();
                    }
                    ClusterError::Protocol(format!("spawn {}: {e}", bin.display()))
                })?;
            children.push(Some(child));
        }

        let kill_all = |children: &mut Vec<Option<Child>>| {
            for c in children.iter_mut().flatten() {
                c.kill().ok();
                c.wait().ok();
            }
        };

        type Slot = (TcpStream, FrameReader, String);
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut slots: Vec<Option<Slot>> = (0..workers).map(|_| None).collect();
        let mut accepted = 0usize;
        while accepted < workers {
            if Instant::now() > deadline {
                kill_all(&mut children);
                return Err(ClusterError::Protocol(format!(
                    "membership timed out: {accepted}/{workers} workers registered"
                )));
            }
            for c in children.iter_mut().flatten() {
                if let Ok(Some(status)) = c.try_wait() {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol(format!(
                        "worker exited during startup ({status})"
                    )));
                }
            }
            let (stream, _) = match listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                Err(e) => {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol(format!("accept: {e}")));
                }
            };
            stream.set_nodelay(true).ok();
            stream
                .set_read_timeout(Some(Duration::from_millis(250)))
                .ok();
            let mut stream = stream;
            let mut reader = FrameReader::default();
            let hello = loop {
                if Instant::now() > deadline {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol("hello timed out".into()));
                }
                match reader.next(&mut stream) {
                    Ok(Some(t)) => break t,
                    Ok(None) => continue,
                    Err(e) => {
                        kill_all(&mut children);
                        return Err(ClusterError::Protocol(format!("hello read: {e}")));
                    }
                }
            };
            let parsed = std::str::from_utf8(&hello)
                .ok()
                .and_then(|t| Json::parse(t).ok())
                .filter(|j| j.get("t").and_then(Json::as_str) == Some("hello"));
            let host = parsed
                .as_ref()
                .and_then(|j| j.get("host").and_then(Json::as_u64))
                .map(|h| h as usize);
            match host {
                Some(h) if h < workers && slots[h].is_none() => {
                    let j = parsed.expect("host implies parsed");
                    let peer = j
                        .get("peer")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    slots[h] = Some((stream, reader, peer));
                    accepted += 1;
                }
                _ => {
                    kill_all(&mut children);
                    return Err(ClusterError::Protocol(format!(
                        "bad hello frame: {}",
                        String::from_utf8_lossy(&hello)
                    )));
                }
            }
        }

        let now = Instant::now();
        let conns: Vec<Conn> = slots
            .into_iter()
            .zip(children.iter_mut())
            .map(|(slot, child)| {
                let (stream, reader, peer) = slot.expect("all slots filled");
                Conn {
                    stream,
                    reader,
                    child: child.take().expect("child present"),
                    last_hb: now,
                    alive: true,
                    seq: 0,
                    peer,
                }
            })
            .collect();
        let mut me = SocketTransport {
            conns,
            assignment: (0..workers).collect(),
            known: HashSet::new(),
            stats: TransportStats::default(),
            opts,
            ops_done: 0,
            stages_done: 0,
            xfers_done: 0,
            reported: HashSet::new(),
            shut: false,
        };
        let mut peers = JsonArr::new();
        for h in 0..workers {
            peers = peers.str(&me.conns[h].peer.clone());
        }
        let peers = peers.build();
        for host in 0..workers {
            let cmd = JsonObj::new()
                .str("t", "mode")
                .raw("peers", &peers)
                .u64("timeout_ms", LIVENESS_TIMEOUT_MS);
            me.expect_ok(host, Outgoing::Json(cmd))?;
        }
        Ok(me)
    }

    fn mark_dead(conn: &mut Conn) {
        conn.alive = false;
        conn.child.kill().ok();
        conn.child.wait().ok();
    }

    /// Stamp the next sequence number, frame (JSON or binary), write,
    /// and account — the send half of a round-trip.
    fn send_cmd(&mut self, host: usize, cmd: Outgoing) -> Result<u64> {
        let stats = &mut self.stats;
        let conn = &mut self.conns[host];
        if !conn.alive {
            return Err(ClusterError::WorkerLost(host));
        }
        let seq = conn.seq;
        conn.seq += 1;
        let payload: Vec<u8> = match cmd {
            Outgoing::Json(obj) => obj.u64("q", seq).build().into_bytes(),
            Outgoing::Bin(obj, body) => binfmt::encode(&obj.u64("q", seq).build(), &body),
        };
        stats.frames += 1;
        stats.frame_bytes += framed_len(payload.len());
        if write_frame_bytes(&mut conn.stream, &payload).is_err() {
            Self::mark_dead(conn);
            return Err(ClusterError::WorkerLost(host));
        }
        Ok(seq)
    }

    /// Receive the reply carrying sequence number `want` from `host`,
    /// tolerating interleaved heartbeats, discarding stale replies from
    /// aborted stages, and watching the liveness deadline.
    fn recv_reply(&mut self, host: usize, want: u64) -> Result<Reply> {
        let liveness = Duration::from_millis(LIVENESS_TIMEOUT_MS);
        let reply = 'outer: {
            let stats = &mut self.stats;
            let conn = &mut self.conns[host];
            if !conn.alive {
                return Err(ClusterError::WorkerLost(host));
            }
            loop {
                match conn.reader.next(&mut conn.stream) {
                    Ok(Some(raw)) => {
                        stats.frames += 1;
                        stats.frame_bytes += framed_len(raw.len());
                        let reply = if binfmt::is_binary(&raw) {
                            let parsed = binfmt::decode(&raw)
                                .ok()
                                .and_then(|(h, b)| Json::parse(h).ok().map(|j| (j, b.to_vec())));
                            match parsed {
                                Some((head, body)) => Reply {
                                    head,
                                    body: Some(body),
                                },
                                None => {
                                    Self::mark_dead(conn);
                                    return Err(ClusterError::Protocol(format!(
                                        "corrupt binary reply from host {host}"
                                    )));
                                }
                            }
                        } else {
                            let parsed = std::str::from_utf8(&raw)
                                .ok()
                                .and_then(|t| Json::parse(t).ok());
                            match parsed {
                                Some(head) => Reply { head, body: None },
                                None => {
                                    Self::mark_dead(conn);
                                    return Err(ClusterError::Protocol(format!(
                                        "unparseable reply from host {host}"
                                    )));
                                }
                            }
                        };
                        if reply.kind() == Some("hb") {
                            conn.last_hb = Instant::now();
                            stats.heartbeats += 1;
                            continue;
                        }
                        match reply.head.get("q").and_then(Json::as_u64) {
                            // A stale reply from an exchange aborted by
                            // worker loss: discard; the connection
                            // re-synchronises by sequence number.
                            Some(q) if q < want => continue,
                            Some(q) if q == want => break 'outer reply,
                            _ => {
                                Self::mark_dead(conn);
                                return Err(ClusterError::Protocol(format!(
                                    "host {host} desynchronised (bad reply sequence)"
                                )));
                            }
                        }
                    }
                    Ok(None) => {
                        if matches!(conn.child.try_wait(), Ok(Some(_)))
                            || conn.last_hb.elapsed() > liveness
                        {
                            Self::mark_dead(conn);
                            return Err(ClusterError::WorkerLost(host));
                        }
                    }
                    Err(_) => {
                        Self::mark_dead(conn);
                        return Err(ClusterError::WorkerLost(host));
                    }
                }
            }
        };
        match reply.kind() {
            Some("err") => {
                let msg = reply
                    .head
                    .get("msg")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                Err(ClusterError::Protocol(format!("host {host}: {msg}")))
            }
            // A worker's peer push failed: the *destination* host is the
            // casualty. Fold it into the normal worker-loss path.
            Some("peerfail") => {
                let h = wire::field_usize(&reply.head, "host").map_err(ClusterError::Protocol)?;
                if let Some(conn) = self.conns.get_mut(h) {
                    Self::mark_dead(conn);
                }
                Err(ClusterError::WorkerLost(h))
            }
            _ => Ok(reply),
        }
    }

    /// One blocking round-trip (used for membership and shutdown).
    fn request(&mut self, host: usize, cmd: Outgoing) -> Result<Reply> {
        let seq = self.send_cmd(host, cmd)?;
        self.stats.rounds += 1;
        self.recv_reply(host, seq)
    }

    /// Dispatch a whole stage: write every command to every host, then
    /// collect the replies in order — one round-trip for the stage.
    /// Replies are returned in command order.
    fn exchange(
        &mut self,
        label: &'static str,
        cmds: Vec<(usize, Outgoing)>,
    ) -> Result<Vec<Reply>> {
        if cmds.is_empty() {
            return Ok(Vec::new());
        }
        let mut pending = Vec::with_capacity(cmds.len());
        for (host, cmd) in cmds {
            let seq = self.send_cmd(host, cmd)?;
            pending.push((host, seq));
        }
        self.stage_hooks(label);
        let mut replies = Vec::with_capacity(pending.len());
        for (host, seq) in pending {
            replies.push(self.recv_reply(host, seq)?);
        }
        self.stats.rounds += 1;
        Ok(replies)
    }

    /// Fire the mid-stage / mid-xfer SIGKILL test hooks: the exchange's
    /// frames are written, no reply has been read.
    fn stage_hooks(&mut self, label: &'static str) {
        self.stages_done += 1;
        if let Some((h, at)) = self.opts.kill_host_mid_stage {
            if self.stages_done == at && h < self.conns.len() {
                self.conns[h].child.kill().ok();
            }
        }
        if label == "xfer" {
            self.xfers_done += 1;
            if let Some((h, at)) = self.opts.kill_host_mid_xfer {
                if self.xfers_done == at && h < self.conns.len() {
                    self.conns[h].child.kill().ok();
                }
            }
        }
    }

    fn check_ok(&self, host: usize, reply: &Reply) -> Result<()> {
        match reply.kind() {
            Some("ok") => Ok(()),
            other => Err(ClusterError::Protocol(format!(
                "host {host}: expected ok, got {other:?}"
            ))),
        }
    }

    fn expect_ok(&mut self, host: usize, cmd: Outgoing) -> Result<()> {
        let reply = self.request(host, cmd)?;
        self.check_ok(host, &reply)
    }

    /// Count one mirrored primitive; fire the SIGKILL test hook when its
    /// moment arrives.
    fn op_tick(&mut self) {
        self.ops_done += 1;
        if let Some((h, at)) = self.opts.kill_host_after_ops {
            if self.ops_done == at && h < self.conns.len() {
                // SIGKILL, on purpose *without* marking the host dead:
                // the liveness machinery must notice on its own.
                self.conns[h].child.kill().ok();
            }
        }
    }

    /// Distinct live hosts with their logical workers, ascending.
    fn hosts_with_ws(&self) -> Vec<(usize, Vec<usize>)> {
        let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (w, &h) in self.assignment.iter().enumerate() {
            map.entry(h).or_default().push(w);
        }
        map.into_iter().collect()
    }

    /// Chunk a batch of placed tiles into binary `install` commands
    /// respecting the frame ceiling.
    fn install_cmds(rid: u64, tiles: &[(usize, usize, usize, &Block)]) -> Vec<Outgoing> {
        let budget = (MAX_FRAME / 2) as usize;
        let head = || JsonObj::new().str("t", "install").u64("rid", rid);
        let mut cmds = Vec::new();
        let mut body = vec![0u8; 4];
        let mut count = 0u32;
        for &(w, bi, bj, tile) in tiles {
            let len = binfmt::tile_wire_len(tile);
            if count > 0 && body.len() + len > budget {
                body[..4].copy_from_slice(&count.to_le_bytes());
                cmds.push(Outgoing::Bin(
                    head(),
                    std::mem::replace(&mut body, vec![0u8; 4]),
                ));
                count = 0;
            }
            binfmt::push_tile(&mut body, w, bi, bj, tile);
            count += 1;
        }
        if count > 0 {
            body[..4].copy_from_slice(&count.to_le_bytes());
            cmds.push(Outgoing::Bin(head(), body));
        }
        cmds
    }

    /// The `seal` command proving one value's shards on a host.
    fn seal_cmd(rid: u64, ws: &[usize]) -> Outgoing {
        let mut ws_arr = JsonArr::new();
        for &w in ws {
            ws_arr = ws_arr.u64(w as u64);
        }
        Outgoing::Json(
            JsonObj::new()
                .str("t", "seal")
                .u64("rid", rid)
                .raw("ws", &ws_arr.build()),
        )
    }

    /// Validate one host's `sealed` reply against the oracle's shards.
    fn check_seal(
        &self,
        op: &'static str,
        value: &DistMatrix,
        host: usize,
        reply: &Reply,
    ) -> Result<()> {
        let shards = wire::field_arr(&reply.head, "shards").map_err(ClusterError::Protocol)?;
        for shard in shards {
            let w = wire::field_usize(shard, "w").map_err(ClusterError::Protocol)?;
            let n = wire::field_usize(shard, "n").map_err(ClusterError::Protocol)?;
            let x = wire::field_str(shard, "x")
                .ok()
                .and_then(wire::parse_hex_u64)
                .ok_or_else(|| ClusterError::Protocol("bad seal checksum".into()))?;
            if w >= value.workers() {
                return Err(ClusterError::Protocol(format!(
                    "seal for unknown worker {w}"
                )));
            }
            let oracle = value.worker_blocks(w);
            let oracle_sum = wire::shard_checksum(oracle.iter().map(|(&k, t)| (k, &**t)));
            if n != oracle.len() || x != oracle_sum {
                return Err(ClusterError::TransportConformance {
                    op,
                    detail: format!(
                        "shard of worker {w} on host {host} diverged \
                         ({n} tiles, checksum {x:016x}; oracle {} tiles, {oracle_sum:016x})",
                        oracle.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Verify a value's physical shards against the oracle — one
    /// pipelined exchange across all hosts.
    fn seal_check(&mut self, op: &'static str, value: &DistMatrix) -> Result<()> {
        let hosts = self.hosts_with_ws();
        let cmds = hosts
            .iter()
            .map(|(host, ws)| (*host, Self::seal_cmd(value.rid(), ws)))
            .collect();
        let replies = self.exchange("seal", cmds)?;
        for ((host, _), reply) in hosts.iter().zip(&replies) {
            self.check_seal(op, value, *host, reply)?;
        }
        Ok(())
    }

    /// Roll an `xferred` reply's per-edge receipts into the stats and
    /// return the per-item source-byte receipts.
    fn take_xferred(&mut self, host: usize, reply: &Reply) -> Result<Vec<u64>> {
        if reply.kind() != Some("xferred") {
            return Err(ClusterError::Protocol(format!(
                "host {host}: expected xferred, got {:?}",
                reply.kind()
            )));
        }
        for edge in wire::field_arr(&reply.head, "edges").map_err(ClusterError::Protocol)? {
            self.stats.peer_bytes += wire::field_u64(edge, "b").map_err(ClusterError::Protocol)?;
        }
        let mut bytes = Vec::new();
        for b in wire::field_arr(&reply.head, "bytes").map_err(ClusterError::Protocol)? {
            bytes.push(
                b.as_u64()
                    .ok_or_else(|| ClusterError::Protocol("bad xfer byte count".into()))?,
            );
        }
        Ok(bytes)
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn is_physical(&self) -> bool {
        true
    }

    fn set_assignment(&mut self, assignment: &[usize]) {
        // A remap means previously installed placements are stale: a
        // surviving matrix's logical shard may now live on a different
        // physical host. Forget every rid so the next use re-installs
        // shards under the new assignment (unmetered, like any install).
        if self.assignment != assignment {
            self.known.clear();
        }
        self.assignment = assignment.to_vec();
    }

    fn ensure_resident(&mut self, m: &DistMatrix) -> Result<()> {
        if self.known.contains(&m.rid()) {
            return Ok(());
        }
        let mut per_host: BTreeMap<usize, Vec<(usize, usize, usize, &Block)>> = BTreeMap::new();
        let mut bytes = 0u64;
        for w in 0..m.workers() {
            let host = self.assignment[w];
            for (&(bi, bj), tile) in m.worker_blocks(w) {
                bytes += tile.actual_bytes() as u64;
                per_host.entry(host).or_default().push((w, bi, bj, tile));
            }
        }
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        for (host, tiles) in &per_host {
            for cmd in Self::install_cmds(m.rid(), tiles) {
                cmds.push((*host, cmd));
            }
        }
        let replies = self.exchange("install", cmds)?;
        for reply in &replies {
            // Hosts answer in command order; an err would have surfaced
            // in recv already, this guards against type confusion.
            if reply.kind() != Some("ok") {
                return Err(ClusterError::Protocol(format!(
                    "install: expected ok, got {:?}",
                    reply.kind()
                )));
            }
        }
        self.known.insert(m.rid());
        self.stats.install_bytes += bytes;
        Ok(())
    }

    fn move_tiles(
        &mut self,
        op: &'static str,
        src: &DistMatrix,
        dest: &DistMatrix,
        transform: TileTransform,
        moves: &[MoveItem],
    ) -> Result<u64> {
        self.op_tick();
        self.stats.ops += 1;
        self.ensure_resident(src)?;
        let tr_name = match transform {
            TileTransform::None => "none",
            TileTransform::Transpose => "transpose",
        };
        // Same-host moves run as worker-local copies. Cross-host moves
        // are pushed worker-to-worker via `xfer` routing plans. Either
        // way the *logical* metering below is identical to the oracle's.
        let mut local: BTreeMap<usize, (Vec<&MoveItem>, JsonArr)> = BTreeMap::new();
        let mut xfer: BTreeMap<usize, (Vec<&MoveItem>, JsonArr)> = BTreeMap::new();
        for mv in moves {
            let sh = self.assignment[mv.src_w];
            let dh = self.assignment[mv.dest_w];
            if sh == dh {
                let entry = local
                    .entry(sh)
                    .or_insert_with(|| (Vec::new(), JsonArr::new()));
                entry.0.push(mv);
                let items = std::mem::take(&mut entry.1);
                entry.1 = items.raw(
                    &JsonObj::new()
                        .u64("wi", mv.src_w as u64)
                        .u64("wo", mv.dest_w as u64)
                        .u64("bi", mv.bi as u64)
                        .u64("bj", mv.bj as u64)
                        .build(),
                );
            } else {
                let entry = xfer
                    .entry(sh)
                    .or_insert_with(|| (Vec::new(), JsonArr::new()));
                entry.0.push(mv);
                let items = std::mem::take(&mut entry.1);
                entry.1 = items.raw(
                    &JsonObj::new()
                        .u64("wi", mv.src_w as u64)
                        .u64("wo", mv.dest_w as u64)
                        .u64("bi", mv.bi as u64)
                        .u64("bj", mv.bj as u64)
                        .u64("dh", dh as u64)
                        .build(),
                );
            }
        }
        let mut payload = 0u64;
        let mut free = 0u64;
        let mut tally = |items: &[&MoveItem], bytes: &[u64]| -> Result<()> {
            if bytes.len() != items.len() {
                return Err(ClusterError::Protocol(
                    "move receipt length mismatch".into(),
                ));
            }
            for (mv, &b) in items.iter().zip(bytes) {
                if mv.metered {
                    payload += b;
                } else {
                    free += b;
                }
            }
            Ok(())
        };
        // One exchange carries every local copy and every routing plan;
        // by the time the replies are in, all peer pushes are acked.
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        let mut order: Vec<Vec<&MoveItem>> = Vec::new();
        let mut kinds: Vec<&'static str> = Vec::new();
        for (host, (items, arr)) in local {
            cmds.push((
                host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "copy")
                        .u64("rid_in", src.rid())
                        .u64("rid_out", dest.rid())
                        .str("tr", tr_name)
                        .raw("items", &arr.build()),
                ),
            ));
            order.push(items);
            kinds.push("copied");
        }
        let label = if xfer.is_empty() { "move" } else { "xfer" };
        for (host, (items, arr)) in xfer {
            cmds.push((
                host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "xfer")
                        .u64("rid_in", src.rid())
                        .u64("rid_out", dest.rid())
                        .str("tr", tr_name)
                        .raw("items", &arr.build()),
                ),
            ));
            order.push(items);
            kinds.push("xferred");
        }
        let hosts: Vec<usize> = cmds.iter().map(|(h, _)| *h).collect();
        let replies = self.exchange(label, cmds)?;
        for (((host, reply), items), kind) in hosts.iter().zip(&replies).zip(&order).zip(&kinds) {
            let bytes: Vec<u64> = if *kind == "xferred" {
                self.take_xferred(*host, reply)?
            } else {
                if reply.kind() != Some("copied") {
                    return Err(ClusterError::Protocol(format!(
                        "host {host}: expected copied, got {:?}",
                        reply.kind()
                    )));
                }
                let mut v = Vec::new();
                for b in wire::field_arr(&reply.head, "bytes").map_err(ClusterError::Protocol)? {
                    v.push(
                        b.as_u64()
                            .ok_or_else(|| ClusterError::Protocol("bad copy byte count".into()))?,
                    );
                }
                v
            };
            tally(items, &bytes)?;
        }
        self.seal_check(op, dest)?;
        self.known.insert(dest.rid());
        self.stats.payload_bytes += payload;
        self.stats.free_bytes += free;
        Ok(payload)
    }

    fn run_mm(
        &mut self,
        op: &'static str,
        a: &DistMatrix,
        b: &DistMatrix,
        out: &DistMatrix,
    ) -> Result<()> {
        self.op_tick();
        self.stats.ops += 1;
        self.ensure_resident(a)?;
        self.ensure_resident(b)?;
        let kb = a.meta().col_blocks;
        // One exchange: each host gets its task list (if any) chained
        // with its seal — the worker runs them in order, so op + proof
        // cost a single round-trip for the whole stage.
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        let mut seals: Vec<Option<usize>> = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut tasks = JsonArr::new();
            let mut any = false;
            for &w in &ws {
                for &(bi, bj) in out.worker_blocks(w).keys() {
                    any = true;
                    tasks = tasks.raw(
                        &JsonObj::new()
                            .u64("w", w as u64)
                            .u64("bi", bi as u64)
                            .u64("bj", bj as u64)
                            .build(),
                    );
                }
            }
            if any {
                cmds.push((
                    host,
                    Outgoing::Json(
                        JsonObj::new()
                            .str("t", "mm")
                            .u64("rid_a", a.rid())
                            .u64("rid_b", b.rid())
                            .u64("rid_out", out.rid())
                            .u64("kb", kb as u64)
                            .u64("rows", out.rows() as u64)
                            .u64("cols", out.cols() as u64)
                            .u64("block", out.block_size() as u64)
                            .raw("tasks", &tasks.build()),
                    ),
                ));
                seals.push(None);
            }
            cmds.push((host, Self::seal_cmd(out.rid(), &ws)));
            seals.push(Some(host));
        }
        let hosts: Vec<usize> = cmds.iter().map(|(h, _)| *h).collect();
        let replies = self.exchange(op, cmds)?;
        for ((host, reply), seal) in hosts.iter().zip(&replies).zip(&seals) {
            match seal {
                None => self.check_ok(*host, reply)?,
                Some(h) => self.check_seal(op, out, *h, reply)?,
            }
        }
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_cpmm(
        &mut self,
        a: &DistMatrix,
        b: &DistMatrix,
        out: &DistMatrix,
        partials: &[PartialDesc],
    ) -> Result<u64> {
        self.op_tick();
        self.stats.ops += 1;
        self.ensure_resident(a)?;
        self.ensure_resident(b)?;
        let stage = fresh_rid();
        let n = out.workers();
        let kb = a.meta().col_blocks;

        // Phase 1 (one round): partial products where the k-slices live.
        let hosts_ws = self.hosts_with_ws();
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        for (host, ws) in &hosts_ws {
            let mut ws_arr = JsonArr::new();
            for &w in ws {
                ws_arr = ws_arr.u64(w as u64);
            }
            cmds.push((
                *host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "cpmm1")
                        .u64("rid_a", a.rid())
                        .u64("rid_b", b.rid())
                        .u64("stage", stage)
                        .u64("n", n as u64)
                        .u64("kb", kb as u64)
                        .u64("rows", out.rows() as u64)
                        .u64("cols", out.cols() as u64)
                        .u64("block", out.block_size() as u64)
                        .raw("ws", &ws_arr.build()),
                ),
            ));
        }
        let replies = self.exchange("cpmm1", cmds)?;
        let mut worker_descs: Vec<PartialDesc> = Vec::new();
        for reply in &replies {
            for d in wire::field_arr(&reply.head, "descs").map_err(ClusterError::Protocol)? {
                let src_w = wire::field_usize(d, "w").map_err(ClusterError::Protocol)?;
                let bi = wire::field_usize(d, "bi").map_err(ClusterError::Protocol)?;
                let bj = wire::field_usize(d, "bj").map_err(ClusterError::Protocol)?;
                let bytes = wire::field_u64(d, "b").map_err(ClusterError::Protocol)?;
                let dest_w = out
                    .owner_of(bi, bj)
                    .ok_or_else(|| ClusterError::Protocol("cpmm partial outside grid".into()))?;
                worker_descs.push(PartialDesc {
                    bi,
                    bj,
                    src_w,
                    dest_w,
                    bytes,
                });
            }
        }
        let mut want: Vec<PartialDesc> = partials.to_vec();
        want.sort_unstable();
        worker_descs.sort_unstable();
        if want != worker_descs {
            return Err(ClusterError::TransportConformance {
                op: "cpmm",
                detail: format!(
                    "partial sets diverged: oracle {} partials, workers {}",
                    want.len(),
                    worker_descs.len()
                ),
            });
        }

        // Shuffle cross-host partials to the output owners, preserving
        // their source identity (the phase-2 combine is keyed by
        // ascending source worker): one `xfer` round peer-to-peer.
        let mut per_src: BTreeMap<usize, JsonArr> = BTreeMap::new();
        for p in partials {
            let sh = self.assignment[p.src_w];
            let dh = self.assignment[p.dest_w];
            if sh != dh {
                let arr = per_src.entry(sh).or_default();
                let taken = std::mem::take(arr);
                *arr = taken.raw(
                    &JsonObj::new()
                        .u64("wi", p.src_w as u64)
                        .u64("wo", p.src_w as u64)
                        .u64("bi", p.bi as u64)
                        .u64("bj", p.bj as u64)
                        .u64("dh", dh as u64)
                        .build(),
                );
            }
        }
        let cmds: Vec<(usize, Outgoing)> = per_src
            .into_iter()
            .map(|(host, arr)| {
                (
                    host,
                    Outgoing::Json(
                        JsonObj::new()
                            .str("t", "xfer")
                            .u64("rid_in", stage)
                            .u64("rid_out", stage)
                            .str("tr", "none")
                            .raw("items", &arr.build()),
                    ),
                )
            })
            .collect();
        let hosts: Vec<usize> = cmds.iter().map(|(h, _)| *h).collect();
        let replies = self.exchange("xfer", cmds)?;
        for (host, reply) in hosts.iter().zip(&replies) {
            self.take_xferred(*host, reply)?;
        }

        // Phase 2 (one round): combine at the owners in ascending source
        // order, retire the staging shards, seal — chained per host.
        let mut srcs_of: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for p in partials {
            srcs_of.entry((p.bi, p.bj)).or_default().push(p.src_w);
        }
        for v in srcs_of.values_mut() {
            v.sort_unstable();
        }
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        let mut seals: Vec<Option<usize>> = Vec::new();
        for (host, ws) in &hosts_ws {
            let mut tasks = JsonArr::new();
            let mut any = false;
            for &w in ws {
                for &(bi, bj) in out.worker_blocks(w).keys() {
                    any = true;
                    let mut srcs = JsonArr::new();
                    if let Some(list) = srcs_of.get(&(bi, bj)) {
                        for &s in list {
                            srcs = srcs.u64(s as u64);
                        }
                    }
                    tasks = tasks.raw(
                        &JsonObj::new()
                            .u64("w", w as u64)
                            .u64("bi", bi as u64)
                            .u64("bj", bj as u64)
                            .raw("srcs", &srcs.build())
                            .build(),
                    );
                }
            }
            if any {
                cmds.push((
                    *host,
                    Outgoing::Json(
                        JsonObj::new()
                            .str("t", "cpmm2")
                            .u64("stage", stage)
                            .u64("rid_out", out.rid())
                            .u64("rows", out.rows() as u64)
                            .u64("cols", out.cols() as u64)
                            .u64("block", out.block_size() as u64)
                            .raw("tasks", &tasks.build()),
                    ),
                ));
                seals.push(None);
            }
            cmds.push((
                *host,
                Outgoing::Json(JsonObj::new().str("t", "free").u64("rid", stage)),
            ));
            seals.push(None);
            cmds.push((*host, Self::seal_cmd(out.rid(), ws)));
            seals.push(Some(*host));
        }
        let hosts: Vec<usize> = cmds.iter().map(|(h, _)| *h).collect();
        let replies = self.exchange("cpmm2", cmds)?;
        for ((host, reply), seal) in hosts.iter().zip(&replies).zip(&seals) {
            match seal {
                None => self.check_ok(*host, reply)?,
                Some(h) => self.check_seal("cpmm", out, *h, reply)?,
            }
        }
        self.known.insert(out.rid());
        let payload: u64 = partials
            .iter()
            .filter(|p| p.src_w != p.dest_w)
            .map(|p| p.bytes)
            .sum();
        self.stats.payload_bytes += payload;
        Ok(payload)
    }

    fn run_cell(
        &mut self,
        op: CellOp,
        a: &DistMatrix,
        b: &DistMatrix,
        out: &DistMatrix,
    ) -> Result<()> {
        self.op_tick();
        self.stats.ops += 1;
        self.ensure_resident(a)?;
        self.ensure_resident(b)?;
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        let mut seals: Vec<Option<usize>> = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut tasks = JsonArr::new();
            let mut any = false;
            for &w in &ws {
                for &(bi, bj) in out.worker_blocks(w).keys() {
                    any = true;
                    tasks = tasks.raw(
                        &JsonObj::new()
                            .u64("w", w as u64)
                            .u64("bi", bi as u64)
                            .u64("bj", bj as u64)
                            .build(),
                    );
                }
            }
            if any {
                cmds.push((
                    host,
                    Outgoing::Json(
                        JsonObj::new()
                            .str("t", "cell")
                            .str("op", op.name())
                            .u64("rid_a", a.rid())
                            .u64("rid_b", b.rid())
                            .u64("rid_out", out.rid())
                            .raw("tasks", &tasks.build()),
                    ),
                ));
                seals.push(None);
            }
            cmds.push((host, Self::seal_cmd(out.rid(), &ws)));
            seals.push(Some(host));
        }
        let hosts: Vec<usize> = cmds.iter().map(|(h, _)| *h).collect();
        let replies = self.exchange("cell", cmds)?;
        for ((host, reply), seal) in hosts.iter().zip(&replies).zip(&seals) {
            match seal {
                None => self.check_ok(*host, reply)?,
                Some(h) => self.check_seal("cellwise", out, *h, reply)?,
            }
        }
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_fused(
        &mut self,
        prog: &[FusedOp],
        leaves: &[&DistMatrix],
        out: &DistMatrix,
    ) -> Result<()> {
        self.op_tick();
        self.stats.ops += 1;
        for leaf in leaves {
            self.ensure_resident(leaf)?;
        }
        let mut rids = JsonArr::new();
        for leaf in leaves {
            rids = rids.u64(leaf.rid());
        }
        let rids = rids.build();
        // Scalar constants travel as a raw f64 body section referenced
        // by slot index; a program without constants is a JSON command.
        let (prog_json, consts) = wire::encode_prog_indexed(prog);
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        let mut seals: Vec<Option<usize>> = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut tasks = JsonArr::new();
            let mut any = false;
            for &w in &ws {
                for &(bi, bj) in out.worker_blocks(w).keys() {
                    any = true;
                    tasks = tasks.raw(
                        &JsonObj::new()
                            .u64("w", w as u64)
                            .u64("bi", bi as u64)
                            .u64("bj", bj as u64)
                            .build(),
                    );
                }
            }
            if any {
                let head = JsonObj::new()
                    .str("t", "fused")
                    .raw("rids", &rids)
                    .raw("prog", &prog_json)
                    .u64("rid_out", out.rid())
                    .raw("tasks", &tasks.build());
                let cmd = if consts.is_empty() {
                    Outgoing::Json(head)
                } else {
                    Outgoing::Bin(head, binfmt::encode_f64s(&consts))
                };
                cmds.push((host, cmd));
                seals.push(None);
            }
            cmds.push((host, Self::seal_cmd(out.rid(), &ws)));
            seals.push(Some(host));
        }
        let hosts: Vec<usize> = cmds.iter().map(|(h, _)| *h).collect();
        let replies = self.exchange("fused", cmds)?;
        for ((host, reply), seal) in hosts.iter().zip(&replies).zip(&seals) {
            match seal {
                None => self.check_ok(*host, reply)?,
                Some(h) => self.check_seal("fused", out, *h, reply)?,
            }
        }
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_unary(&mut self, op: UnaryTileOp, src: &DistMatrix, out: &DistMatrix) -> Result<()> {
        self.op_tick();
        self.stats.ops += 1;
        self.ensure_resident(src)?;
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        let mut seals: Vec<Option<usize>> = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut tasks = JsonArr::new();
            let mut any = false;
            for &w in &ws {
                for &(bi, bj) in out.worker_blocks(w).keys() {
                    any = true;
                    tasks = tasks.raw(
                        &JsonObj::new()
                            .u64("w", w as u64)
                            .u64("bi", bi as u64)
                            .u64("bj", bj as u64)
                            .build(),
                    );
                }
            }
            if any {
                cmds.push((
                    host,
                    Outgoing::Json(
                        JsonObj::new()
                            .str("t", "unary")
                            .str("op", op.name())
                            .str("c", &wire::hex_f64(op.constant()))
                            .u64("rid_in", src.rid())
                            .u64("rid_out", out.rid())
                            .raw("tasks", &tasks.build()),
                    ),
                ));
                seals.push(None);
            }
            cmds.push((host, Self::seal_cmd(out.rid(), &ws)));
            seals.push(Some(host));
        }
        let hosts: Vec<usize> = cmds.iter().map(|(h, _)| *h).collect();
        let replies = self.exchange("unary", cmds)?;
        for ((host, reply), seal) in hosts.iter().zip(&replies).zip(&seals) {
            match seal {
                None => self.check_ok(*host, reply)?,
                Some(h) => self.check_seal("map", out, *h, reply)?,
            }
        }
        self.known.insert(out.rid());
        Ok(())
    }

    fn run_reduce(&mut self, kind: ReduceKind, m: &DistMatrix, partials: &[f64]) -> Result<u64> {
        self.op_tick();
        self.stats.ops += 1;
        self.ensure_resident(m)?;
        let kind_name = match kind {
            ReduceKind::Sum => "sum",
            ReduceKind::Norm2 => "norm2",
        };
        // Broadcast values are fully replicated: only worker 0's fold
        // enters the total, so only it is conformance-checked.
        let broadcast = m.scheme() == PartitionScheme::Broadcast;
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let check: Vec<usize> = if broadcast {
                ws.iter().copied().filter(|&w| w == 0).collect()
            } else {
                ws
            };
            if check.is_empty() {
                continue;
            }
            let mut ws_arr = JsonArr::new();
            for &w in &check {
                ws_arr = ws_arr.u64(w as u64);
            }
            cmds.push((
                host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "reduce")
                        .str("kind", kind_name)
                        .u64("rid", m.rid())
                        .raw("ws", &ws_arr.build()),
                ),
            ));
        }
        let replies = self.exchange("reduce", cmds)?;
        for reply in &replies {
            for part in wire::field_arr(&reply.head, "parts").map_err(ClusterError::Protocol)? {
                let w = wire::field_usize(part, "w").map_err(ClusterError::Protocol)?;
                let x = wire::field_str(part, "x")
                    .ok()
                    .and_then(wire::parse_hex_f64)
                    .ok_or_else(|| ClusterError::Protocol("bad reduce partial".into()))?;
                let want = partials.get(w).copied().ok_or_else(|| {
                    ClusterError::Protocol(format!("reduce partial for unknown worker {w}"))
                })?;
                if x.to_bits() != want.to_bits() {
                    return Err(ClusterError::TransportConformance {
                        op: "reduce",
                        detail: format!("worker {w} partial {x:e} != oracle {want:e} (bitwise)"),
                    });
                }
            }
        }
        Ok(8 * m.workers() as u64)
    }

    fn free_value(&mut self, m: &DistMatrix) -> Result<u64> {
        if !self.known.remove(&m.rid()) {
            return Ok(0);
        }
        self.op_tick();
        self.stats.ops += 1;
        // Every host holding a shard of the rid drops all of them; the
        // byte receipt is computed from the oracle's tiles, which are
        // what `install`/seal proved resident in the first place.
        let mut hosts: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut bytes = 0u64;
        for w in 0..m.workers() {
            let shards = m.worker_blocks(w);
            if !shards.is_empty() {
                hosts.insert(self.assignment[w]);
                for tile in shards.values() {
                    bytes += tile.actual_bytes() as u64;
                }
            }
        }
        let cmds: Vec<(usize, Outgoing)> = hosts
            .into_iter()
            .map(|h| {
                (
                    h,
                    Outgoing::Json(JsonObj::new().str("t", "free").u64("rid", m.rid())),
                )
            })
            .collect();
        for reply in self.exchange("free", cmds)? {
            if reply.kind() != Some("ok") {
                return Err(ClusterError::Protocol(format!(
                    "free: expected ok, got {:?}",
                    reply.kind()
                )));
            }
        }
        self.stats.released_bytes += bytes;
        Ok(bytes)
    }

    fn gather(&mut self, m: &DistMatrix) -> Result<Option<DistMatrix>> {
        self.ensure_resident(m)?;
        let broadcast = m.scheme() == PartitionScheme::Broadcast;
        let mut cmds: Vec<(usize, Outgoing)> = Vec::new();
        for (host, ws) in self.hosts_with_ws() {
            let mut items = JsonArr::new();
            let mut count = 0usize;
            for &w in &ws {
                if broadcast && w != 0 {
                    continue;
                }
                for &(bi, bj) in m.worker_blocks(w).keys() {
                    count += 1;
                    items = items.raw(
                        &JsonObj::new()
                            .u64("w", w as u64)
                            .u64("bi", bi as u64)
                            .u64("bj", bj as u64)
                            .build(),
                    );
                }
            }
            if count == 0 {
                continue;
            }
            cmds.push((
                host,
                Outgoing::Json(
                    JsonObj::new()
                        .str("t", "collect")
                        .u64("rid", m.rid())
                        .raw("items", &items.build()),
                ),
            ));
        }
        let replies = self.exchange("gather", cmds)?;
        let mut placed: Vec<(Option<usize>, usize, usize, Arc<Block>)> = Vec::new();
        for reply in &replies {
            for (w, bi, bj, block) in reply_tiles(reply).map_err(ClusterError::Protocol)? {
                placed.push((Some(w), bi, bj, Arc::new(block)));
            }
        }
        // Hash placement validates "every tile exactly once, anywhere",
        // which is precisely what a physical gather guarantees (for
        // Broadcast, worker 0's replica stands for the value).
        let gathered = DistMatrix::from_placed_tiles(
            m.rows(),
            m.cols(),
            m.block_size(),
            PartitionScheme::Hash,
            m.workers(),
            placed,
        )?;
        Ok(Some(gathered))
    }

    fn poll_liveness(&mut self) -> Vec<usize> {
        let liveness = Duration::from_millis(LIVENESS_TIMEOUT_MS);
        let mut newly = Vec::new();
        for host in 0..self.conns.len() {
            if self.reported.contains(&host) {
                continue;
            }
            let conn = &mut self.conns[host];
            if conn.alive {
                if matches!(conn.child.try_wait(), Ok(Some(_))) {
                    Self::mark_dead(conn);
                } else {
                    // Drain buffered heartbeats without blocking.
                    conn.stream.set_nonblocking(true).ok();
                    loop {
                        match conn.reader.next(&mut conn.stream) {
                            Ok(Some(raw)) => {
                                self.stats.frames += 1;
                                self.stats.frame_bytes += framed_len(raw.len());
                                let head = if binfmt::is_binary(&raw) {
                                    binfmt::decode(&raw)
                                        .ok()
                                        .and_then(|(h, _)| Json::parse(h).ok())
                                } else {
                                    std::str::from_utf8(&raw)
                                        .ok()
                                        .and_then(|t| Json::parse(t).ok())
                                };
                                match head {
                                    Some(j) if j.get("t").and_then(Json::as_str) == Some("hb") => {
                                        conn.last_hb = Instant::now();
                                        self.stats.heartbeats += 1;
                                    }
                                    // A sequence-tagged reply nobody is
                                    // awaiting: leftover from an exchange
                                    // aborted by another host's death.
                                    // Discard; the stream stays coherent.
                                    Some(j) if j.get("q").and_then(Json::as_u64).is_some() => {}
                                    // An unsolicited frame that is
                                    // neither means the stream is not in
                                    // a state we can reason about.
                                    _ => {
                                        Self::mark_dead(conn);
                                        break;
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                Self::mark_dead(conn);
                                break;
                            }
                        }
                    }
                    conn.stream.set_nonblocking(false).ok();
                    conn.stream
                        .set_read_timeout(Some(Duration::from_millis(250)))
                        .ok();
                    if conn.alive && conn.last_hb.elapsed() > liveness {
                        Self::mark_dead(conn);
                    }
                }
            }
            if !conn.alive {
                self.reported.insert(host);
                newly.push(host);
            }
        }
        newly
    }

    fn host_down(&mut self, host: usize) {
        self.reported.insert(host);
        if let Some(conn) = self.conns.get_mut(host) {
            Self::mark_dead(conn);
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn debug_kill_host(&mut self, host: usize) -> bool {
        match self.conns.get_mut(host) {
            Some(conn) => conn.child.kill().is_ok(),
            None => false,
        }
    }

    fn shutdown(&mut self) -> Result<()> {
        if self.shut {
            return Ok(());
        }
        self.shut = true;
        let mut leaked = Vec::new();
        for host in 0..self.conns.len() {
            if self.conns[host].alive {
                // Best-effort goodbye; a host dying here is not a leak.
                match self.request(host, Outgoing::Json(JsonObj::new().str("t", "shutdown"))) {
                    Ok(reply) if reply.kind() == Some("bye") => {}
                    _ => {}
                }
                let conn = &mut self.conns[host];
                conn.alive = false;
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match conn.child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        _ => {
                            conn.child.kill().ok();
                            conn.child.wait().ok();
                            leaked.push(host);
                            break;
                        }
                    }
                }
            } else {
                // Already-dead hosts were reaped by mark_dead.
                self.conns[host].child.try_wait().ok();
            }
        }
        if leaked.is_empty() {
            Ok(())
        } else {
            Err(ClusterError::Protocol(format!(
                "worker processes leaked past shutdown and were killed: hosts {leaked:?}"
            )))
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for conn in &mut self.conns {
            conn.child.kill().ok();
            conn.child.wait().ok();
        }
    }
}
