"""A shard node: one networked GNN server over one shard snapshot.

:class:`ShardNode` puts a TCP front on the existing
:class:`~repro.serve.server.GNNServer`: it mmaps one shard's snapshot,
forks the usual worker pool over it, and accepts coordinator
connections speaking the length-prefixed pickle framing of
:mod:`repro.serve.protocol` with the :mod:`repro.shard.wire` messages.

The network layer is a single asyncio event loop running in a daemon
thread; queries never execute on it.  Each :class:`ShardQuery` frame is
decoded and handed to ``GNNServer.submit`` (non-blocking — admission
control and planning happen synchronously, execution in the worker
pool), and the future's completion is bounced back onto the loop to
write the :class:`ShardReply` frame.  Because submission does not wait
for execution, one connection carries any number of in-flight
sub-queries and replies stream back in completion order — the
pipelining the coordinator's scatter phase relies on.

Admission-control rejections (:class:`ServerOverloadedError`) are
reported with ``overloaded=True`` so the coordinator can retry after
backoff; planning or execution failures are terminal for that query.
"""

from __future__ import annotations

import asyncio
import socket
import threading

from repro.obs.logging import get_logger
from repro.serve.protocol import decode_spec, encode_result, pack_frame, read_frame, set_nodelay
from repro.serve.server import DEFAULT_MAX_PENDING, GNNServer, ServerOverloadedError
from repro.shard.wire import (
    ShardPing,
    ShardPong,
    ShardQuery,
    ShardReply,
    ShardStatsQuery,
    ShardStatsReply,
)
from repro.testing import faults

_log = get_logger("shard.node")


def listen_socket(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """A TCP listener bound to ``(host, port)``; ``port=0`` picks a free port."""
    family = socket.AF_INET6 if ":" in host else socket.AF_INET
    return socket.create_server((host, port), family=family)


class ShardNode:
    """Serve one shard snapshot to coordinators over TCP.

    Parameters
    ----------
    shard_id:
        This node's id in the federation's manifest (echoed in pongs so
        a coordinator detects miswired addresses).
    snapshot_path:
        The shard's :class:`FlatRTree` snapshot (``.npz``).
    host / port:
        Listen address; ``port=0`` (the default) lets the OS pick a free
        port — :meth:`start` returns the bound address.
    listener:
        A bound, listening socket (:func:`listen_socket`) to serve on
        instead of binding ``host``/``port``; the node owns it from here.
    server_options:
        Forwarded to :class:`GNNServer` (``workers``, ``window_s``,
        ``max_batch``, ``max_pending``, ``io_stall_s_per_access``...).
        The default window is 0 — shard nodes answer sub-queries
        individually, which keeps per-request cost accounting exact;
        raise it to micro-batch under heavy fan-in.
    """

    def __init__(
        self,
        shard_id: int,
        snapshot_path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        listener: socket.socket | None = None,
        max_pending: int = DEFAULT_MAX_PENDING,
        window_s: float = 0.0,
        **server_options,
    ):
        self.shard_id = int(shard_id)
        self.snapshot_path = str(snapshot_path)
        self._host = host
        self._port = port
        self._listener = listener
        self._server = GNNServer(
            snapshot_path,
            max_pending=max_pending,
            window_s=window_s,
            **server_options,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._tcp_server: asyncio.base_events.Server | None = None
        self._connections: set = set()
        self._closed = threading.Event()
        self.address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Start listening; returns the bound ``(host, port)``."""
        if self._loop is not None:
            raise RuntimeError("this ShardNode was already started")
        loop = asyncio.new_event_loop()
        self._loop = loop
        self._thread = threading.Thread(
            target=loop.run_forever, name=f"shard-node-{self.shard_id}", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._listen(), loop)
        self.address = future.result(timeout=10.0)
        _log.info(
            "node.started",
            shard=self.shard_id,
            address=list(self.address),
            generation=self.generation,
        )
        return self.address

    async def _listen(self) -> tuple[str, int]:
        listener, self._listener = self._listener, None
        if listener is None:
            listener = listen_socket(self._host, self._port)
        self._tcp_server = await asyncio.start_server(self._serve_connection, sock=listener)
        sockname = listener.getsockname()
        return (sockname[0], sockname[1])

    # The snapshot's identity is the server's: one mapping, no second open.
    @property
    def generation(self) -> int:
        return self._server.snapshot.generation

    @property
    def size(self) -> int:
        return self._server.snapshot.size

    @property
    def dims(self) -> int:
        return self._server.snapshot.dims

    def close(self) -> None:
        """Stop accepting, drop connections, shut the worker pool down.

        Idempotent: later calls (or a concurrent second closer) return
        without re-running the teardown.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        loop, self._loop = self._loop, None
        if loop is not None:
            try:
                asyncio.run_coroutine_threadsafe(self._shutdown(), loop).result(
                    timeout=10.0
                )
            except Exception:
                pass
            loop.call_soon_threadsafe(loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=10.0)
            loop.close()
        if self._listener is not None:  # handed over but never served
            self._listener.close()
        self._server.close()
        _log.info("node.closed", shard=self.shard_id)

    async def _shutdown(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        # Yield once so the transports' connection_lost callbacks run
        # while the loop is still alive (quiet garbage collection).
        await asyncio.sleep(0)

    def __enter__(self) -> "ShardNode":
        if self._loop is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """The unified stats shape, plus this node's ``shard`` identity."""
        snapshot = self._server.stats()
        snapshot["shard"] = {
            "shard_id": self.shard_id,
            "generation": self.generation,
            "size": self.size,
            "address": list(self.address) if self.address else None,
        }
        return snapshot

    def latency_seconds(self) -> list[float]:
        """The wrapped server's latency reservoir (metrics adapters)."""
        return self._server.latency_seconds()

    def stats_payload(self) -> dict:
        """The :class:`ShardStatsReply` payload (also what HTTP serves).

        Includes rendered Prometheus text when a metrics registry is
        attached via :meth:`start_exposition` or assigned to
        :attr:`registry`.
        """
        payload = {
            "shard_id": self.shard_id,
            "generation": self.generation,
            "stats": self.stats(),
        }
        registry = getattr(self, "registry", None)
        if registry is not None:
            from repro.obs.exposition import render

            payload["metrics"] = render(registry)
        return payload

    #: Optional metrics registry answering STATS scrapes; set by
    #: :meth:`start_exposition` (or directly by embedding code).
    registry = None

    def start_exposition(self, host: str = "127.0.0.1", port: int = 0):
        """Attach a metrics registry and start the admin HTTP listener.

        The registry mounts this node's server collector; the same
        registry also starts answering the STATS wire op with rendered
        Prometheus text.  Returns the HTTP ``(host, port)``.
        """
        from repro.obs.metrics import MetricsRegistry, server_collector

        if self.registry is None:
            registry = MetricsRegistry()
            registry.register(server_collector(self))
            self.registry = registry
        return self._server.start_exposition(
            host, port, registry=self.registry, stats_fn=self.stats_payload
        )

    def swap_snapshot(self, path) -> int:
        """Hot-swap this node onto a compacted successor snapshot.

        Passthrough to :meth:`GNNServer.swap_snapshot`: in-flight
        batches finish on the old mapping, later ones answer from the
        new file.  Coordinators see the new generation in the next pong.
        Returns the new epoch.
        """
        epoch = self._server.swap_snapshot(path)
        self.snapshot_path = str(path)
        return epoch

    def __repr__(self) -> str:
        return (
            f"ShardNode(shard_id={self.shard_id}, address={self.address}, "
            f"size={self.size}, generation={self.generation})"
        )

    # ------------------------------------------------------------------
    # the per-connection protocol loop
    # ------------------------------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        """Read frames until EOF; every frame is answered exactly once."""
        set_nodelay(writer)
        self._connections.add(writer)
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except (ConnectionError, ValueError):
                    break
                if message is None:
                    break
                # ``node.recv`` covers one received frame: a ``drop`` arm
                # swallows it (the peer's request times out), ``delay``
                # holds it, and ``kill`` dies mid-conversation — the
                # chaos suite's dead-shard scenarios.
                action = faults.frame_action("node.recv")
                if action is not None:
                    if action[0] == "drop":
                        continue
                    if action[0] == "delay":
                        await asyncio.sleep(action[1])
                if isinstance(message, ShardPing):
                    self._write_frame(
                        writer,
                        pack_frame(
                            ShardPong(
                                request_id=message.request_id,
                                shard_id=self.shard_id,
                                generation=self._server.epoch,
                                size=self.size,
                                dims=self.dims,
                            )
                        ),
                    )
                elif isinstance(message, ShardQuery):
                    self._admit(message, writer)
                elif isinstance(message, ShardStatsQuery):
                    self._write_frame(
                        writer,
                        pack_frame(
                            ShardStatsReply(
                                request_id=message.request_id,
                                payload=self.stats_payload(),
                            )
                        ),
                    )
                else:
                    break  # unknown frame: drop the connection
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _admit(self, query: ShardQuery, writer) -> None:
        """Hand one sub-query to the worker pool; reply when it resolves."""
        try:
            spec = decode_spec(query.payload)
            future = self._server.submit(spec, trace_parent=query.trace)
        except ServerOverloadedError as error:
            self._write_frame(
                writer,
                pack_frame(
                    ShardReply(
                        request_id=query.request_id, error=str(error), overloaded=True
                    )
                ),
            )
            return
        except Exception as error:  # planning / validation failures
            self._write_frame(
                writer,
                pack_frame(ShardReply(request_id=query.request_id, error=str(error))),
            )
            return

        loop = asyncio.get_running_loop()

        def _resolved(done) -> None:
            # Runs on the server's reply thread; frame there, write on
            # the loop.  A plain callback hop (not a coroutine) keeps the
            # per-reply cost down on the scatter-gather hot path.
            error = done.exception()
            if error is None:
                result = done.result()
                # Spans the server attached for this traced request ride
                # the wire as a reply field, not on the pickled result.
                spans = result.__dict__.pop("spans", ())
                reply = ShardReply(
                    request_id=query.request_id,
                    result=encode_result(result),
                    spans=tuple(spans),
                )
            else:
                reply = ShardReply(request_id=query.request_id, error=str(error))
            try:
                loop.call_soon_threadsafe(self._write_frame, writer, pack_frame(reply))
            except RuntimeError:
                pass  # loop already stopped: the node is closing

        future.add_done_callback(_resolved)

    #: A connection whose coordinator stops reading may buffer replies;
    #: past this bound the node drops it to protect its memory (the
    #: coordinator's retry logic reconnects and resends).
    MAX_BUFFERED_REPLY_BYTES = 8 * 1024 * 1024

    def _write_frame(self, writer, frame: bytes) -> None:
        """Write one frame (runs on the loop; a frame is one atomic write).

        Frames never interleave because each is a single ``write`` call
        on the transport, so no per-connection lock or ``drain`` is
        needed on the reply path — the transport and kernel buffers
        absorb bursts, bounded by :data:`MAX_BUFFERED_REPLY_BYTES`.
        """
        if writer.is_closing():
            return
        try:
            writer.write(frame)
            if writer.transport.get_write_buffer_size() > self.MAX_BUFFERED_REPLY_BYTES:
                writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass  # peer vanished mid-reply; its retry logic owns recovery
