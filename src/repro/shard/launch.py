"""Host a :class:`ShardNode` in its own operating-system process.

:class:`ShardNode` is in-process: its asyncio loop and the wrapped
server's scheduler/reply threads all share the creating interpreter's
GIL.  That is the right shape for tests, but a federation run that way
puts every node's network layer *and* the coordinator in one Python
process, so loopback "distribution" serialises on a single lock — the
opposite of what sharding is for.

:class:`ShardNodeProcess` runs one node per child process.  ``start()``
does in the parent what can fail for a reason the caller must hear
about at once: it opens the snapshot and binds the listener, so a
missing or corrupt file or a port in use raises there.  It then forks
the child onto that listener and returns the bound address *without
waiting for the child*.  The child builds the :class:`ShardNode` — its
worker pool and event loop — while the parent goes on, so the nodes of
a federation initialise side by side.  A connection made before the node
serves waits in the listener's backlog; the coordinator's handshake
ping (``_ShardLink._ensure_connected``) is the readiness barrier.  A
node that fails after the fork closes the listener as its process
exits, so its first query fails with
:class:`~repro.shard.coordinator.ShardUnavailableError`.

The child then blocks until the parent signals shutdown or exits (it
waits on the parent's process sentinel too, so orphaned nodes shut
themselves down).  The parent object exposes the same
``start() -> (host, port)`` / ``close()`` / context-manager surface as
the in-process node, minus ``stats()`` — per-node counters live in the
child; scrape them from the coordinator side instead.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.rtree.flat import FlatRTree
from repro.serve.server import _default_start_method
from repro.shard.node import listen_socket


def _node_process_main(conn, shard_id, snapshot_path, listener, options) -> None:
    """Child entry point: serve on ``listener`` until the parent signals or vanishes."""
    from multiprocessing.connection import wait

    from repro.obs import trace as obs_trace
    from repro.shard.node import ShardNode

    # The node's spans ride back on its replies; the parent's tracer
    # (and its sink) must not be written from here.
    obs_trace.drop_inherited()
    # Workers forked from here must not hold the listener: a worker
    # outliving a killed node would keep the port listening, and new
    # connections would queue unserved instead of being refused.
    os.register_at_fork(after_in_child=listener.close)
    node = None
    try:
        node = ShardNode(shard_id, snapshot_path, listener=listener, **options)
        node.start()
        # Block until shutdown is signalled or the parent dies.  A forked
        # child holds a copy of the parent's end of the pipe too, so that
        # end never reads EOF here; the parent's sentinel does.
        wait([conn, multiprocessing.parent_process().sentinel])
    finally:
        if node is not None:
            node.close()
        listener.close()
        conn.close()


class ShardNodeProcess:
    """A :class:`ShardNode` running in a dedicated child process.

    Parameters mirror :class:`ShardNode`; the child is forked when the
    platform allows, as :class:`~repro.serve.server.GNNServer` forks
    its workers.  Under ``spawn`` the listener crosses to the child
    through :mod:`multiprocessing.reduction`.
    """

    def __init__(
        self,
        shard_id: int,
        snapshot_path,
        **node_options,
    ):
        self.shard_id = int(shard_id)
        self.snapshot_path = str(snapshot_path)
        self._context = multiprocessing.get_context(_default_start_method())
        self._options = dict(node_options)
        self._process = None
        self._conn = None
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        """Open the snapshot, bind, fork the node; returns its ``(host, port)``.

        Raises ``RuntimeError`` ("failed to start") when the snapshot
        cannot be opened or the address cannot be bound.  Returns as
        soon as the child exists: the node answers its first connection
        once it has started serving.
        """
        if self._process is not None:
            raise RuntimeError("this ShardNodeProcess was already started")
        try:
            FlatRTree.load(self.snapshot_path, mmap_mode="r")
            listener = listen_socket(
                self._options.get("host", "127.0.0.1"), self._options.get("port", 0)
            )
        except Exception as error:
            raise RuntimeError(
                f"shard node {self.shard_id} failed to start: "
                f"{type(error).__name__}: {error}"
            ) from error
        parent_conn, child_conn = self._context.Pipe()
        self._process = self._context.Process(
            target=_node_process_main,
            args=(child_conn, self.shard_id, self.snapshot_path, listener, self._options),
            name=f"shard-node-{self.shard_id}",
            # Not a daemon: the node must be able to fork its own worker
            # pool.  Orphan protection comes from the parent's sentinel
            # instead — the child shuts down when the parent exits.
            daemon=False,
        )
        self._conn = parent_conn
        try:
            self._process.start()
            host, port = listener.getsockname()[:2]
        finally:
            # The child holds the listener now: once it exits, connecting
            # is refused instead of queueing on a socket nobody serves.
            child_conn.close()
            listener.close()
        self.address = (host, port)
        return self.address

    def close(self, timeout: float = 30.0) -> None:
        """Signal shutdown and reap the child.  Idempotent."""
        process, self._process = self._process, None
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        if process is not None:
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(5.0)

    def __enter__(self) -> "ShardNodeProcess":
        if self._process is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "running" if self._process is not None else "closed"
        return (
            f"ShardNodeProcess(shard_id={self.shard_id}, "
            f"address={self.address}, {state})"
        )
