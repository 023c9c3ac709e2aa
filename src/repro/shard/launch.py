"""Host a :class:`ShardNode` in its own operating-system process.

:class:`ShardNode` is in-process: its asyncio loop and the wrapped
server's scheduler/reply threads all share the creating interpreter's
GIL.  That is the right shape for tests, but a federation run that way
puts every node's network layer *and* the coordinator in one Python
process, so loopback "distribution" serialises on a single lock — the
opposite of what sharding is for.

:class:`ShardNodeProcess` forks one child per node.  The child builds
the :class:`ShardNode` (which then forks its own worker pool), reports
the bound address back over a pipe, and blocks until the parent signals
shutdown or exits (the pipe's EOF doubles as a dead-parent detector, so
orphaned nodes shut themselves down).  The parent object exposes the
same ``start() -> (host, port)`` / ``close()`` / context-manager
surface as the in-process node, minus ``stats()`` — per-node counters
live in the child; scrape them from the coordinator side instead.
"""

from __future__ import annotations

import multiprocessing

from repro.serve.server import _default_start_method


def _node_process_main(conn, shard_id, snapshot_path, options) -> None:
    """Child entry point: serve until the parent signals or vanishes."""
    from repro.obs import trace as obs_trace
    from repro.shard.node import ShardNode

    # The node's spans ride back on its replies; the parent's tracer
    # (and its sink) must not be written from here.
    obs_trace.drop_inherited()
    try:
        node = ShardNode(shard_id, snapshot_path, **options)
    except Exception as error:
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    try:
        address = node.start()
        conn.send(("ok", address))
        try:
            conn.recv()  # blocks until shutdown is signalled or the parent dies
        except EOFError:
            pass
    except Exception as error:
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        node.close()
        conn.close()


class ShardNodeProcess:
    """A :class:`ShardNode` running in a dedicated child process.

    Parameters mirror :class:`ShardNode`; the child is forked when the
    platform allows, as :class:`~repro.serve.server.GNNServer` forks
    its workers.
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

    def start(self, timeout: float = 30.0) -> tuple[str, int]:
        """Fork the node process; returns its bound ``(host, port)``."""
        if self._process is not None:
            raise RuntimeError("this ShardNodeProcess was already started")
        parent_conn, child_conn = self._context.Pipe()
        self._process = self._context.Process(
            target=_node_process_main,
            args=(child_conn, self.shard_id, self.snapshot_path, self._options),
            name=f"shard-node-{self.shard_id}",
            # Not a daemon: the node must be able to fork its own worker
            # pool.  Orphan protection comes from the pipe instead — the
            # child blocks on recv() and shuts down on EOF when the
            # parent exits.
            daemon=False,
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        if not parent_conn.poll(timeout):
            self.close()
            raise RuntimeError(
                f"shard node {self.shard_id} did not report an address "
                f"within {timeout:.0f}s"
            )
        status, value = parent_conn.recv()
        if status != "ok":
            self.close()
            raise RuntimeError(f"shard node {self.shard_id} failed to start: {value}")
        self.address = (value[0], value[1])
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
