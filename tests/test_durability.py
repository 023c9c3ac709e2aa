"""Durability conformance: WAL, atomic publication, crash recovery.

The contract under test is the write-ahead discipline end to end:

* every acknowledged ``insert``/``delete`` is on disk (per the fsync
  policy) *before* any in-memory structure reflects it;
* snapshot generations and manifests are published via temp file +
  fsync + atomic rename, so a crash at any instant leaves at least one
  complete generation on disk;
* ``GNNEngine.recover`` rebuilds the exact pre-crash merged view —
  record ids *and* distances bit-identical — from the newest complete
  generation plus a replay of the log tail, for a crash at **every**
  WAL record boundary and for a torn final record.

Crashes are injected through :mod:`repro.testing.faults` (simulated
in-process as :class:`InjectedCrash` so the test can observe the disk
state "the death" left behind), and the crash-point sweep additionally
reconstructs log prefixes byte-by-byte so no boundary is skipped.
"""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import QuerySpec
from repro.core.bruteforce import brute_force_gnn
from repro.core.engine import GNNEngine
from repro.core.types import GroupQuery
from repro.rtree.flat import FlatRTree
from repro.serve.compaction import CompactingWriter
from repro.storage.atomicio import atomic_output, write_json_atomic
from repro.storage.generations import GenerationStore, snapshot_name
from repro.storage.wal import (
    FSYNC_POLICIES,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
    _HEADER,
    _MAGIC,
    _VERSION,
)
from repro.testing.faults import FaultPlan, InjectedCrash, active

SEED = 20040301

ALGORITHMS = ("mqm", "spm", "mbm", "best-first", "brute-force")


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture()
def dataset(rng):
    return rng.uniform(0, 1000, size=(60, 2))


def _reference_engine(live):
    """An engine rebuilt from scratch over ``{record_id: point}``."""
    ids = sorted(live)
    points = np.array([live[i] for i in ids], dtype=np.float64)
    return GNNEngine.from_index(
        FlatRTree.bulk_load(points, capacity=8, record_ids=np.array(ids))
    )


def _assert_identical(result, reference, label):
    assert result.record_ids() == reference.record_ids(), label
    assert np.array_equal(result.distances(), reference.distances()), label


def _wal_header(base_generation):
    return _HEADER.pack(_MAGIC, _VERSION, int(base_generation))


# ----------------------------------------------------------------------
# atomic file output
# ----------------------------------------------------------------------
class TestAtomicIO:
    def test_success_replaces_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_output(target, fsync=True) as handle:
            handle.write(b"new contents")
        assert target.read_bytes() == b"new contents"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_exception_preserves_target_and_cleans_temp(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="mid-write"):
            with atomic_output(target) as handle:
                handle.write(b"half of the new")
                raise RuntimeError("mid-write")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_at_rename_point_never_tears_the_target(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"previous generation")
        with active(FaultPlan().crash("snapshot.rename")):
            with pytest.raises(InjectedCrash):
                with atomic_output(target, fault_point="snapshot.rename") as handle:
                    handle.write(b"next generation")
        # The crash fired after the temp was complete but before the
        # rename: the published name still holds the old bytes intact.
        assert target.read_bytes() == b"previous generation"

    def test_write_json_atomic_round_trips_sorted(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json_atomic(path, {"b": 2, "a": [1, 2]}, fsync=True)
        text = path.read_text()
        assert json.loads(text) == {"a": [1, 2], "b": 2}
        assert text.index('"a"') < text.index('"b"')  # stable, diffable
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# WAL format and scan
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_scan_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="off", base_generation=3) as wal:
            wal.append("insert", 7, (1.5, -2.5))
            wal.append("delete", 7, (1.5, -2.5))
            wal.append("insert", 8, (0.0, 9.0, 4.0))  # dims live per record
        scan = WriteAheadLog.scan(path)
        assert scan.base_generation == 3
        assert not scan.torn
        assert scan.records == (
            WalRecord("insert", 7, (1.5, -2.5)),
            WalRecord("delete", 7, (1.5, -2.5)),
            WalRecord("insert", 8, (0.0, 9.0, 4.0)),
        )
        assert scan.valid_bytes == os.path.getsize(path)

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_fsync_policies_accepted(self, tmp_path, policy):
        with WriteAheadLog(tmp_path / "wal.log", fsync=policy) as wal:
            wal.append("insert", 1, (0.0, 0.0))
        assert len(WriteAheadLog.replay(tmp_path / "wal.log")) == 1

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path / "wal.log", fsync="sometimes")

    def test_scan_stops_at_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append("insert", 1, (1.0, 1.0))
            wal.append("insert", 2, (2.0, 2.0))
        whole = path.read_bytes()
        boundary = len(_wal_header(0)) + len(WalRecord("insert", 1, (1.0, 1.0)).encode())
        path.write_bytes(whole[: boundary + 5])  # tear record 2 mid-frame
        scan = WriteAheadLog.scan(path)
        assert scan.torn
        assert [r.record_id for r in scan.records] == [1]
        assert scan.valid_bytes == boundary

    def test_scan_stops_at_corrupt_crc(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append("insert", 1, (1.0, 1.0))
            wal.append("insert", 2, (2.0, 2.0))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a byte inside record 2's payload
        path.write_bytes(bytes(blob))
        scan = WriteAheadLog.scan(path)
        assert scan.torn
        assert [r.record_id for r in scan.records] == [1]

    def test_reopen_truncates_torn_tail_then_appends_cleanly(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync="off", base_generation=2) as wal:
            wal.append("insert", 1, (1.0, 1.0))
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 7)  # a torn frame a crash left behind
        with WriteAheadLog(path, fsync="off") as wal:
            assert wal.base_generation == 2  # adopted, not re-stamped
            wal.append("insert", 2, (2.0, 2.0))
        scan = WriteAheadLog.scan(path)
        assert not scan.torn
        assert [r.record_id for r in scan.records] == [1, 2]

    def test_missing_or_bad_header_is_corruption(self, tmp_path):
        short = tmp_path / "short.log"
        short.write_bytes(b"RW")
        with pytest.raises(WalCorruptionError, match="missing WAL header"):
            WriteAheadLog.scan(short)
        bad = tmp_path / "bad.log"
        bad.write_bytes(struct.pack("<4sHq", b"NOPE", 1, 0))
        with pytest.raises(WalCorruptionError, match="bad WAL magic"):
            WriteAheadLog.scan(bad)

    def test_reset_stamps_new_generation_atomically(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="off", base_generation=0)
        wal.append("insert", 1, (1.0, 1.0))
        wal.reset(5)
        assert wal.base_generation == 5
        wal.append("insert", 2, (2.0, 2.0))
        wal.close()
        scan = WriteAheadLog.scan(path)
        assert scan.base_generation == 5
        assert [r.record_id for r in scan.records] == [2]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_crash_arm_keeps_the_whole_record(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="off")
        with active(FaultPlan().crash("wal.append", at=2)):
            wal.append("insert", 1, (1.0, 1.0))
            with pytest.raises(InjectedCrash):
                wal.append("insert", 2, (2.0, 2.0))
        scan = WriteAheadLog.scan(path)
        # A boundary crash: the dying write itself is complete on disk.
        assert not scan.torn
        assert [r.record_id for r in scan.records] == [1, 2]

    def test_torn_arm_leaves_a_recoverable_prefix(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="off")
        with active(FaultPlan().torn("wal.append", at=2, keep_bytes=9)):
            wal.append("insert", 1, (1.0, 1.0))
            with pytest.raises(InjectedCrash):
                wal.append("insert", 2, (2.0, 2.0))
        scan = WriteAheadLog.scan(path)
        assert scan.torn
        assert [r.record_id for r in scan.records] == [1]
        # Recovery-side reopen discards exactly the torn bytes.
        WriteAheadLog(path, fsync="off").close()
        assert os.path.getsize(path) == scan.valid_bytes

    def test_torn_lengths_are_seeded_deterministic(self, tmp_path):
        def torn_size(name, seed):
            path = tmp_path / name
            wal = WriteAheadLog(path, fsync="off")
            with active(FaultPlan(seed=seed).torn("wal.append")):
                with pytest.raises(InjectedCrash):
                    wal.append("insert", 1, (1.0, 2.0))
            return os.path.getsize(path)

        assert torn_size("a.log", seed=11) == torn_size("b.log", seed=11)


# ----------------------------------------------------------------------
# generation store
# ----------------------------------------------------------------------
class TestGenerationStore:
    def _flat(self, dataset, generation=0):
        flat = FlatRTree.bulk_load(dataset, capacity=8)
        flat.generation = generation
        return flat

    def test_publish_then_latest_round_trip(self, tmp_path, dataset):
        store = GenerationStore(tmp_path)
        store.publish(self._flat(dataset, generation=4))
        assert (tmp_path / snapshot_name(4)).exists()
        assert store.manifest_generation() == 4
        loaded = store.latest()
        assert loaded.generation == 4 and loaded.size == len(dataset)

    def test_gc_keeps_only_the_newest_generations(self, tmp_path, dataset):
        store = GenerationStore(tmp_path, keep=1)
        for generation in range(3):
            store.publish(self._flat(dataset, generation=generation))
        names = sorted(p.name for p in tmp_path.glob("snapshot-gen*.npz"))
        assert names == [snapshot_name(2)]

    def test_latest_on_empty_directory_is_none(self, tmp_path):
        assert GenerationStore(tmp_path / "fresh").latest() is None

    def test_latest_skips_corrupt_newest_snapshot(self, tmp_path, dataset):
        store = GenerationStore(tmp_path, keep=4)
        store.publish(self._flat(dataset, generation=1))
        (tmp_path / snapshot_name(2)).write_bytes(b"not a real npz")
        loaded = store.latest()
        assert loaded.generation == 1  # the torn gen-2 file is skipped

    def test_crash_before_manifest_prefers_newer_complete_snapshot(
        self, tmp_path, dataset
    ):
        store = GenerationStore(tmp_path, keep=4)
        store.publish(self._flat(dataset, generation=1))
        with active(FaultPlan().crash("manifest.write")):
            with pytest.raises(InjectedCrash):
                store.publish(self._flat(dataset, generation=2))
        # Snapshot 2 renamed durably; the manifest still points at 1.
        assert (tmp_path / snapshot_name(2)).exists()
        assert store.manifest_generation() == 1
        # The manifest is a hint: recovery adopts the newer complete file.
        assert store.latest().generation == 2

    def test_crash_at_snapshot_rename_keeps_previous_generation(
        self, tmp_path, dataset
    ):
        store = GenerationStore(tmp_path, keep=4)
        store.publish(self._flat(dataset, generation=1))
        with active(FaultPlan().crash("snapshot.rename")):
            with pytest.raises(InjectedCrash):
                store.publish(self._flat(dataset, generation=2))
        assert not (tmp_path / snapshot_name(2)).exists()
        assert store.manifest_generation() == 1
        assert store.latest().generation == 1


# ----------------------------------------------------------------------
# engine recovery
# ----------------------------------------------------------------------
def _seed_generation(directory, dataset, generation=0):
    """Publish ``dataset`` as the directory's first durable generation."""
    store = GenerationStore(directory)
    flat = FlatRTree.bulk_load(dataset, capacity=8)
    flat.generation = generation
    store.publish(flat)
    return store


class TestEngineRecovery:
    def test_recover_without_a_generation_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no complete snapshot"):
            GNNEngine.recover(tmp_path)

    def test_recover_replays_the_log_tail(self, tmp_path, dataset, rng):
        store = _seed_generation(tmp_path, dataset)
        engine = GNNEngine.recover(tmp_path, fsync="off")
        live = {i: dataset[i] for i in range(len(dataset))}
        for i in range(8):
            point = rng.uniform(0, 1000, size=2)
            rid = engine.insert(point)
            live[rid] = point
        for rid in (3, 9):
            assert engine.delete(dataset[rid], rid)
            del live[rid]
        engine.wal.close()  # "crash": the overlay is gone with the process

        recovered = GNNEngine.recover(tmp_path, fsync="off")
        reference = _reference_engine(live)
        group = rng.uniform(200, 800, size=(3, 2))
        for name in ALGORITHMS:
            spec = QuerySpec(group=group, k=7, algorithm=name)
            _assert_identical(recovered.execute(spec), reference.execute(spec), name)
        assert store.manifest_generation() == 0
        recovered.wal.close()

    def test_rejected_duplicate_insert_is_never_logged(self, tmp_path, dataset, rng):
        """A write the overlay rejects must not reach the log.

        It used to be appended first, so every later ``recover`` replayed
        it, hit the same ``ValueError`` and the directory was lost.
        """
        _seed_generation(tmp_path, dataset)
        engine = GNNEngine.recover(tmp_path, fsync="off")
        live = {i: dataset[i] for i in range(len(dataset))}
        live[engine.insert([5.0, 5.0])] = np.array([5.0, 5.0])
        for taken in (7, 60):  # live in the base, live in the delta
            with pytest.raises(ValueError, match="already live"):
                engine.insert([1.0, 2.0], record_id=taken)
        live[engine.insert([6.0, 6.0])] = np.array([6.0, 6.0])
        assert sorted(live)[-2:] == [60, 61]
        engine.wal.close()  # "crash"

        recovered = GNNEngine.recover(tmp_path, fsync="off")
        reference = _reference_engine(live)
        group = rng.uniform(0, 400, size=(3, 2))
        for name in ALGORITHMS:
            spec = QuerySpec(group=group, k=7, algorithm=name)
            _assert_identical(recovered.execute(spec), reference.execute(spec), name)
        recovered.wal.close()

    @pytest.mark.parametrize("dims", [8, 9, 64])
    def test_high_dimensional_inserts_log_and_recover(self, tmp_path, rng, dims):
        """The delta's page key must fit its int64 slot in any dimension:
        a key that overflowed would raise after the WAL append, and every
        later ``recover`` would replay the failing insert."""
        base = rng.uniform(0, 1, size=(40, dims))
        _seed_generation(tmp_path, base)
        engine = GNNEngine.recover(tmp_path, fsync="off")
        live = {i: base[i] for i in range(len(base))}
        for point in rng.uniform(0.5, 1.5, size=(12, dims)):  # upper half and beyond
            live[engine.insert(point)] = point
        assert engine.delete(base[5], 5)
        del live[5]
        engine.wal.close()  # "crash"

        recovered = GNNEngine.recover(tmp_path, fsync="off")
        reference = _reference_engine(live)
        group = rng.uniform(0.25, 1.25, size=(3, dims))
        for name in ALGORITHMS:
            spec = QuerySpec(group=group, k=5, algorithm=name)
            _assert_identical(recovered.execute(spec), reference.execute(spec), name)
        recovered.wal.close()

    def test_stale_wal_is_discarded_not_replayed_twice(self, tmp_path, dataset):
        _seed_generation(tmp_path, dataset)
        wal_path = tmp_path / "wal.log"
        engine = GNNEngine.recover(tmp_path, fsync="off")
        engine.insert([1.0, 2.0], record_id=600)
        engine.wal.close()
        # Fold the log into generation 1 but "crash" before the reset:
        # the WAL's base_generation (0) is now older than the snapshot.
        flat = engine.compact()
        GenerationStore(tmp_path).publish(flat)
        assert WriteAheadLog.scan(wal_path).base_generation == 0

        recovered = GNNEngine.recover(tmp_path, fsync="off")
        assert recovered.flat.generation == 1
        spec = QuerySpec(group=[[1.0, 2.0]], k=1, algorithm="brute-force")
        # Replaying the stale log would be harmless here but is the wrong
        # contract; what must hold is that 600 exists exactly once.
        assert recovered.execute(spec).record_ids() == [600]
        # recover() re-stamps the log so new appends base on generation 1.
        assert recovered.wal.base_generation == 1
        recovered.wal.close()

    def test_wal_newer_than_any_snapshot_refuses_silent_data_loss(
        self, tmp_path, dataset
    ):
        _seed_generation(tmp_path, dataset, generation=0)
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="off", base_generation=7)
        wal.append("insert", 900, (1.0, 1.0))
        wal.close()
        with pytest.raises(RuntimeError, match="newer than"):
            GNNEngine.recover(tmp_path)


# ----------------------------------------------------------------------
# the crash-point sweep (the PR's acceptance property)
# ----------------------------------------------------------------------
def _run_crash_sweep(directory, dataset, operations, *, torn_tail_bytes=9):
    """Crash at every WAL record boundary (and a torn tail) and verify.

    ``operations`` is a list of ``("insert"|"delete", record_id, point)``
    applied on top of ``dataset`` (published as generation 0).  For every
    prefix length ``r`` the on-disk state a boundary crash would leave —
    header plus the first ``r`` records, optionally plus a torn fragment
    of record ``r+1`` — is materialised byte-for-byte, recovered, and
    the merged view compared bit-identically against a from-scratch
    rebuild of the expected live set.
    """
    store = _seed_generation(directory, dataset)
    encoded = [WalRecord(op, rid, tuple(point)).encode() for op, rid, point in operations]
    header = _wal_header(0)
    group = np.array([[250.0, 250.0], [750.0, 750.0]])
    spec = QuerySpec(group=group, k=5, algorithm="best-first")
    brute = QuerySpec(group=group, k=5, algorithm="brute-force")

    for r in range(len(operations) + 1):
        for torn in (False, True):
            if torn and r == len(operations):
                continue  # no next record to tear
            blob = header + b"".join(encoded[:r])
            if torn:
                blob += encoded[r][:torn_tail_bytes]
            store.wal_path.write_bytes(blob)

            live = {i: dataset[i] for i in range(len(dataset))}
            for op, rid, point in operations[:r]:
                if op == "insert":
                    live[rid] = np.asarray(point, dtype=np.float64)
                else:
                    live.pop(rid, None)

            recovered = GNNEngine.recover(directory, fsync="off")
            reference = _reference_engine(live)
            label = f"crash after record {r} (torn={torn})"
            _assert_identical(recovered.execute(spec), reference.execute(spec), label)
            _assert_identical(recovered.execute(brute), reference.execute(brute), label)
            recovered.wal.close()


class TestCrashPointSweep:
    def test_fixed_schedule_every_boundary(self, tmp_path, dataset):
        operations = [
            ("insert", 60, (110.0, 120.0)),
            ("insert", 61, (890.0, 880.0)),
            ("delete", 5, tuple(dataset[5])),
            ("insert", 62, (240.0, 260.0)),
            ("delete", 61, (890.0, 880.0)),  # delete an uncompacted insert
            ("delete", 17, tuple(dataset[17])),
            ("insert", 63, (505.0, 495.0)),
            ("delete", 63, (505.0, 495.0)),
            ("insert", 64, (333.0, 667.0)),
            ("delete", 42, tuple(dataset[42])),
            ("insert", 65, (760.0, 240.0)),
            ("delete", 999, (1.0, 1.0)),  # a logged miss replays as a no-op
            ("insert", 63, (505.0, 495.0)),  # a deleted explicit id comes back
            ("insert", 70, (333.0, 667.0)),  # same coordinates as 64, another id
            ("insert", 68, tuple(dataset[30])),  # ids out of order; twin of a base record
            ("delete", 64, (333.0, 667.0)),  # one of two twins, the other stays
            ("delete", 70, (333.0, 667.5)),  # right id, wrong point: a miss
            ("delete", 30, tuple(dataset[30])),
        ]
        _run_crash_sweep(tmp_path, dataset, operations)

    @settings(max_examples=12, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(st.booleans(), st.integers(0, 10**6)), min_size=1, max_size=6
        ),
        torn_tail_bytes=st.integers(2, 30),
    )
    def test_random_schedules_every_boundary(
        self, tmp_path_factory, moves, torn_tail_bytes
    ):
        directory = tmp_path_factory.mktemp("sweep")
        dataset = np.random.default_rng(SEED).uniform(0, 1000, size=(25, 2))
        live_ids = list(range(len(dataset)))
        next_id = len(dataset)
        operations = []
        for is_insert, slot in moves:
            if is_insert or len(live_ids) <= 5:
                point = (float(slot % 997), float((slot * 7) % 991))
                operations.append(("insert", next_id, point))
                live_ids.append(next_id)
                next_id += 1
            else:
                victim = live_ids.pop(slot % len(live_ids))
                point = (
                    tuple(dataset[victim])
                    if victim < len(dataset)
                    else next(
                        op[2] for op in reversed(operations) if op[1] == victim
                    )
                )
                operations.append(("delete", victim, point))
        _run_crash_sweep(
            directory, dataset, operations, torn_tail_bytes=torn_tail_bytes
        )


# ----------------------------------------------------------------------
# crash-safe compaction (CompactingWriter + GenerationStore + WAL)
# ----------------------------------------------------------------------
class TestCompactionCrashSafety:
    def _recovered_writer(self, directory, dataset):
        _seed_generation(directory, dataset)
        engine = GNNEngine.recover(directory, fsync="off")
        store = GenerationStore(directory, keep=4)
        writer = CompactingWriter(
            engine, dirty_ratio_trigger=None, store=store
        )
        return engine, store, writer

    def _mutate(self, writer, dataset):
        live = {i: dataset[i] for i in range(len(dataset))}
        for i in range(6):
            point = np.array([50.0 + 100.0 * i, 500.0])
            rid = writer.insert(point)
            live[rid] = point
        assert writer.delete(dataset[2], 2)
        del live[2]
        return live

    def test_durable_publish_then_wal_truncation(self, tmp_path, dataset):
        engine, store, writer = self._recovered_writer(tmp_path, dataset)
        self._mutate(writer, dataset)
        assert len(WriteAheadLog.scan(store.wal_path).records) == 7
        flat = writer.compact_now()
        assert flat.generation == 1
        assert store.manifest_generation() == 1
        scan = WriteAheadLog.scan(store.wal_path)
        assert scan.base_generation == 1 and scan.records == ()
        engine.wal.close()

    def test_a_served_compaction_is_written_once_and_served_from_the_store(
        self, tmp_path, dataset, monkeypatch
    ):
        """With a store and a server, one compaction is one durable write.

        The server swaps onto the file the store published; saving the
        snapshot again for the server would write it a second time,
        without fsync, over the durable copy when the names coincide.
        """
        from repro.serve import GNNServer

        _seed_generation(tmp_path, dataset)
        engine = GNNEngine.recover(tmp_path, fsync="off")
        store = GenerationStore(tmp_path, keep=2)
        saves = []
        save = FlatRTree.save

        def counted_save(flat, path, *args, **kwargs):
            saves.append(str(path))
            return save(flat, path, *args, **kwargs)

        with GNNServer(store.snapshot_path(0), workers=1) as server:
            writer = CompactingWriter(engine, server, dirty_ratio_trigger=None, store=store)
            for i in range(5):
                writer.insert([100.0 * i, 250.0])
            monkeypatch.setattr(FlatRTree, "save", counted_save)
            flat = writer.compact_now()
            monkeypatch.undo()
            assert flat.generation == 1
            assert saves == [str(store.snapshot_path(1))]
            assert server.snapshot_path == str(store.snapshot_path(1))
            assert server.epoch == 1
            spec = QuerySpec(group=[[120.0, 240.0], [310.0, 260.0]], k=4)
            served = server.submit(spec).result(timeout=60)
            assert served.record_ids() == engine.execute(spec).record_ids()
        engine.wal.close()

    def test_a_worker_not_yet_serving_outlives_the_gc_of_its_generation(
        self, tmp_path, dataset
    ):
        """Compaction deletes generation 0 before the worker looked at it.

        ``worker.map`` holds the freshly started worker; meanwhile the
        compaction publishes generation 1 and, keeping one generation,
        unlinks generation 0.  The worker serves the server's mapping of
        generation 0 (inherited at the fork), not its path, so no worker
        dies and the first batch remaps it onto generation 1.
        """
        from repro.serve import GNNServer

        _seed_generation(tmp_path, dataset)
        engine = GNNEngine.recover(tmp_path, fsync="off")
        store = GenerationStore(tmp_path, keep=1)
        with active(FaultPlan().delay("worker.map", 1.0)):
            server = GNNServer(store.snapshot_path(0), workers=1)
        with server:
            writer = CompactingWriter(engine, server, dirty_ratio_trigger=None, store=store)
            writer.insert([120.0, 250.0])
            writer.compact_now()
            assert not store.snapshot_path(0).exists()
            spec = QuerySpec(group=[[120.0, 240.0], [310.0, 260.0]], k=4)
            served = server.submit(spec).result(timeout=60)
            assert served.record_ids() == engine.execute(spec).record_ids()
            assert server.stats()["server"]["worker_deaths"] == 0
        engine.wal.close()

    def test_compaction_swaps_the_server_before_it_collects_garbage(
        self, tmp_path, dataset, monkeypatch
    ):
        from repro.serve import GNNServer

        _seed_generation(tmp_path, dataset)
        engine = GNNEngine.recover(tmp_path, fsync="off")
        store = GenerationStore(tmp_path, keep=1)
        with GNNServer(store.snapshot_path(0), workers=1) as server:
            named = []
            collect = store.collect_garbage
            monkeypatch.setattr(
                store, "collect_garbage",
                lambda generation: (named.append(server.snapshot_path), collect(generation)),
            )
            writer = CompactingWriter(engine, server, dirty_ratio_trigger=None, store=store)
            writer.insert([120.0, 250.0])
            writer.compact_now()
            assert named == [str(store.snapshot_path(1))]
            assert not store.snapshot_path(0).exists()
        engine.wal.close()

    def test_crash_before_snapshot_rename_loses_nothing(self, tmp_path, dataset):
        engine, store, writer = self._recovered_writer(tmp_path, dataset)
        live = self._mutate(writer, dataset)
        with active(FaultPlan().crash("snapshot.rename")):
            with pytest.raises(InjectedCrash):
                writer.compact_now()
        engine.wal.close()
        # Generation 1 never appeared; the full WAL still bases on 0.
        assert store.latest().generation == 0
        scan = WriteAheadLog.scan(store.wal_path)
        assert scan.base_generation == 0 and len(scan.records) == 7
        self._assert_view(tmp_path, live)

    def test_crash_before_manifest_write_loses_nothing(self, tmp_path, dataset):
        engine, store, writer = self._recovered_writer(tmp_path, dataset)
        live = self._mutate(writer, dataset)
        with active(FaultPlan().crash("manifest.write")):
            with pytest.raises(InjectedCrash):
                writer.compact_now()
        engine.wal.close()
        # The gen-1 snapshot is complete but unreferenced, and the WAL
        # (base 0) was *not* truncated — recovery may take either path
        # (newer snapshot, or old snapshot + replay); both yield the
        # same view, which is the invariant that matters.
        assert (tmp_path / snapshot_name(1)).exists()
        assert store.manifest_generation() == 0
        assert WriteAheadLog.scan(store.wal_path).base_generation == 0
        self._assert_view(tmp_path, live)

    def test_an_emptied_engine_folds_its_tombstones_and_lives_on(self, tmp_path, dataset, rng):
        """delete-all → compact → publish → recover → insert → query."""
        engine, store, writer = self._recovered_writer(tmp_path, dataset)
        for rid, point in enumerate(dataset):
            assert writer.delete(point, rid)
        flat = writer.compact_now()
        assert (flat.size, flat.num_nodes, flat.generation) == (0, 1, 1)
        assert len(engine) == 0 and not engine.dirty
        group = rng.uniform(200, 800, size=(3, 2))
        assert engine.execute(QuerySpec(group=group, k=3)).neighbors == []
        engine.wal.close()  # "crash"

        recovered = GNNEngine.recover(tmp_path, fsync="off")
        assert recovered.flat.generation == 1 and len(recovered) == 0
        live = {}
        for _ in range(11):
            point = rng.uniform(0, 1000, size=2)
            live[recovered.insert(point)] = point
        victim = sorted(live)[4]
        assert recovered.delete(live.pop(victim), victim)
        ids = np.array(sorted(live), dtype=np.int64)
        points = np.array([live[i] for i in ids])

        def check(subject, label):
            for name in ALGORITHMS:
                for k in (1, 4, len(live) + 2):
                    expected = brute_force_gnn(points, GroupQuery(group, k=k), record_ids=ids)
                    spec = QuerySpec(group=group, k=k, algorithm=name)
                    _assert_identical(subject.execute(spec), expected, (label, name, k))

        check(recovered, "overlay over an empty base")
        assert recovered.compact().size == len(live)
        check(recovered, "compacted")
        recovered.wal.close()

    def test_record_ids_are_not_reused_after_compact_publish_recover(self, tmp_path):
        """The snapshot carries the id high-water mark past deleted records."""
        points = np.random.default_rng(8).uniform(0, 1000, size=(20, 2))
        engine, _, writer = self._recovered_writer(tmp_path, points)
        fresh = np.array([[100.0, 100.0], [200.0, 200.0], [300.0, 300.0]])
        assert [writer.insert(point) for point in fresh] == [20, 21, 22]
        for rid, point in zip((20, 21, 22), fresh):
            assert writer.delete(point, rid)
        assert writer.delete(points[19], 19)
        writer.compact_now()
        engine.wal.close()  # "crash"

        recovered = GNNEngine.recover(tmp_path, fsync="off")
        assert [recovered.insert(point) for point in fresh] == [23, 24, 25]
        assert recovered.flat.next_record_id == 23
        recovered.wal.close()

    def _assert_view(self, directory, live):
        recovered = GNNEngine.recover(directory, fsync="off")
        reference = _reference_engine(live)
        group = np.array([[300.0, 500.0], [600.0, 500.0]])
        for name in ("best-first", "brute-force"):
            spec = QuerySpec(group=group, k=6, algorithm=name)
            _assert_identical(recovered.execute(spec), reference.execute(spec), name)
        recovered.wal.close()
