"""Tests for the region metadata store and Algorithm 5's scan query."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DuplicateKeyError, SchemaError, StorageError
from repro.simulation.columnar import (
    PH_LOGICAL,
    PH_PHYSICAL,
    PH_RESUMED,
    PH_RESUMING,
    LeanMetadata,
)
from repro.storage.metadata import DatabaseRecord, DatabaseState, MetadataStore
from repro.types import SECONDS_PER_MINUTE

MIN = SECONDS_PER_MINUTE


class TestRegistration:
    def test_register_and_get(self):
        store = MetadataStore()
        store.register("db-1", node_id="node-a", created_at=100)
        record = store.get("db-1")
        assert record.database_id == "db-1"
        assert record.state == DatabaseState.RESUMED
        assert record.start_of_pred_activity == 0
        assert record.node_id == "node-a"
        assert record.created_at == 100
        assert not record.has_prediction

    def test_register_duplicate_rejected(self):
        store = MetadataStore()
        store.register("db-1")
        with pytest.raises(DuplicateKeyError):
            store.register("db-1")

    def test_get_unregistered_raises(self):
        store = MetadataStore()
        with pytest.raises(StorageError):
            store.get("nope")

    def test_len_counts_databases(self):
        store = MetadataStore()
        for i in range(5):
            store.register(f"db-{i}")
        assert len(store) == 5


class TestStateTransitions:
    def test_set_state(self):
        store = MetadataStore()
        store.register("db-1")
        store.set_state("db-1", DatabaseState.LOGICAL_PAUSE)
        assert store.get("db-1").state == DatabaseState.LOGICAL_PAUSE

    def test_set_state_unregistered_raises(self):
        store = MetadataStore()
        with pytest.raises(StorageError):
            store.set_state("nope", DatabaseState.RESUMED)

    def test_record_physical_pause_stores_prediction(self):
        """Algorithm 1 line 31: InsertMetadata(nextActivity.start)."""
        store = MetadataStore()
        store.register("db-1")
        store.record_physical_pause("db-1", pred_start=5000)
        record = store.get("db-1")
        assert record.state == DatabaseState.PHYSICAL_PAUSE
        assert record.start_of_pred_activity == 5000
        assert record.has_prediction

    def test_clear_prediction(self):
        store = MetadataStore()
        store.register("db-1")
        store.record_physical_pause("db-1", 5000)
        store.clear_prediction("db-1")
        assert store.get("db-1").start_of_pred_activity == 0

    def test_set_node(self):
        store = MetadataStore()
        store.register("db-1")
        store.set_node("db-1", "node-b")
        assert store.get("db-1").node_id == "node-b"


class TestPrewarmScan:
    """The SELECT of Algorithm 5: physically paused databases whose
    predicted activity starts during the k-th minute from now."""

    def _store(self):
        store = MetadataStore()
        now = 1000 * MIN
        k = 5 * MIN
        # Predicted starts relative to now + k.
        layout = {
            "too-early": now + k - 1,
            "at-window-start": now + k + 1,
            "mid-window": now + k + 30,
            "at-window-end": now + k + MIN,
            "too-late": now + k + MIN + 1,
        }
        for db_id, start in layout.items():
            store.register(db_id)
            store.record_physical_pause(db_id, start)
        return store, now, k

    def test_selects_only_window(self):
        store, now, k = self._store()
        selected = store.databases_to_prewarm(now, k, MIN)
        assert set(selected) == {"at-window-start", "mid-window", "at-window-end"}

    def test_ignores_non_paused_states(self):
        store, now, k = self._store()
        store.set_state("mid-window", DatabaseState.RESUMED)
        selected = store.databases_to_prewarm(now, k, MIN)
        assert "mid-window" not in selected

    def test_ignores_no_prediction_sentinel(self):
        store = MetadataStore()
        store.register("db-1")
        store.record_physical_pause("db-1", 0)  # new database: no prediction
        assert store.databases_to_prewarm(10 * MIN, 5 * MIN, MIN) == []

    def test_window_start_is_inclusive(self):
        """A prediction exactly at ``now + k`` is pre-warmed; one second
        earlier is not."""
        store, now, k = self._store()
        store.register("at-exact-start")
        store.record_physical_pause("at-exact-start", now + k)
        selected = store.databases_to_prewarm(now, k, MIN)
        assert selected[0] == "at-exact-start"
        assert "too-early" not in selected

    def test_window_end_is_inclusive(self):
        """A prediction exactly at ``now + k + period`` is pre-warmed; one
        second later is not."""
        store, now, k = self._store()
        assert store.databases_to_prewarm(now + 1, k, MIN - 1)[-1] == "at-window-end"
        assert "too-late" not in store.databases_to_prewarm(now, k, MIN)

    def test_wider_period_selects_more(self):
        store, now, k = self._store()
        selected = store.databases_to_prewarm(now, k, 2 * MIN)
        assert "too-late" in selected


_ids = st.sampled_from(["a", "b", "c", "d", "e"])
_op = st.one_of(
    st.tuples(
        st.just("register"),
        _ids,
        st.sampled_from(list(DatabaseState)),
        st.sampled_from([None, "n1", "n2"]),
        st.one_of(st.none(), st.integers(0, 50)),
    ),
    st.tuples(st.just("set_state"), _ids, st.sampled_from(list(DatabaseState))),
    st.tuples(st.just("record_physical_pause"), _ids, st.integers(0, 12)),
    st.tuples(st.just("clear_prediction"), _ids),
    st.tuples(st.just("set_node"), _ids, st.sampled_from([None, "n1", "n2"])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_op, max_size=60))
def test_metadata_matches_dict_model(ops):
    """Random register / state / prediction / node updates: after every
    step, ``get`` and Algorithm 5's indexed scan equal a brute-force dict
    model, so an update re-indexes exactly the columns it changed."""
    store = MetadataStore()
    model = {}
    for op, db_id, *args in ops:
        registered = db_id in model
        if op == "register":
            state, node_id, created_at = args
            if registered:
                with pytest.raises(DuplicateKeyError):
                    store.register(db_id, state, node_id, created_at)
            else:
                store.register(db_id, state, node_id, created_at)
                model[db_id] = DatabaseRecord(db_id, state, 0, node_id, created_at)
        elif op == "clear_prediction":
            store.clear_prediction(db_id)
            if registered:
                model[db_id] = replace(model[db_id], start_of_pred_activity=0)
        elif not registered:
            with pytest.raises(StorageError):
                getattr(store, op)(db_id, *args)
        elif op == "set_state":
            store.set_state(db_id, args[0])
            model[db_id] = replace(model[db_id], state=args[0])
        elif op == "record_physical_pause":
            store.record_physical_pause(db_id, args[0])
            model[db_id] = replace(
                model[db_id],
                state=DatabaseState.PHYSICAL_PAUSE,
                start_of_pred_activity=args[0],
            )
        else:
            store.set_node(db_id, args[0])
            model[db_id] = replace(model[db_id], node_id=args[0])

        assert len(store) == len(model)
        for record in model.values():
            assert store.get(record.database_id) == record
        for now, prewarm_s, period_s in ((0, 0, 12), (1, 2, 3), (5, 0, 0), (0, 7, 5)):
            lo, hi = now + prewarm_s, now + prewarm_s + period_s
            expected = sorted(
                (r.start_of_pred_activity, r.database_id)
                for r in model.values()
                if r.state is DatabaseState.PHYSICAL_PAUSE
                and lo <= r.start_of_pred_activity <= hi
            )
            assert store.databases_to_prewarm(now, prewarm_s, period_s) == [
                db_id for _, db_id in expected
            ]


_PHASE = {
    DatabaseState.RESUMED: PH_RESUMED,
    DatabaseState.LOGICAL_PAUSE: PH_LOGICAL,
    DatabaseState.PHYSICAL_PAUSE: PH_PHYSICAL,
    DatabaseState.RESUMING: PH_RESUMING,
}
_lean_op = st.one_of(
    st.tuples(
        st.just("set_state"), st.integers(0, 5), st.sampled_from(list(DatabaseState))
    ),
    # Small preds: ties, the 0 sentinel and re-pauses at the same pred.
    st.tuples(st.just("record_physical_pause"), st.integers(0, 5), st.integers(0, 6)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.permutations(["db-10", "db-9", "db-1", "B", "a", "A"]).flatmap(
        lambda ids: st.integers(1, 6).map(lambda n: ids[:n])
    ),
    st.lists(_lean_op, max_size=40),
)
def test_lean_metadata_matches_btree(ids, ops):
    """The column store the columnar engine writes answers Algorithm 5
    exactly like the B-tree's secondary-index scan: same databases, each
    once, in ``(start_of_pred_activity, database_id)`` order, for every
    window whose bounds land on (or next to) a stored prediction."""
    store = MetadataStore()
    lean = LeanMetadata(ids)
    for db_id in ids:
        store.register(db_id)
    for op, d, arg in ops:
        d %= len(ids)
        if op == "set_state":
            store.set_state(ids[d], arg)
            lean.state[d] = _PHASE[arg]
        else:
            store.record_physical_pause(ids[d], arg)
            lean.record_physical_pause(d, arg)
        bounds = sorted(
            {
                t
                for db_id in ids
                for p in (store.get(db_id).start_of_pred_activity,)
                for t in (p - 1, p, p + 1)
            }
        )
        for lo in bounds:
            for hi in bounds:
                if hi >= lo:
                    for now, prewarm_s in ((lo, 0), (lo - 2, 2)):
                        assert [
                            ids[d]
                            for d in lean.databases_to_prewarm(
                                now, prewarm_s, hi - lo
                            )
                        ] == store.databases_to_prewarm(now, prewarm_s, hi - lo)


@pytest.mark.parametrize("pred_start", [5.0, True, None, "5"])
def test_lean_metadata_rejects_non_integer_pred_start(pred_start):
    """``start_of_pred_activity`` is a BIGINT column in both stores."""
    store = MetadataStore()
    store.register("a")
    with pytest.raises(SchemaError):
        store.record_physical_pause("a", pred_start)
    with pytest.raises(SchemaError):
        LeanMetadata(["a"]).record_physical_pause(0, pred_start)

