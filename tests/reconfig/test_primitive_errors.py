"""Error paths of the reconfiguration primitives."""

import pytest

from repro.bus.bus import SoftwareBus
from repro.errors import ReconfigError
from repro.reconfig.bindcmds import BindBatch
from repro.reconfig.primitives import bind_cap, chg_obj, edit_bind


class TestEditBindErrors:
    def test_unknown_op(self):
        batch = bind_cap()
        with pytest.raises(ReconfigError, match="unknown bind edit"):
            edit_bind(batch, "frobnicate", ("a", "x"), ("b", "y"))

    def test_ops_dispatch(self):
        batch = bind_cap()
        edit_bind(batch, "add", ("a", "x"), ("b", "y"))
        edit_bind(batch, "del", ("a", "x"), ("b", "y"))
        edit_bind(batch, "cq", ("a", "x"), ("b", "x"))
        edit_bind(batch, "rmq", ("a", "x"))
        assert [c.op for c in batch.commands] == ["add", "del", "cq", "rmq"]


class TestChgObjErrors:
    def test_unknown_op(self):
        with pytest.raises(ReconfigError, match="unknown chg_obj"):
            chg_obj(None, None, "replace")


class TestBatchInvariants:
    def test_empty_batch_applies_once(self):
        batch, bus = BindBatch(), SoftwareBus(sleep_scale=0.0)
        batch.apply(bus)
        assert batch.applied
        with pytest.raises(ReconfigError):
            batch.apply(bus)
