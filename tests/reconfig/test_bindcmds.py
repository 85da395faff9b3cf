"""Tests for batched bind commands (repro.reconfig.bindcmds)."""

import pytest

from repro.bus.bus import SoftwareBus
from repro.errors import ReconfigError
from repro.reconfig.bindcmds import BindBatch, BindCommand


class TestBindCommand:
    def test_valid_ops(self):
        BindCommand("add", ("a", "x"), ("b", "y"))
        BindCommand("del", ("a", "x"), ("b", "y"))
        BindCommand("cq", ("a", "x"), ("b", "x"))
        BindCommand("rmq", ("a", "x"))

    def test_unknown_op(self):
        with pytest.raises(ReconfigError, match="unknown bind command"):
            BindCommand("frob", ("a", "x"), ("b", "y"))

    def test_two_endpoints_required(self):
        with pytest.raises(ReconfigError, match="two endpoints"):
            BindCommand("add", ("a", "x"))

    def test_describe(self):
        assert BindCommand("rmq", ("a", "x")).describe() == "rmq a.x"
        assert "a.x <-> b.y" in BindCommand("add", ("a", "x"), ("b", "y")).describe()


class TestBindBatch:
    def test_fluent_building(self):
        batch = (
            BindBatch()
            .delete(("old", "out"), ("peer", "inp"))
            .add(("new", "out"), ("peer", "inp"))
            .copy_queue(("old", "inp"), ("new", "inp"))
            .remove_queue(("old", "inp"))
        )
        assert [c.op for c in batch.commands] == ["del", "add", "cq", "rmq"]

    def test_cq_interface_names_must_match(self):
        with pytest.raises(ReconfigError, match="same-named"):
            BindBatch().copy_queue(("old", "a"), ("new", "b"))

    def test_describe_lists_commands(self):
        batch = BindBatch().add(("a", "x"), ("b", "y")).remove_queue(("a", "x"))
        text = batch.describe()
        assert "add a.x" in text and "rmq a.x" in text

    def test_double_apply_rejected(self, monkeypatch):
        batch, bus = BindBatch(), SoftwareBus(sleep_scale=0.0)
        batch.apply(bus)  # empty batch: no edit, nothing published
        with pytest.raises(ReconfigError, match="already applied"):
            batch.apply(bus)
