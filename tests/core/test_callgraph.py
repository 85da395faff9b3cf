"""Tests for static call graph construction (repro.core.callgraph)."""

import ast

import pytest

from repro.core.callgraph import build_call_graph, module_functions
from repro.errors import CallGraphError

from tests.core.helpers import COMPUTE_SRC, FIGURE6_SRC


DESCEND_SRC = """\
def main():
    mh.init()
    descend(256)


def descend(n: int):
    request = None
    if n > 1:
        descend(n - 1)
        return
    while mh.running:
        mh.reconfig_point('Q')
        request = mh.read('requests')
"""


def graph_of(source):
    return build_call_graph(ast.parse(source))


class TestBasicStructure:
    def test_nodes_are_functions(self):
        graph = graph_of(FIGURE6_SRC)
        assert set(graph.functions) == {"main", "a", "b", "helper"}

    def test_edge_per_call_site(self):
        # "if procedure main calls a in two different statements, there
        # are two edges from main to a"
        graph = graph_of(FIGURE6_SRC)
        assert len(graph.sites_between("main", "a")) == 2
        assert len(graph.sites_between("main", "b")) == 1
        assert len(graph.sites_between("a", "b")) == 1

    def test_runtime_calls_are_not_edges(self):
        graph = graph_of(COMPUTE_SRC)
        assert graph.callees("main") == ["compute"]
        # mh.read1 / mh.write never appear as procedures.
        assert "read1" not in graph.functions

    def test_recursion_self_edge(self):
        graph = graph_of(COMPUTE_SRC)
        assert "compute" in graph.callees("compute")

    def test_sites_sorted_by_position(self):
        graph = graph_of(FIGURE6_SRC)
        linenos = [s.lineno for s in graph.sites_from("main")]
        assert linenos == sorted(linenos)

    def test_duplicate_function_rejected(self):
        with pytest.raises(CallGraphError, match="defined twice"):
            graph_of("def f():\n    pass\n\ndef f():\n    pass\n")


class TestTopLevelDetection:
    def test_statement_call_is_top_level(self):
        graph = graph_of("def main():\n    f()\n\ndef f():\n    pass\n")
        (site,) = graph.sites_between("main", "f")
        assert site.top_level

    def test_assignment_call_is_top_level(self):
        graph = graph_of("def main():\n    x = f()\n\ndef f():\n    return 1\n")
        (site,) = graph.sites_between("main", "f")
        assert site.top_level

    def test_nested_call_is_not_top_level(self):
        graph = graph_of("def main():\n    x = f() + 1\n\ndef f():\n    return 1\n")
        (site,) = graph.sites_between("main", "f")
        assert not site.top_level

    def test_call_in_condition_not_top_level(self):
        graph = graph_of(
            "def main():\n    if f():\n        pass\n\ndef f():\n    return 1\n"
        )
        (site,) = graph.sites_between("main", "f")
        assert not site.top_level


class TestReachability:
    def test_reachable_from_main(self):
        graph = graph_of(FIGURE6_SRC)
        assert graph.reachable_from("main") == {"main", "a", "b", "helper"}

    def test_reaching_targets(self):
        graph = graph_of(FIGURE6_SRC)
        assert graph.reaching({"b"}) == {"main", "a", "b"}

    def test_dead_function_not_reachable(self):
        source = FIGURE6_SRC + "\n\ndef dead():\n    a(1)\n"
        graph = graph_of(source)
        assert "dead" not in graph.reachable_from("main")
        assert "dead" in graph.reaching({"a"})

    def test_callers(self):
        graph = graph_of(FIGURE6_SRC)
        assert graph.callers("b") == ["a", "main"]

    def test_paths_invariant(self):
        assert graph_of(FIGURE6_SRC).possible_stacks_are_paths()
        assert graph_of(COMPUTE_SRC).possible_stacks_are_paths()

    def test_figure6_node_queries(self):
        graph = graph_of(FIGURE6_SRC)
        # Two call sites main -> a, one caller/callee entry.
        assert graph.callees("main") == ["a", "b"]
        assert graph.callees("a") == ["b"]
        assert graph.callers("a") == ["main"]
        assert graph.callers("helper") == ["b"]
        assert graph.callers("main") == []
        assert graph.reachable_from("b") == {"b", "helper"}
        assert graph.reaching({"helper"}) == {"main", "a", "b", "helper"}
        assert graph.reaching({"a", "helper"}) == {"main", "a", "b", "helper"}

    def test_deep_self_recursion(self):
        # The shape of the benchmark's deep shard: main calls descend(256),
        # which calls itself — statically one self-loop, however deep.
        graph = graph_of(DESCEND_SRC)
        assert graph.callees("descend") == ["descend"]
        assert graph.callers("descend") == ["descend", "main"]
        assert graph.reachable_from("descend") == {"descend"}
        assert graph.reachable_from("main") == {"main", "descend"}
        assert graph.reaching({"descend"}) == {"main", "descend"}
        assert len(graph.sites_between("descend", "descend")) == 1
        assert graph.possible_stacks_are_paths()

    def test_cycle_back_to_the_argument(self):
        graph = graph_of(
            "def main():\n    a()\n\ndef a():\n    b()\n\ndef b():\n    a()\n"
        )
        assert graph.reachable_from("a") == {"a", "b"}
        assert graph.reachable_from("b") == {"a", "b"}
        assert graph.reaching({"a"}) == {"main", "a", "b"}

    def test_dead_procedure_is_a_node_without_callers(self):
        graph = graph_of(FIGURE6_SRC + "\n\ndef dead():\n    a(1)\n")
        assert graph.callers("dead") == []
        assert graph.callees("dead") == ["a"]
        assert graph.reachable_from("dead") == {"dead", "a", "b", "helper"}
        assert graph.callers("a") == ["dead", "main"]
        assert graph.possible_stacks_are_paths()

    def test_unknown_name(self):
        graph = graph_of(FIGURE6_SRC)
        assert graph.callees("nope") == []
        assert graph.callers("nope") == []
        assert graph.reachable_from("nope") == set()
        # Each target is included even when the program has no such procedure.
        assert graph.reaching({"nope"}) == {"nope"}
        assert graph.reaching({"nope", "a"}) == {"nope", "main", "a"}


class TestModuleFunctions:
    def test_order_preserved(self):
        functions = module_functions(ast.parse(FIGURE6_SRC))
        assert list(functions) == ["main", "a", "b", "helper"]

    def test_non_functions_ignored(self):
        functions = module_functions(ast.parse("X = 1\n\ndef f():\n    pass\n"))
        assert list(functions) == ["f"]
