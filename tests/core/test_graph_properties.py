"""Property-based tests of the reconfiguration-graph construction.

The paper's defining law (Section 3): the reconfiguration graph spans
exactly the procedures on paths from ``main`` to a procedure containing
a reconfiguration point.  We generate random call structures and check
the law, plus the numbering invariants, against the independent
ground truth computed from the generated call matrix by brute force —
and the call graph's own queries against the same brute force over
arbitrary edge lists (parallel edges, self-loops, cycles).
"""

import ast

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.callgraph import build_call_graph
from repro.core.recongraph import RECONFIG_NODE, build_reconfiguration_graph
from repro.errors import ReconfigGraphError


def closure(start, edges):
    """``start`` plus everything reachable along ``edges``: the edge list
    is rescanned until nothing is added (no adjacency, no worklist)."""
    seen = {start}
    grew = True
    while grew:
        grew = False
        for source, target in edges:
            if source in seen and target not in seen:
                seen.add(target)
                grew = True
    return seen


def simple_paths(edges, source, target, path=()):
    path = path + (source,)
    if source == target:
        yield path
        return
    for a, b in sorted(set(edges)):
        if a == source and b not in path:
            yield from simple_paths(edges, b, target, path)


def _truth_edges(edges, main_calls):
    return [("main", f"f{target}") for target in main_calls] + [
        (f"f{caller}", f"f{callee}") for caller, callee in edges
    ]


@st.composite
def random_programs(draw):
    """A random program: main + f0..f{n-1} with forward calls.

    Calls go only from lower to higher indices (plus optional direct
    self-recursion), so generated programs terminate trivially and the
    call matrix doubles as ground truth.
    """
    count = draw(st.integers(min_value=2, max_value=8))
    edges = set()
    for caller in range(count):
        callees = draw(
            st.lists(
                st.integers(min_value=caller + 1, max_value=count - 1),
                max_size=3,
            )
            if caller + 1 <= count - 1
            else st.just([])
        )
        for callee in callees:
            edges.add((caller, callee))
    main_calls = draw(
        st.lists(st.integers(min_value=0, max_value=count - 1), min_size=1,
                 max_size=3)
    )
    point_holders = draw(
        st.lists(st.integers(min_value=0, max_value=count - 1), min_size=1,
                 max_size=2, unique=True)
    )

    lines = ["def main():"]
    for target in main_calls:
        lines.append(f"    f{target}(0)")
    lines.append("")
    for index in range(count):
        lines.append(f"def f{index}(x: int):")
        body = []
        if index in point_holders:
            body.append(f"    mh.reconfig_point('P{index}')")
        for caller, callee in sorted(edges):
            if caller == index:
                body.append(f"    f{callee}(x + 1)")
        if not body:
            body.append("    return x")
        lines.extend(body)
        lines.append("")
    source = "\n".join(lines)
    return source, edges, main_calls, point_holders, count


@given(random_programs())
@settings(max_examples=120, deadline=None)
def test_node_set_law(program):
    source, edges, main_calls, point_holders, count = program
    tree = ast.parse(source)
    call_graph = build_call_graph(tree)

    truth = _truth_edges(edges, main_calls)
    reachable = closure("main", truth)
    points = {f"f{i}" for i in point_holders}

    if points - reachable:
        # A point in dead code is a configuration error, by design.
        with pytest.raises(ReconfigGraphError, match="unreachable"):
            build_reconfiguration_graph(call_graph)
        return
    recon = build_reconfiguration_graph(call_graph)
    nodes = {"main"} | {f"f{i}" for i in range(count)}
    reaches_point = {node for node in nodes if closure(node, truth) & points}

    expected_nodes = (reachable & reaches_point) | {"main"}
    assert set(recon.nodes) == expected_nodes

    # Numbering: consecutive from 1, one reconfig edge per reachable point.
    assert [e.number for e in recon.edges] == list(range(1, len(recon.edges) + 1))
    reachable_points = points & reachable
    assert len(recon.reconfig_edges()) == len(reachable_points)
    for edge in recon.reconfig_edges():
        assert edge.target == RECONFIG_NODE
        assert edge.source in expected_nodes

    # Every call edge of the reconfiguration graph joins two graph nodes
    # and corresponds to a real call site.
    for edge in recon.call_edges():
        assert edge.source in expected_nodes
        assert edge.target in expected_nodes
        assert edge.call_site is not None
        assert edge.call_site.callee == edge.target


@given(random_programs())
@settings(max_examples=60, deadline=None)
def test_every_possible_stack_is_instrumented(program):
    """Any stack alive at a capture is a path main -> ... -> point-holder;
    every node on every such path must be in the reconfiguration graph."""
    source, edges, main_calls, point_holders, count = program
    tree = ast.parse(source)
    call_graph = build_call_graph(tree)

    truth = _truth_edges(edges, main_calls)
    reachable = closure("main", truth)
    if {f"f{i}" for i in point_holders} - reachable:
        return  # rejected configuration, covered by test_node_set_law
    recon = build_reconfiguration_graph(call_graph)

    for point in point_holders:
        for path in simple_paths(truth, "main", f"f{point}"):
            for node in path:
                assert recon.is_instrumented(node), (path, node)


# -- the call graph's own queries ---------------------------------------------

PROCEDURES = ["main"] + [f"p{i}" for i in range(7)]


@st.composite
def edge_lists(draw):
    """Procedures (``main`` first, at most 8) and an arbitrary list of
    calls among them: repeats are parallel edges, ``(p, p)`` is direct
    recursion, longer cycles arise freely."""
    names = PROCEDURES[: draw(st.integers(min_value=1, max_value=len(PROCEDURES)))]
    call = st.tuples(st.sampled_from(names), st.sampled_from(names))
    return names, draw(st.lists(call, max_size=20))


def program_of(names, edges):
    lines = []
    for name in names:
        lines.append(f"def {name}():")
        lines.extend(f"    {callee}()" for caller, callee in edges if caller == name)
        lines.append("    return None")
        lines.append("")
    return "\n".join(lines)


@given(edge_lists(), st.sets(st.sampled_from(PROCEDURES + ["ghost"]), max_size=3))
@settings(max_examples=200, deadline=None)
def test_call_graph_queries_match_brute_force(program, targets):
    names, edges = program
    graph = build_call_graph(ast.parse(program_of(names, edges)))
    backwards = [(b, a) for a, b in edges]

    assert len(graph.sites) == len(edges)  # parallel edges stay distinct
    for name in names:
        assert graph.callees(name) == sorted({b for a, b in edges if a == name})
        assert graph.callers(name) == sorted({a for a, b in edges if b == name})
        assert graph.reachable_from(name) == closure(name, edges)
        assert len(graph.sites_from(name)) == sum(a == name for a, _ in edges)
    expected = set()
    for target in targets:
        expected |= closure(target, backwards)  # the target itself, known or not
    assert graph.reaching(targets) == expected
    # Everything main reaches got there by a call, so it has a caller.
    assert graph.possible_stacks_are_paths()
    assert all(
        graph.callers(name) for name in closure("main", edges) - {"main"}
    )
