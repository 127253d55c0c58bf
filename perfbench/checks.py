"""Output checkers that share no code with the program's verifiers.

Each checker reads a solver's output labeling through graph adjacency
and ports alone (``degree``, ``endpoint``, ``node``, ``half_at``) and
restates the problem's definition directly, instead of going through
``repro.lcl.verifier`` or a problem's own ``verify``.  A checker returns
``None`` for an accepted output and a one-line reason otherwise.  Every
check is an explicit branch: the program's own verdicts are ``assert``
statements that ``python -O`` removes, these are not.

``padded-sinkless`` and ``gadget-proof`` have no checker here
(:data:`PROBED_ONLY`): an independent one would re-implement the gadget
machinery.  Their verifier is instead held to rejecting every
declared-unsound probe (see ``child.py``).  Any other problem without a
checker fails its trials.

:data:`PLANTED_FAULTS` breaks one constraint of a correct output, so
the benchmark can require both the checker and the engine's own
verification to reject it.
"""

from __future__ import annotations

from typing import Callable, Optional

Reason = Optional[str]


def _halves(graph):
    """Every half-edge ``(v, p)`` with the half ``(u, q)`` across its edge."""
    for v in range(graph.num_nodes):
        for p in range(graph.degree(v)):
            u, q = graph.endpoint(v, p)
            yield v, p, u, q


def _proper_coloring(colors: int, max_degree: int | None = None):
    def check(graph, out) -> Reason:
        for v in range(graph.num_nodes):
            if out.node(v) not in range(colors):
                return f"node {v} has color {out.node(v)!r} outside 0..{colors - 1}"
            if max_degree is not None and graph.degree(v) > max_degree:
                return f"node {v} has degree {graph.degree(v)} > {max_degree}"
        for v, _p, u, _q in _halves(graph):
            if u != v and out.node(u) == out.node(v):
                return f"adjacent nodes {v} and {u} share color {out.node(v)!r}"
        return None

    return check


def check_mis(graph, out) -> Reason:
    members = set()
    for v in range(graph.num_nodes):
        bit = out.node(v)
        if bit not in (0, 1):
            return f"node {v} has MIS label {bit!r}"
        if bit == 1:
            members.add(v)
    for v, p, u, _q in _halves(graph):
        expected = (int(v in members), int(u in members))
        if out.half_at(v, p) != expected:
            return f"half-edge ({v}, {p}) reads {out.half_at(v, p)!r}, not {expected}"
        if u != v and v in members and u in members:
            return f"adjacent nodes {v} and {u} are both in the set"
    for v in range(graph.num_nodes):
        if v in members:
            continue
        if not any(
            graph.endpoint(v, p)[0] in members for p in range(graph.degree(v))
        ):
            return f"node {v} is outside the set with no neighbor in it"
    return None


def check_matching(graph, out) -> Reason:
    matched_ports = [0] * graph.num_nodes
    for v, p, u, q in _halves(graph):
        label = out.half_at(v, p)
        if not (isinstance(label, tuple) and len(label) == 3):
            return f"half-edge ({v}, {p}) has matching label {label!r}"
        if label[0] != out.half_at(u, q)[0]:
            return f"the halves of edge ({v}, {p})-({u}, {q}) disagree on 'matched'"
        if label[0] == 1:
            if u == v:
                return f"self-loop at node {v} is matched"
            matched_ports[v] += 1
    for v in range(graph.num_nodes):
        if matched_ports[v] > 1:
            return f"node {v} has {matched_ports[v]} matched edges"
    for v, p, u, _q in _halves(graph):
        _m, mine, theirs = out.half_at(v, p)
        if (mine, theirs) != (matched_ports[v], matched_ports[u]):
            return f"half-edge ({v}, {p}) misreports which endpoints are matched"
        if u != v and not matched_ports[v] and not matched_ports[u]:
            return f"edge {v}-{u} has both endpoints unmatched"
    return None


def check_sinkless(graph, out) -> Reason:
    for v, p, u, q in _halves(graph):
        pair = {out.half_at(v, p), out.half_at(u, q)}
        if pair != {"out", "in"}:
            return f"edge ({v}, {p})-({u}, {q}) is labeled {sorted(map(repr, pair))}"
    for v in range(graph.num_nodes):
        degree = graph.degree(v)
        if degree >= 3 and not any(
            out.half_at(v, p) == "out" for p in range(degree)
        ):
            return f"node {v} of degree {degree} is a sink"
    return None


def check_parity(graph, out) -> Reason:
    for v in range(graph.num_nodes):
        if out.node(v) != graph.degree(v) % 2:
            return f"node {v} of degree {graph.degree(v)} outputs {out.node(v)!r}"
    return None


def check_constant(graph, out) -> Reason:
    for v in range(graph.num_nodes):
        if out.node(v) != "ok":
            return f"node {v} outputs {out.node(v)!r}, not 'ok'"
    return None


#: Registered problem name -> checker.
CHECKERS: dict[str, Callable] = {
    "3-coloring-cycles": _proper_coloring(3, max_degree=2),
    "4-coloring": _proper_coloring(4),
    "mis": check_mis,
    "maximal-matching": check_matching,
    "sinkless-orientation": check_sinkless,
    "degree-parity": check_parity,
    "constant": check_constant,
}


#: Problems held to the declared-unsound probes instead of a checker.
PROBED_ONLY = ("padded-sinkless", "gadget-proof")


def _first_edge(graph):
    """The first half-edge ``(v, p)`` whose edge joins two distinct nodes."""
    for v, p, u, q in _halves(graph):
        if u != v:
            return v, p, u, q
    raise ValueError("the graph has no edge between distinct nodes")


def _copy_neighbor_color(graph, out) -> None:
    v, _p, u, _q = _first_edge(graph)
    out.set_node(v, out.node(u))


def _flip_node_bit(graph, out) -> None:
    v = _first_edge(graph)[0]
    out.set_node(v, 1 - out.node(v))


def _flip_matched(graph, out) -> None:
    v, p, _u, _q = _first_edge(graph)
    matched, mine, theirs = out.half_at(v, p)
    out.set_half_at(v, p, (1 - matched, mine, theirs))


def _copy_other_half(graph, out) -> None:
    v, p, u, q = _first_edge(graph)
    out.set_half_at(v, p, out.half_at(u, q))


def _relabel_node(graph, out) -> None:
    out.set_node(_first_edge(graph)[0], "not-ok")


#: Registered problem name -> a fault planted in place in a correct output.
PLANTED_FAULTS: dict[str, Callable] = {
    "3-coloring-cycles": _copy_neighbor_color,
    "4-coloring": _copy_neighbor_color,
    "mis": _flip_node_bit,
    "maximal-matching": _flip_matched,
    "sinkless-orientation": _copy_other_half,
    "degree-parity": _flip_node_bit,
    "constant": _relabel_node,
}
