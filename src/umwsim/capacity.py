"""Desk-scale capacity oracle.

Enumerates every admissible route per class by brute force over edge
subsets, then solves the fractional route-decomposition plus
activation-mixing program exactly:

    maximize rho
    s.t.  sum_i flow(c, i)            = rho * rate(c)        for each class c
          sum_{(c,i): e in route i} flow(c, i)
              <= sum_j p_j * [e in member j]                 for each edge e
          sum_j p_j = 1,   flow >= 0,  p >= 0

The optimum rho* is the largest uniform scaling of the offered rates that
any policy can support; the certificate (flow split + activation mixture)
is independently re-checkable by `verify_certificate`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, ConfigError, TopologyError
from .routing import RouteTree, orient_tree
from .simplex import OPTIMAL, UNBOUNDED, solve_lp
from .topology import ActivationSet, Graph
from .traffic import TrafficClass

ROUTE_EDGE_CAP = 12
PATHS_PER_PAIR_CAP = 100


def _tree_subsets(g: Graph, root: int, cover: frozenset[int], leaves_in: frozenset[int],
                  spanning: bool) -> list[RouteTree]:
    """All edge subsets that form a root-oriented tree covering `cover`
    with every leaf in `leaves_in`. Exhaustive over 2^m subsets."""
    m = g.m
    n = g.node_count
    out: list[RouteTree] = []
    for bits in range(1 << m):
        edge_ids = [e for e in range(m) if bits >> e & 1]
        k = len(edge_ids)
        if spanning and k != n - 1:
            continue
        if k > n - 1:
            continue
        nodes: set[int] = set()
        for e in edge_ids:
            nodes.update(g.edges[e])
        if k and len(nodes) != k + 1:
            continue
        if not cover <= (nodes | {root}):
            continue
        if edge_ids and root not in nodes:
            continue
        try:
            tree = orient_tree(g, edge_ids, root, cover)
        except TopologyError:
            continue
        leaf_ok = all(
            te.child in leaves_in or te.child in tree.children_of
            for te in tree.edges
        )
        if leaf_ok:
            out.append(tree)
    return out


def enumerate_routes(
    g: Graph,
    cls: TrafficClass,
    edge_cap: int = ROUTE_EDGE_CAP,
    paths_per_pair_cap: int = PATHS_PER_PAIR_CAP,
) -> list[RouteTree]:
    """The complete admissible-route catalog for one class.

    unicast: all simple source-destination paths; broadcast: all spanning
    trees rooted at the source; multicast: all inclusion-minimal trees
    covering source plus destinations; anycast: union of the per-destination
    simple paths.
    """
    if g.m > edge_cap:
        raise CapExceededError("route enumeration edges", g.m, edge_cap)
    s = cls.source
    if cls.kind == "broadcast":
        return _tree_subsets(g, s, frozenset(range(g.node_count)), frozenset(range(g.node_count)), True)
    if cls.kind == "multicast":
        cover = frozenset(cls.destinations | {s})
        return _tree_subsets(g, s, cls.destinations, cover, False)
    # unicast and anycast: simple paths per destination; each anycast route
    # covers exactly the one destination its path ends at.
    routes: list[RouteTree] = []
    for t in sorted(cls.destinations):
        pair = _tree_subsets(g, s, frozenset({t}), frozenset({t}), False)
        if len(pair) > paths_per_pair_cap:
            raise CapExceededError(f"paths {s}->{t}", len(pair), paths_per_pair_cap)
        routes.extend(pair)
    return routes


def _activation_members(aset: ActivationSet) -> list[frozenset[int]]:
    if aset.kind == "wired":
        return [frozenset(range(aset.edge_count))]
    return list(aset.members)


@dataclass(frozen=True)
class CapacityCertificate:
    """Witness for the computed scaling: flow split plus activation mixture."""

    rho_star: Fraction
    rates: tuple[tuple[int, Fraction], ...]            # (class id, offered rate)
    flows: tuple[tuple[int, tuple[int, ...], Fraction], ...]   # (class id, sorted edge ids, rate)
    activation_mix: tuple[tuple[tuple[int, ...], Fraction], ...]  # (sorted edge ids, probability)

    def to_json_dict(self) -> dict:
        return {
            "rho_star": float(self.rho_star),
            "rho_star_exact": str(self.rho_star),
            "rates": [
                {"class": cid, "rate": float(r), "rate_exact": str(r)} for cid, r in self.rates
            ],
            "flows": [
                {"class": cid, "edges": list(edges), "rate": float(v), "rate_exact": str(v)}
                for cid, edges, v in self.flows
            ],
            "activation_mix": [
                {"edges": list(edges), "prob": float(p), "prob_exact": str(p)}
                for edges, p in self.activation_mix
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CapacityCertificate":
        return cls(
            rho_star=Fraction(doc["rho_star_exact"]),
            rates=tuple((int(r["class"]), Fraction(r["rate_exact"])) for r in doc["rates"]),
            flows=tuple(
                (int(f["class"]), tuple(int(e) for e in f["edges"]), Fraction(f["rate_exact"]))
                for f in doc["flows"]
            ),
            activation_mix=tuple(
                (tuple(int(e) for e in a["edges"]), Fraction(a["prob_exact"]))
                for a in doc["activation_mix"]
            ),
        )


def max_scaling(
    g: Graph,
    aset: ActivationSet,
    classes: list[TrafficClass],
    catalog: dict[int, list[RouteTree]] | None = None,
) -> CapacityCertificate:
    """Largest rho such that rho-scaled rates admit a feasible flow split
    and activation mixture; solved exactly over rationals."""
    active_classes = [c for c in classes if c.rate > 0]
    if not active_classes:
        raise ConfigError("capacity scaling needs at least one class with positive rate")
    if catalog is None:
        catalog = {c.id: enumerate_routes(g, c) for c in active_classes}
    for c in active_classes:
        if not catalog.get(c.id):
            raise ConfigError(f"class {c.id} has positive rate but no admissible route")

    members = _activation_members(aset)
    route_index: list[tuple[int, RouteTree]] = [
        (c.id, tree) for c in active_classes for tree in catalog[c.id]
    ]
    n_routes = len(route_index)
    n_members = len(members)
    nvars = 1 + n_routes + n_members  # rho, flows, mixture

    # Int coefficients except the rates: solve_lp scales each row to integers
    # by its common denominator, and an all-int row needs no scaling.
    a_eq: list[list] = []
    b_eq: list[int] = []
    for c in active_classes:
        row = [0] * nvars
        row[0] = -Fraction(c.rate)
        for j, (cid, _) in enumerate(route_index):
            if cid == c.id:
                row[1 + j] = 1
        a_eq.append(row)
        b_eq.append(0)
    row = [0] * nvars
    for j in range(n_members):
        row[1 + n_routes + j] = 1
    a_eq.append(row)
    b_eq.append(1)

    a_ub: list[list[int]] = []
    b_ub: list[int] = []
    for e in range(g.m):
        row = [0] * nvars
        for j, (_, tree) in enumerate(route_index):
            if e in tree.edge_ids:
                row[1 + j] = 1
        for j, member in enumerate(members):
            if e in member:
                row[1 + n_routes + j] = -1
        a_ub.append(row)
        b_ub.append(0)

    objective = [0] * nvars
    objective[0] = 1
    status, value, x = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
    if status == UNBOUNDED:
        raise ConfigError(
            "capacity scaling is unbounded (every loaded class can be served "
            "with an edgeless route)"
        )
    if status != OPTIMAL:
        raise ConfigError(f"capacity program is {status}")

    flows = tuple(
        (cid, tuple(sorted(tree.edge_ids)), x[1 + j])
        for j, (cid, tree) in enumerate(route_index)
        if x[1 + j] > 0
    )
    mix = tuple(
        (tuple(sorted(members[j])), x[1 + n_routes + j])
        for j in range(n_members)
        if x[1 + n_routes + j] > 0
    )
    rates = tuple((c.id, Fraction(c.rate)) for c in active_classes)
    return CapacityCertificate(rho_star=value, rates=rates, flows=flows, activation_mix=mix)


def verify_certificate(
    cert: CapacityCertificate,
    g: Graph,
    aset: ActivationSet,
    classes: list[TrafficClass],
    tol: float = 1e-9,
) -> bool:
    """Independently recheck every constraint the certificate claims."""
    tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    rates = dict(cert.rates)
    by_class: dict[int, Fraction] = {cid: Fraction(0) for cid in rates}
    edge_load = [Fraction(0)] * g.m
    for cid, edges, v in cert.flows:
        if v < 0 or cid not in rates:
            return False
        by_class[cid] += v
        for e in edges:
            if not (0 <= e < g.m):
                return False
            edge_load[e] += v
    for cid, rate in rates.items():
        if abs(by_class[cid] - cert.rho_star * rate) > tol:
            return False

    total_p = Fraction(0)
    edge_service = [Fraction(0)] * g.m
    admissible = None if aset.kind == "wired" else set(aset.members)
    for edges, p in cert.activation_mix:
        if p < 0:
            return False
        member = frozenset(edges)
        if admissible is None:
            if not member <= set(range(g.m)):
                return False
        elif member not in admissible:
            return False
        total_p += p
        for e in edges:
            edge_service[e] += p
    if abs(total_p - 1) > tol:
        return False

    for e in range(g.m):
        if edge_load[e] > edge_service[e] + tol:
            return False

    # Structural check: each flow-carrying edge set must orient into a tree
    # from its class source and reach what the class requires.
    class_by_id = {c.id: c for c in classes}
    for cid, edges, v in cert.flows:
        cls = class_by_id[cid]
        try:
            tree = orient_tree(g, edges, cls.source, frozenset())
        except TopologyError:
            return False
        reached = tree.nodes
        if cls.kind == "unicast" and not cls.destinations <= reached:
            return False
        if cls.kind == "broadcast" and reached != frozenset(range(g.node_count)):
            return False
        if cls.kind == "multicast" and not cls.destinations <= reached:
            return False
        if cls.kind == "anycast" and not (cls.destinations & reached):
            return False
    return True
