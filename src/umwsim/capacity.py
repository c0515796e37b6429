"""Desk-scale capacity oracle.

Enumerates every admissible route per class, by one of three enumerators
according to what the route must cover. A broadcast class's trees span
every node, so each is one choice of parent arc per non-root node that
closes no cycle (`_spanning_trees`). A multicast class's trees may relay
through any node but end only at destinations; they are grown from the
class source (`_tree_subsets`, branching on each frontier edge and pruning a
branch as soon as it can no longer reach what the class requires), since a
parent choice cannot tell early whether an optional relay node will end up
a leaf. A unicast or anycast class's paths, per destination, come from a
depth-first walk over simple paths that enters a node only if the
destination is still reachable from it without revisiting the path
(`_simple_paths`). All three return the same sorted masks, and raise the
same `CapExceededError`, as growing the trees would. Each route is kept as
its edge bitmask, which is all the program below reads; only the public
`enumerate_routes` orients the masks into `RouteTree`s.
The oracle then solves the fractional route-decomposition plus
activation-mixing program exactly:

    maximize rho
    s.t.  sum_i flow(c, i)            = rho * rate(c)        for each class c
          sum_{(c,i): e in route i} flow(c, i)
              <= sum_j p_j * [e in member j]                 for each edge e
          sum_j p_j = 1,   flow >= 0,  p >= 0

The LP's column 0 is rho / D, with D the lcm of the rate denominators, so
every coefficient is an int (-rate * D in the class rows, D in the
objective) and no row is scaled. A positive scaling of one column changes
neither the sign of its reduced cost nor the order of its ratios, so
Bland's rule pivots as it would on rho itself, and rho* and the
certificate are the same.

The optimum rho* is the largest uniform scaling of the offered rates that
any policy can support; the certificate (flow split + activation mixture)
is independently re-checkable by `verify_certificate`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import CapExceededError, ConfigError, TopologyError
from .routing import RouteTree, orient_tree
from .simplex import OPTIMAL, UNBOUNDED, solve_lp
from .topology import ActivationSet, Graph
from .traffic import TrafficClass

ROUTE_CAP = 10_000
PATHS_PER_PAIR_CAP = 100


def _tree_subsets(g: Graph, root: int, cover: frozenset[int], leaves_in: frozenset[int]) -> list[int]:
    """All out-trees from `root` that reach every node of `cover` and have
    every leaf in `leaves_in`, as edge bitmasks (bit e set for edge id e)
    in ascending order. The oracle grows multicast trees here; broadcast
    trees come from `_spanning_trees` and paths from `_simple_paths`, which
    return what this does for their covers, faster. Growing keeps
    multicast: its relay nodes are optional, and a branch that makes one a
    leaf is cut here as soon as the relay has no frontier edge left, where
    a choice of parent per node would find the leaf only once every node
    had chosen.

    Trees are grown from the root. The frontier holds every edge not yet
    decided whose tail is in the tree and whose head is not. Each step takes
    one frontier edge and branches on including it or excluding it for good,
    which meets every out-tree through the root exactly once. A branch ends
    as soon as a node of `cover` is no longer reachable from the tree along
    frontier edges, or a childless tree node outside `leaves_in` (which a
    finished tree may not have as a leaf) has no frontier edge left. Such a
    node's edges are branched on first. Including an edge keeps every path
    to `cover`, so a finished tree holds every node of `cover`: with every
    node in `cover`, as for a broadcast, it spans. Growing stops with
    `CapExceededError` as soon as more than `ROUTE_CAP` trees are found.
    """
    n = g.node_count
    out_edges = [tuple((eid, u, v) for eid, v in g.adjacency[u]) for u in range(n)]
    successors = [sum(1 << v for _, v in g.adjacency[u]) for u in range(n)]
    cover_bits = sum(1 << v for v in cover)
    leaf_bits = sum(1 << v for v in leaves_in)
    root_bit = 1 << root
    found: list[int] = []

    def reaches_cover(nodes: int, frontier: tuple) -> bool:
        # Out of the tree only frontier edges remain; beyond it, every edge.
        todo = 0
        for _, _, v in frontier:
            todo |= 1 << v
        seen = nodes | todo
        while todo and cover_bits & ~seen:
            u = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            new = successors[u] & ~seen
            seen |= new
            todo |= new
        return not cover_bits & ~seen

    # Each entry is a partial tree: node, parent-node and edge bitmasks and
    # its frontier of (edge id, tail, head) triples.
    stack = []
    if reaches_cover(root_bit, out_edges[root]):
        stack.append((root_bit, 0, 0, out_edges[root]))
    while stack:
        nodes, parents, edges, frontier = stack.pop()
        tails = 0
        for _, u, _ in frontier:
            tails |= 1 << u
        needy = nodes & ~parents & ~root_bit & ~leaf_bits
        if needy & ~tails:
            continue
        if not frontier:
            found.append(edges)
            if len(found) > ROUTE_CAP:
                raise CapExceededError("routes grown", len(found), ROUTE_CAP)
            continue
        i = 0
        if needy:
            while not needy >> frontier[i][1] & 1:
                i += 1
        eid, u, v = frontier[i]
        rest = frontier[:i] + frontier[i + 1:]
        if reaches_cover(nodes, rest):
            stack.append((nodes, parents, edges, rest))
        grown = nodes | 1 << v
        stack.append((grown, parents | 1 << u, edges | 1 << eid,
                      tuple(f for f in rest if f[2] != v)
                      + tuple(f for f in out_edges[v] if not grown >> f[2] & 1)))
    return sorted(found)


def _spanning_trees(g: Graph, root: int) -> list[int]:
    """All out-trees from `root` that span the graph, as edge bitmasks in
    ascending order: `_tree_subsets` with every node in the cover and the
    leaf set, found by choosing parents.

    Each non-root node takes one in-arc in turn, from a tail whose chain of
    chosen parents does not lead back to the node. A complete choice has no
    cycle, so it is an out-tree, and each out-tree is met exactly once, as
    its own choice of parents. The nodes choose farthest from the root
    first (by hops), so a node's parent on some shortest path from the root
    has not chosen yet and is always a valid choice: no branch ends without
    a tree. The order changes only the order found, which is sorted. With a
    node the root cannot reach there is no tree. Choosing stops with
    `CapExceededError` as soon as more than `ROUTE_CAP` trees are found, as
    the grower does.
    """
    n = g.node_count
    # Breadth-first from the root (the loop reads what it appends); the
    # nodes choose in the reverse order, the root not at all.
    order = [root]
    reached = {root}
    for u in order:
        for _, v in g.adjacency[u]:
            if v not in reached:
                reached.add(v)
                order.append(v)
    if len(order) < n:
        return []
    order = order[:0:-1]
    in_arcs = g.in_adjacency
    parent = [-1] * n  # chosen parent node, -1 while a node has none
    found: list[int] = []

    def choose(k: int, edges: int) -> None:
        if k == len(order):
            found.append(edges)
            if len(found) > ROUTE_CAP:
                raise CapExceededError("routes grown", len(found), ROUTE_CAP)
            return
        v = order[k]
        for eid, u in in_arcs[v]:
            top = u
            while parent[top] >= 0:
                top = parent[top]
            if top != v:
                parent[v] = u
                choose(k + 1, edges | 1 << eid)
                parent[v] = -1

    choose(0, 0)
    return sorted(found)


def _simple_paths(g: Graph, s: int, t: int) -> list[int]:
    """All simple paths from `s` to `t`, as edge bitmasks in ascending order
    (the edgeless path alone when s == t): the out-trees `_tree_subsets`
    grows for cover and leaves {t}, found by a depth-first walk.

    A node is entered only if `t` can still be reached from it without
    revisiting the path so far, so every branch ends in at least one path
    and the walk costs time in proportion to the paths it returns. Walking
    stops with `CapExceededError` as soon as more than `ROUTE_CAP` paths
    are found, as the grower does.
    """
    if s == t:
        return [0]
    predecessors = [0] * g.node_count
    for u, v in g.edges:
        predecessors[v] |= 1 << u
        if not g.directed:
            predecessors[u] |= 1 << v
    t_bit = 1 << t
    adjacency = g.adjacency
    found: list[int] = []
    # Each entry is a path from s: its last node, node and edge bitmasks.
    stack = [(s, 1 << s, 0)]
    while stack:
        u, path, edges = stack.pop()
        # The nodes that reach t without entering the path: a search back
        # from t that never crosses a path node.
        live = todo = t_bit
        while todo:
            x = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            new = predecessors[x] & ~live & ~path
            live |= new
            todo |= new
        for eid, v in adjacency[u]:
            if v == t:
                found.append(edges | 1 << eid)
                if len(found) > ROUTE_CAP:
                    raise CapExceededError("routes grown", len(found), ROUTE_CAP)
            elif live >> v & 1:
                stack.append((v, path | 1 << v, edges | 1 << eid))
    return sorted(found)


def _route_masks(g: Graph, cls: TrafficClass) -> list[tuple[frozenset[int], list[int]]]:
    """The class's routes as edge bitmasks, grouped by the nodes each group
    covers: one group for a broadcast or multicast, one per destination (in
    ascending order) for a unicast or anycast. A broadcast's spanning trees
    come from a choice of parents (`_spanning_trees`), a multicast's trees
    are grown (`_tree_subsets`, which prunes optional relays early) and
    paths are walked (`_simple_paths`). Raises `CapExceededError` past
    `ROUTE_CAP` routes, and past `PATHS_PER_PAIR_CAP` paths to one
    destination."""
    s = cls.source
    if cls.kind == "broadcast":
        return [(g.node_set, _spanning_trees(g, s))]
    if cls.kind == "multicast":
        return [(cls.destinations, _tree_subsets(g, s, cls.destinations, cls.destinations | {s}))]
    # unicast and anycast: simple paths per destination; each anycast route
    # covers exactly the one destination its path ends at.
    groups = []
    for t in sorted(cls.destinations):
        pair = _simple_paths(g, s, t)
        if len(pair) > PATHS_PER_PAIR_CAP:
            raise CapExceededError(f"paths {s}->{t}", len(pair), PATHS_PER_PAIR_CAP)
        groups.append((frozenset({t}), pair))
    return groups


def _edge_ids(bits: int) -> list[int]:
    """The set bits of an edge bitmask, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def enumerate_routes(g: Graph, cls: TrafficClass) -> list[RouteTree]:
    """The complete admissible-route catalog for one class, in ascending
    edge-bitmask order per destination.

    unicast: all simple source-destination paths; broadcast: all spanning
    trees rooted at the source; multicast: all inclusion-minimal trees
    covering source plus destinations; anycast: union of the per-destination
    simple paths. Spanning trees are chosen parent by parent
    (`_spanning_trees`), multicast trees grown (`_tree_subsets`) and paths
    walked (`_simple_paths`), which gives the same routes as growing every
    tree. Each search raises `CapExceededError` past `ROUTE_CAP`
    routes, and each unicast or anycast pair past `PATHS_PER_PAIR_CAP` paths.
    """
    return [
        orient_tree(g, _edge_ids(bits), cls.source, cover)
        for cover, masks in _route_masks(g, cls)
        for bits in masks
    ]


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
        """Each value as a float and as its exact string; a value past float
        range (rho* of a tiny rate) is a JSON null beside its exact string."""
        return {
            "rho_star": _float_or_none(self.rho_star),
            "rho_star_exact": str(self.rho_star),
            "rates": [
                {"class": cid, "rate": _float_or_none(r), "rate_exact": str(r)} for cid, r in self.rates
            ],
            "flows": [
                {"class": cid, "edges": list(edges), "rate": _float_or_none(v), "rate_exact": str(v)}
                for cid, edges, v in self.flows
            ],
            "activation_mix": [
                {"edges": list(edges), "prob": _float_or_none(p), "prob_exact": str(p)}
                for edges, p in self.activation_mix
            ],
        }


def _float_or_none(x: Fraction) -> float | None:
    """x as a float, or None if it is past float range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _check_class_ids(classes: list[TrafficClass]) -> None:
    """Raise `ConfigError` if two classes share an id."""
    seen: set[int] = set()
    for c in classes:
        if c.id in seen:
            raise ConfigError(f"capacity scaling got duplicate class id {c.id}")
        seen.add(c.id)


def max_scaling(
    g: Graph,
    aset: ActivationSet,
    classes: list[TrafficClass],
) -> CapacityCertificate:
    """Largest rho such that rho-scaled rates admit a feasible flow split
    and activation mixture; solved exactly over rationals.

    The routes are the enumerated catalogue's edge bitmasks; each is one LP
    column, in catalogue order. Class ids must be distinct, as the
    catalogue is keyed on them."""
    if aset.edge_count != g.m:
        raise ConfigError(f"activation set is over {aset.edge_count} edges, the graph has {g.m}")
    _check_class_ids(classes)
    active_classes = [c for c in classes if c.rate > 0]
    if not active_classes:
        raise ConfigError("capacity scaling needs at least one class with positive rate")
    masks = {c.id: [bits for _, group in _route_masks(g, c) for bits in group]
             for c in active_classes}
    for c in active_classes:
        if not masks[c.id]:
            raise ConfigError(f"class {c.id} has positive rate but no admissible route")

    members = _activation_members(aset)
    route_index: list[tuple[int, int]] = [
        (c.id, bits) for c in active_classes for bits in masks[c.id]
    ]
    n_routes = len(route_index)
    n_members = len(members)
    nvars = 1 + n_routes + n_members  # rho, flows, mixture

    # Every coefficient is an int, so solve_lp scales no row. Column 0 holds
    # rho / D, with D the lcm of the rate denominators: its entries are the
    # ints -rate * D and its objective coefficient is D. A class's routes
    # are consecutive columns.
    rates = [Fraction(c.rate) for c in active_classes]
    scale = math.lcm(*(r.denominator for r in rates))
    a_eq: list[list[int]] = []
    b_eq: list[int] = []
    start = 1
    for c, rate in zip(active_classes, rates):
        end = start + len(masks[c.id])
        row = [0] * nvars
        row[0] = -(rate.numerator * (scale // rate.denominator))
        row[start:end] = [1] * (end - start)
        a_eq.append(row)
        b_eq.append(0)
        start = end
    row = [0] * nvars
    row[1 + n_routes:] = [1] * n_members
    a_eq.append(row)
    b_eq.append(1)

    a_ub: list[list[int]] = [[0] * nvars for _ in range(g.m)]
    for j, (_, bits) in enumerate(route_index, start=1):
        for e in _edge_ids(bits):
            a_ub[e][j] = 1
    for j, member in enumerate(members, start=1 + n_routes):
        for e in member:
            a_ub[e][j] = -1
    b_ub = [0] * g.m

    objective = [0] * nvars
    objective[0] = scale
    status, value, x = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
    if status == UNBOUNDED:
        raise ConfigError(
            "capacity scaling is unbounded (every loaded class can be served "
            "with an edgeless route)"
        )
    if status != OPTIMAL:
        raise ConfigError(f"capacity program is {status}")

    # A basic solution is never negative, so a nonzero entry is positive.
    flows = tuple(
        (cid, tuple(_edge_ids(bits)), x[j])
        for j, (cid, bits) in enumerate(route_index, start=1)
        if x[j]
    )
    mix = tuple(
        (tuple(sorted(members[j])), x[1 + n_routes + j])
        for j in range(n_members)
        if x[1 + n_routes + j]
    )
    rates = tuple((c.id, rate) for c, rate in zip(active_classes, rates))
    return CapacityCertificate(rho_star=value, rates=rates, flows=flows, activation_mix=mix)


def _are_edge_ids(edges, m: int) -> bool:
    """Whether every entry of edges is an int in 0..m-1 (a bool or a float
    equal to one is not)."""
    return all(type(e) is int and 0 <= e < m for e in edges)


def _is_rational(x) -> bool:
    """Whether x is a rational number; a float or a bool is not."""
    return isinstance(x, Rational) and not isinstance(x, bool)


def verify_certificate(
    cert: CapacityCertificate,
    g: Graph,
    aset: ActivationSet,
    classes: list[TrafficClass],
) -> bool:
    """Independently recheck every constraint the certificate claims.

    The certificate must cover exactly the loaded classes at their offered
    rates, each once: one that leaves a class out, names an unknown class,
    lists a class twice, or states another rate certifies a different
    problem and does not verify. Nor does one whose rho_star, flow amounts
    or probabilities are not rational numbers (a float or a bool is not),
    whose flow or mixture-member edge ids are not ints in 0..m-1 (a bool is
    not), or whose member lists an edge twice. Classes that share an id
    raise `ConfigError`, as in `max_scaling`.
    """
    _check_class_ids(classes)
    rho = cert.rho_star
    if not _is_rational(rho):
        return False
    rates = {c.id: Fraction(c.rate) for c in classes if c.rate > 0}
    given = dict(cert.rates)
    if len(given) != len(cert.rates) or given != rates:
        return False
    # Flow amounts add up as ints over their common denominator, and so do
    # the probabilities over theirs; no Fraction is added.
    for cid, edges, v in cert.flows:
        if not _is_rational(v) or v < 0 or cid not in rates or not _are_edge_ids(edges, g.m):
            return False
    flow_den = math.lcm(*(v.denominator for _, _, v in cert.flows))
    by_class = dict.fromkeys(rates, 0)
    edge_load = [0] * g.m
    for cid, edges, v in cert.flows:
        x = v.numerator * (flow_den // v.denominator)
        by_class[cid] += x
        for e in edges:
            edge_load[e] += x
    for cid, rate in rates.items():
        # by_class / flow_den == rho * rate, cross-multiplied.
        if by_class[cid] * rho.denominator * rate.denominator != rho.numerator * rate.numerator * flow_den:
            return False

    admissible = None if aset.kind == "wired" else set(aset.members)
    for edges, p in cert.activation_mix:
        if not _is_rational(p) or p < 0:
            return False
        member = frozenset(edges)
        if not _are_edge_ids(edges, g.m) or len(member) != len(edges):
            return False
        if admissible is not None and member not in admissible:
            return False
    mix_den = math.lcm(*(p.denominator for _, p in cert.activation_mix))
    total_p = 0
    edge_service = [0] * g.m
    for edges, p in cert.activation_mix:
        x = p.numerator * (mix_den // p.denominator)
        total_p += x
        for e in edges:
            edge_service[e] += x
    if total_p != mix_den:
        return False

    for load, service in zip(edge_load, edge_service):
        if load * mix_den > service * flow_den:
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
