import numpy as np
import pytest

from helpers import brute_force_max_weight, random_connected_graph, random_weights
from umwsim.activation import ActivationVector, activation_weight, max_weight_activation
from umwsim.errors import TopologyError
from umwsim.topology import ActivationSet, Graph, enumerate_matchings


def test_wired_activates_everything():
    aset = ActivationSet("wired", 4)
    act = max_weight_activation(aset, [0, 0, 0, 0])
    assert act.active == {0, 1, 2, 3}


def test_explicit_direct_comparison():
    aset = ActivationSet("explicit", 2, (frozenset({0}), frozenset({1})))
    assert max_weight_activation(aset, [5, 3]).active == {0}
    assert max_weight_activation(aset, [3, 5]).active == {1}


def test_primary_interference_path():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    aset = enumerate_matchings(g)
    act = max_weight_activation(aset, [3, 1, 3])
    assert act.active == {0, 2}
    assert activation_weight(act, [3, 1, 3]) == 6


def test_activation_weight_examples():
    empty = ActivationVector(frozenset(), 3)
    assert activation_weight(empty, [3, 1, 3]) == 0
    assert activation_weight(ActivationVector({0, 2}, 3), [3, 1, 3]) == 6
    full = ActivationVector({0, 1, 2}, 3)
    assert activation_weight(full, [1, 1, 1]) == 3


def test_zero_weights_still_member():
    aset = ActivationSet("explicit", 3, (frozenset({2}), frozenset({0, 1})))
    act = max_weight_activation(aset, [0, 0, 0])
    assert act.active in (set(m) for m in aset.members)
    # deterministic: first member wins the tie
    assert act.active == {2}


def test_empty_activation_set_rejected():
    with pytest.raises(TopologyError):
        ActivationSet("explicit", 3, ())


def test_weight_length_checked():
    aset = ActivationSet("wired", 3)
    with pytest.raises(TopologyError):
        max_weight_activation(aset, [1, 2])


def test_exactness_against_subset_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_connected_graph(rng)
        aset = enumerate_matchings(g)
        for _ in range(4):
            w = random_weights(rng, g.m)
            act = max_weight_activation(aset, w)
            assert activation_weight(act, w) == brute_force_max_weight(g, w)


def test_as_array():
    act = ActivationVector({1, 3}, 5)
    assert act.as_array.tolist() == [0, 1, 0, 1, 0]


def _first_argmax(aset, w) -> int:
    best = None
    for i, s in enumerate(aset.members):
        score = sum(int(w[e]) for e in s)
        if best is None or score > best[0]:
            best = (score, i)
    return best[1]


def test_max_weight_matches_first_argmax_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_connected_graph(rng)
        explicit = ActivationSet(
            "explicit", g.m,
            tuple(frozenset(np.flatnonzero(rng.random(g.m) < 0.5).tolist()) for _ in range(6)),
        )
        for aset in (enumerate_matchings(g), explicit):
            for _ in range(6):
                w = rng.integers(0, 3, g.m).astype(np.int64)   # small weights: many ties
                act = max_weight_activation(aset, w)
                assert act is aset.vectors[_first_argmax(aset, w)]
                assert act.active == aset.members[_first_argmax(aset, w)]


def test_equal_weights_return_the_same_vector():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    aset = enumerate_matchings(g)
    w = np.array([3, 1, 3], np.int64)
    a = max_weight_activation(aset, w)
    assert max_weight_activation(aset, w.copy()) is a
    assert a.as_array is max_weight_activation(aset, [3, 1, 3]).as_array
    wired = ActivationSet("wired", 3)
    assert max_weight_activation(wired, w) is max_weight_activation(wired, [0, 0, 0])
    assert not a.as_array.flags.writeable
