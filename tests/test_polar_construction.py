"""Construction tests: recursion values, ordering rules, pickling."""

import os
import pickle

import numpy as np
import pytest

from beaconphy.cli import load_spec
from beaconphy.polar_construction import PolarSpec, bhattacharyya_profile, construct

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def test_profile_base_case():
    assert bhattacharyya_profile(0, 0.5).tolist() == [0.5]
    assert bhattacharyya_profile(0, 0.3).tolist() == [0.3]


def test_profile_one_level_hand_values():
    # One split of eps: degraded 2e - e^2 at index 0, upgraded e^2 at index 1.
    assert bhattacharyya_profile(1, 0.5).tolist() == [0.75, 0.25]
    z = bhattacharyya_profile(1, 0.3)
    assert z[0] == pytest.approx(0.51) and z[1] == pytest.approx(0.09)


def test_profile_two_levels_hand_values():
    z = bhattacharyya_profile(2, 0.5)
    assert z.tolist() == [0.9375, 0.5625, 0.4375, 0.0625]


def test_profile_matches_scalar_recursion():
    # Independent scalar evaluation: index bits choose the split, MSB first.
    def scalar(n, eps, idx):
        z = eps
        for level in reversed(range(n)):
            if (idx >> level) & 1:
                z = z * z
            else:
                z = 2 * z - z * z
        return z

    for n in (3, 5):
        for eps in (0.2, 0.5, 0.8):
            z = bhattacharyya_profile(n, eps)
            for idx in range(1 << n):
                assert z[idx] == pytest.approx(scalar(n, eps, idx), rel=1e-12)


def test_profile_extremes_and_bounds():
    z = bhattacharyya_profile(6, 0.5)
    assert z[0] == z.max() and z[-1] == z.min()
    # Degraded-end values round to 1.0 in float64 after enough levels.
    assert np.all(z > 0) and np.all(z <= 1)


def test_profile_validation():
    with pytest.raises(ValueError):
        bhattacharyya_profile(-1, 0.5)
    with pytest.raises(ValueError):
        bhattacharyya_profile(3, 0.0)
    with pytest.raises(ValueError):
        bhattacharyya_profile(3, 1.0)


def test_construct_small_hand_cases():
    assert construct(2, 1).info_set == (1,)
    assert construct(2, 2).info_set == (0, 1)
    assert construct(4, 2).info_set == (2, 3)
    # N=8, K=4 ordering worked out from the two-level values above.
    assert construct(8, 4).info_set == (3, 5, 6, 7)


def test_construct_nesting():
    # Info sets for growing K are prefixes of one reliability order.
    prev = set()
    for K in range(1, 33):
        cur = set(construct(32, K).info_set)
        assert prev <= cur and len(cur) == K
        prev = cur


def test_construct_order_matches_sorted_reference():
    # The positions are ordered by one lexsort; the Python sort it replaced is the reference.
    for eps in (0.5, 0.3, 0.9, 1e-3, 0.999):
        for n in range(13):
            N = 1 << n
            z = bhattacharyya_profile(n, eps)
            order = sorted(range(N), key=lambda i: (z[i], -i))
            for K in {1, N // 3 or 1, N // 2 or 1, N}:
                assert construct(N, K, eps).info_set == tuple(sorted(order[:K]))


def test_construct_golden_regression():
    golden = load_spec(os.path.join(DATA_DIR, "polar_256_158.json"))
    spec = construct(256, 158, 0.5)
    assert spec == golden


def test_construct_validation():
    with pytest.raises(ValueError):
        construct(12, 4)
    with pytest.raises(ValueError):
        construct(8, 0)
    with pytest.raises(ValueError):
        construct(8, 9)


def test_spec_validation():
    with pytest.raises(ValueError):
        PolarSpec(n=2, N=8, K=2, eps=0.5, info_set=(2, 3))
    with pytest.raises(ValueError):
        PolarSpec(n=2, N=4, K=2, eps=0.5, info_set=(3, 2))
    with pytest.raises(ValueError):
        PolarSpec(n=2, N=4, K=2, eps=0.5, info_set=(3, 3))
    with pytest.raises(ValueError):
        PolarSpec(n=2, N=4, K=2, eps=0.5, info_set=(3, 4))
    for eps in (float("nan"), float("inf"), 0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            PolarSpec(n=2, N=4, K=2, eps=eps, info_set=(2, 3))
    for n in (10**20, -1, 3):
        with pytest.raises(ValueError, match=r"N must equal 2\*\*n"):
            PolarSpec(n=n, N=4, K=2, eps=0.5, info_set=(2, 3))
    # numpy integers have no bit_length of their own, and are accepted
    assert PolarSpec(n=np.int64(2), N=np.int64(4), K=2, eps=0.5, info_set=(2, 3)).N == 4


def test_spec_helpers():
    spec = construct(8, 4)
    assert spec.rate == 0.5
    idx = spec.info_indices()
    mask = spec.info_mask()
    assert idx.tolist() == [3, 5, 6, 7]
    assert mask.sum() == 4 and np.all(mask[idx])


def test_spec_arrays_are_built_once_and_read_only():
    spec = construct(64, 40)
    assert spec.info_indices() is spec.info_indices()
    assert spec.info_mask() is spec.info_mask()
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and np.array_equal(copy.info_mask(), spec.info_mask())
    for arr in (spec.info_indices(), spec.info_mask(), copy.info_indices(), copy.info_mask()):
        with pytest.raises(ValueError):
            arr[0] = 1

