"""Polar code construction from the erasure-channel reliability recursion.

A code is the triple (N, K, info_set).  Reliabilities come from the
Bhattacharyya recursion on a binary erasure channel with design parameter
eps: each polarization level splits a channel with parameter z into a
degraded copy (2z - z^2) and an upgraded copy (z^2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:  # NaN fails too
        raise ValueError("design erasure probability must lie in (0, 1)")


def check_design(N: int, eps: float) -> None:
    """Reject a code length N that is not a power of two numpy can index, or eps outside (0, 1)."""
    if N <= 0 or N & (N - 1):
        raise ValueError("N must be a power of two")
    if N > np.iinfo(np.intp).max:
        raise ValueError(f"N must not exceed {np.iinfo(np.intp).max}, got {N}")
    _check_eps(eps)


def bhattacharyya_profile(n: int, eps: float) -> np.ndarray:
    """Reliability parameter of each bit channel after n polarization levels.

    Index bits select the splits most-significant bit first: a 0 bit takes
    the degraded branch, a 1 bit the upgraded branch.  Position 2**n - 1
    (all upgrades) is therefore the most reliable and position 0 the least.

    Args:
        n: number of levels; the profile has length 2**n.
        eps: design erasure probability, 0 < eps < 1.

    Returns:
        float64 array of length 2**n; smaller means more reliable.
    """
    if n < 0:
        raise ValueError("level count must be nonnegative")
    _check_eps(eps)
    z = np.array([eps], dtype=np.float64)
    for _ in range(n):
        nxt = np.empty(2 * z.size, dtype=np.float64)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return z


@dataclass(frozen=True)
class PolarSpec:
    """Frozen description of one constructed code."""

    n: int
    N: int
    K: int
    eps: float
    info_set: tuple[int, ...]

    def __post_init__(self):
        check_design(self.N, self.eps)
        if int(self.N).bit_length() != self.n + 1:  # not 1 << n, which a huge n overflows
            raise ValueError("N must equal 2**n")
        if not 0 < self.K <= self.N:
            raise ValueError("K must satisfy 0 < K <= N")
        info = tuple(self.info_set)
        if len(info) != self.K or sorted(set(info)) != list(info):
            raise ValueError("info_set must be K sorted distinct indices")
        if info and not 0 <= info[0] <= info[-1] < self.N:
            raise ValueError("info_set indices must lie in [0, N)")
        object.__setattr__(self, "info_set", info)

    @property
    def rate(self) -> float:
        return self.K / self.N

    @cached_property
    def _info_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.array(self.info_set, dtype=np.intp)
        mask = np.zeros(self.N, dtype=bool)
        mask[idx] = True
        idx.flags.writeable = mask.flags.writeable = False
        return idx, mask

    def info_indices(self) -> np.ndarray:
        """info_set as a read-only intp array, built once per spec."""
        return self._info_arrays[0]

    def info_mask(self) -> np.ndarray:
        """Read-only length-N boolean array, True at info_set, built once per spec."""
        return self._info_arrays[1]

    def __getstate__(self) -> dict:
        # Pickle the fields only: unpickled arrays would come back writeable.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def construct(N: int, K: int, eps: float = 0.5) -> PolarSpec:
    """Pick the K most reliable positions of an N = 2**n polar transform.

    Ties in the reliability profile are broken toward the larger index, so
    the returned set is a deterministic function of (N, K, eps) and the sets
    for successive K are nested.
    """
    check_design(N, eps)  # before the profile allocates 2**n floats; PolarSpec checks K
    n = N.bit_length() - 1
    z = bhattacharyya_profile(n, eps)
    order = np.lexsort((-np.arange(N), z))  # by z, then by larger index
    return PolarSpec(n=n, N=N, K=K, eps=eps, info_set=tuple(np.sort(order[:K]).tolist()))

