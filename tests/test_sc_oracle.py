"""sc_decode against the recursive SC reference in tests/sc_oracle.py.

The production decoder skips rate-0 subtrees, hard-decides rate-1 subtrees,
sums repetition subtrees and decides single-parity-check subtrees by
Wagner's rule; every case here asks for the same decisions as plain SC, bit
for bit, in min-sum and tanh (exact=True) modes.  The node-update hand values
check the reference itself.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sc_oracle
from beaconphy import polar_codec
from beaconphy.polar_codec import encode_nspe, sc_decode
from beaconphy.polar_construction import PolarSpec, construct

MODES = (False, True)


def assert_matches_oracle(spec, llr, exact):
    got = sc_decode(spec, llr, exact=exact)
    want = sc_oracle.sc_decode(spec.info_mask(), llr, exact=exact)
    assert got.dtype == np.uint8 and got.shape == want.shape
    bad = np.flatnonzero((got != want).reshape(-1, spec.K).any(axis=1))
    assert bad.size == 0, f"({spec.N},{spec.K}) exact={exact}: rows {bad[:10]} differ"


def awgn_llr(spec, rng, frames, sigma):
    msgs = rng.integers(0, 2, (frames, spec.K), dtype=np.uint8)
    y = 1.0 - 2.0 * encode_nspe(spec, msgs) + rng.normal(0.0, sigma, (frames, spec.N))
    return 2.0 * y / sigma**2


def test_check_node_hand_values():
    assert sc_oracle.check_node(2.0, -3.0) == -2.0
    assert sc_oracle.check_node(-1.0, -4.0) == 1.0
    assert sc_oracle.check_node(0.0, 5.0) == 0.0


def test_check_node_exact_matches_logarithmic_form():
    # Boxplus identity: ln((1 + e^(a+b)) / (e^a + e^b)).
    rng = np.random.default_rng(47)
    for _ in range(200):
        a, b = rng.normal(0, 2, 2)
        want = math.log((1.0 + math.exp(a + b)) / (math.exp(a) + math.exp(b)))
        assert sc_oracle.check_node_exact(a, b) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_check_node_exact_saturates_to_min_sum():
    # tanh saturates in float64 around |x| = 38, so agreement is approximate.
    a, b = 30.0, -40.0
    assert sc_oracle.check_node_exact(a, b) == pytest.approx(sc_oracle.check_node(a, b), rel=1e-4)
    assert sc_oracle.check_node_exact(np.inf, -5.0) == pytest.approx(-5.0, rel=1e-12)


def test_variable_node_hand_values():
    assert sc_oracle.variable_node(1.5, 2.0, 0) == 3.5
    assert sc_oracle.variable_node(1.5, 2.0, 1) == 0.5
    assert sc_oracle.variable_node(-2.0, 1.0, 1) == 3.0


def test_oracle_decodes_noiseless_codewords():
    spec = construct(32, 20)
    msgs = np.random.default_rng(3).integers(0, 2, (50, 20), dtype=np.uint8)
    llr = np.where(encode_nspe(spec, msgs) == 0, np.inf, -np.inf)
    for exact in MODES:
        assert np.array_equal(sc_oracle.sc_decode(spec.info_mask(), llr, exact=exact), msgs)


@pytest.mark.parametrize("exact", MODES)
def test_every_small_code(exact):
    # Every (N, K) with N <= 64, with the constructed info set and a random
    # one; the LLRs hold exact zeros and small integers, so ties also arise
    # inside the tree (b - a == 0 in a g step).
    rng = np.random.default_rng(101)
    for n in range(7):
        N = 1 << n
        for K in range(1, N + 1):
            info = tuple(sorted(rng.choice(N, K, replace=False).tolist()))
            for spec in (construct(N, K), PolarSpec(n=n, N=N, K=K, eps=0.5, info_set=info)):
                llr = rng.normal(0.0, 2.0, (12, N))
                llr[rng.random(llr.shape) < 0.1] = 0.0
                llr[:4] = rng.integers(-2, 3, (4, N))
                assert_matches_oracle(spec, llr, exact)


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("N,K", [(256, 158), (1024, 512)])
def test_long_codes_at_three_snrs(N, K, exact):
    spec = construct(N, K)
    rng = np.random.default_rng(N + K)
    for sigma in (0.5, 0.7, 1.0):
        assert_matches_oracle(spec, awgn_llr(spec, rng, 150, sigma), exact)


@pytest.mark.parametrize("exact", MODES)
def test_random_exact_zeros_and_all_zero_row(exact):
    spec = construct(256, 158)
    rng = np.random.default_rng(211)
    llr = awgn_llr(spec, rng, 200, 0.7)
    for row, p in enumerate(np.linspace(0.001, 0.5, 200)):
        llr[row, rng.random(spec.N) < p] = 0.0
    llr[0] = 0.0
    llr[1] = -0.0
    assert_matches_oracle(spec, llr, exact)
    assert not sc_decode(spec, np.zeros(spec.N), exact=exact).any()
    # NaN channel LLRs: scattered NaNs decide as plain SC does, an all-NaN row 0.
    llr = awgn_llr(spec, rng, 200, 0.7)
    for row, p in enumerate(np.linspace(0.001, 0.5, 200)):
        llr[row, rng.random(spec.N) < p] = np.nan
    assert_matches_oracle(spec, llr, exact)
    assert not sc_decode(spec, np.full(spec.N, np.nan), exact=exact).any()


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("N,K", [(64, 40), (256, 158), (1024, 512)])
def test_noiseless_infinite_codewords(N, K, exact):
    spec = construct(N, K)
    msgs = np.random.default_rng(307).integers(0, 2, (100, K), dtype=np.uint8)
    llr = np.where(encode_nspe(spec, msgs) == 0, np.inf, -np.inf)
    assert_matches_oracle(spec, llr, exact)
    assert np.array_equal(sc_decode(spec, llr, exact=exact), msgs)


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("N,K", [(64, 40), (256, 158), (1024, 512)])
def test_infinite_non_codewords(N, K, exact):
    # Hard words off the code give inf - inf = NaN inside the tree: the
    # beaconphy decode path on a corrupted word.
    spec = construct(N, K)
    rng = np.random.default_rng(401)
    llr = np.where(rng.random((400, N)) < 0.5, np.inf, -np.inf)
    llr[:50] = np.where(rng.random((50, N)) < 0.05, -np.inf, np.inf)
    assert_matches_oracle(spec, llr, exact)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-60])
def test_exact_mode_at_small_llr_scales(scale):
    # At 1e-60 the tanh check node underflows to 0 deep in the tree.
    for N, K in ((64, 40), (256, 158)):
        spec = construct(N, K)
        llr = scale * awgn_llr(spec, np.random.default_rng(503), 200, 0.8)
        assert_matches_oracle(spec, llr, True)
        assert_matches_oracle(spec, llr, False)


@pytest.mark.parametrize("exact", MODES)
def test_single_vector_calls_match_batch(exact):
    spec = construct(256, 158)
    rng = np.random.default_rng(601)
    llr = awgn_llr(spec, rng, 30, 0.9)
    llr[5, ::7] = 0.0
    llr[6] = np.where(rng.random(spec.N) < 0.5, np.inf, -np.inf)
    batch = sc_decode(spec, llr, exact=exact)
    for row in range(len(llr)):
        single = sc_decode(spec, llr[row], exact=exact)
        assert single.shape == (spec.K,) and np.array_equal(single, batch[row])
    assert sc_decode(spec, llr[:0], exact=exact).shape == (0, spec.K)


# --- repetition and single-parity-check nodes -----------------------------------
# sc_decode decides a whole repetition node (only its last position is info)
# from the sum of its LLRs, and under min-sum a whole single-parity-check node
# (only its first position frozen) by Wagner's rule when every frame's least
# |LLR| is nonzero and unique.  The (N, 1) and (N, N-1) codes below are one
# such node at the root.

NODE_SIZES = (4, 8, 16, 32, 64)


def spc_spec(N):
    return PolarSpec(n=N.bit_length() - 1, N=N, K=N - 1, eps=0.5, info_set=tuple(range(1, N)))


def rep_spec(N):
    return PolarSpec(n=N.bit_length() - 1, N=N, K=1, eps=0.5, info_set=(N - 1,))


def wagner(llr):
    """Hard decisions, with the least reliable bit of each odd-weight row flipped."""
    hard = (llr < 0).astype(np.uint8)
    rows = np.arange(len(llr))
    hard[rows, np.abs(llr).argmin(axis=1)] ^= hard.sum(axis=1, dtype=np.uint8) & 1
    return hard


def tie_free(rng, frames, N):
    llr = rng.normal(0.0, 2.0, (frames, N))
    least_two = np.sort(np.abs(llr), axis=1)[:, :2]
    assert (least_two[:, 0] > 0).all() and (least_two[:, 0] < least_two[:, 1]).all()
    return llr


TIE_KINDS = ("shared least", "zero", "nan", "hard inf word", "some inf")


def with_ties(rng, frames, N, kind):
    """Rows of one kind: a least |LLR| shared, zero, NaN or infinite.

    Every row of a batch has the kind, so each batch tests the guard on its
    own; "some inf" rows keep a unique finite least |LLR|.
    """
    llr = rng.normal(0.0, 2.0, (frames, N))
    for row in llr:
        i, j = rng.choice(N, 2, replace=False)
        if kind == "shared least":  # signs at random
            row[[i, j]] = rng.choice((-1.0, 1.0), 2) * np.abs(row).min() / 2
        elif kind == "zero":
            row[i] = rng.choice((0.0, -0.0))
        elif kind == "nan":
            row[i] = np.nan
        elif kind == "hard inf word":  # every magnitude tied
            row[:] = np.where(row < 0, -np.inf, np.inf)
        else:
            row[rng.random(N) < 0.5] *= np.inf
    return llr


@pytest.mark.parametrize("N", NODE_SIZES)
def test_spc_codes_decide_by_wagners_rule(N):
    spec = spc_spec(N)
    llr = tie_free(np.random.default_rng(700 + N), 400, N)
    codewords = encode_nspe(spec, sc_decode(spec, llr))
    want = wagner(llr)
    assert want.sum(axis=1).max() > 0 and not (want.sum(axis=1) % 2).any()
    assert np.array_equal(codewords, want)
    assert np.array_equal(encode_nspe(spec, sc_oracle.sc_decode(spec.info_mask(), llr)), want)
    assert_matches_oracle(spec, llr, True)


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("N", NODE_SIZES)
def test_rep_codes_decide_by_the_llr_sum(N, exact):
    # Integer LLRs sum exactly in any order, and zero sums occur; an inf of
    # each sign makes the sum NaN, which decides 0 as LLR 0 does.
    spec = rep_spec(N)
    rng = np.random.default_rng(800 + N)
    llr = rng.integers(-6, 7, (600, N)).astype(np.float64)
    llr[:40, 0] = np.inf
    llr[20:60, 1] = -np.inf
    llr[60:80] = np.where(rng.random((20, N)) < 0.5, np.inf, -np.inf)
    with np.errstate(invalid="ignore"):
        total = llr.sum(axis=1)
    assert (total < 0).any() and (total == 0).any() and np.isnan(total).any()
    assert np.array_equal(sc_decode(spec, llr, exact=exact), (total < 0).astype(np.uint8)[:, None])
    assert_matches_oracle(spec, llr, exact)


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("N", NODE_SIZES)
def test_spc_and_rep_codes_with_ties_zeros_nan_and_inf(N, exact):
    rng = np.random.default_rng(900 + N)
    for spec in (spc_spec(N), rep_spec(N)):
        for kind in TIE_KINDS:
            assert_matches_oracle(spec, with_ties(rng, 60, N, kind), exact)
        # Integer LLRs: ties inside the tree too, on the f and g values.
        assert_matches_oracle(spec, rng.integers(-3, 4, (300, N)).astype(np.float64), exact)


@pytest.mark.parametrize("exact", MODES)
def test_one_tied_frame_in_a_batch_matches_single_frame_decodes(exact):
    rng = np.random.default_rng(1000)
    for spec in (spc_spec(64), construct(256, 158)):
        llr = tie_free(rng, 25, spec.N)
        weak = np.abs(llr[7]).argmin()
        llr[7, (weak + 1) % spec.N] = -llr[7, weak]
        batch = sc_decode(spec, llr, exact=exact)
        for row in range(len(llr)):
            assert np.array_equal(sc_decode(spec, llr[row], exact=exact), batch[row])
        assert_matches_oracle(spec, llr, exact)


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("N", NODE_SIZES)
def test_nan_frames_beside_tied_frames(N, exact):
    # A NaN frame has no position at its (NaN) least |LLR| and a tied frame
    # has two, so this batch holds one per frame on average: only the NaN
    # itself can send the node into its halves.
    spec = spc_spec(N)
    rng = np.random.default_rng(1100 + N)
    llr = tie_free(rng, 40, N)
    for row in llr[0::2]:
        row[rng.integers(N)] = np.nan
    for row in llr[1::2]:
        weak = np.abs(row).argmin()
        row[(weak + 1 + rng.integers(N - 1)) % N] = -row[weak]
    assert_matches_oracle(spec, llr, exact)
    batch = sc_decode(spec, llr, exact=exact)
    for row in range(len(llr)):
        assert np.array_equal(sc_decode(spec, llr[row], exact=exact), batch[row])


# --- compiled plans and pooled workspaces ------------------------------------------
# sc_decode compiles one plan per (spec, exact, batch size) onto a workspace of
# its own, pools the workspaces, and builds a guarded node's split the first
# time its guard fails.


def awkward_frames(spec, rng):
    """One frame each with exact zeros, a NaN, every magnitude tied (a noiseless
    finite codeword, so the least |LLR| at every parity-check node is shared)
    and a hard +-inf non-codeword.  Every frame fails some node's guard: the
    zeros sit one in each 16-position block, so that f and g steps alike
    carry a zero down to every node of 16 positions or more."""
    zero, nan = awgn_llr(spec, rng, 2, 0.7)
    zero[rng.integers(16) :: 16] = 0.0
    nan[rng.integers(spec.N)] = np.nan
    tied = 3.0 * (1.0 - 2.0 * encode_nspe(spec, rng.integers(0, 2, spec.K, dtype=np.uint8)))
    hard = np.where(rng.random(spec.N) < 0.5, np.inf, -np.inf)
    return np.array([zero, nan, tied, hard])


@pytest.mark.parametrize("exact", MODES)
@pytest.mark.parametrize("batch", [1, 3])
def test_lazy_splits_match_the_oracle_before_and_after_they_are_built(batch, exact):
    spec = construct(256, 158)
    rng = np.random.default_rng(1200 + batch)
    polar_codec._pool.cache_clear()  # fresh plans: no split is built yet
    awkward = awkward_frames(spec, rng)
    frames = np.concatenate([awgn_llr(spec, rng, batch, 0.6), awkward, awkward[::-1],
                             awgn_llr(spec, rng, 4 * batch, 0.6)])
    for lo in range(0, len(frames) - batch + 1, batch):
        assert_matches_oracle(spec, frames[lo : lo + batch], exact)


def test_batch_sizes_in_turn_match_the_oracle():
    spec = construct(256, 158)
    rng = np.random.default_rng(1300)
    for exact in MODES:
        for batch in (0, 1, 3, 1):
            assert_matches_oracle(spec, awgn_llr(spec, rng, batch, 0.8), exact)


def test_results_are_not_views_of_the_workspace():
    spec = construct(256, 158)
    llr = awgn_llr(spec, np.random.default_rng(1400), 4, 0.6)
    for first, second in ((llr[0], -llr[0]), (llr[:2], -llr[2:])):
        got = sc_decode(spec, first)
        kept = got.copy()
        assert not np.array_equal(sc_decode(spec, second), kept)
        assert np.array_equal(got, kept)


def test_threads_decoding_at_one_batch_size_match_sequential_decodes():
    spec = construct(256, 158)
    rng = np.random.default_rng(1500)
    inputs = [awgn_llr(spec, rng, 20, 0.6) for _ in range(4)]  # one thread each
    inputs[1][::3] = awkward_frames(spec, rng)[rng.integers(4, size=7)]
    want = [[sc_decode(spec, frame) for frame in llr] for llr in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(inputs)) as pool:
            futures = [pool.submit(lambda llr: [sc_decode(spec, frame) for frame in llr], llr)
                       for llr in inputs]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for thread_got, thread_want in zip(got, want):
        assert np.array_equal(np.array(thread_got), np.array(thread_want))
