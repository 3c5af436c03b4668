"""Codec tests: transform algebra, encoders, SC decoding."""

import numpy as np
import pytest

from beaconphy.polar_codec import (
    encode_nspe,
    encode_systematic,
    polar_transform,
    sc_decode,
)
from beaconphy.polar_construction import construct


def kron_generator(n):
    """F^(kron n) built directly from numpy's kron, as an independent oracle."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        g = np.kron(g, f)
    return g


def all_messages(k):
    """All 2**k bit vectors as a (2**k, k) array, index 0 first."""
    grid = np.arange(1 << k, dtype=np.uint32)[:, None] >> np.arange(k)[None, :]
    return (grid & 1).astype(np.uint8)


def test_transform_length_one_is_identity():
    assert polar_transform([0]).tolist() == [0]
    assert polar_transform([1]).tolist() == [1]


def test_transform_length_two_formula():
    # (d0, d1) -> (d0 xor d1, d1)
    assert polar_transform([0, 0]).tolist() == [0, 0]
    assert polar_transform([1, 0]).tolist() == [1, 0]
    assert polar_transform([0, 1]).tolist() == [1, 1]
    assert polar_transform([1, 1]).tolist() == [0, 1]


def test_transform_length_four_unit_vectors():
    # Rows of the order-4 generator: unit vector i maps to row i.
    assert polar_transform([1, 0, 0, 0]).tolist() == [1, 0, 0, 0]
    assert polar_transform([0, 1, 0, 0]).tolist() == [1, 1, 0, 0]
    assert polar_transform([0, 0, 1, 0]).tolist() == [1, 0, 1, 0]
    assert polar_transform([0, 0, 0, 1]).tolist() == [1, 1, 1, 1]


def test_transform_matches_kron_matrix():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        N = 1 << n
        g = kron_generator(n)
        d = (rng.random((32, N)) < 0.5).astype(np.uint8)
        assert np.array_equal(polar_transform(d), (d @ g) % 2)


def test_transform_involution_and_linearity():
    rng = np.random.default_rng(29)
    x = (rng.random((1000, 64)) < 0.5).astype(np.uint8)
    y = (rng.random((1000, 64)) < 0.5).astype(np.uint8)
    assert np.array_equal(polar_transform(polar_transform(x)), x)
    assert np.array_equal(
        polar_transform(x ^ y), polar_transform(x) ^ polar_transform(y)
    )


def test_transform_does_not_mutate_input():
    v = np.array([1, 0, 1, 1], dtype=np.uint8)
    polar_transform(v)
    assert v.tolist() == [1, 0, 1, 1]


def test_transform_validation():
    with pytest.raises(ValueError):
        polar_transform([0, 1, 1])
    with pytest.raises(ValueError):
        polar_transform([])
    with pytest.raises(ValueError):
        polar_transform([0, 2])


def test_encode_nspe_places_message_then_transforms():
    spec = construct(16, 8)
    rng = np.random.default_rng(31)
    msg = (rng.random(8) < 0.5).astype(np.uint8)
    d = np.zeros(16, dtype=np.uint8)
    d[spec.info_indices()] = msg
    assert np.array_equal(encode_nspe(spec, msg), polar_transform(d))


def test_encode_batch_matches_single():
    spec = construct(32, 20)
    rng = np.random.default_rng(37)
    msgs = (rng.random((10, 20)) < 0.5).astype(np.uint8)
    batch = encode_nspe(spec, msgs)
    for i in range(10):
        assert np.array_equal(batch[i], encode_nspe(spec, msgs[i]))


def test_encode_validation():
    spec = construct(8, 4)
    with pytest.raises(ValueError):
        encode_nspe(spec, [1, 0, 1])
    with pytest.raises(ValueError):
        encode_nspe(spec, [1, 0, 2, 0])


def test_systematic_restriction_is_message():
    spec = construct(64, 40)
    rng = np.random.default_rng(41)
    msgs = (rng.random((50, 40)) < 0.5).astype(np.uint8)
    x = encode_systematic(spec, msgs)
    assert np.array_equal(x[:, spec.info_indices()], msgs)


def test_systematic_output_is_a_codeword():
    # Valid codewords have zero frozen coordinates after the inverse
    # transform, which equals the transform itself.
    spec = construct(64, 40)
    rng = np.random.default_rng(43)
    msgs = (rng.random((50, 40)) < 0.5).astype(np.uint8)
    d = polar_transform(encode_systematic(spec, msgs))
    assert not d[:, ~spec.info_mask()].any()


def test_systematic_exhaustive_small_code():
    spec = construct(8, 4)
    msgs = all_messages(4)
    x = encode_systematic(spec, msgs)
    assert np.array_equal(x[:, spec.info_indices()], msgs)
    d = polar_transform(x)
    assert not d[:, ~spec.info_mask()].any()
    # 16 distinct codewords: the encoder is injective.
    assert len({tuple(row) for row in x}) == 16


def test_sc_decode_noiseless_roundtrip():
    spec = construct(64, 32)
    rng = np.random.default_rng(53)
    msgs = (rng.random((64, 32)) < 0.5).astype(np.uint8)
    x = encode_nspe(spec, msgs)
    llr = np.where(x == 0, np.inf, -np.inf)
    assert np.array_equal(sc_decode(spec, llr), msgs)


def test_sc_decode_single_vector_shape():
    spec = construct(16, 9)
    msg = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    x = encode_nspe(spec, msg)
    llr = np.where(x == 0, np.inf, -np.inf)
    out = sc_decode(spec, llr)
    assert out.shape == (9,)
    assert np.array_equal(out, msg)


def test_sc_decode_exact_update_roundtrip():
    spec = construct(32, 16)
    rng = np.random.default_rng(59)
    msgs = (rng.random((16, 16)) < 0.5).astype(np.uint8)
    x = encode_nspe(spec, msgs)
    llr = np.where(x == 0, np.inf, -np.inf)
    assert np.array_equal(sc_decode(spec, llr, exact=True), msgs)


def test_sc_decode_finite_llr_roundtrip():
    spec = construct(32, 16)
    rng = np.random.default_rng(61)
    msgs = (rng.random((16, 16)) < 0.5).astype(np.uint8)
    x = encode_nspe(spec, msgs)
    assert np.array_equal(sc_decode(spec, 4.0 * (1.0 - 2.0 * x)), msgs)


def test_sc_decode_validation():
    spec = construct(16, 8)
    with pytest.raises(ValueError):
        sc_decode(spec, np.zeros(15))


def test_sc_decode_corrects_light_noise():
    # A few weak coordinates must not break decoding when the rest are
    # strongly correct; flip confidence on two frozen-heavy positions.
    spec = construct(64, 32)
    rng = np.random.default_rng(67)
    msgs = (rng.random((32, 32)) < 0.5).astype(np.uint8)
    x = encode_nspe(spec, msgs)
    llr = 8.0 * (1.0 - 2.0 * x.astype(np.float64))
    llr[:, 0] = 0.3
    llr[:, 1] = -0.3
    assert np.array_equal(sc_decode(spec, llr), msgs)


def test_constructed_info_set_beats_complement():
    # Same channel realizations, decoder with the constructed set versus a
    # code using the least reliable positions: the former must do strictly
    # better on moderately noisy frames.
    N, K = 64, 32
    good = construct(N, K)
    from beaconphy.polar_construction import PolarSpec, bhattacharyya_profile

    z = bhattacharyya_profile(6, 0.5)
    worst = tuple(sorted(sorted(range(N), key=lambda i: (z[i], -i))[-K:]))
    bad = PolarSpec(n=6, N=N, K=K, eps=0.5, info_set=worst)

    rng = np.random.default_rng(71)
    errs = {}
    for spec in (good, bad):
        msgs = (rng.random((400, K)) < 0.5).astype(np.uint8)
        x = encode_nspe(spec, msgs).astype(np.float64)
        y = x + np.random.default_rng(73).normal(0.0, 0.45, x.shape)
        hat = sc_decode(spec, 2.0 * (1.0 - 2.0 * y) / (2 * 0.45**2))
        errs[spec is good] = int((hat != msgs).sum())
    assert errs[True] < errs[False]


def kron_encodings(spec, msgs):
    """(nspe, systematic) codewords of a (..., K) message array by d @ G % 2 alone."""
    g = kron_generator(spec.n).astype(np.int64)
    d = np.zeros(msgs.shape[:-1] + (spec.N,), dtype=np.int64)
    d[..., spec.info_indices()] = msgs
    nspe = d @ g % 2
    v = nspe.copy()
    v[..., ~spec.info_mask()] = 0
    return nspe.astype(np.uint8), (v @ g % 2).astype(np.uint8)


def layouts(rng, shape):
    """The same random bits of the given shape as differently laid out arrays."""
    base = (rng.random(shape[:-1] + (2 * shape[-1],)) < 0.5).astype(np.uint8)
    c = np.ascontiguousarray(base[..., ::2])
    return {
        "C": c,
        "fortran": np.asfortranarray(c),
        "strided": base[..., ::2],
        "transposed": np.ascontiguousarray(c.T).T,
        "bool": c.astype(bool),
    }


SHAPES = [(), (7,), (1,), (3, 5), (0,)]  # leading shapes: one vector, batch, one frame, 3-D, empty


@pytest.mark.parametrize("lead", SHAPES)
def test_transform_and_encoders_match_kron_oracle_in_every_layout(lead):
    spec = construct(64, 40)
    g = kron_generator(6).astype(np.int64)
    rng = np.random.default_rng(79)
    for name, msgs in layouts(rng, lead + (40,)).items():
        before = msgs.copy()
        nspe, syst = kron_encodings(spec, msgs)
        for got, want in ((encode_nspe(spec, msgs), nspe), (encode_systematic(spec, msgs), syst),
                          (polar_transform(nspe), (nspe @ g % 2).astype(np.uint8))):
            assert got.dtype == np.uint8 and got.flags.c_contiguous, name
            assert got.shape == lead + (64,), name
            assert np.array_equal(got, want), name
        assert np.array_equal(msgs, before), name
    for name, bits in layouts(rng, lead + (64,)).items():
        assert np.array_equal(polar_transform(bits), (bits @ g % 2).astype(np.uint8)), name


def test_sc_decode_returns_c_order_batch_equal_to_single_decodes():
    spec = construct(64, 32)
    rng = np.random.default_rng(89)
    msgs = (rng.random((20, 32)) < 0.5).astype(np.uint8)
    x = encode_nspe(spec, msgs).astype(np.float64)
    llr = 2.0 * (1.0 - 2.0 * (x + rng.normal(0.0, 0.5, x.shape))) / 0.25
    for arr in (llr, np.asfortranarray(llr), llr[:1], llr[:0]):
        out = sc_decode(spec, arr)
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        assert out.shape == (len(arr), 32)
        singles = [sc_decode(spec, row) for row in arr]
        assert all(s.shape == (32,) and s.flags.c_contiguous for s in singles)
        assert np.array_equal(out, np.array(singles, dtype=np.uint8).reshape(-1, 32))
