"""The table-driven RS codec and the batched RsLink against the scalar oracle.

rs_oracle.py is the earlier scalar encoder and decoder with its own GF(16)
tables; it shares no code with beaconphy.reed_solomon.
"""

import numpy as np
import pytest

import rs_oracle
from beaconphy import reed_solomon
from beaconphy.analysis import RsLink
from beaconphy.channel import ChannelParams
from beaconphy.reed_solomon import _ONE_ERROR, _ONE_SYN, _PAIRS, RsSpec, rs_decode, rs_encode

KS = (11, 7, 3)
CODEWORDS = 3000
RANDOM_WORDS = 1000


def _received_words(k: int, seed: int) -> np.ndarray:
    """Codewords with 0..9 random symbol errors, then uniform random words."""
    rng = np.random.default_rng(seed)
    spec = rs_oracle.RsSpec(k)
    words = []
    for _ in range(CODEWORDS):
        cw = rs_oracle.rs_encode(spec, rng.integers(0, 16, k))
        nerr = int(rng.integers(0, 10))
        pos = rng.choice(15, nerr, replace=False)
        cw[pos] ^= rng.integers(1, 16, nerr).astype(np.uint8)
        words.append(cw)
    words = np.array(words, dtype=np.uint8)
    return np.concatenate([words, rng.integers(0, 16, (RANDOM_WORDS, 15), dtype=np.uint8)])


def _record_core(monkeypatch):
    """Log (word, packed syndromes) for each word rs_decode sends to a core:
    seen["scalar"] for _correct, seen["array"] for _correct_batch."""
    seen = {"scalar": [], "array": []}
    scalar, array = reed_solomon._correct, reed_solomon._correct_batch

    def recording_scalar(spec, word, packed):
        seen["scalar"].append((tuple(word), packed))
        return scalar(spec, word, packed)

    def recording_array(spec, words, packed):
        seen["array"].extend(zip(map(tuple, words.tolist()), packed.tolist()))
        return array(spec, words, packed)

    monkeypatch.setattr(reed_solomon, "_correct", recording_scalar)
    monkeypatch.setattr(reed_solomon, "_correct_batch", recording_array)
    return seen


def _in_calls(decode, words, step):
    """decode(words) made `step` words at a time, its outputs concatenated."""
    parts = [decode(words[i : i + step]) for i in range(0, len(words), step)]
    return tuple(np.concatenate(out) for out in zip(*parts))


SMALL = reed_solomon._ARRAY_MIN - 1  # words per call, so no call holds _ARRAY_MIN misses


@pytest.mark.parametrize("k", KS)
def test_decode_and_screen_agree_with_oracle(k, monkeypatch):
    spec, ref_spec = RsSpec(k), rs_oracle.RsSpec(k)
    words = _received_words(k, 1000 + k)
    seen = _record_core(monkeypatch)
    # in one batch the misses reach the array core; in small calls, the scalar core
    msgs, failed = rs_decode(spec, words)
    assert not seen["scalar"]
    small = _in_calls(lambda w: rs_decode(spec, w), words, SMALL)
    assert msgs.dtype == small[0].dtype == np.uint8
    # each core gets the oracle's syndromes, and only for dirty words; RS(15, 11)
    # calls neither, as its pair table holds every pattern within t = 2
    assert seen["array"] == seen["scalar"]
    assert not seen["array"] if k == 11 else len(seen["array"]) > 50
    for word, packed in seen["array"]:
        assert packed == _packed_syndromes(k, word) != 0, word
    outcomes = {"clean": 0, "corrected": 0, "failed": 0}
    for word, got, lost, got_small, lost_small in zip(words, msgs, failed, *small):
        ref = rs_oracle.rs_decode(ref_spec, word)
        assert lost_small == lost and np.array_equal(got_small, got), word
        if ref is None:
            assert lost and not got.any(), word
            outcomes["failed"] += 1
        else:
            assert not lost and np.array_equal(got, ref), word
            flag = rs_oracle.has_nonzero_syndrome(ref_spec, word)
            outcomes["corrected" if flag else "clean"] += 1
    # every branch of the decoder is exercised
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize("k", KS)
def test_batched_encode_matches_oracle(k):
    rng = np.random.default_rng(2000 + k)
    msgs = rng.integers(0, 16, (40, 6, k))
    got = rs_encode(RsSpec(k), msgs)
    assert got.shape == (40, 6, 15) and got.dtype == np.uint8
    ref_spec = rs_oracle.RsSpec(k)
    for f in range(40):
        for b in range(6):
            assert np.array_equal(got[f, b], rs_oracle.rs_encode(ref_spec, msgs[f, b]))


@pytest.mark.parametrize("k", KS)
def test_encode_matches_oracle_on_every_single_symbol_message(k):
    # every entry of the codeword-image table, one message symbol at a time
    msgs = np.zeros((k, 16, k), dtype=np.uint8)
    msgs[np.arange(k), :, np.arange(k)] = np.arange(16)
    got = rs_encode(RsSpec(k), msgs)
    ref_spec = rs_oracle.RsSpec(k)
    for j in range(k):
        for s in range(16):
            assert np.array_equal(got[j, s], rs_oracle.rs_encode(ref_spec, msgs[j, s])), (j, s)


def test_batched_encode_validation():
    spec = RsSpec(7)
    with pytest.raises(ValueError):
        rs_encode(spec, np.zeros((4, 3, 6), dtype=np.uint8))
    with pytest.raises(ValueError):
        rs_encode(spec, np.full((4, 7), 16))
    with pytest.raises(ValueError):
        rs_encode(spec, np.full((4, 7), -1))
    with pytest.raises(ValueError):
        rs_decode(spec, np.zeros((2, 14), dtype=np.uint8))


def _oracle_link_decode(k: int, y: np.ndarray):
    """Per-block scalar decoding with the packing written out independently."""
    spec = rs_oracle.RsSpec(k)
    hard = (y > 0.5).astype(np.int64)
    syms = hard.reshape(len(y), -1, 4) @ np.array([8, 4, 2, 1])
    blocks = syms.shape[1] // 15
    msg_syms = np.zeros((len(y), blocks * k), dtype=np.int64)
    failed = np.zeros(len(y), dtype=bool)
    for f in range(len(y)):
        for b in range(blocks):
            dec = rs_oracle.rs_decode(spec, syms[f, b * 15 : (b + 1) * 15])
            if dec is None:
                failed[f] = True
            else:
                msg_syms[f, b * k : (b + 1) * k] = dec
    bits = (msg_syms[..., None] >> np.array([3, 2, 1, 0])) & 1
    return bits.reshape(len(y), -1).astype(np.uint8), failed


@pytest.mark.parametrize("k", KS)
def test_rs_link_decode_matches_oracle_loop(k):
    link = RsLink(k)
    params = ChannelParams.from_ebn0_db(12.0, link.rate)
    rng = np.random.default_rng(3000 + k)
    msgs = rng.integers(0, 2, (150, link.frame_bits), dtype=np.uint8)
    tx = link.encode(msgs)
    y = tx + rng.normal(0.0, params.sigma, tx.shape)
    hat, failed = link.decode(y, params)
    ref_hat, ref_failed = _oracle_link_decode(k, y)
    assert np.array_equal(failed, ref_failed)
    assert np.array_equal(hat, ref_hat[:, : link.frame_bits])
    # 12 dB is below every crossing: some frames fail, yet blocks still decode
    assert failed.any() and hat.any()


def _oracle_link_encode(link: RsLink, msgs: np.ndarray) -> np.ndarray:
    """Per-block scalar encoding with the packing written out independently."""
    spec = rs_oracle.RsSpec(link.spec.k)
    padded = np.zeros((len(msgs), link.padded_symbols * 4), dtype=np.int64)
    padded[:, : link.frame_bits] = msgs
    syms = padded.reshape(len(msgs), link.blocks, link.spec.k, 4) @ np.array([8, 4, 2, 1])
    words = np.array([[rs_oracle.rs_encode(spec, block) for block in frame] for frame in syms])
    bits = (words[..., None] >> np.array([3, 2, 1, 0])) & 1
    return bits.reshape(len(msgs), -1).astype(np.uint8)


@pytest.mark.parametrize("k, frame_bits", [(7, 140), (11, 44), (3, 10)])
def test_rs_link_matches_oracle_loop_when_tx_bits_are_not_whole_bytes(k, frame_bits):
    # 300, 60 and 60 transmitted bits: each row ends half-way through a byte
    link = RsLink(k, frame_bits=frame_bits)
    assert link.tx_bits % 8 == 4
    params = ChannelParams.from_ebn0_db(10.0, link.rate)
    rng = np.random.default_rng(4000 + frame_bits)
    msgs = rng.integers(0, 2, (300, frame_bits), dtype=np.uint8)
    tx = link.encode(msgs)
    assert np.array_equal(tx, _oracle_link_encode(link, msgs))
    y = tx + rng.normal(0.0, params.sigma, tx.shape)
    hat, failed = link.decode(y, params)
    ref_hat, ref_failed = _oracle_link_decode(k, y)
    assert np.array_equal(failed, ref_failed)
    assert np.array_equal(hat, ref_hat[:, :frame_bits])
    assert failed.any() and hat.any() and not failed.all()


def _assert_same_as_oracle(k, words):
    ref_spec = rs_oracle.RsSpec(k)
    msgs, failed = rs_decode(RsSpec(k), np.array(words))
    for word, got, lost in zip(words, msgs, failed):
        ref = rs_oracle.rs_decode(ref_spec, word)
        if ref is None:
            assert lost and not got.any(), word
        else:
            assert not lost and np.array_equal(got, ref), word


@pytest.mark.parametrize("k", KS)
def test_every_single_error_matches_oracle(k):
    # each of the 15 x 15 one-error patterns, parity positions included, on
    # the zero codeword and on random codewords; all of them are corrected
    rng = np.random.default_rng(4000 + k)
    ref_spec = rs_oracle.RsSpec(k)
    msgs = [np.zeros(k, dtype=np.int64)] + [rng.integers(0, 16, k) for _ in range(3)]
    for msg in msgs:
        cw = rs_oracle.rs_encode(ref_spec, msg)
        words = []
        for pos in range(15):
            for err in range(1, 16):
                word = cw.copy()
                word[pos] ^= err
                words.append(word)
        _assert_same_as_oracle(k, words)
        got, failed = rs_decode(RsSpec(k), np.array(words))
        assert not failed.any() and (got == msg).all()


def _syndromes(k, word):
    return [rs_oracle._eval_desc([int(s) for s in word], rs_oracle._EXP[m])
            for m in range(1, 16 - k)]


def _packed_syndromes(k, word):
    return sum(s << 4 * j for j, s in enumerate(_syndromes(k, word)))


def _geometric_prefix(synd):
    """Length of the longest prefix S_1 .. S_m of nonzero syndromes with one log ratio."""
    logs = []
    for s in synd:
        if s == 0:
            break
        logs.append(rs_oracle._LOG[s])
    ratios = [(b - a) % 15 for a, b in zip(logs, logs[1:])]
    m = 1 if logs else 0
    while m < len(logs) and ratios[m - 1] == ratios[0]:
        m += 1
    return m


@pytest.mark.parametrize("k", KS)
def test_near_single_error_syndromes_match_oracle(k):
    # words that look like one error for the first few syndromes only, and
    # words with exactly one zero syndrome, from random and two-error words
    rng = np.random.default_rng(5000 + k)
    ref_spec = rs_oracle.RsSpec(k)
    nsyn = 15 - k
    words = list(rng.integers(0, 16, (1500, 15), dtype=np.uint8))
    for _ in range(1500):
        word = rs_oracle.rs_encode(ref_spec, rng.integers(0, 16, k))
        pos = rng.choice(15, 2, replace=False)
        word[pos] ^= rng.integers(1, 16, 2).astype(np.uint8)
        words.append(word)
    prefix, one_zero = [], []
    for word in words:
        synd = _syndromes(k, word)
        if 3 <= _geometric_prefix(synd) < nsyn:
            prefix.append(word)
        if synd.count(0) == 1:
            one_zero.append(word)
    assert prefix and one_zero, (len(prefix), len(one_zero))
    _assert_same_as_oracle(k, prefix + one_zero)


def _error_patterns() -> np.ndarray:
    """All 225 one-error and 23,625 two-error words of length 15."""
    singles = [(p, e) for p in range(15) for e in range(1, 16)]
    patterns = np.zeros((225 + 23625, 15), dtype=np.uint8)
    for i, (p, e) in enumerate(singles):
        patterns[i, p] = e
    i = 225
    for a, (p1, e1) in enumerate(singles):
        for p2, e2 in singles[a + 1:]:
            if p2 != p1:
                patterns[i, [p1, p2]] = e1, e2
                i += 1
    assert i == len(patterns)
    return patterns


def _bits(words) -> np.ndarray:
    """Symbols to OOK intensities, most significant bit first, written out independently."""
    bits = (np.asarray(words, dtype=np.int64)[..., None] >> np.array([3, 2, 1, 0])) & 1
    return bits.reshape(len(words), -1).astype(np.float64)


def _decode_one_block_frames(k, words, step):
    """RsLink(k) on one-block frames, `step` frames a call: (message symbols, failed)."""
    link = RsLink(k, frame_bits=4 * k)
    assert link.blocks == 1
    params = ChannelParams.from_ebn0_db(10.0, link.rate)
    hat, failed = _in_calls(lambda y: link.decode(y, params), _bits(words), step)
    syms = hat.reshape(len(words), k, 4) @ np.array([8, 4, 2, 1])
    return syms, failed


def test_syndrome_table_holds_every_pattern_of_weight_at_most_two():
    # row r of _ONE_ERROR carries the syndromes _ONE_SYN[r], by the oracle's own arithmetic
    assert _ONE_ERROR.shape == (226, 15) and not _ONE_ERROR[0].any() and _ONE_SYN[0] == 0
    for row, syn in zip(_ONE_ERROR, _ONE_SYN):
        assert syn == _packed_syndromes(3, row)
    entries = np.flatnonzero(_PAIRS)
    assert entries.size == 225 + 23625
    first, second = _PAIRS[entries] & 0xFF, _PAIRS[entries] >> 8
    assert (second > first).all()
    # each entry decodes to its own pattern, and the patterns are all distinct
    assert np.array_equal((_ONE_SYN[first] ^ _ONE_SYN[second]) & 0xFFFF, entries)
    patterns = _ONE_ERROR[first] | _ONE_ERROR[second]
    weights = np.count_nonzero(patterns, axis=1)
    assert np.array_equal(weights, 1 + (first > 0))
    assert len({p.tobytes() for p in patterns}) == entries.size


@pytest.mark.parametrize("k", KS)
def test_every_pattern_of_weight_at_most_two_matches_oracle(k, monkeypatch):
    # each pattern on its own random codeword; the link and rs_decode correct
    # all of them by table lookup alone, and the oracle agrees word by word
    rng = np.random.default_rng(6000 + k)
    ref_spec, spec = rs_oracle.RsSpec(k), RsSpec(k)
    msgs = rng.integers(0, 16, (225 + 23625, k))
    words = np.array([rs_oracle.rs_encode(ref_spec, m) for m in msgs], dtype=np.uint8)
    words ^= _error_patterns()
    seen = _record_core(monkeypatch)
    no_core = {"scalar": [], "array": []}
    syms, failed = _decode_one_block_frames(k, words, len(words))
    assert not failed.any() and np.array_equal(syms, msgs) and seen == no_core
    got, failed = rs_decode(spec, words)
    assert not failed.any() and np.array_equal(got, msgs) and seen == no_core
    for word, msg in zip(words, msgs):
        assert np.array_equal(rs_oracle.rs_decode(ref_spec, word), msg), word


def test_every_rs15_11_syndrome_matches_oracle_without_berlekamp_massey(monkeypatch):
    # the zero message with every value of its four parity symbols gives each
    # of the 65,536 syndromes once; the table alone decides every word
    def unreachable(*args):
        raise AssertionError(f"RS(15, 11) reached Berlekamp-Massey with {args}")

    monkeypatch.setattr(reed_solomon, "_berlekamp_massey", unreachable)
    monkeypatch.setattr(reed_solomon, "_correct_batch", unreachable)
    spec = RsSpec(11)
    words = np.zeros((1 << 16, 15), dtype=np.uint8)
    words[:, 11:] = np.arange(1 << 16)[:, None] >> 4 * np.arange(4) & 15
    msgs, failed = rs_decode(spec, words)
    assert np.count_nonzero(~failed) == 1 + 225 + 23625
    distance = np.count_nonzero(rs_encode(spec, msgs) != words, axis=1)
    assert (distance[~failed] <= 2).all()
    _assert_same_as_oracle(11, words)


@pytest.mark.parametrize("k", (7, 3))
def test_table_entry_with_other_higher_syndromes_takes_the_miss_path(k, monkeypatch):
    # words whose S_1 .. S_4 name a table pattern that their S_5 .. S_(n-k)
    # refute: random words, and codewords with 3 .. t errors
    rng = np.random.default_rng(7000 + k)
    ref_spec = rs_oracle.RsSpec(k)
    words = list(rng.integers(0, 16, (3000, 15), dtype=np.uint8))
    for _ in range(3000):
        word = rs_oracle.rs_encode(ref_spec, rng.integers(0, 16, k))
        nerr = int(rng.integers(3, (15 - k) // 2 + 1))
        pos = rng.choice(15, nerr, replace=False)
        word[pos] ^= rng.integers(1, 16, nerr).astype(np.uint8)
        words.append(word)
    chosen = []
    for word in words:
        entry = int(_PAIRS[_packed_syndromes(k, word) & 0xFFFF])
        fixed = word ^ _ONE_ERROR[entry & 0xFF] ^ _ONE_ERROR[entry >> 8]
        if entry and rs_oracle.has_nonzero_syndrome(ref_spec, fixed):
            chosen.append(word)
    assert len(chosen) > 1000
    seen = _record_core(monkeypatch)
    # in one batch every chosen word reaches the array core; in small calls, the scalar core
    syms, failed = _decode_one_block_frames(k, np.array(chosen), len(chosen))
    assert not seen["scalar"]
    small = _decode_one_block_frames(k, np.array(chosen), SMALL)
    for core in ("array", "scalar"):
        assert [word for word, _ in seen[core]] == [tuple(word) for word in chosen], core
    outcomes = set()
    for word, got, lost, got_small, lost_small in zip(chosen, syms, failed, *small):
        ref = rs_oracle.rs_decode(ref_spec, word)
        assert lost == lost_small == (ref is None), word
        if ref is not None:
            assert np.array_equal(got, ref) and np.array_equal(got_small, ref), word
        outcomes.add(lost)
    assert outcomes == {True, False}


@pytest.mark.parametrize("k", KS)
def test_rs_link_decodes_one_frame_at_a_time_as_in_one_batch(k, monkeypatch):
    link = RsLink(k)
    params = ChannelParams.from_ebn0_db({11: 12.0, 7: 12.5, 3: 15.0}[k], link.rate)
    rng = np.random.default_rng(8000 + k)
    msgs = rng.integers(0, 2, (300, link.frame_bits), dtype=np.uint8)
    y = link.encode(msgs) + rng.normal(0.0, params.sigma, (300, link.tx_bits))
    seen = _record_core(monkeypatch)
    hat, failed = link.decode(y, params)
    assert failed.any() and not failed.all()
    # the batch's misses reach the array core, and no one-frame call does
    batched = len(seen["array"])
    assert (batched > 0) == (k != 11) and not seen["scalar"]
    for step in (1, 7):
        parts = [link.decode(y[i : i + step], params) for i in range(0, len(y), step)]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), hat)
        assert np.array_equal(np.concatenate([p[1] for p in parts]), failed)
        if step == 1:
            assert len(seen["array"]) == batched and len(seen["scalar"]) == batched


@pytest.mark.parametrize("k", (7, 3))
def test_array_core_matches_scalar_core_on_random_syndromes(k):
    # (word, packed syndromes) pairs that need not agree, so that Berlekamp-Massey
    # meets every length; both failure kinds, L > t and a root count other than
    # L, must occur, and every output and failure flag must match
    spec = RsSpec(k)
    rng = np.random.default_rng(9000 + k)
    words = rng.integers(0, 16, (20000, 15), dtype=np.uint8)
    packed = rng.integers(1, 1 << 4 * (15 - k), 20000, dtype=np.int64)
    got, failed = reed_solomon._correct_batch(spec, words, packed)
    kinds = set()
    for word, s, got_word, lost in zip(words.tolist(), packed.tolist(), got, failed):
        ref = reed_solomon._correct(spec, word, s)
        assert lost == (ref is None), (word, s)
        assert got_word.tolist() == (ref or [0] * k), (word, s)
        length = len(reed_solomon._berlekamp_massey([s >> 4 * j & 15 for j in range(15 - k)])) - 1
        kinds.add("corrected" if ref else "L > t" if length > spec.t else "roots != L")
    assert kinds == {"corrected", "L > t", "roots != L"}


@pytest.mark.parametrize("k", (7, 3))
@pytest.mark.parametrize("misses", (reed_solomon._ARRAY_MIN - 1, reed_solomon._ARRAY_MIN))
def test_batch_at_the_array_threshold_decodes_as_word_by_word(k, misses, monkeypatch):
    # random words, almost all table misses, among clean and one-error codewords
    rng = np.random.default_rng(10000 + 10 * k + misses)
    ref_spec, spec = rs_oracle.RsSpec(k), RsSpec(k)
    cws = np.array([rs_oracle.rs_encode(ref_spec, rng.integers(0, 16, k)) for _ in range(10)],
                   dtype=np.uint8)
    cws[5:, 0] ^= 1
    words = rng.permutation(np.concatenate([cws, rng.integers(0, 16, (misses, 15), dtype=np.uint8)]))
    seen = _record_core(monkeypatch)
    msgs, failed = rs_decode(spec, words)
    array = misses >= reed_solomon._ARRAY_MIN
    assert (len(seen["array"]), len(seen["scalar"])) == ((misses, 0) if array else (0, misses))
    one_by_one = _in_calls(lambda w: rs_decode(spec, w), words, 1)
    assert np.array_equal(msgs, one_by_one[0]) and np.array_equal(failed, one_by_one[1])
    _assert_same_as_oracle(k, words)
