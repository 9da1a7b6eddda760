"""The seeded streams draw what numpy draws from the same key, and atmsim
runs without numpy."""

import hashlib
import importlib.util
import json
import os

import pytest
from conftest import modules_loaded_by_importing_atmsim

from atmsim.rng import Stream, rng_stream, sha256

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def golden_keys():
    """(seed, label) of every stream the golden scenarios open."""
    keys = []
    for name in ("reference", "congested"):
        with open(os.path.join(DATA_DIR, f"{name}_scenario.json"), encoding="utf-8") as handle:
            raw = json.load(handle)
        seed = raw.get("seed", 0)
        keys += [(seed, f"conn:{conn['id']}") for conn in raw["connections"]]
        traffic = (raw.get("lane") or {}).get("traffic", [])
        keys += [(seed, f"lane:{i}:{entry['src']}") for i, entry in enumerate(traffic)]
    return keys


KEYS = golden_keys() + [(0, "conn:c"), (3, "lane:1:b"), (2**70, "alpha")]
EXPONENTIAL_SCALES = (1.0, 0.02, 0.05, 3.5)
# [lo, hi) ranges: LANE frame sizes, the widest frame_bytes, two values,
# and two sizes near 2**32 whose Lemire draw rejects 1/16 and ~1/2 of words
INTEGER_RANGES = ((64, 1201), (8, 65001), (0, 2), (7, 7 + 0xF0000000), (0, 2**31 + 1))
BATCH = 9_001  # odd, so batches of integers end on either half of a word
ROUNDS = 8  # batches of each kind per key: over 10**6 draws of each kind in all


def numpy_twin(seed, label):
    """numpy's generator on the key rng_stream derives for (seed, label)."""
    np = pytest.importorskip("numpy")
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], dtype="<u8")))


def first_difference(ours, theirs):
    return next((i for i, (a, b) in enumerate(zip(ours, theirs)) if a != b), None)


def test_draws_match_numpy_bit_for_bit():
    draws = {"exponential": 0, "integers": 0, "tail": 0}
    for seed, label in KEYS:
        ours, twin = rng_stream(seed, label), numpy_twin(seed, label)
        for r in range(ROUNDS):
            scale = EXPONENTIAL_SCALES[r % len(EXPONENTIAL_SCALES)]
            got = [ours.exponential(scale) for _ in range(BATCH)]
            want = twin.exponential(scale, BATCH).tolist()
            assert first_difference(got, want) is None, (seed, label, r, scale)
            draws["exponential"] += BATCH
            draws["tail"] += sum(x > 7.69711747013104972 * scale for x in got)
            assert ours.next64() == twin.bit_generator.random_raw(), (seed, label, r, scale)

            lo, hi = INTEGER_RANGES[r % len(INTEGER_RANGES)]
            got = [ours.integers(lo, hi) for _ in range(BATCH)]
            want = twin.integers(lo, hi, BATCH).tolist()
            assert first_difference(got, want) is None, (seed, label, r, lo, hi)
            draws["integers"] += BATCH
            assert ours.next64() == twin.bit_generator.random_raw(), (seed, label, r, lo, hi)
    assert draws["exponential"] >= 10**6 and draws["integers"] >= 10**6, draws
    assert draws["tail"] > 0, "no draw took the ziggurat's tail"


def test_every_golden_stream_key_is_hashlib_sha256():
    # rng_stream takes SHA-256 from the builtin _sha256 where there is one
    builtin = importlib.util.find_spec("_sha256") is not None
    assert (sha256.__module__ == "_sha256") is builtin
    for seed, label in KEYS:
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        assert sha256(f"{seed}:{label}".encode()).digest() == digest, label
        twin = Stream(int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little"))
        ours = rng_stream(seed, label)
        assert [ours.next64() for _ in range(4)] == [twin.next64() for _ in range(4)], label


def test_integers_refuses_an_empty_or_64_bit_range():
    stream = Stream(1, 2)
    assert stream.integers(5, 6) == 5
    for lo, hi in ((5, 5), (0, 2**32), (0, 2**40)):
        with pytest.raises(ValueError):
            stream.integers(lo, hi)


def test_importing_atmsim_leaves_numpy_unloaded():
    assert modules_loaded_by_importing_atmsim("numpy") == []
