import hashlib

import numpy as np
import pytest

from abo.rng import make_rng


@pytest.mark.parametrize(
    "seed, tag", [(0, "init"), (7, "noise"), (-3, "ucb-candidates"), (12, "")]
)
def test_philox_keyed_by_sha256_of_seed_and_tag(seed, tag):
    # the hash material of every stream, byte for byte
    material = f"{seed}||{tag}".encode()
    key = int.from_bytes(hashlib.sha256(material).digest()[:16], "little")
    expected = np.random.Generator(np.random.Philox(key=key))
    rng = make_rng(seed, tag=tag)
    np.testing.assert_array_equal(
        rng.bit_generator.state["state"]["key"],
        expected.bit_generator.state["state"]["key"],
    )
    np.testing.assert_array_equal(rng.uniform(size=5), expected.uniform(size=5))


def test_tag_is_keyword_only():
    with pytest.raises(TypeError):
        make_rng(0, "init")
