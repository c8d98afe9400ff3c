"""Named substreams: ``rng_for`` draws the stream numpy makes from the
entropy list [seed, crc32(name), *indices], each integer kept to 48 bits."""

import zlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatnet.seeding import rng_for

LOW48 = 2**48 - 1
WIDE = st.integers(-2**64, 2**64)


def entropy_list_rng(seed, name, *indices):
    return np.random.default_rng([seed & LOW48, zlib.crc32(name.encode("utf-8")),
                                  *(i & LOW48 for i in indices)])


@settings(max_examples=200, deadline=None)
@given(seed=WIDE, name=st.text(max_size=12),
       indices=st.lists(st.one_of(st.integers(-3, 3), WIDE), max_size=4))
@example(seed=2**40 + 5, name="augment", indices=[])
@example(seed=0, name="dropout", indices=[0, 0])
@example(seed=42, name="shuffle", indices=[-1, 2**32, 2**32 - 1, 2**48])
@example(seed=2**32, name="", indices=[2**47 + 3])
def test_rng_for_draws_the_entropy_list_stream(seed, name, indices):
    ours, ref = rng_for(seed, name, *indices), entropy_list_rng(seed, name, *indices)
    assert ours.bytes(40) == ref.bytes(40)
    assert ours.random(3).tobytes() == ref.random(3).tobytes()
