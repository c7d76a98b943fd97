"""Bit identity of the block-served uniform source against numpy itself.

:class:`~repro.common.rng.BlockUniforms` claims that its ``random()`` and
``integers(lo, hi)`` return what the wrapped generator's own scalar calls
return, in the same stream order, and that after :meth:`handback` the
generator is exactly where those numpy calls would have left it. Every case
here replays one sequence of calls on the source and on a twin generator
from the same seed and compares the values element for element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import BlockUniforms, RngFactory, block_uniforms, spawn_rng

#: range widths that exercise every branch of numpy's bounded draw: the
#: no-draw n = 1, small n, n >= 2**31 (Lemire rejects often), 2**32 - 1,
#: 2**32 (a bare 32-bit draw) and a width numpy serves from 64 bits
WIDTHS = [1, 2, 3, 7, 1000, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**33 + 5]

_draw = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(
        st.just("integers"),
        st.integers(-(10**6), 10**6),
        st.one_of(st.sampled_from(WIDTHS), st.integers(1, 2**32)),
    ),
    st.tuples(st.just("exponential")),
    st.tuples(st.just("standard_normal")),
    st.tuples(st.just("exponential_size"), st.integers(1, 70)),
)


def _play(uniforms, twin, op):
    """Apply one call to both sides; return (source value, numpy value)."""
    kind = op[0]
    if kind == "random":
        return uniforms.random(), twin.random()
    if kind == "integers":
        lo, n = op[1], op[2]
        return uniforms.integers(lo, lo + n), int(twin.integers(lo, lo + n))
    if kind == "exponential":
        return uniforms.handback().exponential(2.0), twin.exponential(2.0)
    if kind == "standard_normal":
        return uniforms.handback().standard_normal(), twin.standard_normal()
    size = op[1]
    return (
        uniforms.handback().exponential(0.5, size=size).tolist(),
        twin.exponential(0.5, size=size).tolist(),
    )


def _same_position(generator, twin):
    """Both generators sit at one stream position with one buffered half."""
    a, b = generator.bit_generator.state, twin.bit_generator.state
    assert a["state"] == b["state"]
    assert a["has_uint32"] == b["has_uint32"]
    if a["has_uint32"]:
        assert a["uinteger"] == b["uinteger"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.integers(0, 140),
    ops=st.lists(_draw, max_size=300),
)
def test_interleaved_draws_are_numpy_bit_for_bit(seed, lead, ops):
    # ``lead`` plain draws first, so hand-backs land on every block offset,
    # refill boundaries (0, 64, 128) included.
    uniforms = BlockUniforms(np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    for op in [("random",)] * lead + ops:
        got, want = _play(uniforms, twin, op)
        assert got == want, op
        if op[0] == "integers":
            assert type(got) is int
    _same_position(uniforms.handback(), twin)
    # and the stream carries on identically after the hand-back
    assert uniforms.random() == twin.random()


@pytest.mark.parametrize("offset", [0, 1, 63, 64, 65, 127, 128])
@pytest.mark.parametrize("half", [False, True])
def test_handback_at_and_between_refill_boundaries(offset, half):
    uniforms = BlockUniforms(np.random.default_rng(5))
    twin = np.random.default_rng(5)
    for _ in range(offset):
        assert uniforms.random() == twin.random()
    if half:  # leave an upper 32-bit half buffered across the hand-back
        assert uniforms.integers(3, 10) == int(twin.integers(3, 10))
    _same_position(uniforms.handback(), twin)
    assert uniforms.handback().exponential() == twin.exponential()
    assert uniforms.integers(0, 1000) == int(twin.integers(0, 1000))
    assert uniforms.random() == twin.random()


def test_the_rejection_path_is_exercised_and_exact():
    # n = 2**31 + 1 rejects about half of its 32-bit candidates.
    uniforms = BlockUniforms(np.random.default_rng(17))
    twin = np.random.default_rng(17)
    n = 2**31 + 1
    for _ in range(2000):
        assert uniforms.integers(0, n) == int(twin.integers(0, n))
    _same_position(uniforms.handback(), twin)


def test_a_one_value_range_draws_nothing():
    uniforms = BlockUniforms(np.random.default_rng(3))
    twin = np.random.default_rng(3)
    assert uniforms.integers(41, 42) == 41 == int(twin.integers(41, 42))
    _same_position(uniforms.handback(), twin)


def test_an_empty_range_raises_as_numpy_does():
    uniforms = BlockUniforms(np.random.default_rng(3))
    uniforms.random()
    with pytest.raises(ValueError):
        uniforms.integers(5, 5)


def test_only_pcg64_is_served_from_blocks():
    with pytest.raises(TypeError, match="PCG64"):
        BlockUniforms(np.random.Generator(np.random.MT19937(0)))


def test_coercion_passes_a_source_through_and_wraps_the_rest():
    source = block_uniforms(np.random.default_rng(0))
    assert block_uniforms(source) is source
    assert spawn_rng(0).random() == block_uniforms(0).random()
    assert block_uniforms(None).random() == np.random.default_rng(0).random()
    stream = RngFactory(4).stream("client.0")
    assert block_uniforms(stream).generator is stream
