"""``float_stream_crc`` equals the packed-stream CRC on every bit pattern.

The scrubber's value CRC is one big-endian float32 copy handed to
``zlib.crc32``; it must equal ``crc32_stream`` over the tensor's uint32
words packed MSB-first, for every IEEE-754 pattern (NaN payloads quiet
and signalling, infinities, subnormals, negative zero) and for any view
the scrubber may be handed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.formats.bitpack import crc32_stream
from repro.resilience.scrub import _float_words, float_stream_crc

_SPECIAL = [
    0x7FC00000, 0xFFC00001, 0x7FC0BEEF,   # quiet NaNs, with payloads
    0x7F800001, 0xFF812345, 0x7FBFFFFF,   # signalling NaNs
    0x7F800000, 0xFF800000,               # +-inf
    0x00000001, 0x807FFFFF, 0x00400000,   # subnormals
    0x80000000, 0x00000000,               # -0.0, +0.0
    0x7F7FFFFF, 0xFF7FFFFF,               # +-float32 max
]
_WORDS = st.one_of(st.integers(0, 2 ** 32 - 1), st.sampled_from(_SPECIAL))
_VIEWS = {
    "whole": lambda a: a,
    "strided": lambda a: a[::2],
    "reversed": lambda a: a[::-1],
    "transposed": lambda a: a.T,
    "column": lambda a: a[:, 1:2] if a.shape[1] > 1 else a[:, :1],
}


def _reference(data):
    return crc32_stream(_float_words(data), 32)


@settings(max_examples=200, deadline=None)
@given(words=hnp.arrays(np.uint32, hnp.array_shapes(min_dims=2, max_dims=2,
                                                    max_side=9),
                        elements=_WORDS),
       view=st.sampled_from(sorted(_VIEWS)))
def test_matches_packed_words_on_any_bit_pattern(words, view):
    data = _VIEWS[view](words.view(np.float32))
    assert float_stream_crc(data) == _reference(data)


@settings(max_examples=50, deadline=None)
@given(words=hnp.arrays(np.uint32, hnp.array_shapes(min_dims=0, max_dims=3,
                                                    min_side=0, max_side=5),
                        elements=_WORDS))
def test_matches_on_any_shape(words):
    data = words.view(np.float32)
    assert float_stream_crc(data) == _reference(data)


def test_nan_payloads_change_the_crc():
    quiet, signalling = np.array([0x7FC00000, 0x7F800001],
                                 dtype=np.uint32).view(np.float32)
    assert float_stream_crc(np.array([quiet])) \
        != float_stream_crc(np.array([signalling]))
