"""Tests for the random-stream addresses."""

import numpy as np
import pytest

from qshift import derive_seed, stream


@pytest.mark.parametrize("tag", [True, False, 1.0])
def test_bool_and_float_tags_rejected(tag):
    with pytest.raises(TypeError, match="stream tag must be int or str"):
        stream(0, "data", tag)


def test_negative_tag_rejected():
    with pytest.raises(ValueError, match="stream tags must be non-negative, got -1"):
        derive_seed(0, "boot", -1)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
@pytest.mark.parametrize("address", [stream, derive_seed])
def test_non_integer_seed_rejected(address, seed):
    """A seed is not truncated or compared as it stands: 1.5 would address
    seed 1's streams, and True seed 1's."""
    with pytest.raises(TypeError, match="seed must be an integer"):
        address(seed, "x")


def test_numpy_integer_seed_addresses_the_int_seed():
    assert derive_seed(np.int64(7), "x") == derive_seed(7, "x")
    assert stream(np.uint32(7), "a").random() == stream(7, "a").random()


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
        stream(-2, "data")
