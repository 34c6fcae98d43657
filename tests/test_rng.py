"""Tests for the random-stream addresses."""

import pytest

from qshift import derive_seed, stream


@pytest.mark.parametrize("tag", [True, False, 1.0])
def test_bool_and_float_tags_rejected(tag):
    with pytest.raises(TypeError, match="stream tag must be int or str"):
        stream(0, "data", tag)


def test_negative_tag_rejected():
    with pytest.raises(ValueError, match="stream tags must be non-negative, got -1"):
        derive_seed(0, "boot", -1)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -2"):
        stream(-2, "data")
