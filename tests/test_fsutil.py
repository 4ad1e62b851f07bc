"""Tests for the crash-safe array writer shared by shards and the disk cache."""

import hashlib
import io

import numpy as np
import pytest

from repro.core.fsutil import write_npy

CASES = {
    "int8": np.arange(-3, 4, dtype=np.int8),
    "int16": np.arange(300, dtype=np.int16),
    "bool": np.array([True, False, True]),
    "float32-2d": np.arange(12, dtype=np.float32).reshape(3, 4),
    "fortran": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    "strided": np.arange(40)[::3],
    "empty": np.zeros(0),
    "0-d": np.array(2.5),
    "big-endian": np.arange(5, dtype=">i4"),
    "structured": np.array([(1, 2.0), (3, 4.0)], dtype=[("a", "<i4"), ("b", "<f8")]),
    "unicode": np.array(["ab", "c", ""], dtype="<U2"),
    "datetime64": np.array(["2011-05-01T00:00:00", "2011-05-29"], dtype="datetime64[s]"),
}


@pytest.mark.parametrize("array", CASES.values(), ids=CASES.keys())
def test_writes_what_np_save_writes(tmp_path, array):
    expected = io.BytesIO()
    np.save(expected, np.ascontiguousarray(array))
    path = tmp_path / "a.npy"
    digest = write_npy(path, array)
    written = path.read_bytes()
    assert written == expected.getvalue()
    assert digest == hashlib.sha256(written).hexdigest()
    np.testing.assert_array_equal(np.load(path, allow_pickle=False), array)


def test_object_arrays_rejected(tmp_path):
    path = tmp_path / "a.npy"
    with pytest.raises(TypeError, match="object"):
        write_npy(path, np.array([1, "x"], dtype=object))
    assert not path.exists()
