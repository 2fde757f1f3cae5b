"""A dropped PAX backend is freed by reference counting alone.

The device owns its persist pipeline and dispatches messages to its own
handlers; neither may hold a strong reference back to the device, or the
whole machine (and its multi-MiB PM pool) lingers until the cyclic
collector happens to run, which makes peak memory depend on GC timing.
"""

import gc

import pytest

from repro.perfbench import build_backend


def _garbage_after_drop(**kwargs):
    """Objects the cyclic GC frees once a used backend is dropped."""
    gc.collect()
    gc.disable()
    try:
        backend = build_backend("pax", **kwargs)
        for key in range(64):
            backend.put(key, key)
        backend.persist()
        del backend
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("kwargs", [
    {},
    # Device mechanisms hook the HBM cache's eviction callback.
    dict(device_mechanisms="victim:8", hbm_lines=16),
])
def test_dropped_pax_backend_leaves_no_cycles(kwargs):
    assert _garbage_after_drop(**kwargs) == 0
