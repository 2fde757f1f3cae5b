"""A dropped backend is freed by reference counting alone.

The PAX device owns its persist pipeline and dispatches messages to its
own handlers, and the mprotect backend's faulting accessor calls back
into the backend; none of them may hold a strong reference back to its
owner, or the whole machine (and its multi-MiB PM pool) lingers until
the cyclic collector happens to run, which makes peak memory depend on
GC timing.
"""

import gc

import pytest

from repro.baselines.pax import make_backend
from repro.errors import ConfigError
from repro.perfbench import build_backend


#: Every name :func:`repro.baselines.pax.make_backend` accepts.
ALL_BACKENDS = ("autopass", "compiler", "dram", "hybrid", "mprotect", "pax",
                "pm_direct", "pmdk", "redo")


def _garbage_after_drop(name="pax", **kwargs):
    """Objects the cyclic GC frees once a used backend is dropped."""
    gc.collect()
    gc.disable()
    try:
        backend = build_backend(name, **kwargs)
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


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_dropped_backend_leaves_no_cycles(name):
    assert _garbage_after_drop(name) == 0


def test_every_backend_covered():
    with pytest.raises(ConfigError) as err:
        make_backend("no-such-backend")
    assert str(err.value).endswith("(have %s)" % ", ".join(ALL_BACKENDS))
