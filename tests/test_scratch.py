"""The scratch pool of the O(N^2) kernels: repeated calls reuse its pages,
and no result is a view of it."""

import gc
import sys

import numpy as np
import pytest

from turnwave.closures import PhysicalConstants, waterwave_rhs
from turnwave.curve import OPEN, PERIODIC, Curve, arc_chord, open_grid, periodic_grid
from turnwave.singular import br_block, muskat_rhs_open, muskat_rhs_periodic


def turned_periodic(n, eps=0.0):
    a = periodic_grid(n)
    return Curve(PERIODIC, a, a - (1.2 + eps) * np.sin(a), 0.8 * np.sin(a))


def turned_open(n, eps=0.0):
    a = open_grid(n, 10.0)
    g = np.exp(-0.5 * a ** 2)
    return Curve(OPEN, a, a - (1.2 + eps) * a * g, 0.8 * a * g, L=10.0)


def wave_rhs(c):
    return waterwave_rhs(c, np.sin(c.alpha) + 0.3 * np.cos(2.0 * c.alpha), PhysicalConstants())


def stack(c, k=8):
    """k members of c, each slightly shifted."""
    shift = 0.01 * np.arange(k)[:, None]
    return Curve(c.topology, c.alpha, c.z1 + shift, c.z2 + shift * np.cos(c.alpha), L=c.L)


# (label, call, bound on the average minor faults per call); with blocks
# allocated and freed on every call, waterwave_rhs took 128-192 a call at
# N = 256 and muskat_rhs_periodic 160 at N = 512
FAULT_CASES = [
    ("waterwave_rhs", lambda: wave_rhs(turned_periodic(256)), 1.0),
    ("muskat_rhs_periodic", lambda: muskat_rhs_periodic(turned_periodic(512), 0.3), 1.0),
    ("muskat_rhs_open", lambda: muskat_rhs_open(turned_open(513), 1.7), 0.0),
    ("arc_chord", lambda: arc_chord(stack(turned_periodic(512))), 0.0),
]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor fault counts are compared as Linux reports them")
@pytest.mark.parametrize("label, call, per_call", FAULT_CASES, ids=[c[0] for c in FAULT_CASES])
def test_repeated_kernel_calls_take_no_page_faults(label, call, per_call):
    """After two warm-up calls, 20 more calls take at most per_call minor
    page faults each on average: their blocks come from pages that the
    pool already holds, not from memory freed to the kernel after the
    previous call and faulted in again.  The cyclic collector runs before
    them and is off during them: a collection that frees garbage of other
    tests can release an allocator arena and fault a page whatever the
    kernels do."""
    import resource
    for _ in range(2):
        call()
    gc.collect()
    gc.disable()
    try:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            call()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    finally:
        gc.enable()
    assert faults <= 20 * per_call, f"{label}: {faults} minor faults in 20 calls"


def test_results_are_not_scratch_views():
    """The arrays that br_block, waterwave_rhs, both Muskat kernels and
    arc_chord return keep their values after further calls of every
    kernel, on other curves of the same size and of other sizes."""
    def results(eps):
        p, w, o = turned_periodic(256, eps), turned_periodic(128, eps), turned_open(257, eps)
        return [br_block(w), *wave_rhs(w), muskat_rhs_periodic(p, 0.3),
                muskat_rhs_open(o, 1.7), arc_chord(stack(p)), arc_chord(stack(o, 3))]

    first = results(0.0)
    kept = [x.copy() for x in first]
    for eps in (0.05, 0.1):
        results(eps)
    for n in (64, 512, 1024):
        br_block(turned_periodic(n, 0.2))
        wave_rhs(turned_periodic(n, 0.2))
        muskat_rhs_periodic(turned_periodic(n, 0.2), 0.3)
        muskat_rhs_open(turned_open(n + 1, 0.2), 1.7)
        arc_chord(stack(turned_periodic(n, 0.2)))
    for x, y in zip(first, kept):
        assert x.tobytes() == y.tobytes()
