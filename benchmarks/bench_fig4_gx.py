"""Fig. 4 — the monotone function g(x) mapping reputation to a positive
reward weight (Eq. 2)."""

import numpy as np
import pytest

from conftest import print_table
from repro.core.reputation import g


def build_series():
    xs = np.linspace(-5.0, 5.0, 41)
    return xs, g(xs)


def test_fig4_series(benchmark):
    xs, ys = benchmark(build_series)
    rows = [(f"{x:+.2f}", f"{y:.4f}") for x, y in zip(xs[::4], ys[::4])]
    print_table("Fig. 4: g(x) = e^x (x<=0), 1+ln(x+1) (x>0)", ["x", "g(x)"], rows)
    # The figure's qualitative content:
    assert np.all(np.diff(ys) > 0), "Fig. 4: g is not increasing on [-5, 5]"
    # g(0) = 1: idle nodes still earn
    assert g(0.0) == pytest.approx(1.0), f"Fig. 4: g(0) = {g(0.0)}, want 1"
    # negative reputation -> near-zero weight
    assert g(-5.0) < 0.01, f"Fig. 4: g(-5) = {g(-5.0):.4f}, want under 0.01"
    # concave growth for x > 0 (log), convex decay for x < 0 (exp)
    positive = ys[xs > 0]
    assert np.all(np.diff(np.diff(positive)) < 1e-9), (
        "Fig. 4: g is not concave for x > 0 (1 + ln(x + 1))"
    )
    # §VII-B: the cube-root punishment cuts a large mapped value to ~1/3.
    big = 1000.0
    ratio = g(np.cbrt(big)) / g(big)
    assert 0.25 < ratio < 0.45, (
        f"§VII-B: g(cbrt(1000)) / g(1000) = {ratio:.3f}, want about 1/3 "
        "(0.25 to 0.45)"
    )
