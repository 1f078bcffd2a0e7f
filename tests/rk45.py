"""The Dormand-Prince 5(4) scalar integrator behind the tests' RK45 oracles.

The oracles in ``test_root_contract.py``, the end slivers' among them,
integrate Prüfer equations with it, independently of the cell propagator
and of the slivers' collocation cells.
"""

import math

from sturmjumps.oscillation import PhaseError

_PI = math.pi

# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) scalar integrator with PI step control and FSAL
# ---------------------------------------------------------------------------

_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0


def _rk45(f, x, y, x_end, rtol, atol, max_steps):
    """Integrate dy/dx = f(x, y) from x to x_end; returns (y, steps, rejected)."""
    span = x_end - x
    k1 = f(x, y)

    # automatic initial step: Euler probe of the derivative's variation;
    # a too-large guess is simply rejected and halved on the first step
    sc = atol + rtol * abs(y)
    d1 = abs(k1) / sc
    h0 = 1e-6 * span if d1 < 1e-5 else min(0.01 / d1, span)
    f1 = f(x + h0, y + h0 * k1)
    d2 = abs(f1 - k1) / (h0 * sc)
    dm = max(d1, d2)
    h = min((0.01 / dm) ** 0.2 if dm > 1e-15 else span, span)

    steps = 0
    rejected = 0
    err_prev = 1.0
    while x < x_end:
        if steps >= max_steps:
            raise PhaseError(f"phase integration exceeded {max_steps} steps at x={x}")
        if x + h == x:
            raise PhaseError(f"step size underflow at x={x}")
        if x + h > x_end:
            h = x_end - x
        k2 = f(x + _C2 * h, y + h * (_A21 * k1))
        k3 = f(x + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
        k4 = f(x + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = f(x + _C5 * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = f(x + h, y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = f(x + h, y_new)
        err_abs = abs(h) * abs(
            _E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7
        )
        sc = atol + rtol * max(abs(y), abs(y_new))
        err = err_abs / sc
        if err <= 1.0:
            # theta' > 0 at every multiple of pi: crossing one downward is a failure
            if y_new < y - sc and math.floor(y_new / _PI) < math.floor(y / _PI):
                raise PhaseError(f"phase crossed a multiple of pi downward at x={x}")
            x += h
            y = y_new
            k1 = k7
            steps += 1
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 1e-10 else 10.0
            h *= min(10.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            h *= max(0.2, 0.9 * err ** -0.2)
    return y, steps, rejected
