"""High-precision reference for the reference orbit z0 = i, v0 = 1.

Computed with mpmath and nothing from ``rodbilliard``: the first contact
is the smallest positive root of Im z(t) = cos t - t sin t, and every
later impact follows from the (r, a, b) recurrences with a root solve of
its own for delta.  The result is stored in ``reference.json`` beside this
file; make it anew with

    python3 perfbench/mpref.py

which takes three to four minutes for all checkpoints up to n = 10^5 at
50 digits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath
from mpmath import mp

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# impact indices n (1-based) at which delta_n and t_n are stored
CHECKPOINTS = (1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
               10_000, 20_000, 50_000, 100_000)
DPS = 50  # decimal digits of working precision


def first_contact():
    """(t1, r1, a1, b1) of the flight z(t) = (i + t) e^{-it}.

    Im z = cos t - t sin t has its first positive root near 0.86, where
    Re z = t cos t + sin t > 0.  The incoming rotating-frame velocity is
    (2 - i t) e^{-it}; reflecting it gives a = Re zdot / r and
    b = 1 - Im zdot / r.
    """
    t1 = mp.findroot(lambda t: mp.cos(t) - t * mp.sin(t), mp.mpf("0.86"))
    c, s = mp.cos(t1), mp.sin(t1)
    r1 = t1 * c + s
    re_in = 2 * c - t1 * s
    im_in = -(2 * s + t1 * c)
    return t1, r1, re_in / r1, 1 - im_in / r1


def solve_delta(a, b, guess):
    """Smallest root in (0, pi) of F(s) = b s cos s - (1 + a s) sin s.

    F is positive on (0, delta) and negative on (delta, pi), so a bracket
    is grown from ``guess`` and then closed by Newton steps that fall back
    to bisection whenever they leave it.
    """
    def f(s):
        c, sn = mp.cos_sin(s)
        return (b * s * c - (1 + a * s) * sn,
                (b - 1 - a * s) * c - (a + b * s) * sn)

    lo, hi = guess, guess
    if f(guess)[0] > 0:
        while f(hi)[0] > 0:
            lo, hi = hi, (hi + mp.pi) / 2
    else:
        while f(lo)[0] <= 0:
            hi, lo = lo, lo / 2
    tol = mp.mpf(10) ** (8 - mp.dps)
    x = hi
    for _ in range(10 * mp.dps):
        fx, dfx = f(x)
        if fx > 0:
            lo = x
        else:
            hi = x
        xn = x - fx / dfx
        if not lo < xn < hi:
            xn = (lo + hi) / 2
        if abs(xn - x) <= tol * x:
            return xn
        x = xn
    raise ArithmeticError(f"no convergence for a={a}, b={b}")


def reference_orbit(n_last: int, checkpoints=CHECKPOINTS, dps: int = DPS):
    """{n: (delta_n, t_n, r_n)} for every checkpoint n <= n_last, as mpf.

    delta_n is the duration of the arc that leaves impact n, so
    t_{n+1} = t_n + delta_n.
    """
    wanted = {n for n in checkpoints if n <= n_last}
    out = {}
    with mp.workdps(dps):
        t, r, a, b = first_contact()
        delta = mp.mpf(1)
        for n in range(1, n_last + 1):
            delta = solve_delta(a, b, delta)
            if n in wanted:
                out[n] = (+delta, +t, +r)
            cd, sd = mp.cos_sin(delta)
            r, a, b = (r * b * delta / sd,
                       1 / delta - cd * sd / (b * delta * delta),
                       2 - (sd / delta) ** 2 / b)
            t += delta
    return out


def main() -> int:
    start = time.perf_counter()
    ref = reference_orbit(CHECKPOINTS[-1], dps=DPS)
    data = {
        "command": "python3 perfbench/mpref.py",
        "orbit": {"z0": [0.0, 1.0], "v0": [1.0, 0.0]},
        "dps": DPS,
        "mpmath": mpmath.__version__,
        "checkpoints": {
            str(n): {k: mpmath.nstr(v, 30, strip_zeros=False)
                     for k, v in zip(("delta", "t", "r"), vals)}
            for n, vals in sorted(ref.items())},
    }
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"{len(ref)} checkpoints up to n = {CHECKPOINTS[-1]} in "
          f"{time.perf_counter() - start:.1f} s -> {REFERENCE_PATH}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
