import math
import sys

import pytest
from hypothesis import given, strategies as st

from rodbilliard import PhaseState, SimConfig, unit_rotation
from rodbilliard.core import EPS, require_finite


def test_unit_rotation_axes():
    assert unit_rotation(0.0) == 1 + 0j
    assert abs(unit_rotation(math.pi / 2) - 1j) < 2 * EPS
    assert abs(unit_rotation(math.pi) - (-1 + 0j)) < 2 * EPS


@given(st.floats(-100.0, 100.0))
def test_unit_rotation_modulus(theta):
    assert abs(abs(unit_rotation(theta)) - 1.0) <= 4 * EPS


def test_require_finite_rejects():
    with pytest.raises(ValueError):
        require_finite(complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        require_finite(complex(0.0, math.inf))
    assert require_finite(1 + 2j) == 1 + 2j


def test_phase_state_upper_half_plane():
    PhaseState(t=0.0, z=1j, zdot=1 + 0j)
    PhaseState(t=0.0, z=complex(1.0, -1e-12), zdot=0j)  # roundoff slack
    with pytest.raises(ValueError):
        PhaseState(t=0.0, z=complex(1.0, -1e-3), zdot=0j)
    with pytest.raises(ValueError):
        PhaseState(t=0.0, z=complex(math.nan, 1.0), zdot=0j)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(root_abs_tol=0.0)
    with pytest.raises(ValueError):
        SimConfig(scan_step=-1e-3)
    with pytest.raises(ValueError):
        SimConfig(root_abs_tol=math.inf)
    with pytest.raises(ValueError):
        SimConfig(scan_step=math.inf)
    for n_max in (0, 2.5, 3.0, True, False):
        with pytest.raises(ValueError):
            SimConfig(n_max=n_max)
    with pytest.raises(ValueError):
        SimConfig(quasi_mode="bounce")
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError):
            SimConfig(t_max=t_max)
    # a boolean, or an int that float() overflows on (from 2^1024 - 2^970),
    # in any float field
    for name in ("root_abs_tol", "scan_step", "t_max"):
        for value in (True, False, 10 ** 400, 2 ** 1024 - 2 ** 970):
            with pytest.raises(ValueError, match=name):
                SimConfig(**{name: value})
    cfg = SimConfig(n_max=5, t_max=2.0, quasi_mode="extend")
    assert cfg.n_max == 5 and cfg.quasi_mode == "extend"
    # math.inf for t_max, and ints that convert to a finite float, pass
    top = 2 ** 1024 - 2 ** 970 - 1
    assert float(top) == sys.float_info.max
    cfg = SimConfig(root_abs_tol=1, scan_step=top, t_max=math.inf)
    assert (cfg.root_abs_tol, cfg.scan_step, cfg.t_max) == (1, top, math.inf)
    assert SimConfig(t_max=3).t_max == 3
