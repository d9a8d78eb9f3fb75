import math

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
        SimConfig(n_max=0)
    with pytest.raises(ValueError):
        SimConfig(quasi_mode="bounce")
    cfg = SimConfig(n_max=5, t_max=2.0, quasi_mode="extend")
    assert cfg.n_max == 5 and cfg.quasi_mode == "extend"
