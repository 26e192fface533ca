"""The number contract at the API edge, one pool of values for every real argument.

A real argument is a real number, other than a bool, that is finite as a float, so
an int past the float range is refused. Each site refuses the rest with its own
error class and message, and reads an accepted value as its float.
"""
import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from revlogic.device import AA, DeviceConfig, run_histogram
from revlogic.energy import NonphysicalTemperature, landauer_energy
from revlogic.machine import normalize

#: Refused wherever a real number is read.
NOT_REAL = [
    pytest.param(True, id="True"), pytest.param(False, id="False"),
    pytest.param(np.True_, id="np.True_"), pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"), pytest.param(-math.inf, id="-inf"),
    pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
    pytest.param("1", id="str"), pytest.param(None, id="None"), pytest.param(1j, id="1j"),
    pytest.param(Decimal("1"), id="Decimal"),
]

#: The kinds an accepted real comes as, each built from a site's integral nominal value.
KINDS = {"int": int, "float": float, "np.float32": np.float32, "np.float64": np.float64,
         "np.int64": np.int64, "Fraction": Fraction}

#: Each site: a call on one real value, a nominal value it accepts, and the class and
#: message prefix of its refusal.
SITES = {
    "landauer_energy bits": (lambda v: landauer_energy(v, 300.0), 2,
                             ValueError, "erased bits must be finite and >= 0, got "),
    "landauer_energy temperature": (lambda v: landauer_energy(1.0, v), 300,
                                    NonphysicalTemperature,
                                    "temperature must be finite and > 0 K, got "),
    "DeviceConfig": (lambda v: DeviceConfig(alpha2=v), 2,
                     ValueError, "angles and sigma must be finite, got "),
    "run_histogram bin width": (lambda v: run_histogram(AA, 50, seed=1, bin_width=v), 1,
                                ValueError, "bin width must be finite and positive, got "),
    "normalize": (lambda v: normalize("u2", v), 1,  # u2's inclusive edge: reads 0
                  ValueError, "angles are measured from the vertical, must be finite and >= 0, "
                              "got "),
}


@pytest.mark.parametrize("value", NOT_REAL)
@pytest.mark.parametrize("site", SITES)
def test_each_site_refuses_what_is_not_a_finite_real(site, value):
    call, _, error, prefix = SITES[site]
    with pytest.raises(error, match="^" + re.escape(prefix)) as info:
        call(value)
    assert info.type is error


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("site", SITES)
def test_each_site_reads_an_accepted_real_as_its_float(site, kind):
    # repr, not ==: Fraction(2) == 2.0, yet a config holding it is not the float config
    call, nominal, _, _ = SITES[site]
    assert repr(call(KINDS[kind](nominal))) == repr(call(float(nominal)))


@pytest.mark.parametrize("field,sign", [("sigma", 1), ("alpha2", 1), ("alpha_hat1", -1)])
def test_device_config_refuses_an_int_past_the_float_range(field, sign):
    # each once raised OverflowError from math.isfinite
    with pytest.raises(ValueError, match="^angles and sigma must be finite, got "):
        DeviceConfig(**{field: sign * 10**400})


def test_device_config_keeps_its_angles_and_sigma_as_floats():
    cfg = DeviceConfig(alpha_hat1=Fraction(3, 4), alpha_tilde1=np.float32(0.875), alpha2=2,
                       sigma=np.float64(0.03))
    assert {type(v) for v in (cfg.alpha_hat1, cfg.alpha_tilde1, cfg.alpha2, cfg.sigma)} == {float}
    assert cfg == DeviceConfig(alpha_hat1=0.75, alpha_tilde1=0.875, alpha2=2.0)


def test_landauer_energy_refuses_an_int_bit_count_past_the_float_range():
    # once OverflowError from the multiplication
    with pytest.raises(ValueError, match="^erased bits must be finite and >= 0, got "):
        landauer_energy(10**400, 300.0)


def test_landauer_energy_refuses_an_int_temperature_past_the_float_range():
    with pytest.raises(NonphysicalTemperature, match="^temperature must be finite and > 0 K"):
        landauer_energy(1.0, 10**400)


def test_landauer_energy_returns_a_python_float_for_numpy_scalars():
    energy = landauer_energy(np.float64(2.0), np.float32(300.0))
    assert type(energy) is float and energy == landauer_energy(2.0, 300.0)


@pytest.mark.parametrize("norm,cfg", [("u1", None), ("u4", DeviceConfig(distinguishable=True))])
def test_normalize_refuses_an_int_angle_past_the_float_range(norm, cfg):
    # u4 once raised OverflowError, and u1 read the same angle as 1
    with pytest.raises(ValueError, match="^angles are measured from the vertical"):
        normalize(norm, 10**400, cfg)
