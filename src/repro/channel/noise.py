"""Receiver noise models.

The paper works against a -90 dBm noise floor for a 20 MHz channel
(§3.3, §3.5) — thermal noise plus a ~11 dB commodity noise figure.
The library's amplitude convention is sqrt-milliwatts: a signal with
mean power 1.0 is 0 dBm, so a -90 dBm floor is a noise power of 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.units import db_to_power, thermal_noise_dbm

#: The paper's quoted receiver noise floor for 20 MHz WiFi.
DEFAULT_NOISE_FLOOR_DBM = -90.0


def awgn(shape, noise_power_dbm, rng=None):
    """Complex white Gaussian noise with the given power in dBm.

    Returns an array of the requested shape whose mean |x|^2 equals the
    linear power implied by ``noise_power_dbm`` under the sqrt-mW
    amplitude convention.
    """
    rng = make_rng(rng)
    power = db_to_power(noise_power_dbm)  # dBm -> linear mW
    scale = np.sqrt(power / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class NoiseModel:
    """A receiver's noise floor, as a reusable noise source.

    Parameters
    ----------
    noise_floor_dbm:
        Total in-band noise power.  Defaults to the paper's -90 dBm;
        pass ``None`` with ``bandwidth_hz``/``noise_figure_db`` to derive
        it from kTB instead.
    """

    def __init__(self, noise_floor_dbm=DEFAULT_NOISE_FLOOR_DBM,
                 bandwidth_hz=None, noise_figure_db=11.0):
        if noise_floor_dbm is None:
            if bandwidth_hz is None:
                raise ValueError(
                    "provide noise_floor_dbm or bandwidth_hz to derive it")
            noise_floor_dbm = thermal_noise_dbm(bandwidth_hz, noise_figure_db)
        self.noise_floor_dbm = float(noise_floor_dbm)

    def sample(self, shape, rng=None):
        """Draw noise samples of the given shape."""
        return awgn(shape, self.noise_floor_dbm, rng=rng)

    def snr_db(self, signal_power_dbm):
        """SNR of a signal at ``signal_power_dbm`` against this floor."""
        return float(signal_power_dbm) - self.noise_floor_dbm
