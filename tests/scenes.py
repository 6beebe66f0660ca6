"""Scenes that only the tests build.

``anechoic_scene`` is a line-of-sight-only ``SimScene``.  The package
builds the same scene as ``lab_scene`` with zero scatterer paths, which
``synthesize_fixed_log`` uses for ``nlos_paths`` 0.
"""

from __future__ import annotations

from tagtrack.geometry import ArrayGeometry
from tagtrack.simulate import SimScene, los_paths


def anechoic_scene(geometry: ArrayGeometry, snr_db: float,
                   tag_ids: tuple[str, ...] = ("tag1",), **kwargs) -> SimScene:
    "Line-of-sight only; unit LoS gain so SNR sets the noise floor directly."
    noise_var = 10.0 ** (-snr_db / 10.0)
    return SimScene(geometry, [(t, los_paths()) for t in tag_ids],
                    noise_var=noise_var, **kwargs)
