"""Run configuration: defaults, strict validation, dotted overrides, hashing.

Every block is validated against its module's constraints before any work
starts; unknown blocks or keys are rejected with the offending config path
in the message.  The ``*_from`` functions build library objects from a validated config.
"""

from __future__ import annotations

import hashlib
import json
import math
from copy import deepcopy
from pathlib import Path

from .geometry import SPEED_OF_LIGHT, ArrayGeometry, unambiguous_fov
from .music import search_range
from .simulate import GESTURE_CLASSES, DatasetSpec, SASSchedule
from .tracking import KalmanConfig


class ConfigError(ValueError):
    "Invalid run configuration; message names the offending config path."


DEFAULT_CONFIG: dict = {
    "seed": 0,
    "geometry": {
        "carrier_freq_hz": 865.7e6,
        "element_spacing_m": None,       # None -> 0.8 wavelengths
    },
    "scene": {
        "mode": "gestures",              # "gestures" or "fixed"
        "snr_db": 10.0,
        "tx_power": 1.0,
        "modulation_gain": 1.0,
        "misdetect_prob": 0.05,
        "nlos_paths": 2,
        "nlos_gain_db": -13.5,
        "angle_gain_db": 2.5,
        "angle_phase_rad": 1.2,
        "fixed_tags_deg": {"tag1": -15.0, "tag2": -10.0},
        "classes": list(GESTURE_CLASSES),
        "samples_per_class": 8,
        "windows": 24,
    },
    "schedule": {
        "samples_per_window": 100,
        "sample_period_s": 2.5e-4,
        "residual_phase": False,
    },
    "music": {
        "search_deg": [-18.0, 18.0],
    },
    "kalman": {
        "dt": None,
        "sigma_theta": 0.01,
        "sigma_omega": 0.1,
        "sigma_v": 0.035,
    },
    "features": {
        "config": "SPRA",
    },
    "classify": {
        "method": "knn",                 # "knn" or "dtw"
        "k": 5,
        "channel": "aoa",
        "test_frac": 0.3,
        "split_seed": None,              # None -> run seed
    },
}

_NUM = (int, float)


def _check(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _is_num(v) -> bool:
    return isinstance(v, _NUM) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def validate_config(cfg: dict) -> dict:
    "Validate a full configuration dict; returns it unchanged on success."
    _check(isinstance(cfg, dict), "config", "must be an object")
    for key in cfg:
        _check(key in DEFAULT_CONFIG, key, "unknown key")
    for block, defaults in DEFAULT_CONFIG.items():
        if block == "seed":
            continue
        sub = cfg.get(block, {})
        _check(isinstance(sub, dict), block, "must be an object")
        bad = set(sub) - set(defaults)
        if bad:
            raise ConfigError(f"{block}.{sorted(bad)[0]}: unknown key")
    _check(_is_int(cfg.get("seed", 0)), "seed", "must be an integer")

    g = cfg["geometry"]
    _check(_is_num(g["carrier_freq_hz"]) and g["carrier_freq_hz"] > 0,
           "geometry.carrier_freq_hz", "must be a positive number")
    if g["element_spacing_m"] is not None:
        _check(_is_num(g["element_spacing_m"]) and g["element_spacing_m"] > 0,
               "geometry.element_spacing_m", "must be a positive number or null")

    s = cfg["scene"]
    _check(s["mode"] in ("gestures", "fixed"), "scene.mode", "must be 'gestures' or 'fixed'")
    _check(_is_num(s["snr_db"]), "scene.snr_db", "must be a number")
    _check(_is_num(s["tx_power"]) and s["tx_power"] > 0, "scene.tx_power", "must be > 0")
    _check(_is_num(s["modulation_gain"]) and 0 < s["modulation_gain"] <= 1,
           "scene.modulation_gain", "must be in (0, 1]")
    p = s["misdetect_prob"]
    probs = [p, p] if _is_num(p) else p
    _check(isinstance(probs, list) and len(probs) == 2
           and all(_is_num(q) and 0 <= q <= 1 for q in probs),
           "scene.misdetect_prob", "must be a probability or a pair of them")
    _check(_is_int(s["nlos_paths"]) and s["nlos_paths"] >= 0,
           "scene.nlos_paths", "must be a non-negative integer")
    _check(_is_num(s["nlos_gain_db"]) and s["nlos_gain_db"] < 0,
           "scene.nlos_gain_db", "must be negative (weaker than LoS)")
    _check(_is_num(s["angle_gain_db"]) and s["angle_gain_db"] >= 0,
           "scene.angle_gain_db", "must be >= 0")
    _check(_is_num(s["angle_phase_rad"]), "scene.angle_phase_rad", "must be a number")
    _check(isinstance(s["fixed_tags_deg"], dict) and s["fixed_tags_deg"]
           and all(_is_num(v) for v in s["fixed_tags_deg"].values()),
           "scene.fixed_tags_deg", "must map tag ids to angles in degrees")
    _check(len(s["fixed_tags_deg"]) <= 2, "scene.fixed_tags_deg", "at most two tags")
    _check(isinstance(s["classes"], list) and s["classes"]
           and all(c in GESTURE_CLASSES for c in s["classes"]),
           "scene.classes", f"must be a non-empty subset of {GESTURE_CLASSES}")
    _check(_is_int(s["samples_per_class"]) and s["samples_per_class"] >= 1,
           "scene.samples_per_class", "must be a positive integer")
    _check(_is_int(s["windows"]) and s["windows"] >= 8,
           "scene.windows", "must be an integer >= 8")

    sch = cfg["schedule"]
    _check(_is_int(sch["samples_per_window"]) and sch["samples_per_window"] >= 4
           and sch["samples_per_window"] % 2 == 0,
           "schedule.samples_per_window", "must be an even integer >= 4")
    _check(_is_num(sch["sample_period_s"]) and sch["sample_period_s"] > 0,
           "schedule.sample_period_s", "must be > 0")
    _check(isinstance(sch["residual_phase"], bool), "schedule.residual_phase", "must be a bool")

    sd = cfg["music"]["search_deg"]
    _check(isinstance(sd, list) and len(sd) == 2 and all(_is_num(v) for v in sd)
           and sd[0] < sd[1], "music.search_deg", "must be [lo, hi] with lo < hi")
    geometry = geometry_from(cfg)
    fov = unambiguous_fov(geometry)
    try:
        search_range(geometry, music_search_from(cfg))
    except ValueError as e:
        raise ConfigError(f"music.search_deg: {e} "
                          f"(field of view +-{math.degrees(fov):.4g} deg)") from None
    if s["mode"] == "fixed":  # gesture scenes draw their own angles
        for tag, deg in s["fixed_tags_deg"].items():
            _check(abs(math.radians(deg)) <= fov, "scene.fixed_tags_deg",
                   f"tag {tag!r} at {deg!r} deg lies outside the field of view "
                   f"+-{math.degrees(fov):.4g} deg")

    k = cfg["kalman"]
    if k["dt"] is not None:
        _check(_is_num(k["dt"]) and k["dt"] > 0, "kalman.dt", "must be > 0 or null")
    _check(_is_num(k["sigma_theta"]) and k["sigma_theta"] >= 0,
           "kalman.sigma_theta", "must be >= 0")
    _check(_is_num(k["sigma_omega"]) and k["sigma_omega"] >= 0,
           "kalman.sigma_omega", "must be >= 0")
    _check(_is_num(k["sigma_v"]) and k["sigma_v"] > 0, "kalman.sigma_v", "must be > 0")

    from .features import FEATURE_CONFIGS
    _check(cfg["features"]["config"] in FEATURE_CONFIGS,
           "features.config", f"must be one of {sorted(FEATURE_CONFIGS)}")

    c = cfg["classify"]
    _check(c["method"] in ("knn", "dtw"), "classify.method", "must be 'knn' or 'dtw'")
    _check(_is_int(c["k"]) and c["k"] >= 1 and c["k"] % 2 == 1,
           "classify.k", "must be an odd positive integer")
    _check(c["channel"] in ("rss", "phase", "aoa"), "classify.channel",
           "must be one of rss/phase/aoa")
    _check(_is_num(c["test_frac"]) and 0 < c["test_frac"] < 1,
           "classify.test_frac", "must be in (0, 1)")
    if c["split_seed"] is not None:
        _check(_is_int(c["split_seed"]), "classify.split_seed",
               "must be an integer or null")
    return cfg


def _merge(base: dict, extra: dict, path: str = "") -> dict:
    out = deepcopy(base)
    for key, val in extra.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{here}: unknown key")
        if isinstance(base[key], dict) and key != "fixed_tags_deg":
            if not isinstance(val, dict):
                raise ConfigError(f"{here}: must be an object")
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = val
    return out


def load_config(path: str | Path | None = None, overrides: list[str] | None = None,
                seed: int | None = None) -> dict:
    """Defaults, optionally overlaid with a JSON file, --set overrides and seed."""
    cfg = deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path}: invalid JSON ({e})") from e
        cfg = _merge(cfg, user)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key.path=value")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node: dict = {}
        leaf = node
        parts = key.split(".")
        for part in parts[:-1]:
            leaf[part] = {}
            leaf = leaf[part]
        leaf[parts[-1]] = value
        cfg = _merge(cfg, node)
    if seed is not None:
        cfg["seed"] = seed
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    "Short stable hash of the effective configuration."
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# --- constructors from validated config blocks ------------------------------

def geometry_from(cfg: dict) -> ArrayGeometry:
    g = cfg["geometry"]
    spacing = g["element_spacing_m"]
    if spacing is None:
        spacing = 0.8 * SPEED_OF_LIGHT / g["carrier_freq_hz"]
    return ArrayGeometry(g["carrier_freq_hz"], spacing)


def schedule_from(cfg: dict) -> SASSchedule:
    sch = cfg["schedule"]
    return SASSchedule(samples_per_window=sch["samples_per_window"],
                       sample_period_s=sch["sample_period_s"],
                       residual_phase=sch["residual_phase"])


def kalman_from(cfg: dict) -> KalmanConfig:
    k = cfg["kalman"]
    return KalmanConfig(dt=k["dt"], sigma_theta=k["sigma_theta"],
                        sigma_omega=k["sigma_omega"], sigma_v=k["sigma_v"])


def music_search_from(cfg: dict) -> tuple[float, float]:
    lo, hi = cfg["music"]["search_deg"]
    return (math.radians(lo), math.radians(hi))


def dataset_spec_from(cfg: dict) -> DatasetSpec:
    s = cfg["scene"]
    p = s["misdetect_prob"]
    return DatasetSpec(classes=tuple(s["classes"]),
                       samples_per_class=s["samples_per_class"], windows=s["windows"],
                       snr_db=s["snr_db"], misdetect_prob=p if _is_num(p) else tuple(p),
                       nlos_paths=s["nlos_paths"], nlos_gain_db=s["nlos_gain_db"],
                       angle_gain_db=s["angle_gain_db"], angle_phase_rad=s["angle_phase_rad"],
                       tx_power=s["tx_power"], modulation_gain=s["modulation_gain"])
