"""Run configuration: one JSON file, optional flag overrides, presets.

Experiments have enough coupled parameters (weight constraints, teacher
wiring, optimizer settings) that everything lives in a single validated
file; command-line flags only override individual values.  Baseline
modes are presets that pin the loss weights but run through the same
engine:

* ``ft``: hard-label training only; weight fields are rewritten to
  alpha = 1 with both blend shares zero.
* ``lwf``: previous-model distillation only; the general teacher's
  weight is pinned to zero.
* ``ours``: both teachers, weights computed per task from measurements.

A run's settings are one flat namespace: each has one name, unique
across the file's sections, and an override names the setting it sets.
The sections (``weights``, ``optimizer``, ``model``) are only the
file's layout, which ``LAYOUT`` states once.  Validation reports every
violated constraint at once, not just the first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import TrainSettings
from .errors import ConfigError, must_be, parse_json, read_input
from .weights import WeightConfig

# Each top-level key of a config file, in resolved_config.json order, with
# the settings its section holds in order, or None for a plain key.
LAYOUT = {
    "manifest": None,
    "mode": None,
    "seed": None,
    "output_dir": None,
    "temperature": None,
    "weights": tuple(f.name for f in fields(WeightConfig)),
    "optimizer": ("learning_rate", "epochs", "batch_size"),
    "model": ("hidden1", "hidden2"),
    "llm_teacher": None,
}
SETTING_NAMES = tuple(name for key, section in LAYOUT.items() for name in section or (key,))


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved settings for one run."""

    manifest: str
    output_dir: str
    settings: TrainSettings
    weights: WeightConfig
    llm_teacher: dict

    def resolved_dict(self) -> dict:
        flat = {
            **vars(self.settings), **vars(self.weights),
            "manifest": self.manifest, "output_dir": self.output_dir,
            "llm_teacher": dict(self.llm_teacher) if self.llm_teacher else None,
        }
        return {key: flat[key] if section is None else {name: flat[name] for name in section}
                for key, section in LAYOUT.items()}

    def digest(self) -> str:
        """Hash of the resolved settings, output path excluded.  These
        include the manifest path string (not the stream's content) and
        a service teacher's ``base_url``, port included."""
        payload = self.resolved_dict()
        payload.pop("output_dir")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def build_run_config(payload: dict, overrides: dict = None) -> RunConfig:
    """Flatten the file's sections through ``LAYOUT``, apply ``overrides``
    (keyed by setting name, such as ``epochs``; they win over the file)
    over the defaults, then validate.  Raises ConfigError carrying every
    violation."""
    if not isinstance(payload, dict):
        raise ConfigError("run config must be a JSON object")
    problems, given = [], {}
    for key, value in payload.items():
        if key not in LAYOUT:
            problems.append(f"unknown key {key}")
        elif LAYOUT[key] is None:
            given[key] = value
        elif isinstance(value, dict):
            for name, setting in value.items():
                if name in LAYOUT[key]:
                    given[name] = setting
                else:
                    problems.append(f"unknown key {key}.{name}")
        elif value is not None:  # a null section takes the defaults
            problems.append(f"{key} must be an object, got {type(value).__name__}")
    for name, value in (overrides or {}).items():
        if name in SETTING_NAMES:
            given[name] = value
        else:
            problems.append(f"unknown key {name}")

    manifest, output_dir = given.pop("manifest", None), given.pop("output_dir", "runs/run")
    for name, path in (("manifest", manifest), ("output_dir", output_dir)):
        if not path or not isinstance(path, str):
            problems.append(must_be(name, "a non-empty path", path))
    mode = given.get("mode", TrainSettings.mode)
    if mode == "ft":
        # Hard labels only; rewrite the weight fields so the blend
        # constraint (share emphases sum to 1 - alpha) stays coherent.
        given.update(alpha=1.0, theta_ds=0.0, theta_di=0.0)
    llm_teacher = given.pop("llm_teacher", None)
    if llm_teacher is not None and not isinstance(llm_teacher, dict):
        problems.append(must_be("llm_teacher", "an object or null", llm_teacher))
    elif mode == "ours" and llm_teacher is None:
        problems.append("mode 'ours' needs an llm_teacher entry")

    built = {}
    for name, settings_class in (("settings", TrainSettings), ("weights", WeightConfig)):
        try:
            built[name] = settings_class(**{
                f.name: given[f.name] for f in fields(settings_class) if f.name in given})
        except ConfigError as exc:
            problems.extend(exc.violations)
    if problems:
        raise ConfigError(problems)
    return RunConfig(manifest=manifest, output_dir=output_dir, llm_teacher=llm_teacher, **built)


def load_run_config(path, overrides: dict = None) -> RunConfig:
    """Read and validate a config file.

    A relative manifest path in the file is taken relative to the file's
    own directory; a manifest given as an override is taken as-is.
    """
    path = Path(path)
    text = read_input(path, "config", ConfigError, text=True)
    payload = parse_json(text, ConfigError, f"config {path} is not valid JSON")
    manifest = payload.get("manifest") if isinstance(payload, dict) else None
    if isinstance(manifest, str) and manifest and not Path(manifest).is_absolute():
        payload = {**payload, "manifest": str(path.parent / manifest)}
    return build_run_config(payload, overrides)
