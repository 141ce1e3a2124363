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

Validation reports every violated constraint at once, not just the
first.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import TrainSettings
from .errors import ConfigError, parse_json, read_input, write_output
from .weights import WeightConfig

OUTPUT_ROOT_ENV = "MTCL_OUTPUT_ROOT"


# Each name tuple lists the keys its section accepts and fixes that
# section's key order in resolved_config.json.
_RUN_KEYS = ("mode", "seed", "temperature")
# WeightConfig's fields; ``run`` and ``inspect-weights`` take a flag for each.
WEIGHT_KEYS = tuple(f.name for f in fields(WeightConfig))
_OPTIMIZER_KEYS = ("learning_rate", "epochs", "batch_size")
_MODEL_KEYS = ("hidden1", "hidden2")


def _pick(settings, names) -> dict:
    return {name: getattr(settings, name) for name in names}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved settings for one run."""

    manifest: str
    output_dir: str
    settings: TrainSettings
    weights: WeightConfig
    llm_teacher: dict

    def resolved_output_dir(self) -> Path:
        """Honor the output-root environment override, if set."""
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            return Path(root) / self.output_dir
        return Path(self.output_dir)

    def resolved_dict(self) -> dict:
        return {
            "manifest": self.manifest,
            "mode": self.settings.mode,
            "seed": self.settings.seed,
            "output_dir": self.output_dir,
            "temperature": self.settings.temperature,
            "weights": _pick(self.weights, WEIGHT_KEYS),
            "optimizer": _pick(self.settings, _OPTIMIZER_KEYS),
            "model": _pick(self.settings, _MODEL_KEYS),
            "llm_teacher": dict(self.llm_teacher) if self.llm_teacher else None,
        }

    def digest(self) -> str:
        """Hash of everything that affects results (output path excluded)."""
        payload = self.resolved_dict()
        payload.pop("output_dir")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def save(self, path) -> None:
        write_output(path, json.dumps(self.resolved_dict(), indent=2) + "\n", "resolved config")


def _given(section, names, where: str, problems: list) -> dict:
    """The keys of one section that were set; the dataclass defaults fill the rest."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        problems.append(f"{where} must be an object, got {type(section).__name__}")
        return {}
    for key in section:
        if key not in names:
            problems.append(f"unknown key {where}.{key}")
    return {key: value for key, value in section.items() if key in names}


def build_run_config(payload: dict, overrides: dict = None) -> RunConfig:
    """Merge file values and flag overrides over the defaults, then validate.

    ``overrides`` uses dotted keys (for example ``weights.alpha``) and
    wins over the file.  Raises ConfigError carrying every violation.
    """
    problems = []
    if not isinstance(payload, dict):
        raise ConfigError("run config must be a JSON object")
    known_top = {
        "manifest", "output_dir", "weights", "optimizer", "model", "llm_teacher",
        *_RUN_KEYS,
    }
    for key in payload:
        if key not in known_top:
            problems.append(f"unknown key {key}")
    merged = dict(payload)
    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        if len(parts) == 1:
            merged[parts[0]] = value
        elif len(parts) == 2:
            # A section that is not an object is left for _given to report.
            section = merged.get(parts[0])
            if section is None or isinstance(section, dict):
                merged[parts[0]] = {**(section or {}), parts[1]: value}
        else:
            problems.append(f"override key too deep: {dotted}")

    manifest = merged.get("manifest")
    if not manifest or not isinstance(manifest, str):
        problems.append("manifest path is required")
        manifest = ""
    output_dir = merged.get("output_dir", "runs/run")
    if not output_dir or not isinstance(output_dir, str):
        problems.append(f"output_dir must be a non-empty path, got {output_dir!r}")
    settings = {key: merged[key] for key in _RUN_KEYS if key in merged}
    settings.update(_given(merged.get("optimizer"), _OPTIMIZER_KEYS, "optimizer", problems))
    settings.update(_given(merged.get("model"), _MODEL_KEYS, "model", problems))
    weights = _given(merged.get("weights"), WEIGHT_KEYS, "weights", problems)
    mode = settings.get("mode", TrainSettings.mode)
    if mode == "ft":
        # Hard labels only; rewrite the weight fields so the blend
        # constraint (share emphases sum to 1 - alpha) stays coherent.
        weights.update(alpha=1.0, theta_ds=0.0, theta_di=0.0)
    llm_teacher = merged.get("llm_teacher")
    if llm_teacher is not None and not isinstance(llm_teacher, dict):
        problems.append("llm_teacher must be an object or null")
        llm_teacher = None
    if mode == "ours" and llm_teacher is None:
        problems.append("mode 'ours' needs an llm_teacher entry")

    built = {}
    for name, settings_class, given in (
        ("settings", TrainSettings, settings), ("weights", WeightConfig, weights)
    ):
        try:
            built[name] = settings_class(**given)
        except ConfigError as exc:
            problems.extend(exc.violations)
    if problems:
        raise ConfigError(problems)
    return RunConfig(
        manifest=manifest,
        output_dir=output_dir,
        llm_teacher=llm_teacher,
        **built,
    )


def load_run_config(path, overrides: dict = None) -> RunConfig:
    """Read and validate a config file.

    A relative manifest path in the file is taken relative to the file's
    own directory; a manifest given as an override is taken as-is.
    """
    path = Path(path)
    text = read_input(path, "config", ConfigError, text=True)
    payload = parse_json(text, ConfigError, f"config {path} is not valid JSON")
    overrides = dict(overrides or {})
    file_manifest = payload.get("manifest") if isinstance(payload, dict) else None
    if (
        "manifest" not in overrides
        and isinstance(file_manifest, str)
        and file_manifest
        and not Path(file_manifest).is_absolute()
    ):
        payload = dict(payload)
        payload["manifest"] = str(path.parent / file_manifest)
    return build_run_config(payload, overrides)
