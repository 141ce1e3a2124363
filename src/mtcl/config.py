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
from dataclasses import dataclass, field
from pathlib import Path

from .engine import TrainSettings
from .errors import ConfigError
from .weights import WeightConfig

OUTPUT_ROOT_ENV = "MTCL_OUTPUT_ROOT"

_WEIGHT_DEFAULTS = {
    "alpha": 0.2,
    "theta_ds": 0.4,
    "theta_di": 0.4,
    "log_base": None,
}
_OPTIMIZER_DEFAULTS = {
    "learning_rate": 0.05,
    "epochs": 30,
    "batch_size": 32,
}
_MODEL_DEFAULTS = {
    "hidden1": 32,
    "hidden2": 32,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved settings for one run."""

    manifest: str
    mode: str = "ours"
    seed: int = 0
    output_dir: str = "runs/run"
    temperature: float = 2.0
    weights: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    llm_teacher: dict = None

    def train_settings(self) -> TrainSettings:
        return TrainSettings(
            learning_rate=self.optimizer["learning_rate"],
            epochs=self.optimizer["epochs"],
            batch_size=self.optimizer["batch_size"],
            temperature=self.temperature,
            seed=self.seed,
            hidden1=self.model["hidden1"],
            hidden2=self.model["hidden2"],
            mode=self.mode,
        )

    def weight_config(self) -> WeightConfig:
        return WeightConfig(
            alpha=self.weights["alpha"],
            theta_ds=self.weights["theta_ds"],
            theta_di=self.weights["theta_di"],
            log_base=self.weights["log_base"],
        )

    def resolved_output_dir(self) -> Path:
        """Honor the output-root environment override, if set."""
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if root:
            return Path(root) / self.output_dir
        return Path(self.output_dir)

    def resolved_dict(self) -> dict:
        return {
            "manifest": self.manifest,
            "mode": self.mode,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "temperature": self.temperature,
            "weights": dict(self.weights),
            "optimizer": dict(self.optimizer),
            "model": dict(self.model),
            "llm_teacher": dict(self.llm_teacher) if self.llm_teacher else None,
        }

    def digest(self) -> str:
        """Hash of everything that affects results (output path excluded)."""
        payload = self.resolved_dict()
        payload.pop("output_dir")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.resolved_dict(), indent=2) + "\n", encoding="utf-8"
        )


def _merged(defaults: dict, given, where: str, problems: list) -> dict:
    result = dict(defaults)
    if given is None:
        return result
    if not isinstance(given, dict):
        problems.append(f"{where} must be an object, got {type(given).__name__}")
        return result
    for key, value in given.items():
        if key not in defaults:
            problems.append(f"unknown key {where}.{key}")
        else:
            result[key] = value
    return result


def build_run_config(payload: dict, overrides: dict = None) -> RunConfig:
    """Merge defaults, file values, and flag overrides, then validate.

    ``overrides`` uses dotted keys (for example ``weights.alpha``) and
    wins over the file.  Raises ConfigError carrying every violation.
    """
    problems = []
    if not isinstance(payload, dict):
        raise ConfigError("run config must be a JSON object")
    known_top = {
        "manifest", "mode", "seed", "output_dir", "temperature",
        "weights", "optimizer", "model", "llm_teacher",
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
            section = dict(merged.get(parts[0]) or {})
            section[parts[1]] = value
            merged[parts[0]] = section
        else:
            problems.append(f"override key too deep: {dotted}")

    manifest = merged.get("manifest")
    if not manifest or not isinstance(manifest, str):
        problems.append("manifest path is required")
        manifest = ""
    mode = merged.get("mode", "ours")
    weights = _merged(_WEIGHT_DEFAULTS, merged.get("weights"), "weights", problems)
    optimizer = _merged(
        _OPTIMIZER_DEFAULTS, merged.get("optimizer"), "optimizer", problems
    )
    model = _merged(_MODEL_DEFAULTS, merged.get("model"), "model", problems)
    if mode == "ft":
        # Hard labels only; rewrite the weight fields so the blend
        # constraint (share emphases sum to 1 - alpha) stays coherent.
        weights["alpha"] = 1.0
        weights["theta_ds"] = 0.0
        weights["theta_di"] = 0.0
    llm_teacher = merged.get("llm_teacher")
    if llm_teacher is not None and not isinstance(llm_teacher, dict):
        problems.append("llm_teacher must be an object or null")
        llm_teacher = None
    if mode == "ours" and llm_teacher is None:
        problems.append("mode 'ours' needs an llm_teacher entry")

    cfg = RunConfig(
        manifest=str(manifest),
        mode=str(mode),
        seed=int(merged.get("seed", 0)),
        output_dir=str(merged.get("output_dir", "runs/run")),
        temperature=float(merged.get("temperature", 2.0)),
        weights=weights,
        optimizer=optimizer,
        model=model,
        llm_teacher=llm_teacher,
    )
    for build in (cfg.train_settings, cfg.weight_config):
        try:
            build()
        except ConfigError as exc:
            problems.extend(exc.violations)
        except (TypeError, ValueError) as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError(problems)
    return cfg


def load_run_config(path, overrides: dict = None) -> RunConfig:
    """Read and validate a config file.

    A relative manifest path in the file is taken relative to the file's
    own directory; a manifest given as an override is taken as-is.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
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
