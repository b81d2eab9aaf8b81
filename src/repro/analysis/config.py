"""``[tool.repro-lint]`` configuration loaded from ``pyproject.toml``.

Recognised keys::

    [tool.repro-lint]
    paths = ["src/repro"]          # default lint targets
    exclude = ["*/_vendored/*"]    # fnmatch patterns on posix paths
    disable = ["api-hygiene"]      # rule ids switched off entirely

    [tool.repro-lint.severity]
    api-hygiene = "warning"        # override a rule's severity

    [tool.repro-lint.registry-contract]
    exempt = ["ExperimentalDet"]   # Detector subclasses that may stay
                                   # outside the default bank

    cache-dir = ".lint-cache"      # analysis cache (relative to the
                                   # pyproject's directory)

    [tool.repro-lint.obs-taxonomy]
    doc = "docs/observability.md"  # taxonomy doc to cross-check
                                   # (relative to the pyproject's dir)

    [tool.repro-lint.worker-reachability]
    entry-points = ["shard_worker_main"]  # call-graph roots

Unknown keys are rejected so typos fail loudly instead of silently
disabling a contract check. TOML parsing uses the stdlib ``tomllib``
(Python >= 3.11); on older interpreters configuration is skipped with
the built-in defaults, never a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .finding import Severity

try:  # pragma: no cover - exercised only on Python < 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover
    tomllib = None  # type: ignore[assignment]

_KNOWN_KEYS = {
    "paths", "exclude", "disable", "severity", "registry-contract",
    "cache-dir", "obs-taxonomy", "worker-reachability",
}
_KNOWN_REGISTRY_KEYS = {"exempt"}
_KNOWN_OBS_KEYS = {"doc"}
_KNOWN_WORKER_KEYS = {"entry-points"}

#: Roots of the worker-reachability call-graph walk when the config does
#: not override them: the entry point of a forked ``repro-serve`` shard.
DEFAULT_WORKER_ENTRY_POINTS = ["shard_worker_main"]


class ConfigError(ValueError):
    """Raised for a malformed ``[tool.repro-lint]`` table."""


@dataclass
class LintConfig:
    """Resolved lint configuration (defaults + pyproject overrides)."""

    paths: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    disabled_rules: List[str] = field(default_factory=list)
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)
    #: Detector class names allowed to stay out of the default bank.
    registry_exempt: List[str] = field(default_factory=list)
    #: Analysis-cache directory ("" = caching off). Relative paths are
    #: resolved against the config's directory by :meth:`resolve_path`.
    cache_dir: str = ""
    #: Observability taxonomy doc for obs-taxonomy ("" = no doc check).
    obs_doc: str = ""
    #: Bare function names the worker-reachability walk starts from.
    worker_entry_points: List[str] = field(
        default_factory=lambda: list(DEFAULT_WORKER_ENTRY_POINTS)
    )
    #: Where the config came from, for error messages ("" = defaults).
    source: str = ""

    def resolve_path(self, value: str) -> Optional[Path]:
        """Resolve a configured path against the config's directory."""
        if not value:
            return None
        path = Path(value)
        if path.is_absolute() or not self.source:
            return path
        return Path(self.source).parent / path


def _expect_str_list(value, key: str) -> List[str]:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ConfigError(f"[tool.repro-lint] {key} must be a list of strings")
    return list(value)


def parse_config(table: dict, source: str = "") -> LintConfig:
    """Validate a raw ``[tool.repro-lint]`` table into a LintConfig."""
    unknown = set(table) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(
            f"unknown [tool.repro-lint] keys: {sorted(unknown)} "
            f"(known: {sorted(_KNOWN_KEYS)})"
        )
    config = LintConfig(source=source)
    if "paths" in table:
        config.paths = _expect_str_list(table["paths"], "paths")
    if "exclude" in table:
        config.exclude = _expect_str_list(table["exclude"], "exclude")
    if "disable" in table:
        config.disabled_rules = _expect_str_list(table["disable"], "disable")
    severity = table.get("severity", {})
    if not isinstance(severity, dict):
        raise ConfigError("[tool.repro-lint] severity must be a table")
    for rule, level in severity.items():
        if not isinstance(level, str):
            raise ConfigError(f"severity for {rule!r} must be a string")
        config.severity_overrides[rule] = Severity.parse(level)
    registry = table.get("registry-contract", {})
    if not isinstance(registry, dict):
        raise ConfigError("[tool.repro-lint] registry-contract must be a table")
    unknown = set(registry) - _KNOWN_REGISTRY_KEYS
    if unknown:
        raise ConfigError(
            f"unknown [tool.repro-lint.registry-contract] keys: "
            f"{sorted(unknown)}"
        )
    if "exempt" in registry:
        config.registry_exempt = _expect_str_list(
            registry["exempt"], "registry-contract.exempt"
        )
    if "cache-dir" in table:
        if not isinstance(table["cache-dir"], str):
            raise ConfigError("[tool.repro-lint] cache-dir must be a string")
        config.cache_dir = table["cache-dir"]
    obs = table.get("obs-taxonomy", {})
    if not isinstance(obs, dict):
        raise ConfigError("[tool.repro-lint] obs-taxonomy must be a table")
    unknown = set(obs) - _KNOWN_OBS_KEYS
    if unknown:
        raise ConfigError(
            f"unknown [tool.repro-lint.obs-taxonomy] keys: {sorted(unknown)}"
        )
    if "doc" in obs:
        if not isinstance(obs["doc"], str):
            raise ConfigError("[tool.repro-lint] obs-taxonomy.doc must be a string")
        config.obs_doc = obs["doc"]
    worker = table.get("worker-reachability", {})
    if not isinstance(worker, dict):
        raise ConfigError(
            "[tool.repro-lint] worker-reachability must be a table"
        )
    unknown = set(worker) - _KNOWN_WORKER_KEYS
    if unknown:
        raise ConfigError(
            f"unknown [tool.repro-lint.worker-reachability] keys: "
            f"{sorted(unknown)}"
        )
    if "entry-points" in worker:
        config.worker_entry_points = _expect_str_list(
            worker["entry-points"], "worker-reachability.entry-points"
        )
    return config


def load_config(pyproject: Optional[Path]) -> LintConfig:
    """Load config from an explicit pyproject path (None = defaults)."""
    if pyproject is None or tomllib is None:
        return LintConfig()
    raw = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    table = raw.get("tool", {}).get("repro-lint", {})
    return parse_config(table, source=str(pyproject))


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in [current, *current.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None
