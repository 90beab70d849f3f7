"""Versioned model registry with checksums, manifests, and hot activation.

On-disk layout (everything human-inspectable JSON + ``.npz``)::

    <root>/
      ACTIVE                          # {"name": ..., "version": ...}
      models/<name>/<version>/
        model.npz                     # DelayFaultLocalizer artifact
        manifest.json                 # checksum + dims + metadata

Artifacts are immutable once published: every load re-hashes ``model.npz``
against the manifest's SHA-256 and refuses to serve a corrupted or tampered
file. The ``ACTIVE`` pointer is swapped atomically (write-then-rename), so a
serving process polling :meth:`ModelRegistry.active_ref` either sees the old
model or the new one, never a torn state — that is the whole hot-reload
protocol.

Two hardening behaviors on top of the checksum refusal:

- **Quarantine** — a version that fails checksum verification is *moved*
  to ``<root>/quarantine/<name>/<version>`` before the error propagates, so
  a corrupt artifact can never be re-verified into activation later and the
  evidence is preserved for forensics instead of being overwritten.
- **Transient-I/O retry** — reads retry with exponential backoff on
  ``OSError`` (NFS blips, slow volume attach), so a hot reload does not
  fall over on a one-off filesystem hiccup. ``io_fault_hook`` is the chaos
  injection point: it runs before every read attempt.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, TypeVar

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.resilience import ExponentialBackoff, retry_with_backoff

_MODEL_FILE = "model.npz"
_MANIFEST_FILE = "manifest.json"
_ACTIVE_FILE = "ACTIVE"
_QUARANTINE_DIR = "quarantine"

_T = TypeVar("_T")


class ModelRegistryError(RuntimeError):
    """Registry invariant broken: missing artifact, checksum mismatch, …"""


@dataclass(frozen=True)
class ModelManifest:
    """Immutable description of one published model version."""

    name: str
    version: str
    sha256: str
    size_bytes: int
    created_at: float
    in_dim: int
    hidden: int
    metadata: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> ModelManifest:
        return cls(**payload)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _safe_component(value: str, what: str) -> str:
    if not value or value != Path(value).name or value.startswith("."):
        raise ModelRegistryError(f"invalid {what}: {value!r} (must be a bare path component)")
    return value


class ModelRegistry:
    """Filesystem-backed registry of versioned localizer artifacts."""

    def __init__(self, root: str | Path, io_attempts: int = 3, io_backoff_s: float = 0.05):
        if io_attempts < 1:
            raise ModelRegistryError(f"io_attempts must be >= 1, got {io_attempts}")
        self.root = Path(root)
        self.io_attempts = io_attempts
        self.io_backoff_s = io_backoff_s
        #: Chaos injection point: called before every retryable read attempt.
        self.io_fault_hook: Callable[[], None] | None = None
        (self.root / "models").mkdir(parents=True, exist_ok=True)

    def _io(self, fn: Callable[[], _T]) -> _T:
        """Run one read through the transient-failure retry policy."""

        def attempt() -> _T:
            if self.io_fault_hook is not None:
                self.io_fault_hook()
            return fn()

        return retry_with_backoff(
            attempt,
            attempts=self.io_attempts,
            backoff=ExponentialBackoff(base_s=self.io_backoff_s),
            retryable=(OSError,),
        )

    # -- publishing --------------------------------------------------------

    def publish(
        self,
        model: DelayFaultLocalizer,
        name: str = "localizer",
        version: str | None = None,
        metadata: dict[str, Any] | None = None,
        activate: bool = True,
    ) -> ModelManifest:
        """Write a new immutable version; optionally point ``ACTIVE`` at it."""
        name = _safe_component(name, "model name")
        if version is None:
            version = f"v{len(self.list_versions(name)) + 1:04d}"
        version = _safe_component(version, "version")
        version_dir = self.root / "models" / name / version
        if version_dir.exists():
            raise ModelRegistryError(f"version already published: {name}/{version}")
        version_dir.mkdir(parents=True)

        model_path = model.save(version_dir / _MODEL_FILE, metadata=metadata)
        manifest = ModelManifest(
            name=name,
            version=version,
            sha256=_sha256_file(model_path),
            size_bytes=model_path.stat().st_size,
            created_at=time.time(),
            in_dim=model.in_dim,
            hidden=model.hidden,
            metadata=dict(metadata or {}),
        )
        (version_dir / _MANIFEST_FILE).write_text(json.dumps(manifest.to_json_dict(), indent=2))
        if activate:
            self.activate(name, version)
        return manifest

    # -- introspection -----------------------------------------------------

    def list_models(self) -> list[str]:
        return sorted(p.name for p in (self.root / "models").iterdir() if p.is_dir())

    def list_versions(self, name: str) -> list[str]:
        model_dir = self.root / "models" / name
        if not model_dir.is_dir():
            return []
        return sorted(p.name for p in model_dir.iterdir() if (p / _MANIFEST_FILE).is_file())

    def manifest(self, name: str, version: str) -> ModelManifest:
        path = self.root / "models" / name / version / _MANIFEST_FILE
        if not path.is_file():
            raise ModelRegistryError(f"no such model version: {name}/{version}")
        return ModelManifest.from_json_dict(json.loads(self._io(path.read_text)))

    def verify(self, name: str, version: str) -> ModelManifest:
        """Re-hash the artifact against its manifest; raise on any mismatch.

        A mismatched version is quarantined (moved out of ``models/``)
        before the error propagates, so it can never pass a later
        verification or be activated.
        """
        manifest = self.manifest(name, version)
        model_path = self.root / "models" / name / version / _MODEL_FILE
        if not model_path.is_file():
            raise ModelRegistryError(f"artifact missing for {name}/{version}: {model_path}")
        actual = self._io(lambda: _sha256_file(model_path))
        if actual != manifest.sha256:
            quarantined = self._quarantine(name, version)
            raise ModelRegistryError(
                f"checksum mismatch for {name}/{version}: "
                f"manifest {manifest.sha256[:12]}…, file {actual[:12]}… "
                f"(version quarantined to {quarantined})"
            )
        return manifest

    # -- quarantine --------------------------------------------------------

    def _quarantine(self, name: str, version: str) -> Path:
        """Move a failed version out of ``models/``; keep the evidence."""
        src = self.root / "models" / name / version
        dest_dir = self.root / _QUARANTINE_DIR / name
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / version
        suffix = 1
        while dest.exists():
            suffix += 1
            dest = dest_dir / f"{version}-{suffix}"
        os.replace(src, dest)
        return dest

    def list_quarantined(self) -> list[tuple[str, str]]:
        """All quarantined ``(name, version)`` pairs, sorted."""
        quarantine = self.root / _QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(
            (model_dir.name, version_dir.name)
            for model_dir in quarantine.iterdir()
            if model_dir.is_dir()
            for version_dir in model_dir.iterdir()
            if version_dir.is_dir()
        )

    # -- activation / hot reload ------------------------------------------

    def activate(self, name: str, version: str) -> None:
        """Atomically point ``ACTIVE`` at an existing, verified version.

        ``verify()`` runs (and quarantines on mismatch) *before* the pointer
        flip — a tampered artifact can never become ACTIVE.
        """
        self.verify(name, version)
        tmp = self.root / (_ACTIVE_FILE + ".tmp")
        tmp.write_text(json.dumps({"name": name, "version": version}))
        os.replace(tmp, self.root / _ACTIVE_FILE)

    def active_ref(self) -> tuple[str, str] | None:
        """Current ``(name, version)`` pointer, or ``None`` before first
        activation. Cheap enough to poll on every request."""
        path = self.root / _ACTIVE_FILE
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        return (payload["name"], payload["version"])

    def load(self, name: str, version: str) -> tuple[DelayFaultLocalizer, ModelManifest]:
        """Load a verified artifact (checksum enforced before deserializing)."""
        manifest = self.verify(name, version)
        model_path = self.root / "models" / name / version / _MODEL_FILE
        model = self._io(lambda: DelayFaultLocalizer.load(model_path))
        return model, manifest

    def load_active(self) -> tuple[DelayFaultLocalizer, ModelManifest]:
        ref = self.active_ref()
        if ref is None:
            raise ModelRegistryError(f"registry at {self.root} has no active model")
        return self.load(*ref)
