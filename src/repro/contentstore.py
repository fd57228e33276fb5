"""Content addressing: source fingerprints and a JSON store keyed by them.

Two caches key their entries on source text: the fusion gate's verdict
store (:func:`repro.core.fuse.enable_fusion`) and the fleet's result
cache (:mod:`repro.fleet`).  What they share lives here, in one module
that imports only the standard library, so computing a key never pulls
in the analysis package or the fleet.

**Fingerprints** are sha256 digests over the ``.py`` files of the
``repro`` package, found on disk next to this module: nothing is
imported to locate them, and every file is read at most once per
process (the running interpreter imported its modules from those
files; an edit reaches them only through a new process).  They hash
source *text*, so a whitespace-only edit invalidates too — the
conservative direction: a stale key costs one recomputation, a
trusted-but-wrong one a silent miscompile or a wrong cached result.

* :func:`generator_fingerprint` covers the code generators whose output
  transcheck certifies; ``spec.fuse_certificate`` carries it and
  ``repro certify`` flags a mismatch (rule TRV008).
* :func:`package_fingerprint` / :func:`combined_fingerprint` cover a
  model's implementation closure (fleet job keys), or with
  ``"repro"`` the whole package (fusion verdict keys).

**:class:`ResultCache`** is a directory of JSON files sharded by the
first two key hex digits (``ab/abcdef....json``).  Writes go through a
temporary file and ``os.replace``, so concurrent processes never observe
a torn entry; an unreadable or corrupt entry degrades to a miss (and is
dropped) rather than poisoning a result.  :func:`user_cache_dir` is the
per-user root for caches that persist across processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Iterable, Optional, Tuple

#: directory of the ``repro`` package whose sources the fingerprints hash
PACKAGE_ROOT = os.path.dirname(os.path.abspath(__file__))

#: every module whose output transcheck certifies, in hash order: the
#: generators, and the model modules whose manager emitters paste code
#: into fused steppers
GENERATOR_MODULES: Tuple[str, ...] = (
    "repro.core.fuse",
    "repro.isa.arm.execgen",
    "repro.isa.ppc.execgen",
    "repro.models.common",
    "repro.models.ppc750.managers",
    "repro.models.strongarm.managers",
)

#: package-relative path -> sha256 of the file, for every ``.py`` file
#: of the package (read once per process)
_files: Optional[Dict[str, str]] = None

#: memoised fingerprints, keyed by what they cover
_memo: Dict[Tuple[str, ...], str] = {}


def content_key(parts: Iterable[Tuple[str, str]]) -> str:
    """sha256 hex digest over ``(name, value)`` pairs, in the given order."""
    digest = hashlib.sha256()
    for name, value in parts:
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(value.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _package_files() -> Dict[str, str]:
    """``package-relative path -> sha256`` for every ``.py`` file of
    the ``repro`` package (``/``-separated paths, sorted).

    Names that are not regular files (an editor's dangling lock symlink
    ``.#model.py``, say) are skipped; a file that cannot be read (gone
    since the directory was listed) hashes as ``"unreadable"``, so the
    fingerprint still differs from that of the tree without it.
    """
    global _files
    if _files is None:
        files: Dict[str, str] = {}
        for dirpath, dirnames, filenames in os.walk(PACKAGE_ROOT):
            dirnames.sort()
            for filename in sorted(filenames):
                full = os.path.join(dirpath, filename)
                if not filename.endswith(".py") or not os.path.isfile(full):
                    continue
                rel = os.path.relpath(full, PACKAGE_ROOT).replace(os.sep, "/")
                try:
                    with open(full, "rb") as handle:
                        files[rel] = hashlib.sha256(handle.read()).hexdigest()
                except OSError:
                    files[rel] = "unreadable"
        _files = files
    return _files


def _module_path(name: str) -> str:
    """Package-relative source path of module *name* (``.py`` file or
    package directory), without importing it."""
    head, _, rest = name.partition(".")
    if head != "repro":
        raise ModuleNotFoundError(f"{name!r} is not part of the repro package")
    rel = rest.replace(".", "/")
    files = _package_files()
    if f"{rel}.py" in files:
        return f"{rel}.py"
    if (f"{rel}/__init__.py" if rel else "__init__.py") in files:
        return rel
    raise ModuleNotFoundError(f"no module named {name!r}")


def generator_fingerprint() -> str:
    """sha256 over the sources of :data:`GENERATOR_MODULES`."""
    key = ("generator",) + GENERATOR_MODULES
    if key not in _memo:
        files = _package_files()
        _memo[key] = content_key(
            (name, files[_module_path(name)]) for name in GENERATOR_MODULES)
    return _memo[key]


def package_fingerprint(name: str) -> str:
    """sha256 over every ``.py`` file of package/module *name*.

    For a package, every ``.py`` under its directory tree is hashed,
    keyed by its path relative to the package root, so renames count as
    changes; for a plain module, just its own source.
    """
    key = ("package", name)
    if key not in _memo:
        path = _module_path(name)
        files = _package_files()
        if path.endswith(".py"):
            parts = [(os.path.basename(path), files[path])]
        else:
            prefix = f"{path}/" if path else ""
            parts = [(rel[len(prefix):], digest)
                     for rel, digest in files.items() if rel.startswith(prefix)]
        _memo[key] = content_key(sorted(parts))
    return _memo[key]


def combined_fingerprint(names: Iterable[str]) -> str:
    """One sha256 combining :func:`package_fingerprint` of each name."""
    return content_key((name, package_fingerprint(name)) for name in sorted(set(names)))


def user_cache_dir() -> str:
    """Per-user root of the caches that persist across processes:
    ``$XDG_CACHE_HOME/repro``, or ``~/.cache/repro`` when unset."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class ResultCache:
    """Directory-backed content-addressed JSON cache (process-safe)."""

    persistent = True

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        if len(key) < 3 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key {key!r}")
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            # missing, unreadable or torn: a miss either way; drop a
            # corrupt file so it cannot keep masking fresh results
            if os.path.exists(path):
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - racing cleanup
                    pass
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        path = self._path(key)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        count = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count
