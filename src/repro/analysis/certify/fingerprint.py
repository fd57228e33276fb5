"""Generator fingerprinting for transcheck certificates (TRV008).

A fuse certificate is only as good as the generator that produced the
code it certifies: if :mod:`repro.core.fuse` (or any of the other code
generators, or a model module registering a manager emitter) changes
after a certificate was stamped, the certificate is
*stale* — it vouches for code the current generator would no longer
emit.  :func:`generator_fingerprint` hashes the source text of every
generator module, and :func:`repro.core.fuse.enable_fusion` embeds the
hash in ``spec.fuse_certificate`` at build time; ``repro certify``
re-computes the hash and flags any mismatch (rule TRV008).

The hash covers source *text*, not bytecode — whitespace-only edits do
invalidate certificates, which is the conservative direction: a stale
certificate costs one re-certification, a trusted-but-wrong one costs a
silent miscompile.

The same machinery also backs the fleet layer's content-addressed
result cache (:mod:`repro.fleet`): :func:`package_fingerprint` hashes
every ``.py`` source under a package (or a single module's source), and
the fleet job key folds the fingerprints of a model's implementation
closure into the cache key — edit any file a model depends on and its
cached simulation results stop matching, which is exactly the staleness
contract cached results need.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from typing import Dict, Iterable, Optional, Tuple

#: every module whose output transcheck certifies, in hash order: the
#: generators, and the model modules whose manager emitters paste code
#: into fused steppers
GENERATOR_MODULES: Tuple[str, ...] = (
    "repro.core.fuse",
    "repro.isa.arm.execgen",
    "repro.isa.ppc.execgen",
    "repro.iss.compiled",
    "repro.models.common",
    "repro.models.ppc750.managers",
    "repro.models.strongarm.managers",
)

_cached: Optional[str] = None

#: package/module name -> sha256, cached per process (see
#: :func:`generator_fingerprint` for why per-process caching is sound)
_package_cache: Dict[str, str] = {}


def generator_sources() -> Dict[str, str]:
    """``module name -> source text`` for every generator module."""
    sources: Dict[str, str] = {}
    for name in GENERATOR_MODULES:
        module = importlib.import_module(name)
        path = getattr(module, "__file__", None)
        if path is None:  # pragma: no cover - frozen/zipped installs
            sources[name] = ""
            continue
        with open(path, "r", encoding="utf-8") as handle:
            sources[name] = handle.read()
    return sources


def sources_fingerprint(sources: Dict[str, str]) -> str:
    """sha256 hex digest over a ``name -> source text`` mapping."""
    digest = hashlib.sha256()
    for name, source in sorted(sources.items()):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def generator_fingerprint() -> str:
    """The sha256 hex digest over all generator module sources.

    Cached per process: the sources cannot change under a running
    interpreter without also invalidating the imported modules.
    """
    global _cached
    if _cached is None:
        _cached = sources_fingerprint(generator_sources())
    return _cached


def package_fingerprint(name: str) -> str:
    """sha256 over every ``.py`` source file of package/module *name*.

    For a package, every ``.py`` under its directory tree is hashed
    (keyed by its path relative to the package root, so renames count as
    changes); for a plain module, just its own source.  The result is
    cached per process, like :func:`generator_fingerprint`.
    """
    cached = _package_cache.get(name)
    if cached is not None:
        return cached
    module = importlib.import_module(name)
    path = getattr(module, "__file__", None)
    sources: Dict[str, str] = {}
    if path is None:  # pragma: no cover - frozen/zipped installs
        sources[name] = ""
    elif os.path.basename(path) == "__init__.py":
        root = os.path.dirname(path)
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                rel = os.path.relpath(full, root)
                with open(full, "r", encoding="utf-8") as handle:
                    sources[rel] = handle.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            sources[os.path.basename(path)] = handle.read()
    fingerprint = sources_fingerprint(sources)
    _package_cache[name] = fingerprint
    return fingerprint


def combined_fingerprint(names: Iterable[str]) -> str:
    """One sha256 combining :func:`package_fingerprint` of each name."""
    digest = hashlib.sha256()
    for name in sorted(set(names)):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(package_fingerprint(name).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()
