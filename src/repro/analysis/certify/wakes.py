"""Wake completeness (TRV009): may a state's operations sleep?

A wake test whose park points all keep a wake contract
(:attr:`repro.core.fuse.ManagerEmitter.wakes`) puts a refused operation
to sleep, and the director then skips it without asking until a manager
wakes it (``osm._asleep = False``).  That is exact only when every write
of a manager field such a refusal reads wakes each operation whose
refusal the write can flip.  TRV001 checks the writes the generator
emits (the head wake of an in-order release commit).  This rule checks
the rest, statically, per state whose wake test would sleep:

1. **Fields.**  The manager fields its park points' refusal expressions
   read, taken from each expression's AST: attributes of the manager
   expression and the members the emitter binds.  The token's and the
   operation's own fields are the parked operation's, which only its
   own commits change.
2. **Write sites.**  effectcheck write footprints
   (:mod:`repro.analysis.effects.footprint`) of the spec's edge
   callables (live, with their callees), and of every method of the
   classes of the managers and hardware modules the spec's code
   reaches, plus every hardware-module class defined in a module that
   code comes from (a module a model builds after its spec, such as a
   queue's cycle hook, is found by its class).  A write names a field by
   its last attribute, and in-place mutation (``append``, ``remove``,
   ``update``…) writes its receiver.  A method's write to its own
   instance counts only when its class is a base of a park point's
   manager class; a write through any other receiver — one the analysis
   cannot resolve included — counts by the field name alone.
   ``__init__`` is exempt: a manager under construction holds no
   sleeper.
3. **Verdict.**  A site that writes such a field and assigns no
   ``<x>._asleep = False`` keeps the state awake: its wake test still
   runs, as without sleeping.  :func:`awake_states` is the build gate's
   half (its verdict lives in the structure's fusion-store entry);
   ``repro certify`` reports each such state as TRV009.

Soundness caveats (see ``docs/static-analysis.md``): the rule checks
that a writing site wakes *some* operation, not that it wakes the one
whose refusal flipped — which operation is the emitter's contract, and
the differential emitter test checks it against the TMI methods;
hardware modules defined elsewhere and built after the spec, and code
reached only through containers deeper than the walk, are not scanned;
and the footprint caveats of effectcheck apply.
"""

from __future__ import annotations

import ast
import gc
import inspect
from types import FunctionType, MethodType, ModuleType
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ...core import fuse
from ...core.manager import TokenManager
from ...de.module import HardwareModule
from ..effects.engine import PROBE_DEPTH, harvest_spec
from ..effects.footprint import MUTATOR_METHODS, _function_node, analyze_callable

__all__ = ["awake_states", "refusal_fields", "write_sites"]

#: how deep the walk from the spec's callables and managers follows
#: object attributes and container items looking for hardware modules
#: and managers (model -> units dict -> unit -> manager is three)
WALK_DEPTH = 4

#: bytecode-fallback writes whose field is unknown: they count as a
#: write of every field
_UNKNOWN_FIELD = "?"


class _Recorder(fuse._Codegen):
    """A codegen that notes which parameter names stand for the handed
    manager and which for a member of it (:meth:`bind_field`)."""

    def __init__(self):
        super().__init__()
        self.managers: Set[str] = set()
        self.members: Dict[str, str] = {}

    def bind(self, hint, obj):
        name = super().bind(hint, obj)
        if obj is self.handed:
            self.managers.add(name)
        return name

    def bind_field(self, hint, owner, attr, *keys):
        name = super().bind_field(hint, owner, attr, *keys)
        self.members[name] = attr
        return name


def _fields_read(expr: str, managers: Set[str], members: Dict[str, str]) -> Set[str]:
    fields = set()
    for node in ast.walk(ast.parse(expr, mode="eval")):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in managers):
            fields.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in members:
            fields.add(members[node.id])
    return fields


def refusal_fields(state, slot_cands) -> Optional[List[Tuple[type, Set[str]]]]:
    """Per park point of *state*, its manager class and the manager
    fields its refusal expression reads; None unless the state's wake
    test would put operations to sleep (:func:`repro.core.fuse.sleeps`)."""
    if not fuse.sleeps(state, slot_cands):
        return None
    points, _ = fuse._park_plan(state, slot_cands)
    out = []
    for p, (cls, em) in points:
        g = _Recorder()
        if type(p).__name__ == "Release":
            expr = em.release_refusal(g, "M", "T")
            g.managers.add("M")
        else:
            with g.handing(p.manager):
                expr = em.inquire_refusal(g, p.manager, fuse._expr(g, "ident", p.ident))
        out.append((cls, _fields_read(expr, g.managers, g.members)))
    return out


# -- write sites ------------------------------------------------------------


class Site:
    """One analysed callable: a display name, the fields it writes
    (``(receiver, field)``, receiver ``"self"`` for its own instance or
    None for any other) and whether it wakes."""

    __slots__ = ("name", "owner", "writes", "wakes")

    def __init__(self, name: str, owner: Optional[type], writes, wakes: bool):
        self.name = name
        self.owner = owner
        self.writes = writes
        self.wakes = wakes


def _field(location: str, own: Optional[str] = None) -> Tuple[bool, str]:
    """``(whether the receiver is the instance *own* names, field)`` of
    a footprint write location."""
    while location.endswith("[]"):
        location = location[:-2]
    head, _, tail = location.rpartition(".")
    if location == "?" or head == "?":
        # the bytecode fallback: an unknown subscript, or a
        # mutator-named attribute, hides which field it writes
        if location == "?" or tail in MUTATOR_METHODS:
            return False, _UNKNOWN_FIELD
        return False, tail
    return own is not None and head == own, tail


def _wakes(fn) -> bool:
    """Whether *fn*'s body assigns ``<x>._asleep = False``."""
    node = _function_node(inspect.unwrap(fn))
    if node is None:
        return False
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Constant)
                and sub.value.value is False
                and any(isinstance(t, ast.Attribute) and t.attr == "_asleep"
                        for t in sub.targets)):
            return True
    return False


_SITE_CACHE: Dict[Any, Site] = {}


def _method_site(cls: type, name: str, fn) -> Site:
    """The :class:`Site` of method *fn* of *cls*, analysed unbound: its
    parameters are symbolic roots named as in its signature, so a write
    to ``self.<field>`` is a write to its own instance."""
    code = getattr(inspect.unwrap(fn), "__code__", None)
    key = (cls, name, code)
    site = _SITE_CACHE.get(key)
    if site is None:
        params = code.co_varnames[:code.co_argcount] if code is not None else ()
        fp = analyze_callable(fn, params, depth=PROBE_DEPTH)
        own = params[0] if params else None
        writes = set()
        for location in fp.writes:
            mine, field = _field(location, own)
            writes.add(("self" if mine else None, field))
        site = _SITE_CACHE[key] = Site(f"{cls.__qualname__}.{name}", cls,
                                       frozenset(writes), _wakes(fn))
    return site


def _callable_site(site) -> Site:
    """The :class:`Site` of a harvested edge callable, analysed live."""
    fp = analyze_callable(site.fn, site.param_roles, depth=PROBE_DEPTH)
    writes = frozenset((None, _field(location)[1]) for location in fp.writes)
    return Site(site.name, None, writes, _wakes(site.fn))


def _methods(cls: type) -> Iterator[Tuple[str, Any]]:
    for name, value in vars(cls).items():
        if name == "__init__":
            continue
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            for part, fn in (("getter", value.fget), ("setter", value.fset),
                             ("deleter", value.fdel)):
                if fn is not None:
                    yield f"{name}.{part}", fn
        elif isinstance(value, FunctionType):
            yield name, value


def _reach(spec) -> Tuple[Set[type], Set[str]]:
    """The classes of the objects the spec's callables and managers
    reach within :data:`WALK_DEPTH` (closure cells, bound receivers,
    instance attributes, container items), and the modules their code
    and classes come from."""
    roots: List[Any] = [site.fn for site in harvest_spec(spec)]
    for edge in spec.edges:
        roots += [getattr(p, "manager", None) for p in edge.condition.primitives]
    classes: Set[type] = set()
    modules: Set[str] = set()
    seen: Set[int] = set()
    frontier = [value for value in roots if value is not None]
    for _ in range(WALK_DEPTH + 1):
        following: List[Any] = []
        for value in frontier:
            if id(value) in seen or isinstance(value, (type(None), bool, int, float,
                                                       str, bytes, type)):
                continue
            seen.add(id(value))
            kind = type(value)
            if kind is FunctionType:
                modules.add(value.__module__)
                for cell in value.__closure__ or ():
                    try:
                        following.append(cell.cell_contents)
                    except ValueError:  # an unfilled cell
                        pass
            elif kind is MethodType:
                following += (value.__self__, value.__func__)
            elif kind in (list, tuple, set, frozenset):
                following += value
            elif kind is dict:
                following += value.values()
            elif kind is ModuleType:
                continue
            elif kind.__flags__ & fuse._HEAPTYPE:
                classes.add(kind)
                modules.add(kind.__module__)
                for ref in gc.get_referents(value):
                    if type(ref) is dict:  # the instance dict
                        following += ref.values()
                    elif not isinstance(ref, type):
                        following.append(ref)
        frontier = following
    return classes, modules


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def write_sites(spec) -> List[Site]:
    """Every write site TRV009 scans for *spec*: its edge callables, and
    the methods of its managers' and hardware modules' classes."""
    classes, modules = _reach(spec)
    scanned: Dict[type, None] = {}
    for cls in sorted(classes, key=lambda c: (c.__module__, c.__qualname__)):
        if issubclass(cls, (TokenManager, HardwareModule)):
            scanned.update(dict.fromkeys(cls.__mro__[:-1]))
    for cls in _subclasses(HardwareModule):
        if cls.__module__ in modules:
            scanned.update(dict.fromkeys(cls.__mro__[:-1]))
    callables = {(id(site.fn), site.param_roles): site for site in harvest_spec(spec)
                 if site.role != "rank"}
    sites = [_callable_site(site) for site in callables.values()]
    for cls in scanned:
        sites += [_method_site(cls, name, fn) for name, fn in _methods(cls)]
    return sites


# -- the verdict ------------------------------------------------------------


def _unwoken(points, sites) -> Optional[str]:
    """The first write of a refusal field by a site that does not wake,
    as a reason, or None."""
    for site in sites:
        if site.wakes:
            continue
        for receiver, field in sorted(site.writes, key=str):
            for cls, fields in points:
                if field != _UNKNOWN_FIELD and field not in fields:
                    continue
                if receiver == "self" and not issubclass(cls, site.owner):
                    continue  # its own instance, not a park point's manager
                shown = "an unknown field" if field == _UNKNOWN_FIELD else f"{field!r}"
                return (f"{site.name} writes {shown}, read by the "
                        f"{cls.__name__} refusal, without a wake")
    return None


def awake_states(spec) -> List[Tuple[str, str]]:
    """``(state name, reason)`` for every state whose wake test would put
    operations to sleep but one of whose refusal fields has a write site
    that does not wake (rule TRV009).  The build gate generates those
    wake tests without the sleep: the state stays parked but awake."""
    slot_cands = fuse._slot_candidates(spec)
    candidates = [(state, refusal_fields(state, slot_cands))
                  for state in spec.states.values()]
    candidates = [(state, points) for state, points in candidates if points]
    if not candidates:
        return []
    sites = write_sites(spec)
    awake = []
    for state, points in candidates:
        reason = _unwoken(points, sites)
        if reason is not None:
            awake.append((state.name, reason))
    return awake

