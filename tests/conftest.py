"""Shared test fixtures and helpers."""

from __future__ import annotations

import functools
from collections import OrderedDict
from contextlib import contextmanager

import pytest


@pytest.fixture()
def fresh_plans(monkeypatch):
    """A context manager for builds under patched fusion generators:
    inside it, ``repro.core.fuse`` has a fresh table of build plans and
    the given attributes replaced (``generate_stepper=...``), so the
    builds neither reuse a plan of the process nor leave one behind."""
    from repro.core import fuse

    @contextmanager
    def fresh(**replacements):
        with monkeypatch.context() as patch:
            patch.setattr(fuse, "_PLANS", OrderedDict())
            for name, value in replacements.items():
                patch.setattr(fuse, name, value)
            yield

    return fresh


@pytest.fixture()
def fresh_translations(monkeypatch):
    """A context manager for ISS runs under patched decoders or
    generators, or under a small bound: inside it,
    ``repro.iss.translations`` has empty caches of at most
    *max_instructions* instructions and *max_blocks* blocks (its own
    bounds by default), so the runs neither reuse a translation of the
    process nor leave one behind."""
    from repro.iss import translations

    @contextmanager
    def fresh(max_instructions=translations.MAX_INSTRUCTIONS,
              max_blocks=translations.MAX_BLOCKS):
        with monkeypatch.context() as patch:
            for name, size in (("decoded", max_instructions),
                               ("block_code", max_blocks)):
                cached = getattr(translations, name)
                patch.setattr(translations, name,
                              functools.lru_cache(maxsize=size)(cached.__wrapped__))
            yield

    return fresh


@pytest.fixture()
def arm_assemble():
    from repro.isa.arm import assemble

    return assemble


@pytest.fixture()
def ppc_assemble():
    from repro.isa.ppc import assemble

    return assemble


def arm_program(body: str, data: str = "") -> str:
    """Wrap an instruction body into a runnable ARM program skeleton."""
    data_section = f"    .data\n{data}" if data else ""
    return f"""
    .text
_start:
{body}
    swi #0
{data_section}
"""


def ppc_program(body: str, data: str = "") -> str:
    data_section = f"    .data\n{data}" if data else ""
    return f"""
    .text
_start:
{body}
    li r0, 0
    sc
{data_section}
"""


def _toy_lane(osm):
    return osm.tag


_toy_lane.__fuse_inline__ = "osm.tag"


def keyed_toy(value, slot, priority=0):
    """``I --enter--> P --leave--> I``, entering on ``osm.tag == value``
    into buffer slot *slot*: specs of one structure that generate
    different stepper text."""
    from repro.core import (Allocate, Condition, Guard, MachineSpec,
                            Release, SlotManager)

    spec = MachineSpec("keyed-toy")
    spec.state("I", initial=True)
    spec.state("P")
    spec.edge("I", "P", Condition([Guard.equals(_toy_lane, value, "lane"),
                                   Allocate(SlotManager("S"), slot=slot)]),
              priority=priority, label="enter")
    spec.edge("P", "I", Condition([Release(slot)]), label="leave")
    return spec


def queue_toy(make_action):
    """``I --enter--> Q --leave--> I`` through an in-order queue: Q parks
    at the queue's release, and sleeps there unless a write of the
    queue's refusal fields does not wake.  *make_action(queue)* gives
    the leave edge's action."""
    from repro.core import (Allocate, Condition, InOrderPoolManager,
                            MachineSpec, Release)

    queue = InOrderPoolManager("q", 2, 1)
    spec = MachineSpec("queue-toy")
    spec.state("I", initial=True)
    spec.state("Q")
    spec.edge("I", "Q", Condition([Allocate(queue, slot="q")]), label="enter")
    spec.edge("Q", "I", Condition([Release("q")]), action=make_action(queue),
              label="leave")
    return spec


def resets_budget(queue):
    """An action resetting *queue*'s release budget without a wake."""
    def reset_budget(osm):
        queue._released_this_cycle = 0
    return reset_budget


def resets_budget_and_wakes(queue):
    """An action resetting *queue*'s release budget and waking its head."""
    def reset_budget(osm):
        queue._released_this_cycle = 0
        if queue._order:
            queue._order[0]._asleep = False
    return reset_budget
