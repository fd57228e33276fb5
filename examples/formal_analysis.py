#!/usr/bin/env python3
"""Section-6 applications: formal analysis and compiler information.

* export the StrongARM operation state machine as an abstract state
  machine (guarded-update rules),
* verify reachability/liveness of the specification,
* statically prove freedom from cyclic resource dependency (and show the
  analysis catching a deliberately cyclic pipeline),
* extract the reservation table and empirical operand latencies a
  retargetable compiler would use for scheduling.

Run:  python examples/formal_analysis.py
"""

from repro.analysis import render_asm, reservation_table, operand_latencies
from repro.analysis.lint.graph import analyze_deadlock, analyze_reachability
from repro.core import Allocate, Condition, MachineSpec, Release, SlotManager
from repro.isa.arm import assemble
from repro.models.pipeline5 import Pipeline5Model
from repro.models.strongarm import StrongArmModel
from repro.workloads import kernels


def main() -> None:
    model = StrongArmModel(assemble(kernels.arm_source("alu_dep1")))
    spec = model.spec

    # --- ASM export -----------------------------------------------------------
    print("=== StrongARM operation OSM as an abstract state machine ===")
    rendering = render_asm(spec)
    print("\n".join(rendering.splitlines()[:18]))
    print(f"... ({len(rendering.splitlines())} lines total)\n")

    # --- reachability / liveness -----------------------------------------------
    report = analyze_reachability(spec)
    print(f"reachability: clean={report.clean} "
          f"(unreachable={sorted(report.unreachable)}, "
          f"non-returning={sorted(report.non_returning)})")

    # --- static deadlock analysis ------------------------------------------------
    deadlock = analyze_deadlock(spec)
    print(f"resource dependencies: {len(deadlock.dependencies)}; "
          f"deadlock free: {deadlock.deadlock_free}")

    # a deliberately cyclic pipeline: two stages allocate each other
    cyclic = MachineSpec("cyclic")
    stage_a, stage_b = SlotManager("A"), SlotManager("B")
    cyclic.state("I", initial=True)
    cyclic.state("P")
    cyclic.state("Q")
    cyclic.edge("I", "P", Condition([Allocate(stage_a)]))
    cyclic.edge("P", "Q", Condition([Allocate(stage_b)]))          # holds A, takes B
    cyclic.edge("Q", "P", Condition([Allocate(stage_a, slot="A2"),
                                     Release("A")]))               # holds B, takes A
    cyclic.edge("Q", "I", Condition([Release("A"), Release("B")]))
    bad = analyze_deadlock(cyclic)
    print(f"deliberately cyclic spec: deadlock free: {bad.deadlock_free}, "
          f"cycles found: {bad.cycles}\n")

    # --- static lint (osmlint) ---------------------------------------------------
    from repro.analysis.lint import lint_spec

    print("=== osmlint: static analysis of the specifications ===")
    report = lint_spec(spec)
    print(report.render_text())
    print(lint_spec(cyclic).render_text())  # flags the OSM008 resource cycle
    # break the StrongARM spec on purpose: forget a Release on an edge
    # back to I and the token-leak rule catches it without running anything
    broken = StrongArmModel(assemble(kernels.arm_source("alu_dep1"))).spec
    retire = next(e for e in broken.edges if e.dst.is_initial and e.condition.primitives)
    retire.condition = Condition(list(retire.condition.primitives)[1:])
    for diagnostic in lint_spec(broken).errors[:3]:
        print(diagnostic.render())
    print()

    # --- explicit-state model checking (osmcheck) --------------------------------
    from repro.analysis.check import check_model, check_system
    from repro.core import ALWAYS, Condition as Cond, Release as Rel

    print("=== osmcheck: explicit-state model checking ===")

    def linear_system():
        stage_a, stage_b = SlotManager("A"), SlotManager("B")
        linear = MachineSpec("linear")
        linear.state("I", initial=True)
        linear.state("P")
        linear.state("Q")
        linear.edge("I", "P", Cond([Allocate(stage_a)]))
        linear.edge("P", "Q", Cond([Allocate(stage_b), Rel("A")]))
        linear.edge("Q", "I", Cond([Rel("B")]))
        return linear, [stage_a, stage_b]

    verdict = check_system(*linear_system(), n_osms=3)
    print(verdict.render_text())

    # the whole StrongARM model, via the pure-token abstraction: every
    # CHK property verified over 2 concurrent operations
    print(check_model("strongarm", n_osms=2).render_text())

    # seed a token leak and the checker answers with the *shortest*
    # counterexample, naming the fired edges by their stable qualnames
    stage = SlotManager("S")
    leaky = MachineSpec("leaky")
    leaky.state("I", initial=True)
    leaky.state("P")
    leaky.edge("I", "P", Cond([Allocate(stage)]), label="grab")
    leaky.edge("P", "I", ALWAYS, label="retire")  # forgot the Release
    print(check_system(leaky, [stage], n_osms=2).render_text())
    print()

    # --- cross-layer ISA audit (isaaudit) ----------------------------------------
    from repro.analysis.audit import audit_target, build_target

    print("=== isaaudit: ISA/model cross-layer consistency ===")
    print(audit_target(build_target("arm"), codes=["ISA003"]).render_text())
    # break the hazard contract on purpose: hide every instruction's
    # first declared source register and the taint-shadow audit catches
    # the undeclared-but-architecturally-observable reads
    lobotomized = build_target("arm")
    real_decode = lobotomized.decode

    def hide_first_source(addr, word):
        instr = real_decode(addr, word)
        if instr.src_regs:
            instr.src_regs = instr.src_regs[1:]
        return instr

    lobotomized.decode = hide_first_source
    for diagnostic in audit_target(lobotomized, codes=["ISA004"]).errors[:3]:
        print(diagnostic.render())
    print()

    # --- effect/purity analysis (effectcheck) ------------------------------------
    from repro.analysis.effects import compilability_report, effects_spec
    from repro.core import Guard

    print("=== effectcheck: effect/purity certification of edge code ===")
    effects = effects_spec(spec)
    comp = compilability_report(spec, effects)
    print(effects.render_text())
    print(f"compilability: fully_compilable={comp.fully_compilable} "
          f"fusable={comp.fusable_states}")
    # seed an impure guard — one that mutates the OSM at probe time —
    # and EFF001 refuses to certify the edge for compilation
    impure = MachineSpec("impure")
    impure.state("I", initial=True)
    impure.state("P")
    stage = SlotManager("S")

    def sneaky(osm):
        osm.operation = None  # probe-time mutation: EFF001
        return True

    impure.edge("I", "P", Condition([Guard(sneaky, "sneaky"), Allocate(stage)]))
    impure.edge("P", "I", Condition([Release("S")]))
    bad_effects = effects_spec(impure)
    for diagnostic in bad_effects.errors[:2]:
        print(diagnostic.render())
    bad_comp = compilability_report(impure, bad_effects)
    unfused = [name for name, v in sorted(bad_comp.verdicts.items()) if not v.fusable]
    print(f"states kept on the interpreted reference: {unfused}")
    print()

    # --- compiler information -------------------------------------------------------
    print("=== compiler-facing extraction ===")
    print("reservation table (state, resources held):")
    for state, resources in reservation_table(spec):
        print(f"  {state}: {', '.join(resources)}")
    latencies = operand_latencies(lambda p: StrongArmModel(p, perfect_memory=True))
    print(f"operand latencies with forwarding   : {latencies}")
    latencies5 = operand_latencies(lambda p: Pipeline5Model(p))
    print(f"operand latencies without forwarding: {latencies5}")
    print("(the scheduler of a retargetable compiler consumes exactly these)")


if __name__ == "__main__":
    main()
