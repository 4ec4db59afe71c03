"""Record the output pins in ``expected.json`` from the current sources.

    python3 perfbench/record_expected.py

Only run this at a commit whose outputs are known to be right: every
later run compares against these pins byte for byte.  Witnesses
(arrows, isomorphisms, recognized decks) are not pinned; the pso
arrows printed here are still validated before anything is written.
"""

from __future__ import annotations

import json
import sys

import checks
import speed
import tracer as tracing
import workloads


def main() -> int:
    mf = workloads.import_mapforge()
    clock = speed.Clock()
    pipeline = workloads.PipelineScale({"pipeline": {}}, clock)
    pipeline.setup(mf, 0)
    pins: dict = {"pipeline": {}, "make_property": {}, "build": {}}
    for name, (text, rank, conns) in pipeline.inputs.items():
        outputs = {None: text}
        steps = {}
        for step, verb, argv, source in pipeline.steps(rank):
            code, out, err = pipeline.run_cli(tracing.NullTracer(), verb, argv,
                                              outputs.get(source, ""))
            if code not in (0, 1) or (code == 1 and verb != "pso"):
                raise SystemExit(f"{name}: {' '.join(argv)} exited {code}: {err}")
            outputs[step] = out
            steps[step] = pipeline.pin_of(step, code, out, err)
            if verb == "pso" and code == 0:
                arrows = out.splitlines()[-1].partition("arrows=")[2]
                if not checks.is_arrow_witness(conns, argv[-1], arrows):
                    raise SystemExit(f"{name}: {step} printed invalid arrows")
        pins["pipeline"][name] = steps

    surgery = workloads.SurgerySearch({}, clock)
    surgery.setup(mf, 0)
    for text, system in surgery.property_maps:
        for goal in mf.construct.MAKE_GOALS:
            grown = mf.construct.make_property(system, goal)
            pins["make_property"][f"{text}|{goal}"] = checks.system_pin(
                grown.rank, grown.connections)
    for group, surface in surgery.pairs:
        try:
            built = mf.construct.build_map_with_group(group, surface)
            pin = checks.system_pin(built.rank, built.connections)
        except (mf.errors.ExceptionalPair, mf.errors.OrientabilityMismatch) as exc:
            pin = "raise:" + type(exc).__name__
        pins["build"][f"{group}|{surface}"] = pin

    lines: list[str] = []
    spec = mf.corpus.CorpusSpec(seed=workloads.VERIFY_SEED_BASE)
    if not mf.corpus.run_verify(spec, emit=lines.append):
        raise SystemExit("verify failed at the default seed:\n" + "\n".join(lines))
    pins["verify_summary"] = "\n".join(lines)

    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
