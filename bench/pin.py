"""Record the outputs the current library gives on the benchmark's inputs.

    python3 bench/pin.py --workload local-oracle --seeds 0-19

Runs every input of each seed once, untraced, and refuses to pin an output
that fails an independent check.  The outputs are merged into
`bench/pinned/<workload>.json` as digests of argv and output; `run.py`
then requires byte-identical output for every pinned input.
Only re-pin after a change that is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.GENERATORS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    sys.path.insert(0, str(run.SRC))

    path = run.BENCH / "pinned" / f"{args.workload}.json"
    pins = run.load_pins(args.workload)
    for seed in range(int(first), int(last or first) + 1):
        _, cases = run.set_up(args.workload, seed)
        tally = run.Tally()
        _, outputs = run.run_pass(cases, {}, tally)
        if tally.failed:
            print(f"seed {seed}: {tally.failed} inputs fail their checks, not pinned",
                  *tally.reasons, sep="\n", file=sys.stderr)
            return 1
        for case, output in zip(cases, outputs):
            pins[run.digest(case.input.key)] = run.digest(output)
        print(f"seed {seed}: {len(cases)} inputs pinned", file=sys.stderr)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
