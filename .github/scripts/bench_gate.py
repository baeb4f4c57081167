"""Echo a perfbench run's output, then check gates on its metrics.

    python3 perfbench/run.py --workload train ... | \
        python3 .github/scripts/bench_gate.py 'mAP>=0.5' 'negation.bnl_loss.calls==20'

The run's record is the last line of stdin that starts with `{`. Each gate
compares `metrics[NAME]["value"]` of that record with VALUE, by `>=` or
`==`. The script exits 1 when any gate fails, naming the metric, its value
and the bound, and 2 when a gate is not of the form NAME>=VALUE or
NAME==VALUE.
"""

import json
import operator
import re
import sys

COMPARISONS = {">=": operator.ge, "==": operator.eq}


def main(gates: list[str]) -> int:
    parsed = []
    for gate in gates:
        match = re.fullmatch(r"(.+?)(>=|==)(.+)", gate)
        try:
            parsed.append((match[1], match[2], float(match[3])))
        except (TypeError, ValueError):
            print(f"bench_gate: {gate!r} is not NAME>=VALUE or NAME==VALUE", file=sys.stderr)
            return 2
    out = sys.stdin.read()
    print(out, end="")
    records = [line for line in out.splitlines() if line.startswith("{")]
    if not records:
        print("bench_gate: the run printed no JSON record", file=sys.stderr)
        return 1
    metrics = json.loads(records[-1])["metrics"]
    failed = False
    for name, op, bound in parsed:
        value = metrics.get(name, {}).get("value")
        if value is None or not COMPARISONS[op](value, bound):
            shown = "missing" if value is None else value
            print(f"bench_gate: {name} is {shown}, not {op} {bound:g}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
