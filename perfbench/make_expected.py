"""Write expected_checks.json: the check ids and statuses of every verify manifest.

The table is the reference the benchmark checks reports against: a check id
recorded here that is missing from a report, or that reports another
status, fails the operation. Regenerate it only when a change alters the
report's checks on purpose:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads
from worker import _call, bootstrap

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected_checks.json"


def main() -> int:
    fdphase = bootstrap(HERE.parent)
    manifests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.WORKLOADS:
            for short in (False, True):
                for op in workloads.generate(name, 0, Path(tmp), short):
                    if op["kind"] == "verify":
                        key = workloads.manifest_key(op["dim"], op["theta0"], op["eta"])
                        manifests[key] = op["argv"]
    lists, index, table = [], {}, {}
    for key in sorted(manifests):
        status, _, _, text, err = _call(fdphase.cli.main, manifests[key])
        if status != 0:
            sys.stderr.write(f"{key}: exit {status}\n{err}")
            return 1
        checks = tuple(
            (r["check_id"], r["status"]) for r in json.loads(text)["records"]
        )
        if checks not in index:
            index[checks] = len(lists)
            lists.append([list(c) for c in checks])
        table[key] = index[checks]
    payload = {"tool_version": fdphase.TOOL_VERSION, "check_lists": lists, "manifests": table}
    EXPECTED.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} manifests, {len(lists)} distinct check lists -> {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
