"""Record the pinned result digest of every catalog item.

Run from the repository root, on the commit whose results are the
reference:

    python3 bench/pin.py [workload ...]

An item whose operation is refused (a known defect) is pinned with a null
result; the benchmark then counts it as refused, or as fixed once it
succeeds.  Pins of workloads not named are kept.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads as W  # noqa: E402

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def pin_workload(workload: str, root: str) -> dict:
    strata = W.catalog(workload)
    if workload == "towers":
        W.warm_up_towers()
    workdir = tempfile.mkdtemp(prefix="pin-", dir=os.path.dirname(PINS))
    pins = {}
    try:
        for items in strata.values():
            W.write_cli_inputs(items, workdir)
            for item in items:
                entry = {"input": item.fingerprint(), "result": None}
                try:
                    entry["result"] = W.digest(W.run_item(item, workdir, root))
                except W.Refusal as exc:
                    entry["refusal"] = str(exc).splitlines()[0][:120]
                    print(f"{workload} {item.key}: refused: {entry['refusal']}")
                pins[item.key] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pins


def main(names) -> None:
    root = os.getcwd()
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    for name in names or W.WORKLOADS:
        pins[name] = pin_workload(name, root)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
