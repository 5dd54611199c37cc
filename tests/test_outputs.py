"""Every CSV the manifest's cases write, against the digests in tests/data/outputs.json.

The manifest is written by tests/outputs_manifest.py; regenerate it with that script after an
intended output change and say which cases changed.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import peierls

MANIFEST = Path(__file__).with_name("data") / "outputs.json"
SCRIPT = Path(__file__).with_name("outputs_manifest.py")

# Outside the environment that wrote the manifest, a column's min and max may move by this much
# relative to the column's largest finite magnitude, and its sum by that times the count.  Between
# one and two BLAS threads the reference kink-propagate's values moved by at most 3.1e-16 of that
# scale, and no summary of any case moved.
SUMMARY_BOUND = 1e-9


def test_outputs_match_the_manifest(tmp_path):
    # a fresh interpreter, so the script can pin one BLAS thread before numpy loads
    env = {**os.environ, "PYTHONPATH": str(Path(peierls.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "outputs.json")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected, got = (json.loads(path.read_text()) for path in (MANIFEST, tmp_path / "outputs.json"))
    same_environment = got["environment"] == expected["environment"]
    assert [case["argv"] for case in got["cases"]] == [case["argv"] for case in expected["cases"]]
    for want, have in zip(expected["cases"], got["cases"]):
        if same_environment:
            assert have == want, want["argv"]
            continue
        assert (have["exit"], have.get("csv")) == (want["exit"], want.get("csv")), want["argv"]
        assert have.get("columns", {}).keys() == want.get("columns", {}).keys(), want["argv"]
        for name, column in want.get("columns", {}).items():
            summary = {key: float.fromhex(value) for key, value in column.items() if key != "count"}
            other = {key: float.fromhex(value) for key, value in have["columns"][name].items() if key != "count"}
            assert have["columns"][name]["count"] == column["count"], (want["argv"], name)
            scale = max(abs(summary["min"]), abs(summary["max"]))
            for key, bound in (("min", 1), ("max", 1), ("sum", column["count"])):
                assert math.isclose(other[key], summary[key], rel_tol=0.0, abs_tol=SUMMARY_BOUND * bound * scale), (
                    want["argv"], name, key)
