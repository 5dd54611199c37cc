"""Write the digest manifest of the CLI's CSV outputs: ``python tests/outputs_manifest.py [PATH]``.

Runs every case in `CASES` through `peierls.cli.main` in this interpreter, at one
BLAS thread, and writes PATH (default ``tests/data/outputs.json``).  Per case it
records the argv, the exit code and, where the command wrote a CSV, the CSV's
SHA-256 and, per float column, the count, min, max and sum of its finite values
as hex floats.  It also records the environment that wrote it.  Run it to
regenerate the manifest after an intended output change; ``tests/test_outputs.py``
runs it in a fresh interpreter and compares the result with the checked-in file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

DEFAULT_PATH = Path(__file__).with_name("data") / "outputs.json"

# the six CSV commands on both references, then the edge cases: NaN landscape cells,
# a one-mode ring, a long and an odd kink chain, a diverging trajectory and a tiny hopping
CASES = [
    [command, "--reference", reference]
    for command in ("landscape", "critical-points", "spectrum", "dynamics", "kink-spectrum", "kink-propagate")
    for reference in ("double_well", "kink_dynamics")
] + [
    ["landscape", "--reference", "double_well", "--set", "w=-3", "--set", "re_max=1.5"],
    ["spectrum", "--reference", "double_well", "--set", "big_l=1"],
    ["kink-spectrum", "--reference", "kink_dynamics", "--set", "n_sites=1000", "--set", "kink_site=400"],
    ["kink-propagate", "--reference", "kink_dynamics", "--set", "n_sites=61", "--set", "kink_site=30"],
    ["dynamics", "--reference", "double_well", "--set", "x0=0.3"],
    ["kink-spectrum", "--reference", "kink_dynamics", "--set", "t=1e-14"],
]


def column_summaries(text: str) -> dict[str, dict[str, object]]:
    """Per float column of a CSV text: the count, min, max and sum (math.fsum) of its finite values,
    the last three as hex floats.  A float column is one whose cells all parse as floats and are not
    all integer literals."""
    header, *rows = text.splitlines()
    out = {}
    for name, cells in zip(header.split(","), zip(*(row.split(",") for row in rows))):
        try:
            values = [float(cell) for cell in cells]
        except ValueError:
            continue
        if all(cell.lstrip("-").isdigit() for cell in cells):
            continue
        finite = [v for v in values if math.isfinite(v)]
        out[name] = {"count": len(finite), "min": min(finite, default=math.nan).hex(),
                     "max": max(finite, default=math.nan).hex(), "sum": math.fsum(finite).hex()}
    return out


def environment() -> dict[str, str]:
    import numpy
    import orjson
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "orjson": orjson.__version__, "platform": platform.platform()}


def run_cases() -> list[dict[str, object]]:
    import peierls.cli

    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(CASES):
            out = Path(tmp) / str(i)
            case: dict[str, object] = {"argv": argv, "exit": peierls.cli.main([*argv, "-o", str(out)])}
            csvs = sorted(out.glob("*.csv"))
            if csvs:
                data = csvs[0].read_bytes()
                case["csv"] = csvs[0].name
                case["sha256"] = hashlib.sha256(data).hexdigest()
                case["columns"] = column_summaries(data.decode("ascii"))
            cases.append(case)
    return cases


def main(path: Path) -> None:
    # one BLAS thread, set before numpy loads: the reference kink-propagate's bytes depend on the count
    if "numpy" in sys.modules:
        raise SystemExit("run this script in a fresh interpreter: numpy is already loaded")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    manifest = {"environment": environment(), "cases": run_cases()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_PATH)
