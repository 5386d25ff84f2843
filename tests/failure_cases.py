"""The documented CLI failures, run as real processes.

Each row of failure_cases.json is one input that must fail cleanly:
  id        the row's name
  argv      the arguments after `nearscat`; "{file}" stands for the path
            of an existing file
  config    optional: an override, written to a file and passed as --config
  exit      the expected exit code, 2 (config) or 3 (numerical)
  error     the expected JSON error class, "config" or "numerical"
  prefix    optional: the start of the expected message
  contains  optional: a substring of the expected message

A row runs as `python -W error::RuntimeWarning -m nearscat.cli ...` in an
empty directory, and passes if the process exits with its code, writes
nothing to stdout, and writes exactly one JSON line with its error class and
message, and no traceback, to stderr.  tests/test_cli.py runs every row;
as a script this module runs every row, or the rows named, without pytest:

    PYTHONPATH=src python tests/failure_cases.py [id ...]
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import nearscat

CASES = json.loads(Path(__file__).with_name("failure_cases.json").read_text())
SRC = Path(nearscat.__file__).resolve().parents[1]


def check_case(case, workdir):
    """Run one row in the empty directory workdir; AssertionError if it fails."""
    workdir = Path(workdir)
    existing = workdir / "file"
    existing.write_text("")
    argv = [str(existing) if arg == "{file}" else arg for arg in case["argv"]]
    if "config" in case:
        override = workdir / "override.json"
        override.write_text(json.dumps(case["config"]))
        argv += ["--config", str(override)]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nearscat.cli", *argv],
        cwd=workdir, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == case["exit"], f"exit {proc.returncode}: {proc.stderr}"
    assert proc.stdout == "", proc.stdout
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, f"{len(lines)} stderr lines: {proc.stderr}"
    err = json.loads(lines[0])
    assert err["error"] == case["error"], lines[0]
    assert err["message"].startswith(case.get("prefix", "")), lines[0]
    assert case.get("contains", "") in err["message"], lines[0]


def main(ids):
    unknown = set(ids) - {case["id"] for case in CASES}
    if unknown:
        sys.exit(f"no failure case {sorted(unknown)}")
    failed = 0
    for case in CASES:
        if ids and case["id"] not in ids:
            continue
        with tempfile.TemporaryDirectory() as workdir:
            try:
                check_case(case, workdir)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {case['id']}: {exc}")
            else:
                print(f"ok   {case['id']}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
