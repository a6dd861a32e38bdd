#!/usr/bin/env python3
"""Check that a revision and the work tree write the same outputs.

    python3 scripts/same_outputs.py <rev> [PATTERN ...]

Runs one fixed set of commands on a ``git archive`` of ``<rev>`` and on a
copy of the work tree (its tracked files and the untracked ones git does
not ignore), each tree in a directory of its own with its own ``src/`` on
``PYTHONPATH``:

- ``sma simulate`` on every ``configs/*.json`` of the work tree, at 1 and
  2 workers;
- ``scripts/run_paper_sim.py``, full and ``--quick``;
- ``sma calibrate --self-test`` and ``sma select`` on ``configs/paper.json``,
  for known and bootstrap noise in both threshold modes.

Each run's exit code, stdout and stderr (its tree's path masked) and every
file it writes are compared byte for byte.  A difference prints as
``<run>: exit``, ``<run>: stdout``, ``<run>: stderr`` or ``<run>/<file>``;
with none, the script prints "identical".  It exits 1 on a difference that
no ``fnmatch`` PATTERN on its command line names, and 0 otherwise.
"""

import argparse
import fnmatch
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def commands() -> dict[str, list[str]]:
    """Each run's name and command line, run from a tree's root; it writes under ``out/<name>``."""
    sma = [sys.executable, "-m", "smaselect.cli"]
    runs = {}
    for config in sorted((ROOT / "configs").glob("*.json")):
        for workers in ("1", "2"):
            name = f"simulate-{config.stem}-w{workers}"
            runs[name] = [*sma, "simulate", "--config", f"configs/{config.name}",
                          "--workers", workers, "--out", f"out/{name}"]
    for name, quick in (("paper-sim", []), ("paper-sim-quick", ["--quick"])):
        runs[name] = [sys.executable, "scripts/run_paper_sim.py", *quick,
                      "--workers", "2", "--out", f"out/{name}"]
    for command, self_test in (("calibrate", ["--self-test"]), ("select", [])):
        for noise in ("known", "bootstrap"):
            for mode, power_a in (("prob", []), ("power", ["--a", "1"])):
                name = f"{command}-{noise}-{mode}"
                runs[name] = [*sma, command, *self_test, "--noise", noise, "--mode", mode, *power_a,
                              "--config", "configs/paper.json", "--out", f"out/{name}"]
    return runs


def archive(rev: str, tree: Path) -> None:
    """``git archive`` of ``rev``, unpacked into ``tree``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as files:
        files.extractall(tree)


def work_tree(tree: Path) -> None:
    """The work tree's files that git tracks or would track, copied into ``tree``."""
    listed = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the work tree is left out
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tree / name)


def run_all(tree: Path) -> dict[str, bytes]:
    """Every output of every run in ``tree``, by the name a difference prints under."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(threads, "1")
    outputs, here = {}, str(tree).encode()
    for name, argv in commands().items():
        print(f"{tree.name}: {name}", file=sys.stderr, flush=True)
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True)
        outputs[f"{name}: exit"] = str(done.returncode).encode()
        outputs[f"{name}: stdout"] = done.stdout.replace(here, b"<tree>")
        outputs[f"{name}: stderr"] = done.stderr.replace(here, b"<tree>")
        for path in sorted((tree / "out" / name).rglob("*")):
            if path.is_file():
                outputs[f"{name}/{path.relative_to(tree / 'out' / name)}"] = path.read_bytes()
    return outputs


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("rev", help="the revision to compare the work tree with, e.g. HEAD~1")
    ap.add_argument("allowed", nargs="*", metavar="PATTERN", help="differences to allow (fnmatch)")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        old, new = Path(tmp, "rev"), Path(tmp, "work")
        old.mkdir()
        new.mkdir()
        archive(args.rev, old)
        work_tree(new)
        before, after = run_all(old), run_all(new)
    differences = sorted(name for name in before.keys() | after.keys()
                         if before.get(name) != after.get(name))
    refused = [name for name in differences
               if not any(fnmatch.fnmatchcase(name, pattern) for pattern in args.allowed)]
    for name in differences:
        print(f"{'differs' if name in refused else 'allowed'}: {name}")
    print("identical" if not differences else f"{len(refused)} difference(s) not allowed")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
