"""Recorded mutants of src/enloc and the runner that checks each is caught.

Each mutant replaces one exact snippet of one module with a faulty version
and names the tests that must fail on it. The runner copies src/ to a
temporary directory, applies the mutant there and runs only its tests, with
-x, from the repository root, the copy first on the import path. It reports
each mutant as

- caught: a named test failed;
- survived: every named test passed;
- stale: the snippet no longer occurs exactly once, or pytest does not find
  a named test, so that a rename cannot drop a mutant silently.

Any other end of the run, such as a collection error, raises.

A mutant with a `survives` reason is a declared survivor: a known gap in the
tests, kept in the table so that a test which starts to catch it is seen.
The runner checks that the tests imported enloc from the mutated copy, not
from an installed one.

    python tests/mutants.py [NAME ...]

runs the whole table, or the named mutants, and exits 1 when a mutant is
stale or an undeclared one survives. pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs pytest in the child and reports where the tests' enloc came from
_PYTEST = """\
import sys, pytest
code = pytest.main(sys.argv[1:])
print("\\nenloc imported from:", getattr(sys.modules.get("enloc"), "__file__", None))
sys.exit(code)
"""


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/enloc
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root
    survives: str | None = None  # why no test catches it, for a declared survivor


MUTANTS = [
    # the taper field
    Mutant("taper rows applied to the rows of another block", "smoother.py",
           "            gain *= r\n", "            gain *= r[::-1]\n",
           ("tests/test_smoother.py::test_run_matches_dense_oracle",)),
    Mutant("taper field rebuilt from each step's forecast", "smoother.py",
           "            if step == 1:  # the run's one taper field\n",
           "            if True:\n",
           ("tests/test_smoother.py::test_run_matches_dense_oracle",)),
    Mutant("kept taper block that differs from its recomputation", "smoother.py",
           "np.empty((blk.width, self.n_data), dtype=np.float32)",
           "np.empty((blk.width, self.n_data), dtype=np.float64)",
           ("tests/test_smoother.py::test_run_matches_dense_oracle",)),
    # the footprint
    Mutant("footprint skips the every-pair check", "metrics.py",
           "    if counts.sum() != n_params * n_data:\n", "    if False:\n",
           ("tests/test_metrics.py::test_taper_histogram",
            "tests/test_smoother.py::test_footprint_needs_every_block_read")),
    Mutant("kept taper block's part never recorded", "smoother.py",
           "        if blk.start not in self._parts:\n",
           "        if blk not in self._kept and blk.start not in self._parts:\n",
           ("tests/test_smoother.py::test_footprint_tallies_each_block_once",)),
    Mutant("a block's part taken again at every read", "smoother.py",
           "        if blk.start not in self._parts:\n", "        if True:\n",
           ("tests/test_smoother.py::test_tally_closes_once_every_pair_is_binned",)),
    # the random-field factor
    Mutant("no refill before the dense factorization", "models.py",
           "        _fill_lower(low, windows, jitter)\n", "",
           ("tests/test_models.py::test_grf_factor_failed_schur_gives_dense_factor",)),
    Mutant("every Schur factor accepted", "models.py",
           "            if residual <= _SCHUR_RESIDUAL and residual * inverse_norm <= _SCHUR_ERROR:\n",
           "            if True:\n",
           ("tests/test_models.py::test_grf_factor_failed_schur_gives_dense_factor",)),
    Mutant("no shift of the Schur generator", "models.py",
           "        gen[nx:, :nx] = gen[:-nx, :nx]  # the first half shifted down one block\n", "",
           ("tests/test_models.py::test_grf_factor_within_derived_tolerance_of_dense_oracle",)),
    Mutant("a failed Schur step moves on to the next jitter", "models.py",
           "        except np.linalg.LinAlgError:\n            pass\n",
           "        except np.linalg.LinAlgError:\n            continue\n",
           ("tests/test_models.py::test_grf_factor_failed_schur_gives_dense_factor",)),
    Mutant("the ||C^-1|| bound ignored", "models.py",
           " and residual * inverse_norm <= _SCHUR_ERROR:", ":",
           ("tests/test_models.py::test_grf_factor_within_derived_tolerance_of_dense_oracle",)),
    Mutant("a draw's normals on the heap", "models.py",
           "z = np.frombuffer(mmap.mmap(-1, max(n * width, 1) * 8), dtype=float, count=n * width)",
           "z = np.empty(n * width)",
           ("tests/test_models.py::test_grf_draw_returns_its_normals_to_the_system",)),
    Mutant("a layer's normals drawn whole", "models.py",
           "    chunk = np.empty((max(1, 2**15 // count), count))\n",
           "    chunk = np.empty((n, count))\n",
           ("tests/test_models.py::test_grf_draw_holds_no_layer_of_normals_on_the_heap",)),
    # the Schur check's halves and the inverse-norm estimate (ROADMAP 13(b))
    Mutant("Schur check of the row norms alone", "models.py",
           "    residual = max(np.max(np.abs(norms - (1.0 + jitter))), np.max(np.abs(last)))\n",
           "    residual = np.max(np.abs(norms - (1.0 + jitter)))\n",
           ("tests/test_models.py::test_grf_factor_within_derived_tolerance_of_dense_oracle",
            "tests/test_models.py::test_grf_factor_failed_schur_gives_dense_factor"),
           survives="on every test geometry the two halves read within a few percent"),
    Mutant("Schur check of the last block row alone", "models.py",
           "    residual = max(np.max(np.abs(norms - (1.0 + jitter))), np.max(np.abs(last)))\n",
           "    residual = np.max(np.abs(last))\n",
           ("tests/test_models.py::test_grf_factor_within_derived_tolerance_of_dense_oracle",
            "tests/test_models.py::test_grf_factor_failed_schur_gives_dense_factor"),
           survives="on every test geometry the two halves read within a few percent"),
    Mutant("forward solve without its off-diagonal update", "models.py",
           "        solved[c + nx :] -= below @ solved[c : c + nx]\n", "",
           ("tests/test_models.py::test_grf_factor_within_derived_tolerance_of_dense_oracle",),
           survives="the weaker estimate still rejects both nearly singular kernels"),
]


def run(mutant: Mutant, timeout: float = 600.0) -> str:
    """'caught', 'survived' or 'stale': the outcome of one mutant.

    Raises RuntimeError when pytest ends otherwise, or when the tests ran
    on an enloc other than the copy. A run past the timeout counts as caught.
    """
    with tempfile.TemporaryDirectory(prefix="enloc-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "enloc" / mutant.module
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return "stale"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _PYTEST, "-x", "-q", "-p", "no:cacheprovider",
                 *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return "caught"
        if proc.returncode in (4, 5):  # a named test not found, or none collected
            return "stale"
        if proc.returncode not in (0, 1):  # interrupted, or an internal error
            raise RuntimeError(f"{mutant.name}: pytest exited {proc.returncode}:\n"
                               f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        origin = proc.stdout.rsplit("enloc imported from: ", 1)[-1].strip()
        if not Path(origin).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"{mutant.name}: the tests imported enloc from {origin}, "
                               "not from the mutated copy")
        return "survived" if proc.returncode == 0 else "caught"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in chosen}:
        sys.exit(f"no such mutant: {sorted(unknown)}")
    bad = 0
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        note = ""
        if outcome == "stale" or (outcome == "survived" and mutant.survives is None):
            bad += 1
        elif outcome == "survived":
            note = f"  [declared survivor: {mutant.survives}]"
        elif mutant.survives is not None:
            note = "  [a declared survivor, now caught]"
        print(f"{outcome:8}  {mutant.name}  ({time.perf_counter() - start:.1f} s){note}",
              flush=True)
    print(f"{len(chosen)} mutants, {bad} stale or undeclared survivors")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
