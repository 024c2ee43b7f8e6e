"""Golden reports: `ffcac run` on small synthetic configs must reproduce
the exact bytes of report.json and of classifier.weights.

The hashes were recorded before the frozen sessions moved onto embedding
matrices, so any refactor of the session protocol, the classifiers or the
extractor that changes a prediction shows up here. Three incremental
sessions put the union test set (70 clips at the last session) past one
embedding chunk. The noise amplitude keeps the accuracies well below 1, so
a changed prediction changes a report byte. The report.json hashes were
re-recorded once, when the `classifier.relambda_each_session` key left the
report's config block; that line was the only byte that changed, and the
rrc classifier.weights hash is the original. The pbc classifier.weights
hash was first recorded when the prototype baseline became the ridge
memory at lam = inf, which left its report.json bytes as they were. Both
classifier.weights hashes were re-recorded once, on purpose, when the
training kernels began to sum their short axes as products with a ones
vector and to evaluate GELU in fewer passes: that changes the last bits of
the trained extractor, and so of the ridge memory built on its embeddings,
while both report.json hashes held.

The hashes hold for the float64 numpy/OpenBLAS stack the project is
developed on (x86-64); another BLAS may round differently. They were
recorded with two OpenBLAS threads, and the weights bytes depend on the
thread count (with one thread classifier.weights differs while report.json
does not), so each `ffcac run` runs in a child process with
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS pinned to 2. OpenBLAS uses at most
one thread per core, so the hashes need a host with two cores or more.

The child also reports whether it loaded scipy: no system at the golden
configs' width is wider than classifiers.NUMPY_MAX_ORDER, so a run must not
load it. This has to be a child process, as the tests import scipy
themselves.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffcac

SRC = Path(ffcac.__file__).resolve().parent.parent
BLAS_THREADS = "2"  # the thread count the hashes were recorded under

GOLDEN_BASE = """\
train.epochs = 3
run.repeats = 2
run.seed = 41
plan.base_classes = 5
plan.inc_classes = 3
plan.sessions = 3
synth.num_classes = 14
synth.clips_per_class = 12
synth.train_per_class = 7
synth.noise_amplitude = 0.8
"""

# case -> (extra config lines, report.json sha256, classifier.weights sha256)
GOLDEN = {
    "rrc": (
        "classifier.kind = rrc\n",
        "ec3d7de7152c88f2f5a2d00b4d9113257e29936447f3b0a4f3b20d4bd8304dce",
        "36927acb02c80d93349a076799b6765d3eab10d8b5bac43c53bff95a2cbd3c76",
    ),
    "pbc": (
        "classifier.kind = pbc\n",
        "2d62276c7efa7ca474074b5603c17a3bc23a3ed2141f593a74e6767970f40638",
        "ff4ac697c31024c95d7f8cac6d04576d31252a0ae3cf97ccac7c47e6b813fd94",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ffcac_run(cfg, out) -> bool:
    """Run ``ffcac run`` in a child process; True if the child loaded scipy."""
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    code = ("import sys; from ffcac import cli; rc = cli.main(sys.argv[1:]); "
            "print('scipy' in sys.modules); sys.exit(rc)")
    argv = [sys.executable, "-c", code, "run", "--config", str(cfg), "--out", str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_report_bytes(case, tmp_path):
    extra, report_sha, weights_sha = GOLDEN[case]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_BASE + extra)
    out = tmp_path / "out"
    _ffcac_run(cfg, out)
    assert _sha256(out / "report.json") == report_sha
    assert _sha256(out / "classifier.weights") == weights_sha


def test_a_run_at_the_golden_width_does_not_load_scipy(tmp_path):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_BASE + GOLDEN["rrc"][0])
    assert not _ffcac_run(cfg, tmp_path / "out")
