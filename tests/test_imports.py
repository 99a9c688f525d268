"""Import contracts: what a fresh process loads, and the lazy package names.

Every package of :mod:`repro` re-exports its public names lazily
(:mod:`repro._lazy`), so a process loads only the modules its code path
runs.  Each check runs in a fresh interpreter: the test session itself
has loaded everything long ago.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE_DIR = Path(SRC) / "repro"

LAZY_PACKAGES = (
    "repro", "repro.core", "repro.dse", "repro.ilp", "repro.intlin", "repro.model",
    "repro.obs", "repro.serve", "repro.symbolic", "repro.systolic",
)

#: Modules (and packages, with everything under them) that no search
#: runs: baselines, certificates, the ILP formulations, the simulator
#: and its renderers, the symbolic compiler, the service, trace reports.
FORBIDDEN = (
    "repro.core.baselines", "repro.core.certificates", "repro.core.pipeline",
    "repro.core.free_schedule", "repro.core.ilp_formulation", "repro.core.bitlevel",
    "repro.core.prop81", "repro.systolic.simulator", "repro.systolic.netlist",
    "repro.systolic.visualize", "repro.systolic.trace", "repro.symbolic", "repro.serve",
    "repro.obs.report",
)


def _fresh(code: str):
    """Run ``code`` in a fresh interpreter; its last output line is JSON."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_by(module: str) -> list[str]:
    return _fresh(
        f"import json, sys\nimport {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )


def _under(modules: list[str], prefixes) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


class TestImportContract:
    def test_procedure_5_1_loads_no_design_stack(self):
        loaded = _loaded_by("repro.core.optimize")
        assert _under(loaded, FORBIDDEN + ("repro.systolic", "repro.ilp")) == []

    def test_engine_loads_nothing_forbidden(self):
        # The design stack loads with the first design search, not with
        # the engine a schedule search also runs.
        banned = FORBIDDEN + ("repro.systolic", "repro.core.space_optimize")
        assert _under(_loaded_by("repro.dse.executor"), banned) == []

    def test_cli_loads_no_core(self):
        assert _under(_loaded_by("repro.cli"), ("repro.core",)) == []


_EXPORTS = """
import importlib, json
pkg = importlib.import_module({name!r})
report = {{"listed": sorted(set(pkg.__all__) - set(dir(pkg)))}}
try:
    pkg.no_such_name
    report["unknown"] = "resolved"
except AttributeError as exc:
    report["unknown"] = str(exc)
report["unresolved"] = []
for name in pkg.__all__:
    try:
        getattr(pkg, name)
    except AttributeError:
        report["unresolved"].append(name)
namespace = {{}}
exec("from {name} import *", namespace)
report["unbound"] = sorted(set(pkg.__all__) - set(namespace))
print(json.dumps(report))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_contract(package):
    # dir() lists the names before anything loads them; each resolves on
    # first use; an unknown name is an AttributeError; `import *` binds all.
    report = _fresh(_EXPORTS.format(name=package))
    assert report == {
        "listed": [],
        "unknown": f"module {package!r} has no attribute 'no_such_name'",
        "unresolved": [],
        "unbound": [],
    }


def _imported_module(path: Path, node: ast.ImportFrom) -> str:
    parts = ["repro", *path.relative_to(PACKAGE_DIR).with_suffix("").parts]
    base = parts[: len(parts) - node.level] if node.level else []
    return ".".join(base + [node.module] if node.module else base)


def test_code_imports_names_from_their_defining_module():
    # A name read through a lazy package root reaches mypy as the return
    # type of that root's __getattr__, i.e. Any; inside the package every
    # import names the submodule that defines it, so the typed kernel
    # (mypy over repro.core and repro.intlin) keeps its cross-package types.
    lazy = {name: set(importlib.import_module(name).__all__) for name in LAZY_PACKAGES}
    through_root = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        if path.name == "__init__.py":
            continue  # the package roots are where the tables live
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = _imported_module(path, node)
                names = {alias.name for alias in node.names} & lazy.get(module, set())
                through_root += [f"{path.name}:{node.lineno} {module}.{n}" for n in names]
    assert through_root == []


_BENCH_WARMUP = """
import json, sys
from repro.core import optimize
from repro.dse import executor
from repro.model import library
from repro.serve.protocol import encode_result

PROBLEMS = ((library.matrix_multiplication, [[1, 1, -1]]),
            (library.transitive_closure, [[0, 0, 1]]))

def queries(p51, explore, joint):
    for make, space in PROBLEMS:
        for mu in p51:
            assert optimize.procedure_5_1(make(mu), space).found
        for mu in explore:
            assert executor.explore_schedule(make(mu), space, jobs=1, cache=None).found
        for mu in joint:
            encode_result("joint", executor.explore_joint(make(mu), jobs=1, cache=None))

queries((3,), (3,), (2,))
before = set(sys.modules)
queries((6, 10, 18, 30, 50), (6, 18, 50), (3, 4, 5))
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""

_SERVED_JOB = """
import json, sys, tempfile, threading
from pathlib import Path
import repro.cli, repro.serve.server
before = set(sys.modules)
from repro.serve.bridge import execute_job
from repro.serve.protocol import parse_job_spec

spec = parse_job_spec({"task": "schedule", "algorithm": "matmul", "mu": [6],
                       "space": [[1, 1, -1]]})
with tempfile.TemporaryDirectory() as tmp:
    outcome = execute_job(spec, journal_path=Path(tmp) / "job.ckpt", cache=None,
                          stop=threading.Event())
assert outcome.state == "done", outcome
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""


class TestNoImportInsideAQuery:
    """A measured query must cost its search, not a module load."""

    def test_bench_queries_after_warmup(self):
        # The e2e bench children's warm-ups (mu 3 for the curves, mu 2
        # for the joint search), then the sizes they time.
        assert _fresh(_BENCH_WARMUP) == []

    def test_served_job_after_server_import(self):
        # What `repro serve` has loaded once /readyz answers is enough
        # to parse and run a schedule job.
        assert _fresh(_SERVED_JOB) == []
