"""Every function of the physics packages runs in a registry scenario, or is listed.

The import gate (``test_reachability.py``) cannot see a dead function inside
a module that is imported.  This gate runs every registry scenario three ways
under :func:`sys.setprofile` -- :func:`~repro.api.registry.run_scenario`
direct with a checkpoint taken at mid-run, resumed from that snapshot
(through JSON, the form a stored checkpoint takes), and as a
``BatchRunner(batched=True)`` batch over three seeds -- and records which
functions ran.  The probe runs in a fresh interpreter, so what earlier tests
left in process-wide caches cannot change its answer.

A row is a module-level function, or a method of a module-level class, in
one of :data:`PACKAGES`; nested functions belong to their enclosing row, and
the methods of a ``typing.Protocol`` declare an interface, not code.  A
row that did not run must be covered by :data:`UNCALLED`, whose keys are a
qualified name (``repro.md.atoms.AtomsSystem.copy``), a class or a whole
module or package (every row below the key).  The table can only shrink: a
key whose rows ran, or that names no row, fails the gate too.

Run as a script (``PYTHONPATH=src python tests/test_call_gate.py``) it prints
the lines in functions that ran against the lines in functions defined, per
package: the table ROADMAP item 14 quotes.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PACKAGES = ("qd", "md", "grid", "maxwell", "naqmd", "dc", "scf", "core",
            "precision", "perf", "topology", "batch", "nn", "xsnn",
            "parallel", "analysis", "utils")

_WIRES = "an open ROADMAP item wires it: "
_EXHIBIT = "paper exhibit: "
_ORACLE = "test oracle: "
_FIXTURE = "test fixture: "

#: qualified name, class, module or package -> why it stays uncalled.
UNCALLED = {
    # -- an open ROADMAP item wires it ---------------------------------
    "repro.nn": _WIRES + "item 13 (the xsnnqmd scenario kind)",
    "repro.xsnn": _WIRES + "item 13 (the xsnnqmd scenario kind)",
    "repro.md.atoms.AtomsSystem.copy":
        _WIRES + "item 13 (repro.nn.dataset copies its seed configurations)",
    "repro.md.forcefields.MorsePotential.compute":
        _WIRES + "item 13 (the GS and XS reference surfaces)",
    "repro.core.mlmd.MLMDPipeline.excitation_from_dcmesh":
        _WIRES + "item 8 (DC-MESH n_exc drives mlmd-photoswitch)",
    "repro.core.mlmd.MLMDPipeline.fluence_to_excitation":
        _WIRES + "item 8 (DC-MESH n_exc drives mlmd-photoswitch)",
    "repro.qd.hamiltonian.LocalHamiltonian.apply":
        _WIRES + "item 21 (per-step adiabatic energies for the hop); "
                 "also the matrix-free LOBPCG path above 4,096 grid points",
    "repro.qd.hamiltonian.LocalHamiltonian.orbital_energies":
        _WIRES + "item 21 (per-step adiabatic energies for the hop)",
    "repro.qd.occupations.OccupationState.apply_transition":
        _WIRES + "item 21 (a registry run that accepts a hop)",
    "repro.maxwell.pulses.TrapezoidalPulse":
        _WIRES + "item 12 (energy after a pulse that ends); it is the "
                 "pulse.kind='trapezoidal' spec option",
    # -- a paper exhibit: a named benchmark or example calls it --------
    "repro.parallel": _EXHIBIT + "the Fig. 4/5 and Table I/II cost models "
                                 "(bench_fig4/5, bench_table1/2, "
                                 "examples/scaling_study.py)",
    "repro.core.dcr": _EXHIBIT + "the DCR decomposition of Fig. 2 "
                                 "(examples/scaling_study.py)",
    "repro.perf.metrics": _EXHIBIT + "time-to-solution and scaling "
                                     "efficiencies (bench_table1/2, "
                                     "repro.parallel.scaling)",
    "repro.perf.flops": _EXHIBIT + "the Table III/V flop accounting "
                                   "(the kin_prop ladder, bench_table5)",
    "repro.precision.floats": _EXHIBIT + "BF16 emulation of the GEMM modes "
                                         "(bench_precision_ablation)",
    "repro.precision.policy": _EXHIBIT + "the Sec. V.B.7 precision "
                                         "assignment of core.dcr",
    "repro.grid.stencil": _EXHIBIT + "the stencil Laplacians of the Table "
                                     "III ladder (bench_kernel_speedups)",
    "repro.qd.kin_prop.KineticPropagator.kin_prop":
        _EXHIBIT + "the Table III ladder (bench_table3/5)",
    "repro.qd.kin_prop.KineticPropagator._taylor_apply":
        _EXHIBIT + "the Table III ladder (bench_table3/5)",
    "repro.qd.kin_prop.KineticPropagator.propagate_exact":
        _EXHIBIT + "bench_table1, bench_fig4 and bench_kernel_speedups",
    "repro.qd.nlp_prop.NonlocalCorrection.flop_count_per_call":
        _EXHIBIT + "bench_table4_flops",
    "repro.qd.nlp_prop.NonlocalCorrection.gemm_engine":
        _EXHIBIT + "bench_table5_kernels",
    "repro.md.lattice.perovskite_unit_cell":
        _EXHIBIT + "bench_table2_xs_t2s and bench_fig5 build supercells",
    "repro.md.lattice.perovskite_supercell":
        _EXHIBIT + "bench_table2_xs_t2s and bench_fig5 build supercells",
    "repro.md.neighborlist.NeighborList.pairs":
        _EXHIBIT + "bench_kernel_speedups reports pair counts",
    "repro.analysis.spectra": _EXHIBIT + "examples/quickstart.py's "
                                         "absorption spectrum",
    # -- tests use it as an oracle -------------------------------------
    "repro.analysis.conservation":
        _ORACLE + "norm, energy and momentum drift in test_scf_tddft, test_md",
    "repro.grid.poisson.poisson_residual":
        _ORACLE + "test_grid checks the Hartree solve against the stencil",
    "repro.qd.kin_prop.KineticPropagator.propagate_exact_reference":
        _ORACLE + "the FFT form of the kinetic step (test_qd_oracles)",
    "repro.md.neighborlist.brute_force_pairs":
        _ORACLE + "test_md and test_kernel_vectorization",
    "repro.md.neighborlist.build_pairs_reference":
        _ORACLE + "test_kernel_vectorization; bench_kernel_speedups",
    "repro.naqmd.ehrenfest.EhrenfestForces.electronic_forces_reference":
        _ORACLE + "test_kernel_vectorization",
    "repro.naqmd.ehrenfest.EhrenfestForces.ion_ion_energy_reference":
        _ORACLE + "test_kernel_vectorization",
    "repro.naqmd.ehrenfest.EhrenfestForces.ion_ion_forces_reference":
        _ORACLE + "test_kernel_vectorization",
    "repro.naqmd.surface_hopping.SurfaceHopping.populations":
        _ORACLE + "test_naqmd's population transfer",
    "repro.maxwell.pulses.GaussianPulse.electric_field":
        _ORACLE + "test_maxwell checks A(t) against E = -(1/c) dA/dt",
    "repro.md.localmode.LocalModeLattice.energy":
        _ORACLE + "the force's numerical gradient and energy conservation "
                  "(test_lattice_localmode)",
    "repro.md.localmode.LocalModeLattice.forces":
        _ORACLE + "the step's force against the two-force reference "
                  "(test_lattice_localmode)",
    "repro.md.localmode.force_evaluations":
        _ORACLE + "exact force counts (test_lattice_localmode, test_batch)",
    "repro.qd.occupations.OccupationState.total_electrons":
        _ORACLE + "electron conservation under transitions (test_qd_states)",
    # -- other tests build on it as a fixture --------------------------
    "repro.qd.wavefunctions.WaveFunctions.random":
        _FIXTURE + "random orthonormal orbitals for the QD and SCF tests",
    "repro.qd.wavefunctions.WaveFunctions.orthonormalize":
        _FIXTURE + "WaveFunctions.random",
    "repro.qd.wavefunctions.WaveFunctions.overlap_matrix":
        _FIXTURE + "WaveFunctions.random",
    "repro.qd.wavefunctions.WaveFunctions.from_plane_waves":
        _FIXTURE + "analytic states of the kinetic-propagator tests",
    "repro.qd.wavefunctions.WaveFunctions.normalize_each":
        _FIXTURE + "WaveFunctions.from_plane_waves",
    "repro.grid.grid3d.Grid3D.gaussian":
        _FIXTURE + "model densities of the Poisson, SCF and Ehrenfest tests",
    "repro.md.forcefields.HarmonicWells":
        _FIXTURE + "the analytic oscillator period of the integrator test",
}


@dataclass(frozen=True)
class Row:
    name: str
    module: str
    lines: int


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _first_line(node: ast.AST) -> int:
    # A decorated function's code starts at its first decorator.
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _span(node: ast.AST) -> int:
    return node.end_lineno - _first_line(node) + 1


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_protocol(node: ast.ClassDef) -> bool:
    # A typing.Protocol declares an interface: its methods never run.
    return any(getattr(base, "id", getattr(base, "attr", None)) == "Protocol"
               for base in node.bases)


def definitions(src: Path = SRC, root: str = "repro",
                packages: Iterable[str] = PACKAGES,
                ) -> Dict[Tuple[str, int], Row]:
    """The rows of ``root.<package>`` for each package, keyed by where their
    code starts: ``(resolved file path, first line)``."""
    rows: Dict[Tuple[str, int], Row] = {}
    for package in packages:
        for path in sorted((src / root / package).rglob("*.py")):
            module = _module_name(path, src)
            where = str(path.resolve())
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            for node in tree.body:
                if isinstance(node, _DEFS):
                    members = [(node.name, node)]
                elif isinstance(node, ast.ClassDef) and not _is_protocol(node):
                    members = [(f"{node.name}.{item.name}", item)
                               for item in node.body
                               if isinstance(item, _DEFS)]
                else:
                    continue
                for qualname, item in members:
                    rows[(where, _first_line(item))] = Row(
                        f"{module}.{qualname}", module, _span(item))
    return rows


def probe(workload: Callable[[], object]) -> Set[Tuple[str, int]]:
    """``(file path, first line)`` of every code object that ran in
    ``workload``, in this thread or in threads it started."""
    codes = {}

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    threading.setprofile(record)
    sys.setprofile(record)
    try:
        workload()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in codes.values()}


def ran_rows(rows: Mapping[Tuple[str, int], Row],
             ran: Set[Tuple[str, int]]) -> Set[str]:
    return {row.name for key, row in rows.items() if key in ran}


def _covers(key: str, name: str) -> bool:
    return name == key or name.startswith(key + ".")


def verdict(rows: Iterable[Row], ran: Set[str],
            uncalled: Mapping[str, str],
            ) -> Tuple[List[str], List[str], List[str]]:
    """Uncalled rows no key covers, keys whose rows ran, keys with no row."""
    names = {row.name for row in rows}
    unlisted = sorted(name for name in names - ran
                      if not any(_covers(key, name) for key in uncalled))
    stale = sorted(key for key in uncalled
                   if any(_covers(key, name) for name in ran))
    gone = sorted(key for key in uncalled
                  if not any(_covers(key, name) for name in names))
    return unlisted, stale, gone


def run_registry() -> None:
    """Every registry scenario direct (checkpointed at mid-run), resumed
    from that checkpoint, and batched over three seeds.

    Telemetry is off for the first two ways, as a run has it by default, and
    on for the batch, as a traced daemon has it: the QD step times its
    kernels only then."""
    from repro import telemetry
    from repro.api import BatchRunner, default_registry, run_scenario
    from repro.perf.workspace import KernelWorkspace

    telemetry.disable()
    for spec in default_registry():
        snapshots: List[dict] = []
        mid = max(1, spec.runtime.num_steps // 2)
        run_scenario(spec.copy(), workspace=KernelWorkspace(),
                     checkpoint_every=mid, on_checkpoint=snapshots.append)
        run_scenario(spec.copy(), workspace=KernelWorkspace(),
                     resume_from=json.loads(json.dumps(snapshots[0])))
        seeds = [spec.with_overrides({"seed": spec.seed + i}) for i in range(3)]
        telemetry.enable()
        try:
            BatchRunner(batched=True).run(seeds, raise_on_error=True)
        finally:
            telemetry.disable()


def line_table(rows: Mapping[Tuple[str, int], Row],
               ran: Set[str]) -> Dict[str, Tuple[int, int]]:
    """package -> (lines in rows that ran, lines in rows defined)."""
    table = {package: [0, 0] for package in PACKAGES}
    for row in rows.values():
        counts = table[row.module.split(".")[1]]
        counts[1] += row.lines
        if row.name in ran:
            counts[0] += row.lines
    return {package: (done, total) for package, (done, total) in table.items()}


def _probe_registry() -> Set[Tuple[str, int]]:
    # numpy and scipy are imported before the profile is set: their import
    # is not what the probe asks about, and it is slow under a profile.
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    return probe(run_registry)


@functools.lru_cache(maxsize=None)
def registry_probe() -> Tuple[Dict[Tuple[str, int], Row], Set[str]]:
    """The rows of ``src/repro``, and the names of those the registry ran,
    probed in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--json"],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    rows = definitions()
    return rows, ran_rows(rows, {tuple(key) for key in json.loads(proc.stdout)})


def test_every_uncalled_function_is_listed():
    rows, ran = registry_probe()
    unlisted = verdict(rows.values(), ran, UNCALLED)[0]
    assert not unlisted, (
        f"no registry scenario calls {unlisted}: wire each into a run path, "
        f"delete it, or list it in UNCALLED with the reason it stays")


def test_uncalled_table_only_shrinks():
    rows, ran = registry_probe()
    _, stale, gone = verdict(rows.values(), ran, UNCALLED)
    assert not stale, f"UNCALLED lists rows a registry scenario runs: {stale}"
    assert not gone, f"UNCALLED lists rows that no longer exist: {gone}"


def test_every_reason_is_one_of_the_four():
    kinds = (_WIRES, _EXHIBIT, _ORACLE, _FIXTURE)
    odd = sorted(key for key, reason in UNCALLED.items()
                 if not reason.startswith(kinds))
    assert not odd, f"UNCALLED rows without one of the four reasons: {odd}"


# ----------------------------------------------------------------------
# The gate's rules, on a synthetic package
# ----------------------------------------------------------------------
@pytest.fixture
def synthetic(tmp_path, monkeypatch):
    """``make(source)`` writes ``synth/tools/mod.py`` under ``tmp_path``,
    imports it and returns ``(module, rows of synth.tools)``."""
    src = tmp_path / "src"
    monkeypatch.syspath_prepend(str(src))

    def make(source: str):
        package = src / "synth" / "tools"
        package.mkdir(parents=True)
        (src / "synth" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(textwrap.dedent(source))
        importlib.invalidate_caches()
        module = importlib.import_module("synth.tools.mod")
        return module, definitions(src, "synth", ("tools",))

    yield make
    for name in [name for name in sys.modules
                 if name == "synth" or name.startswith("synth.")]:
        del sys.modules[name]


TWO_FUNCTIONS = """
    def used():
        return 1


    def unused():
        return 2
"""


def test_a_called_function_runs_and_an_uncalled_one_is_unlisted(synthetic):
    mod, rows = synthetic(TWO_FUNCTIONS)
    ran = ran_rows(rows, probe(mod.used))
    assert ran == {"synth.tools.mod.used"}
    assert verdict(rows.values(), ran, {}) == (
        ["synth.tools.mod.unused"], [], [])
    listed = {"synth.tools.mod.unused": _FIXTURE + "a test uses it"}
    assert verdict(rows.values(), ran, listed) == ([], [], [])


def test_functions_run_in_threads_the_workload_starts_count(synthetic):
    mod, rows = synthetic(TWO_FUNCTIONS)

    def workload():
        worker = threading.Thread(target=mod.unused)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    assert ran_rows(rows, probe(workload)) == {"synth.tools.mod.unused"}


def test_decorated_functions_and_properties_map_to_their_rows(synthetic):
    mod, rows = synthetic("""
        import functools


        def trace(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return func(*args, **kwargs)
            return wrapper


        @trace
        def decorated():
            return 1


        class Box:
            @property
            def size(self):
                return 3

            @staticmethod
            @trace
            def stacked():
                return 4
    """)
    # A decorated function's code starts at its first decorator, not at
    # its ``def`` line, and that start is all Python 3.10 tells the probe.
    start = mod.decorated.__wrapped__.__code__.co_firstlineno
    assert "@trace" in inspect.getsourcelines(mod.decorated.__wrapped__)[0][0]
    assert rows[(os.path.realpath(mod.__file__), start)].name \
        == "synth.tools.mod.decorated"
    ran = ran_rows(rows, probe(lambda: (mod.decorated(), mod.Box().size)))
    assert ran == {"synth.tools.mod.decorated", "synth.tools.mod.Box.size"}
    # ``trace`` ran at import, before the probe; ``stacked`` never ran.
    assert verdict(rows.values(), ran, {})[0] == [
        "synth.tools.mod.Box.stacked", "synth.tools.mod.trace"]


def test_a_nested_closure_is_not_a_row(synthetic):
    mod, rows = synthetic("""
        def outer():
            def inner():
                return 1
            return inner()


        def factory():
            def never_called():
                return 2
            return never_called
    """)
    assert {row.name for row in rows.values()} == {
        "synth.tools.mod.outer", "synth.tools.mod.factory"}
    ran = ran_rows(rows, probe(lambda: (mod.outer(), mod.factory())))
    assert verdict(rows.values(), ran, {}) == ([], [], [])


def test_protocol_methods_are_not_rows(synthetic):
    _, rows = synthetic("""
        from typing import Protocol


        class Shape(Protocol):
            def area(self) -> float:
                ...


        class Square:
            def area(self) -> float:
                return 1.0
    """)
    assert {row.name for row in rows.values()} == {
        "synth.tools.mod.Square.area"}


def test_a_whole_module_row_goes_stale_when_one_of_its_functions_runs(
        synthetic):
    mod, rows = synthetic(TWO_FUNCTIONS)
    for key in ("synth.tools.mod", "synth.tools"):
        listed = {key: _EXHIBIT + "a benchmark calls it"}
        idle = ran_rows(rows, probe(lambda: None))
        assert verdict(rows.values(), idle, listed) == ([], [], [])
        ran = ran_rows(rows, probe(mod.used))
        assert verdict(rows.values(), ran, listed) == ([], [key], [])


def test_a_row_whose_function_was_deleted_is_gone(synthetic):
    mod, rows = synthetic(TWO_FUNCTIONS)
    ran = ran_rows(rows, probe(mod.used))
    listed = {"synth.tools.mod.unused": _ORACLE + "a test compares with it",
              "synth.tools.mod.removed": _ORACLE + "deleted since",
              "synth.tools.gone": _EXHIBIT + "a deleted module"}
    assert verdict(rows.values(), ran, listed) == (
        [], [], ["synth.tools.gone", "synth.tools.mod.removed"])


def main(argv: List[str]) -> int:
    ran = _probe_registry()
    if "--json" in argv:
        package = str((SRC / "repro").resolve())
        print(json.dumps(sorted(key for key in ran
                                if key[0].startswith(package))))
        return 0
    rows = definitions()
    print(f"{'package':<10} {'ran':>5} / {'defined':<7}")
    for name, (done, total) in line_table(rows, ran_rows(rows, ran)).items():
        print(f"{name:<10} {done:>5} / {total:<7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
