"""The package surface: lazy layer loading and what each layer imports."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

# every exported name, by the layer that defines it
SURFACE = {
    "errors": (
        "AmbiguousBranch CountMismatch EmptySpectrum "
        "EnergyBelowRegion GridTooCoarse NoAdmissibleBranch NoConvergence "
        "NoPerfectSquare NoScatteringRegion NonFiniteEnergy NuSpectralError ParseError"
    ),
    "scalars": "SurdSum as_exact scalar_float sqrt_scalar",
    "polynomials": "HALF_LINE REAL_LINE UNIT_INTERVAL Interval Polynomial",
    "hyper": (
        "Limit2F1 SeriesResult gamma_fn hermite_fn hyp1f1 hyp2f1 hyp2f1_regularized "
        "hypU limit_2f1_at_1 pochhammer wronskian_defect"
    ),
    "classical": (
        "CanonicalHde classify_canonical eigen_lambda norm_sq recurrence_poly rodrigues_poly"
    ),
    "reduction": (
        "EpsAffinePoly FactorizedFunction GheProblem NuBranch ReductionResult "
        "branch_candidates chi_from_pi parse_ghe_text pearson_weight reduce_ghe"
    ),
    "oracle": (
        "FdGrid compare_spectra fd_bound_states inner_product norm_defect "
        "orthogonality_defect quad_adaptive tanh_sinh"
    ),
    "potentials": (
        "BoundState PotentialSpec ScatteringState bound_spectrum bound_state eigen_eps "
        "eigenvalue_count harmonic morse "
        "normalization_defect oracle_spectrum "
        "pinned_branch rosen_morse2 scattering_states wavefunction_residual"
    ),
}


def _fresh(probe):
    """The last stdout line of a fresh interpreter running probe."""
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, check=True, text=True
    )
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "layer", ["scalars", "polynomials", "classical", "reduction", "hyper", "errors"]
)
def test_exact_layers_load_no_numpy(layer):
    probe = f"import sys, nu_spectral.{layer}; print('numpy' in sys.modules)"
    assert _fresh(probe) == "False"


def test_import_loads_no_layer():
    probe = (
        "import sys, nu_spectral; "
        "print(sorted(m for m in sys.modules if m.startswith(('nu_spectral.', 'numpy'))))"
    )
    assert _fresh(probe) == "[]"


def test_normalization_loads_no_module():
    # the window search and the partition of a deep level's window load
    # nothing that building the spectrum has not (numpy.ma, which np.unique
    # pulls in, costs RSS)
    probe = (
        "import sys; from nu_spectral import potentials as p; "
        "wells = [(p.harmonic(), 12), (p.morse(Lambda=12.25), None), "
        "(p.rosen_morse2(24, 0.25), None), (p.morse(Lambda=300), 0)]; "
        "spectra = [(spec, p.bound_spectrum(spec, n_max)) for spec, n_max in wells]; "
        "before = set(sys.modules); "
        "[p.normalization_defect(spec, st) for spec, states in spectra for st in states]; "
        "print(sorted(set(sys.modules) - before))"
    )
    assert _fresh(probe) == "[]"


def test_first_attribute_loads_every_layer():
    probe = (
        "import sys, nu_spectral; nu_spectral.hypU; "
        "print(sorted(m for m in sys.modules if m.startswith('nu_spectral.')))"
    )
    assert _fresh(probe) == str(sorted(f"nu_spectral.{layer}" for layer in SURFACE))


def test_every_export_is_its_layers_object():
    import nu_spectral

    names = [name for group in SURFACE.values() for name in group.split()]
    assert sorted(nu_spectral.__all__) == sorted(names)
    for layer, group in SURFACE.items():
        module = importlib.import_module(f"nu_spectral.{layer}")
        for name in group.split():
            assert getattr(nu_spectral, name) is getattr(module, name), name


def test_dir_and_star_import():
    # from a cold package: dir lists the exports before any layer loads, and
    # a star import loads them all
    probe = (
        "import nu_spectral; listed = set(nu_spectral.__all__) <= set(dir(nu_spectral)); "
        "ns = {}; exec('from nu_spectral import *', ns); ns.pop('__builtins__'); "
        "print(listed, sorted(ns) == sorted(nu_spectral.__all__))"
    )
    assert _fresh(probe) == "True True"


def test_unknown_attribute_raises():
    import nu_spectral

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        nu_spectral.no_such_name
    assert not hasattr(nu_spectral, "__no_such_dunder__")


def test_only_classical_tells_families_apart():
    # every family-specific fact lives in classical's Family records; the one
    # name test left is the lookup that rejects an unknown family
    import nu_spectral

    pattern = re.compile(r"family (==|in \()|unknown family")
    hits = {
        path.name: sum(bool(pattern.search(line)) for line in path.read_text().splitlines())
        for path in Path(nu_spectral.__file__).parent.glob("*.py")
    }
    assert {name: n for name, n in hits.items() if n} == {"classical.py": 1}


def test_only_reduction_reads_factor_terms():
    # FactorizedFunction.log_value is the one float evaluator of a factor;
    # outside reduction only the renderer cli._factor_str reads the terms
    import nu_spectral

    terms = {"power_terms", "exp_poly", "inv_exp_terms"}
    readers = set()
    for path in Path(nu_spectral.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            nodes = ast.walk(top)
            if any(isinstance(node, ast.Attribute) and node.attr in terms for node in nodes):
                readers.add((path.name, getattr(top, "name", None)))
    assert {r for r in readers if r[0] != "reduction.py"} == {("cli.py", "_factor_str")}


def test_evaluators_take_no_settings():
    # tolerances, term budgets and step sizes that no caller varies are
    # module constants; the two settings that do take two values stay
    import nu_spectral

    settings = {"tol", "max_terms", "max_level", "rtol", "step", "s_anchor", "s_step"}
    kept = {("oracle.py", "fd_bound_states", "rtol"), ("oracle.py", "quad_adaptive", "tol")}
    found = set()
    for name in ("hyper.py", "oracle.py", "potentials.py"):
        tree = ast.parse((Path(nu_spectral.__file__).parent / name).read_text())
        public = [n for n in tree.body if not getattr(n, "name", "_").startswith("_")]
        public += [m for c in public if isinstance(c, ast.ClassDef) for m in c.body]
        for fn in public:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                found |= {(name, fn.name, a.arg) for a in args if a.arg in settings}
    assert found == kept


def test_one_helper_takes_a_power_in_halves():
    # every power in front of a series goes through hyper._times_power: only
    # it and gamma_fn's Lanczos split take a power in halves, and the five
    # routes that use it keep no overflow or underflow guard of their own
    import nu_spectral

    tree = ast.parse((Path(nu_spectral.__file__).parent / "hyper.py").read_text())

    def half(node):  # (-)0.5 * e
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and "0.5" in {
            ast.unparse(side).lstrip("-") for side in (node.left, node.right)
        }

    def halving(node):  # x ** half, exp(half) or power(half)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return half(node.right)
        return (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in ("exp", "power")
                and any(map(half, node.args)))

    def guarded(node):
        return (isinstance(node, ast.ExceptHandler) and "OverflowError" in ast.unparse(node.type)
                or isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_underflow_error")

    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    assert {fn.name for fn in functions if any(map(halving, ast.walk(fn)))} == {"gamma_fn", "_times_power"}
    routes = {"_hyp2f1_any", "_hyp1f1_any", "_hyp2f1_log", "_hyp1f1_far_left", "_u_asymptotic"}
    assert not {fn.name for fn in functions if fn.name in routes and any(map(guarded, ast.walk(fn)))}
    assert "_EXP_SUBNORMAL_BELOW" not in ast.unparse(tree)


def test_reports_store_no_derived_verdicts():
    # a degeneracy and a pass/fail verdict are read off the data they
    # summarise, so a report cannot disagree with itself
    import dataclasses

    from nu_spectral.oracle import SpectraReport
    from nu_spectral.potentials import ScatteringState

    assert [f.name for f in dataclasses.fields(ScatteringState)] == ["eps", "solutions"]
    assert "ok" not in {f.name for f in dataclasses.fields(SpectraReport)}


def test_potentials_keep_no_per_well_solver():
    # the continuum, like the levels, is derived from the reduced equation:
    # no record field selects a solver, and the three constructors are the
    # only module-level names in potentials that name a well
    import dataclasses

    from nu_spectral import potentials

    assert "scattering" not in {f.name for f in dataclasses.fields(potentials.PotentialSpec)}
    tree = ast.parse(Path(potentials.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    wells = {n for n in names if re.search("harmonic|morse|rosen", n, re.IGNORECASE)}
    assert wells == {"harmonic", "morse", "rosen_morse2"}


def _tracer_module():
    """perfbench/tracer.py, loaded from its file (it imports only the
    standard library)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_targets_resolve():
    # the traced benchmark run patches these names from outside; one that
    # no longer resolves breaks the traced run, not this package's own tests
    tracer = _tracer_module()
    for layer, name, _ in tracer._FUNCTIONS:
        module = importlib.import_module(f"nu_spectral.{layer}")
        assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for layer, cls_name, attrs in tracer._OPERATORS:
        cls = getattr(importlib.import_module(f"nu_spectral.{layer}"), cls_name)
        missing = [attr for attr in attrs if attr not in cls.__dict__]
        assert not missing, f"{layer}.{cls_name}: {missing}"
    potentials = importlib.import_module("nu_spectral.potentials")
    assert callable(potentials.bound_state) and callable(potentials.pinned_branch)


def test_spectrum_states_come_through_the_module_bound_state(monkeypatch):
    # the traced run wraps each state's sampler by replacing
    # potentials.bound_state, so bound_spectrum must look it up there
    potentials = importlib.import_module("nu_spectral.potentials")
    original, levels = potentials.bound_state, []

    def counted(spec, n):
        levels.append(n)
        return original(spec, n)

    monkeypatch.setattr(potentials, "bound_state", counted)
    states = potentials.bound_spectrum(potentials.morse(Lambda=3))
    assert levels == [st.n for st in states] == [0, 1, 2]
